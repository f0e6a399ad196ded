"""Differential net for the evaluator's fast paths.

Hypothesis draws small circuit geometries (g 1-3, E 3-12, every valid M,
K in {1, 2, 4}, LWM on and off, at most 13 qubits), a batch of 1-7 rows and
random angles. The evaluator's closed-form encoding plus extraction sweep must
agree with the whole gate list run op by op (``ev.compiled``) on amplitudes,
features and gradients, and its gradients with central differences; a second
net checks them against the four-term shift rule, from forwards alone.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quanvnet import circuits as qc
from quanvnet import statevector as sv

import oracles

MAX_QUBITS = 13


@st.composite
def cases(draw):
    g = draw(st.integers(1, 3))
    config = qc.CircuitConfig(
        grid_log=g,
        features_per_superpixel=3 * draw(st.integers(1, 4)),
        num_blocks=draw(st.integers(1, g)),
        kernels_per_block=draw(st.sampled_from([1, 2, 4])),
        lwm_enabled=draw(st.booleans()),
    )
    assume(qc.make_layout(config).total_qubits <= MAX_QUBITS)
    return config, draw(st.integers(1, 7)), draw(st.integers(0, 2**32 - 1))


def _reference(ev, data, params, cot):
    """Final states of the whole gate list, every operator's expectation, and
    the cotangent state sum_i cot_i M_i |psi>, one operator at a time."""
    psi = np.zeros((data.shape[0], 1 << ev.layout.total_qubits), dtype=np.complex128)
    psi[:, 0] = 1.0
    sv.run_compiled(ev.compiled, psi, data, params)
    features = np.empty(cot.shape)
    bra = np.zeros_like(psi)
    for r, row in enumerate(psi):
        state = sv.QuantumState(ev.layout.total_qubits, row)
        for i, op in enumerate(ev.operators):
            m_psi = sv.apply_measurement_operator(state, op)
            features[r, i] = np.vdot(row, m_psi).real
            bra[r] += cot[r, i] * m_psi
    return psi, features, bra


def _central_difference(f, x, slot, eps=1e-4):
    up, down = x.copy(), x.copy()
    up.flat[slot] += eps
    down.flat[slot] -= eps
    return (f(up) - f(down)) / (2 * eps)


@settings(max_examples=120)  # about 8 s on a 2-core Xeon
@given(cases())
def test_evaluator_matches_the_gate_list_and_central_differences(case):
    config, rows, seed = case
    rng = np.random.default_rng(seed)
    ev = qc.get_evaluator(config)
    data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
    cot = rng.normal(size=(rows, ev.num_features))

    amps, features, cache = ev.forward(data, params)
    psi, want_features, bra = _reference(ev, data, params, cot)
    assert np.max(np.abs(amps - psi)) <= 1e-10
    assert np.max(np.abs(features - want_features)) <= 1e-10

    got_params, got_data = ev.backward(cache, params, cot)
    want_params, want_data = sv.adjoint_sweep(ev.compiled, psi, bra, data, params, ev.program.param_arity)
    assert np.max(np.abs(got_params - want_params)) <= 1e-10
    assert got_data.shape == data.shape
    assert np.max(np.abs(got_data - want_data)) <= 1e-10

    def loss(d, p):
        return float(np.sum(ev.forward(d, p)[1] * cot))

    for slot in rng.choice(params.size, 2, replace=False):
        want = _central_difference(lambda p: loss(data, p), params, slot)
        assert oracles.relative_error(got_params[slot], want) <= 1e-5
    for slot in rng.choice(data.size, 2, replace=False):
        want = _central_difference(lambda d: loss(d, params), data, slot)
        assert oracles.relative_error(got_data.flat[slot], want) <= 1e-5


@settings(max_examples=30)
@given(cases())
def test_evaluator_gradients_match_the_shift_rule(case):
    # exact from forwards alone, since each slot binds one rotation
    config, rows, seed = case
    rng = np.random.default_rng(seed)
    ev = qc.get_evaluator(config)
    data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
    cot = rng.normal(size=(rows, ev.num_features))
    _, _, cache = ev.forward(data, params)
    got_params, got_data = ev.backward(cache, params, cot)

    def loss(d, p):
        return float(np.sum(ev.forward(d, p)[1] * cot))

    slots = rng.choice(params.size, 2, replace=False)
    want = oracles.shift_gradient(lambda p: loss(data, p), params, slots)
    assert oracles.relative_error(got_params[slots], want) <= 1e-10
    slots = rng.choice(data.size, 2, replace=False)
    want = oracles.shift_gradient(lambda d: loss(d, params), data, slots)
    assert oracles.relative_error(got_data.flat[slots], want) <= 1e-10
