"""What the benchmark in ``perfbench/`` relies on from the simulator.

The benchmark slices ``QuantumEvaluator.compiled`` at the length of the
encoding fragment's instruction list, replays the two parts with
``run_compiled`` and ``adjoint_sweep``, reads ``kind``, ``idx0``, ``idx1`` and
``angle`` of every compiled entry to count work, and clears the compile
cache between runs. These tests pin each of those properties on the
canonical 12-qubit circuit.
"""

import numpy as np

from quanvnet import circuits as qc
from quanvnet import statevector as sv

import oracles

CANONICAL = qc.CircuitConfig(grid_log=3, features_per_superpixel=9, num_blocks=2, kernels_per_block=2)
ROWS = 2


def _setup():
    ev = qc.get_evaluator(CANONICAL)
    n_enc = len(qc.build_encoding(CANONICAL, ev.layout).instructions)
    rng = np.random.default_rng(500)
    data = rng.uniform(0, np.pi, (ROWS, ev.program.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
    return ev, n_enc, data, params, rng


def _zero_states(num_qubits):
    amps = np.zeros((ROWS, 1 << num_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def test_encoding_prefix_replays_to_the_oracle_state():
    ev, n_enc, data, params, _ = _setup()
    got = _zero_states(ev.layout.total_qubits)
    sv.run_compiled(ev.compiled[:n_enc], got, data, None)
    size = CANONICAL.grid_size
    for row in range(ROWS):
        want = oracles.encoding_state_oracle(
            CANONICAL.grid_log, CANONICAL.features_per_superpixel, ev.layout.q_l, ev.layout.q_v,
            ev.layout.total_qubits, data[row].reshape(size, size, CANONICAL.features_per_superpixel),
        )
        assert np.max(np.abs(got[row] - want)) <= 1e-10
    sv.run_compiled(ev.compiled[n_enc:], got, data, params)
    amps, _ = ev.forward(data, params)
    assert np.max(np.abs(got - amps)) <= 1e-10


def test_extraction_suffix_sweep_gives_the_full_parameter_gradient():
    ev, n_enc, data, params, rng = _setup()
    amps, _ = ev.forward(data, params)
    bra = amps * rng.normal(size=amps.shape)  # any cotangent state does: only the sweeps are compared
    whole, _ = sv.adjoint_sweep(ev.compiled, amps, bra, data, params, ev.program.param_arity)
    suffix, _ = sv.adjoint_sweep(ev.compiled[n_enc:], amps, bra, data, params, ev.program.param_arity)
    assert np.max(np.abs(whole)) > 1e-3
    assert np.max(np.abs(suffix - whole)) <= 1e-10


def test_compiled_entries_expose_the_counted_fields():
    ev, n_enc, _, _, _ = _setup()
    assert n_enc == 774
    assert len(ev.compiled) - n_enc == 67  # 1 kernel-register H + 66 fused units
    for cg in ev.compiled:
        assert cg.kind in sv.GATE_KINDS + ("U",)
        assert len(cg.idx0) == len(cg.idx1) > 0
        assert cg.angle is None or cg.angle[0] in ("const", "data", "param")
    units = [cg for cg in ev.compiled if cg.kind == "U"]
    assert len(units) == 66
    assert all(cg.angle == sv.param_slot(cg.slots[0]) for cg in units)
    assert sorted(s for cg in units for s in cg.slots) == list(range(ev.program.param_arity))
    assert all(cg.angle is not None and cg.angle[0] == "data" for cg in ev.compiled[:n_enc] if cg.kind in sv.ROTATION_KINDS)


def test_compile_cache_can_be_cleared():
    assert callable(sv.compile_program.cache_clear)
    assert callable(qc.get_evaluator.cache_clear)
