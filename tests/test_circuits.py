import warnings

import numpy as np
import pytest

from quanvnet import circuits as qc
from quanvnet import statevector as sv

import oracles

CANONICAL = qc.CircuitConfig(grid_log=3, features_per_superpixel=9, num_blocks=2, kernels_per_block=2)
SMALL = qc.CircuitConfig(grid_log=2, features_per_superpixel=3, num_blocks=1, kernels_per_block=2)
# (1, 21, 1, 2): 7 value qubits, wider than MAX_BLOCK_QUBITS, so the head and the tail run as two factors
SCHEDULE_CONFIGS = [(3, 9, 2, 2, True), (2, 3, 2, 4, False), (2, 6, 1, 1, True), (2, 12, 2, 2, True),
                    (1, 21, 1, 2, True)]
BLOCK_CONFIGS = [(3, 9, 2, 2, True), (2, 3, 2, 4, False), (2, 6, 1, 1, True), (1, 12, 1, 2, True), (4, 9, 3, 2, True)]
LAYOUT_CONFIGS = [c[:4] for c in BLOCK_CONFIGS] + [(1, 21, 1, 2)]


class TestConfigValidation:
    def test_e_divisible_by_three(self):
        with pytest.raises(ValueError):
            qc.CircuitConfig(3, 10, 2, 2)

    def test_k_power_of_two(self):
        with pytest.raises(ValueError):
            qc.CircuitConfig(3, 9, 2, 3)

    def test_m_bounded_by_g(self):
        with pytest.raises(ValueError):
            qc.CircuitConfig(2, 9, 3, 2)


class TestLayout:
    @pytest.mark.parametrize("g,e,m,k", LAYOUT_CONFIGS)
    def test_registers_disjoint_and_complete(self, g, e, m, k):
        layout = qc.make_layout(qc.CircuitConfig(g, e, m, k))
        all_q = layout.q_l + layout.q_v + layout.q_k + layout.q_f
        assert sorted(all_q) == list(range(layout.total_qubits))
        assert layout.total_qubits == 2 * g + e // 3 + k.bit_length() - 1 + m

    def test_canonical_numbering(self):
        layout = qc.make_layout(CANONICAL)
        assert layout.q_l == (0, 2, 5, 1, 3, 6)  # [x_3, x_2, x_1, y_3, y_2, y_1]
        assert layout.q_v == (9, 10, 11) and layout.q_k == (8,) and layout.q_f == (7, 4)

    @pytest.mark.parametrize("g,e,m,k", LAYOUT_CONFIGS)
    def test_qubits_are_numbered_in_the_evaluator_state_order(self, g, e, m, k):
        # slowest axis first, on qubit n - 1: the value and kernel qubits from the last down, each block's
        # q_f[b-1], y_b, x_b, then the location pairs no block consumes
        layout = qc.make_layout(qc.CircuitConfig(g, e, m, k))
        x, y = layout.q_l[g - 1 :: -1], layout.q_l[: g - 1 : -1]  # x_1 .. x_g, y_1 .. y_g
        order = layout.q_v[::-1] + layout.q_k[::-1] + sum(((layout.q_f[b], y[b], x[b]) for b in range(m)), ())
        order += sum(((y[b], x[b]) for b in range(m, g)), ())
        assert order == tuple(reversed(range(layout.total_qubits)))

    def test_register_sizes(self):
        layout = qc.make_layout(CANONICAL)
        assert len(layout.q_l) == 6
        assert len(layout.q_v) == 3
        assert len(layout.q_k) == 1
        assert len(layout.q_f) == 2


class TestEncoding:
    def test_canonical_instruction_counts(self):
        layout = qc.make_layout(CANONICAL)
        frag = qc.build_encoding(CANONICAL, layout)
        kinds = [i.kind for i in frag.instructions]
        assert kinds.count("H") == 6
        assert sum(k in qc.GATE_UNIT for k in kinds) == 192 * 3
        assert kinds.count("Z") == 192
        assert frag.data_arity == 9 * 64
        assert frag.param_arity == 0

    def test_all_zero_features_give_uniform_location_superposition(self):
        layout = qc.make_layout(SMALL)
        frag = qc.build_encoding(SMALL, layout)
        state = sv.run_circuit(frag, np.zeros(frag.data_arity))
        n = layout.total_qubits
        value_mask = sum(1 << q for q in layout.q_v + layout.q_k + layout.q_f)
        for idx in range(1 << n):
            expect = 0.25 if idx & value_mask == 0 else 0.0
            assert abs(state.amplitudes[idx] - expect) <= 1e-12

    @pytest.mark.parametrize("g,e", [(1, 3), (1, 9), (2, 3), (2, 9), (1, 6), (1, 12), (2, 12)])
    def test_matches_closed_form_oracle(self, g, e):
        rng = np.random.default_rng(100 + g * 10 + e)
        config = qc.CircuitConfig(g, e, 1, 1)
        layout = qc.make_layout(config)
        frag = qc.build_encoding(config, layout)
        for _ in range(5):
            processed = rng.uniform(0, np.pi, (config.grid_size, config.grid_size, e))
            state = sv.run_circuit(frag, processed.reshape(-1))
            want = oracles.encoding_state_oracle(g, e, layout.q_l, layout.q_v, layout.total_qubits, processed)
            assert np.max(np.abs(state.amplitudes - want)) <= 1e-10

    def test_permuting_superpixels_permutes_location_branches(self):
        config = qc.CircuitConfig(2, 3, 1, 1)
        layout = qc.make_layout(config)
        frag = qc.build_encoding(config, layout)
        rng = np.random.default_rng(17)
        processed = rng.uniform(0, np.pi, (4, 4, 3))
        swapped = processed.copy()
        swapped[0, 1], swapped[2, 3] = processed[2, 3], processed[0, 1]
        a = sv.run_circuit(frag, processed.reshape(-1)).amplitudes
        b = sv.run_circuit(frag, swapped.reshape(-1)).amplitudes

        def branch(x, y):
            bits = 0
            for j in range(2):
                bits |= ((x >> (1 - j)) & 1) << layout.q_l[j]
                bits |= ((y >> (1 - j)) & 1) << layout.q_l[2 + j]
            return bits

        for idx in range(a.size):
            loc = idx & sum(1 << q for q in layout.q_l)
            rest = idx ^ loc
            if loc == branch(0, 1):
                assert a[idx] == b[branch(2, 3) | rest]
            elif loc == branch(2, 3):
                assert a[idx] == b[branch(0, 1) | rest]
            else:
                assert a[idx] == b[idx]


class TestCzSignPattern:
    def test_basis_000_fixed(self):
        v = np.zeros(8, complex)
        v[0] = 1
        assert np.array_equal(qc.cz_sign_pattern(v), v)

    def test_general_pattern(self):
        v = np.arange(1, 9).astype(complex)  # (a..h)
        out = qc.cz_sign_pattern(v)
        want = np.array([1, 2, 3, -4, 5, -6, -7, -8], dtype=complex)
        assert np.array_equal(out, want)

    def test_uniform_vector(self):
        v = np.full(8, 1 / np.sqrt(8), dtype=complex)
        out = qc.cz_sign_pattern(v)
        flipped = np.nonzero(out < 0)[0]
        assert list(flipped) == [3, 5, 6, 7]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            qc.cz_sign_pattern(np.zeros(4, complex))

    def test_matches_circuit_entanglers(self):
        # the three location-conditioned pair entanglers on a lone superpixel
        # must reproduce the sign pattern branch by branch
        rng = np.random.default_rng(23)
        config = qc.CircuitConfig(1, 9, 1, 1)
        layout = qc.make_layout(config)
        frag = qc.build_encoding(config, layout)
        processed = rng.uniform(0, np.pi, (2, 2, 9))
        state = sv.run_circuit(frag, processed.reshape(-1))
        want = oracles.encoding_state_oracle(1, 9, layout.q_l, layout.q_v, layout.total_qubits, processed)
        assert np.max(np.abs(state.amplitudes - want)) <= 1e-10


class TestFeatureExtraction:
    def test_canonical_counts_lwm_on(self):
        layout = qc.make_layout(CANONICAL)
        frag = qc.build_feature_extraction(CANONICAL, layout)
        kinds = [i.kind for i in frag.instructions]
        assert sum(k in qc.GATE_UNIT for k in kinds) == 66 * 3
        assert kinds.count("H") == 1
        assert frag.param_arity == 198

    def test_canonical_counts_lwm_off(self):
        config = qc.CircuitConfig(3, 9, 2, 2, lwm_enabled=False)
        layout = qc.make_layout(config)
        frag = qc.build_feature_extraction(config, layout)
        assert sum(i.kind in qc.GATE_UNIT for i in frag.instructions) == 54 * 3
        assert frag.param_arity == 162

    def test_zero_angles_reduce_to_encoding_marginals(self):
        # all parameterized gates become identity: q_l/q_k stay |+>, q_v/q_f stay |0>
        layout = qc.make_layout(CANONICAL)
        prog = qc.full_program(CANONICAL, layout)
        state = sv.run_circuit(prog, np.zeros(prog.data_arity), np.zeros(prog.param_arity))
        probs = np.abs(state.amplitudes) ** 2
        n = layout.total_qubits
        for q in layout.q_l + layout.q_k:
            p1 = probs[(np.arange(1 << n) >> q) & 1 == 1].sum()
            assert abs(p1 - 0.5) <= 1e-12
        for q in layout.q_v + layout.q_f:
            p1 = probs[(np.arange(1 << n) >> q) & 1 == 1].sum()
            assert abs(p1) <= 1e-12

    def test_zero_params_reduce_to_encoding_plus_kernel_hadamards(self):
        # for any input, zero trainable angles leave only the encoding and
        # the kernel-register Hadamards acting on the state
        rng = np.random.default_rng(61)
        layout = qc.make_layout(CANONICAL)
        prog = qc.full_program(CANONICAL, layout)
        ops = qc.build_measurement_operators(CANONICAL, layout)
        processed = rng.uniform(0, np.pi, (8, 8, 9))
        feats = qc.quantum_forward(CANONICAL, processed, np.zeros(prog.param_arity))
        enc = qc.build_encoding(CANONICAL, layout)
        stripped = sv.CircuitProgram(
            layout.total_qubits,
            enc.instructions + tuple(sv.GateInstruction("H", q) for q in layout.q_k),
            data_arity=enc.data_arity,
        )
        state = sv.run_circuit(stripped, processed.reshape(-1))
        direct = np.array([sv.expectation(state, op) for op in ops])
        assert np.max(np.abs(feats - direct)) <= 1e-10

    def test_single_kernel_config_has_no_kernel_register(self):
        config = qc.CircuitConfig(2, 3, 1, 1)
        layout = qc.make_layout(config)
        assert layout.q_k == ()
        rep = qc.resource_report(config)
        assert rep.extraction_hadamards == 0
        feats = qc.quantum_forward(config, np.full((4, 4, 3), 0.3), np.zeros(rep.trainable_quantum_params))
        assert feats.shape == (2 ** (2 + 1),)

    def test_block_chaining_controls(self):
        layout = qc.make_layout(CANONICAL)
        frag = qc.build_feature_extraction(CANONICAL, layout)
        f2_units = [
            i for i in frag.instructions if i.kind in qc.GATE_UNIT and i.target == layout.q_f[1]
        ]
        assert f2_units  # block 2 exists
        for instr in f2_units:
            assert (layout.q_f[0], 1) in instr.controls


class TestMeasurementOperators:
    def test_canonical_family(self):
        layout = qc.make_layout(CANONICAL)
        ops = qc.build_measurement_operators(CANONICAL, layout)
        assert len(ops) == 64
        measured = ops[0].measured_qubits
        assert len(measured) == 7
        # x_3, y_3, the kernel qubit, all three value qubits, last feature qubit
        assert set(measured) == {layout.q_l[0], layout.q_l[3], layout.q_k[0]} | set(layout.q_v) | {layout.q_f[1]}

    def test_index_zero_all_plus_except_feature(self):
        layout = qc.make_layout(CANONICAL)
        ops = qc.build_measurement_operators(CANONICAL, layout)
        assert ops[0].signs == (1, 1, 1, 1, 1, 1, -1)

    def test_sign_order_most_significant_first(self):
        layout = qc.make_layout(CANONICAL)
        ops = qc.build_measurement_operators(CANONICAL, layout)
        # index 32 flips only the most significant sign bit (the x-axis one)
        assert ops[32].signs == (-1, 1, 1, 1, 1, 1, -1)
        assert ops[1].signs == (1, 1, 1, 1, 1, -1, -1)

    def test_m_equals_g_measures_no_location_bits(self):
        config = qc.CircuitConfig(2, 9, 2, 2)
        layout = qc.make_layout(config)
        ops = qc.build_measurement_operators(config, layout)
        assert len(ops) == 2 ** (3 + 1)
        assert all(q not in layout.q_l for q in ops[0].measured_qubits)


class TestQuantumForward:
    def test_zero_image_zero_params(self):
        rep = qc.resource_report(CANONICAL)
        feats = qc.quantum_forward(CANONICAL, np.zeros((8, 8, 9)), np.zeros(rep.trainable_quantum_params))
        want = np.zeros(64)
        want[:8] = 8.0
        assert np.allclose(feats, want, atol=1e-10)

    def test_values_in_operator_range(self):
        rng = np.random.default_rng(31)
        rep = qc.resource_report(CANONICAL)
        processed = rng.uniform(0, np.pi, (8, 8, 9))
        params = rng.uniform(0, 2 * np.pi, rep.trainable_quantum_params)
        feats = qc.quantum_forward(CANONICAL, processed, params)
        assert feats.shape == (64,)
        assert np.all(feats >= -1e-10)
        assert np.all(feats <= 128 + 1e-10)

    def test_small_config_matches_dense_oracle(self):
        rng = np.random.default_rng(37)
        layout = qc.make_layout(SMALL)
        prog = qc.full_program(SMALL, layout)
        ops = qc.build_measurement_operators(SMALL, layout)
        processed = rng.uniform(0, np.pi, (4, 4, 3))
        params = rng.uniform(0, 2 * np.pi, prog.param_arity)
        feats = qc.quantum_forward(SMALL, processed, params)
        psi = oracles.dense_program_state(prog, processed.reshape(-1), params)
        for i, op in enumerate(ops):
            want = oracles.dense_expectation(layout.total_qubits, psi, op)
            assert abs(feats[i] - want) <= 1e-10

    def test_matches_per_operator_expectations(self):
        rng = np.random.default_rng(41)
        layout = qc.make_layout(CANONICAL)
        prog = qc.full_program(CANONICAL, layout)
        ops = qc.build_measurement_operators(CANONICAL, layout)
        processed = rng.uniform(0, np.pi, (8, 8, 9))
        params = rng.uniform(0, 2 * np.pi, prog.param_arity)
        feats = qc.quantum_forward(CANONICAL, processed, params)
        state = sv.run_circuit(prog, processed.reshape(-1), params)
        direct = np.array([sv.expectation(state, op) for op in ops])
        assert np.max(np.abs(feats - direct)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        rep = qc.resource_report(SMALL)
        processed = rng.uniform(0, np.pi, (4, 4, 3))
        params = rng.uniform(0, 2 * np.pi, rep.trainable_quantum_params)
        a = qc.quantum_forward(SMALL, processed, params)
        b = qc.quantum_forward(SMALL, processed, params)
        assert np.array_equal(a, b)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            qc.quantum_forward(CANONICAL, np.zeros((4, 4, 9)), np.zeros(198))

    @pytest.mark.parametrize("length", [23, 29])
    def test_parameter_vector_of_another_length_rejected(self, length):
        # CircuitConfig(1, 3, 1, 1) binds 24 parameters
        with pytest.raises(ValueError, match=f"length {length}, program expects 24"):
            qc.quantum_forward(qc.CircuitConfig(1, 3, 1, 1), np.zeros((2, 2, 3)), np.zeros(length))

    def test_data_rows_of_another_width_rejected(self):
        ev = qc.get_evaluator(qc.CircuitConfig(1, 3, 1, 1))
        with pytest.raises(ValueError, match="length 11, program expects 12"):
            ev.forward(np.zeros((2, 11)), np.zeros(ev.extraction.param_arity))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, bad):
        processed = np.zeros((4, 4, 3))
        processed[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            qc.quantum_forward(SMALL, processed, np.zeros(qc.resource_report(SMALL).trainable_quantum_params))


class TestEvaluatorBackward:
    def _forward(self, seed):
        rng = np.random.default_rng(seed)
        ev = qc.get_evaluator(SMALL)
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        amps, _, cache = ev.forward(rng.uniform(0, np.pi, (3, ev.program.data_arity)), params)
        return ev, params, rng.normal(size=(3, ev.num_features)), amps, cache

    def test_no_compiled_op_runs_on_an_array_that_grows_with_the_batch(self, monkeypatch):
        # no compiled op runs at all: the transfer matrices are built in closed form, and the batch passes
        # through value maps and batched GEMMs alone
        config = qc.CircuitConfig(2, 6, 2, 2)
        ev, shapes = qc.QuantumEvaluator(config), []
        real = sv._apply_kernel

        def spy(cols, *args):
            shapes.append(cols.shape)
            return real(cols, *args)

        monkeypatch.setattr(sv, "_apply_kernel", spy)
        rng = np.random.default_rng(61)
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        amps, _, cache = ev.forward(rng.uniform(0, np.pi, (7, config.data_arity)), params)
        # the returned amplitudes are a copy of their own: the backward reads no part of them
        cached = [a for value in cache.values() for a in (value if isinstance(value, list) else [value])]
        assert not any(np.shares_memory(amps, a) for a in cached if isinstance(a, np.ndarray))
        ev.backward(cache, params, rng.normal(size=(7, ev.num_features)))
        assert shapes == []

    def test_second_backward_on_one_cache_raises(self):
        # the cached measured state becomes the first backward's bra
        ev, params, cot, _, cache = self._forward(67)
        ev.backward(cache, params, cot)
        with pytest.raises(KeyError):
            ev.backward(cache, params, cot)

    def test_param_gradients_match_general_adjoint(self):
        rng = np.random.default_rng(47)
        ev = qc.get_evaluator(SMALL)
        data = rng.uniform(0, np.pi, ev.program.data_arity)
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        cot = rng.normal(size=ev.num_features)
        _, _, cache = ev.forward(data[None, :], params)
        got, _ = ev.backward(cache, params, cot[None, :])
        want = sv.adjoint_gradients(ev.program, data, params, ev.operators, cot)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_data_gradients_match_finite_differences(self):
        rng = np.random.default_rng(53)
        ev = qc.get_evaluator(SMALL)
        data = rng.uniform(0.2, np.pi - 0.2, ev.program.data_arity)
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        cot = rng.normal(size=ev.num_features)

        def loss(d):
            _, feats, _ = ev.forward(d[None, :], params)
            return float(feats[0] @ cot)

        _, _, cache = ev.forward(data[None, :], params)
        _, dgrads = ev.backward(cache, params, cot[None, :])
        want = oracles.central_differences(loss, data, eps=1e-4)
        assert oracles.relative_error(dgrads[0], want) <= 1e-5


class TestResourceReport:
    def test_canonical_encoding_row(self):
        rep = qc.resource_report(CANONICAL)
        assert rep.encoding_qubits == 9
        assert rep.encoding_gate_units == 192
        assert rep.encoding_hadamards == 6
        assert rep.encoding_cz == 192
        assert rep.total_qubits == 12
        assert rep.measurement_operators == 64

    def test_canonical_extraction_row(self):
        rep = qc.resource_report(CANONICAL)
        assert rep.extraction_qubits == 3
        assert rep.extraction_gate_units == 66
        assert rep.extraction_hadamards == 1
        assert rep.trainable_quantum_params == 198

    def test_counts_depend_only_on_grid_ratio(self):
        # same g: a 256x256 image with 32x32 patches equals the 32/4 case
        from quanvnet.model import ModelConfig

        large = ModelConfig(image_size=256, patch_size=32, features=9, blocks=2,
                            kernels=2, channels=3, num_classes=4)
        assert qc.resource_report(large.circuit_config()) == qc.resource_report(CANONICAL)

    @pytest.mark.parametrize("g,e,m,k,lwm", [
        (1, 3, 1, 1, True),
        (2, 3, 1, 2, True),
        (2, 9, 2, 2, False),
        (3, 9, 2, 4, True),
        (3, 6, 3, 1, True),
        (3, 9, 2, 2, True),  # canonical
        (2, 12, 2, 2, True),
    ])
    def test_closed_forms_match_fragments(self, g, e, m, k, lwm):
        config = qc.CircuitConfig(g, e, m, k, lwm)
        layout = qc.make_layout(config)
        rep = qc.resource_report(config)

        def counts(program):
            kinds = [i.kind for i in program.instructions]
            rotations = sum(kinds.count(kind) for kind in qc.GATE_UNIT)
            assert rotations % 3 == 0
            return rotations // 3, kinds.count("H"), kinds.count("Z")

        enc = qc.build_encoding(config, layout)
        ext = qc.build_feature_extraction(config, layout)
        assert counts(enc) == (rep.encoding_gate_units, rep.encoding_hadamards, rep.encoding_cz)
        assert counts(ext) == (rep.extraction_gate_units, rep.extraction_hadamards, 0)
        assert ext.param_arity == rep.trainable_quantum_params
        assert len(qc.build_measurement_operators(config, layout)) == rep.measurement_operators
        assert layout.total_qubits == rep.total_qubits
        assert (len(layout.q_l) + len(layout.q_v), len(layout.q_k) + len(layout.q_f)) == (
            rep.encoding_qubits, rep.extraction_qubits)

    def test_builds_no_fragment(self, monkeypatch, capsys):
        from quanvnet.cli import main

        def refuse(*args):
            raise AssertionError("resource_report built a fragment")

        for name in ("build_encoding", "build_feature_extraction", "build_measurement_operators"):
            monkeypatch.setattr(qc, name, refuse)
        assert qc.resource_report(CANONICAL).encoding_gate_units == 192
        # 22 qubits: 2^16 superpixels of 3 gate units each, and 2^16 operators
        assert main(["resources", "--image-size", "1024", "--patch-size", "4", "--batch-size", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {"total_qubits=22", "encoding_gate_units=196608", "measurement_operators=65536"} <= set(lines)


def test_measurement_table_matches_per_operator_expectations_and_gradients():
    # two kernel qubits and M = g, so no location bit is measured
    config = qc.CircuitConfig(2, 3, 2, 4, lwm_enabled=False)
    rng = np.random.default_rng(59)
    ev = qc.QuantumEvaluator(config)
    data = rng.uniform(0, np.pi, (2, ev.program.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
    cot = rng.normal(size=(2, ev.num_features))
    _, features, cache = ev.forward(data, params)
    got, _ = ev.backward(cache, params, cot)
    want = np.zeros(ev.program.param_arity)
    for row in range(2):
        state = sv.run_circuit(ev.program, data[row], params)
        direct = np.array([sv.expectation(state, op) for op in ev.operators])
        assert np.max(np.abs(features[row] - direct)) <= 1e-10
        want += sv.adjoint_gradients(ev.program, data[row], params, ev.operators, cot[row])
    assert oracles.relative_error(got, want) <= 1e-10


class TestClosedFormEncoding:
    """The evaluator builds the encoded state and its data-angle gradients in
    closed form; the gate-list encoding in ``compiled`` is the reference
    (gradients against the full gate-list sweep: ``test_statevector.py``),
    and the shift rule and central differences check the gradients."""

    # value registers of 1 to 4 qubits (the CZ sign beyond E = 9) on grids 2x2 to 8x8
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("g,e", [(1, 3), (1, 6), (1, 9), (1, 12), (2, 3), (2, 6), (2, 12), (3, 3), (3, 9), (3, 12)])
    def test_encoded_state_matches_oracle_and_gate_list(self, g, e, rows):
        config = qc.CircuitConfig(g, e, 1, 1)
        rng = np.random.default_rng(700 + 10 * g + e + rows)
        ev = qc.QuantumEvaluator(config)
        data = rng.uniform(-np.pi, np.pi, (rows, ev.program.data_arity))
        # no kernel register and zero parameters: the extraction is the identity
        amps, _, _ = ev.forward(data, np.zeros(ev.program.param_arity))
        n_enc = len(qc.build_encoding(config, ev.layout).instructions)
        replay = np.zeros_like(amps)
        replay[:, 0] = 1.0
        sv.run_compiled(ev.compiled[:n_enc], replay, data, None)
        assert np.max(np.abs(amps - replay)) <= 1e-10
        for row in range(rows):
            processed = data[row].reshape(config.grid_size, config.grid_size, e)
            want = oracles.encoding_state_oracle(g, e, ev.layout.q_l, ev.layout.q_v, ev.layout.total_qubits, processed)
            assert np.max(np.abs(amps[row] - want)) <= 1e-10

    @pytest.mark.parametrize("g,e,m,k", [(1, 12, 1, 2), (2, 6, 1, 1)])
    def test_gradients_match_central_differences(self, g, e, m, k):
        rng = np.random.default_rng(900 + 10 * g + e)
        ev = qc.get_evaluator(qc.CircuitConfig(g, e, m, k))
        data = rng.uniform(-np.pi, np.pi, (2, ev.program.data_arity))
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        cot = rng.normal(size=(2, ev.num_features))
        _, _, cache = ev.forward(data, params)
        got_params, got_data = ev.backward(cache, params, cot)

        def loss(d, p):
            return float(np.sum(ev.forward(d, p)[1] * cot))

        want_data = oracles.central_differences(lambda d: loss(d.reshape(data.shape), params), data.reshape(-1))
        want_params = oracles.central_differences(lambda p: loss(data, p), params)
        assert oracles.relative_error(got_data.reshape(-1), want_data) <= 1e-5
        assert oracles.relative_error(got_params, want_params) <= 1e-5
        # the shift rule is exact on every slot: each binds one rotation
        data_slots, param_slots = rng.choice(data.size, 12, replace=False), rng.choice(params.size, 12, replace=False)
        want_data = oracles.shift_gradient(lambda d: loss(d, params), data, data_slots)
        want_params = oracles.shift_gradient(lambda p: loss(data, p), params, param_slots)
        assert oracles.relative_error(got_data.flat[data_slots], want_data) <= 1e-10
        assert oracles.relative_error(got_params[param_slots], want_params) <= 1e-10


class TestLazyReference:
    """The evaluator compiles no fragment; the whole gate list, encoding
    first, is built when ``program`` or ``compiled`` is read, and the
    measurement family when ``operators`` is."""

    def test_model_construction_builds_no_encoding_gate_list(self, monkeypatch):
        from quanvnet import model as qm

        built, compiled = [], []
        real_build, real_operators, real_compile = qc.build_encoding, qc.build_measurement_operators, sv.compile_program
        monkeypatch.setattr(qc, "build_encoding", lambda *a: built.append(a) or real_build(*a))
        monkeypatch.setattr(qc, "build_measurement_operators", lambda *a: built.append(a) or real_operators(*a))
        monkeypatch.setattr(sv, "compile_program", lambda p: compiled.append(p) or real_compile(p))
        qc.get_evaluator.cache_clear()
        model = qm.HybridModel(qm.ModelConfig())
        assert built == []
        assert compiled == []
        assert model.segment_lengths["quantum"] == 198
        assert not {"program", "compiled", "operators"} & set(vars(model.evaluator))
        assert len(model.evaluator.operators) == 64 and model.evaluator.operators is model.evaluator.operators
        assert len(built) == 1

    def test_first_access_gives_the_whole_program_encoding_first(self):
        ev = qc.QuantumEvaluator(CANONICAL)
        n_enc = len(qc.build_encoding(CANONICAL, ev.layout).instructions)
        assert (n_enc, len(ev.compiled) - n_enc) == (774, 199)
        assert ev.compiled is ev.compiled and ev.program is ev.program
        assert ev.program.instructions[n_enc:] == ev.extraction.instructions

        def ops(compiled):
            return [(c.kind, c.target, c.controls, c.angle, c.sel0, c.sel1) for c in compiled]

        assert ops(ev.compiled[n_enc:]) == ops(sv.compile_program(ev.extraction))

    def test_pair_indices_on_access_match_their_closed_form_count(self):
        ev = qc.QuantumEvaluator(CANONICAL)
        n = ev.layout.total_qubits
        index = np.arange(1 << n)
        for cg in ev.compiled:
            assert len(cg.idx0) == len(cg.idx1) == 2 ** (n - 1 - len(cg.controls))
            match = (index >> cg.target) & 1 == 0
            for q, v in cg.controls:
                match &= (index >> q) & 1 == v
            assert np.array_equal(np.sort(cg.idx0), index[match])
            assert np.array_equal(cg.idx1, cg.idx0 | (1 << cg.target))


class TestFusedSchedule:
    """The evaluator runs no compiled op: it builds every extraction unit's
    matrix in one pass, and from them the value maps and each block's
    transfer matrices in closed form; ``compiled`` stays the per-gate
    reference it is checked against."""

    def test_a_single_image_forward_dispatches_each_op_once(self, monkeypatch):
        # a timing-free latency guard: one pass over every unit's angles and one Kronecker product for the
        # head's value map, one for the tail's and one for all LWM pairs, once per parameter set; the
        # backward builds nothing
        ev, calls = qc.QuantumEvaluator(CANONICAL), []
        for owner, name in ((sv, "_apply_kernel"), (qc, "_unit_matrix"), (qc, "_kron_factors")):
            real = getattr(owner, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, spy)
        rng = np.random.default_rng(1050)
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        data = rng.uniform(0, np.pi, (1, CANONICAL.data_arity))
        _, _, cache = ev.forward(data, params)
        assert sorted(calls) == ["_kron_factors"] * 3 + ["_unit_matrix"]
        calls.clear()
        ev.backward(cache, params, rng.normal(size=(1, ev.num_features)))
        assert calls == []
        ev.forward(data, params)  # the same parameters: nothing is built
        assert calls == []

    # (3, 9, 1, 2): 8 measured bits besides q_f[-1], so the Hadamards run as two factors, of 6 bits and 2
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("g,e,m,k,lwm", [(3, 9, 2, 2, True), (2, 3, 2, 4, False), (2, 6, 1, 1, True),
                                             (2, 12, 2, 2, True), (3, 9, 1, 2, True), (1, 21, 1, 2, True)])
    def test_matches_the_per_unit_reference(self, g, e, m, k, lwm, rows):
        config = qc.CircuitConfig(g, e, m, k, lwm)
        rng = np.random.default_rng(1100 + 100 * g + 10 * e + rows)
        ev = qc.get_evaluator(config)
        n_enc = len(qc.build_encoding(config, ev.layout).instructions)
        arity = ev.extraction.param_arity
        data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
        params = rng.uniform(0, 2 * np.pi, arity)
        cot = rng.normal(size=(rows, ev.num_features))
        amps, features, cache = ev.forward(data, params)
        full = np.zeros_like(amps)
        full[:, 0] = 1.0
        sv.run_compiled(ev.compiled, full, data, params)
        assert np.max(np.abs(amps - full)) <= 1e-10
        n = ev.layout.total_qubits
        bra = np.zeros_like(full)
        for row in range(rows):
            state = sv.QuantumState(n, full[row])
            for c, op in zip(cot[row], ev.operators):
                bra[row] += c * sv.apply_measurement_operator(state, op)
            direct = [sv.expectation(state, op) for op in ev.operators]
            assert np.max(np.abs(features[row] - direct)) <= 1e-10
        got, _ = ev.backward(cache, params, cot)
        want, _ = sv.adjoint_sweep(ev.compiled[n_enc:], full, bra, data, params, arity)
        assert np.max(np.abs(got - want)) <= 1e-10

        # the head, first LWM pair and tail units against central differences
        nv = config.value_qubits
        slots = list(range(3 * nv)) + (list(range(3 * nv, 3 * nv + 6)) if lwm else []) + list(range(arity - 3 * nv, arity))

        def loss(p_sub):
            p = params.copy()
            p[slots] = p_sub
            return float(np.sum(ev.forward(data, p)[1] * cot))

        assert oracles.relative_error(got[slots], oracles.central_differences(loss, params[slots])) <= 1e-5


def _touched(op) -> set:
    """Every qubit an op acts on or is controlled by."""
    return {op.target, *dict(op.controls)}


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("count", range(6))
def test_unit_matrix_inverts_the_dense_product_of_its_rotations(value, count):
    # the conjugate transpose of _unit_matrix, applied by a compiled op's kernel on the unit's target and
    # controls, undoes the oracle's dense product R_Z R_Y R_X on a 7-qubit register
    n, rng = 7, np.random.default_rng(100 + 10 * count + value)
    target = int(rng.integers(n))
    controls = tuple((int(q), value) for q in rng.permutation([q for q in range(n) if q != target])[:count])
    unit = [sv.GateInstruction(kind, target, controls, sv.param_slot(i)) for i, kind in enumerate(qc.GATE_UNIT)]
    params = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
    dense = np.eye(1 << n, dtype=np.complex128)
    for instr in unit:
        dense = oracles.dense_gate_matrix(n, instr, params=params) @ dense
    before = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    cols = dense @ before
    assert np.max(np.abs(cols - before)) > 1e-3
    m00, m01, m10, m11 = qc._unit_matrix(params)
    (op,) = sv.compile_program(sv.CircuitProgram(n, unit[:1], param_arity=1))
    sv._apply_kernel(cols, op, (np.conj(m00), np.conj(m10), np.conj(m01), np.conj(m11)))
    assert np.max(np.abs(cols - before)) <= 1e-10


def test_unit_generators_give_the_derivatives_of_the_unit_matrix():
    # U G'_k = dU/d(angle k) for U = R_Z R_Y R_X, checked by central differences of _unit_matrix
    rng, h = np.random.default_rng(660), 1e-6
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, (5, 3))

    def matrices(a):
        return np.stack(qc._unit_matrix(a), axis=-1).reshape(-1, 2, 2)

    u = matrices(angles)
    generators = qc._unit_generators(angles[:, 0], u)
    assert generators.shape == (5, 3, 2, 2)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        want = (matrices(angles + step) - matrices(angles - step)) / (2 * h)
        assert np.max(np.abs(want)) > 1e-2
        assert np.max(np.abs(u @ generators[:, k] - want)) <= 1e-8


def test_unit_parts_match_the_cosine_and_sine_of_the_half_angles():
    # the parts come from t = tan(angle / 4); each angle slot also takes the tangent's poles 2 pi (2k + 1), zero,
    # the tiniest and huge magnitudes, with the unit's other angles random
    rng = np.random.default_rng(690)
    special = np.concatenate([2 * np.pi * (2 * np.arange(-3, 4) + 1), [0.0, 1e-300, -1e-300, 1e15, -1e15]])
    angles = rng.uniform(-1e3, 1e3, (1000 + 3 * len(special), 3))
    for k in range(3):
        angles[1000 + k * len(special) : 1000 + (k + 1) * len(special), k] = special
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = qc._unit_parts(angles)
    (cx, cy, cz), (sx, sy, sz) = np.cos(angles / 2).T, np.sin(angles / 2).T
    want = (cz - 1j * sz, cy * cx + 1j * sy * sx, sy * cx - 1j * cy * sx)  # p, and R_Y R_X|0> = (a, b)
    for got, w in zip(parts, want):
        assert got.shape == (len(angles),)
        assert np.max(np.abs(got - w)) <= 1e-15


class TestTransferMatrices:
    """Block b of the extraction acts on x_b, y_b and q_f[b-1] under controls
    q_v, q_k and q_f[b-2] only, so per pattern of those controls it is one
    matrix: the evaluator builds each block's 8 x 4 matrices once per
    parameter set and applies them to the batch as one GEMM."""

    def test_canonical_blocks(self):
        ev = qc.QuantumEvaluator(CANONICAL)
        # 16 sectors (q_v, q_k), then 32 (and q_f[0])
        params = np.random.default_rng(1150).uniform(0, 2 * np.pi, ev.extraction.param_arity)
        assert [v.shape for v in ev._build(params)[-1]] == [(16, 8, 4), (32, 8, 4)]

    @pytest.mark.parametrize("lwm", [True, False])
    @pytest.mark.parametrize("g,e,m,k", [c[:4] for c in SCHEDULE_CONFIGS])
    def test_blocks_act_on_their_own_qubits_under_sector_controls(self, g, e, m, k, lwm):
        config = qc.CircuitConfig(g, e, m, k, lwm)
        ev = qc.get_evaluator(config)
        layout = ev.layout
        labels, own = [], {b: (layout.q_l[g - b], layout.q_l[2 * g - b], layout.q_f[b - 1]) for b in range(1, m + 1)}
        for op in sv.compile_program(ev.extraction):  # the gate-list reference on the data layout
            b = next((b for b, qubits in own.items() if op.target in qubits), 0)
            labels.append(b)
            if b:  # no op of a block targets q_v or q_k, or touches a kept location bit or another block's
                assert _touched(op) <= {*own[b], *layout.q_v, *layout.q_k, *layout.q_f[max(b - 2, 0) : b - 1]}
            else:
                assert _touched(op) <= set(layout.q_v + layout.q_k)
        head, tail = labels.index(1), len(labels) - labels[::-1].index(m)
        assert labels[head:tail] == sorted(labels[head:tail]) and 0 not in labels[head:tail]
        params = np.random.default_rng(1200 + 100 * g + e).uniform(0, 2 * np.pi, ev.extraction.param_arity)
        for b, v in enumerate(ev._build(params)[-1]):
            sector_bits = config.value_qubits + config.kernel_qubits + min(b, 1)  # and q_f[b-2] after block 1
            # each V_s is an isometry
            assert v.shape == (1 << sector_bits, 8, 4)
            assert np.max(np.abs(np.conj(v).swapaxes(1, 2) @ v - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("g,e,m,k,lwm", BLOCK_CONFIGS)
    def test_each_block_matches_its_dense_gate_product(self, g, e, m, k, lwm):
        # block b's gates on a compact register, x_b, y_b, q_f[b-1] on qubits 0-2 and the sector's q_v, q_k and
        # q_f[b-2] above them, multiplied out as dense matrices on the 4 * sectors columns |s>|j>, q_f[b-1] = 0
        config = qc.CircuitConfig(g, e, m, k, lwm)
        ev = qc.get_evaluator(config)
        layout = ev.layout
        params = np.random.default_rng(1250 + 100 * g + e).uniform(0, 2 * np.pi, ev.extraction.param_arity)
        for b, v in enumerate(ev._build(params)[-1], start=1):
            compact = (layout.q_l[g - b], layout.q_l[2 * g - b], layout.q_f[b - 1]) + layout.q_v + layout.q_k
            compact += layout.q_f[b - 2 : b - 1] if b > 1 else ()
            where, n = {q: i for i, q in enumerate(compact)}, len(compact)
            assert n <= 9
            sectors = 1 << (n - 3)
            cols = np.zeros((1 << n, 4 * sectors), dtype=np.complex128)
            cols[(np.arange(sectors)[:, None] << 3 | np.arange(4)).ravel(), np.arange(4 * sectors)] = 1.0
            for instr in ev.extraction.instructions:
                if instr.target in compact[:3]:
                    moved = sv.GateInstruction(instr.kind, where[instr.target],
                                               tuple((where[q], c) for q, c in instr.controls), instr.angle)
                    cols = oracles.dense_gate_matrix(n, moved, None, params) @ cols
            # no gate changes the sector: column (s, j) stays in rows (s, 0..7)
            blocks = cols.reshape(sectors, 8, sectors, 4).transpose(0, 2, 1, 3)
            same = np.arange(sectors)
            assert np.max(np.abs(blocks[same, same] - v)) <= 1e-12
            blocks[same, same] = 0.0
            assert np.max(np.abs(blocks)) == 0.0

    @pytest.mark.parametrize("g,e,m,k,lwm", BLOCK_CONFIGS)
    def test_transfer_overlaps_give_the_central_differences_of_the_build(self, g, e, m, k, lwm):
        # L = 2 Re sum_b sum conj(G_b) V_b: reverse mode through each block's factors, from V_b and conj(G_b),
        # against central differences of _build in every parameter; the head's and the tail's have none, and
        # V_b, which the forward reuses, is left as it was
        config = qc.CircuitConfig(g, e, m, k, lwm)
        ev = qc.get_evaluator(config)
        rng = np.random.default_rng(1270 + 100 * g + e)
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        units, _, pairs, transfers = ev._build(params)
        weights = [rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape) for v in transfers]
        kept = [v.copy() for v in transfers]
        overlaps = np.zeros(units.shape, dtype=np.complex128)
        block_overlaps, kernel_units = ev._block_units(overlaps), ev._kernel_units(units)
        for b, (v, c) in enumerate(zip(transfers, weights)):
            qc._transfer_overlaps(v, c.copy(), None if pairs is None else pairs[b], kernel_units[b], block_overlaps[b])
            assert np.array_equal(v, kept[b])
        got = sv._derivative_dots(qc._unit_generators(params[::3], units), overlaps).ravel()

        def loss(p):
            return sum(2 * np.real(np.sum(c * v)) for c, v in zip(weights, ev._build(p)[-1]))

        h, want = 1e-6, np.empty_like(got)
        for i in range(len(params)):
            step = np.zeros_like(params)
            step[i] = h
            want[i] = (loss(params + step) - loss(params - step)) / (2 * h)
        nv = config.value_qubits
        assert np.max(np.abs(got[: 3 * nv])) == 0.0 and np.max(np.abs(got[-3 * nv :])) == 0.0
        assert np.max(np.abs(got)) > 1.0
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))

    @pytest.mark.parametrize("nv,kernels", [(1, 1), (3, 2), (2, 4)])
    def test_kernel_sectors_are_a_view_of_exactly_the_sectors_where_the_units_act(self, nv, kernels):
        # sector s = (q_f[b-2], q_k, q_v) from the highest bit: value qubit w's kernel units act where bit w is
        # 1, and after block 1 also the top bit
        for after_first in (False, True):
            sectors = kernels << nv + after_first
            v = np.arange(sectors * 32, dtype=np.complex128).reshape(sectors, 8, 4)
            for w in range(nv):
                x = qc._kernel_sectors(v, w, nv, kernels)
                assert np.shares_memory(x, v) and x.shape == (kernels, 1 << nv - 1 - w, 1 << w, 2, 2, 2, 4)
                s = np.arange(sectors)
                top = s >> nv + kernels.bit_length() - 1  # q_f[b-2] after block 1, else 0
                acting = s[(s >> w & 1 == 1) & (top == 1 if after_first else top == 0)]
                assert sorted(np.real(x[..., 0, 0, 0, 0]).ravel() // 32) == list(acting)
                # within a sector, (q_f[b-1], y_b, x_b) is its row, from the highest bit
                assert np.all(np.real(x).reshape(-1, 8, 4) % 32 == np.arange(32).reshape(8, 4))

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_kron_factors_puts_the_first_factor_on_the_lowest_bit(self, lead):
        rng = np.random.default_rng(1280 + len(lead))
        factors = [rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2)) for _ in range(3)]
        got = qc._kron_factors(factors)
        assert got.shape == lead + (8, 8)
        for index in np.ndindex(*lead):
            u0, u1, u2 = (u[index] for u in factors)
            assert np.max(np.abs(got[index] - np.kron(u2, np.kron(u1, u0)))) <= 1e-14

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("g,e,m,k,lwm", SCHEDULE_CONFIGS)
    def test_backward_matches_one_full_register_un_apply(self, g, e, m, k, lwm, rows):
        config = qc.CircuitConfig(g, e, m, k, lwm)
        rng = np.random.default_rng(1300 + 100 * g + 10 * e + rows)
        ev = qc.get_evaluator(config)
        arity = ev.extraction.param_arity
        data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
        params = rng.uniform(0, 2 * np.pi, arity)
        cot = rng.normal(size=(rows, ev.num_features))
        amps, _, cache = ev.forward(data, params)
        n = ev.layout.total_qubits
        bra = np.stack([
            sum(c * sv.apply_measurement_operator(sv.QuantumState(n, row), op)
                for c, op in zip(cots, ev.operators))
            for row, cots in zip(amps, cot)
        ])
        # the whole gate list, encoding and extraction, for the data gradients too
        want = sv.adjoint_sweep(ev.compiled, amps, bra, data, params, arity)
        got = ev.backward(cache, params, cot)
        for got_grads, want_grads in zip(got, want):
            assert got_grads.shape == want_grads.shape and np.max(np.abs(want_grads)) > 1e-3
            assert np.max(np.abs(got_grads - want_grads)) <= 1e-10


class TestThreeBlocks:
    """Blocks 2 and 3 read the consumed axes and q_f[b-2] of the block
    before them; on (4, 9, 3, 2), 15 qubits, the amplitudes are checked
    against the per-gate reference (the dense oracle would need a
    2^15 x 2^15 matrix per gate; ``test_statevector.py`` pins the gate list
    to it) and the gradients against the shift rule."""

    CONFIG = qc.CircuitConfig(4, 9, 3, 2)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_amplitudes_features_and_gradients(self, rows):
        config = self.CONFIG
        rng = np.random.default_rng(1400 + rows)
        ev = qc.get_evaluator(config)
        data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        cot = rng.normal(size=(rows, ev.num_features))
        amps, features, cache = ev.forward(data, params)
        full = np.zeros_like(amps)
        full[:, 0] = 1.0
        sv.run_compiled(ev.compiled, full, data, params)
        assert np.max(np.abs(amps - full)) <= 1e-10
        n = ev.layout.total_qubits
        for row in (0, rows - 1):
            direct = [sv.expectation(sv.QuantumState(n, full[row]), op) for op in ev.operators]
            assert np.max(np.abs(features[row] - direct)) <= 1e-10
        got_params, got_data = ev.backward(cache, params, cot)

        def loss(d, p):
            return float(np.sum(ev.forward(d, p)[1] * cot))

        # a head unit, each block's first LWM and last kernel unit, a tail unit, and data angles of both rows
        nv, per_block = config.value_qubits, (ev.extraction.param_arity - 6 * config.value_qubits) // 3
        blocks = [3 * nv + b * per_block + i for b in range(3) for i in (0, 4, per_block - 1)]
        param_slots = [1, *blocks, ev.extraction.param_arity - 2]
        data_slots = rng.choice(data.size, 6, replace=False)
        want_params = oracles.shift_gradient(lambda p: loss(data, p), params, param_slots)
        want_data = oracles.shift_gradient(lambda d: loss(d, params), data, data_slots)
        assert np.max(np.abs(want_params)) > 1e-3
        assert oracles.relative_error(got_params[param_slots], want_params) <= 1e-10
        assert oracles.relative_error(got_data.flat[data_slots], want_data) <= 1e-10


class TestAgainstTheTensorOracle:
    """The evaluator pinned at full size to ``oracles.tensor_program_state``,
    a per-gate simulator that shares no code with the package (the dense
    oracle cannot reach 10 or more qubits within the suite's time): the
    amplitudes and features of the canonical circuit, of (4, 9, 3, 2) on 15
    qubits and of a three-block circuit on 11, at batch 1 or 2, and a few
    parameter and data gradients against the shift rule over the oracle's
    forward (one of each on 15 qubits, where a forward takes 0.1-0.2 s)."""

    CASES = {"canonical": (CANONICAL, 2, 2), "15 qubits": (qc.CircuitConfig(4, 9, 3, 2), 1, 1),
             "three blocks": (qc.CircuitConfig(3, 3, 3, 2), 2, 2)}  # (config, rows, gradient slots of each kind)

    @staticmethod
    def _inputs(config, rows, seed):
        rng = np.random.default_rng(seed)
        ev = qc.get_evaluator(config)
        data = rng.uniform(-np.pi, np.pi, (rows, config.data_arity))
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        return ev, data, params, rng

    @staticmethod
    def _oracle_features(ev, psi):
        return np.array([oracles.tensor_expectation(ev.layout.total_qubits, psi, op) for op in ev.operators])

    @pytest.mark.parametrize("case", CASES)
    def test_amplitudes_and_features(self, case):
        config, rows, _ = self.CASES[case]
        ev, data, params, _ = self._inputs(config, rows, 1700 + rows)
        amps, features, _ = ev.forward(data, params)
        for row in range(rows):
            psi = oracles.tensor_program_state(ev.program, data[row], params)
            assert np.max(np.abs(amps[row] - psi)) <= 1e-10
            assert oracles.relative_error(features[row], self._oracle_features(ev, psi)) <= 1e-10

    @pytest.mark.parametrize("case", CASES)
    def test_gradients_against_the_shift_rule(self, case):
        config, _, slots = self.CASES[case]
        ev, data, params, rng = self._inputs(config, 1, 1710)
        cot = rng.normal(size=ev.num_features)
        got_params, got_data = ev.backward(ev.forward(data, params)[2], params, cot[None])

        def loss(d, p):
            return float(cot @ self._oracle_features(ev, oracles.tensor_program_state(ev.program, d, p)))

        param_slots = rng.choice(params.size, slots, replace=False)
        data_slots = rng.choice(data.size, slots, replace=False)
        want_params = oracles.shift_gradient(lambda p: loss(data[0], p), params, param_slots)
        want_data = oracles.shift_gradient(lambda d: loss(d, params), data[0], data_slots)
        assert oracles.relative_error(got_params[param_slots], want_params) <= 1e-10
        assert oracles.relative_error(got_data[0, data_slots], want_data) <= 1e-10


class TestBuildCache:
    """``forward`` keeps the unit matrices, value maps and transfer matrices
    of the last parameter values it saw, and rebuilds when the values change."""

    def _spied(self, monkeypatch):
        ev, builds = qc.QuantumEvaluator(CANONICAL), []
        real = ev._build

        def build(params):
            builds.append(params.copy())
            return real(params)

        monkeypatch.setattr(ev, "_build", build)
        return ev, builds

    def _inputs(self, seed, rows=2):
        rng = np.random.default_rng(seed)
        ev = qc.get_evaluator(CANONICAL)
        data = rng.uniform(0, np.pi, (rows, CANONICAL.data_arity))
        return data, rng.uniform(0, 2 * np.pi, ev.extraction.param_arity), rng.normal(size=(rows, ev.num_features))

    @pytest.mark.parametrize("slot", [6, -7])  # the first block's LWM unit and the last block's last kernel unit
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected_before_any_build(self, monkeypatch, bad, slot):
        ev, builds = qc.QuantumEvaluator(qc.CircuitConfig(2, 6, 1, 1)), []
        real = ev._build

        def build(params):
            builds.append(params.copy())
            return real(params)

        monkeypatch.setattr(ev, "_build", build)
        data = np.full((2, ev.config.data_arity), 0.3)
        params = np.full(ev.extraction.param_arity, 0.7)
        ev.forward(data, params)
        params[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            ev.forward(data, params)
        assert len(builds) == 1 and np.all(ev._built[0] == 0.7)

    def test_two_forwards_with_equal_parameters_build_once(self, monkeypatch):
        ev, builds = self._spied(monkeypatch)
        data, params, _ = self._inputs(1600)
        first = ev.forward(data, params)[1]
        second = ev.forward(data, params.copy())[1]
        assert len(builds) == 1 and np.array_equal(second, first)

    def test_an_in_place_parameter_update_rebuilds(self, monkeypatch):
        ev, builds = self._spied(monkeypatch)
        data, params, _ = self._inputs(1610)
        ev.forward(data, params)
        params[5] += 0.25  # as adam_step updates the store
        got = ev.forward(data, params)[1]
        assert len(builds) == 2 and np.array_equal(builds[1], params)
        assert np.array_equal(got, qc.QuantumEvaluator(CANONICAL).forward(data, params)[1])

    def test_repeated_steps_with_the_same_parameters_are_bit_identical(self):
        ev = qc.QuantumEvaluator(CANONICAL)
        data, params, cot = self._inputs(1620)
        runs = []
        for _ in range(2):  # the second forward reuses the build the first backward un-applied a copy of
            _, features, cache = ev.forward(data, params)
            runs.append((features, *ev.backward(cache, params, cot)))
        for first, second in zip(*runs):
            assert np.array_equal(first, second)

    def test_a_cache_hit_matches_a_fresh_evaluator(self):
        ev = qc.QuantumEvaluator(CANONICAL)
        data, params, cot = self._inputs(1630)
        ev.forward(data[1:], params)
        _, hit, cache = ev.forward(data, params)
        hit_grads = ev.backward(cache, params, cot)
        _, fresh, cache = qc.QuantumEvaluator(CANONICAL).forward(data, params)
        fresh_grads = qc.QuantumEvaluator(CANONICAL).backward(cache, params, cot)
        assert np.array_equal(hit, fresh)
        for got, want in zip(hit_grads, fresh_grads):
            assert np.array_equal(got, want)
