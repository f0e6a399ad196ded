import numpy as np
import pytest

from quanvnet import statevector as sv
from quanvnet.statevector import (
    CircuitProgram,
    GateInstruction,
    MeasurementOperator,
    constant,
    data_slot,
    param_slot,
)

import oracles


def random_program(rng, num_qubits, num_gates, data_arity=0, num_params=0):
    """Random mixed program; param slots are consumed at most once each."""
    free_params = list(rng.permutation(num_params)) if num_params else []
    kinds = ["H", "X", "Z", "RX", "RY", "RZ"]
    instrs = []
    for _ in range(num_gates):
        kind = kinds[rng.integers(len(kinds))]
        target = int(rng.integers(num_qubits))
        max_ctrl = min(3, num_qubits - 1)
        n_ctrl = int(rng.integers(max_ctrl + 1))
        pool = [q for q in range(num_qubits) if q != target]
        ctrl_qubits = rng.permutation(pool)[:n_ctrl]
        controls = tuple((int(q), int(rng.integers(2))) for q in ctrl_qubits)
        angle = None
        if kind in sv.ROTATION_KINDS:
            pick = rng.integers(3)
            if pick == 1 and data_arity > 0:
                angle = data_slot(int(rng.integers(data_arity)))
            elif pick == 2 and free_params:
                angle = param_slot(int(free_params.pop()))
            else:
                angle = constant(rng.uniform(-2 * np.pi, 2 * np.pi))
        instrs.append(GateInstruction(kind, target, controls, angle))
    return CircuitProgram(num_qubits, instrs, data_arity, num_params)


class TestZeroState:
    def test_one_qubit(self):
        s = sv.new_zero_state(1)
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_two_qubits(self):
        s = sv.new_zero_state(2)
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, 31, -1])
    def test_guard(self, n):
        with pytest.raises(ValueError):
            sv.new_zero_state(n)


class TestApplyGate:
    def test_rx_pi_is_minus_i_x(self):
        s = sv.apply_gate(sv.new_zero_state(1), GateInstruction("RX", 0, (), constant(np.pi)))
        assert np.allclose(s.amplitudes, [0, -1j], atol=1e-15)

    def test_hadamard(self):
        s = sv.apply_gate(sv.new_zero_state(1), GateInstruction("H", 0))
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_unsatisfied_control_is_identity(self):
        instr = GateInstruction("RX", 0, ((1, 1),), constant(np.pi))
        s = sv.apply_gate(sv.new_zero_state(2), instr)
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(3)
        prog = random_program(rng, 4, 40)
        state = sv.new_zero_state(4)
        for instr in prog.instructions:
            state = sv.apply_gate(state, instr)
            assert abs(state.norm_sq() - 1.0) <= 1e-12

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            sv.apply_gate(sv.new_zero_state(1), GateInstruction("RY", 0, (), constant(np.nan)))

    @pytest.mark.parametrize("angle, data, params, message", [
        (data_slot(5), [0.1], None, "data slot 5 outside arity 1"),
        (param_slot(2), None, [0.1, 0.2], "param slot 2 outside arity 2"),
        (param_slot(0), None, None, "param slot 0 outside arity 0"),
    ])
    def test_unbound_angle_slot_rejected(self, angle, data, params, message):
        with pytest.raises(ValueError, match=message):
            sv.apply_gate(sv.new_zero_state(2), GateInstruction("RX", 0, (), angle), data, params)


class TestInstructionValidation:
    def test_target_in_controls(self):
        with pytest.raises(ValueError):
            sv.apply_gate(sv.new_zero_state(2), GateInstruction("Z", 0, ((0, 1),)))

    def test_duplicate_controls(self):
        with pytest.raises(ValueError):
            sv.apply_gate(sv.new_zero_state(3), GateInstruction("Z", 0, ((1, 1), (1, 0))))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sv.apply_gate(sv.new_zero_state(2), GateInstruction("X", 5))

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            GateInstruction("RX", 0)

    def test_fixed_gate_rejects_angle(self):
        with pytest.raises(ValueError):
            GateInstruction("H", 0, (), constant(0.3))

    def test_param_slot_unique_per_program(self):
        gates = [
            GateInstruction("RX", 0, (), param_slot(0)),
            GateInstruction("RY", 0, (), param_slot(0)),
        ]
        with pytest.raises(ValueError):
            CircuitProgram(1, gates, 0, 1)

    def test_slot_outside_arity(self):
        with pytest.raises(ValueError):
            CircuitProgram(1, [GateInstruction("RX", 0, (), data_slot(2))], 2, 0)


class TestRunCircuit:
    def test_empty_program(self):
        s = sv.run_circuit(CircuitProgram(3, []))
        expect = np.zeros(8)
        expect[0] = 1
        assert np.array_equal(s.amplitudes, expect)

    def test_h_twice_is_identity(self):
        prog = CircuitProgram(3, [GateInstruction("H", 0), GateInstruction("H", 0)])
        s = sv.run_circuit(prog)
        assert np.allclose(s.amplitudes, sv.new_zero_state(3).amplitudes, atol=1e-15)

    def test_binding_length_checked(self):
        prog = CircuitProgram(1, [GateInstruction("RX", 0, (), data_slot(0))], data_arity=1)
        with pytest.raises(ValueError):
            sv.run_circuit(prog, data=np.zeros(3))

    def test_random_50_gate_program_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0, np.pi, 5)
        params = rng.uniform(0, 2 * np.pi, 6)
        prog = random_program(rng, 6, 50, data_arity=5, num_params=6)
        got = sv.run_circuit(prog, data, params).amplitudes
        want = oracles.dense_program_state(prog, data, params)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_oracle_equivalence_corpus(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            prog = random_program(rng, n, int(rng.integers(5, 40)), data_arity=4, num_params=3)
            data = rng.uniform(-np.pi, np.pi, 4)
            params = rng.uniform(0, 2 * np.pi, 3)
            got = sv.run_circuit(prog, data, params).amplitudes
            want = oracles.dense_program_state(prog, data, params)
            assert np.max(np.abs(got - want)) <= 1e-10


class TestAlgebraicInvariants:
    def _random_state(self, rng, n=4):
        prog = random_program(rng, n, 25)
        return sv.run_circuit(prog)

    @pytest.mark.parametrize("kind", ["H", "X", "Z"])
    def test_involutions(self, kind):
        rng = np.random.default_rng(5)
        state = self._random_state(rng)
        instr = GateInstruction(kind, 2, ((0, 1),))
        twice = sv.apply_gate(sv.apply_gate(state, instr), instr)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ"])
    def test_rotation_composition(self, kind):
        rng = np.random.default_rng(6)
        state = self._random_state(rng)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        controls = ((1, 0), (3, 1))
        a = sv.apply_gate(state, GateInstruction(kind, 0, controls, constant(t1)))
        a = sv.apply_gate(a, GateInstruction(kind, 0, controls, constant(t2)))
        b = sv.apply_gate(state, GateInstruction(kind, 0, controls, constant(t1 + t2)))
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-10

    def test_control_violating_amplitudes_bitwise_unchanged(self):
        rng = np.random.default_rng(8)
        state = self._random_state(rng)
        instr = GateInstruction("RY", 0, ((1, 1), (2, 0)), constant(0.7))
        after = sv.apply_gate(state, instr)
        for idx in range(16):
            matches = (idx >> 1) & 1 == 1 and (idx >> 2) & 1 == 0
            if not matches:
                assert after.amplitudes[idx] == state.amplitudes[idx]

    def test_norm_preserved_long_sequence(self):
        rng = np.random.default_rng(9)
        prog = random_program(rng, 5, 200, data_arity=3, num_params=4)
        s = sv.run_circuit(prog, rng.uniform(0, np.pi, 3), rng.uniform(0, 2 * np.pi, 4))
        assert abs(s.norm_sq() - 1.0) <= 1e-10


class TestExpectation:
    def _plus_minus_state(self, minus_at):
        # |+> everywhere except |-> on one qubit
        gates = [GateInstruction("H", q) for q in range(7)]
        gates.append(GateInstruction("Z", minus_at))
        return sv.run_circuit(CircuitProgram(7, gates))

    def test_matched_signs_give_full_weight(self):
        state = self._plus_minus_state(minus_at=3)
        signs = tuple(-1 if q == 3 else 1 for q in range(7))
        op = MeasurementOperator(tuple(range(7)), signs)
        assert abs(sv.expectation(state, op) - 128.0) <= 1e-10

    def test_minus_sign_on_plus_qubit_annihilates(self):
        state = self._plus_minus_state(minus_at=3)
        signs = tuple(-1 if q in (3, 4) else 1 for q in range(7))
        op = MeasurementOperator(tuple(range(7)), signs)
        assert abs(sv.expectation(state, op)) <= 1e-10

    @pytest.mark.parametrize("sign", [1, -1])
    def test_zero_state_factor_contributes_one(self, sign):
        state = sv.new_zero_state(1)
        op = MeasurementOperator((0,), (sign,))
        assert abs(sv.expectation(state, op) - 1.0) <= 1e-12

    def test_matches_dense_operator_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            prog = random_program(rng, n, 20)
            psi = sv.run_circuit(prog)
            m = int(rng.integers(1, n + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:m])
            signs = tuple(int(s) for s in rng.choice([-1, 1], m))
            op = MeasurementOperator(qubits, signs)
            want = oracles.dense_expectation(n, psi.amplitudes, op)
            assert abs(sv.expectation(psi, op) - want) <= 1e-10
            assert -1e-10 <= sv.expectation(psi, op) <= 2.0**m + 1e-10


class TestAdjointGradients:
    def _ops_and_cotangents(self, rng, n, count):
        ops = []
        for _ in range(count):
            m = int(rng.integers(1, n + 1))
            qubits = tuple(int(q) for q in rng.permutation(n)[:m])
            signs = tuple(int(s) for s in rng.choice([-1, 1], m))
            ops.append(MeasurementOperator(qubits, signs))
        return ops, rng.normal(size=count)

    def test_no_parameters_gives_empty_gradient(self):
        prog = CircuitProgram(2, [GateInstruction("H", 0)])
        ops = [MeasurementOperator((0,), (1,))]
        g = sv.adjoint_gradients(prog, None, None, ops, [1.0])
        assert g.shape == (0,)

    def test_zero_cotangents_give_zero_gradient(self):
        rng = np.random.default_rng(13)
        prog = random_program(rng, 3, 20, num_params=5)
        ops, _ = self._ops_and_cotangents(rng, 3, 4)
        g = sv.adjoint_gradients(prog, None, rng.uniform(0, 2 * np.pi, 5), ops, np.zeros(4))
        assert np.array_equal(g, np.zeros(5))

    def test_non_finite_cotangents_rejected(self):
        rng = np.random.default_rng(14)
        prog = random_program(rng, 2, 10, num_params=2)
        ops = [MeasurementOperator((0,), (1,))]
        with pytest.raises(ValueError):
            sv.adjoint_gradients(prog, None, np.zeros(2), ops, [np.inf])

    def test_wrong_length_bindings_rejected_by_name(self):
        rng = np.random.default_rng(17)
        prog = random_program(rng, 3, 12, data_arity=2, num_params=3)
        ops = [MeasurementOperator((0,), (1,))]
        with pytest.raises(ValueError, match="params"):
            sv.adjoint_gradients(prog, np.zeros(2), np.zeros(4), ops, [1.0])
        with pytest.raises(ValueError, match="data"):
            sv.adjoint_gradients(prog, np.zeros(1), np.zeros(3), ops, [1.0])

    def test_matches_central_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            num_params = int(rng.integers(3, 9))
            prog = random_program(rng, n, 30, data_arity=3, num_params=num_params)
            data = rng.uniform(0, np.pi, 3)
            params = rng.uniform(0, 2 * np.pi, num_params)
            ops, cot = self._ops_and_cotangents(rng, n, 5)

            def loss(p):
                psi = sv.run_circuit(prog, data, p)
                return sum(c * sv.expectation(psi, op) for c, op in zip(cot, ops))

            got = sv.adjoint_gradients(prog, data, params, ops, cot)
            want = oracles.central_differences(loss, params, eps=1e-4)
            assert oracles.relative_error(got, want) <= 1e-5


def test_dump_amplitudes_format():
    s = sv.apply_gate(sv.new_zero_state(2), GateInstruction("H", 0))
    lines = sv.dump_amplitudes(s).splitlines()
    assert len(lines) == 4
    idx, re, im = lines[1].split()
    assert idx == "1"
    assert re == f"{1 / np.sqrt(2):.17g}"
    assert im == "0"


# ---------------------------------------------------------------------------
# compiled kernels: one op per gate on strided views
# ---------------------------------------------------------------------------


def random_stack(rng, rows, num_qubits):
    amps = rng.normal(size=(rows, 1 << num_qubits)) + 1j * rng.normal(size=(rows, 1 << num_qubits))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def conjugate_transpose(m):
    """Entries (m00, m01, m10, m11) of the inverse of the unitary with entries ``m``."""
    return tuple(np.conj(m[i]) for i in (0, 2, 1, 3))


def unit(target, controls, first_slot=0, tag=param_slot):
    return [GateInstruction(kind, target, controls, tag(first_slot + i)) for i, kind in enumerate(sv.ROTATION_KINDS)]


class TestCompiledKernels:
    N = 7

    def _controls(self, rng, target, count, value):
        pool = [q for q in range(self.N) if q != target]
        return tuple((int(q), value) for q in rng.permutation(pool)[:count])

    @pytest.mark.parametrize("kind", sv.GATE_KINDS)
    def test_single_gates_match_dense_matrix(self, kind):
        rng = np.random.default_rng(200 + sv.GATE_KINDS.index(kind))
        sources = [data_slot(0), param_slot(0), None] if kind in sv.ROTATION_KINDS else [None]
        for count in range(6):
            for angle in sources:
                target = int(rng.integers(self.N))
                controls = self._controls(rng, target, count, int(rng.integers(2)))
                if kind in sv.ROTATION_KINDS and angle is None:
                    angle = constant(rng.uniform(-2 * np.pi, 2 * np.pi))
                prog = CircuitProgram(self.N, [GateInstruction(kind, target, controls, angle)], 1, 1)
                (op,) = sv.compile_program(prog)
                data = rng.uniform(-np.pi, np.pi, (3, 1))  # one angle per row
                params = rng.uniform(-np.pi, np.pi, 1)
                before = random_stack(rng, 3, self.N)
                after = before.copy()
                sv.run_compiled((op,), after, data, params)
                for row in range(3):
                    dense = oracles.dense_gate_matrix(self.N, prog.instructions[0], data=data[row], params=params)
                    assert np.max(np.abs(after[row] - dense @ before[row])) <= 1e-10
                # un-applied by the conjugate transpose of its entries
                restored = after.copy()
                sv._apply_kernel(restored.T, op, conjugate_transpose(sv._entries(op, data, params)))
                assert np.max(np.abs(restored - before)) <= 1e-10
                idx = np.arange(1 << self.N)
                violating = np.zeros(1 << self.N, dtype=bool)
                for q, v in controls:
                    violating |= (idx >> q) & 1 != v
                assert np.array_equal(after[:, violating], before[:, violating])
                assert np.array_equal(restored[:, violating], before[:, violating])

    def test_control_violating_amplitudes_bitwise_unchanged(self):
        rng = np.random.default_rng(300)
        controls = ((1, 1), (4, 0))
        prog = CircuitProgram(
            self.N,
            unit(2, controls) + [GateInstruction("H", 2, controls), GateInstruction("RY", 2, controls, constant(0.4))],
            param_arity=3,
        )
        before = random_stack(rng, 2, self.N)
        after = before.copy()
        sv.run_compiled(sv.compile_program(prog), after, None, rng.uniform(0, 6, 3))
        idx = np.arange(1 << self.N)
        violating = ((idx >> 1) & 1 != 1) | ((idx >> 4) & 1 != 0)
        assert np.array_equal(after[:, violating], before[:, violating])
        assert not np.allclose(after[:, ~violating], before[:, ~violating])

    def test_strided_stack_runs_through_a_copy_and_is_written_back(self):
        prog = CircuitProgram(2, [GateInstruction("H", 0)])
        amps = np.zeros((2, 8), dtype=np.complex128)[:, ::2]
        amps[:, 0] = 1.0
        sv.run_compiled(sv.compile_program(prog), amps)
        assert np.allclose(amps, np.array([[1, 1, 0, 0]] * 2) / np.sqrt(2), atol=1e-15)


def test_compile_program_keeps_each_instruction_in_order():
    # one op per instruction, param-bound RX, RY, RZ runs on one target and controls included
    rng = np.random.default_rng(410)
    layered, mixed = random_layered_program(rng, 5, 4), random_program(rng, 5, 30, data_arity=2)
    prog = CircuitProgram(5, layered.instructions + mixed.instructions, 2, layered.param_arity)
    ops = sv.compile_program(prog)
    assert [(op.kind, op.target, op.controls, op.angle) for op in ops] == [
        (g.kind, g.target, g.controls, g.angle) for g in prog.instructions
    ]


def test_adjoint_gradients_of_rotation_units_match_central_differences():
    rng = np.random.default_rng(400)
    n, units = 5, 8
    instrs = [GateInstruction("H", q) for q in range(n)]
    for u in range(units):
        target = int(rng.integers(n))
        pool = [q for q in range(n) if q != target]
        controls = tuple((int(q), int(rng.integers(2))) for q in rng.permutation(pool)[: int(rng.integers(4))])
        instrs += unit(target, controls, first_slot=3 * u)
        instrs.append(GateInstruction("RX", int(rng.integers(n)), (), data_slot(u)))
    prog = CircuitProgram(n, instrs, data_arity=units, param_arity=3 * units)
    data = rng.uniform(0, np.pi, units)
    params = rng.uniform(0, 2 * np.pi, 3 * units)
    ops = [MeasurementOperator((q,), (int(rng.choice([-1, 1])),)) for q in range(n)]
    cot = rng.normal(size=n)

    def loss(p):
        psi = sv.run_circuit(prog, data, p)
        return sum(c * sv.expectation(psi, op) for c, op in zip(cot, ops))

    got = sv.adjoint_gradients(prog, data, params, ops, cot)
    want = oracles.central_differences(loss, params, eps=1e-4)
    assert oracles.relative_error(got, want) <= 1e-5


# ---------------------------------------------------------------------------
# the sweep contract: inputs bound once, per-row data gradients always
# ---------------------------------------------------------------------------


def _cotangent_bras(psi, ops, cot):
    """Rows of sum_i cot[r, i] M_i |psi_r>, built per operator."""
    n = int(psi.shape[1]).bit_length() - 1
    return np.stack([
        sum(c * sv.apply_measurement_operator(sv.QuantumState(n, row), op) for c, op in zip(cots, ops))
        for row, cots in zip(psi, cot)
    ])


class TestSweepContract:
    def _data_bound(self, rng):
        prog = random_program(rng, 4, 40, data_arity=3, num_params=4)
        assert any(g.angle is not None and g.angle[0] == "data" for g in prog.instructions)
        ops = [MeasurementOperator((q,), (int(rng.choice([-1, 1])),)) for q in range(4)]
        return prog, ops

    def test_per_row_data_gradients_match_central_differences(self):
        rng = np.random.default_rng(500)
        prog, ops = self._data_bound(rng)
        data = rng.uniform(0.2, np.pi - 0.2, (3, prog.data_arity))
        params = rng.uniform(0, 2 * np.pi, prog.param_arity)
        cot = rng.normal(size=(3, len(ops)))
        psi = np.zeros((3, 16), dtype=np.complex128)
        psi[:, 0] = 1.0
        sv.run_compiled(sv.compile_program(prog), psi, data, params)
        _, grads = sv.adjoint_sweep(sv.compile_program(prog), psi, _cotangent_bras(psi, ops, cot), data, params,
                                    prog.param_arity)
        assert grads.shape == data.shape
        for row in range(3):
            def loss(d):
                state = sv.run_circuit(prog, d, params)
                return sum(c * sv.expectation(state, op) for c, op in zip(cot[row], ops))

            want = oracles.central_differences(loss, data[row], eps=1e-4)
            assert oracles.relative_error(grads[row], want) <= 1e-5

    def test_unapply_leaves_bound_ops_as_they_were(self):
        # compiled ops run bit for bit the same after an un-apply of them: ``compile_program``
        # caches them, so every sweep of one program shares the same ops
        from quanvnet import circuits as qc

        rng = np.random.default_rng(505)
        ev = qc.QuantumEvaluator(qc.CircuitConfig(3, 9, 2, 2))
        params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
        ops = sv.compile_program(ev.extraction)
        start = random_stack(rng, 2, ev.layout.total_qubits)
        first, second = start.copy(), start.copy()
        sv.run_compiled(ops, first, None, params)
        sv.adjoint_sweep(ops, first, random_stack(rng, 2, ev.layout.total_qubits), None, params, len(params))
        sv.run_compiled(ops, second, None, params)
        assert np.max(np.abs(first - start)) > 1e-3 and np.array_equal(first, second)

    def test_one_data_vector_shared_by_all_rows_gives_each_row_its_own_gradients(self):
        # each row's data gradient from its own ket and bra, not their sum over the batch
        rng = np.random.default_rng(503)
        prog, _ = self._data_bound(rng)
        compiled = sv.compile_program(prog)
        data, params = rng.uniform(0, np.pi, prog.data_arity), rng.uniform(0, 2 * np.pi, prog.param_arity)
        ket, bra = random_stack(rng, 3, 4), random_stack(rng, 3, 4)
        alone = [sv.adjoint_sweep(compiled, ket[r : r + 1], bra[r : r + 1], data, params, prog.param_arity)[1]
                 for r in range(3)]
        got = sv.adjoint_sweep(compiled, ket, bra, data, params, prog.param_arity)[1]
        assert got.shape == (3, prog.data_arity)
        assert np.max(np.abs(got[0] - got[1])) > 1e-3
        assert np.max(np.abs(got - np.concatenate(alone))) <= 1e-12

    def test_matches_the_evaluator_backward(self):
        from quanvnet import circuits as qc

        rng = np.random.default_rng(501)
        ev = qc.get_evaluator(qc.CircuitConfig(2, 3, 1, 2))
        data = rng.uniform(0, np.pi, (2, ev.program.data_arity))
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        cot = rng.normal(size=(2, ev.num_features))
        amps, _, cache = ev.forward(data, params)
        bra = _cotangent_bras(amps, ev.operators, cot)
        got = sv.adjoint_sweep(ev.compiled, amps, bra, data, params, ev.program.param_arity)
        want = ev.backward(cache, params, cot)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-10
        assert got[1].shape == want[1].shape == data.shape
        assert np.max(np.abs(got[1] - want[1])) <= 1e-10

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("g,e,m,k", [(1, 12, 1, 2), (2, 6, 2, 1), (3, 3, 1, 2), (3, 9, 2, 2)])
    def test_closed_form_encoding_gradients_match_the_full_gate_list_sweep(self, g, e, m, k, rows):
        # the evaluator sweeps only the extraction ops; the reference sweeps the whole gate list
        from quanvnet import circuits as qc

        rng = np.random.default_rng(800 + 10 * g + e + rows)
        ev = qc.get_evaluator(qc.CircuitConfig(g, e, m, k))
        data = rng.uniform(-np.pi, np.pi, (rows, ev.program.data_arity))
        params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
        cot = rng.normal(size=(rows, ev.num_features))
        amps, _, cache = ev.forward(data, params)
        full = np.zeros_like(amps)
        full[:, 0] = 1.0
        sv.run_compiled(ev.compiled, full, data, params)
        assert np.max(np.abs(amps - full)) <= 1e-10
        got_params, got_data = ev.backward(cache, params, cot)
        want_params, want_data = sv.adjoint_sweep(ev.compiled, full, _cotangent_bras(full, ev.operators, cot),
                                                  data, params, ev.program.param_arity)
        assert np.max(np.abs(want_data)) > 1e-3
        assert np.max(np.abs(got_params - want_params)) <= 1e-10
        assert got_data.shape == data.shape
        assert np.max(np.abs(got_data - want_data)) <= 1e-10

    def test_no_data_gives_an_empty_gradient_per_row(self):
        rng = np.random.default_rng(502)
        prog = random_program(rng, 3, 20, num_params=4)
        psi = random_stack(rng, 5, 3)
        param_grads, data_grads = sv.adjoint_sweep(sv.compile_program(prog), psi, psi.copy(), None,
                                                   rng.uniform(0, 6, 4), 4)
        assert param_grads.shape == (4,)
        assert data_grads.shape == (5, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["data", "params"])
    def test_non_finite_inputs_rejected_before_any_op(self, bad, where):
        # slot 1 of each vector is bound by no gate
        prog = CircuitProgram(2, [GateInstruction("H", 0), GateInstruction("RX", 1, (), data_slot(0)),
                                  GateInstruction("RY", 0, (), param_slot(0))], data_arity=2, param_arity=2)
        compiled = sv.compile_program(prog)
        data, params = np.full((3, 2), 0.3), np.full(2, 0.7)
        {"data": data[2], "params": params}[where][1] = bad
        rng = np.random.default_rng(503)
        stack = random_stack(rng, 3, 2)
        before = stack.copy()
        with pytest.raises(ValueError, match="finite"):
            sv.run_compiled(compiled, stack, data, params)
        assert np.array_equal(stack, before)
        bra = random_stack(rng, 3, 2)
        with pytest.raises(ValueError, match="finite"):
            sv.adjoint_sweep(compiled, stack, bra, data, params, 2)
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constant_rejected_when_the_instruction_is_built(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            GateInstruction("RZ", 0, ((1, 0),), constant(bad))


# ---------------------------------------------------------------------------
# any register width and the column layout
# ---------------------------------------------------------------------------


def random_layered_program(rng, n, layers):
    """Runs of uncontrolled H ops and param-bound RX, RY, RZ units on random
    qubits (repeats allowed), each run ended by a controlled unit, a
    data-bound RX or an X."""
    instrs, slot = [], 0
    for _ in range(layers):
        for q in rng.integers(n, size=int(rng.integers(1, 8))):
            if rng.integers(3):
                instrs += unit(int(q), (), slot)
                slot += 3
            else:
                instrs.append(GateInstruction("H", int(q)))
        target, end = int(rng.integers(n)), int(rng.integers(3))
        if end == 0:
            instrs += unit(target, (((target + 1) % n, int(rng.integers(2))),), slot)
            slot += 3
        else:
            instrs.append(GateInstruction("RX", target, (), data_slot(0)) if end == 1 else GateInstruction("X", target))
    return CircuitProgram(n, instrs, data_arity=1, param_arity=slot)


class TestAnyRegisterWidth:
    """A compiled op folds every qubit above its own into one axis behind the
    batch axis, so ops compiled for n qubits run unchanged on a stack with
    more qubits on top, acting on each 2^n slice alike."""

    N = 6

    def _program(self, rng):
        # lone and controlled units, then H/X/Z and constant- and
        # data-bound rotations under value-0 and value-1 controls
        layered = random_layered_program(rng, self.N, 6)
        mixed = random_program(rng, self.N, 30, data_arity=3)
        prog = CircuitProgram(self.N, layered.instructions + mixed.instructions, 3, layered.param_arity)
        ops = sv.compile_program(prog)
        assert {op.kind for op in ops} & {"H", "X", "Z"}
        assert any(op.angle is not None and op.angle[0] == "param" for op in ops)
        assert any(op.angle is not None and op.angle[0] == "data" for op in ops)
        assert any(0 in dict(op.controls).values() for op in ops)
        return prog, ops

    @pytest.mark.parametrize("extra", [1, 3])
    def test_ops_act_on_each_slice_of_a_wider_stack(self, extra):
        rng = np.random.default_rng(1200 + extra)
        rows, dim = 3, 1 << self.N
        for _ in range(4):
            prog, ops = self._program(rng)
            data = rng.uniform(-np.pi, np.pi, (rows, prog.data_arity))
            params = rng.uniform(-2 * np.pi, 2 * np.pi, prog.param_arity)
            start = random_stack(rng, rows, self.N + extra)
            ket = start.copy()
            sv.run_compiled(ops, ket, data, params)
            bra = random_stack(rng, rows, self.N + extra)
            want_params, want_data = np.zeros(prog.param_arity), np.zeros(data.shape)
            for j in range(1 << extra):
                part = slice(j * dim, (j + 1) * dim)
                narrow = start[:, part].copy()
                sv.run_compiled(ops, narrow, data, params)
                assert np.max(np.abs(ket[:, part] - narrow)) <= 1e-10
                grads = sv.adjoint_sweep(ops, narrow, bra[:, part].copy(), data, params, prog.param_arity)
                want_params += grads[0]
                want_data += grads[1]
            got_params, got_data = sv.adjoint_sweep(ops, ket, bra, data, params, prog.param_arity)
            assert got_data.shape == data.shape
            for got, want in ((got_params, want_params), (got_data, want_data)):
                assert np.max(np.abs(want)) > 1e-3
                assert np.max(np.abs(got - want)) <= 1e-10


class TestColumnLayout:
    """The sweeps run on column copies, one column per state: a row-major
    (batch, dim) stack and the transpose of a C-contiguous (dim, batch)
    array give the same results, ``run_compiled`` writes them back, and
    ``adjoint_sweep`` writes to neither input."""

    N = 6

    def _ops(self):
        # per low qubit 0-3: two Hadamards, every kind of single op under
        # controls (rotations bound to per-row data), two uncontrolled
        # param-bound units around a Hadamard and a controlled unit
        instrs, slot = [], 0
        for low in range(4):
            instrs += [GateInstruction("H", low), GateInstruction("H", low + 2)]
            for i, kind in enumerate(sv.GATE_KINDS):
                target = (low + 1 + i) % self.N
                controls = (((target + 1) % self.N, i % 2), ((target + 3) % self.N, 1))
                angle = data_slot(i % 3) if kind in sv.ROTATION_KINDS else None
                instrs.append(GateInstruction(kind, target, controls, angle))
            instrs += unit(low, (), slot) + [GateInstruction("H", low + 1)] + unit(low + 2, (), slot + 3)
            instrs += unit((low + 4) % self.N, ((low, 0),), slot + 6)
            slot += 9
        prog = CircuitProgram(self.N, instrs, data_arity=3, param_arity=slot)
        ops = sv.compile_program(prog)
        assert {op.kind for op in ops} == set(sv.GATE_KINDS)
        return prog, ops

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_major_and_column_stacks_agree(self, rows):
        rng = np.random.default_rng(1400 + rows)
        prog, ops = self._ops()
        data = rng.uniform(-np.pi, np.pi, (rows, prog.data_arity))
        params = rng.uniform(-2 * np.pi, 2 * np.pi, prog.param_arity)
        start, bra = random_stack(rng, rows, self.N), random_stack(rng, rows, self.N)
        row_ket, row_bra = start.copy(), bra.copy()
        col_ket, col_bra = start.T.copy(), bra.T.copy()
        sv.run_compiled(ops, row_ket, data, params)
        sv.run_compiled(ops, col_ket.T, data, params)
        assert np.max(np.abs(row_ket - start)) > 1e-3
        assert np.max(np.abs(col_ket.T - row_ket)) <= 1e-12
        after = row_ket.copy(), row_bra.copy(), col_ket.copy(), col_bra.copy()
        row_grads = sv.adjoint_sweep(ops, row_ket, row_bra, data, params, prog.param_arity)
        col_grads = sv.adjoint_sweep(ops, col_ket.T, col_bra.T, data, params, prog.param_arity)
        for stack, kept in zip((row_ket, row_bra, col_ket, col_bra), after):
            assert np.array_equal(stack, kept)
        for got, want in zip(col_grads, row_grads):
            assert got.shape == want.shape and np.max(np.abs(want)) > 1e-3
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_strided_stacks_are_read_unchanged_by_the_adjoint_sweep(self):
        # every other row and column of larger arrays: the sweep copies both stacks in and writes to neither
        rng = np.random.default_rng(1420)
        prog, ops = self._ops()
        data = rng.uniform(-np.pi, np.pi, (3, prog.data_arity))
        params = rng.uniform(-2 * np.pi, 2 * np.pi, prog.param_arity)
        ket, bra = (np.zeros((6, 2 << self.N), dtype=np.complex128) for _ in range(2))
        ket[::2, ::2], bra[::2, ::2] = random_stack(rng, 3, self.N), random_stack(rng, 3, self.N)
        kept = ket.copy(), bra.copy()
        strided = sv.adjoint_sweep(ops, ket[::2, ::2], bra[::2, ::2], data, params, prog.param_arity)
        assert np.array_equal(ket, kept[0]) and np.array_equal(bra, kept[1])
        packed = sv.adjoint_sweep(ops, ket[::2, ::2].copy(), bra[::2, ::2].copy(), data, params, prog.param_arity)
        for got, want in zip(strided, packed):
            assert got.shape == want.shape and np.max(np.abs(want)) > 1e-3
            assert np.array_equal(got, want)
