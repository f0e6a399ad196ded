"""Exact dense statevector simulation with multi-controlled gates and adjoint gradients.

Conventions, fixed once so amplitude dumps are reproducible bit-for-bit:

* Basis indexing is little-endian: qubit ``i`` contributes bit ``i`` of the
  basis index, with weight ``2**i``.
* Rotations follow ``R_A(theta) = exp(-1j * theta * A / 2)`` for
  ``A in {X, Y, Z}``.
* Everything is double-precision complex; no sampling noise.

``compile_program`` turns a program into ops. Each run of param-bound RX, RY,
RZ gates on one target and control pattern becomes one fused unit that applies
its 2x2 product ``R_Z R_Y R_X`` in one pass; every other instruction stays one
op. Each op touches only the amplitude pairs whose control bits match, through
one kernel: it updates strided views of the state in place, the stack
reshaped so that the target and each control qubit has an axis of its own.
The kernel accepts a stack of states shaped ``(batch, 2**n)``; the public
single-state API wraps a one-row batch. The two sweeps, ``run_compiled`` and
``unapply_compiled``, convert and check their data and parameter vectors once
at entry, so each op only looks its angle up. The reverse sweep un-applies
each op once from ket and bra in place and reads its angle derivatives from
the pairs that un-apply produced; it leaves both stacks at the fragment's
start, so a caller that builds a fragment in closed form (as the evaluator
does the data encoding) can take its gradients from the bra there.
``adjoint_sweep`` runs it on copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GATE_KINDS = ("H", "X", "Z", "RX", "RY", "RZ")
ROTATION_KINDS = ("RX", "RY", "RZ")

MAX_QUBITS = 30  # resource guard: 2**30 amplitudes is already 16 GiB

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def constant(theta: float) -> tuple:
    """Angle fixed at circuit-construction time."""
    return ("const", float(theta))


def data_slot(i: int) -> tuple:
    """Angle taken from entry ``i`` of the data vector at run time."""
    return ("data", int(i))


def param_slot(j: int) -> tuple:
    """Angle taken from entry ``j`` of the trainable-parameter vector."""
    return ("param", int(j))


@dataclass(frozen=True)
class GateInstruction:
    """One gate: kind, target qubit, control pattern, and angle source.

    ``controls`` is a tuple of ``(qubit, required_value)`` pairs; the gate acts
    only on basis states whose control bits equal the required values (value 0
    controls are allowed). Rotation kinds carry exactly one angle source;
    H/X/Z carry none.
    """

    kind: str
    target: int
    controls: tuple = ()
    angle: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple((int(q), int(v)) for q, v in self.controls))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle source")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} carries no angle")
        if self.angle is not None and self.angle[0] == "const" and not np.isfinite(self.angle[1]):
            raise ValueError("constant gate angle is not finite")

    def validate(self, num_qubits: int) -> None:
        qubits = [q for q, _ in self.controls]
        if self.target in qubits:
            raise ValueError("target qubit also listed as control")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate control qubit")
        for q in qubits + [self.target]:
            if not 0 <= q < num_qubits:
                raise ValueError(f"qubit index {q} out of range for {num_qubits} qubits")
        for _, v in self.controls:
            if v not in (0, 1):
                raise ValueError("control value must be 0 or 1")


@dataclass(frozen=True)
class CircuitProgram:
    """Ordered gate list plus the arities of its data and parameter bindings."""

    num_qubits: int
    instructions: tuple
    data_arity: int = 0
    param_arity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        seen_params = set()
        for instr in self.instructions:
            instr.validate(self.num_qubits)
            if instr.angle is None:
                continue
            tag, slot = instr.angle
            if tag == "data" and not 0 <= slot < self.data_arity:
                raise ValueError(f"data slot {slot} outside arity {self.data_arity}")
            if tag == "param":
                if not 0 <= slot < self.param_arity:
                    raise ValueError(f"param slot {slot} outside arity {self.param_arity}")
                if slot in seen_params:
                    raise ValueError(f"param slot {slot} bound to more than one gate")
                seen_params.add(slot)


@dataclass(frozen=True)
class MeasurementOperator:
    """Tensor product of ``(I + sign*X)`` factors on ``measured_qubits``.

    Unmeasured qubits carry identity. Hermitian by construction, eigenvalues
    in ``[0, 2**len(measured_qubits)]``.
    """

    measured_qubits: tuple
    signs: tuple

    def __post_init__(self):
        object.__setattr__(self, "measured_qubits", tuple(int(q) for q in self.measured_qubits))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        if len(self.measured_qubits) != len(self.signs):
            raise ValueError("one sign per measured qubit")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ValueError("measured qubits must be distinct")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass
class QuantumState:
    """Dense amplitude vector over ``num_qubits`` qubits, little-endian indexed."""

    num_qubits: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def copy(self) -> "QuantumState":
        return QuantumState(self.num_qubits, self.amplitudes.copy())


def new_zero_state(num_qubits: int) -> QuantumState:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amp = np.zeros(1 << num_qubits, dtype=np.complex128)
    amp[0] = 1.0
    return QuantumState(num_qubits, amp)


def dump_amplitudes(state: QuantumState) -> str:
    """Debug dump: one ``index real imag`` line per amplitude, 17 significant digits."""
    lines = [
        f"{i} {a.real:.17g} {a.imag:.17g}"
        for i, a in enumerate(state.amplitudes)
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compiled gate kernels
# ---------------------------------------------------------------------------

_GEN_X = np.array([[0, -0.5j], [-0.5j, 0]])  # (-i/2) X, the generator of R_X
_GEN_Y = np.array([[0, -0.5], [0.5, 0]])  # (-i/2) Y
_GEN_Z = np.array([[-0.5j, 0], [0, 0.5j]])  # (-i/2) Z


@dataclass
class _CompiledGate:
    kind: str  # a GATE_KINDS entry, or "U" for a fused RX, RY, RZ unit
    num_qubits: int
    target: int
    controls: tuple  # (qubit, required value) pairs
    angle: tuple | None  # angle source; a fused unit carries its RX slot
    slots: tuple  # fused unit only: the RX, RY, RZ param slots
    # The kernel: ``sel0``/``sel1`` pick the control-matching pairs with target
    # bit 0/1 as strided views of the stack reshaped to ``shape``.
    shape: tuple
    sel0: tuple
    sel1: tuple

    # The pairs as basis indices, built on access: no kernel reads them, only
    # the benchmark's work counts (``len(cg.idx0)``) and the contract test of
    # what the benchmark reads. They can go when those stop reading them.
    @property
    def idx0(self) -> np.ndarray:
        """Basis indices with control bits matching, target bit 0."""
        fixed = {self.target} | {q for q, _ in self.controls}
        free = tuple(q for q in reversed(range(self.num_qubits)) if q not in fixed)
        return basis_indices(free) | sum(v << q for q, v in self.controls)

    @property
    def idx1(self) -> np.ndarray:
        """``idx0`` with target bit 1."""
        return self.idx0 | (1 << self.target)


def basis_indices(qubits: tuple) -> np.ndarray:
    """Basis index of each integer k < 2^len(qubits) whose bits, most
    significant first, are placed on ``qubits``, other qubits 0."""
    k = np.arange(1 << len(qubits), dtype=np.int64)
    index = np.zeros_like(k)
    for j, q in enumerate(reversed(qubits)):
        index |= ((k >> j) & 1) << q
    return index


def _compile_gate(num_qubits: int, kind: str, target: int, controls: tuple, angle, slots=()) -> _CompiledGate:
    """One op with its kernel: a reshape of the (batch, 2**n) stack with one
    axis per fixed (target or control) qubit and one per run of free qubits
    between them, and the basic index tuples that pick the control-matching
    pairs with target bit 0 and 1 as strided views."""
    fixed = dict(controls)
    fixed[target] = None
    shape, sel, top = [-1], [slice(None)], num_qubits
    for q in sorted(fixed, reverse=True):
        if top - q > 1:
            shape.append(1 << (top - q - 1))
            sel.append(slice(None))
        shape.append(2)
        sel.append(fixed[q])
        top = q
    if top:
        shape.append(1 << top)
        sel.append(slice(None))
    axis = sel.index(None)
    sel0, sel1 = (tuple(sel[:axis] + [bit] + sel[axis + 1 :]) for bit in (0, 1))
    return _CompiledGate(kind, num_qubits, target, controls, angle, slots, tuple(shape), sel0, sel1)


def _fusable(run: tuple) -> bool:
    """True for param-bound RX, RY, RZ in that order on one target and one
    control pattern."""
    return (
        tuple(g.kind for g in run) == ROTATION_KINDS
        and all(g.angle[0] == "param" for g in run)
        and len({(g.target, frozenset(g.controls)) for g in run}) == 1
    )


@lru_cache(maxsize=32)
def compile_program(program: CircuitProgram) -> tuple:
    """Compile every instruction to one op with its kernel, fusing each
    param-bound RX, RY, RZ run that shares a target and controls into one
    unit op. Data- and constant-bound rotations stay one op each."""
    out = []
    instrs = program.instructions
    i = 0
    while i < len(instrs):
        run = instrs[i : i + 3]
        if _fusable(run):
            slots = tuple(g.angle[1] for g in run)
            out.append(_compile_gate(program.num_qubits, "U", run[0].target, run[0].controls, run[0].angle, slots))
            i += 3
        else:
            g = instrs[i]
            out.append(_compile_gate(program.num_qubits, g.kind, g.target, g.controls, g.angle))
            i += 1
    return tuple(out)


def _bind(data, params) -> tuple:
    """``data`` and ``params`` as float64 arrays (empty for None), checked once
    per sweep so that each op only looks its angle up."""
    data, params = (np.zeros(0) if v is None else np.asarray(v, dtype=np.float64) for v in (data, params))
    if params.ndim != 1:
        raise ValueError("parameters are one vector shared by all rows")
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(params))):
        raise ValueError("data and parameter values must be finite")
    return data, params


def _resolve_angle(cg: _CompiledGate, data: np.ndarray, params: np.ndarray):
    """Angle value for one op: a scalar, a per-row vector for a batch of data
    rows, or a fused unit's three angles."""
    tag, slot = cg.angle
    if tag == "const":
        return slot
    if tag == "data":
        return data[..., slot]
    return params[list(cg.slots)] if cg.slots else params[slot]


def _unit_matrix(angles: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of R_Z(c) R_Y(b) R_X(a) for a fused
    unit's angles (a, b, c), as Python complex numbers."""
    (ca, cb, cc), (sa, sb, sc) = np.cos(0.5 * angles).tolist(), np.sin(0.5 * angles).tolist()
    p = complex(cc, -sc)  # R_Z = diag(p, conj(p))
    q = p.conjugate()
    return (
        p * complex(cb * ca, sb * sa),
        p * complex(-sb * ca, -cb * sa),
        q * complex(sb * ca, -cb * sa),
        q * complex(cb * ca, -sb * sa),
    )


def _apply_kernel(amps: np.ndarray, cg: _CompiledGate, theta=None, invert: bool = False) -> tuple:
    """Apply one compiled op in place to ``amps`` of shape (batch, 2**n).

    Reads the control-matching pairs as strided views of ``amps``, writes the
    new values back, target bit 0 first, and returns them: arrays of their
    own for rotations and fused units (``None`` marks a half the op leaves
    unchanged).
    """
    kind = cg.kind
    t = amps.reshape(cg.shape)
    a0, a1 = t[cg.sel0], t[cg.sel1]
    if kind == "H":
        new = (a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2
    elif kind == "X":
        new = a1, a0.copy()  # a0 is overwritten first
    elif kind == "Z":
        new = None, -a1
    elif kind == "U":
        m00, m01, m10, m11 = _unit_matrix(theta)
        if invert:
            m00, m01, m10, m11 = m00.conjugate(), m10.conjugate(), m01.conjugate(), m11.conjugate()
        new = m00 * a0 + m01 * a1, m10 * a0 + m11 * a1
    else:
        if isinstance(theta, np.ndarray):  # one angle per row
            theta = theta.reshape((-1,) + (1,) * (a0.ndim - 1))
        half = -0.5 * theta if invert else 0.5 * theta
        if kind == "RZ":
            phase = np.exp(-1j * half)
            new = a0 * phase, a1 * np.conj(phase)
        else:
            c = np.cos(half)
            s = np.sin(half)
            if kind == "RX":
                new = c * a0 - 1j * s * a1, -1j * s * a0 + c * a1
            else:  # RY
                new = c * a0 - s * a1, s * a0 + c * a1
    if new[0] is not None:
        t[cg.sel0] = new[0]
    t[cg.sel1] = new[1]
    return new


def _rotation_derivative_dot(kind: str, b0, b1, k0, k1) -> np.ndarray:
    """Per-row 2*Re(<bra| dU/dtheta |ket>) for a (controlled) rotation
    R_A, from the pair amplitudes ``b0, b1, k0, k1`` of bra and ket taken on
    the same side of the gate.

    dU/dtheta acts as (-i/2) A R_A(theta) on the control-matching pairs and
    as zero elsewhere. A commutes with R_A, so the inner product is
    <bra|(-i/2) A|ket> over those pairs both after the gate and after it is
    un-applied from bra and ket: no re-rotation is needed.
    """
    if kind == "RZ":
        d0, d1 = -0.5j * k0, 0.5j * k1
    elif kind == "RX":
        d0, d1 = -0.5j * k1, -0.5j * k0
    else:  # RY
        d0, d1 = -0.5 * k1, 0.5 * k0
    acc = np.conj(b0) * d0 + np.conj(b1) * d1
    return 2.0 * np.real(acc.sum(axis=tuple(range(1, acc.ndim))))


def _unit_derivative_dots(angles, b0, b1, k0, k1) -> tuple:
    """Batch-summed 2*Re(<bra| dU/d(angle) |ket>) for the RX, RY and RZ angles
    of a fused unit U = R_Z R_Y R_X, from the pair amplitudes of bra and ket
    *before* the unit (as its un-apply leaves them).

    Moved before U, each derivative is U G' with G'_x = (-i/2)X,
    G'_y = R_X^dag (-i/2)Y R_X and G'_z = U^dag (-i/2)Z U (R_Z commutes with
    Z). With the four batch-summed overlaps S_ij = sum conj(b_i) k_j, each
    gradient is 2*Re sum_ij G'_ij S_ij.
    """
    overlaps = np.array([[np.vdot(b0, k0), np.vdot(b0, k1)], [np.vdot(b1, k0), np.vdot(b1, k1)]])
    c, s = np.cos(0.5 * angles[0]), np.sin(0.5 * angles[0])
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    u = np.reshape(_unit_matrix(angles), (2, 2))
    generators = (_GEN_X, rx.conj().T @ _GEN_Y @ rx, u.conj().T @ _GEN_Z @ u)
    return tuple(2.0 * float(np.real(np.sum(g * overlaps))) for g in generators)


def run_compiled(compiled: tuple, amps: np.ndarray, data=None, params=None) -> None:
    """Run a compiled op sequence in place on a C-contiguous (batch, dim) stack.

    ``data`` holds one row of data angles per state (or one vector for all)
    and ``params`` one vector for all rows; both must be finite.
    """
    if not amps.flags.c_contiguous:
        raise ValueError("amplitude stack must be C-contiguous")
    data, params = _bind(data, params)
    for cg in compiled:
        _apply_kernel(amps, cg, None if cg.angle is None else _resolve_angle(cg, data, params))


def unapply_compiled(compiled: tuple, ket: np.ndarray, bra: np.ndarray, data, params, param_arity: int):
    """Reverse sweep of the adjoint method, in place on two C-contiguous
    (batch, dim) stacks.

    ``ket`` is the state after ``compiled`` and ``bra`` the cotangent state
    ``sum_i c_i M_i |psi>`` (per row); each op is un-applied once from both,
    so they leave as the states before the fragment. Returns
    ``(param_grads, data_grads)``: parameter gradients summed over the batch,
    and per-row data gradients of shape (batch, data length), (batch, 0)
    when ``data`` is None, each read from the pair amplitudes the un-apply
    wrote.
    """
    if not (ket.flags.c_contiguous and bra.flags.c_contiguous):
        raise ValueError("amplitude stacks must be C-contiguous")
    data, params = _bind(data, params)
    param_grads = np.zeros(param_arity)
    data_grads = np.zeros((ket.shape[0], data.shape[-1]))
    for cg in reversed(compiled):
        theta = None if cg.angle is None else _resolve_angle(cg, data, params)
        k0, k1 = _apply_kernel(ket, cg, theta, invert=True)
        b0, b1 = _apply_kernel(bra, cg, theta, invert=True)
        if cg.slots:
            for slot, g in zip(cg.slots, _unit_derivative_dots(theta, b0, b1, k0, k1)):
                param_grads[slot] += g
        elif cg.angle is not None and cg.angle[0] != "const":
            tag, slot = cg.angle
            dots = _rotation_derivative_dot(cg.kind, b0, b1, k0, k1)
            if tag == "param":
                param_grads[slot] += dots.sum()
            else:
                data_grads[:, slot] += dots
    return param_grads, data_grads


def adjoint_sweep(compiled: tuple, psi: np.ndarray, bra: np.ndarray, data, params, param_arity: int):
    """``unapply_compiled`` on copies of ``psi`` (the forward final state)
    and ``bra``: returns ``(param_grads, data_grads)`` and leaves both
    inputs unchanged."""
    return unapply_compiled(compiled, psi.copy(), bra.copy(), data, params, param_arity)


# ---------------------------------------------------------------------------
# public single-state API
# ---------------------------------------------------------------------------


def apply_gate(state: QuantumState, instr: GateInstruction, data=None, params=None) -> QuantumState:
    """Return the state after one gate; control-violating amplitudes are untouched."""
    instr.validate(state.num_qubits)
    cg = _compile_gate(state.num_qubits, instr.kind, instr.target, instr.controls, instr.angle)
    amps = state.amplitudes[None, :].copy()
    run_compiled((cg,), amps, data, params)
    return QuantumState(state.num_qubits, amps[0])


def run_circuit(program: CircuitProgram, data=None, params=None) -> QuantumState:
    """Apply all instructions left to right to |0...0>."""
    _check_binding(data, program.data_arity, "data")
    _check_binding(params, program.param_arity, "params")
    state = new_zero_state(program.num_qubits)
    amps = state.amplitudes[None, :]
    run_compiled(compile_program(program), amps, data, params)
    return state


def _check_binding(vec, arity: int, name: str) -> None:
    length = 0 if vec is None else np.shape(vec)[-1]
    if length != arity:
        raise ValueError(f"{name} vector has length {length}, program expects {arity}")


def apply_measurement_operator(state: QuantumState, op: MeasurementOperator) -> np.ndarray:
    """Amplitudes of M|psi> for a product-of-(I +/- X) operator."""
    for q in op.measured_qubits:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"measured qubit {q} out of range")
    phi = state.amplitudes.copy()
    for q, sign in zip(op.measured_qubits, op.signs):
        phi += sign * phi.reshape(-1, 2, 1 << q)[:, ::-1].reshape(-1)  # X on qubit q swaps bit q
    return phi


def expectation(state: QuantumState, op: MeasurementOperator) -> float:
    """<psi|M|psi>; the (tiny) imaginary residue of the Hermitian form is discarded."""
    return float(np.real(np.vdot(state.amplitudes, apply_measurement_operator(state, op))))


def adjoint_gradients(
    program: CircuitProgram,
    data,
    params,
    ops,
    cotangents,
) -> np.ndarray:
    """Gradient of ``sum_i cotangents[i] * E(M_i)`` with respect to all param slots.

    One forward simulation plus one backward sweep; cost is independent of the
    number of parameters (up to the per-gate derivative inner products).
    """
    cotangents = np.asarray(cotangents, dtype=np.float64)
    if cotangents.shape != (len(ops),):
        raise ValueError("one cotangent per measurement operator")
    if not np.all(np.isfinite(cotangents)):
        raise ValueError("cotangents must be finite")
    if program.param_arity == 0:
        return np.zeros(0)
    _check_binding(data, program.data_arity, "data")
    _check_binding(params, program.param_arity, "params")
    psi = run_circuit(program, data, params)
    bra = np.zeros_like(psi.amplitudes)
    for c, op in zip(cotangents, ops):
        if c != 0.0:
            bra += c * apply_measurement_operator(psi, op)
    param_grads, _ = adjoint_sweep(
        compile_program(program),
        psi.amplitudes[None, :],
        bra[None, :],
        data,
        params,
        program.param_arity,
    )
    return param_grads
