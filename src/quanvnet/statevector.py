"""Exact dense statevector simulation with multi-controlled gates and adjoint gradients.

Conventions, fixed once so amplitude dumps are reproducible bit-for-bit:

* Basis indexing is little-endian: qubit ``i`` contributes bit ``i`` of the
  basis index, with weight ``2**i``.
* Rotations follow ``R_A(theta) = exp(-1j * theta * A / 2)`` for
  ``A in {X, Y, Z}``.
* Everything is double-precision complex; no sampling noise.

``compile_program`` turns a program into ops, each param-bound RX, RY, RZ
run on one target and control pattern into one fused unit ``R_Z R_Y R_X``.
Every op is one controlled 2x2 matrix (constant entries for H, X, Z and
constant angles, per-row arrays for data angles, ``_unit_matrix``'s for
units), applied by one kernel to the control-matching pairs as strided views
of the states' columns, a C-contiguous ``(2**k, batch)`` array for any
register that holds the op's qubits; a per-row entry broadcasts on the batch
axis. ``run_compiled`` and ``unapply_compiled`` take ``(batch, dim)``
stacks. The reverse sweep un-applies each op once from ket and bra in place,
by its conjugate transpose, reads every angle derivative from the 2x2
overlap of the pairs it wrote by one formula, and leaves both stacks at the
fragment's start. ``adjoint_sweep`` runs it on copies. These ops are the
gate-list reference that the tests replay; ``_unit_parts``,
``_unit_matrix``, ``_unit_generators`` and ``_derivative_dots`` also serve
the closed-form evaluator in ``circuits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GATE_KINDS = ("H", "X", "Z", "RX", "RY", "RZ")
ROTATION_KINDS = ("RX", "RY", "RZ")

MAX_QUBITS = 30  # resource guard: 2**30 amplitudes is already 16 GiB


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

# The matrices of H, X and Z, and for each rotation kind its generator
# G_A = (-i/2) A, so that R_A(theta) = cos(theta/2) I + 2 sin(theta/2) G_A.
_MATRICES = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]]) * (1.0 / np.sqrt(2.0)),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "RX": np.array([[0, -0.5j], [-0.5j, 0]]),
    "RY": np.array([[0, -0.5], [0.5, 0]]),
    "RZ": np.array([[-0.5j, 0], [0, 0.5j]]),
}


@dataclass
class _CompiledGate:
    kind: str  # a GATE_KINDS entry, or "U" for a fused RX, RY, RZ unit
    num_qubits: int
    target: int
    controls: tuple  # (qubit, required value) pairs
    angle: tuple | None  # angle source; a fused unit carries its RX slot
    slots: tuple  # a unit's RX, RY, RZ param slots
    entries: tuple | None  # (m00, m01, m10, m11) when fixed at compile time, else None
    # The kernel: ``sel0``/``sel1`` pick the control-matching pairs with target
    # bit 0/1 as strided views of the columns reshaped to ``shape + (batch,)``.
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
    """One op with its kernel: a reshape of the columns with one axis for
    all qubits above the op's highest fixed (target or control) qubit, one
    per fixed qubit and one per run of free qubits between them, ahead of
    the batch axis, the basic index tuples that pick the control-matching
    pairs with target bit 0 and 1 as strided views, and the matrix entries
    of H, X, Z and constant-bound rotations."""
    fixed = dict(controls)
    fixed[target] = None
    shape, sel, top = [-1], [slice(None)], max(fixed) + 1
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
    const = angle is not None and angle[0] == "const"
    entries = tuple(_MATRICES[kind].ravel().tolist()) if angle is None else _rotation(kind, angle[1]) if const else None
    return _CompiledGate(kind, num_qubits, target, controls, angle, slots, entries, tuple(shape), sel0, sel1)


def _fusable(run: tuple) -> bool:
    """True for param-bound RX, RY, RZ in that order on one target and controls."""
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
    out, instrs, i = [], program.instructions, 0
    while i < len(instrs):
        run = instrs[i : i + 3] if _fusable(instrs[i : i + 3]) else instrs[i : i + 1]
        slots, g = tuple(r.angle[1] for r in run) if len(run) == 3 else (), run[0]
        out.append(_compile_gate(program.num_qubits, "U" if slots else g.kind, g.target, g.controls, g.angle, slots))
        i += len(run)
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


def _rotation(kind: str, theta) -> tuple:
    """Entries of R_A(theta) = cos(theta/2) I + 2 sin(theta/2) G_A, broadcast over ``theta``."""
    c, s = np.cos(0.5 * theta), 2.0 * np.sin(0.5 * theta)
    g00, g01, g10, g11 = _MATRICES[kind].flat
    return c + s * g00, s * g01, s * g10, c + s * g11


def _unit_parts(angles: np.ndarray) -> tuple:
    """The parts (p, a, b) of R_Z R_Y R_X for fused units' RX, RY, RZ angles
    (..., 3), each of shape (...): R_Z = diag(p, conj(p)), R_Y R_X|0> = (a, b)."""
    half = 0.5 * np.moveaxis(angles, -1, 0)
    (ca, cb, cc), (sa, sb, sc) = np.cos(half), np.sin(half)
    return cc - 1j * sc, cb * ca + 1j * (sb * sa), sb * ca - 1j * (cb * sa)


def _unit_matrix(angles: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of R_Z R_Y R_X, assembled from ``_unit_parts``."""
    p, a, b = _unit_parts(angles)
    return p * a, -p * np.conj(b), np.conj(p) * b, np.conj(p * a)


def _entries(cg: _CompiledGate, data: np.ndarray, params: np.ndarray) -> tuple:
    """Matrix entries of one op: fixed at compile time, a fused unit's for
    its slots, else a rotation's for its parameter or data angle (per row for
    data rows)."""
    if cg.entries is not None:
        return cg.entries
    if cg.kind == "U":
        return _unit_matrix(params[list(cg.slots)])
    tag, slot = cg.angle
    return _rotation(cg.kind, data[..., slot] if tag == "data" else params[slot])


def _apply_kernel(cols: np.ndarray, cg: _CompiledGate, m: tuple) -> tuple:
    """Apply one compiled op in place to the columns ``cols`` of shape
    (2**k, batch), for any k that holds the op's qubits, as the controlled
    2x2 matrix with entries ``m`` = (m00, m01, m10, m11), each a scalar or an
    array that broadcasts over the pairs (per row).
    Reads the control-matching pairs as strided views of ``cols``, writes the
    new values back and returns them, target bit 0 first, as arrays of their own.
    """
    t = cols.reshape(cg.shape + cols.shape[1:])
    a0, a1 = t[cg.sel0], t[cg.sel1]
    m00, m01, m10, m11 = m
    new = m00 * a0 + m01 * a1, m10 * a0 + m11 * a1
    t[cg.sel0], t[cg.sel1] = new
    return new


def _unit_generators(rx_angles: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (units, 3, 2, 2) generators of fused units U = R_Z R_Y R_X with
    matrices ``u`` moved before them, U G' being U's derivative in each
    angle: G_X, R_X^dag G_Y R_X and U^dag G_Z U (R_Z commutes with Z)."""
    rx = np.reshape(_rotation("RX", rx_angles), (2, 2, -1)).transpose(2, 0, 1)
    moved = [np.conj(v).swapaxes(1, 2) @ _MATRICES[kind] @ v for v, kind in ((rx, "RY"), (u, "RZ"))]
    return np.stack([np.broadcast_to(_MATRICES["RX"], u.shape)] + moved, axis=1)


def _pair_overlaps(b: tuple, k: tuple, per_row: bool) -> np.ndarray:
    """S_ij = sum conj(b_i) k_j over the pairs' axes, and over the rows, the
    last axis, unless ``per_row``: (rows, 2, 2) or (2, 2)."""
    shape = (-1, k[0].shape[-1]) if per_row else (-1,)
    s = [[np.vecdot(bi.reshape(shape), kj.reshape(shape), axis=0) for kj in k] for bi in b]
    return np.moveaxis(np.array(s), (0, 1), (-2, -1))


def _derivative_dots(generators: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """2*Re(<bra| dU/d(angle) |ket>) = 2*Re sum_ij G'_ij S_ij, (..., g), for
    (..., g, 2, 2) ``generators`` and the (..., 2, 2) overlaps S of bra and
    ket *before* the op U, as its un-apply leaves them: one per unit or row
    on the leading axes.

    dU/d(angle) is U G' on the control-matching pairs and zero elsewhere:
    G' = G_A for a lone R_A, which commutes with it, or a fused unit's moved
    generator. Units acting on disjoint pairs, or on other qubits, commute
    with G' and cancel against their un-apply.
    """
    return 2.0 * np.real(np.einsum("...gij,...ij->...g", generators, overlaps))


def _columns(amps: np.ndarray) -> np.ndarray:
    """The (dim, batch) columns of a (batch, dim) stack: its transpose when
    that is C-contiguous, else a C-contiguous copy of a row-major stack."""
    if amps.T.flags.c_contiguous:
        return amps.T
    if not amps.flags.c_contiguous:
        raise ValueError("amplitude stack must be C-contiguous as (batch, dim) or as its transpose")
    return np.ascontiguousarray(amps.T)


def run_compiled(compiled: tuple, amps: np.ndarray, data=None, params=None) -> None:
    """Run compiled ops in place on a (batch, dim) stack: the transpose of
    C-contiguous columns in place, a C-contiguous one through one copy.

    ``data`` holds one row of data angles per state (or one vector for all)
    and ``params`` one vector for all rows; both must be finite.
    """
    cols = _columns(amps)
    data, params = _bind(data, params)
    for cg in compiled:
        _apply_kernel(cols, cg, _entries(cg, data, params))
    if not np.shares_memory(cols, amps):
        amps[...] = cols.T


def unapply_compiled(compiled: tuple, ket: np.ndarray, bra: np.ndarray, data, params, param_arity: int):
    """Reverse sweep of the adjoint method, in place on two (batch, dim)
    stacks, each laid out as ``run_compiled`` accepts.

    ``ket`` is the state after ``compiled`` and ``bra`` the cotangent state
    ``sum_i c_i M_i |psi>`` (per row); each op is un-applied once from both,
    by the conjugate transpose of its matrix, so they leave as the states
    before the fragment. Returns ``(param_grads, data_grads)``: parameter
    gradients summed over the batch, and per-row data gradients of shape
    (batch, data length), (batch, 0) when ``data`` is None, each read by
    ``_derivative_dots`` from the 2x2 overlaps of the pairs the un-apply wrote.
    """
    kc, bc = _columns(ket), _columns(bra)
    data, params = _bind(data, params)
    param_grads = np.zeros(param_arity)
    data_grads = np.zeros((kc.shape[1], data.shape[-1]))
    for cg in reversed(compiled):
        m00, m01, m10, m11 = m = _entries(cg, data, params)
        inverse = np.conj(m00), np.conj(m10), np.conj(m01), np.conj(m11)  # the conjugate transpose
        if cg.angle is None or cg.angle[0] == "const":  # no gradient, so no pairs to keep
            _apply_kernel(kc, cg, inverse)
            _apply_kernel(bc, cg, inverse)
            continue
        # the pair overlaps S_ij = sum conj(b_i) k_j: per row for a data slot, over the batch for parameters
        tag, slot = cg.angle
        k, b = _apply_kernel(kc, cg, inverse), _apply_kernel(bc, cg, inverse)
        if tag == "data":
            data_grads[:, slot] += _derivative_dots(_MATRICES[cg.kind][None], _pair_overlaps(b, k, True))[:, 0]
        else:  # over the batch: a fused unit R_Z R_Y R_X has three angles, a lone rotation one
            if cg.slots:
                slots, generators = list(cg.slots), _unit_generators(params[slot], np.reshape(m, (1, 2, 2)))
            else:
                slots, generators = [slot], _MATRICES[cg.kind][None]
            param_grads[slots] += _derivative_dots(generators, _pair_overlaps(b, k, False)).ravel()
        del k, b  # up to two stacks of pairs: free them before the next op's un-apply
    for rows, cols in ((ket, kc), (bra, bc)):
        if not np.shares_memory(cols, rows):
            rows[...] = cols.T
    return param_grads, data_grads


def adjoint_sweep(compiled: tuple, psi: np.ndarray, bra: np.ndarray, data, params, param_arity: int):
    """``unapply_compiled`` on copies of ``psi`` (the forward final state)
    and ``bra``, made as columns: returns ``(param_grads, data_grads)`` and
    leaves both inputs unchanged."""
    return unapply_compiled(compiled, psi.T.copy().T, bra.T.copy().T, data, params, param_arity)


# ---------------------------------------------------------------------------
# public single-state API
# ---------------------------------------------------------------------------


def apply_gate(state: QuantumState, instr: GateInstruction, data=None, params=None) -> QuantumState:
    """Return the state after one gate; control-violating amplitudes are untouched."""
    lengths = (0 if v is None else np.shape(v)[-1] for v in (data, params))
    CircuitProgram(state.num_qubits, (instr,), *lengths)  # checks the gate and that its angle slot is bound
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
    psi = run_circuit(program, data, params)
    bra = np.zeros_like(psi.amplitudes)
    for c, op in zip(cotangents, ops):
        if c != 0.0:
            bra += c * apply_measurement_operator(psi, op)
    compiled = compile_program(program)
    return adjoint_sweep(compiled, psi.amplitudes[None, :], bra[None, :], data, params, program.param_arity)[0]
