"""Circuit construction for the hybrid network: location-controlled feature
encoding, quantum-convolution blocks with the location weight module, the
measurement-operator family, and resource accounting.

Register conventions (all indices little-endian into the simulator):

* ``q_l`` holds superpixel coordinates; the list is ordered
  ``[x_g .. x_1, y_g .. y_1]`` so ``q_l[0]`` is the most significant x bit.
  A grid coordinate pair ``(x, y)`` selects the control pattern with bit
  ``g-1-j`` of ``x`` on ``q_l[j]`` and likewise for y.
* ``q_v`` holds feature values, three rotation angles per qubit.
* ``q_k`` indexes convolution kernels (bit ``j`` of the kernel index controls
  ``q_k[j]``); ``q_f`` holds one feature-map qubit per convolution block.
* Convolution block ``b`` consumes location bits ``(x_b, y_b)``: a 2x2 kernel
  with stride 2, so after ``M`` blocks the surviving map coordinates are the
  top ``g-M`` bits of each axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from . import statevector as sv
from .statevector import CircuitProgram, GateInstruction, MeasurementOperator

GATE_UNIT = ("RX", "RY", "RZ")  # the atomic trainable/encoding trio, 3 angles


@dataclass(frozen=True)
class CircuitConfig:
    """Structural scalars of the quantum part.

    ``grid_log`` is g where the processed image is 2^g x 2^g superpixels;
    ``features_per_superpixel`` (E) must be a multiple of 3 (one gate unit per
    value qubit); ``kernels_per_block`` (K) must be a power of two.
    """

    grid_log: int
    features_per_superpixel: int
    num_blocks: int
    kernels_per_block: int
    lwm_enabled: bool = True

    def __post_init__(self):
        g, e, m, k = self.grid_log, self.features_per_superpixel, self.num_blocks, self.kernels_per_block
        if g < 1:
            raise ValueError("grid_log must be >= 1")
        if e <= 0 or e % 3 != 0:
            raise ValueError("features_per_superpixel must be a positive multiple of 3")
        if not 1 <= m <= g:
            raise ValueError("num_blocks must satisfy 1 <= M <= grid_log")
        if k < 1 or k & (k - 1):
            raise ValueError("kernels_per_block must be a power of 2")

    @property
    def value_qubits(self) -> int:
        return self.features_per_superpixel // 3

    @property
    def kernel_qubits(self) -> int:
        return self.kernels_per_block.bit_length() - 1

    @property
    def grid_size(self) -> int:
        return 1 << self.grid_log

    @property
    def data_arity(self) -> int:
        return self.features_per_superpixel * self.grid_size**2

    @property
    def num_feature_values(self) -> int:
        sign_bits = 2 * (self.grid_log - self.num_blocks) + self.value_qubits + self.kernel_qubits
        return 1 << sign_bits


@dataclass(frozen=True)
class RegisterLayout:
    """Disjoint qubit index assignments for the four registers."""

    q_l: tuple
    q_v: tuple
    q_k: tuple
    q_f: tuple

    @property
    def total_qubits(self) -> int:
        return len(self.q_l) + len(self.q_v) + len(self.q_k) + len(self.q_f)


def make_layout(config: CircuitConfig) -> RegisterLayout:
    g = config.grid_log
    counts = (2 * g, config.value_qubits, config.kernel_qubits, config.num_blocks)
    bounds = np.cumsum((0,) + counts)
    regs = [tuple(range(bounds[i], bounds[i + 1])) for i in range(4)]
    return RegisterLayout(*regs)


def _x_qubit(layout: RegisterLayout, g: int, b: int) -> int:
    """Qubit carrying bit x_b (b-th least significant bit of the row index)."""
    return layout.q_l[g - b]


def _y_qubit(layout: RegisterLayout, g: int, b: int) -> int:
    return layout.q_l[2 * g - b]


def _location_controls(layout: RegisterLayout, g: int, x: int, y: int) -> tuple:
    controls = []
    for j in range(g):
        controls.append((layout.q_l[j], (x >> (g - 1 - j)) & 1))
        controls.append((layout.q_l[g + j], (y >> (g - 1 - j)) & 1))
    return tuple(controls)


def build_encoding(config: CircuitConfig, layout: RegisterLayout) -> CircuitProgram:
    """Encoding fragment: uniform location superposition, then per superpixel
    a location-controlled gate unit per value qubit followed by the
    location-conditioned pair entanglers (the all-pairs CZ of the value
    register, restricted to that superpixel's location branch)."""
    if len(layout.q_l) != 2 * config.grid_log or len(layout.q_v) != config.value_qubits:
        raise ValueError("layout does not match config")
    g, e = config.grid_log, config.features_per_superpixel
    nv = config.value_qubits
    instrs = [GateInstruction("H", q) for q in layout.q_l]
    size = config.grid_size
    for x in range(size):
        for y in range(size):
            loc = _location_controls(layout, g, x, y)
            base = ((x << g) | y) * e
            for n in range(nv):
                for i, kind in enumerate(GATE_UNIT):
                    instrs.append(GateInstruction(kind, layout.q_v[n], loc, sv.data_slot(base + 3 * n + i)))
            # CZ^2 = I, so an unconditioned entangler repeated once per
            # superpixel would cancel; conditioning on the location branch
            # realizes the per-superpixel sign flip.
            for a in range(nv):
                for b in range(a + 1, nv):
                    instrs.append(GateInstruction("Z", layout.q_v[b], loc + ((layout.q_v[a], 1),)))
    return CircuitProgram(layout.total_qubits, instrs, data_arity=config.data_arity, param_arity=0)


def cz_sign_pattern(v_amplitudes) -> np.ndarray:
    """Sign action of the all-pairs CZ on a 3-qubit value register:
    (a,b,c,d,e,f,g,h) -> (a,b,c,-d,e,-f,-g,-h)."""
    v = np.asarray(v_amplitudes, dtype=np.complex128)
    if v.shape != (8,):
        raise ValueError("value register must have 8 amplitudes (3 qubits)")
    out = v.copy()
    for idx in range(8):
        if idx.bit_count() >= 2:
            out[idx] = -out[idx]
    return out


def build_feature_extraction(config: CircuitConfig, layout: RegisterLayout) -> CircuitProgram:
    """Feature-extraction fragment: kernel-register Hadamards, a trainable
    gate unit per value qubit before block 1 and after block M, and per block
    the location-weight units plus the 2x2/stride-2 kernel units chained
    through the feature register."""
    if len(layout.q_f) != config.num_blocks or len(layout.q_k) != config.kernel_qubits:
        raise ValueError("layout does not match config")
    g, nv = config.grid_log, config.value_qubits
    instrs = [GateInstruction("H", q) for q in layout.q_k]
    next_param = 0

    def unit(target, controls=()):
        nonlocal next_param
        for kind in GATE_UNIT:
            instrs.append(GateInstruction(kind, target, controls, sv.param_slot(next_param)))
            next_param += 1

    for q in layout.q_v:
        unit(q)
    for b in range(1, config.num_blocks + 1):
        xq, yq = _x_qubit(layout, g, b), _y_qubit(layout, g, b)
        chain = ((layout.q_f[b - 2], 1),) if b > 1 else ()
        for v in range(nv):
            if config.lwm_enabled:
                unit(xq)
                unit(yq)
            for kappa in range(config.kernels_per_block):
                kernel_ctrl = tuple((layout.q_k[j], (kappa >> j) & 1) for j in range(config.kernel_qubits))
                for cx in range(2):
                    for cy in range(2):
                        controls = ((xq, cx), (yq, cy), (layout.q_v[v], 1)) + kernel_ctrl + chain
                        unit(layout.q_f[b - 1], controls)
    for q in layout.q_v:
        unit(q)
    return CircuitProgram(layout.total_qubits, instrs, data_arity=0, param_arity=next_param)


def measured_qubit_order(config: CircuitConfig, layout: RegisterLayout) -> tuple:
    """Measured qubits, most significant sign bit first; the fixed-sign
    feature qubit of the last block comes last."""
    g, m = config.grid_log, config.num_blocks
    x_bits = layout.q_l[: g - m]
    y_bits = layout.q_l[g : 2 * g - m]
    return x_bits + y_bits + layout.q_k + layout.q_v + (layout.q_f[-1],)


def build_measurement_operators(config: CircuitConfig, layout: RegisterLayout) -> list:
    """The 2^w operators of the family, indexed by their sign bits
    (0 <-> '+'); the final feature qubit always carries the '-' factor."""
    order = measured_qubit_order(config, layout)
    variable = order[:-1]
    w = len(variable)
    ops = []
    for i in range(1 << w):
        signs = tuple(-1 if (i >> (w - 1 - j)) & 1 else 1 for j in range(w))
        ops.append(MeasurementOperator(order, signs + (-1,)))
    return ops


def full_program(config: CircuitConfig, layout: RegisterLayout) -> CircuitProgram:
    enc = build_encoding(config, layout)
    ext = build_feature_extraction(config, layout)
    return CircuitProgram(
        layout.total_qubits,
        enc.instructions + ext.instructions,
        data_arity=enc.data_arity,
        param_arity=ext.param_arity,
    )


# ---------------------------------------------------------------------------
# fast evaluation
# ---------------------------------------------------------------------------


class QuantumEvaluator:
    """Compiled end-to-end evaluator for a fixed config.

    The encoding fragment is built in closed form. After the location
    Hadamards, the branch of superpixel s = (x << g) | y holds the product of
    its value qubits' R_Z R_Y R_X|0> states times the all-pairs CZ sign
    (-1)^(k(k-1)/2) for Hamming weight k, at amplitude 1/2^g; its data-angle
    gradients follow from the same product and the cotangent state at the
    encoding boundary. Only the ``extraction`` fragment runs as compiled ops.
    ``program`` and ``compiled`` hold the whole program, encoding first, as
    the gate-list reference; they are built on first use.

    The measurement family of this circuit is diagonal after a Hadamard on
    every measured qubit: (I + sX)/2 = H |(1-s)/2><(1-s)/2| H. Expectations
    are therefore 2^m times marginal probabilities of bit patterns, and the
    cotangent state sum_i c_i M_i |psi> is H-conjugated diagonal scaling --
    both O(2^n) regardless of the number of operators.
    """

    def __init__(self, config: CircuitConfig):
        self.config = config
        self.layout = make_layout(config)
        self.extraction = build_feature_extraction(config, self.layout)
        self._ops = sv.compile_program(self.extraction)
        self.operators = build_measurement_operators(config, self.layout)

        order = measured_qubit_order(config, self.layout)
        n = self.layout.total_qubits
        rest = tuple(q for q in range(n) if q not in order)
        self._dim = 1 << n
        self._h_gates = sv.compile_program(CircuitProgram(n, [GateInstruction("H", q) for q in order]))
        # Row i lists the amplitudes whose measured bits read (i, 1), order[0]
        # most significant, over the unmeasured bits with rest[0] most
        # significant: the order the features' marginal sums run in.
        self._table = sv.basis_indices(order)[1::2, None] | sv.basis_indices(rest)[None, :]
        # Row s lists superpixel s's amplitudes of the encoded state, column
        # bit j on value qubit j; the scale is each column's CZ sign / 2^g.
        self._encoding_table = sv.basis_indices(self.layout.q_l)[:, None] | sv.basis_indices(self.layout.q_v[::-1])[None, :]
        weight = np.array([k.bit_count() for k in range(1 << config.value_qubits)])
        self._encoding_scale = (-1.0) ** (weight * (weight - 1) // 2) / config.grid_size

    @cached_property
    def program(self) -> CircuitProgram:
        return full_program(self.config, self.layout)

    @cached_property
    def compiled(self) -> tuple:
        return sv.compile_program(self.program)

    @property
    def num_features(self) -> int:
        return self.config.num_feature_values

    def forward(self, data: np.ndarray, params: np.ndarray):
        """Simulate a batch of data rows; returns (final amplitudes, features)."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        states, _ = _unit_states(self._angles(data))
        branch = states[:, 0]
        for n in range(1, self.config.value_qubits):  # value qubit n on bit n of the leading axis
            branch = (states[:, None, n] * branch[None]).reshape((-1,) + branch.shape[1:])
        amps = np.zeros((data.shape[0], self._dim), dtype=np.complex128)
        amps[:, self._encoding_table] = np.moveaxis(branch, 0, -1) * self._encoding_scale
        sv.run_compiled(self._ops, amps, None, params)
        phi = amps.copy()
        sv.run_compiled(self._h_gates, phi)
        probs = phi.real**2 + phi.imag**2
        # 2^m for the m measured qubits: one per feature index bit plus q_f's
        features = (2.0 * self.num_features) * np.take(probs, self._table, axis=1).sum(axis=2)
        return amps, features

    def backward(self, amps: np.ndarray, data: np.ndarray, params: np.ndarray, cotangents: np.ndarray):
        """Adjoint sweep from stored forward amplitudes.

        Returns the parameter gradient summed over the batch and the
        per-row gradient with respect to every data slot.
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        cotangents = np.atleast_2d(np.asarray(cotangents, dtype=np.float64))
        bra = amps.copy()
        sv.run_compiled(self._h_gates, bra)
        weights = np.zeros(bra.shape)
        weights[:, self._table] = (2.0 * self.num_features) * cotangents[:, :, None]
        bra *= weights
        sv.run_compiled(self._h_gates, bra)
        param_grads, _ = sv.unapply_compiled(self._ops, amps.copy(), bra, None, params, self.extraction.param_arity)
        # bra is now the cotangent state at the encoding boundary; each data
        # angle's gradient is 2 Re <bra| d(encoded state)/d angle>, and only
        # its superpixel's branch depends on it.
        nv = self.config.value_qubits
        states, derivs = _unit_states(self._angles(data))
        conj = np.conj(bra[:, self._encoding_table]) * self._encoding_scale
        conj = conj.reshape(conj.shape[:2] + (2,) * nv)  # axis 1 + nv - n holds value qubit n
        grads = np.empty(derivs.shape[:1] + states.shape[1:])
        for n in range(nv):  # contract every other value qubit's state out of the branch
            others = [op for m in range(nv) if m != n for op in (states[:, m], [1 + nv - m, 0, 1])]
            env = np.einsum(conj, [0, 1, *range(2, 2 + nv)], *others, [1 + nv - n, 0, 1])
            grads[:, n] = 2.0 * np.real(np.einsum("krs,ikrs->irs", env, derivs[:, :, n]))
        return param_grads, np.moveaxis(grads, (0, 1), (3, 2)).reshape(data.shape[0], -1)

    def _angles(self, data: np.ndarray) -> np.ndarray:
        """Data rows as (RX/RY/RZ angle, value qubit, row, superpixel)."""
        if not np.all(np.isfinite(data)):
            raise ValueError("data and parameter values must be finite")
        angles = data.reshape(data.shape[0], self.config.grid_size**2, self.config.value_qubits, 3)
        return np.moveaxis(angles, (3, 2), (0, 1))


def _unit_states(angles: np.ndarray) -> tuple:
    """R_Z(c) R_Y(b) R_X(a)|0> for angles (a, b, c) stacked on the leading
    axis, as its two amplitudes stacked the same way, and their derivatives
    with respect to a, b and c: shapes (2, ...) and (3, 2, ...)."""
    (ca, cb, cc), (sa, sb, sc) = np.cos(0.5 * angles), np.sin(0.5 * angles)
    phase = np.array([cc - 1j * sc, cc + 1j * sc])  # R_Z = diag(phase)
    u = np.array([cb * ca + 1j * sb * sa, sb * ca - 1j * cb * sa])  # R_Y R_X|0>
    du_a = 0.5 * np.array([1j * sb * ca - cb * sa, -sb * sa - 1j * cb * ca])  # R_Y (-i/2)X R_X|0>
    du_b = 0.5 * np.array([-u[1], u[0]])  # (-i/2)Y R_Y R_X|0>
    du_c = np.array([-0.5j * u[0], 0.5j * u[1]])  # (-i/2)Z, which commutes with R_Z
    return phase * u, phase * np.array([du_a, du_b, du_c])


@lru_cache(maxsize=8)
def get_evaluator(config: CircuitConfig) -> QuantumEvaluator:
    return QuantumEvaluator(config)


def quantum_forward(config: CircuitConfig, processed_image: np.ndarray, quantum_params: np.ndarray) -> np.ndarray:
    """Feature vector (all operator expectations, in index order) for one
    processed image of shape (2^g, 2^g, E)."""
    size = config.grid_size
    processed_image = np.asarray(processed_image, dtype=np.float64)
    if processed_image.shape != (size, size, config.features_per_superpixel):
        raise ValueError(f"processed image must have shape {(size, size, config.features_per_superpixel)}")
    if not np.all(np.isfinite(processed_image)):
        raise ValueError("processed image contains non-finite angles")
    ev = get_evaluator(config)
    _, features = ev.forward(processed_image.reshape(1, -1), np.asarray(quantum_params, dtype=np.float64))
    return features[0]


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceReport:
    encoding_qubits: int
    encoding_gate_units: int
    encoding_hadamards: int
    encoding_cz: int
    extraction_qubits: int
    extraction_gate_units: int
    extraction_hadamards: int
    trainable_quantum_params: int
    total_qubits: int
    measurement_operators: int

    def as_lines(self) -> list:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]


def _fragment_counts(program: CircuitProgram) -> tuple:
    rotations = sum(1 for i in program.instructions if i.kind in GATE_UNIT)
    hadamards = sum(1 for i in program.instructions if i.kind == "H")
    entanglers = sum(1 for i in program.instructions if i.kind == "Z")
    if rotations % 3:
        raise RuntimeError("rotation count is not a whole number of gate units")
    return rotations // 3, hadamards, entanglers


def resource_report(config: CircuitConfig) -> ResourceReport:
    """Closed-form resource counts, cross-checked against the built fragments."""
    g, e = config.grid_log, config.features_per_superpixel
    m, k = config.num_blocks, config.kernels_per_block
    grid = config.grid_size**2
    lwm_units = 2 * m * e // 3 if config.lwm_enabled else 0
    report = ResourceReport(
        encoding_qubits=2 * g + e // 3,
        encoding_gate_units=grid * e // 3,
        encoding_hadamards=2 * g,
        encoding_cz=grid * e * (e - 3) // 18,
        extraction_qubits=m + config.kernel_qubits,
        extraction_gate_units=(4 * m * k * e + 2 * e) // 3 + lwm_units,
        extraction_hadamards=config.kernel_qubits,
        trainable_quantum_params=3 * ((4 * m * k * e + 2 * e) // 3 + lwm_units),
        total_qubits=2 * g + e // 3 + m + config.kernel_qubits,
        measurement_operators=config.num_feature_values,
    )
    layout = make_layout(config)
    enc_units, enc_h, enc_cz = _fragment_counts(build_encoding(config, layout))
    ext = build_feature_extraction(config, layout)
    ext_units, ext_h, _ = _fragment_counts(ext)
    built = (enc_units, enc_h, enc_cz, ext_units, ext_h, ext.param_arity, len(build_measurement_operators(config, layout)))
    closed = (
        report.encoding_gate_units,
        report.encoding_hadamards,
        report.encoding_cz,
        report.extraction_gate_units,
        report.extraction_hadamards,
        report.trainable_quantum_params,
        report.measurement_operators,
    )
    if built != closed:
        raise RuntimeError(f"closed-form resource counts {closed} disagree with built fragments {built}")
    return report
