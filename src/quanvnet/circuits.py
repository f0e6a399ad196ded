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

# The widest Kronecker factor of the value maps (the head's and the tail's units on q_v) and of the
# measurement's Hadamards: a factor on w qubits is one batched GEMM over the state with 2^w multiply-adds per
# amplitude, so a wider register runs as several factors, and a 6-qubit complex factor is a 64 x 64 matrix.
MAX_BLOCK_QUBITS = 6


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


def _cz_signs(num_qubits: int) -> np.ndarray:
    """Sign of the all-pairs CZ on each basis state of ``num_qubits`` qubits:
    (-1)^(k(k-1)/2), one flip per pair of set bits, for Hamming weight k."""
    weight = np.array([k.bit_count() for k in range(1 << num_qubits)])
    return (-1.0) ** (weight * (weight - 1) // 2)


def cz_sign_pattern(v_amplitudes) -> np.ndarray:
    """Sign action of the all-pairs CZ on a 3-qubit value register:
    (a,b,c,d,e,f,g,h) -> (a,b,c,-d,e,-f,-g,-h)."""
    v = np.asarray(v_amplitudes, dtype=np.complex128)
    if v.shape != (8,):
        raise ValueError("value register must have 8 amplitudes (3 qubits)")
    out, flip = v.copy(), _cz_signs(3) < 0
    out[flip] = -out[flip]
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
        xq, yq = layout.q_l[g - b], layout.q_l[2 * g - b]  # x_b and y_b, each axis's b-th least significant bit
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
    """End-to-end evaluator for a fixed config; it runs no compiled op.

    Each row's state is one array with an axis per qubit, slowest first, and
    the rows last: the sector controls q_v and q_k, then each block's output
    q_f[b-1], y_b, x_b in block order, then the location pairs no block
    consumes. After the location Hadamards, superpixel s = (x << g) | y
    holds the product of its value qubits' R_Z R_Y R_X|0> states times the
    all-pairs CZ sign (-1)^(k(k-1)/2) for Hamming weight k, at amplitude
    1/2^g, and q_k starts in |+>. So the head, the units on q_v before block
    1, is one map on the value axis of the (value, location pairs, row)
    branches scaled by the signs and 1/(2^g sqrt K), shared by every kernel,
    and the tail, the units on q_v after block M, one map on the value axis
    of the final state; each runs as Kronecker factors of at most
    MAX_BLOCK_QUBITS qubits (``_times_factors``).

    Convolution block b's units act on x_b, y_b and q_f[b-1] (|0> before
    them) under controls q_v, q_k and q_f[b-2] only, so per sector s, a
    pattern of those controls, the block is one 8 x 4 matrix V_s, the same
    for every row and every pattern of the other qubits: a uniformly
    controlled unitary. ``_build`` makes every unit's matrix in one pass and
    multiplies each V_s out of them in closed form, per value qubit its LWM
    pair U_x (x) U_y and then its kernel units on q_f[b-1] in the sectors
    where they act; ``forward`` rebuilds only when the parameter values
    change. Block b's input has the axes (value, kernel, consumed bits,
    q_f[b-2], pair b-1, pair b, rest), the kernel axis of length 1 before
    block 1; V, arranged on the same axes, contracts pair b in one broadcast
    matmul, and the output's (q_f[b-1], pair b) axis in its place is the next
    block's input. ``forward`` copies the last block's output once into
    (2^n, batch) columns of the qubit order and runs the tail there into the
    last block's buffer: the returned (batch, 2^n) amplitudes, a copy that
    the backward does not read.

    The measurement family is diagonal after a Hadamard on every measured
    qubit: (I + sX)/2 = H |(1-s)/2><(1-s)/2| H. H on q_f[-1], the top qubit,
    makes the upper half (lower - upper) / sqrt 2, written to the lower half
    of phi, the columns' buffer, with the measured bits (value, kernel, kept
    pairs) first; the Hadamards on them, one real GEMM per factor of at most
    6 bits on its float64 view, write the measured state to phi's upper
    half, and the features are 2^(m-1) times its marginals, in the
    operators' order. The cache holds each block's input, phi, the unit
    matrices, the value maps, the LWM pairs, V, and the encoding's unit
    states and parts.

    ``backward`` consumes the cache and carries the conjugate of the bra, so
    that every overlap is a plain GEMM with a cached ket. The weighted
    measured state, back through the Hadamards, is beta: the bra is
    (beta, -beta) over q_f[-1]. The tail's unit gradients come from the
    value-axis overlap of beta and the difference, and its transpose takes
    beta back into the state's layout. The last block's G_s = Bra_s X_s^H is
    then (beta X^H, -beta X^H) and its input bra (V_0 - V_1)^H beta; each
    earlier block's G_s and input bra V^H Bra come from its cached input,
    summed over the kernels at block 1. Reverse mode through ``_build``'s
    factors, from a copy of V and from G_s, gives each block unit's overlap
    (``_transfer_overlaps``); the head's come like the tail's, and one
    ``_derivative_dots`` reads every parameter gradient from the overlaps.
    At the encoding, the forward keeps the unit states in the layout of the
    bra before the head, (value qubit, 2, location pairs, rows); each value
    qubit's environment sums every other qubit's state out of the scaled bra,
    one size-2 axis at a time, and each data angle's gradient follows from it
    and the parts in that layout, written once into a data row's order.
    ``program`` and ``compiled`` hold the whole program, encoding first, one
    op per gate, as the gate-list reference, and ``operators`` the
    measurement family; the three are built on first use.
    """

    def __init__(self, config: CircuitConfig):
        self.config = config
        self.layout = layout = make_layout(config)
        self.extraction = build_feature_extraction(config, layout)
        n, g, m, nv = layout.total_qubits, config.grid_log, config.num_blocks, config.value_qubits
        self._built = None  # (parameter values, units, value maps, LWM pairs, transfer matrices) of the last build

        pairs = [(layout.q_l[2 * g - b], layout.q_l[g - b]) for b in range(1, g + 1)]  # (y_b, x_b)
        sectors, kept = layout.q_v[::-1] + layout.q_k[::-1], sum(pairs[m:], ())
        consumed = sum(((layout.q_f[b],) + pairs[b] for b in range(m)), ())
        # the columns' axes, one per qubit (qubit q on axis n - 1 - q) and then the batch, in the state's order,
        # and the halves' over q_f[-1] = n - 1 in phi's: measured bits, then the unmeasured ones
        self._state_axes = tuple(n - 1 - q for q in sectors + consumed + kept) + (n,)
        measured, unmeasured = sectors + kept, tuple(q for q in consumed if q != layout.q_f[-1])
        self._phi_axes = tuple(n - 2 - q for q in measured + unmeasured) + (n - 1,)
        # the operators index their sign bits in measured_qubit_order: feature i is phi's measured row _feature_order[i]
        signs = measured_qubit_order(config, layout)[:-1]
        rows = np.arange(1 << len(signs)).reshape((2,) * len(signs))
        self._feature_order = rows.transpose([measured.index(q) for q in signs]).ravel()
        # superpixel s = (x << g) | y has bit 2g - 1 - j on q_l[j]: the axes of a data row's superpixel bits, value
        # qubit and angle in the encoding's layout, (value qubit, location pairs, block 1's first, row, angle)
        self._unit_axes = (2 * g + 1,) + tuple(1 + layout.q_l.index(q) for q in sum(pairs, ())) + (0, 2 * g + 2)
        # H on each measured bit but q_f[-1], as (low, matrix) factors on at most MAX_BLOCK_QUBITS bits of the
        # feature index each, from bit low up: H on k bits is (-1)^popcount(i & j) / sqrt(2^k)
        w, self._hadamards = len(signs), []
        for low in range(0, w, MAX_BLOCK_QUBITS):
            i = np.arange(1 << min(w - low, MAX_BLOCK_QUBITS))
            self._hadamards.append((low, (-1.0) ** np.bitwise_count(i[:, None] & i) / np.sqrt(len(i))))
        # each value pattern's CZ sign over 2^g, the location Hadamards, and sqrt K, q_k's |+>
        self._encoding_scale = _cz_signs(nv) / (config.grid_size * np.sqrt(config.kernels_per_block))

    @cached_property
    def program(self) -> CircuitProgram:
        return full_program(self.config, self.layout)

    @cached_property
    def compiled(self) -> tuple:
        return sv.compile_program(self.program)

    @cached_property
    def operators(self) -> list:
        return build_measurement_operators(self.config, self.layout)

    @property
    def num_features(self) -> int:
        return self.config.num_feature_values

    def _build(self, params: np.ndarray) -> tuple:
        """Every extraction unit's matrix from one pass over the angles, (units, 2, 2) in program order; the
        head's and the tail's value map factors, q_v[0] on the lowest bit; each block's (M, nv, 4, 4) LWM pairs
        U_x (x) U_y, x_b on the lowest bit (None without the LWM); and each block's (sectors, 8, 4) transfer
        matrices: on the columns sum_s |s>|j>, q_f[b-1] = 0, per value qubit w its LWM pair on (x_b, y_b),
        then on q_f[b-1] its kernel units (kappa, x_b, y_b) in the sectors where they act (``_kernel_sectors``)."""
        nv, kernels = self.config.value_qubits, self.config.kernels_per_block
        units = np.stack(_unit_matrix(params.reshape(-1, 3)), axis=-1).reshape(-1, 2, 2)
        maps = [[(low, _kron_factors(u[low : low + MAX_BLOCK_QUBITS])) for low in range(0, nv, MAX_BLOCK_QUBITS)]
                for u in (units[:nv], units[-nv:])]  # the head's and the tail's unit on q_v[j] are their j-th
        blocks = self._block_units(units)
        pairs = _kron_factors([blocks[:, :, 0], blocks[:, :, 1]]) if self.config.lwm_enabled else None
        transfers, sectors = [], 1 << (nv + self.config.kernel_qubits)
        for b, block in enumerate(self._kernel_units(units)):
            v = np.zeros((sectors << min(b, 1), 2, 4, 4), dtype=np.complex128)  # (sector, q_f[b-1], y_b x_b, j)
            v[:, 0] = np.eye(4)
            for w, kernel in enumerate(block):
                if pairs is not None:
                    v = pairs[b, w] @ v
                x = _kernel_sectors(v, w, nv, kernels)
                x[...] = np.einsum("kxyab,khlbyxc->khlayxc", kernel, x)
            transfers.append(v.reshape(-1, 8, 4))
        return units, maps, pairs, transfers

    def _by_unit(self, data: np.ndarray) -> np.ndarray:
        """Data rows, or their gradients, as a view on the encoding's layout: (value qubit, location pairs, block
        1's first, row, angle)."""
        bits = (2,) * (2 * self.config.grid_log)
        return data.reshape((len(data),) + bits + (self.config.value_qubits, 3)).transpose(self._unit_axes)

    def _block_units(self, a: np.ndarray) -> np.ndarray:
        """The blocks' part of a (units, ...) array in program order, as (M, nv, units per value qubit, ...)."""
        nv = self.config.value_qubits
        return a[nv:-nv].reshape((self.config.num_blocks, nv, -1) + a.shape[1:])

    def _kernel_units(self, units: np.ndarray) -> np.ndarray:
        """The blocks' kernel units as (M, nv, kernel, x_b, y_b, 2, 2)."""
        blocks = self._block_units(units)[:, :, 2 * self.config.lwm_enabled :]
        return blocks.reshape(blocks.shape[:2] + (self.config.kernels_per_block, 2, 2, 2, 2))

    def forward(self, data: np.ndarray, params: np.ndarray):
        """Simulate a batch of data rows; returns (final amplitudes, features,
        cache for ``backward``)."""
        data, params = sv._bind(np.atleast_2d(data), params)
        sv._check_binding(data, self.config.data_arity, "data")
        sv._check_binding(params, self.extraction.param_arity, "params")
        n, nv, rows = self.layout.total_qubits, self.config.value_qubits, len(data)
        # the unit states R_Z R_Y R_X|0>, each unit matrix's first column, as (value qubit, 2, location pairs, rows)
        p, a, b = parts = _unit_parts(self._by_unit(data))
        states = np.empty((nv, 2) + p.shape[1:], dtype=np.complex128)
        np.multiply(p, a, out=states[:, 0])
        np.multiply(np.conjugate(p, out=states[:, 1]), b, out=states[:, 1])
        branch = states[0]
        for k in range(1, nv):  # value qubit k on bit k of the leading axis
            branch = (states[k][:, None] * branch[None]).reshape((-1,) + branch.shape[1:])
        if self._built is None or not np.array_equal(self._built[0], params):
            self._built = (params.copy(),) + self._build(params)  # a copy: adam_step updates the store in place
        _, units, (head, tail), pairs, transfers = self._built
        size, kernels = 1 << nv, self.config.kernels_per_block
        encoded = branch.reshape(1, size, -1) * self._encoding_scale[:, None]
        x = _times_factors(head, encoded, np.empty_like(encoded))
        del encoded, branch
        inputs, shape = [], (size, 1, 1, 1, 1, 4, -1)
        for v in transfers:  # block b's input: (value, kernel, consumed, q_f[b-2], pair b-1, pair b, rest)
            inputs.append(x.reshape(shape))
            x = np.empty((size, kernels) + inputs[-1].shape[2:-2] + (8, inputs[-1].shape[-1]), dtype=np.complex128)
            np.matmul(_arranged(v, kernels, size), inputs[-1], out=x)  # out: C order, which numpy would not pick
            shape = (size, kernels, -1, 2, 4, 4, x.shape[-1] // 4)
        cols = np.empty((1 << n, rows), dtype=np.complex128)
        cols.reshape((2,) * n + (rows,)).transpose(self._state_axes)[...] = x.reshape((2,) * n + (rows,))
        # the tail on the columns' value axis, into the last block's buffer as the returned amplitudes; phi takes
        # over the columns' buffer
        columns = cols.reshape(-1, size, (1 << 2 * self.config.grid_log) * rows)
        psi = _times_factors(tail, columns, x.reshape(columns.shape)).reshape(cols.shape)
        del x
        # H on q_f[-1] makes the upper half (lower - upper) / sqrt 2: phi's lower half holds lower - upper,
        # measured bits first, and its upper half the Hadamards on the other measured bits times it, later the bra
        phi, f, half = cols, self.num_features, len(psi) // 2
        diff, measured = phi.view(np.float64).reshape(2, f, -1)
        lower, upper = (h.reshape((2,) * (n - 1) + (rows,)).transpose(self._phi_axes) for h in (psi[:half], psi[half:]))
        np.subtract(lower, upper, out=diff.view(np.complex128).reshape(lower.shape))
        _times_factors(self._hadamards, diff, measured)
        # the marginals: each row's real and imaginary squares summed over the unmeasured bits, then added;
        # 2^m for the m measured qubits, over the 2 of (1 / sqrt 2)^2 the difference leaves out: 2^(m-1)
        measured = measured.reshape(f, -1, 2 * rows)
        features = f * np.einsum("fuc,fuc->fc", measured, measured).reshape(f, rows, 2).sum(axis=2)
        cache = {"inputs": inputs, "phi": phi, "units": units, "maps": (head, tail), "pairs": pairs,
                 "transfers": transfers, "states": states, "parts": parts}
        return psi.T, features[self._feature_order].T, cache

    def backward(self, cache: dict, params: np.ndarray, cotangents: np.ndarray):
        """Adjoint sweep from the cache of one ``forward``, which it consumes.

        Returns the parameter gradient summed over the batch and the
        per-row gradient with respect to every data slot.
        """
        cotangents = np.atleast_2d(np.asarray(cotangents, dtype=np.float64))
        cfg, phi, f, rows = self.config, cache.pop("phi"), self.num_features, len(cotangents)
        size, kernels = 1 << cfg.value_qubits, cfg.kernels_per_block
        weights = np.empty((f, rows))
        weights[self._feature_order] = f * cotangents.T  # 2^(m-1) c_i, on phi's measured rows
        diff, measured = phi.view(np.float64).reshape(2, f, -1)
        measured.view(np.complex128).reshape(f, -1, rows)[...] *= weights[:, None]
        _times_factors(self._hadamards, measured, measured)
        inputs, transfers, units, pairs = (cache.pop(k) for k in ("inputs", "transfers", "units", "pairs"))
        head, tail = cache.pop("maps")
        overlaps = np.empty(units.shape, dtype=np.complex128)  # each unit's S before it, in program order
        ket, bra = (h.view(np.complex128).reshape(1, size, -1) for h in (diff, measured))
        np.conj(bra, out=bra)  # the bra over q_f[-1] = 0 is beta, and over 1 its negative
        overlaps[-cfg.value_qubits :] = _value_overlaps(tail, bra, ket)
        # conj(T^H beta) = T^T conj(beta), over the difference, then into the state's layout
        bra = _times_factors([(low, u.T) for low, u in tail], bra, ket)
        kept = 1 << 2 * (cfg.grid_log - cfg.num_blocks)
        out = measured.view(np.complex128).reshape(size * kernels, -1, kept, rows)
        out[...] = bra.reshape(size * kernels, kept, -1, rows).swapaxes(1, 2)
        bra = out
        del phi, diff, measured, ket, out
        block_overlaps, kernel_units = self._block_units(overlaps), self._kernel_units(units)
        for b in reversed(range(len(transfers))):
            x, v, last = inputs[b], transfers[b], b == len(transfers) - 1
            bra = bra.reshape((size, kernels) + x.shape[2:-2] + (-1, x.shape[-1]))
            # conj(G_s) = conj(Bra_s) X_s^T, summed over the consumed bits and pair b-1, which V does not read,
            # written in V's sector order; the last block's bra is (beta, -beta) over q_f[b]
            g = np.empty_like(v)
            half = _arranged(g, kernels, size)[..., : 4 if last else 8, :]
            np.matmul(bra, x.swapaxes(-1, -2)).sum(axis=(2, 4), keepdims=True, out=half)
            if last:
                np.negative(half, out=_arranged(g, kernels, size)[..., 4:, :])
            _transfer_overlaps(v, g, None if pairs is None else pairs[b], kernel_units[b], block_overlaps[b])
            del g
            w = _arranged(v, kernels, size)
            if last:  # V_0 - V_1 on beta
                w = w[..., :4, :] - w[..., 4:, :]
            if b:  # conj(V^H Bra) = V^T conj(Bra), over the block's input
                bra = np.matmul(w.swapaxes(-1, -2), bra, out=inputs.pop())
            else:  # summed over the kernels, which share block 1's input
                wt = w.reshape(size, kernels, -1, 4).transpose(0, 3, 1, 2).reshape(size, 4, -1)
                bra = np.matmul(wt, bra.reshape(size, -1, x.shape[-1]))
        x = inputs.pop().reshape(1, size, -1)  # block 1's input, the head's output
        bra = bra.reshape(x.shape)
        overlaps[: cfg.value_qubits] = _value_overlaps(head, bra, x)
        generators = _unit_generators(params[::3], units)
        param_grads = sv._derivative_dots(generators, overlaps).ravel()
        bra = _times_factors([(low, u.T) for low, u in head], bra, x)
        # bra is now the conjugate cotangent state before the head, (value, location pairs, rows) as the branches;
        # with the encoding's scale, each data angle's gradient is 2 Re <bra| d(encoded state)/d angle>, and only
        # its superpixel's branch depends on it: per value qubit its environment, every other value qubit's unit
        # state summed out of the branch, one size-2 axis at a time on the unit states in the same layout
        nv, states, (p, a, b) = cfg.value_qubits, cache["states"], cache["parts"]
        x, units = bra.reshape(size, -1) * self._encoding_scale[:, None], states.reshape(nv, 2, -1)
        env = np.empty(states.shape, dtype=np.complex128)
        for n in range(nv):
            y = x
            for m in reversed(range(nv)):  # from the top, so that qubit m is on bit m of what is left
                if m != n:
                    y = y.reshape(-1, 2, 1 << m, y.shape[-1])
                    y = y[:, 0] * units[m, 0] + y[:, 1] * units[m, 1]
            env[n] = y.reshape(env.shape[1:])
        # 2 Re <env| d(R_Z u)/d angle> for u = R_Y R_X|0> = (a, b): in the RX angle du = i conj(b, -a)/2, in RY's
        # du = (-b, a)/2, and R_Z's generator -iZ/2 commutes with it, so in RZ's d(R_Z u) = R_Z (-i)(a, -b)/2
        e0, e1 = env[:, 0] * p, env[:, 1] * np.conj(p)
        data_grads = np.empty((rows, cfg.data_arity))
        rx, ry, rz = np.moveaxis(self._by_unit(data_grads), -1, 0)
        rx[...] = np.imag(e1 * np.conj(a) - e0 * np.conj(b))
        ry[...] = np.real(e1 * a - e0 * b)
        rz[...] = np.imag(e0 * a - e1 * b)
        return param_grads, data_grads


def _unit_parts(angles: np.ndarray) -> tuple:
    """The parts (p, a, b) of R_Z R_Y R_X for units' RX, RY, RZ angles (..., 3), each of shape (...):
    R_Z = diag(p, conj(p)), R_Y R_X|0> = (a, b). Each half angle's cosine and sine are (1 - t^2) / (1 + t^2) and
    2t / (1 + t^2) for t = tan(angle / 4): a tangent costs a fraction of a cosine and a sine, and at its poles,
    angle = 2 pi (2k + 1), t ~ 1e16 still gives -1 and ~1e-16."""
    t = np.tan(np.multiply(angles.reshape(-1, 3), 0.25))
    r = np.multiply(t, t)
    np.divide(2.0, np.add(r, 1.0, out=r), out=r)  # 2 / (1 + t^2) = 1 + cos
    (sa, sb, sc), (ca, cb, cc) = np.multiply(t, r, out=t).T, np.subtract(r, 1.0, out=r).T
    parts = np.empty((3, len(t), 2))  # p, a, b as (real, imaginary) pairs
    (p_re, a_re, b_re), (p_im, a_im, b_im) = parts[..., 0], parts[..., 1]
    np.copyto(p_re, cc)
    np.negative(sc, out=p_im)
    np.multiply(cb, ca, out=a_re)
    np.multiply(sb, sa, out=a_im)
    np.multiply(sb, ca, out=b_re)
    np.negative(np.multiply(cb, sa, out=b_im), out=b_im)
    return tuple(parts.view(np.complex128).reshape((3,) + angles.shape[:-1]))


def _unit_matrix(angles: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of R_Z R_Y R_X, assembled from ``_unit_parts``."""
    p, a, b = _unit_parts(angles)
    return p * a, -p * np.conj(b), np.conj(p) * b, np.conj(p * a)


def _unit_generators(rx_angles: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (units, 3, 2, 2) generators of units U = R_Z R_Y R_X with matrices ``u`` moved before them, U G' being
    U's derivative in each angle: G_X, R_X^dag G_Y R_X and U^dag G_Z U (R_Z commutes with Z)."""
    rx = np.reshape(sv._rotation("RX", rx_angles), (2, 2, -1)).transpose(2, 0, 1)
    moved = [np.conj(v).swapaxes(1, 2) @ sv._MATRICES[kind] @ v for v, kind in ((rx, "RY"), (u, "RZ"))]
    return np.stack([np.broadcast_to(sv._MATRICES["RX"], u.shape)] + moved, axis=1)


def _value_overlaps(maps, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """The (nv, 2, 2) overlaps before the head's or the tail's units on q_v[0], q_v[1], ..., from the bra's
    conjugate ``bra`` and the ket after their value map, both (1, 2^nv, inner): per factor U the overlap of its
    qubits S = sum conj(the bra) ket^T, U^T S conj(U) before it, and its partial trace on each unit's qubit."""
    overlaps = []
    for low, u in maps:
        shape = (-1, len(u), bra.shape[-1] << low)
        s = u.T @ np.matmul(bra.reshape(shape), ket.reshape(shape).swapaxes(1, 2)).sum(axis=0) @ np.conj(u)
        k = len(u).bit_length() - 1
        overlaps += [np.einsum("xiyxjy->ij", s.reshape(2 * (1 << (k - 1 - j), 2, 1 << j))) for j in range(k)]
    return np.array(overlaps)


def _kernel_sectors(v: np.ndarray, w: int, nv: int, kernels: int) -> np.ndarray:
    """The view of a block's transfer matrices, (sectors, 8, 4) in any shape, on the sectors where value qubit
    w's kernel units act, q_v[w] = 1 and (after block 1) q_f[b-2] = 1: (kernel, value bits above w, value bits
    below w, q_f[b-1], y_b, x_b, column)."""
    return v.reshape(-1, kernels, 1 << (nv - 1 - w), 2, 1 << w, 2, 2, 2, 4)[-1, :, :, 1]


def _transfer_overlaps(v: np.ndarray, bra: np.ndarray, pairs, kernels: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out``, (nv, units per value qubit, 2, 2), the overlap S = sum conj(Bra) ket^T before each of
    a block's units, from its (sectors, 8, 4) transfer matrices ``v`` and the conjugate ``bra`` of G_s, in V's
    shape, which it overwrites: reverse mode through ``_build``'s factors, each un-applied by its conjugate
    transpose from a copy of V and, conjugated, from the bra, each kernel unit's overlap summed over the sectors
    that share it."""
    ket, nv, lwm = v.reshape(-1, 2, 4, 4).copy(), len(kernels), 2 * (pairs is not None)
    bra = bra.reshape(ket.shape)
    for w in reversed(range(nv)):
        k, b = (_kernel_sectors(a, w, nv, len(kernels[w])) for a in (ket, bra))
        k[...] = np.einsum("kxyba,khlbyxc->khlayxc", np.conj(kernels[w]), k)
        b[...] = np.einsum("kxyba,khlbyxc->khlayxc", kernels[w], b)  # conj(U^H Bra) = U^T conj(Bra)
        out[w, lwm:] = np.einsum("khliyxc,khljyxc->kxyij", b, k).reshape(-1, 2, 2)
        if lwm:
            ket[...] = np.conj(pairs[w]).T @ ket
            bra[...] = pairs[w].T @ bra
            s = np.einsum("sfic,sfjc->ij", bra, ket).reshape(2, 2, 2, 2)  # (y_b, x_b) of the bra's, then the ket's
            out[w, 0], out[w, 1] = np.einsum("yiyj->ij", s), np.einsum("ixjx->ij", s)


def _arranged(v: np.ndarray, kernels: int, size: int) -> np.ndarray:
    """A block's (sectors, 8, 4) transfer matrices, sector (q_f[b-2], q_k, q_v) from the highest bit, on the
    axes of its input: (value, kernel, 1, q_f[b-2], 1, 8, 4)."""
    return v.reshape(-1, kernels, size, 8, 4).transpose(2, 1, 0, 3, 4)[:, :, None, :, None]


def _kron_factors(factors) -> np.ndarray:
    """Kronecker product of (..., 2, 2) matrices, the first on the least significant index bit, by broadcast
    outer products over the leading axes."""
    m = np.ones((1, 1))
    for u in factors:
        m = (u[..., :, None, :, None] * m[..., None, :, None, :]).reshape(u.shape[:-2] + (2 * m.shape[-1],) * 2)
    return m


def _times_factors(factors, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = the Kronecker product of ``factors``, (low, matrix) pairs on the bits of the middle index from bit
    low up, times ``x``, both (outer, index, inner) or (index, inner) and C-contiguous: one batched GEMM per factor,
    the first from ``x``, the rest in place; returns ``out``."""
    for low, m in factors:
        shape = (-1, len(m), x.shape[-1] << low)
        np.matmul(m, x.reshape(shape), out=out.reshape(shape))
        x = out
    return out


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
    ev = get_evaluator(config)
    _, features, _ = ev.forward(processed_image.reshape(1, -1), np.asarray(quantum_params, dtype=np.float64))
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


def resource_report(config: CircuitConfig) -> ResourceReport:
    """Resource counts from their closed forms; no fragment is built (the
    tests check every count against the built fragments)."""
    g, e = config.grid_log, config.features_per_superpixel
    m, k = config.num_blocks, config.kernels_per_block
    grid = config.grid_size**2
    units = (4 * m * k * e + 2 * e) // 3 + (2 * m * e // 3 if config.lwm_enabled else 0)
    return ResourceReport(
        encoding_qubits=2 * g + e // 3,
        encoding_gate_units=grid * e // 3,
        encoding_hadamards=2 * g,
        encoding_cz=grid * e * (e - 3) // 18,
        extraction_qubits=m + config.kernel_qubits,
        extraction_gate_units=units,
        extraction_hadamards=config.kernel_qubits,
        trainable_quantum_params=3 * units,
        total_qubits=2 * g + e // 3 + m + config.kernel_qubits,
        measurement_operators=config.num_feature_values,
    )
