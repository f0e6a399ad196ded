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
    """Compiled end-to-end evaluator for a fixed config.

    The encoding fragment is built in closed form. After the location
    Hadamards, the branch of superpixel s = (x << g) | y holds the product of
    its value qubits' R_Z R_Y R_X|0> states times the all-pairs CZ sign
    (-1)^(k(k-1)/2) for Hamming weight k, at amplitude 1/2^g; its data-angle
    gradients follow from the same product and the cotangent state at the
    encoding boundary. Only the ``extraction`` fragment runs as compiled ops,
    each run of uncontrolled units (head, LWM pair, tail) as one dense block
    and each block's kernel units for one value qubit as one multiplexor: 67
    ops become 14 on the canonical circuit.

    Convolution block b's ops act on x_b, y_b and q_f[b-1] (|0> before them)
    under controls q_v, q_k and q_f[b-2] only, so per sector s, a pattern of
    those controls, the block is one 8 x 4 matrix V_s, the same for every row
    and every pattern of the other qubits. ``_build`` binds the ops and runs
    each block's, compiled on a layout with its qubits and its sector's
    lowest, on a (sectors * 8, 4) stack whose column j is sum_s |s>|j>, which
    leaves V there; ``forward`` rebuilds only when the parameter values
    change. The states are the columns of one (2^n, batch) array: the head
    runs on the 2^q_f[0] leading rows the encoding fills, each block maps its
    input rows to twice as many by one batched GEMM between a gather and a
    scatter through its row table in ``_blocks``, and the tail runs on all
    rows. ``forward`` returns the states as the (batch, 2^n) transpose of the
    columns, the features (marginals of the measured state, the upper half
    after the Hadamards) and a cache: the columns, phi (the measured state
    in its upper half), the bound ops and V, and the unit states with their
    parts. ``backward`` consumes it, in place on the leading rows, so the
    returned states last until then: it weights the measured state, takes
    it back through the Hadamards into phi as its bra and un-applies the
    tail; per block in reverse, V^H takes ket and bra back to its input
    rows, and one un-apply of its ops on a copy of V, with G_s = Bra_s X_s^H
    as the bra, gives its parameter gradients; then it un-applies the head
    and forms all data-angle derivatives at once from the parts.
    ``program`` and ``compiled`` hold the whole program, encoding first,
    unfused, as the per-unit gate-list reference, and ``operators`` the
    measurement family; the three are built on first use.

    The measurement family of this circuit is diagonal after a Hadamard on
    every measured qubit: (I + sX)/2 = H |(1-s)/2><(1-s)/2| H, so features
    are 2^m times marginals of the measured state: the upper half after H on
    q_f[-1], the top qubit, (lower - upper) / sqrt 2, then H on the other
    m - 1 measured bits, which ``_hadamard`` applies to the float64 view of
    lower - upper, measured bits first, as one real GEMM per dense factor
    of at most 6 bits (one 64 x 64 factor on the canonical circuit). The bra
    sum_i c_i M_i |psi> is the same Hadamards on the weighted measured state
    in the lower half and its negative in the upper half, written over phi,
    so that no step allocates a stack for it.
    """

    def __init__(self, config: CircuitConfig):
        self.config = config
        self.layout = layout = make_layout(config)
        self.extraction = build_feature_extraction(config, layout)
        n, g = layout.total_qubits, config.grid_log
        compiled = sv.compile_program(self.extraction)
        # block b's ops target its own qubits x_b, y_b and q_f[b-1]; the head before them and the tail after them
        # act on q_v and q_k alone
        own = [(layout.q_l[g - b], layout.q_l[2 * g - b], layout.q_f[b - 1]) for b in range(1, config.num_blocks + 1)]
        labels = [next((b for b, qubits in enumerate(own) if op.target in qubits), None) for op in compiled]
        bounds = [labels.index(b) for b in range(len(own))] + [len(labels) - labels[::-1].index(len(own) - 1)]
        ops, blocks = _fused(compiled[: bounds[0]]), []
        self._head = slice(len(ops))
        for b, qubits in enumerate(own):
            # construction qubits 0, 1, 2 are x_b, y_b, q_f[b-1], then the sector: q_v, q_k and q_f[b-2]
            low = qubits + layout.q_v + layout.q_k + layout.q_f[max(b - 1, 0) : b]
            order = low + tuple(q for q in range(n) if q not in low)  # the layout with ``low`` moved to 0, 1, ...
            moved = [tuple(map(order.index, reg)) for reg in (layout.q_l, layout.q_v, layout.q_k, layout.q_f)]
            reordered = sv.compile_program(build_feature_extraction(config, RegisterLayout(*moved)))
            block = _fused(reordered[bounds[b] : bounds[b + 1]])
            # data rows, as (sector, output, other qubits below q_f[b-1]); the first 4 outputs are the inputs
            rest = tuple(q for q in range(qubits[2]) if q not in low)
            rows = sv.basis_indices(low[::-1])[:, None] | sv.basis_indices(rest)[None, :]
            blocks.append((slice(len(ops), len(ops) + len(block)), rows.reshape(-1, 8, 1 << len(rest))))
            ops += block
        self._tail = slice(len(ops), None)
        self._ops, self._blocks = ops + _fused(compiled[bounds[-1] :]), tuple(blocks)
        self._built = None  # (parameter values, bound ops, transfer matrices) of the last build

        order = measured_qubit_order(config, layout)
        rest = tuple(q for q in range(n) if q not in order)
        # a stack's axes, one per qubit and then the batch, in the features' order: q_f[-1], order[:-1], rest
        self._axes = tuple(n - 1 - q for q in order[-1:] + order[:-1] + rest) + (n,)
        # H on each measured bit but q_f[-1], as (low, matrix) factors on at most MAX_BLOCK_QUBITS bits of the
        # feature index each, from bit low up: H on k bits is (-1)^popcount(i & j) / sqrt(2^k)
        w, self._hadamards = len(order) - 1, []
        for low in range(0, w, sv.MAX_BLOCK_QUBITS):
            i = np.arange(1 << min(w - low, sv.MAX_BLOCK_QUBITS))
            self._hadamards.append((low, (-1.0) ** np.bitwise_count(i[:, None] & i) / np.sqrt(len(i))))
        # Row s lists superpixel s's amplitudes of the encoded state, column
        # bit j on value qubit j; the scale is each column's CZ sign / 2^g.
        self._encoding_table = sv.basis_indices(layout.q_l)[:, None] | sv.basis_indices(layout.q_v[::-1])[None, :]
        self._encoding_scale = _cz_signs(config.value_qubits) / config.grid_size

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
        """The ops bound for ``params`` and each block's (sectors, 8, 4)
        transfer matrices: its ops run on the columns sum_s |s>|j>, q_f[b-1] = 0."""
        ops, transfers = sv.bind_params(self._ops, params), []
        for part, rows in self._blocks:
            v = np.zeros((len(rows), 8, 4), dtype=np.complex128)
            v[:, :4] = np.eye(4)
            sv.run_compiled(ops[part], v.reshape(-1, 4).T)
            transfers.append(v)
        return ops, transfers

    def forward(self, data: np.ndarray, params: np.ndarray):
        """Simulate a batch of data rows; returns (final amplitudes, features,
        cache for ``backward``)."""
        data, params = sv._bind(np.atleast_2d(data), params)
        sv._check_binding(data, self.config.data_arity, "data")
        sv._check_binding(params, self.extraction.param_arity, "params")
        nv = self.config.value_qubits
        p, a, b = parts = sv._unit_parts(data.reshape(len(data), -1, nv, 3))  # (row, superpixel, value qubit)
        states = np.array([p * a, np.conj(p) * b])  # R_Z R_Y R_X|0>, each unit matrix's first column
        branch = states[..., 0]
        for n in range(1, nv):  # value qubit n on bit n of the leading axis
            branch = (states[:, None, ..., n] * branch[None]).reshape((-1,) + branch.shape[1:])
        if self._built is None or not np.array_equal(self._built[0], params):
            self._built = (params.copy(),) + self._build(params)  # a copy: adam_step updates the store in place
        _, ops, transfers = self._built
        cols = np.empty((1 << self.layout.total_qubits, len(data)), dtype=np.complex128)
        head = cols[: 1 << self.layout.q_f[0]]  # every qubit above is |0> until block 1 writes it
        head[...] = 0
        head[self._encoding_table] = branch.transpose(2, 0, 1) * self._encoding_scale[:, None]
        sv.run_compiled(ops[self._head], head.T)
        for (_, rows), v in zip(self._blocks, transfers):  # block b: its rows with q_f[b-1] = 0 to all its rows
            cols[rows] = (v @ cols[rows[:, :4]].reshape(len(v), 4, -1)).reshape(rows.shape + (-1,))
        sv.run_compiled(ops[self._tail], cols.T)
        # H on q_f[-1] makes the upper half (lower - upper) / sqrt 2: phi's lower half holds lower - upper,
        # measured bits first, and its upper half the Hadamards on the other measured bits times it, later the bra
        (lower, upper), phi = self._halves(cols), np.empty_like(cols)
        diff, measured = phi.view(np.float64).reshape(2, self.num_features, -1)
        np.subtract(lower, upper, out=diff.view(np.complex128).reshape(lower.shape))
        self._hadamard(diff, measured)
        measured = measured.view(np.complex128)
        probs = (measured.real**2 + measured.imag**2).reshape(self.num_features, -1, len(data))
        # 2^m for the m measured qubits, over the 2 of (1 / sqrt 2)^2 the difference leaves out: 2^(m-1)
        features = self.num_features * probs.sum(axis=1)
        cache = {"cols": cols, "phi": phi, "ops": ops, "transfers": transfers, "states": states, "parts": parts}
        return cols.T, features.T, cache

    def backward(self, cache: dict, params: np.ndarray, cotangents: np.ndarray):
        """Adjoint sweep from the cache of one ``forward``, which it consumes.

        Returns the parameter gradient summed over the batch and the
        per-row gradient with respect to every data slot.
        """
        cotangents = np.atleast_2d(np.asarray(cotangents, dtype=np.float64))
        ket, bra, f = cache.pop("cols"), cache.pop("phi"), self.num_features
        bra[len(bra) // 2 :].reshape(f, -1, len(cotangents))[...] *= f * cotangents.T[:, None]  # 2^(m-1) c_i
        (lower, upper), measured = self._halves(bra), bra.view(np.float64).reshape(2, f, -1)[1]
        self._hadamard(measured, measured)
        lower[...] = measured.view(np.complex128).reshape(lower.shape)
        np.negative(lower, out=upper)
        ops, transfers, arity = cache.pop("ops"), cache.pop("transfers"), len(params)
        param_grads = sv.unapply_compiled(ops[self._tail], ket.T, bra.T, None, params, arity)[0]
        for (part, rows), v in zip(reversed(self._blocks), reversed(transfers)):
            vh, inputs = np.conj(v).swapaxes(1, 2), rows[:, :4]  # V^H un-applies the block on its image
            x = vh @ ket[rows].reshape(len(v), 8, -1)
            ket[inputs] = x.reshape(inputs.shape + (-1,))
            out = bra[rows].reshape(len(v), 8, -1)
            g = out @ np.conj(x, out=x).swapaxes(1, 2)  # G_s = Bra_s X_s^H, the bra of V's columns
            del x  # half a stack at the last block: free it before V^H Bra is made
            bra[inputs] = (vh @ out).reshape(inputs.shape + (-1,))
            del out
            param_grads += sv.unapply_compiled(ops[part], v.copy().reshape(-1, 4).T, g.reshape(-1, 4).T, None,
                                               params, arity)[0]
        width = 1 << self.layout.q_f[0]
        param_grads += sv.unapply_compiled(ops[self._head], ket[:width].T, bra[:width].T, None, params, arity)[0]
        # bra is now the cotangent state at the encoding boundary; each data
        # angle's gradient is 2 Re <bra| d(encoded state)/d angle>, and only
        # its superpixel's branch depends on it.
        nv = self.config.value_qubits
        states, (p, a, b) = cache["states"], cache["parts"]
        conj = np.conj(bra[self._encoding_table].transpose(2, 0, 1)) * self._encoding_scale
        conj = conj.reshape(conj.shape[:2] + (2,) * nv)  # axis 1 + nv - n holds value qubit n
        env = np.empty(states.shape, dtype=np.complex128)
        for n in range(nv):  # contract every other value qubit's state out of the branch
            others = [op for m in range(nv) if m != n for op in (states[..., m], [1 + nv - m, 0, 1])]
            env[..., n] = np.einsum(conj, [0, 1, *range(2, 2 + nv)], *others, [1 + nv - n, 0, 1])
        # 2 Re <env| d(R_Z u)/d angle> for u = R_Y R_X|0> = (a, b): in the RX angle du = i conj(b, -a)/2, in RY's
        # du = (-b, a)/2, and R_Z's generator -iZ/2 commutes with it, so in RZ's d(R_Z u) = R_Z (-i)(a, -b)/2
        e0, e1 = env[0] * p, env[1] * np.conj(p)
        grads = [np.imag(e1 * np.conj(a) - e0 * np.conj(b)), np.real(e1 * a - e0 * b), np.imag(e0 * a - e1 * b)]
        return param_grads, np.stack(grads, -1).reshape(len(p), -1)

    def _hadamard(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out`` = the Hadamards on the measured bits but q_f[-1] times ``x``, each (features, columns)
        float64 and ``out`` C-contiguous: one batched GEMM per factor, the first from ``x``, the rest in place."""
        for low, h in self._hadamards:
            shape = (-1, len(h), x.shape[1] << low)
            np.matmul(h, x.reshape(shape), out=out.reshape(shape))
            x = out

    def _halves(self, stack: np.ndarray) -> np.ndarray:
        """A (2^n, batch) stack, one axis per qubit in ``_axes`` order: its q_f[-1] = 0 and 1 halves."""
        return stack.reshape((2,) * (len(self._axes) - 1) + (-1,)).transpose(self._axes)


def _fused(ops) -> tuple:
    """``ops`` with each layer of uncontrolled units as a block and each kernel group as a multiplexor."""
    return sv.fuse_multiplexors(sv.fuse_layers(tuple(ops)))


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
