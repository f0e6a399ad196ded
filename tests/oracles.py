"""Independent reference implementations used only to check the fast paths.

Everything here is built from first principles (explicit 2x2 matrices,
Kronecker products, central differences) and deliberately shares no code with
the package kernels.
"""

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def rotation_matrix(kind, theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "RZ":
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=np.complex128)
    raise ValueError(kind)


def single_qubit_matrix(kind, theta=None):
    if kind == "H":
        return H2
    if kind == "X":
        return X2
    if kind == "Z":
        return Z2
    return rotation_matrix(kind, theta)


def kron_all(factors):
    """Kronecker product with qubit 0 as the least-significant index bit."""
    out = np.eye(1, dtype=np.complex128)
    for f in factors:  # factors listed qubit 0 first
        out = np.kron(f, out)
    return out


def resolve_angle_for_test(instr, data, params):
    if instr.angle is None:
        return None
    tag, slot = instr.angle
    if tag == "const":
        return slot
    return data[slot] if tag == "data" else params[slot]


def dense_gate_matrix(num_qubits, instr, data=None, params=None):
    """Full 2^n x 2^n matrix of one (controlled) gate, built from projectors."""
    theta = resolve_angle_for_test(instr, data, params)
    u = single_qubit_matrix(instr.kind, theta)
    proj = {0: np.array([[1, 0], [0, 0]], dtype=np.complex128),
            1: np.array([[0, 0], [0, 1]], dtype=np.complex128)}
    ctrl = dict(instr.controls)
    with_u = []
    with_i = []
    for q in range(num_qubits):
        if q == instr.target:
            with_u.append(u)
            with_i.append(I2)
        elif q in ctrl:
            with_u.append(proj[ctrl[q]])
            with_i.append(proj[ctrl[q]])
        else:
            with_u.append(I2)
            with_i.append(I2)
    dim = 1 << num_qubits
    return np.eye(dim, dtype=np.complex128) - kron_all(with_i) + kron_all(with_u)


def dense_program_state(program, data=None, params=None):
    """|psi> as an explicit chain of dense matrix-vector products."""
    dim = 1 << program.num_qubits
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    for instr in program.instructions:
        psi = dense_gate_matrix(program.num_qubits, instr, data, params) @ psi
    return psi


def dense_operator_matrix(num_qubits, op):
    """Full matrix of a product-of-(I +/- X) measurement operator."""
    factors = [I2] * num_qubits
    for q, sign in zip(op.measured_qubits, op.signs):
        factors[q] = I2 + sign * X2
    return kron_all(factors)


def dense_expectation(num_qubits, psi, op):
    return float(np.real(psi.conj() @ dense_operator_matrix(num_qubits, op) @ psi))


def encoding_state_oracle(g, e, q_l, q_v, total_qubits, processed):
    """Closed-form amplitudes of the encoded state, built directly from the
    per-qubit rotation product, the all-pairs CZ sign rule, and the uniform
    location superposition -- no circuit simulation involved."""
    nv = e // 3
    psi = np.zeros(1 << total_qubits, dtype=np.complex128)
    size = 1 << g
    zero = np.array([1, 0], dtype=np.complex128)
    for x in range(size):
        for y in range(size):
            qubit_states = []
            for n in range(nv):
                th = processed[x, y, 3 * n : 3 * n + 3]
                vec = rotation_matrix("RZ", th[2]) @ rotation_matrix("RY", th[1]) @ rotation_matrix("RX", th[0]) @ zero
                qubit_states.append(vec)
            loc_bits = 0
            for j in range(g):
                loc_bits |= ((x >> (g - 1 - j)) & 1) << q_l[j]
                loc_bits |= ((y >> (g - 1 - j)) & 1) << q_l[g + j]
            for bits in range(1 << nv):
                amp = 1.0 + 0.0j
                pop = 0
                for n in range(nv):
                    b = (bits >> n) & 1
                    pop += b
                    amp *= qubit_states[n][b]
                amp *= (-1) ** (pop * (pop - 1) // 2)  # one flip per qubit pair both set
                idx = loc_bits
                for n in range(nv):
                    idx |= ((bits >> n) & 1) << q_v[n]
                psi[idx] = amp / size
    return psi


def central_differences(f, x, eps=1e-4):
    """Componentwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def shift_gradient(f, x, slots):
    """Derivative of a scalar function in each flat entry ``slots`` of ``x``
    by the four-term shift rule, from forward evaluations alone:
    f' = d1 [f(t + pi/2) - f(t - pi/2)] - d2 [f(t + 3pi/2) - f(t - 3pi/2)],
    d1 = (sqrt2 + 1) / (4 sqrt2), d2 = (sqrt2 - 1) / (4 sqrt2). It is exact
    when the entry is the angle of one rotation exp(-i t A / 2), controlled
    or not, whose generator has eigenvalues in {0, +-1/2}: the loss is then
    a trigonometric polynomial in t with frequencies 0, 1/2 and 1 (Wierichs
    et al. 2022, arXiv:2107.12390)."""
    x = np.asarray(x, dtype=np.float64)
    d1, d2 = (np.sqrt(2) + 1) / (4 * np.sqrt(2)), (np.sqrt(2) - 1) / (4 * np.sqrt(2))

    def shifted(slot, delta):
        moved = x.copy()
        moved.flat[slot] += delta
        return f(moved)

    return np.array([
        d1 * (shifted(i, np.pi / 2) - shifted(i, -np.pi / 2)) - d2 * (shifted(i, 1.5 * np.pi) - shifted(i, -1.5 * np.pi))
        for i in slots
    ])


def relative_error(a, b):
    """Max componentwise |a-b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))
