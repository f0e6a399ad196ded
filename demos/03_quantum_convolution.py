"""Quantum convolution blocks, the location weight module, and measurement.

Each block convolves the location superposition with a 2x2, stride-2 kernel:
trainable gate units write into a feature-map qubit under control patterns
(x_b, y_b) in {00, 01, 10, 11} -- the four kernel weights -- plus the value
qubit and the kernel-register index. The location weight module (LWM) adds
trainable units on the control qubits themselves.

Run:  python demos/03_quantum_convolution.py
"""

import numpy as np

from quanvnet import circuits

config = circuits.CircuitConfig(grid_log=2, features_per_superpixel=3,
                                num_blocks=2, kernels_per_block=2, lwm_enabled=True)
layout = circuits.make_layout(config)
extraction = circuits.build_feature_extraction(config, layout)
print(f"{config.num_blocks} blocks, {config.kernels_per_block} kernels: "
      f"{extraction.param_arity} trainable angles")

no_lwm = circuits.build_feature_extraction(
    circuits.CircuitConfig(2, 3, 2, 2, lwm_enabled=False), layout
)
print(f"without the location weight module: {no_lwm.param_arity} angles "
      f"({extraction.param_arity - no_lwm.param_arity} fewer)")

# block 2 kernels are chained on block 1's feature qubit
chained = [i for i in extraction.instructions if i.target == layout.q_f[1]]
print(f"\nblock-2 kernel units carry the block-1 feature control: "
      f"{(layout.q_f[0], 1) in chained[0].controls}")

# the measurement family: products of (I +/- X) on the surviving map
# coordinates, value, kernel register, and the last feature qubit (fixed '-')
ops = circuits.build_measurement_operators(config, layout)
print(f"\n{len(ops)} measurement operators over qubits {ops[0].measured_qubits}")
for i in range(len(ops)):
    print(f"operator {i} signs:", ops[i].signs)

# end to end: features of a random processed image
rng = np.random.default_rng(0)
processed = rng.uniform(0, np.pi, (4, 4, 3))
params = rng.uniform(0, 2 * np.pi, extraction.param_arity)
features = circuits.quantum_forward(config, processed, params)
print(f"\nfeature vector ({features.size} expectations, each in [0, {2 ** len(ops[0].measured_qubits)}]):")
print(np.round(features, 4))

# gradients through the whole circuit via the adjoint sweep
ev = circuits.get_evaluator(config)
cot = rng.normal(size=ev.num_features)
_, _, cache = ev.forward(processed.reshape(1, -1), params)
grads, _ = ev.backward(cache, params, cot[None])
print(f"\nadjoint gradient over all {grads.size} angles: "
      f"|g| max {np.abs(grads).max():.4f}, mean {np.abs(grads).mean():.4f}")
