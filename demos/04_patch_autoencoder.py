"""The auxiliary reconstruction task: patches in, bounded angles out.

One shared encoder maps every PxPxC patch to E features in [0, pi] (rotation
angles are periodic, so the head is pi*sigmoid); the decoder mirrors it back
to a patch in [0, 1]. Training the reconstruction alongside classification is
what lets a handful of features stand in for the whole patch.

Every array keeps the patch axis last: ``patchify`` gives (P, P, C, S, S),
the encoder takes (P, P, C, patches) and returns (E, patches), so each layer
runs as one wide matrix product over all patches at once.

Run:  python demos/04_patch_autoencoder.py
"""

import numpy as np

from quanvnet.autoencoder import PatchAutoencoder, patchify, reconstruction_loss, unpatchify

rng = np.random.default_rng(3)
image = rng.uniform(0, 1, (32, 32, 4))

grid = patchify(image, 4)
print(f"32x32x4 image -> {grid.shape[3]}x{grid.shape[4]} grid of {grid.shape[0]}x{grid.shape[1]}x{grid.shape[2]} patches")
print("tiling is lossless:", np.array_equal(unpatchify(grid), image))

ae = PatchAutoencoder(patch=4, channels=4, num_features=9)
print(f"\nautoencoder has {ae.num_params} parameters "
      f"(encoder {ae.encoder_slice.stop}, decoder {ae.num_params - ae.encoder_slice.stop})")

params = ae.init_params(rng)
patches = grid.reshape(4, 4, 4, -1)  # one patch per column
features, _ = ae.encode(params, patches)
print(f"features: shape {features.shape}, range [{features.min():.3f}, {features.max():.3f}] in [0, pi]")

recon, _ = ae.decode(params, features)
print(f"reconstructions: range [{recon.min():.3f}, {recon.max():.3f}] in [0, 1]")
print(f"untrained reconstruction error: {reconstruction_loss(patches, recon):.4f}")

# at the all-zero parameter point the heads sit exactly at their midpoints
zero = np.zeros(ae.num_params)
print("\nzero-parameter encoder output is pi/2 everywhere:",
      np.allclose(ae.encode_patch(zero, patches[..., 0]), np.pi / 2))
print("zero-parameter decoder output is 0.5 everywhere:  ",
      np.allclose(ae.decode_patch(zero, np.zeros(9)), 0.5))

# a few steepest-descent steps on one batch shrink the loss
step = 2.0 / patches.size
for it in range(30):
    feats, enc_cache = ae.encode(params, patches)
    recon, dec_cache = ae.decode(params, feats)
    dec_grads, dfeats = ae.decode_backward(params, dec_cache, step * (recon - patches))
    enc_grads = ae.encode_backward(params, enc_cache, dfeats)
    params -= 5.0 * (dec_grads + enc_grads)
recon, _ = ae.decode(params, ae.encode(params, patches)[0])
print(f"\nafter 30 gradient steps: reconstruction error {reconstruction_loss(patches, recon):.4f}")
