"""Patch autoencoder for the auxiliary reconstruction task.

One shared encoder/decoder pair is applied independently to every patch
(superpixel) of every image. The encoder halves the spatial size with
conv/ReLU/max-pool blocks until it reaches 2x2, then maps to E features
through a bounded head ``pi * sigmoid`` -- rotation angles are periodic, so
the features must live in [0, pi]. The decoder mirrors this with stride-2
transposed convolutions and a logistic output head in [0, 1].

All passes are plain numpy with the patch axis last -- patches (P, P, C, B),
features (E, B) -- so each layer is one wide GEMM or one pass over all B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIDDEN_CHANNELS = 4


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Split (..., N, N, C) into (P, P, C, ..., N/P, N/P): a grid of PxPxC patches, patch axes first.

    Patch (x, y) of image i is ``[:, :, :, i, x, y]`` and holds image rows [xP, (x+1)P) and cols
    [yP, (y+1)P); any leading axes (a batch of images) are kept in front of the grid. Requires an
    exact power-of-two tiling.
    """
    image = np.asarray(image)
    if image.ndim < 3 or image.shape[-3] != image.shape[-2]:
        raise ValueError("image must be square with shape (..., N, N, channels)")
    n = image.shape[-3]
    if patch < 1 or n % patch != 0:
        raise ValueError(f"image size {n} is not divisible by patch size {patch}")
    grid = n // patch
    if grid & (grid - 1):
        raise ValueError(f"grid {grid} per side is not a power of 2")
    tiles = image.reshape(*image.shape[:-3], grid, patch, grid, patch, image.shape[-1])
    return np.ascontiguousarray(np.moveaxis(tiles, (-4, -2, -1), (0, 1, 2)))


def unpatchify(grid: np.ndarray) -> np.ndarray:
    """Inverse of patchify, over the same leading axes; lossless."""
    p, p2, c, *lead, s, s2 = grid.shape
    if s != s2 or p != p2:
        raise ValueError("patch grid must be (P, P, C, ..., S, S)")
    return np.moveaxis(grid, (0, 1, 2), (-4, -2, -1)).reshape(*lead, s * p, s * p, c)


def reconstruction_loss(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Squared reconstruction error, elementwise mean per image, mean over batch."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("original and reconstruction shapes differ")
    diff = original - reconstructed
    if diff.ndim == 3:
        return float(np.mean(diff**2))
    per_image = np.mean(diff.reshape(diff.shape[0], -1) ** 2, axis=1)
    return float(np.mean(per_image))


def _sigmoid(z):
    e = np.abs(z)  # exp(-|z|) never overflows; equals the two-sided stable form bit for bit
    np.exp(np.negative(e, out=e), out=e)
    out = np.minimum(z, 0.0)  # exp of it is the numerator: 1 where z >= 0, else exp(z) == exp(-|z|)
    return np.divide(np.exp(out, out=out), np.add(1.0, e, out=e), out=out)


def _shifted(d, n):
    # (output, input) slices of a length-n axis for kernel offset d - 1 under same padding
    return slice(max(0, 1 - d), min(n, n + 1 - d)), slice(max(0, d - 1), min(n, n + d - 1))


def _conv2d(x, w, b):
    # x (H,W,Ci,B), w (3,3,Ci,Co); same padding. Kernel row di is one GEMM of a banded (W*Co, W*Ci) T[di],
    # whose band dj reads input column j + dj - 1, by every input row, added di - 1 whole rows away
    h, wd, ci, bsz = x.shape
    co = w.shape[3]
    t, cols = np.zeros((3, wd, co, wd, ci)), np.arange(wd)
    for dj in range(3):
        oj, sj = _shifted(dj, wd)
        t[:, cols[oj], :, cols[sj], :] = w[:, dj].swapaxes(1, 2)
    rows, t = x.reshape(h, wd * ci, bsz), t.reshape(3, wd * co, wd * ci)
    out = t[1] @ rows
    out += np.broadcast_to(b, (wd, co)).reshape(-1, 1)
    for di in (0, 2):
        oi, si = _shifted(di, h)
        out[oi] += t[di] @ rows[si]
    return out.reshape(h, wd, co, bsz)


def _conv2d_backward(x, w, grad):
    # (dw, db): dT[di] = grad rows @ (input rows di - 1 away)^T, and dw[di, dj] sums the diagonal at offset
    # dj - 1 of its (W, Co, W, Ci) view. The input gradient is the same conv on _flipped(w)
    h, wd, ci, bsz = x.shape
    rows, g = x.reshape(h, wd * ci, bsz), grad.reshape(h, -1, bsz)
    dw = np.empty_like(w)
    for di in range(3):
        oi, si = _shifted(di, h)
        dt = (g[oi] @ rows[si].swapaxes(1, 2)).sum(axis=0).reshape(wd, -1, wd, ci)
        dw[di] = [np.diagonal(dt, dj - 1, 0, 2).sum(axis=-1).T for dj in range(3)]
    return dw, grad.sum(axis=(0, 1, 3))


def _flipped(w):
    return w[::-1, ::-1].swapaxes(2, 3)  # the kernel whose conv maps an output gradient to the input gradient


def _quadrants(x):
    """The four stride-2 views ``x[i::2, j::2]`` of the 2x2 pooling windows, in window order 2i + j."""
    return [x[i::2, j::2] for i in (0, 1) for j in (0, 1)]


def _maxpool(x):
    """(pooled, window): each 2x2 window's first maximum, and what ``_maxpool_backward`` reads to find it."""
    q = _quadrants(x)
    pooled = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    # np.maximum may return either zero of a tie between signed zeros: a zero maximum takes the first zero
    zero = pooled == 0
    for view in q[::-1]:
        np.copyto(pooled, view, where=zero & (view == 0))
    return pooled, (x, pooled)


def _maxpool_backward(window, grad, in_shape):
    # each window's gradient goes to its first quadrant equal to the maximum, which keeps backward deterministic
    x, pooled = window
    dx, free = np.empty(in_shape), np.ones(pooled.shape, dtype=bool)
    for view, quadrant in zip(_quadrants(dx), _quadrants(x)):  # the quadrants cover dx once
        first = free & (quadrant == pooled)
        view[...] = np.where(first, grad, 0.0)
        free &= ~first
    return dx


def _tconv2d(x, w, b):
    # x (h,w,Ci,B), w (2,2,Ci,Co); stride 2 == kernel size, so one GEMM maps each pixel to its own 2x2 block
    h, wd, ci, bsz = x.shape
    y = (w.transpose(0, 1, 3, 2).reshape(-1, ci) @ x).reshape(h, wd, 2, 2, -1, bsz)
    out = np.empty((h, 2, wd, 2, w.shape[3], bsz))
    np.add(y.transpose(0, 2, 1, 3, 4, 5), b[:, None], out=out)  # the bias rides on the one strided write
    return out.reshape(2 * h, 2 * wd, -1, bsz)


def _tconv2d_backward(x, w, grad):
    h, wd, ci, bsz = x.shape
    g = grad.reshape(h, 2, wd, 2, -1, bsz).transpose(0, 2, 1, 3, 4, 5).reshape(h, wd, -1, bsz)
    wm = w.transpose(0, 1, 3, 2).reshape(-1, ci)
    dw = (g @ x.swapaxes(2, 3)).sum(axis=(0, 1)).reshape(2, 2, -1, ci).transpose(0, 1, 3, 2)
    return wm.T @ g, dw, grad.sum(axis=(0, 1, 3))


@dataclass(frozen=True)
class _LayerSpec:
    name: str
    shape: tuple
    fan: tuple  # (fan_in, fan_out) for the init scale; None for biases


class PatchAutoencoder:
    """Shapes, initialization, and forward/backward for one patch geometry."""

    def __init__(self, patch: int, channels: int, num_features: int):
        if patch < 1 or patch & (patch - 1):
            raise ValueError("patch size must be a power of 2")
        self.patch = patch
        self.channels = channels
        self.num_features = num_features
        self.blocks = max(0, patch.bit_length() - 2)  # pool until 2x2
        self.base = patch >> self.blocks
        enc_flat = self.base**2 * (HIDDEN_CHANNELS if self.blocks else channels)
        dec_flat = self.base**2 * HIDDEN_CHANNELS

        layers = []
        for i in range(self.blocks):
            cin = channels if i == 0 else HIDDEN_CHANNELS
            layers.append(_LayerSpec(f"enc_conv{i}_w", (3, 3, cin, HIDDEN_CHANNELS), (9 * cin, 9 * HIDDEN_CHANNELS)))
            layers.append(_LayerSpec(f"enc_conv{i}_b", (HIDDEN_CHANNELS,), None))
        layers.append(_LayerSpec("enc_dense_w", (enc_flat, num_features), (enc_flat, num_features)))
        layers.append(_LayerSpec("enc_dense_b", (num_features,), None))
        encoder_layers = len(layers)

        layers.append(_LayerSpec("dec_dense_w", (num_features, dec_flat), (num_features, dec_flat)))
        layers.append(_LayerSpec("dec_dense_b", (dec_flat,), None))
        for i in range(self.blocks):
            layers.append(_LayerSpec(f"dec_tconv{i}_w", (2, 2, HIDDEN_CHANNELS, HIDDEN_CHANNELS),
                                     (4 * HIDDEN_CHANNELS, 4 * HIDDEN_CHANNELS)))
            layers.append(_LayerSpec(f"dec_tconv{i}_b", (HIDDEN_CHANNELS,), None))
        layers.append(_LayerSpec("dec_out_w", (3, 3, HIDDEN_CHANNELS, channels), (9 * HIDDEN_CHANNELS, 9 * channels)))
        layers.append(_LayerSpec("dec_out_b", (channels,), None))
        self.layers = layers
        sizes = [int(np.prod(l.shape)) for l in layers]
        ends = np.cumsum(sizes).tolist()
        self._encoder_end, self.num_params = ends[encoder_layers - 1], ends[-1]
        # each layer's name, its slice of the flat vector and its shape, for ``_views``
        self._spans = [(l.name, slice(end - size, end), l.shape) for l, size, end in zip(layers, sizes, ends)]

    @property
    def encoder_slice(self) -> slice:
        return slice(0, self._encoder_end)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        flat = np.zeros(self.num_params)
        for spec, view in zip(self.layers, self._views(flat).values()):
            if spec.fan is not None:
                bound = np.sqrt(6.0 / (spec.fan[0] + spec.fan[1]))
                view[...] = rng.uniform(-bound, bound, spec.shape)
        return flat

    def _views(self, flat: np.ndarray) -> dict:
        if flat.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} autoencoder parameters, got {flat.shape}")
        return {name: flat[span].reshape(shape) for name, span, shape in self._spans}

    # -- encoder ------------------------------------------------------------

    def encode(self, params: np.ndarray, patches: np.ndarray):
        """patches (P, P, C, B) -> features (E, B) in [0, pi], plus cache."""
        v = self._views(params)
        if patches.shape[:-1] != (self.patch, self.patch, self.channels):
            raise ValueError("patch shape does not match the configured geometry")
        cache = {"patches": patches, "conv": []}
        x = patches
        for i in range(self.blocks):
            act = _conv2d(x, v[f"enc_conv{i}_w"], v[f"enc_conv{i}_b"])
            np.maximum(act, 0.0, out=act)  # ReLU in place: act > 0 exactly where the pre-activation was
            pooled, window = _maxpool(act)
            cache["conv"].append((x, act, window))
            x = pooled
        flat = x.reshape(-1, x.shape[-1])
        sig = _sigmoid(v["enc_dense_w"].T @ flat + v["enc_dense_b"][:, None])
        cache["flat"] = flat
        cache["x_shape"] = x.shape
        cache["sig"] = sig
        return np.pi * sig, cache

    def encode_backward(self, params: np.ndarray, cache: dict, dfeatures: np.ndarray) -> np.ndarray:
        """Gradient of the encoder parameters given d(loss)/d(features), both (E, B)."""
        v = self._views(params)
        grads = np.zeros(self.num_params)
        gv = self._views(grads)
        sig = cache["sig"]
        dz = dfeatures * np.pi * sig * (1.0 - sig)
        gv["enc_dense_w"][...] = cache["flat"] @ dz.T
        gv["enc_dense_b"][...] = dz.sum(axis=1)
        dx = (v["enc_dense_w"] @ dz).reshape(cache["x_shape"])
        for i in reversed(range(self.blocks)):
            x_in, act, window = cache["conv"][i]
            dpre = _maxpool_backward(window, dx, act.shape)
            dpre *= act > 0
            gv[f"enc_conv{i}_w"][...], gv[f"enc_conv{i}_b"][...] = _conv2d_backward(x_in, v[f"enc_conv{i}_w"], dpre)
            if i:  # conv 0 reads the raw patches, whose gradient nobody uses
                dx = _conv2d(dpre, _flipped(v[f"enc_conv{i}_w"]), 0.0)
        return grads

    # -- decoder ------------------------------------------------------------

    def decode(self, params: np.ndarray, features: np.ndarray):
        """features (E, B) -> patches (P, P, C, B) in [0, 1], plus cache."""
        v = self._views(params)
        if features.shape[:-1] != (self.num_features,):
            raise ValueError("feature length does not match the configured geometry")
        z = v["dec_dense_w"].T @ features + v["dec_dense_b"][:, None]
        acts = [z.reshape(self.base, self.base, HIDDEN_CHANNELS, -1)]  # each tconv's input; the last feeds the head
        for i in range(self.blocks):
            x = _tconv2d(acts[-1], v[f"dec_tconv{i}_w"], v[f"dec_tconv{i}_b"])
            acts.append(np.maximum(x, 0.0, out=x))
        sig = _sigmoid(_conv2d(acts[-1], v["dec_out_w"], v["dec_out_b"]))
        return sig, {"features": features, "acts": acts, "sig": sig}

    def decode_backward(self, params: np.ndarray, cache: dict, dout: np.ndarray):
        """Returns (decoder parameter gradients, d(loss)/d(features) as (E, B))."""
        v = self._views(params)
        grads = np.zeros(self.num_params)
        gv = self._views(grads)
        sig = cache["sig"]
        dpre_out = dout * sig
        dpre_out *= 1.0 - sig
        acts = cache["acts"]
        gv["dec_out_w"][...], gv["dec_out_b"][...] = _conv2d_backward(acts[-1], v["dec_out_w"], dpre_out)
        dx = _conv2d(dpre_out, _flipped(v["dec_out_w"]), 0.0)
        for i in reversed(range(self.blocks)):
            dx *= acts[i + 1] > 0  # the ReLU's mask: its output is positive exactly where its input was
            dx, dw, db = _tconv2d_backward(acts[i], v[f"dec_tconv{i}_w"], dx)
            gv[f"dec_tconv{i}_w"][...] = dw
            gv[f"dec_tconv{i}_b"][...] = db
        dz = dx.reshape(-1, dx.shape[-1])
        gv["dec_dense_w"][...] = cache["features"] @ dz.T
        gv["dec_dense_b"][...] = dz.sum(axis=1)
        dfeatures = v["dec_dense_w"] @ dz
        return grads, dfeatures

    # -- single-patch conveniences -------------------------------------------

    def encode_patch(self, params: np.ndarray, patch: np.ndarray) -> np.ndarray:
        features, _ = self.encode(params, np.asarray(patch)[..., None])
        return features[:, 0]

    def decode_patch(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        patches, _ = self.decode(params, np.asarray(features, dtype=np.float64)[..., None])
        return patches[..., 0]
