import warnings

import numpy as np
import pytest

from quanvnet import autoencoder as ae_mod
from quanvnet.autoencoder import PatchAutoencoder, patchify, reconstruction_loss, unpatchify

import oracles


# -- independent single-patch forward pass, explicit scalar loops -------------


def naive_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def naive_conv(x, w, b):
    h, wd, ci = x.shape
    co = w.shape[3]
    out = np.zeros((h, wd, co))
    for i in range(h):
        for j in range(wd):
            for o in range(co):
                s = b[o]
                for di in range(3):
                    for dj in range(3):
                        ii, jj = i + di - 1, j + dj - 1
                        if 0 <= ii < h and 0 <= jj < wd:
                            for c in range(ci):
                                s += x[ii, jj, c] * w[di, dj, c, o]
                out[i, j, o] = s
    return out


def naive_pool(x):
    h, wd, c = x.shape
    out = np.zeros((h // 2, wd // 2, c))
    for i in range(h // 2):
        for j in range(wd // 2):
            for ch in range(c):
                out[i, j, ch] = max(
                    x[2 * i, 2 * j, ch], x[2 * i, 2 * j + 1, ch],
                    x[2 * i + 1, 2 * j, ch], x[2 * i + 1, 2 * j + 1, ch],
                )
    return out


def naive_tconv(x, w, b):
    h, wd, ci = x.shape
    co = w.shape[3]
    out = np.zeros((2 * h, 2 * wd, co))
    for i in range(h):
        for j in range(wd):
            for c in range(ci):
                for di in range(2):
                    for dj in range(2):
                        for o in range(co):
                            out[2 * i + di, 2 * j + dj, o] += x[i, j, c] * w[di, dj, c, o]
    return out + b


def split_layers(flat, shapes):
    """Manual layout walk so the test freezes the parameter ordering."""
    out = []
    off = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[off : off + size].reshape(shape))
        off += size
    assert off == flat.size
    return out


def naive_encode_patch_p4(flat, patch, channels, e):
    w0, b0, wd, bd = split_layers(flat[: 9 * channels * 4 + 4 + 16 * e + e],
                                  [(3, 3, channels, 4), (4,), (16, e), (e,)])
    x = naive_pool(np.maximum(naive_conv(patch, w0, b0), 0.0))
    z = x.reshape(-1) @ wd + bd
    return np.pi * naive_sigmoid(z)


def naive_decode_patch_p4(flat, features, channels, e):
    enc_size = 9 * channels * 4 + 4 + 16 * e + e
    wd, bd, wt, bt, wo, bo = split_layers(flat[enc_size:],
                                          [(e, 16), (16,), (2, 2, 4, 4), (4,), (3, 3, 4, channels), (channels,)])
    x = (features @ wd + bd).reshape(2, 2, 4)
    x = np.maximum(naive_tconv(x, wt, bt), 0.0)
    return naive_sigmoid(naive_conv(x, wo, bo))


class TestPatchify:
    def test_table_shape(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (32, 32, 4))
        grid = patchify(img, 4)
        assert grid.shape == (4, 4, 4, 8, 8)
        assert np.array_equal(grid[..., 2, 5], img[8:12, 20:24, :])

    def test_unit_patches_row_major(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        grid = patchify(img, 1)
        assert grid.shape == (1, 1, 1, 2, 2)
        assert grid[0, 0, 0].ravel().tolist() == [1, 2, 3, 4]

    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (16, 16, 3))
        assert np.array_equal(unpatchify(patchify(img, 4)), img)

    def test_batched_matches_per_image_and_the_model_tiling(self):
        rng = np.random.default_rng(2)
        imgs = rng.uniform(0, 1, (3, 32, 32, 4))
        grid = patchify(imgs, 4)
        assert np.array_equal(grid, np.stack([patchify(img, 4) for img in imgs], axis=3))
        # the row order the model's encoder has always seen: image, patch row, patch column
        s, p, c = 8, 4, 4
        flat = imgs.reshape(3, s, p, s, p, c).transpose(0, 1, 3, 2, 4, 5).reshape(3 * s * s, p, p, c)
        assert np.array_equal(grid.reshape(p, p, c, -1), np.moveaxis(flat, 0, -1))
        assert np.array_equal(unpatchify(grid), imgs)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((6, 6, 1)), 4)

    def test_non_power_of_two_grid_rejected(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((12, 12, 1)), 4)


class TestEncoder:
    def test_zero_params_give_midpoint_angles(self):
        ae = PatchAutoencoder(4, 4, 9)
        feats = ae.encode_patch(np.zeros(ae.num_params), np.random.default_rng(2).uniform(0, 1, (4, 4, 4)))
        assert np.allclose(feats, np.pi / 2, atol=1e-15)

    def test_output_bounded(self):
        ae = PatchAutoencoder(8, 3, 9)
        rng = np.random.default_rng(3)
        params = 5.0 * ae.init_params(rng)  # exaggerate weights to push the head
        feats, _ = ae.encode(params, np.moveaxis(rng.uniform(0, 1, (20, 8, 8, 3)), 0, -1))
        assert np.all(feats >= 0.0) and np.all(feats <= np.pi)

    def test_matches_naive_oracle(self):
        ae = PatchAutoencoder(4, 2, 9)
        rng = np.random.default_rng(4)
        params = ae.init_params(rng)
        patch = rng.uniform(0, 1, (4, 4, 2))
        got = ae.encode_patch(params, patch)
        want = naive_encode_patch_p4(params, patch, 2, 9)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_locality(self):
        # weights are shared, activations are not: changing other patches in
        # the batch leaves a patch's features bit-identical
        ae = PatchAutoencoder(4, 2, 6)
        rng = np.random.default_rng(5)
        params = ae.init_params(rng)
        batch = np.moveaxis(rng.uniform(0, 1, (6, 4, 4, 2)), 0, -1)
        other = batch.copy()
        other[..., [0, 1, 2, 4, 5]] = np.moveaxis(rng.uniform(0, 1, (5, 4, 4, 2)), 0, -1)
        feats, _ = ae.encode(params, batch)
        feats2, _ = ae.encode(params, other)
        assert np.array_equal(feats[:, 3], feats2[:, 3])
        assert not np.array_equal(feats[:, 0], feats2[:, 0])


class TestDecoder:
    def test_output_shape(self):
        ae = PatchAutoencoder(4, 4, 9)
        rng = np.random.default_rng(6)
        out = ae.decode_patch(ae.init_params(rng), rng.uniform(0, np.pi, 9))
        assert out.shape == (4, 4, 4)

    def test_zero_params_give_half(self):
        ae = PatchAutoencoder(4, 3, 9)
        out = ae.decode_patch(np.zeros(ae.num_params), np.random.default_rng(7).uniform(0, np.pi, 9))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_bounded_output(self):
        ae = PatchAutoencoder(8, 3, 9)
        rng = np.random.default_rng(8)
        params = 5.0 * ae.init_params(rng)
        out, _ = ae.decode(params, rng.uniform(0, np.pi, (10, 9)).T)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_matches_naive_oracle(self):
        ae = PatchAutoencoder(4, 2, 9)
        rng = np.random.default_rng(9)
        params = ae.init_params(rng)
        feats = rng.uniform(0, np.pi, 9)
        got = ae.decode_patch(params, feats)
        want = naive_decode_patch_p4(params, feats, 2, 9)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestReconstructionLoss:
    def test_identity_is_zero(self):
        img = np.random.default_rng(10).uniform(0, 1, (3, 8, 8, 2))
        assert reconstruction_loss(img, img) == 0.0

    def test_single_pixel_quarter(self):
        a = np.full((1, 1, 1, 1), 1.0)
        b = np.full((1, 1, 1, 1), 0.5)
        assert reconstruction_loss(a, b) == 0.25

    def test_batch_duplication_invariant(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (4, 8, 8, 2))
        b = rng.uniform(0, 1, (4, 8, 8, 2))
        once = reconstruction_loss(a, b)
        twice = reconstruction_loss(np.concatenate([a, a]), np.concatenate([b, b]))
        assert abs(once - twice) <= 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_loss(np.zeros((2, 4, 4, 1)), np.zeros((2, 4, 4, 2)))


@pytest.mark.parametrize("patch,channels", [(1, 2), (2, 3), (4, 4), (8, 3), (16, 1), (32, 3)])
def test_larger_patch_geometries_round_trip_shapes(patch, channels):
    ae = PatchAutoencoder(patch, channels, 9)
    rng = np.random.default_rng(13)
    params = ae.init_params(rng)
    batch = np.moveaxis(rng.uniform(0, 1, (2, patch, patch, channels)), 0, -1)
    feats, _ = ae.encode(params, batch)
    assert feats.shape == (9, 2)
    recon, _ = ae.decode(params, feats)
    assert recon.shape == batch.shape


@pytest.mark.parametrize("shape", [(3, 4, 4, 2), (4, 4, 3, 5), (4, 4, 2)])
def test_encode_rejects_patches_not_in_the_patch_axis_last_geometry(shape):
    ae = PatchAutoencoder(4, 2, 9)
    with pytest.raises(ValueError):
        ae.encode(np.zeros(ae.num_params), np.zeros(shape))


@pytest.mark.parametrize("shape", [(5, 9), (8, 5), (9,)])
def test_decode_rejects_features_not_in_the_feature_axis_first_geometry(shape):
    ae = PatchAutoencoder(4, 2, 9)
    with pytest.raises(ValueError):
        ae.decode(np.zeros(ae.num_params), np.zeros(shape))


def two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_two_branch_form_bit_for_bit():
    z = np.concatenate([30.0 * np.random.default_rng(14).standard_normal(2000),
                        [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ae_mod._sigmoid(z.copy())
    assert np.array_equal(got, two_branch_sigmoid(z))
    assert np.isnan(ae_mod._sigmoid(np.array([np.nan]))[0])


def test_sigmoid_of_a_decoder_pre_activation_is_bitwise_and_written_over_its_input():
    # the decoder output head's (patches, P, P, C) shape, with signed zeros, infinities and huge values inside
    z = 8.0 * np.random.default_rng(15).standard_normal((3200, 4, 4, 4))
    z.flat[:10] = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 745.0, -745.0, 5e-324, -5e-324]
    arg = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ae_mod._sigmoid(arg)
    assert got is arg and np.array_equal(arg, two_branch_sigmoid(z))


def take_along_axis_pool(x):
    """Max pool and its backward through a transposed (..., 4) window axis:
    the first maximum by argmax, read and written with take/put_along_axis."""
    h, wd, c, bsz = x.shape
    r = x.reshape(h // 2, 2, wd // 2, 2, c, bsz).transpose(0, 2, 4, 5, 1, 3).reshape(h // 2, wd // 2, c, bsz, 4)
    idx = r.argmax(axis=4)

    def backward(grad):
        d = np.zeros(r.shape)
        np.put_along_axis(d, idx[..., None], grad[..., None], axis=4)
        return d.reshape(h // 2, wd // 2, c, bsz, 2, 2).transpose(0, 4, 1, 5, 2, 3).reshape(x.shape)

    return np.take_along_axis(r, idx[..., None], axis=4)[..., 0], backward


@pytest.mark.parametrize("kind", ["random", "ties", "equal", "signed zeros"])
def test_maxpool_matches_the_take_along_axis_form_bit_for_bit(kind):
    rng = np.random.default_rng(16)
    shape = (40, 4, 6, 3)
    x = {
        "random": rng.normal(size=shape),
        "ties": rng.integers(0, 3, shape).astype(float),  # most windows hold a repeated maximum
        "equal": np.full(shape, 0.25),
        "signed zeros": rng.choice([0.0, -0.0, -1.0], size=shape),
    }[kind]
    x = np.ascontiguousarray(np.moveaxis(x, 0, -1))
    out, window = ae_mod._maxpool_relu(x)
    want, backward = take_along_axis_pool(np.maximum(x, 0.0))  # max pool after the ReLU
    assert out.tobytes() == want.tobytes()  # signs of zeros included
    grad = rng.normal(size=out.shape)
    got = ae_mod._maxpool_relu_backward(window, grad, x.shape)
    assert got.tobytes() == backward(np.where(want > 0, grad, 0.0)).tobytes()  # the ReLU passes no gradient at 0


# Ci != Co, so a kernel transposed the wrong way in a gradient cannot pass
CI, CO = 3, 5


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32])
def test_conv_primitives_match_the_naive_oracles(size):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, size, size, CI))
    w3, b = rng.normal(size=(3, 3, CI, CO)), rng.normal(size=CO)
    w2 = rng.normal(size=(2, 2, CI, CO))
    xt = np.moveaxis(x, 0, -1)
    conv, tconv = ae_mod._conv2d(xt, w3, b), ae_mod._tconv2d(xt, w2, b)
    for i in range(x.shape[0]):
        assert np.max(np.abs(conv[..., i] - naive_conv(x[i], w3, b))) <= 1e-12
        assert np.max(np.abs(tconv[..., i] - naive_tconv(x[i], w2, b))) <= 1e-12


def conv2d_backward(x, w, grad):
    """(dx, dw, db) as the autoencoder forms them: dx is the same conv on the flipped kernel."""
    return (ae_mod._conv2d(grad, ae_mod._flipped(w), 0.0), *ae_mod._conv2d_backward(x, w, grad))


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("forward, backward, taps", [(ae_mod._conv2d, conv2d_backward, 3),
                                                     (ae_mod._tconv2d, ae_mod._tconv2d_backward, 2)])
def test_conv_backwards_match_central_differences(size, forward, backward, taps):
    rng = np.random.default_rng(16)
    x = np.moveaxis(rng.normal(size=(2, size, size, CI)), 0, -1)
    w, b = rng.normal(size=(taps, taps, CI, CO)), rng.normal(size=CO)
    out = forward(x, w, b)
    cot = rng.normal(size=out.shape)  # d(loss)/d(out) for loss = sum(cot * out)
    dx, dw, db = backward(x, w, cot)

    def loss(x=x, w=w, b=b):
        return float(np.sum(cot * forward(x, w, b)))

    for name, got, arg in (("x", dx, x), ("w", dw, w), ("b", db, b)):
        want = oracles.central_differences(lambda v: loss(**{name: v.reshape(arg.shape)}), arg.ravel())
        assert got.shape == arg.shape
        assert oracles.relative_error(got.ravel(), want) <= 1e-5


@pytest.mark.parametrize("size", [1, 2, 4, 32])
def test_conv_weight_gradient_fold_matches_the_per_tap_products(size):
    rng = np.random.default_rng(17)
    x, grad = rng.normal(size=(3, size, size, CI)), rng.normal(size=(3, size, size, CO))

    def shifted(d):  # output positions i, and the input positions i + d - 1 they read, inside [0, size)
        lo, hi = max(0, 1 - d), min(size, size + 1 - d)
        return slice(lo, hi), slice(lo + d - 1, hi + d - 1)

    want = np.empty((3, 3, CI, CO))
    for di, dj in np.ndindex(3, 3):
        (oi, si), (oj, sj) = shifted(di), shifted(dj)
        want[di, dj] = x[:, si, sj].reshape(-1, CI).T @ grad[:, oi, oj].reshape(-1, CO)
    dw, db = ae_mod._conv2d_backward(np.moveaxis(x, 0, -1), rng.normal(size=(3, 3, CI, CO)),
                                     np.moveaxis(grad, 0, -1))
    assert dw.shape == want.shape
    assert oracles.relative_error(dw.ravel(), want.ravel()) <= 1e-12
    assert oracles.relative_error(db, grad.sum(axis=(0, 1, 2))) <= 1e-12


# the last case shifts the encoder's conv biases down, so that many whole pooling windows lie below the ReLU's kink
@pytest.mark.parametrize("patch,channels,enc_bias_shift",
                         [(1, 2, 0.0), (2, 3, 0.0), (4, 2, 0.0), (8, 3, 0.0), (16, 1, 0.0), (8, 3, -0.6)],
                         ids=["1-2", "2-3", "4-2", "8-3", "16-1", "8-3-dead-windows"])
def test_analytic_gradients_match_central_differences(patch, channels, enc_bias_shift):
    ae = PatchAutoencoder(patch, channels, 6)
    rng = np.random.default_rng(12)
    # draw every parameter (biases included) from a continuous distribution so
    # no ReLU pre-activation sits exactly on its kink
    params = rng.uniform(-0.5, 0.5, ae.num_params)
    for i in range(ae.blocks):
        ae._views(params)[f"enc_conv{i}_b"][...] += enc_bias_shift
    batch = np.moveaxis(rng.uniform(0, 1, (3, patch, patch, channels)), 0, -1)
    scale = 2.0 / (3 * batch[..., 0].size)  # d(mean sq)/d(recon)

    def loss(p):
        feats, _ = ae.encode(p, batch)
        recon, _ = ae.decode(p, feats)
        return reconstruction_loss(batch, recon)

    feats, enc_cache = ae.encode(params, batch)
    recon, dec_cache = ae.decode(params, feats)
    dgrad_out = scale * (recon - batch)
    dec_grads, dfeats = ae.decode_backward(params, dec_cache, dgrad_out)
    enc_grads = ae.encode_backward(params, enc_cache, dfeats)
    if enc_bias_shift:  # a window whose maximum is <= 0 pools to 0 through the ReLU and passes no gradient
        dead = [np.mean(take_along_axis_pool(pre)[0] <= 0) for _, _, (pre, _) in enc_cache["conv"]]
        assert min(dead) >= 0.25
    got = dec_grads + enc_grads
    want = oracles.central_differences(loss, params, eps=1e-4)
    assert oracles.relative_error(got, want) <= 1e-5
