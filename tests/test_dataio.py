import hashlib
import json

import numpy as np
import pytest

from quanvnet import dataio
from quanvnet.errors import DataError


def small_spec(**kw):
    defaults = dict(num_classes=4, image_size=16, channels=2,
                    train_samples=24, validation_samples=8, test_samples=8,
                    noise=0.1, seed=5)
    defaults.update(kw)
    return dataio.SyntheticSpec(**defaults)


class TestManifestAndLoading:
    def test_full_scale_dataset_loads(self, tmp_path):
        spec = dataio.SyntheticSpec(num_classes=6, image_size=32, channels=4,
                                    train_samples=4200, validation_samples=1200,
                                    test_samples=1200, noise=0.05, seed=1)
        dataio.generate_synthetic(spec, tmp_path)
        data = dataio.load_dataset(tmp_path)
        assert data["train"][0].shape == (4200, 32, 32, 4)
        assert data["validation"][0].shape == (1200, 32, 32, 4)
        assert data["test"][0].shape == (1200, 32, 32, 4)
        assert data["train"][1].min() == 0 and data["train"][1].max() == 5

    def test_manifest_golden_fields(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {
            "format_version": 1,
            "name": "synthetic-4class",
            "image_shape": [16, 16, 2],
            "num_classes": 4,
            "splits": {
                "train": {"count": 24, "tensor_file": "train_images.f32", "label_file": "train_labels.u16"},
                "validation": {"count": 8, "tensor_file": "validation_images.f32", "label_file": "validation_labels.u16"},
                "test": {"count": 8, "tensor_file": "test_images.f32", "label_file": "test_labels.u16"},
            },
            "normalization": manifest["normalization"],
        }
        assert len(manifest["normalization"]) == 2
        assert all(len(pair) == 2 for pair in manifest["normalization"])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            dataio.load_dataset(tmp_path)

    def test_tampered_tensor_file_is_count_mismatch(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        path = tmp_path / "train_images.f32"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="expected"):
            dataio.load_dataset(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        labels = np.fromfile(tmp_path / "train_labels.u16", dtype="<u2").copy()
        labels[0] = 99
        labels.tofile(tmp_path / "train_labels.u16")
        with pytest.raises(DataError, match="label"):
            dataio.load_dataset(tmp_path)

    def test_missing_split_file(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        (tmp_path / "test_labels.u16").unlink()
        with pytest.raises(DataError, match="missing"):
            dataio.load_dataset(tmp_path)


class TestNormalization:
    def test_constant_channel_maps_to_zero(self, tmp_path):
        rng = np.random.default_rng(2)
        splits = {}
        for name, count in (("train", 6), ("validation", 2), ("test", 2)):
            imgs = rng.uniform(0, 1, (count, 4, 4, 2))
            imgs[..., 1] = 0.7  # degenerate channel
            splits[name] = (imgs, np.zeros(count, dtype=int))
        dataio.write_dataset(tmp_path, "deg", splits, 1)
        data = dataio.load_dataset(tmp_path)
        assert np.all(data["train"][0][..., 1] == 0.0)
        assert data["train"][0][..., 0].min() == 0.0
        assert data["train"][0][..., 0].max() == 1.0

    def test_one_split_loads_as_it_does_beside_the_others(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        alone = dataio.load_dataset(tmp_path, ("test",))
        assert list(alone) == ["test"]
        full = dataio.load_dataset(tmp_path)
        assert np.array_equal(alone["test"][0], full["test"][0])
        assert np.array_equal(alone["test"][1], full["test"][1])

    @pytest.mark.parametrize("pair", [[True, False], [1.0, 0.0], [0, "1"]])
    def test_malformed_pair_is_a_data_error(self, tmp_path, pair):
        # bools are JSON numbers to isinstance; min > max would load every image as zeros
        dataio.generate_synthetic(small_spec(), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["normalization"][1] = pair
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="normalization"):
            dataio.load_dataset(tmp_path)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        imgs = rng.uniform(-2, 5, (10, 4, 4, 3))
        once = dataio.normalize(imgs, dataio.channel_range(imgs))
        twice = dataio.normalize(once, dataio.channel_range(once))
        assert np.array_equal(once, twice)

    def test_validation_uses_train_constants(self, tmp_path):
        rng = np.random.default_rng(4)
        splits = {
            "train": (rng.uniform(0, 0.5, (6, 4, 4, 1)), np.zeros(6, dtype=int)),
            "validation": (rng.uniform(0, 1.0, (4, 4, 4, 1)), np.zeros(4, dtype=int)),
            "test": (rng.uniform(0, 1.0, (4, 4, 4, 1)), np.zeros(4, dtype=int)),
        }
        dataio.write_dataset(tmp_path, "scales", splits, 1)
        data = dataio.load_dataset(tmp_path)
        # validation values above the train max land above 1
        assert data["validation"][0].max() > 1.0


class TestRoundTrip:
    def test_write_then_read_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        splits = {
            name: (rng.uniform(0, 1, (5, 8, 8, 3)).astype(np.float32), rng.integers(0, 3, 5))
            for name in ("train", "validation", "test")
        }
        manifest = dataio.write_dataset(tmp_path, "rt", splits, 3)
        for name in ("train", "validation", "test"):
            images, labels = dataio.read_split_raw(tmp_path, manifest, name)
            assert np.array_equal(images, splits[name][0])
            assert np.array_equal(labels, splits[name][1])


class TestSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        dataio.generate_synthetic(small_spec(), a)
        dataio.generate_synthetic(small_spec(), b)
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_golden_digest(self, tmp_path):
        # sha256 over the sorted file names and contents, computed with the
        # per-sample generator this one replaced; the validation split is empty
        spec = dataio.SyntheticSpec(num_classes=3, image_size=6, channels=2, train_samples=5,
                                    validation_samples=0, test_samples=4, noise=0.2, seed=5)
        dataio.generate_synthetic(spec, tmp_path)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == "890134c83a2869ec8bc71a6a91b7358cde3ed17ad2c3eaf8c58a8f138996668b"

    def test_zero_noise_gives_identical_class_images(self, tmp_path):
        dataio.generate_synthetic(small_spec(noise=0.0), tmp_path)
        manifest = dataio.read_manifest(tmp_path)
        images, labels = dataio.read_split_raw(tmp_path, manifest, "train")
        for cls in range(4):
            members = images[labels == cls]
            assert all(np.array_equal(members[0], m) for m in members[1:])

    def test_splits_disjoint_with_noise(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        manifest = dataio.read_manifest(tmp_path)
        raw = {s: dataio.read_split_raw(tmp_path, manifest, s)[0] for s in dataio.SPLIT_ORDER}
        train_bytes = {img.tobytes() for img in raw["train"]}
        for other in ("validation", "test"):
            assert all(img.tobytes() not in train_bytes for img in raw[other])

    def test_nearest_centroid_oracle_on_held_out(self, tmp_path):
        spec = dataio.SyntheticSpec(num_classes=4, image_size=32, channels=4,
                                    train_samples=80, validation_samples=20,
                                    test_samples=100, noise=0.1, seed=9)
        dataio.generate_synthetic(spec, tmp_path)
        data = dataio.load_dataset(tmp_path)
        xs, ys = data["train"]
        centroids = np.stack([xs[ys == c].mean(axis=0).ravel() for c in range(4)])
        xt, yt = data["test"]
        dist = np.linalg.norm(xt.reshape(len(xt), -1)[:, None, :] - centroids[None], axis=2)
        predicted = dist.argmin(axis=1)
        assert np.array_equal(predicted, yt)


class TestZeroPad:
    def test_pad_28_to_32(self, tmp_path):
        spec = small_spec(image_size=28)
        dataio.generate_synthetic(spec, tmp_path)
        data = dataio.load_dataset(tmp_path, pad_to=32)
        images = data["train"][0]
        assert images.shape[1:] == (32, 32, 2)
        assert np.all(images[:, :2, :, :] == 0.0)
        assert np.all(images[:, :, 30:, :] == 0.0)
        inner = dataio.load_dataset(tmp_path)["train"][0]
        assert np.array_equal(images[:, 2:30, 2:30, :], inner)

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(14)
        imgs = rng.uniform(0, 1, (3, 8, 8, 1))
        assert np.array_equal(dataio.zero_pad(imgs, 8), imgs)

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            dataio.zero_pad(np.zeros((1, 8, 8, 1)), 4)


class TestSubsampling:
    def test_train_fraction_per_class(self, tmp_path):
        dataio.generate_synthetic(small_spec(train_samples=40), tmp_path)
        data = dataio.load_dataset(tmp_path, train_fraction=0.5, seed=11)
        labels = data["train"][1]
        assert labels.size == 20
        assert all((labels == c).sum() == 5 for c in range(4))

    def test_minority_class(self, tmp_path):
        dataio.generate_synthetic(small_spec(train_samples=40), tmp_path)
        data = dataio.load_dataset(tmp_path, minority=(2, 0.1), seed=11)
        labels = data["train"][1]
        assert (labels == 2).sum() == 1
        assert all((labels == c).sum() == 10 for c in (0, 1, 3))

    def test_seeded_selection_is_deterministic(self, tmp_path):
        dataio.generate_synthetic(small_spec(train_samples=40), tmp_path)
        a = dataio.load_dataset(tmp_path, train_fraction=0.25, seed=3)
        b = dataio.load_dataset(tmp_path, train_fraction=0.25, seed=3)
        assert np.array_equal(a["train"][0], b["train"][0])
        c = dataio.load_dataset(tmp_path, train_fraction=0.25, seed=4)
        assert not np.array_equal(a["train"][0], c["train"][0])

    def test_untouched_validation_and_test(self, tmp_path):
        dataio.generate_synthetic(small_spec(), tmp_path)
        full = dataio.load_dataset(tmp_path)
        sub = dataio.load_dataset(tmp_path, train_fraction=0.5)
        assert np.array_equal(full["test"][0], sub["test"][0])
        assert np.array_equal(full["validation"][0], sub["validation"][0])
