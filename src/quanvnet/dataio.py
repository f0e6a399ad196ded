"""Dataset storage, loading, and the synthetic benchmark generator.

On-disk format (one directory per dataset):

* ``manifest.json`` -- name, image shape, class count, per-split file names
  and sample counts, and the per-channel ``[min, max]`` normalization
  constants computed from the training split.
* ``<split>_images.f32`` -- little-endian float32, row-major
  ``(sample, row, col, channel)``.
* ``<split>_labels.u16`` -- little-endian uint16 class indices.

Loading normalizes every split to [0, 1] with the training-split constants; a
degenerate channel (max == min) maps to 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
SPLIT_ORDER = ("train", "validation", "test")


@dataclass
class SyntheticSpec:
    """Deterministic stand-in for the EO benchmarks: one oriented sinusoidal
    grating per class (orientation k*pi/num_classes) plus uniform noise."""

    num_classes: int
    image_size: int
    channels: int
    train_samples: int
    validation_samples: int
    test_samples: int
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= 2 * self.noise <= sys.float_info.max:  # NaN, negative, or a noise range that overflows
            raise ValueError(f"noise must be >= 0 with 2*noise finite, got {self.noise!r}")
        if min(self.num_classes, self.image_size, self.channels) < 1:
            raise ValueError("classes, image size, and channels must be positive")
        for name in ("train_samples", "validation_samples", "test_samples", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.train_samples < 1:
            raise ValueError("train_samples must be >= 1: the normalization constants come from the training split")
        grids = self.train_samples + self.validation_samples + self.test_samples + self.num_classes  # with the gratings
        if 8 * grids * self.image_size**2 * self.channels > 2 << 30:  # the same budget as the training state
            raise ValueError(f"{grids} images and class gratings of {self.image_size}^2 x {self.channels} exceed 2 GiB")


def channel_range(images: np.ndarray) -> np.ndarray:
    """Per-channel (min, max) pairs, shape (channels, 2)."""
    flat = images.reshape(-1, images.shape[-1])
    return np.stack([flat.min(axis=0), flat.max(axis=0)], axis=1)


def normalize(images: np.ndarray, constants: np.ndarray) -> np.ndarray:
    lo = constants[:, 0]
    span = constants[:, 1] - constants[:, 0]
    safe = np.where(span > 0, span, 1.0)
    out = (images.astype(np.float64) - lo) / safe
    return np.where(span > 0, out, 0.0)


def write_dataset(directory, name: str, splits: dict, num_classes: int) -> dict:
    """Write raw (unnormalized) splits plus a manifest; returns the manifest.

    ``splits`` maps split name to ``(images float array, labels int array)``.
    Normalization constants are taken from the training split.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    converted = {
        split: (np.ascontiguousarray(images, dtype="<f4"), np.ascontiguousarray(labels, dtype="<u2"))
        for split, (images, labels) in splits.items()
    }
    shape = converted["train"][0].shape[1:]
    # constants come from the float32 data as stored, so the training min/max
    # map to exactly 0 and 1 after a round trip
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "image_shape": [int(s) for s in shape],
        "num_classes": int(num_classes),
        "splits": {},
        "normalization": [[float(a), float(b)] for a, b in channel_range(converted["train"][0])],
    }
    for split in SPLIT_ORDER:
        images, labels = converted[split]
        if images.shape[1:] != shape:
            raise ValueError(f"split {split} has image shape {images.shape[1:]}, expected {shape}")
        if images.shape[0] != labels.shape[0]:
            raise ValueError(f"split {split} has {images.shape[0]} images but {labels.shape[0]} labels")
        tensor_file = f"{split}_images.f32"
        label_file = f"{split}_labels.u16"
        images.tofile(directory / tensor_file)
        labels.tofile(directory / label_file)
        manifest["splits"][split] = {
            "count": int(images.shape[0]),
            "tensor_file": tensor_file,
            "label_file": label_file,
        }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(directory) -> dict:
    """The dataset's manifest; a malformed one raises ``DataError`` naming
    the field (split entries are checked by ``read_split_raw``)."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise DataError(f"no {MANIFEST_NAME} in {directory}")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise DataError(f"malformed manifest: {exc}") from exc
    check_manifest_object(manifest, ("name", "image_shape", "num_classes", "splits", "normalization"), "manifest")
    shape = manifest["image_shape"]
    if not (isinstance(shape, list) and len(shape) == 3 and all(_is_count(s, 1) for s in shape)):
        raise DataError(f"manifest image_shape {shape!r} is not 3 positive integers")
    if not _is_count(manifest["num_classes"], 1):
        raise DataError(f"manifest num_classes {manifest['num_classes']!r} is not a positive integer")
    norm = manifest["normalization"]
    if not (
        isinstance(norm, list)
        and len(norm) == shape[2]
        and all(isinstance(pair, list) and len(pair) == 2 for pair in norm)
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for pair in norm for v in pair)
        and all(lo <= hi for lo, hi in norm)
    ):
        raise DataError(
            f"manifest normalization must hold one finite [min, max] pair, min <= max, for each of {shape[2]} channels"
        )
    if not isinstance(manifest["splits"], dict):
        raise DataError("manifest splits is not a JSON object")
    return manifest


def check_manifest_object(manifest, required: tuple, what: str) -> None:
    """Raise ``DataError`` naming ``what`` unless ``manifest`` is a JSON
    object with ``format_version`` 1 and every ``required`` key."""
    if not isinstance(manifest, dict):
        raise DataError(f"{what} is not a JSON object")
    missing = [k for k in ("format_version",) + required if k not in manifest]
    if missing:
        raise DataError(f"{what} lacks {', '.join(missing)}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise DataError(f"{what} has unsupported format_version {manifest['format_version']!r}")


def _is_count(value, minimum: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def read_split_raw(directory, manifest: dict, split: str):
    """Raw float32 tensors and uint16 labels for one split, byte-exact."""
    directory = Path(directory)
    entry = manifest["splits"].get(split)
    if not isinstance(entry, dict):
        raise DataError(f"manifest has no split {split!r}")
    n = entry.get("count")
    if not _is_count(n):
        raise DataError(f"split {split}: count {n!r} is not a non-negative integer")
    for key in ("tensor_file", "label_file"):
        name = entry.get(key)
        if not isinstance(name, str) or "/" in name or "\\" in name:
            raise DataError(f"split {split}: {key} {name!r} is not a plain file name")
    h, w, c = manifest["image_shape"]
    tensor_path = directory / entry["tensor_file"]
    label_path = directory / entry["label_file"]
    for p in (tensor_path, label_path):
        if not p.is_file():
            raise DataError(f"missing dataset file {p}")
    expected_bytes = n * h * w * c * 4
    size = tensor_path.stat().st_size  # both sizes are checked before either file is read
    if size != expected_bytes:
        raise DataError(f"tensor file {tensor_path.name} holds {size} bytes, expected {expected_bytes} for {n} samples")
    size = label_path.stat().st_size
    if size != n * 2:
        raise DataError(f"label file {label_path.name} holds {size} bytes, expected {n * 2}")
    images = np.frombuffer(tensor_path.read_bytes(), dtype="<f4").reshape(n, h, w, c)
    if not np.isfinite(images).all():
        first = np.argmin(np.isfinite(images).reshape(n, -1).all(axis=1))
        raise DataError(f"tensor file {tensor_path.name} holds a NaN or infinite pixel in sample {first}")
    labels = np.frombuffer(label_path.read_bytes(), dtype="<u2").astype(np.int64)
    if labels.size and labels.max() >= manifest["num_classes"]:
        raise DataError(
            f"split {split} contains label {labels.max()} but manifest declares "
            f"{manifest['num_classes']} classes"
        )
    return images, labels


def _subsample_train(labels: np.ndarray, num_classes: int, train_fraction, minority, seed: int) -> np.ndarray:
    """Seeded per-class index selection for the scarcity/imbalance protocols;
    ``load_dataset`` has range-checked both."""
    fractions = np.ones(num_classes)
    if train_fraction is not None:
        fractions[:] = train_fraction
    if minority is not None:
        cls, frac = minority
        fractions[cls] = min(fractions[cls], frac)
    rng = np.random.default_rng(seed)
    keep = []
    for cls in range(num_classes):
        idx = np.nonzero(labels == cls)[0]
        count = max(1, int(round(fractions[cls] * idx.size))) if idx.size else 0
        keep.extend(rng.permutation(idx)[:count])
    return np.sort(np.asarray(keep, dtype=np.int64))


def zero_pad(images: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad both spatial axes by size - height (centered, extra bottom/right for
    odd margins), so square images become size x size; converter for 28-pixel tiles."""
    n = images.shape[1]
    if size < n:
        raise ValueError(f"cannot pad {n}-pixel images down to {size}")
    if size == n:
        return images
    before = (size - n) // 2
    after = size - n - before
    return np.pad(images, ((0, 0), (before, after), (before, after), (0, 0)))


def load_dataset(directory, splits=SPLIT_ORDER, train_fraction=None, minority=None, seed: int = 0,
                 pad_to=None) -> dict:
    """The named splits (all by default), normalized to [0, 1] with the
    training-split constants from the manifest, so a split reads the same
    whichever others are loaded.

    Returns ``{split: (images float64, labels int64)}``. ``train_fraction``
    and ``minority=(class, fraction)`` subsample the training split only;
    ``pad_to`` zero-pads normalized images up to a larger spatial size.
    """
    manifest = read_manifest(directory)
    if train_fraction is not None and not 0 < train_fraction <= 1:  # for every split, before any is read
        raise ValueError("train fraction must be in (0, 1]")
    if minority is not None and not 0 <= minority[0] < manifest["num_classes"]:
        raise ValueError(f"minority class {minority[0]} out of range")
    if minority is not None and not 0 < minority[1] <= 1:
        raise ValueError("minority fraction must be in (0, 1]")
    constants = np.asarray(manifest["normalization"], dtype=np.float64)
    out = {}
    for split in splits:
        images, labels = read_split_raw(directory, manifest, split)
        if split == "train" and (train_fraction is not None or minority is not None):
            keep = _subsample_train(labels, manifest["num_classes"], train_fraction, minority, seed)
            images, labels = images[keep], labels[keep]
        normalized = normalize(images, constants)
        if pad_to is not None:
            normalized = zero_pad(normalized, pad_to)
        out[split] = (normalized, labels)
    return out


def generate_synthetic(spec: SyntheticSpec, directory) -> dict:
    """Write a synthetic dataset in the manifest format; byte-deterministic."""
    rng = np.random.default_rng(spec.seed)
    n = spec.image_size
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cycles = 4.0  # grating frequency across the image
    theta = np.arange(spec.num_classes)[:, None, None] * np.pi / spec.num_classes
    bases = 0.5 + 0.4 * np.sin(2 * np.pi * cycles * (rows * np.cos(theta) + cols * np.sin(theta)) / n)
    splits = {}
    for split in SPLIT_ORDER:
        count = getattr(spec, f"{split}_samples")
        labels = np.arange(count) % spec.num_classes
        # one draw per split; zero noise draws zeros, which leave the gratings as they are
        noise = rng.uniform(-spec.noise, spec.noise, (count, n, n, spec.channels))
        splits[split] = (np.clip(bases[labels][..., None] + noise, 0.0, 1.0), labels)
    return write_dataset(directory, f"synthetic-{spec.num_classes}class", splits, spec.num_classes)
