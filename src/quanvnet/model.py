"""Joint model: patch autoencoder -> quantum feature extraction -> dense
softmax classifier, trained against cross entropy plus a weighted
reconstruction error (``loss = l_ce + alpha * l_mse``).

Gradients flow along two routes into the shared encoder: the classification
path chains through the data-bound rotation angles of the encoding circuit
(adjoint sweep), and the reconstruction path chains through the decoder.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import circuits
from .autoencoder import PatchAutoencoder, patchify, reconstruction_loss, unpatchify
from .dataio import _is_count, check_manifest_object
from .errors import ConfigError, DataError, DivergenceError

SEGMENTS = ("autoencoder", "quantum", "classifier")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_CLIP = 1e-12
CHECKPOINT_MAGIC = "QVNCKPT1"
# every checkpoint's arrays, in file order: the parameters, then the Adam first and second moments
CHECKPOINT_ARRAYS = tuple(f"{kind}:{s}" for kind in ("segment", "adam_m", "adam_v") for s in SEGMENTS)
# A training step holds at most five full (2**n, batch) complex column stacks
# plus DATA_SLOT_BYTES per data slot of each row at any batch size (tracemalloc
# peak of one evaluator forward and backward with its returned amplitudes held:
# 3.39 stacks on the canonical 12 qubits at batch 50, 3.38 on 18 qubits at batch 2;
# thin circuits, E = 3, K = 1, M = 1 on 12 qubits: 17.6 bytes per slot over 5
# stacks at batch 1, so 4 complex128), and ``fixed_state_bytes``, which does not
# grow with the batch.
STATE_COPIES = 5
DATA_SLOT_BYTES = 64
# The batch-independent part: TRANSFER_COPIES times the evaluator's transfer
# matrices (the cached ones, and in the backward G_s, the reverse mode's copy of
# V and one product temporary: 4.2 copies on E = 30, g = M = K = 1 at batch 1),
# and BLOCK_BUFFER_BYTES for a 6-qubit value map factor of the head and of the
# tail, an overlap and the product around it, four 64 x 64 complex matrices (3.1
# on E = 18, g = M = K = 1).
TRANSFER_COPIES = 6
BLOCK_BUFFER_BYTES = 4 << 16
# The classifier's (features + 1) x classes parameters: a run holds at most 11 float64 copies of them (the store,
# its Adam moments and the best checkpoint's, the gradient and the update's temporaries) and 3 (batch, classes)
# arrays (tracemalloc peak of a two-epoch run and its checkpoint and evaluation, 1000-4000 classes, batch 2-512);
# the budget counts one more of each.
CLASSIFIER_COPIES = 12
CLASS_ROW_COPIES = 4
STATE_BUDGET_BYTES = 2 << 30


@dataclass(frozen=True)
class ModelConfig:
    """All structural and optimization scalars of one experiment."""

    image_size: int = 32
    patch_size: int = 4
    features: int = 9
    blocks: int = 2
    kernels: int = 2
    channels: int = 4
    num_classes: int = 4
    alpha: float = 5.0
    learning_rate: float = 0.01
    batch_size: int = 50
    epochs: int = 200
    runs: int = 3
    seed: int = 0
    reconstruction_enabled: bool = True
    lwm_enabled: bool = True

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, checked_field(f.name, getattr(self, f.name)))
        if self.patch_size < 1 or self.image_size % self.patch_size:
            raise ConfigError("image size must be divisible by patch size")
        grid = self.image_size // self.patch_size
        if grid < 2 or grid & (grid - 1):
            raise ConfigError("superpixel grid per side must be a power of 2 and >= 2")
        if self.patch_size & (self.patch_size - 1):
            raise ConfigError("patch size must be a power of 2")
        try:
            circuit = self.circuit_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if min(self.batch_size, self.epochs, self.runs, self.num_classes, self.channels) < 1:
            raise ConfigError("batch size, epochs, runs, classes, and channels must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        qubits = circuits.make_layout(circuit).total_qubits
        state_bytes = self.batch_size * (STATE_COPIES * (16 << qubits) + DATA_SLOT_BYTES * circuit.data_arity)
        state_bytes += fixed_state_bytes(circuit)
        if state_bytes > STATE_BUDGET_BYTES:
            raise ConfigError(
                f"batch_size {self.batch_size} on {qubits} qubits needs {state_bytes / 2**30:.3g} GiB of "
                f"state stacks, unit states and transfer matrices, over the {STATE_BUDGET_BYTES >> 30} GiB budget"
            )
        features = circuit.num_feature_values
        classifier_bytes = 8 * self.num_classes * (CLASSIFIER_COPIES * (features + 1) + CLASS_ROW_COPIES * self.batch_size)
        if classifier_bytes > STATE_BUDGET_BYTES:
            raise ConfigError(
                f"num_classes {self.num_classes} on {features} features needs {classifier_bytes / 2**30:.3g} GiB of "
                f"classifier copies, over the {STATE_BUDGET_BYTES >> 30} GiB budget"
            )

    @property
    def grid_log(self) -> int:
        return (self.image_size // self.patch_size).bit_length() - 1

    def circuit_config(self) -> circuits.CircuitConfig:
        return circuits.CircuitConfig(
            grid_log=self.grid_log,
            features_per_superpixel=self.features,
            num_blocks=self.blocks,
            kernels_per_block=self.kernels,
            lwm_enabled=self.lwm_enabled,
        )


def fixed_state_bytes(circuit: circuits.CircuitConfig) -> int:
    """The bytes of a training step's state that do not grow with the batch.
    Block b's transfer matrices hold 8 x 4 complex entries per sector, a
    pattern of q_v, q_k and (b > 1) q_f[b-2]: 512 (2M - 1) 2^(nv + kq) bytes."""
    transfers = 512 * (2 * circuit.num_blocks - 1) << (circuit.value_qubits + circuit.kernel_qubits)
    return TRANSFER_COPIES * transfers + BLOCK_BUFFER_BYTES


def checked_field(name: str, value):
    """``value`` for the ``ModelConfig`` field ``name``, checked against the
    type of the field's default (floats also finite); numpy integers and
    bools come back as Python ones. Raises ``ConfigError`` naming the field."""
    kind = type(next(f.default for f in fields(ModelConfig) if f.name == name))
    is_bool = isinstance(value, (bool, np.bool_))
    number = numbers.Integral if kind is int else numbers.Real
    if not (is_bool if kind is bool else isinstance(value, number) and not is_bool):
        article = "an" if kind is int else "a"
        raise ConfigError(f"{name} must be {article} {kind.__name__}, got {value!r:.40}")
    if kind is float:
        if not abs(value) <= sys.float_info.max:  # NaN, infinities and ints beyond the float range
            raise ConfigError(f"{name} must be finite, got {value!r:.40}")
        return value
    return kind(value)


@dataclass
class ParameterStore:
    """Named flat parameter segments with matching Adam moment vectors."""

    segments: dict
    adam_m: dict
    adam_v: dict
    step: int = 0

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            {k: v.copy() for k, v in self.segments.items()},
            {k: v.copy() for k, v in self.adam_m.items()},
            {k: v.copy() for k, v in self.adam_v.items()},
            self.step,
        )

    def lengths(self) -> dict:
        return {k: v.size for k, v in self.segments.items()}


@dataclass
class EpochRow:
    epoch: int
    l_ce: float
    l_mse: float
    loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class RunResult:
    run_index: int
    seed: int
    rows: list
    best_epoch: int
    best_val_loss: float
    best_store: ParameterStore


@dataclass
class EvalMetrics:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray


class HybridModel:
    """Stateless evaluation machinery for one configuration."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.circuit_config = config.circuit_config()
        self.autoencoder = PatchAutoencoder(config.patch_size, config.channels, config.features)
        self.evaluator = circuits.get_evaluator(self.circuit_config)
        self.num_features = self.evaluator.num_features
        self.grid = config.image_size // config.patch_size
        self.segment_lengths = {
            "autoencoder": self.autoencoder.num_params,
            "quantum": self.evaluator.extraction.param_arity,
            "classifier": self.num_features * config.num_classes + config.num_classes,
        }

    # -- parameters ----------------------------------------------------------

    def init_store(self, seed: int) -> ParameterStore:
        rng = np.random.default_rng(seed)
        ae = self.autoencoder.init_params(rng)
        quantum = rng.uniform(0.0, 2 * np.pi, self.segment_lengths["quantum"])
        classifier = np.zeros(self.segment_lengths["classifier"])
        bound = np.sqrt(6.0 / (self.num_features + self.config.num_classes))
        w_size = self.num_features * self.config.num_classes
        classifier[:w_size] = rng.uniform(-bound, bound, w_size)
        segments = {"autoencoder": ae, "quantum": quantum, "classifier": classifier}
        zeros = lambda: {k: np.zeros_like(v) for k, v in segments.items()}
        return ParameterStore(segments, zeros(), zeros())

    def _classifier_views(self, flat: np.ndarray):
        c = self.config.num_classes
        w = flat[: self.num_features * c].reshape(self.num_features, c)
        return w, flat[self.num_features * c :]

    def check_store(self, store: ParameterStore) -> None:
        if store.lengths() != self.segment_lengths:
            raise ConfigError(
                f"parameter store layout {store.lengths()} does not match model {self.segment_lengths}"
            )

    # -- forward -------------------------------------------------------------

    def forward_batch(self, images: np.ndarray, store: ParameterStore, with_caches: bool = False,
                      reconstruct: bool = True) -> dict:
        cfg = self.config
        images = np.asarray(images, dtype=np.float64)
        if images.shape[1:] != (cfg.image_size, cfg.image_size, cfg.channels):
            raise ConfigError(f"images must have shape (*, {cfg.image_size}, {cfg.image_size}, {cfg.channels})")
        batch = images.shape[0]
        tiles = patchify(images, cfg.patch_size)
        patches = tiles.reshape(*tiles.shape[:3], -1)
        angles, enc_cache = self.autoencoder.encode(store.segments["autoencoder"], patches)
        if not np.isfinite(angles).all():  # finite weights can still overflow the encoder
            raise DivergenceError("the encoder's angles are not all finite")
        processed = angles.T.reshape(batch, self.grid, self.grid, cfg.features)
        psi, features, ev_cache = self.evaluator.forward(processed.reshape(batch, -1), store.segments["quantum"])
        if not with_caches:
            ev_cache = None  # it holds a full measured stack: free it before the decoder runs
        w, bias = self._classifier_views(store.segments["classifier"])
        logits = features @ w + bias
        shifted = logits - logits.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        out = {"probs": probs, "processed": processed, "features": features}
        if cfg.reconstruction_enabled and reconstruct:
            recon_patches, dec_cache = self.autoencoder.decode(store.segments["autoencoder"], angles)
            if with_caches:  # the training loss reads the reconstruction in patch layout, as dec_cache["sig"]
                out["dec_cache"] = dec_cache
            else:
                out["reconstruction"] = unpatchify(recon_patches.reshape(tiles.shape))
        else:
            out["reconstruction"] = None
        if with_caches:
            out.update(psi=psi, enc_cache=enc_cache, ev_cache=ev_cache)  # psi is a copy: the backward reads ev_cache
        return out

    def forward_chunks(self, images: np.ndarray, store: ParameterStore, reconstruct: bool = True):
        """Yields ``(slice, forward_batch output)`` for consecutive
        ``batch_size`` slices of ``images``."""
        n = images.shape[0]
        for start in range(0, n, self.config.batch_size):
            sl = slice(start, min(start + self.config.batch_size, n))
            yield sl, self.forward_batch(images[sl], store, reconstruct=reconstruct)

    def forward(self, image: np.ndarray, store: ParameterStore):
        """Single sample: (class probabilities, reconstruction, processed image,
        feature vector) -- the last two feed the representation analyses."""
        self.check_store(store)
        out = self.forward_batch(np.asarray(image)[None], store)
        recon = out["reconstruction"][0] if out["reconstruction"] is not None else None
        return out["probs"][0], recon, out["processed"][0], out["features"][0]

    # -- losses and gradients --------------------------------------------------

    def loss_and_grads(self, images: np.ndarray, labels: np.ndarray, store: ParameterStore):
        """One batch: (l_ce, l_mse, correct count, gradient dict)."""
        cfg = self.config
        labels = np.asarray(labels)
        out = self.forward_batch(images, store, with_caches=True)
        del out["psi"]  # a copy the backward does not read: free it before the decoder and the backward run
        batch = images.shape[0]
        probs = out["probs"]
        l_ce = cross_entropy(probs, labels)
        correct = int((probs.argmax(axis=1) == labels).sum())

        # classifier path
        onehot = np.zeros_like(probs)
        onehot[np.arange(batch), labels] = 1.0
        dlogits = (probs - onehot) / batch
        # rows whose clipped true-class probability saturates contribute no
        # gradient: the computed loss is exactly flat there
        clipped = probs[np.arange(batch), labels] < LOG_CLIP
        dlogits[clipped] = 0.0
        w, _ = self._classifier_views(store.segments["classifier"])
        grad_classifier = np.concatenate(
            [(out["features"].T @ dlogits).ravel(), dlogits.sum(axis=0)]
        )
        cotangents = dlogits @ w.T

        # quantum path, chaining into the encoder through the data slots
        grad_quantum, data_grads = self.evaluator.backward(out["ev_cache"], store.segments["quantum"], cotangents)
        dangles = data_grads.reshape(-1, cfg.features).T

        if cfg.reconstruction_enabled:
            # one difference in patch layout: its mean square is reconstruction_loss, every image having the same
            # number of elements, and scaled in place it is the decoder output's gradient
            dout = np.subtract(out["dec_cache"]["sig"], out["enc_cache"]["patches"])
            flat = dout.ravel()
            l_mse = float(np.einsum("i,i->", flat, flat)) / flat.size  # a sequential sum, unlike a BLAS dot
            dout *= cfg.alpha * 2.0 / dout.size
            grad_ae, dangles_recon = self.autoencoder.decode_backward(
                store.segments["autoencoder"], out["dec_cache"], dout
            )
            dangles = dangles + dangles_recon
        else:
            l_mse = 0.0
            grad_ae = np.zeros(self.segment_lengths["autoencoder"])
        grad_ae = grad_ae + self.autoencoder.encode_backward(
            store.segments["autoencoder"], out["enc_cache"], dangles
        )
        grads = {"autoencoder": grad_ae, "quantum": grad_quantum, "classifier": grad_classifier}
        return l_ce, l_mse, correct, grads


def cross_entropy(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log likelihood over the batch, probabilities clipped at 1e-12."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probabilities.ndim != 2 or probabilities.shape[0] != labels.shape[0]:
        raise ValueError("need one probability row per label")
    if np.any(np.abs(probabilities.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probability rows must sum to 1")
    if labels.min() < 0 or labels.max() >= probabilities.shape[1]:
        raise ValueError("label out of range")
    picked = probabilities[np.arange(labels.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLIP))))


def total_loss(l_ce: float, l_mse: float, alpha: float) -> float:
    if not (np.isfinite(l_ce) and np.isfinite(l_mse)) or l_ce < 0 or l_mse < 0:
        raise ValueError("loss terms must be finite and nonnegative")
    return l_ce + alpha * l_mse


def adam_step(store: ParameterStore, grads: dict, lr: float) -> None:
    """Standard bias-corrected Adam update, in place."""
    for name in SEGMENTS:
        if not np.all(np.isfinite(grads[name])):
            raise DivergenceError(f"non-finite gradient in segment {name}")
    store.step += 1
    t = store.step
    for name in SEGMENTS:
        g = grads[name]
        m = store.adam_m[name]
        v = store.adam_v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        store.segments[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training protocol
# ---------------------------------------------------------------------------


def _epoch_eval(model: HybridModel, images: np.ndarray, labels: np.ndarray, store: ParameterStore):
    """Forward-only loss/accuracy over a split, in batch-size chunks."""
    cfg = model.config
    n = images.shape[0]
    ce_sum = mse_sum = 0.0
    correct = 0
    for sl, out in model.forward_chunks(images, store):
        size = sl.stop - sl.start
        ce_sum += cross_entropy(out["probs"], labels[sl]) * size
        if cfg.reconstruction_enabled:
            mse_sum += reconstruction_loss(images[sl], out["reconstruction"]) * size
        correct += int((out["probs"].argmax(axis=1) == labels[sl]).sum())
    l_ce, l_mse = ce_sum / n, mse_sum / n
    if not (np.isfinite(l_ce) and np.isfinite(l_mse)):
        raise DivergenceError("validation loss is not finite")
    return total_loss(l_ce, l_mse, cfg.alpha), l_ce, l_mse, correct / n


def train_single_run(model: HybridModel, train_split, val_split, run_seed: int, run_index: int = 0) -> RunResult:
    """Minibatch Adam with per-epoch seeded shuffling; keeps the checkpoint
    with the lowest validation loss (earliest epoch wins ties)."""
    cfg = model.config
    train_x, train_y = train_split
    val_x, val_y = val_split
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise DataError("training and validation splits must be non-empty")
    store = model.init_store(run_seed)
    rng = np.random.default_rng(run_seed)
    rows = []
    best_epoch = -1
    best_val = np.inf
    best_store = store.copy()
    n = train_x.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        ce_sum = mse_sum = 0.0
        correct = 0
        try:
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                l_ce, l_mse, batch_correct, grads = model.loss_and_grads(train_x[idx], train_y[idx], store)
                if not (np.isfinite(l_ce) and np.isfinite(l_mse)):
                    raise DivergenceError("loss diverged")
                adam_step(store, grads, cfg.learning_rate)
                ce_sum += l_ce * idx.size
                mse_sum += l_mse * idx.size
                correct += batch_correct
            val_loss, _, _, val_acc = _epoch_eval(model, val_x, val_y, store)
        except DivergenceError as exc:  # every divergence names its epoch and run, and keeps the completed rows
            err = DivergenceError(f"{exc} at epoch {epoch} (run {run_index})")
            err.partial_rows = rows
            raise err from exc
        row = EpochRow(
            epoch=epoch,
            l_ce=ce_sum / n,
            l_mse=mse_sum / n,
            loss=total_loss(ce_sum / n, mse_sum / n, cfg.alpha),
            train_acc=correct / n,
            val_loss=val_loss,
            val_acc=val_acc,
        )
        rows.append(row)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_store = store.copy()
    return RunResult(run_index, run_seed, rows, best_epoch, best_val, best_store)


def evaluate(model: HybridModel, store: ParameterStore, images: np.ndarray, labels: np.ndarray) -> EvalMetrics:
    """Accuracy plus per-class precision/recall/F1 (zero denominators give 0)."""
    model.check_store(store)
    chunks = model.forward_chunks(images, store, reconstruct=False)
    predicted = np.concatenate([out["probs"].argmax(axis=1) for _, out in chunks])
    labels = np.asarray(labels)
    c = model.config.num_classes
    # per-class counts, not a c x c confusion matrix: memory stays linear in the class count
    tp = np.bincount(labels[predicted == labels], minlength=c).astype(np.float64)
    predicted_count, actual_count = np.bincount(predicted, minlength=c), np.bincount(labels, minlength=c)
    precision = np.divide(tp, predicted_count, out=np.zeros(c), where=predicted_count > 0)
    recall = np.divide(tp, actual_count, out=np.zeros(c), where=actual_count > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(c), where=denom > 0)
    return EvalMetrics(float((predicted == labels).mean()), precision, recall, f1)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, store: ParameterStore, config: ModelConfig) -> None:
    """Header line, JSON manifest, then the ``CHECKPOINT_ARRAYS`` of ``store``
    as raw little-endian float64, in that order."""
    manifest = {
        "format_version": 1,
        "segments": [{"name": s, "length": int(store.segments[s].size)} for s in SEGMENTS],
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "epsilon": ADAM_EPS, "step": store.step},
        "config": asdict(config),
        "arrays": CHECKPOINT_ARRAYS,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {len(blob)}\n".encode("ascii"))
        fh.write(blob)
        for arrays in (store.segments, store.adam_m, store.adam_v):
            for s in SEGMENTS:
                fh.write(np.ascontiguousarray(arrays[s], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (ParameterStore, ModelConfig). The header, the manifest (which
    must declare exactly ``SEGMENTS`` and ``CHECKPOINT_ARRAYS``, in order) and
    the payload size are checked before any array is read, and every array
    must be finite; a malformed file raises ``DataError``."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no checkpoint at {path}")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        line = fh.readline(64)  # the header line alone, so that no other file is read whole
        magic, _, length = line[:-1].decode("ascii", errors="replace").partition(" ")
        if magic != CHECKPOINT_MAGIC or line[-1:] != b"\n":
            raise DataError(f"{path} is not a checkpoint file (no '{CHECKPOINT_MAGIC} <length>' header line)")
        if not (length.isascii() and length.isdigit()):
            raise DataError(f"checkpoint {path}: manifest length {length!r} in the header is not an integer")
        offset = len(line) + int(length)
        if offset > size:
            raise DataError(f"checkpoint {path} is truncated inside its manifest")
        try:
            manifest = json.loads(fh.read(int(length)))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
            raise DataError(f"checkpoint {path}: manifest is not valid JSON: {exc}") from exc
        lengths, step, config = _checked_manifest(manifest, path)
        payload = 24 * sum(lengths)  # a parameter array and two moment arrays of float64 per segment
        if size - offset != payload:
            raise DataError(f"checkpoint {path} has {size - offset} array bytes, its manifest declares {payload}")
        values = np.frombuffer(fh.read(), dtype="<f8").copy()
    bounds = np.cumsum([0] + 3 * lengths)
    finite = np.isfinite(values)
    if not finite.all():
        first = np.searchsorted(bounds, finite.argmin(), side="right") - 1
        raise DataError(f"checkpoint {path}: array {CHECKPOINT_ARRAYS[first]} holds non-finite values")
    arrays = np.split(values, bounds[1:-1])
    return ParameterStore(*(dict(zip(SEGMENTS, arrays[k:])) for k in (0, 3, 6)), step), config


def _checked_manifest(manifest, path) -> tuple:
    """(segment lengths in ``SEGMENTS`` order, Adam step, ModelConfig) of a
    checkpoint manifest, or ``DataError`` naming what is malformed."""

    def bad(what):
        return DataError(f"checkpoint {path}: manifest {what}")

    check_manifest_object(manifest, ("segments", "adam", "config", "arrays"), f"checkpoint {path}: manifest")
    segments = manifest["segments"]
    if not (isinstance(segments, list) and all(isinstance(e, dict) and _is_count(e.get("length")) for e in segments)
            and [e.get("name") for e in segments] == list(SEGMENTS)):
        raise bad(f"'segments' must be {', '.join(SEGMENTS)}, in this order, each with a non-negative integer 'length'")
    adam = manifest["adam"]
    if not isinstance(adam, dict) or not _is_count(adam.get("step")):
        raise bad("'adam' must be an object with a non-negative integer 'step'")
    if manifest["arrays"] != list(CHECKPOINT_ARRAYS):
        raise bad(f"'arrays' must be {', '.join(CHECKPOINT_ARRAYS)}, in this order")
    if not isinstance(manifest["config"], dict):
        raise bad("'config' is not an object")
    known = {f.name for f in fields(ModelConfig)}
    try:
        config = ModelConfig(**{k: v for k, v in manifest["config"].items() if k in known})
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise bad(f"'config' is invalid: {exc}") from exc
    return [e["length"] for e in segments], adam["step"], config
