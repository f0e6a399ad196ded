import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from quanvnet import circuits, dataio
from quanvnet import model as qm
from quanvnet.errors import ConfigError, DataError, DivergenceError

import oracles

SMALL = qm.ModelConfig(
    image_size=16,
    patch_size=4,
    features=3,
    blocks=1,
    kernels=2,
    channels=2,
    num_classes=3,
    alpha=5.0,
    batch_size=4,
    epochs=2,
    runs=1,
    seed=0,
)


@pytest.fixture(scope="module")
def small_model():
    return qm.HybridModel(SMALL)


def random_store(model, rng):
    """Continuous draw for every parameter so FD checks avoid ReLU kinks."""
    store = model.init_store(int(rng.integers(1 << 31)))
    store.segments["autoencoder"] = rng.uniform(-0.5, 0.5, model.segment_lengths["autoencoder"])
    store.segments["quantum"] = rng.uniform(0, 2 * np.pi, model.segment_lengths["quantum"])
    store.segments["classifier"] = rng.uniform(-0.2, 0.2, model.segment_lengths["classifier"])
    return store


class TestConfig:
    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError):
            qm.ModelConfig(image_size=30, patch_size=4)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            qm.ModelConfig(image_size=12, patch_size=4)  # grid of 3

    def test_structural_errors_wrapped(self):
        with pytest.raises(ConfigError):
            qm.ModelConfig(features=10)
        with pytest.raises(ConfigError):
            qm.ModelConfig(alpha=-1)


class TestForward:
    def test_probabilities_normalized(self, small_model):
        rng = np.random.default_rng(1)
        store = random_store(small_model, rng)
        images = rng.uniform(0, 1, (3, 16, 16, 2))
        out = small_model.forward_batch(images, store)
        assert np.all(out["probs"] >= 0)
        assert np.allclose(out["probs"].sum(axis=1), 1.0, atol=1e-12)

    def test_zero_classifier_gives_uniform(self, small_model):
        rng = np.random.default_rng(2)
        store = random_store(small_model, rng)
        store.segments["classifier"][:] = 0.0
        probs, _, _, _ = small_model.forward(rng.uniform(0, 1, (16, 16, 2)), store)
        assert np.allclose(probs, 1 / 3, atol=1e-15)

    def test_zero_ae_and_quantum_match_half_pi_circuit(self, small_model):
        rng = np.random.default_rng(3)
        store = random_store(small_model, rng)
        store.segments["autoencoder"][:] = 0.0
        store.segments["quantum"][:] = 0.0
        _, _, processed, features = small_model.forward(rng.uniform(0, 1, (16, 16, 2)), store)
        assert np.allclose(processed, np.pi / 2, atol=1e-15)
        cc = SMALL.circuit_config()
        direct = circuits.quantum_forward(cc, np.full((4, 4, 3), np.pi / 2), np.zeros(36))
        assert np.allclose(features, direct, atol=1e-12)

    def test_each_superpixel_and_reconstruction_tile_is_its_own_patch_through_the_autoencoder(self, small_model):
        # the autoencoder's (E, patches) output reshapes without error in any axis order, so pin
        # every image's tile (x, y) to the single-patch encoder and decoder
        rng = np.random.default_rng(5)
        store = random_store(small_model, rng)
        images = rng.uniform(0, 1, (3, 16, 16, 2))
        out = small_model.forward_batch(images, store)
        ae, params, p = small_model.autoencoder, store.segments["autoencoder"], SMALL.patch_size
        for i, x, y in np.ndindex(3, 4, 4):
            tile = np.s_[i, x * p:(x + 1) * p, y * p:(y + 1) * p]
            angles = out["processed"][i, x, y]
            assert np.max(np.abs(angles - ae.encode_patch(params, images[tile]))) <= 1e-12
            assert np.max(np.abs(out["reconstruction"][tile] - ae.decode_patch(params, angles))) <= 1e-12

    def test_forward_returns_all_intermediates(self, small_model):
        rng = np.random.default_rng(4)
        store = random_store(small_model, rng)
        probs, recon, processed, features = small_model.forward(rng.uniform(0, 1, (16, 16, 2)), store)
        assert probs.shape == (3,)
        assert recon.shape == (16, 16, 2)
        assert processed.shape == (4, 4, 3)
        assert features.shape == (16,)
        assert np.all(processed >= 0) and np.all(processed <= np.pi)
        assert np.all(recon >= 0) and np.all(recon <= 1)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert qm.cross_entropy(probs, np.array([0, 1])) == 0.0

    def test_fifty_fifty(self):
        assert abs(qm.cross_entropy(np.array([[0.5, 0.5]]), np.array([0])) - np.log(2)) <= 1e-15

    def test_batch_mean(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        got = qm.cross_entropy(probs, np.array([0, 0]))
        assert abs(got - np.log(2) / 2) <= 1e-12
        assert abs(got - 0.346574) <= 1e-6

    def test_guards(self):
        with pytest.raises(ValueError):
            qm.cross_entropy(np.array([[0.9, 0.3]]), np.array([0]))
        with pytest.raises(ValueError):
            qm.cross_entropy(np.array([[0.5, 0.5]]), np.array([2]))


class TestTotalLoss:
    def test_weighted_sum(self):
        assert qm.total_loss(0.5, 0.1, 5.0) == 1.0

    def test_alpha_zero_is_ce_only(self):
        assert qm.total_loss(0.7, 123.0, 0.0) == 0.7

    def test_zero_case(self):
        assert qm.total_loss(0.0, 0.0, 7.0) == 0.0

    def test_alpha_affine_decoupling(self):
        l_ce, l_mse = 0.83, 0.041
        alphas = np.array([0.0, 1.0, 3.0, 5.0])
        losses = np.array([qm.total_loss(l_ce, l_mse, a) for a in alphas])
        slopes = np.diff(losses) / np.diff(alphas)
        assert np.allclose(slopes, l_mse, atol=1e-15)


class TestBackward:
    def test_full_model_matches_finite_differences(self, small_model):
        rng = np.random.default_rng(5)
        images = rng.uniform(0, 1, (1, 16, 16, 2))
        labels = np.array([1])
        store = random_store(small_model, rng)
        flat = np.concatenate([store.segments[s] for s in qm.SEGMENTS])
        sizes = [store.segments[s].size for s in qm.SEGMENTS]

        def unflatten(x):
            s = store.copy()
            parts = np.split(x, np.cumsum(sizes)[:-1])
            for name, part in zip(qm.SEGMENTS, parts):
                s.segments[name] = part
            return s

        def loss(x):
            st = unflatten(x)
            out = small_model.forward_batch(images, st)
            l_ce = qm.cross_entropy(out["probs"], labels)
            l_mse = qm.reconstruction_loss(images, out["reconstruction"])
            return qm.total_loss(l_ce, l_mse, SMALL.alpha)

        l_ce, l_mse, _, grads = small_model.loss_and_grads(images, labels, store)
        got = np.concatenate([grads[s] for s in qm.SEGMENTS])
        want = oracles.central_differences(loss, flat, eps=1e-4)
        assert oracles.relative_error(got, want) <= 1e-4

    def test_reconstruction_off_drops_decoder_path(self, small_model):
        rng = np.random.default_rng(6)
        images = rng.uniform(0, 1, (2, 16, 16, 2))
        labels = np.array([0, 2])
        store = random_store(small_model, rng)

        off_model = qm.HybridModel(
            qm.ModelConfig(**{**SMALL.__dict__, "reconstruction_enabled": False})
        )
        _, l_mse_off, _, grads_off = off_model.loss_and_grads(images, labels, store)
        assert l_mse_off == 0.0

        zero_alpha = qm.HybridModel(qm.ModelConfig(**{**SMALL.__dict__, "alpha": 0.0}))
        _, _, _, grads_zero = zero_alpha.loss_and_grads(images, labels, store)
        for seg in qm.SEGMENTS:
            assert np.allclose(grads_off[seg], grads_zero[seg], atol=1e-15)

    @pytest.mark.parametrize("config", [SMALL, qm.ModelConfig()])
    def test_the_training_reconstruction_term_is_the_reconstruction_loss(self, config):
        # loss_and_grads takes its mean square in patch layout; reconstruction_loss averages per image
        model, rng = qm.HybridModel(config), np.random.default_rng(17)
        images = rng.uniform(0, 1, (3, config.image_size, config.image_size, config.channels))
        store = random_store(model, rng)
        l_mse = model.loss_and_grads(images, np.arange(3) % config.num_classes, store)[1]
        want = qm.reconstruction_loss(images, model.forward_batch(images, store)["reconstruction"])
        assert want > 0 and abs(l_mse - want) <= 1e-14 * want

    def test_duplicated_batch_gives_same_gradients(self, small_model):
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (3, 16, 16, 2))
        labels = np.array([0, 1, 2])
        store = random_store(small_model, rng)
        _, _, _, single = small_model.loss_and_grads(images, labels, store)
        _, _, _, doubled = small_model.loss_and_grads(
            np.concatenate([images, images]), np.concatenate([labels, labels]), store
        )
        for seg in qm.SEGMENTS:
            assert np.allclose(single[seg], doubled[seg], rtol=1e-11, atol=1e-13)

    def test_one_step_builds_the_unit_parts_in_the_forward_and_runs_no_sweep(self, small_model, monkeypatch):
        # the forward builds the parts twice, for the encoding and for every extraction unit; the backward reads
        # them and the measured state from its cache; nothing runs a compiled sweep
        rng = np.random.default_rng(8)
        images = rng.uniform(0, 1, (2, 16, 16, 2))
        store = random_store(small_model, rng)
        ev, calls = small_model.evaluator, []
        real_unit_parts = circuits._unit_parts

        def unit_parts(angles):
            calls.append("unit parts")
            return real_unit_parts(angles)

        def sweep(name):
            def refuse(*args, **kwargs):
                calls.append(name)

            return refuse

        # and that cache holds the unit states and parts, not their angle derivatives, each block's input, the
        # unit matrices, value maps, LWM pairs and transfer matrices
        real_backward, cached = ev.backward, []

        def backward(cache, *args):
            cached.append(sorted(cache))
            return real_backward(cache, *args)

        monkeypatch.setattr(circuits, "_unit_parts", unit_parts)
        for name in ("run_compiled", "adjoint_sweep"):
            monkeypatch.setattr(circuits.sv, name, sweep(name))
        monkeypatch.setattr(ev, "backward", backward)
        small_model.loss_and_grads(images, np.array([0, 2]), store)
        assert calls == ["unit parts"] * 2
        assert cached == [["inputs", "maps", "pairs", "parts", "phi", "states", "transfers", "units"]]

    def test_a_forward_only_batch_builds_no_derivative_arrays(self, small_model, monkeypatch):
        # every array the unit parts hand out holds one value per unit, none a (3, ...) stack of angle derivatives
        rng = np.random.default_rng(9)
        images = rng.uniform(0, 1, (2, 16, 16, 2))
        store = random_store(small_model, rng)
        real, returned = circuits._unit_parts, []

        def unit_parts(angles):
            returned.append(real(angles))
            return returned[-1]

        monkeypatch.setattr(circuits, "_unit_parts", unit_parts)
        small_model.forward_batch(images, store)
        config = small_model.circuit_config
        units = small_model.evaluator.extraction.param_arity // 3
        shapes = [(config.value_qubits,) + (2,) * (2 * config.grid_log) + (2,), (units,)]  # (qubit, pairs, row)
        assert [[a.shape for a in parts] for parts in returned] == [[shape] * 3 for shape in shapes]


class TestAdam:
    def _store(self):
        segs = {"autoencoder": np.zeros(2), "quantum": np.array([1.0]), "classifier": np.zeros(1)}
        z = lambda: {k: np.zeros_like(v) for k, v in segs.items()}
        return qm.ParameterStore({k: v.copy() for k, v in segs.items()}, z(), z())

    def test_zero_gradients_leave_parameters(self):
        store = self._store()
        before = {k: v.copy() for k, v in store.segments.items()}
        qm.adam_step(store, {k: np.zeros_like(v) for k, v in store.segments.items()}, 0.01)
        for k in qm.SEGMENTS:
            assert np.array_equal(store.segments[k], before[k])
        assert store.step == 1

    def test_first_step_unit_gradient(self):
        store = self._store()
        grads = {k: np.zeros_like(v) for k, v in store.segments.items()}
        grads["quantum"] = np.array([1.0])
        qm.adam_step(store, grads, 0.01)
        assert abs(store.segments["quantum"][0] - (1.0 - 0.01)) <= 1e-9

    def test_gradient_scale_invariance_on_first_step(self):
        a, b = self._store(), self._store()
        g1 = {"autoencoder": np.array([0.3, -0.2]), "quantum": np.array([1.5]), "classifier": np.array([-0.7])}
        g10 = {k: 10 * v for k, v in g1.items()}
        qm.adam_step(a, g1, 0.01)
        qm.adam_step(b, g10, 0.01)
        for k in qm.SEGMENTS:
            assert np.allclose(a.segments[k], b.segments[k], atol=1e-8)

    def test_non_finite_gradients_rejected(self):
        store = self._store()
        grads = {k: np.zeros_like(v) for k, v in store.segments.items()}
        grads["classifier"] = np.array([np.nan])
        with pytest.raises(DivergenceError):
            qm.adam_step(store, grads, 0.01)


def tiny_dataset(tmp_path, train=30, val=15, test=15):
    spec = dataio.SyntheticSpec(num_classes=3, image_size=16, channels=2,
                                train_samples=train, validation_samples=val,
                                test_samples=test, noise=0.1, seed=21)
    dataio.generate_synthetic(spec, tmp_path)
    return dataio.load_dataset(tmp_path)


class TestTraining:
    def test_one_epoch_one_batch_bookkeeping(self, small_model, tmp_path):
        data = tiny_dataset(tmp_path, train=4, val=4)
        cfg = qm.ModelConfig(**{**SMALL.__dict__, "epochs": 1, "batch_size": 4, "runs": 1})
        model = qm.HybridModel(cfg)
        result = qm.train_single_run(model, data["train"], data["validation"], run_seed=3)
        assert len(result.rows) == 1
        assert result.best_store.step == 1  # ceil(4/4) optimizer steps
        assert result.best_epoch == 1

    def test_loss_column_is_composed(self, small_model, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = qm.ModelConfig(**{**SMALL.__dict__, "epochs": 2, "batch_size": 8})
        model = qm.HybridModel(cfg)
        result = qm.train_single_run(model, data["train"], data["validation"], run_seed=1)
        for row in result.rows:
            assert row.loss == qm.total_loss(row.l_ce, row.l_mse, cfg.alpha)

    def test_fixed_seed_is_bit_identical(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = qm.ModelConfig(**{**SMALL.__dict__, "epochs": 2, "batch_size": 8})
        model = qm.HybridModel(cfg)
        a = qm.train_single_run(model, data["train"], data["validation"], run_seed=9)
        b = qm.train_single_run(model, data["train"], data["validation"], run_seed=9)
        assert a.rows == b.rows
        for seg in qm.SEGMENTS:
            assert np.array_equal(a.best_store.segments[seg], b.best_store.segments[seg])

    def test_validation_loss_improves(self, tmp_path):
        data = tiny_dataset(tmp_path, train=48, val=24)
        cfg = qm.ModelConfig(**{**SMALL.__dict__, "epochs": 6, "batch_size": 12})
        model = qm.HybridModel(cfg)
        result = qm.train_single_run(model, data["train"], data["validation"], run_seed=2)
        assert result.best_val_loss < result.rows[0].val_loss or result.best_epoch == 1

    def test_empty_dataset_rejected(self, small_model):
        empty = (np.zeros((0, 16, 16, 2)), np.zeros(0, dtype=int))
        with pytest.raises(DataError):
            qm.train_single_run(small_model, empty, empty, run_seed=0)


class TestEvaluate:
    def test_perfect_classifier(self, small_model):
        labels = np.array([0, 1, 2, 0])
        metrics = _metrics_from_predictions(labels, labels)
        assert metrics.accuracy == 1.0
        assert np.all(metrics.f1 == 1.0)

    def test_never_predicted_class_gets_zero_f1(self):
        labels = np.array([0, 1, 2])
        predicted = np.array([0, 1, 1])
        metrics = _metrics_from_predictions(labels, predicted)
        assert metrics.f1[2] == 0.0

    def test_hand_confusion_matrix(self):
        # class 0: TP=1 (0->0), FN=1 (0->1), FP=1 (1->0)
        labels = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 0, 1])
        metrics = _metrics_from_predictions(labels, predicted)
        assert metrics.precision[0] == 0.5
        assert metrics.recall[0] == 0.5
        assert metrics.f1[0] == 0.5


def _metrics_from_predictions(labels, predicted):
    c = int(max(labels.max(), predicted.max())) + 1
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    tp = np.diag(confusion).astype(np.float64)
    pc, ac = confusion.sum(axis=0), confusion.sum(axis=1)
    precision = np.divide(tp, pc, out=np.zeros(c), where=pc > 0)
    recall = np.divide(tp, ac, out=np.zeros(c), where=ac > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(c), where=denom > 0)
    return qm.EvalMetrics(float((predicted == labels).mean()), precision, recall, f1)


class TestEvaluateEndToEnd:
    def test_evaluate_runs_on_model(self, small_model):
        rng = np.random.default_rng(11)
        store = random_store(small_model, rng)
        images = rng.uniform(0, 1, (7, 16, 16, 2))
        labels = rng.integers(0, 3, 7)
        metrics = qm.evaluate(small_model, store, images, labels)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.f1.shape == (3,)

    def test_evaluate_scores_without_decoding_bitwise_as_the_decoding_forward(self, small_model, monkeypatch):
        rng = np.random.default_rng(13)
        store = random_store(small_model, rng)
        images = rng.uniform(0, 1, (7, 16, 16, 2))
        labels = np.arange(7) % 3
        decoding = [small_model.forward_batch(images[sl], store) for sl in (slice(0, 4), slice(4, 7))]
        real, reconstructions = qm.HybridModel.forward_batch, []

        def spy(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            reconstructions.append(out["reconstruction"])
            return out

        monkeypatch.setattr(qm.HybridModel, "forward_batch", spy)
        metrics = qm.evaluate(small_model, store, images, labels)
        assert [r is None for r in reconstructions] == [True, True]
        assert all(out["reconstruction"] is not None for out in decoding)
        want = _metrics_from_predictions(labels, np.concatenate([out["probs"] for out in decoding]).argmax(axis=1))
        assert metrics.accuracy == want.accuracy
        for name in ("precision", "recall", "f1"):
            assert np.array_equal(getattr(metrics, name), getattr(want, name))

    def test_layout_mismatch_rejected(self, small_model):
        other = qm.HybridModel(qm.ModelConfig(**{**SMALL.__dict__, "features": 6}))
        store = other.init_store(0)
        with pytest.raises(ConfigError):
            qm.evaluate(small_model, store, np.zeros((1, 16, 16, 2)), np.zeros(1, dtype=int))


def record_reads(monkeypatch) -> list:
    """Route the model module's ``open`` through a wrapper and return the list
    of the byte counts read through each file object."""
    read, real_open = [], open

    class Recording:
        def __init__(self, *args):
            self.fh = real_open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            def call(*args):
                out = getattr(self.fh, name)(*args)
                read.append(len(out))
                return out
            return call

    monkeypatch.setattr(qm, "open", Recording, raising=False)
    return read


class TestCheckpoint:
    def test_round_trip_bit_exact(self, small_model, tmp_path):
        rng = np.random.default_rng(12)
        store = random_store(small_model, rng)
        store.adam_m["quantum"][:] = rng.normal(size=store.adam_m["quantum"].shape)
        store.step = 17
        path = tmp_path / "model.ckpt"
        qm.save_checkpoint(path, store, SMALL)
        loaded, config = qm.load_checkpoint(path)
        assert config == SMALL
        assert loaded.step == 17
        for seg in qm.SEGMENTS:
            assert np.array_equal(loaded.segments[seg], store.segments[seg])
            assert np.array_equal(loaded.adam_m[seg], store.adam_m[seg])
            assert np.array_equal(loaded.adam_v[seg], store.adam_v[seg])

    def test_forward_identical_after_round_trip(self, small_model, tmp_path):
        rng = np.random.default_rng(13)
        store = random_store(small_model, rng)
        path = tmp_path / "model.ckpt"
        qm.save_checkpoint(path, store, SMALL)
        loaded, _ = qm.load_checkpoint(path)
        image = rng.uniform(0, 1, (16, 16, 2))
        a = small_model.forward(image, store)
        b = small_model.forward(image, loaded)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[3], b[3])

    def test_one_record_too_long_is_rejected_before_the_arrays_are_read(self, small_model, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        qm.save_checkpoint(path, small_model.init_store(0), SMALL)
        header = path.read_bytes().partition(b"\n")[0] + b"\n"
        with open(path, "ab") as fh:
            fh.write(bytes(8))  # one float64 more than the manifest declares
        read = record_reads(monkeypatch)
        with pytest.raises(DataError, match="array bytes"):
            qm.load_checkpoint(path)
        assert sum(read) == len(header) + int(header.split()[1]) < path.stat().st_size

    def test_a_file_without_a_header_line_is_rejected_after_its_first_64_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(qm.CHECKPOINT_MAGIC.encode() + b" " + b"1" * (1 << 16) + b"\n")
        read = record_reads(monkeypatch)
        with pytest.raises(DataError, match="not a checkpoint file"):
            qm.load_checkpoint(path)
        assert read == [64]

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world\nmore")
        with pytest.raises(DataError):
            qm.load_checkpoint(path)


def test_numpy_scalar_config_fields_become_python_values():
    config = qm.ModelConfig(image_size=np.int64(16), seed=np.uint8(3), alpha=np.float64(2.0),
                            lwm_enabled=np.bool_(False))
    assert config == qm.ModelConfig(image_size=16, seed=3, alpha=2.0, lwm_enabled=False)
    assert type(config.image_size) is int and type(config.lwm_enabled) is bool
    json.dumps(asdict(config))  # checkpoints can write it


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.nan), 10**400])
@pytest.mark.parametrize("field", ["alpha", "learning_rate"])
def test_non_finite_float_fields_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        qm.ModelConfig(**{field: value})


def test_seed_must_be_non_negative():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        qm.ModelConfig(seed=-1)


def test_state_stacks_over_the_budget_rejected_before_any_allocation():
    # 20 qubits (g=7, E=9, M=2, K=2): STATE_COPIES stacks of 16 MiB and DATA_SLOT_BYTES
    # for each of the 147456 data slots per row fit 23 rows in 2 GiB
    assert qm.ModelConfig(image_size=512, batch_size=23).circuit_config().grid_log == 7
    with pytest.raises(ConfigError, match="batch_size 24 on 20 qubits"):
        qm.ModelConfig(image_size=512, batch_size=24)
    with pytest.raises(ConfigError, match="batch_size 50 on 22 qubits"):
        qm.ModelConfig(image_size=1024)
    qm.ModelConfig(image_size=1024, batch_size=1)



def test_a_classifier_over_the_budget_rejected_before_any_allocation():
    # canonical, 64 features at batch 50: CLASSIFIER_COPIES x 65 and CLASS_ROW_COPIES x 50 float64 per class
    # fit 273913 classes in 2 GiB
    qm.ModelConfig(num_classes=273913)
    with pytest.raises(ConfigError, match="num_classes 273914 on 64 features needs 2 GiB"):
        qm.ModelConfig(num_classes=273914)
    with pytest.raises(ConfigError, match="num_classes 100000000000 on 64 features"):
        qm.ModelConfig(num_classes=100_000_000_000)


def test_a_run_holds_at_most_classifier_copies_of_a_wide_classifier(tmp_path):
    # 2000 classes on 64 features: a two-epoch run, its checkpoint and its evaluation peak within the classifier's
    # copies plus the state budget of its 9 qubits (the run's other arrays are smaller still)
    config = qm.ModelConfig(image_size=8, patch_size=2, channels=1, blocks=1, num_classes=2000, batch_size=8,
                            epochs=2, runs=1)
    model = qm.HybridModel(config)
    rng = np.random.default_rng(7)
    images, labels = rng.uniform(0, 1, (8, 8, 8, 1)), rng.integers(0, 3, 8)
    tracemalloc.start()
    try:
        result = qm.train_single_run(model, (images, labels), (images, labels), 0)
        qm.save_checkpoint(tmp_path / "run0.ckpt", result.best_store, config)
        qm.evaluate(model, result.best_store, images, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    circuit = config.circuit_config()
    assert model.num_features == 64 and circuits.make_layout(circuit).total_qubits == 9
    state = 8 * (qm.STATE_COPIES * (16 << 9) + qm.DATA_SLOT_BYTES * circuit.data_arity) + qm.fixed_state_bytes(circuit)
    assert peak <= 8 * 2000 * (qm.CLASSIFIER_COPIES * 65 + qm.CLASS_ROW_COPIES * 8) + state

def _evaluator_step_peak(config, rows):
    """(evaluator, amplitudes, features, tracemalloc peak) of one forward and
    backward on a fresh evaluator at ``rows`` random rows."""
    rng = np.random.default_rng(31)
    ev = circuits.QuantumEvaluator(config)
    data = rng.uniform(0, np.pi, (rows, config.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.extraction.param_arity)
    cot = rng.normal(size=(rows, ev.num_features))
    tracemalloc.start()
    try:
        # held through the backward, as loss_and_grads holds forward_batch's psi
        amps, features, cache = ev.forward(data, params)
        ev.backward(cache, params, cot)
        return ev, amps, features, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 18 qubits at batch 2; the canonical 12 qubits at batch 50; at batch 1,
# where the transfer matrices and a block's batch-summed overlap do not shrink
# with the batch, the canonical 12 qubits, 17 qubits with 6-qubit blocks, 10
# qubits with 5-qubit LWM pairs on the data layout, a 6-qubit head block on 9
# qubits and 1024 sectors on 13; and a thin circuit (E = 3, K = 1, M = 1),
# whose 3072 data slots per row outweigh its 12 qubits, within the stacks plus
# DATA_SLOT_BYTES per slot, and fixed_state_bytes
THIN = circuits.CircuitConfig(5, 3, 1, 1)


@pytest.mark.parametrize("config, rows", [(circuits.CircuitConfig(6, 9, 2, 2), 2),
                                          (circuits.CircuitConfig(3, 9, 2, 2), 50),
                                          (circuits.CircuitConfig(3, 9, 2, 2), 1),
                                          (circuits.CircuitConfig(4, 18, 1, 4), 1),
                                          (circuits.CircuitConfig(4, 3, 1, 1), 1),
                                          (circuits.CircuitConfig(1, 18, 1, 1), 1),
                                          (circuits.CircuitConfig(1, 30, 1, 1), 1),
                                          (THIN, 1), (THIN, 3), (THIN, 20)])
def test_one_evaluator_step_holds_at_most_state_copies_stacks(config, rows):
    ev, amps, features, peak = _evaluator_step_peak(config, rows)
    assert amps.shape == (rows, 1 << ev.layout.total_qubits) and features.shape == (rows, ev.num_features)
    data_bytes = qm.DATA_SLOT_BYTES * config.data_arity if config == THIN else 0
    stacks = rows * (qm.STATE_COPIES * (16 << ev.layout.total_qubits) + data_bytes)
    assert peak <= stacks + qm.fixed_state_bytes(config)


def test_the_canonical_batch_50_step_peaks_within_3_8_stacks():
    # 3.39 stacks with the returned amplitudes held: the bra is written over phi, which holds the measured
    # state, and each block's input bra over its cached input; a measured state kept beside the bra through
    # the blocks adds half a stack
    ev, _, _, peak = _evaluator_step_peak(circuits.CircuitConfig(3, 9, 2, 2), 50)
    assert peak <= 3.8 * 50 * (16 << ev.layout.total_qubits)


def test_a_canonical_training_step_frees_the_returned_amplitudes():
    # loss_and_grads drops forward_batch's amplitudes, a copy the backward does not read, before the decoder
    # and the backward run: 19.6 MiB; holding them through the step took 21.2 MiB
    model = qm.HybridModel(qm.ModelConfig())
    store = model.init_store(3)
    rng = np.random.default_rng(5)
    images, labels = rng.uniform(0, 1, (50, 32, 32, 4)), rng.integers(0, 4, 50)
    model.loss_and_grads(images, labels, store)  # the build of the transfer matrices is not the step's
    tracemalloc.start()
    try:
        model.loss_and_grads(images, labels, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21.2 * 2**20
