"""What the benchmark in ``perfbench/`` relies on from the simulator.

The benchmark slices ``QuantumEvaluator.compiled`` at the length of the
encoding fragment's instruction list, replays the two parts with
``run_compiled`` and ``adjoint_sweep``, reads ``kind``, ``idx0``, ``idx1`` and
``angle`` of every compiled entry to count work, and clears the compile
cache between runs. These tests pin each of those properties on the
canonical 12-qubit circuit.

It also wraps ``model.train_single_run``, ``model.adam_step`` and
``HybridModel.forward_batch`` as module and class attributes, drives training
through ``cli.main``, counts one ``evaluate`` operation per ``forward_batch``
call and times ``HybridModel.forward``; the last tests pin those call paths on
a small geometry. Its per-layer trace wraps the four ``PatchAutoencoder``
passes, so one training step must call each of them once.
"""

import json
from dataclasses import asdict

import numpy as np

from quanvnet import circuits as qc
from quanvnet import cli, dataio
from quanvnet import model as qm
from quanvnet import statevector as sv
from quanvnet.autoencoder import PatchAutoencoder

import oracles

CANONICAL = qc.CircuitConfig(grid_log=3, features_per_superpixel=9, num_blocks=2, kernels_per_block=2)
ROWS = 2


def _setup():
    ev = qc.get_evaluator(CANONICAL)
    n_enc = len(qc.build_encoding(CANONICAL, ev.layout).instructions)
    rng = np.random.default_rng(500)
    data = rng.uniform(0, np.pi, (ROWS, ev.program.data_arity))
    params = rng.uniform(0, 2 * np.pi, ev.program.param_arity)
    return ev, n_enc, data, params, rng


def _zero_states(num_qubits):
    amps = np.zeros((ROWS, 1 << num_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def test_encoding_prefix_replays_to_the_oracle_state():
    ev, n_enc, data, params, _ = _setup()
    got = _zero_states(ev.layout.total_qubits)
    sv.run_compiled(ev.compiled[:n_enc], got, data, None)
    size = CANONICAL.grid_size
    for row in range(ROWS):
        want = oracles.encoding_state_oracle(
            CANONICAL.grid_log, CANONICAL.features_per_superpixel, ev.layout.q_l, ev.layout.q_v,
            ev.layout.total_qubits, data[row].reshape(size, size, CANONICAL.features_per_superpixel),
        )
        assert np.max(np.abs(got[row] - want)) <= 1e-10
    sv.run_compiled(ev.compiled[n_enc:], got, data, params)
    amps, _, _ = ev.forward(data, params)
    assert np.max(np.abs(got - amps)) <= 1e-10


def test_extraction_suffix_sweep_gives_the_full_parameter_gradient():
    ev, n_enc, data, params, rng = _setup()
    amps, _, _ = ev.forward(data, params)
    bra = amps * rng.normal(size=amps.shape)  # any cotangent state does: only the sweeps are compared
    whole, _ = sv.adjoint_sweep(ev.compiled, amps, bra, data, params, ev.program.param_arity)
    suffix, _ = sv.adjoint_sweep(ev.compiled[n_enc:], amps, bra, data, params, ev.program.param_arity)
    assert np.max(np.abs(whole)) > 1e-3
    assert np.max(np.abs(suffix - whole)) <= 1e-10


def test_compiled_entries_expose_the_counted_fields():
    ev, n_enc, _, _, _ = _setup()
    assert n_enc == 774
    assert len(ev.compiled) - n_enc == 67  # 1 kernel-register H + 66 fused units
    for cg in ev.compiled:
        assert cg.kind in sv.GATE_KINDS + ("U",)
        assert len(cg.idx0) == len(cg.idx1) > 0
        assert cg.angle is None or cg.angle[0] in ("const", "data", "param")
    units = [cg for cg in ev.compiled if cg.kind == "U"]
    assert len(units) == 66
    assert all(cg.angle == sv.param_slot(cg.slots[0]) for cg in units)
    assert sorted(s for cg in units for s in cg.slots) == list(range(ev.program.param_arity))
    assert all(cg.angle is not None and cg.angle[0] == "data" for cg in ev.compiled[:n_enc] if cg.kind in sv.ROTATION_KINDS)


def test_evaluator_sweeps_run_no_data_bound_op(monkeypatch):
    # the encoding and the transfer matrices are built in closed form: a fresh evaluator, whose forward builds
    # the blocks, and its backward run neither sweep
    _, _, data, params, rng = _setup()
    ev = qc.QuantumEvaluator(CANONICAL)
    swept = []
    for name in ("run_compiled", "unapply_compiled"):
        real = getattr(sv, name)

        def spy(compiled, *args, real=real, name=name, **kwargs):
            swept.append((name, compiled))
            return real(compiled, *args, **kwargs)

        monkeypatch.setattr(sv, name, spy)
    _, _, cache = ev.forward(data, params)
    ev.backward(cache, params, rng.normal(size=(ROWS, ev.num_features)))
    assert swept == []


def test_compile_cache_can_be_cleared():
    assert callable(sv.compile_program.cache_clear)
    assert callable(qc.get_evaluator.cache_clear)


SMALL = qm.ModelConfig(image_size=8, patch_size=4, features=3, blocks=1, kernels=2, channels=1,
                       num_classes=2, batch_size=3, epochs=2, runs=2, seed=4)


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_cli_train_reaches_the_module_level_run_and_adam_step(monkeypatch, tmp_path):
    spec = dataio.SyntheticSpec(num_classes=2, image_size=8, channels=1, train_samples=7,
                                validation_samples=2, test_samples=2, seed=1)
    dataio.generate_synthetic(spec, tmp_path / "data")
    (tmp_path / "config.json").write_text(json.dumps(asdict(SMALL)))
    calls = []
    _counting(monkeypatch, qm, "train_single_run", calls)
    _counting(monkeypatch, qm, "adam_step", calls)
    code = cli.main(["train", "--config", str(tmp_path / "config.json"),
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls.count("train_single_run") == SMALL.runs
    assert calls.count("adam_step") == SMALL.runs * SMALL.epochs * 3  # 7 samples in batches of 3


def test_evaluate_makes_one_forward_batch_call_per_chunk(monkeypatch):
    model = qm.HybridModel(SMALL)
    store = model.init_store(0)
    images = np.random.default_rng(2).uniform(0, 1, (7, 8, 8, 1))
    sizes = []
    real = qm.HybridModel.forward_batch

    def counted(self, batch, *args, **kwargs):
        sizes.append(batch.shape[0])
        return real(self, batch, *args, **kwargs)

    monkeypatch.setattr(qm.HybridModel, "forward_batch", counted)
    metrics = qm.evaluate(model, store, images, np.arange(7) % 2)
    assert sizes == [3, 3, 1]
    assert 0.0 <= metrics.accuracy <= 1.0


def test_single_image_forward_is_kept():
    model = qm.HybridModel(SMALL)
    store = model.init_store(0)
    image = np.random.default_rng(3).uniform(0, 1, (8, 8, 1))
    probs, recon, processed, features = model.forward(image, store)
    batched = model.forward_batch(image[None], store)
    assert np.array_equal(probs, batched["probs"][0])
    assert recon.shape == image.shape and processed.shape == (2, 2, 3)
    assert np.array_equal(features, batched["features"][0])


def test_a_training_step_calls_each_autoencoder_layer_once(monkeypatch):
    model = qm.HybridModel(SMALL)
    store = model.init_store(0)
    images = np.random.default_rng(4).uniform(0, 1, (3, 8, 8, 1))
    calls = []
    for name in ("encode", "decode", "encode_backward", "decode_backward"):
        _counting(monkeypatch, PatchAutoencoder, name, calls)
    model.loss_and_grads(images, np.arange(3) % 2, store)
    assert sorted(calls) == ["decode", "decode_backward", "encode", "encode_backward"]
