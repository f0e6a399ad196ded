"""The benchmark's own tests: each correctness check passes on the
program's output and fails on a deliberately perturbed copy of it, and the
span bookkeeping adds up.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout(Path(__file__).resolve().parent.parent)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quanvnet import cli, dataio  # noqa: E402


@pytest.fixture(scope="module")
def canonical():
    model = workloads.qm.HybridModel(workloads.model_config(0))
    rng = np.random.default_rng(7)
    images = rng.uniform(0.0, 1.0, (4, 32, 32, 4))
    labels = np.array([0, 1, 2, 3])
    return model, model.init_store(0), images, labels


def test_invariants_fail_on_perturbed_outputs(canonical):
    model, store, images, labels = canonical
    out = model.forward_batch(images, store, with_caches=True)
    l_ce, l_mse = model.loss_and_grads(images, labels, store)[:2]
    loss, probs, psi = l_ce + 5.0 * l_mse, out["probs"], out["psi"]
    assert checks.invariant_failures(loss, probs, psi) == []

    assert checks.invariant_failures(loss=float("nan"))
    bad_probs = probs.copy()
    bad_probs[0, 0] += 1e-8
    assert checks.invariant_failures(probs=bad_probs)
    assert checks.invariant_failures(psi=psi * (1 + 1e-9))


def test_encoding_check_fails_on_perturbed_amplitude(canonical):
    model, store, images, _ = canonical
    data = model.forward_batch(images[:1], store)["processed"].reshape(1, -1)
    got, want = checks.encoding_states(model.evaluator, data)
    assert checks.closeness_failures("encoding", got, want, checks.AMPLITUDE_TOL) == []

    got[0, np.argmax(np.abs(got[0]))] += 1e-9
    assert checks.closeness_failures("encoding", got, want, checks.AMPLITUDE_TOL)


def test_gradient_check_fails_on_perturbed_gradient(canonical):
    model, store, images, labels = canonical
    slots = np.array([0, 100, 197])
    analytic, numeric = checks.quantum_gradients(model, store, images[:2], labels[:2], slots)
    assert checks.gradient_failures(analytic, numeric) == []

    assert checks.gradient_failures(analytic + np.array([0.0, 1e-4, 0.0]), numeric)


def test_reference_run_matches_and_perturbed_terms_fail(tmp_path):
    reference = json.loads(workloads.REFERENCE_FILE.read_text())["final_epoch"]
    dataio.generate_synthetic(workloads.synthetic_spec(workloads.REFERENCE_SEED), tmp_path / "data")
    code = cli.main(workloads.train_argv(tmp_path / "data", tmp_path / "out", workloads.REFERENCE_SEED))
    assert code == 0
    terms = checks.final_loss_terms((tmp_path / "out" / "run0_metrics.csv").read_text())
    assert checks.reference_failures(terms, reference) == []

    assert checks.reference_failures(dict(terms, l_mse=terms["l_mse"] + 2e-4), reference)
    assert checks.reference_failures({k: v for k, v in terms.items() if k != "val_loss"}, reference)


def test_accuracy_check_fails_on_perturbed_accuracy(canonical):
    model, store, images, labels = canonical
    result = workloads.qm.evaluate(model, store, images, labels)
    probs = model.forward_batch(images, store)["probs"]
    assert checks.accuracy_failures(probs, labels, result.accuracy) == []

    assert checks.accuracy_failures(probs, labels, result.accuracy + 0.25)
    flipped = probs.copy()  # row 0 turned from right to wrong, or from wrong to right
    right = probs[0].argmax() == labels[0]
    flipped[0] = np.eye(4)[(labels[0] + right) % 4]
    assert checks.accuracy_failures(flipped, labels, result.accuracy)


def test_repeat_check_fails_on_changed_metrics():
    csv = "epoch,l_ce,l_mse,loss,val_loss\n0,1.1,0.08,1.5,1.2\n"
    assert checks.repeat_failures(csv, csv) == []
    assert checks.repeat_failures(csv.replace("1.1", "1.1000001"), csv)


def test_failed_check_in_timed_loop_makes_main_return_1(monkeypatch, capsys):
    monkeypatch.setattr(checks, "invariant_failures", lambda *a, **k: ["forced failure"])
    code = run.main(["--workload", "latency-b1", "--seed", "3", "--seconds", "0.3", "--trace", "0",
                     "--setup-seconds", "1.0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert summary["failed"] >= 1


def test_tail_is_highest_percentile_with_ten_beyond():
    assert workloads.tail(list(range(100)))[0] == 90
    assert workloads.tail(list(range(1000)))[0] == 99
    assert workloads.tail(list(range(12))) == (50, 5.5)


def test_layer_self_times_partition_the_operation():
    rec = spans.Recorder(trace=True)
    rec.begin_op()
    sum(range(100000))  # operation time outside every layer
    outer = rec.open("model.loss_and_grads")
    inner = rec.open("statevector.adjoint_sweep")
    rec.close(inner)
    rec.probe("statevector.extraction_adjoint_s", 0.0)
    rec.close(outer)
    adam = rec.open("model.adam_step")
    rec.close(adam)
    rec.end_op()
    row = spans.per_op_layers(rec)[0]
    assert sum(row.values()) == pytest.approx(rec.op_times[0], abs=1e-12)
    assert row["statevector.extraction_adjoint_s"] == 0.0
    # the operation's own time is unattributed, not a layer's
    assert row[spans.UNATTRIBUTED] > row["model.step_self_s"]
    layers, accounted, unattributed = spans.layer_summary(rec, spans.Recorder(trace=True))
    assert accounted == pytest.approx(1.0 - unattributed / rec.op_times[0])
