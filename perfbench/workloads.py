"""The benchmark's workloads on the canonical 12-qubit configuration
(32x32x4 images, P=4, E=9, M=2, K=2, alpha 5, lr 0.01).

Each workload is a closed loop with one client in this one process: the next
operation starts when the previous one has returned.

* ``train-b50``: ``quanvnet train`` in-process through ``cli.main`` at batch
  50 on 200/100/100 synthetic samples. An operation is one train step,
  ``loss_and_grads`` plus ``adam_step``; most of it is the adjoint sweep.
* ``infer-b50``: ``model.evaluate`` with a fixed parameter store over the
  100-image test split. An operation is one 50-image forward batch: no
  adjoint, no decoder backward, no Adam.
* ``latency-b1``: repeated single-image ``HybridModel.forward``. An operation
  is one call; with one row most encoding gates touch 32 amplitude pairs, so
  per-gate dispatch dominates instead of memory traffic.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from quanvnet import circuits, cli, dataio
from quanvnet import model as qm
from quanvnet import statevector as sv
from quanvnet.autoencoder import PatchAutoencoder
from spans import OP_LAYER_METRICS, SETUP_METRIC, Patches, Recorder, layer_summary

BATCH = 50
SPLITS = {"train_samples": 200, "validation_samples": 100, "test_samples": 100}
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
RUN_PY = Path(__file__).with_name("run.py")
SETUP_PROBES = 9  # cold set-ups per invocation; setup_s is their median
ORACLE_ROWS = 2
GRADIENT_ROWS = 10
GRADIENT_SLOTS = 3
AMP_BYTES = 16
# Per workload: calibration kernel repetitions, and the kernel's typical time
# between operations on the machine where the benchmark was defined (2-core
# Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread). Each
# operation's adjusted time is its raw time times (this reference / the time
# of the kernel run right after it), so on that machine adjusted times read
# like raw ones.
CALIBRATION_REPS = {"train-b50": 12, "infer-b50": 4, "latency-b1": 20}
CALIBRATION_REFERENCE_S = {"train-b50": 0.066, "infer-b50": 0.0245, "latency-b1": 0.0038}

SETUP_SPANS = (
    (dataio, "generate_synthetic", "dataio.generate"),
    (dataio, "load_dataset", "dataio.load"),
    (qm.HybridModel, "__init__", "model.build"),
)
LAYER_SPANS = SETUP_SPANS + (
    (PatchAutoencoder, "encode", "autoencoder.encode"),
    (PatchAutoencoder, "decode", "autoencoder.decode"),
    (PatchAutoencoder, "encode_backward", "autoencoder.encode_backward"),
    (PatchAutoencoder, "decode_backward", "autoencoder.decode_backward"),
    (circuits.QuantumEvaluator, "forward", "circuits.forward"),
    (circuits.QuantumEvaluator, "backward", "circuits.backward"),
    (qm.HybridModel, "loss_and_grads", "model.loss_and_grads"),
    (qm.HybridModel, "forward_batch", "model.forward_batch"),
    (sv, "run_compiled", "statevector.run_compiled"),
    (sv, "adjoint_sweep", "statevector.adjoint_sweep"),
    (qm, "adam_step", "model.adam_step"),
)


def synthetic_spec(seed: int) -> dataio.SyntheticSpec:
    return dataio.SyntheticSpec(num_classes=4, image_size=32, channels=4, noise=0.1, seed=seed, **SPLITS)


def model_config(seed: int) -> qm.ModelConfig:
    return qm.ModelConfig(batch_size=BATCH, epochs=1, runs=1, seed=seed)


@dataclass
class Setup:
    data_dir: Path
    data: dict
    model: qm.HybridModel
    store: qm.ParameterStore


def set_up(seed: int, workdir: Path) -> Setup:
    """Everything before the first timed operation: synthetic data write and
    load, model build and parameter store."""
    data_dir = Path(workdir) / "data"
    dataio.generate_synthetic(synthetic_spec(seed), data_dir)
    data = dataio.load_dataset(data_dir)
    model = qm.HybridModel(model_config(seed))
    return Setup(data_dir, data, model, model.init_store(seed))


def cold_setup_seconds(seed: int, workdir: Path) -> float:
    """Median wall time from process launch to the end of ``set_up`` over
    fresh processes, so imports and the compiled-program caches start cold."""
    times = []
    for k in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-probe", str(workdir / f"probe{k}"), "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# instrumentation shared by the workloads
# ---------------------------------------------------------------------------


def instrument(patches: Patches, rec: Recorder, model: qm.HybridModel) -> None:
    """Output checks on every forward, and when tracing the layer spans and
    the replays that split the simulator time into encoding and extraction."""
    if rec.trace:
        for owner, attr, span in LAYER_SPANS:
            patches.wrap(owner, attr, span=span)
    ev = model.evaluator
    n_enc = checks.encoding_length(ev)
    run_compiled = patches.original(sv, "run_compiled")
    adjoint_sweep = patches.original(sv, "adjoint_sweep")

    def after_evaluator_forward(result, evaluator, data, params):
        amps = result[0]
        with rec.off_clock():
            messages = checks.invariant_failures(psi=amps)
            if rec.trace and evaluator is ev:
                data = np.atleast_2d(np.asarray(data, dtype=np.float64))
                state = checks.zero_states(data.shape[0], ev.layout.total_qubits)
                t0 = time.perf_counter()
                run_compiled(ev.compiled[:n_enc], state, data, params)
                t1 = time.perf_counter()
                run_compiled(ev.compiled[n_enc:], state, data, params)
                t2 = time.perf_counter()
                rec.probe("statevector.encoding_forward_s", t1 - t0)
                rec.probe("statevector.extraction_forward_s", t2 - t1)
                messages += checks.closeness_failures(
                    "encoding then extraction replay", state, amps, checks.AMPLITUDE_TOL
                )
        rec.checked_call(messages)

    def after_adjoint(result, compiled, psi, bra, data, params, param_arity, *_args, **_kwargs):
        if compiled is not ev.compiled:
            return
        with rec.off_clock():
            t0 = time.perf_counter()
            grads, _ = adjoint_sweep(compiled[n_enc:], psi, bra, data, params, param_arity)
            rec.probe("statevector.extraction_adjoint_s", time.perf_counter() - t0)
            messages = checks.closeness_failures(
                "extraction-only adjoint gradient", grads, result[0], checks.AMPLITUDE_TOL
            )
        rec.checked_call(messages)

    def after_forward_batch(out, *_args, **_kwargs):
        with rec.off_clock():
            messages = checks.invariant_failures(probs=out["probs"])
        rec.checked_call(messages)

    patches.wrap(circuits.QuantumEvaluator, "forward", after=after_evaluator_forward)
    patches.wrap(qm.HybridModel, "forward_batch", after=after_forward_batch)
    if rec.trace:
        patches.wrap(sv, "adjoint_sweep", after=after_adjoint)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def train_argv(data_dir: Path, out: Path, seed: int) -> list:
    return ["train", "--data", str(data_dir), "--out", str(out), "--seed", str(seed),
            "--epochs", "1", "--runs", "1", "--batch-size", str(BATCH)]


class TrainB50:
    """``quanvnet train`` through ``cli.main``; one operation is one train step."""

    def __init__(self, setup: Setup, seed: int, workdir: Path):
        self.setup, self.seed, self.workdir = setup, seed, workdir
        self.first_csv = None

    def checks(self, rec: Recorder) -> None:
        """The seeded reference run's final loss terms against ``reference.json``."""
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        data_dir, out = self.workdir / "reference-data", self.workdir / "reference-out"
        dataio.generate_synthetic(synthetic_spec(REFERENCE_SEED), data_dir)
        code = cli.main(train_argv(data_dir, out, REFERENCE_SEED))
        if code != 0:
            rec.check("reference run", [f"reference run exited {code}"])
            return
        terms = checks.final_loss_terms((out / "run0_metrics.csv").read_text(encoding="utf-8"))
        rec.check("reference run", checks.reference_failures(terms, reference["final_epoch"]))

    def install(self, patches: Patches, rec: Recorder) -> None:
        alpha = self.setup.model.config.alpha
        started = []

        def after_step(result, *_args, **_kwargs):
            with rec.off_clock():
                rec.fail(checks.invariant_failures(loss=result[0] + alpha * result[1]))

        def before_run(*_args, **_kwargs):
            started.append(rec.now())

        def after_run(result, model, train_split, *_args, **_kwargs):
            rec.busy += rec.now() - started.pop()
            rec.samples += train_split[0].shape[0] * model.config.epochs

        patches.wrap(qm.HybridModel, "loss_and_grads", before=lambda *a, **k: rec.begin_op(), after=after_step)
        patches.wrap(qm, "adam_step", after=lambda *a, **k: rec.end_op())
        patches.wrap(qm, "train_single_run", before=before_run, after=after_run)

    def once(self, rec: Recorder) -> None:
        out = self.workdir / "train-out"
        code = cli.main(train_argv(self.setup.data_dir, out, self.seed))
        rec.abandon_op()
        with rec.off_clock():
            if code != 0:
                messages = [f"quanvnet train exited {code}"]
            else:
                csv = (out / "run0_metrics.csv").read_text(encoding="utf-8")
                self.first_csv = self.first_csv or csv
                messages = checks.invariant_failures(loss=checks.final_loss_terms(csv)["loss"])
                messages += checks.repeat_failures(csv, self.first_csv)
        rec.checked_call(messages)


class InferB50:
    """``model.evaluate`` over the test split; one operation is one 50-image batch."""

    def __init__(self, setup: Setup, seed: int, workdir: Path):
        self.setup = setup
        self.captured = []

    def checks(self, rec: Recorder) -> None:
        pass

    def install(self, patches: Patches, rec: Recorder) -> None:
        def after_batch(out, *_args, **_kwargs):
            rec.end_op()
            self.captured.append(out["probs"])

        patches.wrap(qm.HybridModel, "forward_batch", before=lambda *a, **k: rec.begin_op(), after=after_batch)

    def once(self, rec: Recorder) -> None:
        images, labels = self.setup.data["test"]
        self.captured = []
        start = rec.now()
        result = qm.evaluate(self.setup.model, self.setup.store, images, labels)
        rec.busy += rec.now() - start
        rec.samples += images.shape[0]
        with rec.off_clock():
            probs = np.concatenate(self.captured)
            try:
                messages = checks.invariant_failures(loss=qm.cross_entropy(probs, labels))
            except ValueError as exc:
                messages = [f"cross entropy rejected the outputs: {exc}"]
            messages += checks.accuracy_failures(probs, labels, result.accuracy)
        rec.checked_call(messages)


class LatencyB1:
    """Single-image ``HybridModel.forward``; one operation is one call."""

    def __init__(self, setup: Setup, seed: int, workdir: Path):
        self.setup = setup
        self.calls = 0

    def checks(self, rec: Recorder) -> None:
        pass

    def install(self, patches: Patches, rec: Recorder) -> None:
        pass

    def once(self, rec: Recorder) -> None:
        images, labels = self.setup.data["test"]
        k = self.calls % images.shape[0]
        self.calls += 1
        rec.begin_op()
        start = rec.now()
        probs = self.setup.model.forward(images[k], self.setup.store)[0]
        rec.busy += rec.now() - start
        rec.samples += 1
        rec.end_op()
        with rec.off_clock():
            try:
                messages = checks.invariant_failures(loss=qm.cross_entropy(probs[None], labels[k : k + 1]))
            except ValueError as exc:
                messages = [f"cross entropy rejected the output: {exc}"]
        rec.fail(messages, ("op", len(rec.op_times) - 1))


WORKLOADS = {"train-b50": TrainB50, "infer-b50": InferB50, "latency-b1": LatencyB1}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def standalone_checks(setup: Setup, seed: int, rec: Recorder) -> None:
    """Encoding amplitudes against the closed-form oracle, and one batch's
    quantum gradient against central differences."""
    model, store = setup.model, setup.store
    images = setup.data["test"][0][:ORACLE_ROWS]
    data = model.forward_batch(images, store)["processed"].reshape(ORACLE_ROWS, -1)
    got, want = checks.encoding_states(model.evaluator, data)
    rec.check("encoding oracle", checks.closeness_failures("encoding amplitudes", got, want, checks.AMPLITUDE_TOL))
    rng = np.random.default_rng(seed)
    slots = np.sort(rng.choice(model.segment_lengths["quantum"], GRADIENT_SLOTS, replace=False))
    images, labels = (a[:GRADIENT_ROWS] for a in setup.data["train"])
    analytic, numeric = checks.quantum_gradients(model, store, images, labels, slots)
    rec.check("quantum gradient", checks.gradient_failures(analytic, numeric))


def calibration_kernel(rows: int, reps: int):
    """A fixed numpy kernel shaped like the simulator's gate updates on
    ``rows`` 12-qubit states: pair gathers and scatters over targets with 0
    to 6 controls. It runs after every operation, off the clock, to measure
    how fast the machine is at that moment. It calls no code of the program,
    so a change to the program cannot move it."""
    k = np.arange(1 << 12)
    pairs = []
    for target, controls in ((9, 6), (10, 6), (11, 6), (9, 0), (10, 1), (11, 2), (0, 3)):
        keep = ((k >> target) & 1) == 0
        for j in range(controls):
            keep &= ((k >> ((target + 1 + j) % 12)) & 1) == 1
        pairs.append((k[keep], k[keep] | (1 << target)))

    def kernel():
        amps = np.full((rows, 1 << 12), 1 / 64, dtype=np.complex128)
        for _ in range(reps):
            for idx0, idx1 in pairs:
                a0, a1 = amps[:, idx0], amps[:, idx1]
                amps[:, idx0] = 0.6 * a0 - 0.8 * a1
                amps[:, idx1] = 0.8 * a0 + 0.6 * a1

    return kernel


def timed_phase(workload, model: qm.HybridModel, trace: bool, seconds: float, kernel) -> Recorder:
    """Repeat the workload's operation for ``seconds`` of wall time."""
    rec = Recorder(trace, calibrate=kernel)
    patches = Patches(rec)
    try:
        instrument(patches, rec, model)
        workload.install(patches, rec)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            try:
                workload.once(rec)
            except Exception as exc:  # the loop keeps measuring; the failure is counted
                traceback.print_exc()
                rec.abandon_op()
                rec.checked_call([f"{type(exc).__name__}: {exc}"])
    finally:
        patches.restore()
    return rec


def adjusted_times(rec: Recorder, reference: float) -> list:
    """Each finished operation's time scaled by the calibration run right after it."""
    return [t * reference / c for t, c in zip(rec.finished_ops(), rec.cal_times)]


def tail(values) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, and never below the median."""
    p = max(50, min(99, int(100 * (1 - 10 / len(values)))))
    return p, float(np.percentile(values, p))


def work_counts(evaluator, batch: int) -> dict:
    """Work per row computed from the compiled program, not measured: each
    gate reads and writes two amplitudes per pair it touches; the adjoint
    un-applies every gate on ket and bra and reads both again for each
    angle-derivative inner product. Index arrays, temporaries and caches are
    not counted."""
    n_enc = checks.encoding_length(evaluator)
    pairs = [len(cg.idx0) for cg in evaluator.compiled]
    graded = [cg.angle is not None and cg.angle[0] != "const" for cg in evaluator.compiled]
    pair_bytes = 4 * AMP_BYTES
    return {
        "statevector.encoding_gates": n_enc,
        "statevector.extraction_gates": len(pairs) - n_enc,
        "statevector.encoding_pairs_per_row": sum(pairs[:n_enc]),
        "statevector.extraction_pairs_per_row": sum(pairs[n_enc:]),
        "statevector.forward_bytes_per_row": sum(pairs) * pair_bytes,
        "statevector.adjoint_bytes_per_row": sum(p * pair_bytes * (3 if g else 2) for p, g in zip(pairs, graded)),
        "statevector.state_bytes": batch * (1 << evaluator.layout.total_qubits) * AMP_BYTES,
    }


NAMED = {
    "train-b50": ("train_step", "s", "train_samples_per_s"),
    "infer-b50": ("infer_batch", "s", "infer_samples_per_s"),
    "latency-b1": ("forward", "ms", "forward_samples_per_s"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, setup_s=None) -> dict:
    """One run of one workload: set-up, checks, the timed loop, and its
    metrics. ``setup_s`` is the cold set-up time measured for the whole
    invocation; it is needed when ``trace`` is off."""
    outcomes = Recorder(trace=False)
    circuits.get_evaluator.cache_clear()
    sv.compile_program.cache_clear()
    setup_rec = Recorder(trace)
    patches = Patches(setup_rec)
    try:
        if trace:
            for owner, attr, span in SETUP_SPANS:
                patches.wrap(owner, attr, span=span)
        setup = set_up(seed, workdir / "main")
    finally:
        patches.restore()
    workload = WORKLOADS[name](setup, seed, workdir)
    standalone_checks(setup, seed, outcomes)
    workload.checks(outcomes)

    rows = 1 if name == "latency-b1" else BATCH
    kernel = calibration_kernel(rows, CALIBRATION_REPS[name])
    if trace:  # an untraced half first, to measure the tracing overhead against
        phases = {"untraced": timed_phase(workload, setup.model, False, seconds / 2, kernel),
                  "traced": timed_phase(workload, setup.model, True, seconds / 2, kernel)}
    else:
        phases = {"timed": timed_phase(workload, setup.model, False, seconds, kernel)}
    for phase, rec in phases.items():
        outcomes.merge(rec, phase)
    rec = phases["traced" if trace else "timed"]
    ops = rec.finished_ops()
    if not ops:
        raise RuntimeError(f"{name}: no operation completed: {outcomes.messages()[:3]}")
    p50, (p, tail_s), rate = float(np.median(ops)), tail(ops), rec.samples / rec.busy
    reference = CALIBRATION_REFERENCE_S[name]
    adjusted = adjusted_times(rec, reference)
    slowdown = sum(ops) / sum(adjusted)  # time-weighted over the operations
    counts = work_counts(setup.model.evaluator, rows)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, 1 client", "ops": len(ops), "tail_percentile": p,
        "attempted": outcomes.attempted, "failed": outcomes.failed,
        "failures": outcomes.messages(), "work_computed": counts,
        "op_times_s": rec.op_times, "calibration_times_s": rec.cal_times,
        "calibration": {"kernel_p50_s": float(np.median(rec.cal_times)), "reference_s": reference,
                        "slowdown": slowdown},
    }
    prefix, unit, rate_name = NAMED[name]
    scale = 1e3 if unit == "ms" else 1.0
    result["named"] = {  # as measured, not adjusted
        f"{prefix}_p50_{unit}": (p50 * scale, unit),
        f"{prefix}_tail_{unit}": (tail_s * scale, unit),
        rate_name: (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "failed_frac": (outcomes.failed / outcomes.attempted, "1"),
        "machine_slowdown": (slowdown, "x"),
    }
    if not trace:
        result["named"]["setup_s"] = (setup_s, "s")
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "op_p50_adj_ms": (float(np.median(adjusted)) * 1e3, "ms"),
            "op_tail_adj_ms": (tail(adjusted)[1] * 1e3, "ms"),
            "samples_adj_per_s": (rate * slowdown, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return result
    layers, accounted, unattributed = layer_summary(rec, setup_rec)
    traced_s = float(np.median(adjusted))
    untraced_s = float(np.median(adjusted_times(phases["untraced"], reference)))
    result["trace_summary"] = {  # adjusted for machine speed, like the end-to-end times
        "traced_op_p50_s": traced_s,
        "untraced_op_p50_s": untraced_s,
        "overhead_frac": traced_s / untraced_s - 1.0,
        "accounted_frac": accounted,
        "unattributed_op_p50_s": unattributed,
    }
    result["metrics"] = {m: (layers[m], "s") for m in OP_LAYER_METRICS + tuple(SETUP_METRIC.values())}
    for metric, value in counts.items():
        result["metrics"][metric] = (value, "B" if "bytes" in metric else "count")
    result["spans"] = setup_rec.span_records("setup") + rec.span_records("traced")
    return result
