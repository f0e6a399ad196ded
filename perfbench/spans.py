"""In-memory timing for the benchmark: a pausable clock, operation
boundaries, layer spans, and run-time wrapping of the program's functions.

Everything here acts from outside the program: layer functions are replaced
on their class or module for the duration of a phase and put back after it.
Work the benchmark adds for itself (output checks, the encoding/extraction
split replays, the calibration kernel) runs with the clock paused, so no
timing includes it.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class Recorder:
    """Operation timings, layer spans and check outcomes of one phase."""

    def __init__(self, trace: bool, calibrate=None):
        self.trace = trace
        self.calibrate = calibrate  # run off the clock after every operation
        self.cal_times = []
        self.paused = 0.0
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None  # id of the open operation
        self.op_times = []
        self.probes = []  # (op id, layer metric, seconds) measured off the clock
        self.samples = 0  # samples the workload processed
        self.busy = 0.0  # clock seconds spent processing them
        self.attempted = 0
        self.failures = {}  # unit key -> failure messages
        self._calls = 0

    def now(self) -> float:
        """Clock that stands still while the benchmark does its own work."""
        return time.perf_counter() - self.paused

    @contextlib.contextmanager
    def off_clock(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - start

    # -- operations and spans ------------------------------------------------

    def begin_op(self) -> None:
        self.abandon_op()
        self.op = len(self.op_times)
        self.op_times.append(None)
        self.attempted += 1
        self._op_start = self.now()
        self._op_span = self.open("op", self._op_start)

    def end_op(self) -> None:
        end = self.now()
        self.close(self._op_span, end)
        self.op_times[self.op] = end - self._op_start
        self.op = None
        if self.calibrate is not None:
            with self.off_clock():
                start = time.perf_counter()
                self.calibrate()
                self.cal_times.append(time.perf_counter() - start)

    def abandon_op(self) -> None:
        """Drop an operation an exception left open, and any spans under it."""
        if self.op is not None:
            self.fail(["operation did not complete"])
            now = self.now()
            for index in self.stack:
                self.spans[index][2] = now
            del self.stack[:]
            self.op = None

    def open(self, name: str, start=None):
        if not self.trace:
            return None
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.now() if start is None else start, None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index, end=None) -> None:
        if index is None:
            return
        self.spans[index][2] = self.now() if end is None else end
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    def probe(self, metric: str, seconds: float) -> None:
        self.probes.append((self.op, metric, seconds))

    # -- outcomes --------------------------------------------------------------

    def fail(self, messages, key=None) -> None:
        """Attach failures to ``key``, or to the open operation."""
        if not messages:
            return
        if key is None:
            key = ("op", self.op)
        self.failures.setdefault(key, []).extend(messages)

    def checked_call(self, messages) -> None:
        """Outcome of a checked call: part of the open operation, or a unit of its own."""
        if self.op is not None:
            self.fail(messages)
            return
        self._calls += 1
        self.attempted += 1
        self.fail(messages, ("call", self._calls))

    def check(self, name: str, messages) -> None:
        """Outcome of a standalone correctness check."""
        self.attempted += 1
        self.fail(messages, ("check", name))

    def merge(self, other: "Recorder", phase: str) -> None:
        self.attempted += other.attempted
        for key, messages in other.failures.items():
            self.fail(messages, (phase,) + key)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def messages(self) -> list:
        return [m for ms in self.failures.values() for m in ms]

    def finished_ops(self) -> list:
        return [t for t in self.op_times if t is not None]

    def span_records(self, phase: str) -> list:
        """Spans as dicts; ``parent`` indexes the spans of the same phase, and
        times are seconds on the phase's clock."""
        return [
            {"phase": phase, "name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


class Patches:
    """Run-time replacement of functions on classes and modules, undone by restore()."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved = []

    def wrap(self, owner, attr: str, span=None, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that calls ``before(*args)``,
        records a span named ``span`` when tracing, and then calls
        ``after(result, *args)``."""
        fn = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = rec.open(span) if span is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self.saved.append((owner, attr, fn))
        setattr(owner, attr, wrapped)

    def original(self, owner, attr: str):
        for o, a, fn in self.saved:
            if o is owner and a == attr:
                return fn
        return getattr(owner, attr)

    def restore(self) -> None:
        while self.saved:
            owner, attr, fn = self.saved.pop()
            setattr(owner, attr, fn)


# The operation span's own self time: the part of the operation that none of
# the wrapped layers covers.
UNATTRIBUTED = "unattributed"
# span name -> the per-layer metric its self time counts towards
SELF_TIME_METRIC = {
    "op": UNATTRIBUTED,
    "model.loss_and_grads": "model.step_self_s",
    "model.forward_batch": "model.step_self_s",
    "model.adam_step": "model.adam_s",
    "autoencoder.encode": "autoencoder.encode_s",
    "autoencoder.decode": "autoencoder.decode_s",
    "autoencoder.encode_backward": "autoencoder.encode_backward_s",
    "autoencoder.decode_backward": "autoencoder.decode_backward_s",
    "circuits.forward": "circuits.measure_s",
    "circuits.backward": "circuits.bra_s",
    # The simulator spans are split with replays run off the clock. The
    # adjoint sweep is the extraction-only sweep plus the rest, which is the
    # encoding part. The forward is divided in the ratio of the replayed
    # encoding and extraction fragments.
    "statevector.adjoint_sweep": "statevector.encoding_adjoint_s",
}
FORWARD_SPLIT = ("statevector.encoding_forward_s", "statevector.extraction_forward_s")
OP_LAYER_METRICS = (
    "statevector.extraction_adjoint_s",
    "statevector.encoding_adjoint_s",
    "statevector.extraction_forward_s",
    "statevector.encoding_forward_s",
    "circuits.measure_s",
    "circuits.bra_s",
    "autoencoder.encode_s",
    "autoencoder.decode_s",
    "autoencoder.encode_backward_s",
    "autoencoder.decode_backward_s",
    "model.step_self_s",
    "model.adam_s",
)
SETUP_METRIC = {
    "model.build": "model.build_s",
    "dataio.generate": "dataio.generate_s",
    "dataio.load": "dataio.load_s",
}


def self_times(spans) -> list:
    """Each span's duration minus the time its children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_op_layers(rec: Recorder) -> dict:
    """Seconds of each layer metric, and of ``UNATTRIBUTED``, within each
    finished operation."""
    done = {op for op, t in enumerate(rec.op_times) if t is not None}
    table = {op: dict.fromkeys(OP_LAYER_METRICS + (UNATTRIBUTED,), 0.0) for op in done}
    forward = dict.fromkeys(done, 0.0)
    replayed = {op: dict.fromkeys(FORWARD_SPLIT, 0.0) for op in done}
    for (name, _, _, _, op), own in zip(rec.spans, self_times(rec.spans)):
        if op not in table:
            continue
        if name == "statevector.run_compiled":
            forward[op] += own
        elif name in SELF_TIME_METRIC:
            table[op][SELF_TIME_METRIC[name]] += own
    for op, metric, seconds in rec.probes:
        if op not in table:
            continue
        if metric in FORWARD_SPLIT:
            replayed[op][metric] += seconds
        else:
            table[op][metric] += seconds
            table[op]["statevector.encoding_adjoint_s"] -= seconds
    for op, parts in replayed.items():
        total = sum(parts.values())
        for metric, seconds in parts.items():
            table[op][metric] += forward[op] * seconds / total if total else 0.0
    return table


def layer_summary(rec: Recorder, setup: Recorder) -> tuple:
    """(median per-operation layer metrics, the median operation's share that
    they add up to, the median unattributed seconds per operation)."""
    table = per_op_layers(rec)
    medians = {
        m: float(np.median([row[m] for row in table.values()])) if table else 0.0
        for m in OP_LAYER_METRICS + (UNATTRIBUTED,)
    }
    unattributed = medians.pop(UNATTRIBUTED)
    accounted = sum(medians.values()) / float(np.median(rec.finished_ops()))
    for (name, start, end, _, _) in setup.spans:
        if name in SETUP_METRIC:
            medians[SETUP_METRIC[name]] = end - start
    return medians, accounted, unattributed
