"""Benchmark of the quanvnet hybrid network on its canonical 12-qubit
configuration. Run it from the root of a checkout:

    python3 perfbench/run.py --workload train-b50 --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in a child process of its own
so that its peak memory is its own, and measures the cold set-up time once
for all of them. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines above it name the same numbers
per workload, the computed work counts and the machine. Full results, and
with ``--trace 1`` the recorded spans, are written to ``.perfbench_out/``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported, so the load comes from one
# thread of one process and inherited set-up processes match it.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-b50", "infer-b50", "latency-b1")


def use_checkout(root: Path) -> None:
    """Put the program and its test oracles on the import path."""
    needed = (root / "src" / "quanvnet" / "__init__.py", root / "tests" / "oracles.py")
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(missing)} not found; run from the root of a quanvnet checkout")
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(root),
    }


def report_lines(result: dict) -> list:
    name = result["workload"]
    lines = [f"[{name}] {result['ops']} operations, closed loop with 1 client, seed {result['seed']}"]
    for metric, (value, unit) in result["named"].items():
        note = f" (p{result['tail_percentile']} of {result['ops']})" if "_tail_" in metric else ""
        lines.append(f"[{name}] {metric} = {value:.6g} {unit}{note}")
    for metric, value in result["work_computed"].items():
        lines.append(f"[{name}] computed {metric} = {value}")
    if "trace_summary" in result:
        t = result["trace_summary"]
        lines.append(f"[{name}] tracing overhead {t['overhead_frac']:+.2%} (adjusted medians: traced "
                     f"{t['traced_op_p50_s']:.6g} s, untraced {t['untraced_op_p50_s']:.6g} s); the per-layer "
                     f"medians add up to {t['accounted_frac']:.2%} of the median traced operation; "
                     f"unattributed {t['unattributed_op_p50_s']:.6g} s per operation (median)")
    for metric, (value, unit) in result["metrics"].items():
        lines.append(f"[{name}] metric {metric} = {value:.6g} {unit}")
    for message in result["failures"]:
        lines.append(f"[{name}] FAILED: {message}")
    return lines


def result_path(out_dir: Path, name: str, seed: int, trace: int) -> Path:
    return out_dir / f"{name}-seed{seed}-trace{trace}.json"


def write_result(out_dir: Path, result: dict, seed: int, trace: int) -> None:
    """The full result, and with tracing its spans, one JSON object a line."""
    path = result_path(out_dir, result["workload"], seed, trace)
    spans = result.pop("spans", None)
    if spans is not None:
        with open(path.with_name(path.stem + "-spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def run_child(name: str, args, setup_s, out_dir: Path) -> dict:
    """Run one workload in a fresh process and return the result it wrote."""
    path = result_path(out_dir, name, args.seed, args.trace)
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_s is not None:
        cmd += ["--setup-seconds", repr(setup_s)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)  # the last line is the child's own summary
    if proc.returncode not in (0, 1) or not path.is_file():
        raise SystemExit(f"perfbench: {name} exited {proc.returncode} without a result")
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    parser.add_argument("--setup-seconds", type=float, help=argparse.SUPPRESS)  # measured by the parent
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    use_checkout(root)
    import workloads

    if args.setup_probe:  # a child process timing one cold set-up
        workloads.set_up(args.seed, Path(args.setup_probe))
        print(repr(time.time()))
        return 0

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        setup_s = args.setup_seconds
        if setup_s is None and not args.trace:
            setup_s = workloads.cold_setup_seconds(args.seed, workdir)
        if args.workload == "all":
            results = [run_child(name, args, setup_s, out_dir) for name in WORKLOAD_NAMES]
        else:
            result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   workdir / args.workload, setup_s)
            result["environment"] = environment(root)
            write_result(out_dir, result, args.seed, args.trace)
            print("environment: " + json.dumps(result["environment"], sort_keys=True))
            print("\n".join(report_lines(result)))
            results = [result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
