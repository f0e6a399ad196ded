"""Batch command line: train, eval, analyze, resources, synth.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 numerical
divergence. Every run writes only under ``--out`` and echoes its effective
configuration there; command-line flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, circuits, dataio
from . import model as qm
from .errors import ConfigError, DataError, DivergenceError

METRICS_HEADER = "epoch,l_ce,l_mse,loss,train_acc,val_loss,val_acc"
CONFIG_FORMAT_VERSION = 1
_MODEL_KEYS = tuple(f.name for f in fields(qm.ModelConfig))
# what a config file's run-only keys must hold, by JSON type (null leaves a key unset)
_RUN_ONLY_KINDS = {
    "data": ("a path string", lambda v: type(v) is str),
    "out": ("a path string", lambda v: type(v) is str),
    "deterministic": ("a bool", lambda v: type(v) is bool),
    "train_fraction": ("a number", lambda v: type(v) in (int, float)),
    "minority": ("a [class, fraction] pair",
                 lambda v: type(v) is list and [*map(type, v)] in ([int, int], [int, float])),
    "pad_to": ("an int", lambda v: type(v) is int),
}
_RUN_ONLY_KEYS = tuple(_RUN_ONLY_KINDS)
# model flags are spelled like their ModelConfig field, except these two
_FLAG_NAMES = {"num_classes": "classes", "learning_rate": "lr"}
_FLAG_HELP = {
    "features": "encoder features per superpixel (multiple of 3)",
    "blocks": "quantum convolution blocks",
    "kernels": "kernels per block (power of 2)",
    "alpha": "reconstruction loss weight",
}


def _parse_minority(text: str):
    cls, _, frac = text.partition(":")
    try:
        return int(cls), float(frac)
    except ValueError as exc:
        raise ConfigError(f"--minority expects CLASS:FRACTION, got {text!r}") from exc


def _load_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no config file at {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # bad or too deeply nested JSON
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    if raw.get("format_version", CONFIG_FORMAT_VERSION) != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"unsupported config format_version {raw.get('format_version')}")
    unknown = set(raw) - set(_MODEL_KEYS) - set(_RUN_ONLY_KEYS) - {"format_version"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (kind, holds) in _RUN_ONLY_KINDS.items():
        if raw.get(key) is not None and not holds(raw[key]):
            raise ConfigError(f"{key} must be {kind}, got {raw[key]!r:.40}")
    return raw

def _run_config(args) -> dict:
    """Merge defaults <- config file <- flags into one flat dict."""
    merged = {f.name: f.default for f in fields(qm.ModelConfig)}
    merged.update(dict.fromkeys(_RUN_ONLY_KEYS), deterministic=False)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    overrides = {key: getattr(args, key) for key in _MODEL_KEYS + _RUN_ONLY_KEYS}
    if args.minority:
        overrides["minority"] = _parse_minority(args.minority)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _model_config(merged: dict) -> qm.ModelConfig:
    return qm.ModelConfig(**{k: merged[k] for k in _MODEL_KEYS})


def _echo_config(merged: dict, out: Path) -> None:
    echo = {"format_version": CONFIG_FORMAT_VERSION}
    echo.update({k: merged[k] for k in _MODEL_KEYS})
    echo.update({k: merged[k] for k in _RUN_ONLY_KEYS})
    echo["data"] = str(echo["data"]) if echo["data"] is not None else None
    echo["out"] = str(out)
    echo["minority"] = list(echo["minority"]) if echo["minority"] else None
    (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require_out(merged: dict) -> Path:
    if not merged.get("out"):
        raise ConfigError("--out is required")
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(merged: dict) -> int:
    seed = qm.checked_field("seed", merged["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _load_data(merged: dict, needed: tuple, config: qm.ModelConfig, reader: str) -> dict:
    """The dataset's splits in ``needed``; each must hold samples, and an
    image shape other than ``config``'s or a label past the ``num_classes``
    of ``reader`` is a config error."""
    if not merged.get("data"):
        raise ConfigError("--data is required")
    data_dir = Path(merged["data"])
    if not data_dir.is_dir():
        raise DataError(f"dataset directory {data_dir} does not exist")
    data = dataio.load_dataset(
        data_dir,
        needed,
        train_fraction=merged.get("train_fraction"),
        minority=merged.get("minority"),
        seed=_seed(merged),
        pad_to=merged.get("pad_to"),
    )
    shape = (config.image_size, config.image_size, config.channels)
    for split in needed:
        if data[split][1].size == 0:
            raise DataError(f"the {split} split of {data_dir} holds no samples")
        if data[split][0].shape[1:] != shape:
            raise ConfigError(f"the model reads {shape} images, dataset provides {data[split][0].shape[1:]}")
    if max(int(data[split][1].max()) for split in needed) >= config.num_classes:
        raise ConfigError(f"dataset has more classes than {reader}")
    return data


def _write_metrics_csv(path: Path, rows) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(f"{r.epoch},{r.l_ce!r},{r.l_mse!r},{r.loss!r},{r.train_acc!r},{r.val_loss!r},{r.val_acc!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    merged = _run_config(args)
    config = _model_config(merged)
    data = _load_data(merged, dataio.SPLIT_ORDER, config, f"the model's {config.num_classes}")
    out = _require_out(merged)
    model = qm.HybridModel(config)
    _echo_config(merged, out)
    accuracies = []
    for r in range(config.runs):
        try:
            result = qm.train_single_run(model, data["train"], data["validation"], config.seed + r, r)
        except DivergenceError as exc:
            _write_metrics_csv(out / f"run{r}_metrics.csv", getattr(exc, "partial_rows", []))
            raise
        _write_metrics_csv(out / f"run{r}_metrics.csv", result.rows)
        qm.save_checkpoint(out / f"run{r}.ckpt", result.best_store, config)
        metrics = qm.evaluate(model, result.best_store, *data["test"])
        accuracies.append(metrics.accuracy)
        print(f"run {r}: best epoch {result.best_epoch}, val loss {result.best_val_loss:.6f}, "
              f"test accuracy {metrics.accuracy:.4f}")
    summary = {
        "runs": config.runs,
        "test_accuracy_per_run": accuracies,
        "test_accuracy_mean": float(np.mean(accuracies)),
        "test_accuracy_std": float(np.std(accuracies)),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"test accuracy {summary['test_accuracy_mean']:.4f} +/- {summary['test_accuracy_std']:.4f}")
    return 0


def _checkpoint_and_split(args, merged: dict):
    """(model, store, images, labels) for ``--checkpoint`` on the ``--split``
    of ``--data``; a dataset it cannot read, by image shape or class count, is
    a config error, and parameters that do not fit its own config a data error."""
    store, config = qm.load_checkpoint(args.checkpoint)
    images, labels = _load_data(merged, (args.split,), config, "the checkpoint")[args.split]
    model = qm.HybridModel(config)
    if store.lengths() != model.segment_lengths:
        raise DataError(f"checkpoint {args.checkpoint}: its {store.lengths()} parameters do not fit its config")
    return model, store, images, labels


def cmd_eval(args) -> int:
    merged = _run_config(args)
    model, store, images, labels = _checkpoint_and_split(args, merged)
    out = _require_out(merged)
    config = model.config
    metrics = qm.evaluate(model, store, images, labels)
    lines = ["metric,class,value", f"accuracy,,{metrics.accuracy!r}"]
    for c in range(config.num_classes):
        lines.append(f"precision,{c},{float(metrics.precision[c])!r}")
        lines.append(f"recall,{c},{float(metrics.recall[c])!r}")
        lines.append(f"f1,{c},{float(metrics.f1[c])!r}")
    (out / "eval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"accuracy {metrics.accuracy:.4f}")
    return 0


def cmd_analyze(args) -> int:
    merged = _run_config(args)
    model, store, images, labels = _checkpoint_and_split(args, merged)
    config = model.config
    if args.ami and labels.size < config.num_classes:
        raise DataError(f"--ami needs at least {config.num_classes} samples, one per class, "
                        f"but the {args.split} split holds {labels.size}")
    out = _require_out(merged)
    features = []
    processed = []
    for _, fw in model.forward_chunks(images, store, reconstruct=False):
        features.append(fw["features"])
        processed.append(fw["processed"].reshape(fw["processed"].shape[0], -1))
    features = np.concatenate(features)
    processed = np.concatenate(processed)

    magnitudes = analysis.feature_magnitudes(features)
    lines = ["rank,magnitude"]
    lines += [f"{i},{float(m)!r}" for i, m in enumerate(magnitudes)]
    (out / "magnitudes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if args.ami:
        seed = _seed(merged)
        truth = analysis.Labeling(labels, config.num_classes)
        ami_processed = analysis.ami(
            analysis.kmeans(processed, config.num_classes, seed), truth
        )
        ami_features = analysis.ami(
            analysis.kmeans(features, config.num_classes, seed), truth
        )
        content = "configuration,processed_image_ami,feature_vector_ami\n"
        content += f"{Path(args.checkpoint).stem},{ami_processed!r},{ami_features!r}\n"
        (out / "ami.csv").write_text(content, encoding="utf-8")
        print(f"ami processed={ami_processed:.4f} features={ami_features:.4f}")
    return 0


def cmd_resources(args) -> int:
    merged = _run_config(args)
    config = _model_config(merged)
    report = circuits.resource_report(config.circuit_config())
    for line in report.as_lines():
        print(line)
    return 0


def cmd_synth(args) -> int:
    merged = _run_config(args)
    spec = dataio.SyntheticSpec(
        **{k: qm.checked_field(k, merged[k]) for k in ("num_classes", "image_size", "channels", "seed")},
        train_samples=args.train_samples,
        validation_samples=args.validation_samples,
        test_samples=args.test_samples,
        noise=args.noise,
    )
    out = _require_out(merged)
    dataio.generate_synthetic(spec, out)
    print(f"wrote synthetic dataset to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--data", help="dataset directory")
    parser.add_argument("--out", help="output directory (all artifacts land here)")
    parser.add_argument("--deterministic", action="store_true", default=None,
                        help="force sequential reductions (evaluation order is already sequential)")
    parser.add_argument("--train-fraction", type=float, dest="train_fraction")
    parser.add_argument("--minority", help="CLASS:FRACTION subsampling of one training class")
    parser.add_argument("--pad-to", type=int, dest="pad_to",
                        help="zero-pad images up to this spatial size at load time")
    for f in fields(qm.ModelConfig):
        kind = type(f.default)
        if kind is bool:  # on by default; the flag turns it off
            flag = "no-" + f.name.removesuffix("_enabled").replace("_", "-")
            parser.add_argument(f"--{flag}", action="store_false", default=None, dest=f.name)
        else:
            flag = _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
            parser.add_argument(f"--{flag}", type=kind, dest=f.name, metavar=flag.upper().replace("-", "_"),
                                help=_FLAG_HELP.get(f.name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quanvnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a dataset directory")
    _add_common(p_train)
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=dataio.SPLIT_ORDER)
    p_eval.set_defaults(handler=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="representation analyses on a checkpoint")
    _add_common(p_analyze)
    p_analyze.add_argument("--checkpoint", required=True)
    p_analyze.add_argument("--split", default="test", choices=dataio.SPLIT_ORDER)
    p_analyze.add_argument("--ami", action="store_true", help="also write k-means AMI scores")
    p_analyze.set_defaults(handler=cmd_analyze)

    p_res = sub.add_parser("resources", help="print the quantum resource report")
    _add_common(p_res)
    p_res.set_defaults(handler=cmd_resources)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p_synth)
    p_synth.add_argument("--train-samples", type=int, default=200, dest="train_samples")
    p_synth.add_argument("--validation-samples", type=int, default=100, dest="validation_samples")
    p_synth.add_argument("--test-samples", type=int, default=100, dest="test_samples")
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
