import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quanvnet import dataio
from quanvnet import model as qm
from quanvnet.autoencoder import PatchAutoencoder
from quanvnet.cli import METRICS_HEADER, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    spec = dataio.SyntheticSpec(num_classes=3, image_size=16, channels=2,
                                train_samples=24, validation_samples=9,
                                test_samples=9, noise=0.1, seed=13)
    dataio.generate_synthetic(spec, path)
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "image_size": 16,
        "patch_size": 4,
        "features": 3,
        "blocks": 1,
        "kernels": 2,
        "channels": 2,
        "num_classes": 3,
        "alpha": 5.0,
        "learning_rate": 0.01,
        "batch_size": 8,
        "epochs": 2,
        "runs": 1,
        "seed": 7,
    }))
    return path


def train_args(dataset_dir, config_file, out, *extra):
    return ["train", "--config", str(config_file), "--data", str(dataset_dir), "--out", str(out), *extra]


class TestResources:
    def test_canonical_parameters(self, capsys):
        code = main(["resources", "--image-size", "32", "--patch-size", "4", "--features", "9",
                     "--blocks", "2", "--kernels", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trainable_quantum_params=198" in out
        assert "encoding_gate_units=192" in out
        assert "total_qubits=12" in out

    def test_invalid_feature_count_exits_2(self, capsys):
        code = main(["resources", "--image-size", "32", "--patch-size", "4", "--features", "10",
                     "--blocks", "2", "--kernels", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_counts_depend_only_on_ratio(self, capsys):
        main(["resources", "--image-size", "32", "--patch-size", "4", "--features", "9",
              "--blocks", "2", "--kernels", "2"])
        first = capsys.readouterr().out
        main(["resources", "--image-size", "64", "--patch-size", "8", "--features", "9",
              "--blocks", "2", "--kernels", "2"])
        second = capsys.readouterr().out
        assert first == second


class TestTrain:
    def test_missing_dataset_exits_3(self, tmp_path, config_file, capsys):
        code = main(train_args(tmp_path / "nope", config_file, tmp_path / "out"))
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_run_artifacts(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(train_args(dataset_dir, config_file, out, "--epochs", "1", "--runs", "1"))
        assert code == 0
        assert len(list(out.glob("*.ckpt"))) == 1
        assert len(list(out.glob("run*_metrics.csv"))) == 1
        assert (out / "summary.json").is_file()
        assert (out / "config.json").is_file()
        metrics = (out / "run0_metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,l_ce,l_mse,loss,train_acc,val_loss,val_acc"
        assert len(metrics) == 2

    def test_flags_override_config_file(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(train_args(dataset_dir, config_file, out, "--epochs", "1", "--runs", "1",
                               "--alpha", "2.5", "--no-lwm"))
        assert code == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["alpha"] == 2.5
        assert echoed["lwm_enabled"] is False
        assert echoed["epochs"] == 1

    def test_deterministic_reruns_byte_identical(self, dataset_dir, config_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(train_args(dataset_dir, config_file, out,
                                   "--deterministic", "--seed", "7", "--epochs", "2", "--runs", "1"))
            assert code == 0
            outs.append(out)
        for fname in ("run0_metrics.csv", "run0.ckpt", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_loss_column_composition(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "out"
        main(train_args(dataset_dir, config_file, out, "--epochs", "2", "--runs", "1"))
        rows = (out / "run0_metrics.csv").read_text().splitlines()[1:]
        for row in rows:
            _, l_ce, l_mse, loss, *_ = row.split(",")
            assert float(loss) == float(l_ce) + 5.0 * float(l_mse)

    def test_divergence_exits_4_with_partial_metrics(self, dataset_dir, config_file, tmp_path,
                                                     monkeypatch, capsys):
        from quanvnet import model as qm
        from quanvnet.errors import DivergenceError

        real = qm.train_single_run

        def explode(model, train, val, seed, run_index=0):
            partial = real(model, train, val, seed, run_index)
            exc = DivergenceError("loss diverged at epoch 2 (run 0)")
            exc.partial_rows = partial.rows[:1]
            raise exc

        monkeypatch.setattr(qm, "train_single_run", explode)
        out = tmp_path / "out"
        code = main(train_args(dataset_dir, config_file, out, "--epochs", "1", "--runs", "1"))
        assert code == 4
        assert "divergence" in capsys.readouterr().err
        assert len((out / "run0_metrics.csv").read_text().splitlines()) == 2  # header + 1 kept epoch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the encoder overflows: that is the divergence
def test_a_real_divergence_exits_4_and_keeps_the_completed_epochs(tmp_path, capsys):
    # Adam's first update leaves the autoencoder weights finite but near 1e308, and the next forward's encoder
    # makes non-finite angles: a divergence, not a config error
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", "--out", str(data), "--image-size", "8", "--channels", "1"]) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(out), "--image-size", "8", "--patch-size", "4",
                 "--channels", "1", "--features", "3", "--blocks", "1", "--kernels", "1", "--epochs", "3",
                 "--runs", "1", "--lr", "1e308"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "numerical divergence: the encoder's angles are not all finite at epoch 1 (run 0)\n"
    assert (out / "run0_metrics.csv").read_text().splitlines() == [METRICS_HEADER]  # no epoch completed


@pytest.fixture(scope="module")
def trained(dataset_dir, config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(train_args(dataset_dir, config_file, out, "--epochs", "2", "--runs", "1")) == 0
    return out


class TestEvalAndAnalyze:

    def test_eval_writes_f1_csv(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained / "run0.ckpt"),
                     "--data", str(dataset_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "metric,class,value"
        assert lines[1].startswith("accuracy,,")
        assert sum(1 for l in lines if l.startswith("f1,")) == 3

    def test_eval_reads_only_the_split_it_scores(self, trained, dataset_dir, tmp_path, monkeypatch):
        read = []
        real = dataio.read_split_raw

        def spy(directory, manifest, split):
            read.append(split)
            return real(directory, manifest, split)

        monkeypatch.setattr(dataio, "read_split_raw", spy)
        code = main(["eval", "--checkpoint", str(trained / "run0.ckpt"),
                     "--data", str(dataset_dir), "--out", str(tmp_path / "eval")])
        assert code == 0
        assert read == ["test"]

    def test_eval_mismatched_dataset_exits_2(self, trained, tmp_path, capsys):
        other = tmp_path / "other_data"
        spec = dataio.SyntheticSpec(num_classes=3, image_size=32, channels=2,
                                    train_samples=6, validation_samples=3,
                                    test_samples=3, noise=0.1, seed=1)
        dataio.generate_synthetic(spec, other)
        code = main(["eval", "--checkpoint", str(trained / "run0.ckpt"),
                     "--data", str(other), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_analyze_with_ami(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "analysis"
        code = main(["analyze", "--checkpoint", str(trained / "run0.ckpt"),
                     "--data", str(dataset_dir), "--out", str(out), "--ami", "--seed", "3"])
        assert code == 0
        magnitudes = (out / "magnitudes.csv").read_text().splitlines()
        assert magnitudes[0] == "rank,magnitude"
        assert len(magnitudes) == 1 + 16  # one row per feature value
        values = [float(l.split(",")[1]) for l in magnitudes[1:]]
        assert values == sorted(values, reverse=True)
        ami_lines = (out / "ami.csv").read_text().splitlines()
        assert ami_lines[0] == "configuration,processed_image_ami,feature_vector_ami"
        row = ami_lines[1].split(",")
        assert row[0] == "run0"
        for v in row[1:]:
            assert -1.0 <= float(v) <= 1.0


def _corrupt(raw: bytes, case: str) -> bytes:
    """A malformed variant of a valid checkpoint's bytes."""
    header, _, rest = raw.partition(b"\n")
    length = int(header.split()[1])
    manifest, payload = rest[:length], rest[length:]
    if case == "truncated":
        return raw[: len(raw) - 12]
    if case == "no_newline":
        return header
    if case == "bad_json":
        return header + b"\n" + b"{" + manifest[1:-1] + b"\n" + payload
    if case == "bad_length":
        return header.split()[0] + b" twelve\n" + rest
    assert case == "no_adam"
    doc = json.loads(manifest)
    del doc["adam"]
    blob = json.dumps(doc).encode()
    return header.split()[0] + b" %d\n" % len(blob) + blob + payload


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case, message", [
        ("truncated", "array bytes"),
        ("no_newline", "not a checkpoint file"),
        ("bad_json", "not valid JSON"),
        ("bad_length", "is not an integer"),
        ("no_adam", "lacks adam"),
    ])
    def test_eval_exits_3_with_data_error(self, trained, dataset_dir, tmp_path, capsys, case, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(_corrupt((trained / "run0.ckpt").read_bytes(), case))
        code = main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and message in err


class TestSynth:
    def test_deterministic_generation(self, tmp_path):
        args = ["synth", "--classes", "3", "--image-size", "16", "--channels", "2",
                "--train-samples", "12", "--validation-samples", "6", "--test-samples", "6",
                "--noise", "0.1", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_no_training_samples_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--classes", "3", "--image-size", "8", "--channels", "1",
                     "--train-samples", "0", "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("config error: train_samples must be >= 1: "
                       "the normalization constants come from the training split\n")

    def test_synth_then_train(self, tmp_path, config_file):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--image-size", "16", "--channels", "2",
                     "--train-samples", "12", "--validation-samples", "6", "--test-samples", "6",
                     "--out", str(data)]) == 0
        out = tmp_path / "run"
        assert main(train_args(data, config_file, out, "--epochs", "1", "--runs", "1")) == 0


class TestConfigFile:
    def test_unknown_key_rejected(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 1, "not_a_key": 5}))
        code = main(["train", "--config", str(bad), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file(self, dataset_dir, tmp_path):
        code = main(["train", "--config", str(tmp_path / "none.json"),
                     "--data", str(dataset_dir), "--out", str(tmp_path / "out")])
        assert code == 2


def _malformed_manifest(manifest, case):
    """A malformed variant of a valid (1-channel) dataset manifest."""
    splits = manifest["splits"]
    if case == "split_without_count":
        del splits["train"]["count"]
    elif case == "two_axis_image_shape":
        manifest["image_shape"] = manifest["image_shape"][:2]
    elif case == "json_list":
        return [manifest]
    elif case == "string_count":
        splits["train"]["count"] = str(splits["train"]["count"])
    elif case == "normalization_for_two_channels":
        manifest["normalization"] = [[0.0, 1.0], [0.0, 1.0]]
    else:
        assert case == "file_name_with_directory"
        splits["test"]["tensor_file"] = "../" + splits["test"]["tensor_file"]
    return manifest


class TestMalformedManifest:
    @pytest.mark.parametrize("case, message", [
        ("split_without_count", "count None"),
        ("two_axis_image_shape", "image_shape"),
        ("json_list", "not a JSON object"),
        ("string_count", "count '6'"),
        ("normalization_for_two_channels", "normalization"),
        ("file_name_with_directory", "not a plain file name"),
    ])
    def test_train_exits_3_with_data_error(self, tmp_path, capsys, case, message):
        data = tmp_path / "data"
        spec = dataio.SyntheticSpec(num_classes=2, image_size=8, channels=1, train_samples=6,
                                    validation_samples=2, test_samples=2, noise=0.1, seed=3)
        dataio.generate_synthetic(spec, data)
        path = data / dataio.MANIFEST_NAME
        path.write_text(json.dumps(_malformed_manifest(json.loads(path.read_text()), case)))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and message in err
        assert len(err) < 200  # a readable one-line message, not a quoted byte count


def test_eval_rejects_a_checkpoint_with_a_nan_parameter(trained, dataset_dir, tmp_path, capsys):
    from quanvnet import model as qm

    store, config = qm.load_checkpoint(trained / "run0.ckpt")
    store.segments["classifier"][0] = np.nan
    bad = tmp_path / "nan.ckpt"
    qm.save_checkpoint(bad, store, config)
    code = main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "segment:classifier" in err


def test_synth_reads_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format_version": 1, "num_classes": 3, "image_size": 8, "channels": 1}))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(out), "--train-samples", "6",
                 "--validation-samples", "3", "--test-samples", "3"]) == 0
    manifest = dataio.read_manifest(out)
    assert manifest["image_shape"] == [8, 8, 1]
    assert manifest["num_classes"] == 3


def test_renamed_and_negated_model_flags_reach_the_echoed_config(dataset_dir, config_file, tmp_path):
    out = tmp_path / "out"
    code = main(train_args(dataset_dir, config_file, out, "--epochs", "1", "--runs", "1",
                           "--classes", "4", "--lr", "0.02", "--no-lwm", "--no-reconstruction"))
    assert code == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["num_classes"] == 4
    assert echoed["learning_rate"] == 0.02
    assert echoed["lwm_enabled"] is False
    assert echoed["reconstruction_enabled"] is False
    assert echoed["batch_size"] == 8  # unset flags leave the config file's values


MODEL_FLAGS = {"--image-size", "--patch-size", "--features", "--blocks", "--kernels", "--channels", "--classes",
               "--alpha", "--lr", "--batch-size", "--epochs", "--runs", "--seed", "--no-reconstruction", "--no-lwm"}
SCORING_FLAGS = {"--config", "--seed", "--data", "--out", "--train-fraction", "--minority", "--pad-to",
                 "--checkpoint", "--split"}


def test_every_model_config_field_has_exactly_one_flag():
    from dataclasses import fields

    from quanvnet import model as qm
    from quanvnet.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    flags = {name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
             for name, p in commands.items()}
    assert flags == {
        "train": {"--config", "--data", "--out", "--deterministic", "--train-fraction", "--minority",
                  "--pad-to"} | MODEL_FLAGS,
        "eval": SCORING_FLAGS,
        "analyze": SCORING_FLAGS | {"--ami"},
        "resources": {"--config"} | MODEL_FLAGS,
        "synth": {"--config", "--classes", "--image-size", "--channels", "--seed", "--out", "--train-samples",
                  "--validation-samples", "--test-samples", "--noise"},
    }
    assert sum(map(len, flags.values())) == 67
    for name in ("train", "resources"):  # the commands that build a whole ModelConfig
        dests = [action.dest for action in commands[name]._actions]
        for f in fields(qm.ModelConfig):
            assert dests.count(f.name) == 1, (name, f.name)


# each flag was accepted and ignored before: eval and analyze take their model from the checkpoint,
# synth writes no model, resources reads no dataset, and no run reads --deterministic
@pytest.mark.parametrize("command, flag", [("eval", "--features 7"), ("analyze", "--epochs 2"), ("synth", "--lr 0.1"),
                                           ("resources", "--data d"), ("eval", "--deterministic")])
def test_a_flag_the_command_does_not_read_exits_2_before_any_output(dataset_dir, trained, tmp_path, capsys,
                                                                    command, flag):
    out = tmp_path / "out"
    scoring = ["--checkpoint", str(trained / "run0.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
    args = {"eval": scoring, "analyze": scoring, "synth": ["--out", str(out)], "resources": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command] + args + flag.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [("resources", "--feat 6"), ("eval --checkpoint c", "--see 1")])
def test_an_abbreviated_flag_exits_2(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(f"{args} {flag}".split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_command_line_in_the_readme_parses():
    from quanvnet.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line.strip() for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("quanvnet ")]
    assert {argv[1] for argv in commands} == {"synth", "resources", "train", "eval", "analyze"}
    for argv in commands:
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("content, message", [
    ([{"image_size": 16}], "does not hold a JSON object"),
    ({"image_size": "32"}, "image_size must be an int"),
    ({"batch_size": 2.5}, "batch_size must be an int"),
    ({"seed": True}, "seed must be an int"),
    ({"alpha": "5"}, "alpha must be a float"),
    ({"lwm_enabled": 0}, "lwm_enabled must be a bool"),
])
def test_mistyped_config_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    code = main(["resources", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err


def test_too_deeply_nested_config_file_exits_2(dataset_dir, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["train", "--config", str(path), "--data", str(dataset_dir), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: malformed config file") and err.count("\n") == 1


@pytest.mark.parametrize("content", [
    {"train_fraction": "0.5"}, {"train_fraction": [0.5]}, {"train_fraction": True},
    {"pad_to": "32"}, {"pad_to": 16.5}, {"data": 5}, {"out": 7}, {"deterministic": "yes"},
    {"minority": "0:0.5"}, {"minority": 0}, {"minority": [0.0, 0.5]}, {"minority": [0, 0.5, 1]},
])
def test_mistyped_run_only_key_in_a_config_file_exits_2_before_any_output(dataset_dir, tmp_path, capsys, content):
    (key,) = content
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out"
    flags = {"data": ["--data", str(dataset_dir)], "out": ["--out", str(out)]}
    code = main(["train", "--config", str(path)] + [arg for name, args in flags.items() if name != key for arg in args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("content", [
    {"data": "d", "out": "o", "deterministic": True, "train_fraction": 1, "minority": [1, 0.5], "pad_to": 32},
    dict.fromkeys(["data", "out", "deterministic", "train_fraction", "minority", "pad_to"]),
])
def test_well_typed_or_null_run_only_keys_in_a_config_file_are_accepted(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    assert main(["resources", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_checkpoint_with_a_mistyped_config_field_exits_3(trained, dataset_dir, tmp_path, capsys):
    header, _, rest = (trained / "run0.ckpt").read_bytes().partition(b"\n")
    length = int(header.split()[1])
    manifest = json.loads(rest[:length])
    manifest["config"]["batch_size"] = 2.5
    blob = json.dumps(manifest).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(header.split()[0] + b" %d\n" % len(blob) + blob + rest[length:])
    code = main(["eval", "--checkpoint", str(bad), "--data", str(dataset_dir), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "batch_size must be an int" in err


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_a_checkpoint_whose_parameters_do_not_fit_its_config_exits_3_without_output(trained, dataset_dir, tmp_path,
                                                                                    capsys, command):
    # a quantum segment one entry short, in a manifest that agrees with its arrays: the file is at fault
    store, config = qm.load_checkpoint(trained / "run0.ckpt")
    for arrays in (store.segments, store.adam_m, store.adam_v):
        arrays["quantum"] = arrays["quantum"][:-1]
    short = tmp_path / "short.ckpt"
    qm.save_checkpoint(short, store, config)
    out = tmp_path / "out"
    code = main([command, "--checkpoint", str(short), "--data", str(dataset_dir), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"data error: checkpoint {short}: its ") and "do not fit its config" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def empty_test_split(tmp_path_factory):
    """The dataset of ``dataset_dir``'s shape with an empty test split."""
    path = tmp_path_factory.mktemp("empty-test")
    spec = dataio.SyntheticSpec(num_classes=3, image_size=16, channels=2, train_samples=6,
                                validation_samples=3, test_samples=0, seed=2)
    dataio.generate_synthetic(spec, path)
    return path


def test_train_on_an_empty_split_exits_3_before_training(empty_test_split, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(train_args(empty_test_split, config_file, out, "--epochs", "1", "--runs", "1"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "test split" in err
    assert not list(out.glob("run*"))


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_and_analyze_on_an_empty_split_exit_3(trained, empty_test_split, tmp_path, capsys, command):
    args = [command, "--checkpoint", str(trained / "run0.ckpt"), "--data", str(empty_test_split),
            "--out", str(tmp_path / "out")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "test split" in err
    assert main(args + ["--split", "validation"]) == 0


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_and_analyze_on_a_missing_dataset_exit_3_without_output(trained, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--checkpoint", str(trained / "run0.ckpt"), "--data", str(tmp_path / "nope"),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "does not exist" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_and_analyze_on_more_classes_than_the_checkpoint_exit_2_without_output(trained, tmp_path, capsys,
                                                                                     command):
    data = tmp_path / "four-class"
    spec = dataio.SyntheticSpec(num_classes=4, image_size=16, channels=2, train_samples=4,
                                validation_samples=4, test_samples=4, seed=3)
    dataio.generate_synthetic(spec, data)
    out = tmp_path / "out"
    code = main([command, "--checkpoint", str(trained / "run0.ckpt"), "--data", str(data), "--out", str(out),
                 *(["--ami"] if command == "analyze" else [])])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: dataset has more classes than the checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_images_of_another_shape_exit_2_naming_both_shapes_without_output(dataset_dir, config_file, trained, tmp_path,
                                                                         capsys, command):
    out = tmp_path / "out"
    if command == "train":  # a 1-channel model on the 2-channel dataset
        args, shapes = train_args(dataset_dir, config_file, out, "--channels", "1"), ((16, 16, 1), (16, 16, 2))
    else:  # the checkpoint's 16x16 model on the dataset padded to 32x32
        args = [command, "--checkpoint", str(trained / "run0.ckpt"), "--data", str(dataset_dir), "--out", str(out),
                "--pad-to", "32"]
        shapes = ((16, 16, 2), (32, 32, 2))
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: the model reads {shapes[0]} images, dataset provides {shapes[1]}\n"
    assert not out.exists()


def test_analyze_ami_on_fewer_samples_than_classes_exits_3_without_output(trained, tmp_path, capsys):
    data = tmp_path / "one-test-sample"
    spec = dataio.SyntheticSpec(num_classes=3, image_size=16, channels=2, train_samples=3,
                                validation_samples=1, test_samples=1, seed=4)
    dataio.generate_synthetic(spec, data)
    out = tmp_path / "out"
    args = ["analyze", "--checkpoint", str(trained / "run0.ckpt"), "--data", str(data), "--out", str(out)]
    code = main(args + ["--ami"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "data error: --ami needs at least 3 samples, one per class, but the test split holds 1\n"
    assert not out.exists()
    assert main(args) == 0  # the magnitudes need no clustering


def test_evaluate_and_analyze_decode_nothing_while_validation_and_forward_still_do(trained, dataset_dir, tmp_path,
                                                                                 monkeypatch):
    real, calls = PatchAutoencoder.decode, []

    def decode(self, *args):
        calls.append(args[1].shape[-1])
        return real(self, *args)

    monkeypatch.setattr(PatchAutoencoder, "decode", decode)
    store, config = qm.load_checkpoint(trained / "run0.ckpt")
    model = qm.HybridModel(config)
    images = np.random.default_rng(5).uniform(0, 1, (5, 16, 16, 2))
    labels = np.arange(5) % 3
    qm.evaluate(model, store, images, labels)
    assert main(["analyze", "--checkpoint", str(trained / "run0.ckpt"), "--data", str(dataset_dir),
                 "--out", str(tmp_path / "out"), "--ami"]) == 0
    assert calls == []
    qm._epoch_eval(model, images, labels, store)
    model.forward(images[0], store)
    assert calls == [5 * 16, 16]  # one decoded patch per superpixel: 5 images, then 1


def test_train_on_more_classes_than_the_model_exits_2_before_any_run(dataset_dir, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(train_args(dataset_dir, config_file, out, "--classes", "2"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: dataset has more classes than the model's 2\n"
    assert not (out / "run0_metrics.csv").exists()


@pytest.mark.parametrize("content, message", [
    ({"image_size": "32"}, "image_size must be an int"),
    ({"num_classes": 2.0}, "num_classes must be an int"),
    ({"channels": True}, "channels must be an int"),
    ({"seed": "3"}, "seed must be an int"),
])
def test_synth_with_a_mistyped_config_field_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "data"
    code = main(["synth", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["alpha", "learning_rate"])
def test_non_finite_float_in_a_config_file_exits_2_before_training(dataset_dir, tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text('{"%s": %s}' % (field, value))  # JSON as Python writes it; json.loads reads it back
    out = tmp_path / "out"
    code = main(["train", "--config", str(path), "--data", str(dataset_dir), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"{field} must be finite" in err
    assert not list(out.glob("run*"))


def test_importing_the_cli_leaves_scipy_unimported():
    # scipy.special takes about 0.3 s to import; only the AMI analysis needs it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, quanvnet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


SYNTH_ARGS = ["synth", "--classes", "2", "--image-size", "8", "--channels", "1",
              "--train-samples", "4", "--validation-samples", "2", "--test-samples", "2"]


@pytest.mark.parametrize("flag, value, field", [
    ("--noise", "inf", "noise"),
    ("--noise", "1e308", "noise"),  # finite, but the uniform range 2*noise overflows
    ("--noise", "nan", "noise"),
    ("--noise", "-0.5", "noise"),
    ("--seed", "-1", "seed"),
    ("--train-samples", "-3", "train_samples"),
    ("--validation-samples", "-1", "validation_samples"),
    ("--test-samples", "-2", "test_samples"),
])
def test_synth_with_an_out_of_range_value_exits_2_without_output(tmp_path, capsys, flag, value, field):
    out = tmp_path / "data"
    code = main(SYNTH_ARGS + ["--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {field} must be >= 0") and err.count("\n") == 1
    assert not out.exists()


# float64 images over all splits, and the class gratings, past 2 GiB; checked before any allocation
@pytest.mark.parametrize("flags, message", [
    (["--train-samples", "1000000000000"], "1000000000006 images and class gratings of 8^2 x 1 exceed 2 GiB"),
    (["--image-size", "1000000", "--train-samples", "1", "--validation-samples", "0", "--test-samples", "0"],
     "3 images and class gratings of 1000000^2 x 1 exceed 2 GiB"),
    (["--classes", "100000000", "--image-size", "64"], "100000008 images and class gratings of 64^2 x 1 exceed 2 GiB"),
])
def test_synth_of_a_dataset_over_2_gib_exits_2_without_output(tmp_path, capsys, flags, message):
    out = tmp_path / "data"
    code = main(SYNTH_ARGS + ["--out", str(out)] + flags)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# eval reads the seed to subsample the training split, analyze --ami to seed k-means
@pytest.mark.parametrize("command, extra", [("train", []), ("eval", ["--train-fraction", "0.5"]),
                                            ("analyze", ["--ami"])])
def test_train_with_a_negative_seed_exits_2_without_output(dataset_dir, config_file, trained, tmp_path, capsys,
                                                           command, extra):
    out = tmp_path / "out"
    args = train_args(dataset_dir, config_file, out) if command == "train" else [
        command, "--checkpoint", str(trained / "run0.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
    code = main(args + extra + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["resources", "train"])
def test_state_stacks_over_the_memory_budget_exit_2_before_any_output(dataset_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    paths = ["--data", str(dataset_dir), "--out", str(out)] if command == "train" else []
    code = main([command, "--image-size", "1024", "--patch-size", "4"] + paths)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: batch_size 50 on 22 qubits needs") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, split, sample", [("train", "train", 2), ("eval", "test", 4)])
def test_a_non_finite_pixel_exits_3_naming_file_and_sample_without_output(dataset_dir, config_file, trained,
                                                                          tmp_path, capsys, command, split, sample):
    data = tmp_path / "nan"
    dataio.generate_synthetic(dataio.SyntheticSpec(num_classes=3, image_size=16, channels=2, train_samples=6,
                                                   validation_samples=3, test_samples=6, seed=5), data)
    for name, row in (("train", 2), ("test", 4)):
        path = data / f"{name}_images.f32"
        images = np.fromfile(path, dtype="<f4").reshape(-1, 16, 16, 2)
        images[row, 0, 0, 0] = np.nan
        images.tofile(path)
    out = tmp_path / "out"
    if command == "train":
        args = train_args(data, config_file, out)
    else:
        args = ["eval", "--checkpoint", str(trained / "run0.ckpt"), "--data", str(data), "--out", str(out)]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"data error: tensor file {split}_images.f32 holds a NaN or infinite pixel in sample {sample}\n"
    assert not out.exists()


def test_a_pad_to_past_the_model_exits_2_naming_both_shapes_before_reading_a_split(dataset_dir, config_file,
                                                                                 tmp_path, capsys, monkeypatch):
    read = []
    monkeypatch.setattr(dataio, "read_split_raw", lambda *a: read.append(a))
    out = tmp_path / "out"
    code = main(train_args(dataset_dir, config_file, out, "--pad-to", "10000000"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: the model reads (16, 16, 2) images, dataset provides (10000000, 10000000, 2)\n"
    assert read == [] and not out.exists()


@pytest.mark.parametrize("pad_to", ["4", "0", "-3"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_pad_to_below_the_image_size_exits_2_before_reading_a_split(dataset_dir, config_file, trained, tmp_path,
                                                                     capsys, monkeypatch, command, pad_to):
    read = []
    monkeypatch.setattr(dataio, "read_split_raw", lambda *a: read.append(a))
    out = tmp_path / "out"
    args = train_args(dataset_dir, config_file, out) if command == "train" else [
        "eval", "--checkpoint", str(trained / "run0.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
    code = main(args + ["--pad-to", pad_to])
    assert code == 2
    assert capsys.readouterr().err == f"config error: cannot pad 16-pixel images down to {pad_to}\n"
    assert read == [] and not out.exists()


def test_a_classifier_over_the_memory_budget_exits_2_before_any_output(dataset_dir, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(train_args(dataset_dir, config_file, out, "--classes", "100000000000"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: num_classes 100000000000 on 16 features needs")
    assert captured.err.count("\n") == 1
    assert not out.exists()
