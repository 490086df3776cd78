import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoea.cli import build_dataset, load_config, main
from smoea.data import CIFAR_RECORD, write_cifar10_batch
from smoea.evolution import read_front_csv
from smoea.network import build_toy_cnn, load_model, save_model
from smoea.pipeline import evaluate_accuracy

FAST_OVERRIDES = {
    "evolution": {"population_size": 20, "elite_size": 8, "generations": 8, "seed": 7},
    "finetune": {"epochs": 2, "milestones": []},
    "calibration_size": 32,
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(FAST_OVERRIDES)
    if extra:
        cfg = {**cfg, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv):
    return main(argv)


class TestReport:
    def test_vgg14_flops_band(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"model": {"builtin": "vgg14"}})
        assert run(["report", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert 6.20e8 <= payload["flops"] <= 6.33e8
        assert payload["num_convs"] == 13
        assert "flops=" in capsys.readouterr().out

    def test_run_dir_is_self_describing(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        run(["report", "--config", cfg, "--out", str(out)])
        assert (out / "config.echo").exists()
        assert (out / "log.txt").exists()
        echoed = json.loads((out / "config.echo").read_text())
        assert echoed["evolution"]["population_size"] == 20


class TestTrain:
    def test_writes_model_and_report(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg, "--out", str(out), "--epochs", "2"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert 0.0 <= payload["test_accuracy"] <= 1.0
        net = load_model(out / "model")
        assert net.num_convs == 4

    def test_saved_model_reusable_by_report(self, tmp_path):
        train_out = tmp_path / "train"
        cfg = write_config(tmp_path)
        run(["train", "--config", cfg, "--out", str(train_out), "--epochs", "1"])
        report_out = tmp_path / "report"
        assert (
            run(
                [
                    "report",
                    "--config",
                    cfg,
                    "--out",
                    str(report_out),
                    "--model",
                    str(train_out / "model"),
                    "--with-accuracy",
                ]
            )
            == 0
        )
        payload = json.loads((report_out / "report.json").read_text())
        train_payload = json.loads((train_out / "report.json").read_text())
        assert payload["test_accuracy"] == train_payload["test_accuracy"]
        assert payload["params"] == train_payload["params"]


class TestEvolveLayer:
    def test_writes_front_csv(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert run(["evolve-layer", "--config", cfg, "--out", str(out), "--layer", "2"]) == 0
        rows = read_front_csv(out / "fronts" / "layer_2.csv", 16)
        assert len(rows) >= 1
        pcts = [r.objectives.filter_pct for r in rows]
        assert pcts == sorted(pcts)
        payload = json.loads((out / "report.json").read_text())
        assert payload["layer"] == 2

    def test_alpha_modes_produce_comparable_fronts(self, tmp_path):
        # layer 1 has only 8 filters so both searches converge to the
        # per-count optima and the intensity-compensated errors dominate
        cfg = write_config(
            tmp_path,
            {"evolution": {"population_size": 40, "elite_size": 15,
                           "generations": 30, "seed": 7}},
        )
        outs = {}
        for mode in ("optimized", "fixed_one"):
            out = tmp_path / mode
            run(
                [
                    "evolve-layer", "--config", cfg, "--out", str(out),
                    "--layer", "1", "--alpha-mode", mode,
                ]
            )
            outs[mode] = {
                r.retained: r.objectives.error
                for r in read_front_csv(out / "fronts" / "layer_1.csv", 8)
            }
        shared = set(outs["optimized"]) & set(outs["fixed_one"])
        assert shared
        for k in shared:
            assert outs["optimized"][k] <= outs["fixed_one"][k] + 1e-9

    def test_unknown_layer_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run(
            ["evolve-layer", "--config", cfg, "--out", str(tmp_path / "r"),
             "--layer", "9"]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "ERROR code=5 type=UnknownLayerError" in err


@pytest.fixture(scope="module")
def prune_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("prune")
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = run(["prune", "--config", cfg, "--out", str(out)])
    return code, out, cfg, tmp_path


class TestPrune:
    def test_empty_plan_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"groups": {"l0": 1, "block_counts": []}})
        assert run(["prune", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["remained_parameter_pct"] == 100.0

    def test_outputs(self, prune_run):
        code, out, _, _ = prune_run
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["remained_parameter_pct"] < 100.0
        assert len(payload["layers"]) == 4
        for l in range(1, 5):
            assert (out / "fronts" / f"layer_{l}.csv").exists()
        net = load_model(out / "model")
        counts = {row["ordinal"]: row["retained_count"] for row in payload["layers"]}
        for l in range(1, 5):
            assert net.conv(l).params.out_channels == counts[l]

    def test_final_accuracy_is_last_stage(self, prune_run):
        # the report is byte for byte what a fresh test pass over the saved
        # model would have written
        _, out, cfg, _ = prune_run
        text = (out / "report.json").read_text()
        payload = json.loads(text)
        dataset = build_dataset(load_config(cfg))
        fresh = evaluate_accuracy(
            load_model(out / "model"), dataset.test_images, dataset.test_labels
        )
        assert payload["final_accuracy"] == payload["stages"][-1]["accuracy"] == fresh
        payload["final_accuracy"] = fresh
        assert json.dumps(payload, indent=2) == text

    def test_front_csvs_match_report(self, prune_run):
        _, out, _, _ = prune_run
        payload = json.loads((out / "report.json").read_text())
        for row in payload["layers"]:
            path = out / "fronts" / f"layer_{row['ordinal']}.csv"
            with path.open(newline="") as fh:
                csv_rows = [
                    {
                        "filter_pct": float(r["filter_pct"]),
                        "error": float(r["error"]),
                        "retained_count": int(r["retained_count"]),
                        "mask_hex": r["mask_hex"],
                    }
                    for r in csv.DictReader(fh)
                ]
            assert csv_rows == row["front"]

    def test_rerun_reproduces_numbers(self, prune_run):
        _, out, _, tmp_path = prune_run
        echoed = tmp_path / "echoed.json"
        echoed.write_text((out / "config.echo").read_text())
        out2 = tmp_path / "rerun"
        assert run(["prune", "--config", str(echoed), "--out", str(out2)]) == 0
        a = json.loads((out / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert a == b
        net_a, net_b = load_model(out / "model"), load_model(out2 / "model")
        for pos in net_a.conv_positions:
            np.testing.assert_array_equal(
                net_a.layers[pos].params.weights, net_b.layers[pos].params.weights
            )


class TestBaselineAndSweep:
    def test_baseline_l2(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert (
            run(
                ["baseline", "--config", cfg, "--out", str(out),
                 "--criterion", "l2", "--retain", "0.5"]
            )
            == 0
        )
        payload = json.loads((out / "report.json").read_text())
        assert payload["params_after"] < payload["params_before"]
        assert len(payload["stage_accuracies"]) == 4

    def test_sweep(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert (
            run(["sweep", "--config", cfg, "--out", str(out),
                 "--fractions", "0.5,1.0"])
            == 0
        )
        text = (out / "sweep.csv").read_text().strip().splitlines()
        assert text[0] == "fraction,remained_params_pct,accuracy"
        assert len(text) == 3

    def test_baseline_empty_plan_reports_unpruned_accuracy(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"groups": {"l0": 1, "block_counts": []}})
        assert run(["baseline", "--config", cfg, "--out", str(out),
                    "--criterion", "random"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["stage_accuracies"] == []
        assert payload["params_after"] == payload["params_before"]
        net = load_model(out / "model")
        dataset = build_dataset(load_config(cfg))
        expected = evaluate_accuracy(net, dataset.test_images, dataset.test_labels)
        assert payload["final_accuracy"] == expected
        assert f"final_accuracy={expected:.4f}" in capsys.readouterr().out

    def test_baseline_without_test_split_reports_nan(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = single_batch_config(tmp_path)
        assert run(["baseline", "--config", cfg, "--out", str(out),
                    "--criterion", "l2"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["stage_accuracies"]) == 4
        assert all(math.isnan(a) for a in payload["stage_accuracies"])
        assert math.isnan(payload["final_accuracy"])
        assert "final_accuracy=nan" in capsys.readouterr().out
        assert load_model(out / "model").conv(1).params.out_channels == 4


def single_batch_config(tmp_path):
    """A config whose dataset is one 16-record CIFAR batch file: a training
    split and no test split."""
    rng = np.random.default_rng(0)
    batch = tmp_path / "data_batch_1.bin"
    write_cifar10_batch(
        batch,
        rng.integers(0, 256, size=(16, 3, 32, 32), dtype=np.uint8),
        rng.integers(0, 10, size=16),
    )
    return write_config(
        tmp_path,
        {
            "dataset": {"kind": "cifar10-binary", "path": str(batch)},
            "model": {"input_shape": [3, 32, 32]},
            "finetune": {"epochs": 1, "milestones": []},
        },
    )


@pytest.fixture
def no_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("fine-tuning or evolution ran")

    for target in ("smoea.pipeline.finetune_with_history",
                   "smoea.pipeline.evolve_layer", "smoea.cli.evolve_layer",
                   "smoea.cli.finetune"):
        monkeypatch.setattr(target, must_not_run)


class TestNoTestSplit:
    """train and sweep need a test split; without one they exit 3 before
    doing any work."""

    @pytest.mark.parametrize("argv", [["train"], ["sweep", "--fractions", "0.5"]])
    def test_fails_before_work(self, tmp_path, capsys, no_work, argv):
        cfg = single_batch_config(tmp_path)
        out = tmp_path / "run"
        assert run([*argv, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1 and errors[0].startswith("ERROR code=3 type=DataError ")
        assert not (out / "model").exists()


def saved_toy_model(tmp_path, edit_manifest):
    """A saved toy model whose manifest has been passed through edit_manifest."""
    model = tmp_path / "model"
    save_model(build_toy_cnn(), model)
    path = model / "manifest.json"
    manifest = json.loads(path.read_text())
    edit_manifest(manifest)
    path.write_text(json.dumps(manifest))
    return model


def drop_first_out_channels(manifest):
    del manifest["layers"][0]["out_channels"]


def four_channel_input(manifest):
    manifest["input_shape"][0] = 4  # the first conv takes 3 channels


FAST_EVO = FAST_OVERRIDES["evolution"]

# id: (argv, config overrides or raw config text, manifest edit of a saved
# model passed with --model, exit code, error type)
ERROR_CASES = {
    "malformed_config": (["report"], "{not json", None, 2, "ArgumentError"),
    "missing_dataset_path": (
        ["train"], {"dataset": {"kind": "cifar10-binary", "path": None}}, None,
        2, "ArgumentError",
    ),
    "corrupt_model_dir": (["report"], {}, dict.clear, 4, "ModelFormatError"),
    "bad_plan_overflow": (
        ["prune"], {"groups": {"l0": 4, "block_counts": [2]}}, None, 6, "PlanError",
    ),
    "unknown_evolution_key": (
        ["evolve-layer", "--layer", "1"], {"evolution": {**FAST_EVO, "bogus": 1}},
        None, 2, "ArgumentError",
    ),
    "bad_sweep_fraction": (
        ["sweep", "--fractions", "0.5,abc"], {}, None, 2, "ArgumentError",
    ),
    "unknown_crossover": (
        ["evolve-layer", "--layer", "1"],
        {"evolution": {**FAST_EVO, "crossover": "nonsense"}}, None,
        2, "ArgumentError",
    ),
    "zero_lr": (
        ["train"], {"finetune": {"epochs": 1, "milestones": [], "lr": 0}}, None,
        2, "ArgumentError",
    ),
    "manifest_missing_field": (
        ["report"], {}, drop_first_out_channels, 4, "ModelFormatError",
    ),
    "manifest_channel_mismatch": (
        ["report"], {}, four_channel_input, 4, "ModelFormatError",
    ),
}

# evolution config values that must be rejected when the config is read
BAD_EVOLUTION_VALUES = {
    "string_population_size": {"population_size": "40"},
    "bool_elite_size": {"elite_size": True},
    "float_generations": {"generations": 2.5},
    "population_size_one": {"population_size": 1, "elite_size": 1},
    "elite_size_one": {"elite_size": 1},
    "negative_generations": {"generations": -1},
    "crossover_prob_above_one": {"crossover_prob": 1.5},
    "mutation_prob_above_one": {"mutation_prob": 3.0},
    "negative_mutation_prob": {"mutation_prob": -0.1},
    "unknown_alpha_mode": {"alpha_mode": "nonsense"},
}
for _name, _values in BAD_EVOLUTION_VALUES.items():
    ERROR_CASES[_name] = (
        ["evolve-layer", "--layer", "1"], {"evolution": {**FAST_EVO, **_values}},
        None, 2, "ArgumentError",
    )

ERROR_CASES.update({
    "groups_not_object": (["prune"], {"groups": 3}, None, 6, "PlanError"),
    "string_l0": (["prune"], {"groups": {"l0": "1"}}, None, 6, "PlanError"),
    "int_block_counts": (
        ["prune"], {"groups": {"block_counts": 2}}, None, 6, "PlanError",
    ),
    "float_block_count": (
        ["prune"], {"groups": {"block_counts": [1.5]}}, None, 6, "PlanError",
    ),
    "string_calibration_size": (
        ["prune"], {"calibration_size": "64"}, None, 2, "ArgumentError",
    ),
    "zero_calibration_size": (
        ["prune"], {"calibration_size": 0}, None, 2, "ArgumentError",
    ),
})

# finetune config values that must be rejected when the config is read
BAD_FINETUNE_VALUES = {
    "string_epochs": {"epochs": "2"},
    "zero_batch_size": {"batch_size": 0},
    "bool_batch_size": {"batch_size": True},
    "negative_finetune_seed": {"seed": -1},
    "milestones_not_list": {"milestones": 3},
    "string_milestone": {"milestones": ["1"]},
    "string_lr": {"lr": "0.01"},
    "momentum_one": {"momentum": 1.0},
    "string_momentum": {"momentum": "0.9"},
}
for _name, _values in BAD_FINETUNE_VALUES.items():
    ERROR_CASES[_name] = (
        ["train"], {"finetune": {"epochs": 2, "milestones": [], **_values}},
        None, 2, "ArgumentError",
    )

ERROR_CASES.update({
    "unknown_groups_key": (
        ["prune"], {"groups": {"block_count": [2]}}, None, 2, "ArgumentError",
    ),
    "unknown_model_key": (
        ["report"], {"model": {"builtin": "toy-cnn", "chanels": [4]}}, None,
        2, "ArgumentError",
    ),
    "unknown_dataset_key": (
        ["train"], {"dataset": {"kind": "synthetic", "heigth": 8}}, None,
        2, "ArgumentError",
    ),
    "model_not_object": (["report"], {"model": "vgg14"}, None, 2, "ArgumentError"),
    "dataset_not_object": (["train"], {"dataset": []}, None, 2, "ArgumentError"),
})

# model and dataset values that must be rejected before any work
BAD_MODEL_DATASET_VALUES = {
    "string_conv_channels": {"model": {"conv_channels": "ab"}},
    "zero_conv_channel": {"model": {"conv_channels": [0, 4]}},
    "negative_model_seed": {"model": {"seed": -1}},
    "bool_model_seed": {"model": {"seed": True}},
    "zero_model_classes": {"model": {"classes": 0}},
    "short_input_shape": {"model": {"input_shape": [3, 8]}},
    "string_noise": {"dataset": {"noise": "x"}},
    "negative_train_per_class": {"dataset": {"train_per_class": -1}},
    "float_dataset_seed": {"dataset": {"seed": 1.5}},
    "int_cifar_path": {"dataset": {"kind": "cifar10-binary", "path": 5}},
}
for _name, _values in BAD_MODEL_DATASET_VALUES.items():
    ERROR_CASES[_name] = (["report", "--with-accuracy"], _values, None, 2, "ArgumentError")

ERROR_CASES.update({
    "zero_dataset_classes": (
        ["report", "--with-accuracy"], {"dataset": {"classes": 0}}, None, 3, "DataError",
    ),
    "odd_map_before_pool": (
        ["report"], {"model": {"input_shape": [3, 2, 2]}}, None, 7, "GeometryError",
    ),
})

# top-level keys outside DEFAULT_CONFIG, and a dataset that does not fit the
# model, are rejected before any evolution or fine-tuning
ERROR_CASES.update({
    "misspelt_top_level_key": (
        ["prune"], {"calibraton_size": 8}, None, 2, "ArgumentError",
    ),
    "removed_top_level_keys": (
        ["prune"], {"output_dir": "runs", "deterministic": False}, None,
        2, "ArgumentError",
    ),
    "model_classes_below_dataset": (
        ["prune"], {"model": {"classes": 1}}, None, 2, "ArgumentError",
    ),
    "dataset_channels_mismatch": (
        ["prune"], {"dataset": {"channels": 4}}, None, 2, "ArgumentError",
    ),
    "dataset_size_mismatch": (
        ["train"], {"dataset": {"height": 16, "width": 16}}, None, 2, "ArgumentError",
    ),
    "evolve_layer_classes_mismatch": (
        ["evolve-layer", "--layer", "1"], {"model": {"classes": 5}}, None,
        2, "ArgumentError",
    ),
    "baseline_channels_mismatch": (
        ["baseline", "--criterion", "l2"], {"dataset": {"channels": 1}}, None,
        2, "ArgumentError",
    ),
    "sweep_classes_mismatch": (
        ["sweep", "--fractions", "0.5"], {"model": {"classes": 9}}, None,
        2, "ArgumentError",
    ),
    "report_accuracy_classes_mismatch": (
        ["report", "--with-accuracy"], {"model": {"classes": 1}}, None,
        2, "ArgumentError",
    ),
    "report_accuracy_shape_mismatch": (
        ["report", "--with-accuracy"], {"dataset": {"width": 4}}, None,
        2, "ArgumentError",
    ),
})


def _invalid(*extra):
    """Values of the wrong JSON type for a number field, plus `extra`."""
    return st.one_of(
        st.text(max_size=3), st.booleans(), st.none(),
        st.lists(st.integers(), max_size=2), *extra,
    )


_non_integral = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: x != int(x)
)


def _invalid_int(below):
    return _invalid(_non_integral, st.integers(max_value=below - 1))


def _invalid_list(entry):
    """A non-list, or a non-empty list with one invalid entry."""
    return st.one_of(
        st.text(max_size=3), st.booleans(), st.none(), st.integers(), _non_integral,
        st.tuples(st.lists(st.integers(min_value=1), max_size=2), entry).map(
            lambda t: [*t[0], t[1]]
        ),
    )


_bad_entry = st.one_of(st.text(max_size=3), st.booleans(), st.none(), _non_integral)

_invalid_probability = _invalid(
    st.floats(max_value=-1e-9, allow_nan=False),
    st.floats(min_value=1.0, exclude_min=True, allow_nan=False),
)


def _invalid_choice(*choices):
    """Any JSON value but one of the allowed strings."""
    return _invalid(st.text().filter(lambda s: s not in choices), st.integers(), st.floats())


# (config path, invalid values, exit code): every drawn value is rejected
# before any training starts
INVALID_FIELDS = {
    ("groups",): (_invalid(_non_integral, st.integers()), 6),
    ("groups", "l0"): (_invalid_int(1), 6),
    ("groups", "block_counts"): (
        _invalid_list(st.one_of(_bad_entry, st.integers(max_value=0))), 6,
    ),
    ("finetune", "lr"): (_invalid(st.floats(max_value=0.0, allow_nan=False)), 2),
    ("finetune", "epochs"): (_invalid_int(0), 2),
    ("finetune", "milestones"): (_invalid_list(_bad_entry), 2),
    ("finetune", "batch_size"): (_invalid_int(1), 2),
    ("finetune", "momentum"): (
        _invalid(
            st.floats(max_value=-1e-9, allow_nan=False),
            st.floats(min_value=1.0, allow_nan=False),
        ),
        2,
    ),
    ("finetune", "seed"): (_invalid_int(0), 2),
    ("calibration_size",): (_invalid_int(1), 2),
    ("evolution", "population_size"): (_invalid_int(2), 2),
    ("evolution", "elite_size"): (_invalid_int(2), 2),
    ("evolution", "generations"): (_invalid_int(0), 2),
    ("evolution", "seed"): (_invalid_int(0), 2),
    ("evolution", "crossover_prob"): (_invalid_probability, 2),
    ("evolution", "mutation_prob"): (_invalid_probability, 2),
    ("evolution", "alpha_mode"): (_invalid_choice("optimized", "fixed_one"), 2),
    ("evolution", "crossover"): (_invalid_choice("uniform", "one-point"), 2),
    ("model", "path"): (_invalid(_non_integral, st.integers()).filter(
        lambda v: v is not None and not isinstance(v, str)
    ), 2),
    ("model", "seed"): (_invalid_int(0), 2),
    ("model", "classes"): (_invalid_int(1), 2),
    ("model", "conv_channels"): (
        _invalid_list(st.one_of(_bad_entry, st.integers(max_value=0))), 2,
    ),
    ("model", "input_shape"): (
        st.one_of(
            _invalid_list(st.one_of(_bad_entry, st.integers(max_value=0))),
            st.lists(st.integers(1, 8), max_size=5).filter(lambda s: len(s) != 3),
        ),
        2,
    ),
    ("dataset", "path"): (_invalid(_non_integral, st.integers()).filter(
        lambda v: v is not None and not isinstance(v, str)
    ), 2),
    ("dataset", "classes"): (_invalid(_non_integral), 2),
    ("dataset", "train_per_class"): (_invalid_int(0), 2),
    ("dataset", "test_per_class"): (_invalid_int(0), 2),
    ("dataset", "channels"): (_invalid_int(0), 2),
    ("dataset", "height"): (_invalid_int(0), 2),
    ("dataset", "width"): (_invalid_int(0), 2),
    ("dataset", "noise"): (_invalid(), 2),
    ("dataset", "seed"): (_invalid_int(0), 2),
}


@st.composite
def invalid_config(draw):
    path = draw(st.sampled_from(sorted(INVALID_FIELDS)))
    values, code = INVALID_FIELDS[path]
    value = draw(values)
    config = value
    for key in reversed(path):
        config = {key: config}
    return config, code


def cifar_records(n, seed=0):
    """The bytes of n valid CIFAR-10 binary records."""
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 256, size=(n, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=n)
    return records.tobytes()


@st.composite
def corrupt_cifar_batch(draw):
    """(batch file name, its bytes, error type): a training or test batch
    that is cut or padded off a record boundary, holds a label byte of 10
    to 255, or is empty."""
    name = draw(st.sampled_from(["data_batch_1.bin", "test_batch.bin"]))
    kind = draw(st.sampled_from(["length", "label", "empty"]))
    if kind == "length":
        n = draw(st.integers(0, 3))
        extra = draw(st.integers(1, CIFAR_RECORD - 1))
        if n and draw(st.booleans()):
            data = cifar_records(n)[:-extra]
        else:
            data = cifar_records(n) + bytes(extra)
        return name, data, "DataFormatError"
    if kind == "label":
        n = draw(st.integers(1, 3))
        data = bytearray(cifar_records(n))
        data[draw(st.integers(0, n - 1)) * CIFAR_RECORD] = draw(st.integers(10, 255))
        return name, bytes(data), "DataFormatError"
    # no training records, or no test split: train refuses before any step
    return name, b"", "DataError"


class TestErrors:
    @pytest.mark.parametrize(
        "argv, config, edit_manifest, code, error_type",
        list(ERROR_CASES.values()),
        ids=list(ERROR_CASES),
    )
    def test_error_contract(
        self, tmp_path, capsys, no_work, argv, config, edit_manifest, code, error_type
    ):
        if isinstance(config, str):
            cfg = tmp_path / "config.json"
            cfg.write_text(config)
        else:
            cfg = write_config(tmp_path, config)
        argv = [*argv, "--config", str(cfg), "--out", str(tmp_path / "r")]
        if edit_manifest is not None:
            argv += ["--model", str(saved_toy_model(tmp_path, edit_manifest))]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR code={code} type={error_type} msg=")

    @settings(max_examples=120, deadline=None)
    @given(case=invalid_config())
    def test_invalid_field_property(self, tmp_path_factory, case):
        config, code = case
        tmp_path = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(tmp_path, config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["prune", "--config", cfg, "--out", str(tmp_path / "r")]) == code
        err = err.getvalue()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR code={code} ")

    @settings(max_examples=60, deadline=None)
    @given(case=corrupt_cifar_batch())
    def test_corrupt_cifar_bytes_property(self, tmp_path_factory, case):
        name, data, error_type = case
        tmp_path = tmp_path_factory.mktemp("cifar")
        data_dir = tmp_path / "cifar"
        data_dir.mkdir()
        for batch in ("data_batch_1.bin", "test_batch.bin"):
            (data_dir / batch).write_bytes(data if batch == name else cifar_records(8))
        cfg = write_config(
            tmp_path,
            {
                "dataset": {"kind": "cifar10-binary", "path": str(data_dir)},
                "model": {"input_shape": [3, 32, 32]},
                "finetune": {"epochs": 1, "milestones": []},
            },
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        err = err.getvalue()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR code=3 type={error_type} ")
