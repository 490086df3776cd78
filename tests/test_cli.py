import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._exceptions import _ArrayMemoryError

from smoea.cli import DEFAULT_CONFIG, build_dataset, load_config, main, read_settings
from smoea.data import CIFAR_RECORD, write_cifar10_batch
from smoea.evolution import mask_from_hex
from smoea.network import build_toy_cnn, count_params, load_model, save_model
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


def config_dataset(cfg):
    """The dataset a config file names, for its builtin toy model."""
    s = read_settings(load_config(cfg))
    return build_dataset(s.dataset, tuple(s.model["input_shape"]))


class TestReport:
    def test_vgg14_flops_band(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"model": {"builtin": "vgg14"}})
        assert run(["report", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert 6.20e8 <= payload["flops"] <= 6.33e8
        assert payload["num_convs"] == 13
        assert "flops=" in capsys.readouterr().out

    def test_vgg14_accuracy_on_default_dataset(self, tmp_path):
        # synthetic images take the model's input shape, so no dataset
        # setting repeats VGG-14's 3x32x32
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"model": {"builtin": "vgg14"}})
        assert run(["report", "--config", cfg, "--out", str(out), "--with-accuracy"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["input_shape"] == [3, 32, 32]
        assert 0.0 <= payload["test_accuracy"] <= 1.0

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
        assert run(["train", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert 0.0 <= payload["test_accuracy"] <= 1.0
        net = load_model(out / "model")
        assert net.num_convs == 4

    def test_saved_model_reusable_by_report(self, tmp_path):
        train_out = tmp_path / "train"
        cfg = write_config(tmp_path, {"finetune": {"epochs": 1, "milestones": []}})
        run(["train", "--config", cfg, "--out", str(train_out)])
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
    def test_report_holds_the_front(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert run(["evolve-layer", "--config", cfg, "--out", str(out), "--layer", "2"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["layer"] == 2
        front = payload["front"]
        assert len(front) >= 1
        pcts = [row["filter_pct"] for row in front]
        assert pcts == sorted(pcts)
        for row in front:
            genes = mask_from_hex(row["mask_hex"], 16)
            assert genes.sum() == row["retained_count"]
            assert row["filter_pct"] == row["retained_count"] / 16
        # report.json is the run's one record
        assert sorted(p.name for p in out.iterdir()) == ["config.echo", "log.txt", "report.json"]

    def test_alpha_modes_produce_comparable_fronts(self, tmp_path):
        # layer 1 has only 8 filters so both searches converge to the
        # per-count optima and the intensity-compensated errors dominate;
        # the two configs differ only in evolution.alpha_mode
        outs = {}
        for mode in ("optimized", "fixed_one"):
            cfg = write_config(
                tmp_path,
                {"evolution": {"population_size": 40, "elite_size": 15,
                               "generations": 30, "seed": 7, "alpha_mode": mode}},
                name=f"{mode}.json",
            )
            out = tmp_path / mode
            assert run(
                ["evolve-layer", "--config", cfg, "--out", str(out), "--layer", "1"]
            ) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["alpha_mode"] == mode
            outs[mode] = {row["retained_count"]: row["error"] for row in report["front"]}
        shared = set(outs["optimized"]) & set(outs["fixed_one"])
        assert shared
        for k in shared:
            assert outs["optimized"][k] <= outs["fixed_one"][k] + 1e-9


class TestConfigIsTheRecord:
    """The config is the one way to set a value, so a run's config.echo
    records the settings it ran with and reruns it."""

    @pytest.mark.parametrize(
        "argv",
        [["evolve-layer", "--layer", "1", "--alpha-mode", "optimized"],
         ["train", "--epochs", "1"]],
        ids=["alpha_mode", "epochs"],
    )
    def test_removed_flags_are_unknown(self, tmp_path, capsys, no_work, argv):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--config", cfg, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_evolve_layer_runs_the_configured_alpha_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"evolution": {**FAST_EVO, "alpha_mode": "fixed_one"}}
        )
        out = tmp_path / "run"
        assert run(["evolve-layer", "--config", cfg, "--out", str(out), "--layer", "1"]) == 0
        report = json.loads((out / "report.json").read_text())
        echo = json.loads((out / "config.echo").read_text())
        assert report["config"]["alpha_mode"] == echo["evolution"]["alpha_mode"] == "fixed_one"
        assert "alpha_mode=fixed_one" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["evolve-layer", "--layer", "1"], ["report", "--with-accuracy"]],
        ids=["evolve-layer", "report"],
    )
    def test_model_flag_is_echoed_as_model_path(self, tmp_path, argv):
        # a rerun from the echo alone loads the model --model named, not the
        # builtin net of the same shape
        model = tmp_path / "model"
        save_model(build_toy_cnn(seed=5), model)
        cfg = write_config(tmp_path)
        first, second, builtin = (tmp_path / name for name in ("first", "second", "builtin"))
        assert run([*argv, "--config", cfg, "--out", str(first), "--model", str(model)]) == 0
        echo = json.loads((first / "config.echo").read_text())
        assert echo["model"]["path"] == str(model)
        echoed = tmp_path / "echoed.json"
        echoed.write_text((first / "config.echo").read_text())
        assert run([*argv, "--config", str(echoed), "--out", str(second)]) == 0
        report = (first / "report.json").read_bytes()
        assert (second / "report.json").read_bytes() == report
        assert run([*argv, "--config", cfg, "--out", str(builtin)]) == 0
        assert (builtin / "report.json").read_bytes() != report

    @pytest.mark.parametrize("with_config", [True, False], ids=["config", "defaults"])
    def test_model_flag_leaves_later_runs_alone(self, tmp_path, with_config):
        # --model replaces the model section; the defaults' own dict, which
        # a config without a model section shares, keeps its null path
        small = tmp_path / "small"
        save_model(build_toy_cnn(conv_channels=(4, 4, 4, 4)), small)
        argv = ["report", "--config", write_config(tmp_path)] if with_config else ["report"]
        assert run([*argv, "--out", str(tmp_path / "a"), "--model", str(small)]) == 0
        assert run([*argv, "--out", str(tmp_path / "b")]) == 0
        params = [
            json.loads((tmp_path / name / "report.json").read_text())["params"]
            for name in ("a", "b")
        ]
        assert params == [
            count_params(build_toy_cnn((4, 4, 4, 4))), count_params(build_toy_cnn())
        ]
        assert DEFAULT_CONFIG["model"]["path"] is None
        assert json.loads((tmp_path / "b" / "config.echo").read_text())["model"]["path"] is None

    def test_train_rerun_from_echo_saves_identical_blobs(self, tmp_path):
        cfg = write_config(tmp_path, {"finetune": {"epochs": 1, "milestones": []}})
        first = tmp_path / "first"
        assert run(["train", "--config", cfg, "--out", str(first)]) == 0
        assert json.loads((first / "config.echo").read_text())["finetune"]["epochs"] == 1
        echoed = tmp_path / "echoed.json"
        echoed.write_text((first / "config.echo").read_text())
        second = tmp_path / "second"
        assert run(["train", "--config", str(echoed), "--out", str(second)]) == 0
        blobs = sorted(p.name for p in (first / "model").iterdir())
        assert blobs == sorted(p.name for p in (second / "model").iterdir())
        for name in blobs:
            a, b = (run_dir / "model" / name for run_dir in (first, second))
            assert a.read_bytes() == b.read_bytes()
        assert (first / "report.json").read_text() == (second / "report.json").read_text()


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
        assert not (out / "fronts").exists()
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
        dataset = config_dataset(cfg)
        fresh = evaluate_accuracy(
            load_model(out / "model"), dataset.test_images, dataset.test_labels
        )
        assert payload["final_accuracy"] == payload["stages"][-1]["accuracy"] == fresh
        payload["final_accuracy"] = fresh
        assert json.dumps(payload, indent=2) == text

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
        assert payload["retain"] == 0.5
        assert payload["rates"] == {str(l): 0.5 for l in range(1, 5)}

    def test_baseline_replays_prune_rates(self, prune_run, tmp_path):
        # --retain names a prune report: each conv keeps the knee's filter count
        _, prune_out, cfg, _ = prune_run
        report = prune_out / "report.json"
        pruned = json.loads(report.read_text())
        out = tmp_path / "run"
        assert run(["baseline", "--config", cfg, "--out", str(out),
                    "--criterion", "random", "--retain", str(report)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["retain"] == str(report)
        assert payload["rates"] == {
            str(row["ordinal"]): row["retained_rate"] for row in pruned["layers"]
        }
        net = load_model(out / "model")
        for row in pruned["layers"]:
            assert net.conv(row["ordinal"]).params.out_channels == row["retained_count"]
        assert payload["params_after"] == pruned["params_after"]

    def test_sweep(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path)
        assert (
            run(["sweep", "--config", cfg, "--out", str(out),
                 "--fractions", "0.5,1.0"])
            == 0
        )
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [row["fraction"] for row in rows] == [0.5, 1.0]
        assert all(set(row) >= {"remained_params_pct", "accuracy"} for row in rows)
        assert not (out / "sweep.csv").exists()

    def test_baseline_empty_plan_reports_unpruned_accuracy(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"groups": {"l0": 1, "block_counts": []}})
        assert run(["baseline", "--config", cfg, "--out", str(out),
                    "--criterion", "random"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["stage_accuracies"] == []
        assert payload["params_after"] == payload["params_before"]
        net = load_model(out / "model")
        dataset = config_dataset(cfg)
        expected = evaluate_accuracy(net, dataset.test_images, dataset.test_labels)
        assert payload["final_accuracy"] == expected
        assert f"final_accuracy={expected:.4f}" in capsys.readouterr().out

    def test_baseline_without_test_split_reports_null(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = single_batch_config(tmp_path)
        assert run(["baseline", "--config", cfg, "--out", str(out),
                    "--criterion", "l2"]) == 0
        payload = json.loads(
            (out / "report.json").read_text(), parse_constant=reject_constant
        )
        assert payload["stage_accuracies"] == [None] * 4
        assert payload["final_accuracy"] is None
        assert "final_accuracy=nan" in capsys.readouterr().out
        assert load_model(out / "model").conv(1).params.out_channels == 4


def reject_constant(name):
    """json parse_constant hook: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} is not valid JSON")


def single_batch_config(tmp_path, input_shape=(3, 32, 32)):
    """A config whose dataset is one 16-record CIFAR batch file: a training
    split and no test split. The toy model takes `input_shape`."""
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
            "model": {"input_shape": list(input_shape)},
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
    """train, sweep and report --with-accuracy need a test split; without one
    they exit 3 before doing any work or writing their run directory."""

    @pytest.mark.parametrize(
        "argv", [["train"], ["sweep", "--fractions", "0.5"], ["report", "--with-accuracy"]]
    )
    def test_fails_before_work(self, tmp_path, capsys, no_work, argv):
        cfg = single_batch_config(tmp_path)
        out = tmp_path / "run"
        assert run([*argv, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1 and errors[0].startswith("ERROR code=3 type=DataError ")
        assert not out.exists()


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

def retain_report(text):
    """An argv entry: a function of tmp_path that writes `text` (str or bytes)
    as a --retain report (no file for None) and returns its path."""

    def write(tmp_path):
        path = tmp_path / "prune_report.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        return str(path)

    return write


# a JSON document saved in Latin-1: its one accented byte is not UTF-8
NOT_UTF8 = '{"calibration_size": 8, "note": "café"}'.encode("latin-1")


def not_utf8_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(NOT_UTF8)
    return str(path)


def not_utf8_model(tmp_path):
    """An argv entry: a saved toy model whose manifest is NOT_UTF8."""
    model = tmp_path / "model"
    save_model(build_toy_cnn(), model)
    (model / "manifest.json").write_bytes(NOT_UTF8)
    return str(model)


def taken_out(sub):
    """An argv entry: --out set to `sub` under a regular file."""

    def write(tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        return str(path / sub)

    return write


def prune_report_text(widths, command="prune"):
    """A report of `command` whose layers keep half of each conv's filters:
    `widths` maps ordinal to num_filters."""
    layers = [{"ordinal": l, "num_filters": w, "retained_count": w // 2,
               "retained_rate": 0.5} for l, w in widths.items()]
    return json.dumps({"command": command, "layers": layers})


TOY_WIDTHS = {1: 8, 2: 16, 3: 16, 4: 16}
RETAIN_REPORT = ["baseline", "--criterion", "random", "--retain"]

# id: (argv, whose entries may be functions of tmp_path that return one and
# which gets `--out tmp_path/r` unless it has an --out of its own, config
# overrides, raw config text or a function of tmp_path that writes a
# config file, manifest edit of a saved model passed with --model, exit code,
# error type)
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
    "sweep_fraction_above_one": (
        ["sweep", "--fractions", "0.5,1.5"], {}, None, 2, "ArgumentError",
    ),
    "retain_above_one": (
        ["baseline", "--criterion", "l2", "--retain", "1.5"], {}, None,
        2, "ArgumentError",
    ),
    "retain_zero": (
        ["baseline", "--criterion", "l2", "--retain", "0"], {}, None, 2, "ArgumentError",
    ),
    "retain_report_missing": (
        [*RETAIN_REPORT, retain_report(None)], {}, None, 2, "ArgumentError",
    ),
    "retain_report_not_json": (
        [*RETAIN_REPORT, retain_report("{not json")], {}, None, 2, "ArgumentError",
    ),
    "retain_report_not_utf8": (
        [*RETAIN_REPORT, retain_report(NOT_UTF8)], {}, None, 2, "ArgumentError",
    ),
    "config_not_utf8": (["report"], not_utf8_config, None, 2, "ArgumentError"),
    "manifest_not_utf8": (
        ["report", "--model", not_utf8_model], {}, None, 4, "ModelFormatError",
    ),
    "retain_report_of_baseline": (
        [*RETAIN_REPORT, retain_report(prune_report_text(TOY_WIDTHS, "baseline"))], {},
        None, 2, "ArgumentError",
    ),
    "retain_report_lacks_layer": (
        [*RETAIN_REPORT, retain_report(prune_report_text({1: 8, 2: 16, 3: 16}))], {},
        None, 2, "ArgumentError",
    ),
    "retain_report_width_mismatch": (
        [*RETAIN_REPORT, retain_report(prune_report_text({**TOY_WIDTHS, 2: 8}))], {},
        None, 2, "ArgumentError",
    ),
    "unknown_layer": (
        ["evolve-layer", "--layer", "9"], {}, None, 5, "UnknownLayerError",
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
    "out_is_a_file": (["report", "--out", taken_out("")], {}, None, 2, "ArgumentError"),
    "out_under_a_file": (
        ["report", "--out", taken_out("sub")], {}, None, 2, "ArgumentError",
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
    "nan_tau1": {"tau1": math.nan},
    "infinite_tau2": {"tau2": math.inf},
    "unknown_alpha_mode": {"alpha_mode": "nonsense"},
    "tau1_above_tau2": {"tau1": 0.9, "tau2": 0.1},
    "elite_size_above_population_size": {"population_size": 4, "elite_size": 5},
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
    "infinite_lr": {"lr": math.inf},
    "momentum_one": {"momentum": 1.0},
    "string_momentum": {"momentum": "0.9"},
    "lr_beyond_float": {"lr": 10**400},
    "milestones_beyond_epochs": {"milestones": [1, 2]},
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
    "nan_noise": {"dataset": {"noise": math.nan}},
    "negative_infinite_noise": {"dataset": {"noise": -math.inf}},
    "noise_beyond_float": {"dataset": {"noise": 10**400}},
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

# sizes too large for an array, which numpy refuses before it allocates
# anything: past its largest dimension, past a C long, or more bytes than
# an address can count
HUGE = 10**30
HUGE_SIZES = {
    "huge_dataset_classes": {"dataset": {"classes": HUGE}},
    "huge_train_per_class": {"dataset": {"train_per_class": HUGE}},
    "huge_conv_channel": {"model": {"conv_channels": [HUGE, 4]}},
    "huge_input_shape_entry": {"model": {"input_shape": [3, HUGE, 8]}},
    "conv_channel_past_address_space": {"model": {"conv_channels": [2**62, 4]}},
}
for _name, _values in HUGE_SIZES.items():
    ERROR_CASES[_name] = (["report", "--with-accuracy"], _values, None, 2, "ArgumentError")
ERROR_CASES["huge_conv_channel_without_data"] = (
    ["report"], HUGE_SIZES["huge_conv_channel"], None, 2, "ArgumentError",
)
# a population whose pool of genomes numpy refuses, for each command that
# runs the search
for _size_name, _size in {"huge": HUGE, "past_address_space": 2**62}.items():
    for _command, _argv in {
        "evolve_layer": ["evolve-layer", "--layer", "1"],
        "prune": ["prune"],
        "sweep": ["sweep", "--fractions", "0.5"],
    }.items():
        ERROR_CASES[f"{_size_name}_population_{_command}"] = (
            _argv, {"evolution": {"population_size": _size, "elite_size": 2}}, None,
            2, "ArgumentError",
        )

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
    # synthetic images take the model's input shape: the dataset section
    # has no shape keys
    "dataset_channels_key": (
        ["prune"], {"dataset": {"channels": 4}}, None, 2, "ArgumentError",
    ),
    "dataset_size_keys": (
        ["train"], {"dataset": {"height": 16, "width": 16}}, None, 2, "ArgumentError",
    ),
    "cifar_shape_mismatch": (
        ["prune"], lambda tmp_path: single_batch_config(tmp_path, (3, 8, 8)), None,
        2, "ArgumentError",
    ),
    "evolve_layer_classes_mismatch": (
        ["evolve-layer", "--layer", "1"], {"model": {"classes": 5}}, None,
        2, "ArgumentError",
    ),
    "baseline_dataset_channels_key": (
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
    "report_accuracy_dataset_width_key": (
        ["report", "--with-accuracy"], {"dataset": {"width": 4}}, None,
        2, "ArgumentError",
    ),
})

# every command that trains or calibrates refuses an empty training split
# before its run directory
for _name, _argv in {
    "train": ["train"],
    "evolve_layer": ["evolve-layer", "--layer", "1"],
    "prune": ["prune"],
    "baseline": ["baseline", "--criterion", "l2"],
    "sweep": ["sweep", "--fractions", "0.5"],
}.items():
    ERROR_CASES[f"{_name}_empty_training_split"] = (
        _argv, {"dataset": {"train_per_class": 0}}, None, 3, "DataError",
    )

# a fine-tune whose loss turns non-finite fails at that step, before any
# model is saved; these rows run their fine-tune
RUNS_FINETUNE = {"diverging_finetune"}

# rows whose error breaks a rule between two fields: the message names both
# id -> how the message begins: the dotted path of the rejected key or field
MESSAGE_PREFIX = {
    "unknown_evolution_key": "evolution.bogus is not a config key",
    "unknown_groups_key": "groups.block_count is not a config key",
    "unknown_model_key": "model.chanels is not a config key",
    "unknown_dataset_key": "dataset.heigth is not a config key",
    "misspelt_top_level_key": "calibraton_size is not a config key",
    "removed_top_level_keys": (
        "deterministic is not a config key; output_dir is not a config key"
    ),
    "missing_dataset_path": (
        "dataset.path must be a non-empty string when dataset.kind is "
        "'cifar10-binary', got None"
    ),
}
CROSS_FIELD = {
    "tau1_above_tau2": ("evolution.tau1", "evolution.tau2"),
    "elite_size_above_population_size": ("evolution.elite_size", "evolution.population_size"),
    "milestones_beyond_epochs": ("finetune.milestones", "finetune.epochs"),
}
ERROR_CASES.update({
    "diverging_finetune": (
        ["train"], {"finetune": {"lr": 1e6, "epochs": 2, "milestones": []}}, None,
        7, "NonFiniteError",
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


_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])

# integers no float can hold
_beyond_float = st.sampled_from([10**400, -(10**400), 2**1024])

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
    ("finetune", "lr"): (
        _invalid(st.floats(max_value=0.0, allow_nan=False), _non_finite, _beyond_float), 2,
    ),
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
    ("evolution", "tau1"): (_invalid(_non_finite), 2),
    ("evolution", "tau2"): (_invalid(_non_finite), 2),
    ("evolution", "alpha_mode"): (_invalid_choice("optimized", "fixed_one"), 2),
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
    ("dataset", "noise"): (_invalid(_non_finite, _beyond_float), 2),
    ("dataset", "seed"): (_invalid_int(0), 2),
    ("model", "builtin"): (_invalid_choice("toy-cnn", "vgg14"), 2),
    ("dataset", "kind"): (_invalid_choice("synthetic", "cifar10-binary"), 2),
}

# every command, with its required arguments
COMMANDS = {
    "train": ["train"],
    "evolve-layer": ["evolve-layer", "--layer", "1"],
    "prune": ["prune"],
    "baseline": ["baseline", "--criterion", "l2"],
    "sweep": ["sweep", "--fractions", "0.5"],
    "report": ["report"],
}

# one bad value per config section, with its exit code
BAD_SECTION_VALUES = {
    "model": ({"model": {"builtin": "resnet"}}, 2),
    "dataset": ({"dataset": {"kind": "imagenet"}}, 2),
    "groups": ({"groups": {"l0": "a"}}, 6),
    "evolution": ({"evolution": {"population_size": "x"}}, 2),
    "finetune": ({"finetune": {"lr": -1}}, 2),
    "calibration_size": ({"calibration_size": 0}, 2),
}


@st.composite
def invalid_config(draw):
    """(config, config path, exit code) with one invalid field."""
    path = draw(st.sampled_from(sorted(INVALID_FIELDS)))
    values, code = INVALID_FIELDS[path]
    value = draw(values)
    config = value
    for key in reversed(path):
        config = {key: config}
    return config, path, code


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


TOY_LAYERS = build_toy_cnn().layers
# each parametric layer's manifest fields, with the smallest valid value
TOY_FIELDS = {
    "conv": {"out_channels": 1, "in_channels": 1, "kernel_h": 1, "kernel_w": 1,
             "stride": 1, "padding": 0},
    "dense": {"in_features": 1, "out_features": 1},
}
PARAMETRIC = [i for i, lay in enumerate(TOY_LAYERS) if lay.parametric]
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_not_int = _any_json.filter(lambda v: type(v) is not int)
DELETE = object()  # a corrupt_model value: remove the field


@st.composite
def corrupt_model(draw):
    """A change to a saved toy model that load_model must refuse, as
    (kind, where, value): a manifest field set to a value no model accepts
    or removed (value DELETE), the manifest text cut short, a parametric
    layer's blob cut or padded by some bytes, or one of its values set to
    NaN or an infinity."""
    kind = draw(st.sampled_from(["top_field", "layer_field", "manifest_text", "blob_size",
                                 "blob_value"]))
    if kind == "top_field":
        key = draw(st.sampled_from(["format", "endianness", "dtype", "input_shape",
                                    "num_layers", "layers"]))
        keep = {"format": "smoea-model", "endianness": "little", "dtype": "float64",
                "input_shape": [3, 8, 8]}
        values = {
            "num_layers": st.one_of(
                st.just(float(len(TOY_LAYERS))), _not_int,
                st.integers().filter(lambda v: v != len(TOY_LAYERS)),
            ),
            "layers": _any_json.filter(lambda v: not isinstance(v, list) or v != []),
        }.get(key, _any_json.filter(lambda v: v != keep.get(key)))
        # the endianness and dtype fields may be left out
        if key not in ("endianness", "dtype") and draw(st.booleans()):
            return kind, key, DELETE
        return kind, key, draw(values)
    if kind == "layer_field":
        i = draw(st.sampled_from(PARAMETRIC))
        lay_kind = TOY_LAYERS[i].kind
        field = draw(st.sampled_from(["kind", "blob", *TOY_FIELDS[lay_kind]]))
        if draw(st.booleans()):
            return kind, (i, field), DELETE
        if field == "kind":
            value = _any_json.filter(lambda v: v not in ("conv", "dense", "relu", "maxpool",
                                                         "flatten"))
        elif field == "blob":  # no blob file of the model has this name
            value = _any_json.filter(lambda v: not (isinstance(v, str) and v.startswith("layer_")))
        else:
            value = _not_int | st.integers(max_value=TOY_FIELDS[lay_kind][field] - 1)
        return kind, (i, field), draw(value)
    if kind == "manifest_text":
        return kind, None, draw(st.integers(0, 200))
    i = draw(st.sampled_from(PARAMETRIC))
    values = len(TOY_LAYERS[i].blob()) // 8
    if kind == "blob_size":
        return kind, i, draw(st.integers(-8 * values, 17).filter(lambda d: d != 0))
    return kind, (i, draw(st.integers(0, values - 1))), draw(
        st.sampled_from([np.nan, np.inf, -np.inf])
    )


def apply_corruption(model, case):
    """Write a corrupt_model case into the saved model directory `model`."""
    kind, where, value = case
    manifest_path = model / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    blobs = [e.get("blob") for e in manifest["layers"]]
    if kind in ("top_field", "layer_field"):
        entry, key = (manifest, where) if kind == "top_field" else (
            manifest["layers"][where[0]], where[1])
        if value is DELETE:
            del entry[key]
        else:
            entry[key] = value
        manifest_path.write_text(json.dumps(manifest))
    elif kind == "manifest_text":
        text = manifest_path.read_text()
        manifest_path.write_text(text[: value % len(text)])
    elif kind == "blob_size":
        blob = model / blobs[where]
        raw = blob.read_bytes()
        blob.write_bytes(raw[:value] if value < 0 else raw + bytes(value))
    else:
        blob = model / blobs[where[0]]
        values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
        values[where[1]] = value
        blob.write_bytes(values.astype("<f8").tobytes())


class TestErrors:
    @pytest.mark.parametrize(
        "argv, config, edit_manifest, code, error_type",
        list(ERROR_CASES.values()),
        ids=list(ERROR_CASES),
    )
    def test_error_contract(
        self, tmp_path, capsys, request, argv, config, edit_manifest, code, error_type
    ):
        if request.node.callspec.id not in RUNS_FINETUNE:
            request.getfixturevalue("no_work")
        if callable(config):
            cfg = config(tmp_path)
        elif isinstance(config, str):
            cfg = tmp_path / "config.json"
            cfg.write_text(config)
        else:
            cfg = write_config(tmp_path, config)
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        argv = [*argv, "--config", str(cfg)]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "r")]
        if edit_manifest is not None:
            argv += ["--model", str(saved_toy_model(tmp_path, edit_manifest))]
        if request.node.callspec.id in RUNS_FINETUNE:
            # the diverging fine-tune overflows on its way to a non-finite loss
            expected = pytest.warns(RuntimeWarning, match="overflow|invalid value")
        else:
            expected = contextlib.nullcontext()
        with expected:
            assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR code={code} type={error_type} msg=")
        for name in CROSS_FIELD.get(request.node.callspec.id, ()):
            assert name in errors[0]
        msg = errors[0].split(" msg=", 1)[1]
        assert msg.startswith(MESSAGE_PREFIX.get(request.node.callspec.id, ""))
        assert not (tmp_path / "r" / "model").exists()
        if request.node.callspec.id not in RUNS_FINETUNE:
            # refused before the run directory, so before any output
            assert not (tmp_path / "r").exists()

    def test_allocation_refused_by_the_os(self, tmp_path, capsys, monkeypatch):
        """numpy's MemoryError for a size that passes its own checks but
        that the OS refuses (10**11 classes asks for 140 TiB) is an
        ArgumentError too; raised here without asking for the memory."""

        def refused(*args):
            raise _ArrayMemoryError((10**11, 3, 8, 8), np.dtype(np.float64))

        monkeypatch.setattr("smoea.cli.build_dataset", refused)
        out = tmp_path / "r"
        argv = ["report", "--with-accuracy", "--config", write_config(tmp_path)]
        assert run([*argv, "--out", str(out)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("ERROR code=2 type=ArgumentError msg=")
        assert "140. TiB" in errors[0]
        assert not out.exists()

    def test_runs_root_is_a_file(self, tmp_path, capsys, monkeypatch, no_work):
        """Without --out, a SMOEA_RUNS that names a regular file exits 2 with
        one error line, like an --out under a file."""
        root = tmp_path / "runs"
        root.write_text("")
        monkeypatch.setenv("SMOEA_RUNS", str(root))
        assert run(["report", "--config", write_config(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith("ERROR code=2 type=ArgumentError msg=")
        assert root.read_text() == ""

    @settings(max_examples=120, deadline=None)
    @given(case=invalid_config(), argv=st.sampled_from(list(COMMANDS.values())))
    def test_invalid_field_property(self, tmp_path_factory, case, argv):
        config, path, code = case
        tmp_path = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(tmp_path, config)
        out = tmp_path / "r"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run([*argv, "--config", cfg, "--out", str(out)]) == code
        err = err.getvalue()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR code={code} ")
        # the message names the field by its dotted path and quotes its value
        value = config
        for key in path:
            value = value[key]
        msg = errors[0].split(" msg=", 1)[1]
        assert msg.startswith(".".join(path) + " must be ")
        assert msg.endswith(f", got {value!r}")
        # refused before the run directory and config.echo, so before any work
        assert not out.exists()

    @pytest.mark.parametrize("section", list(BAD_SECTION_VALUES))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_checks_every_section(
        self, tmp_path, capsys, no_work, command, section
    ):
        config, code = BAD_SECTION_VALUES[section]
        out = tmp_path / "r"
        argv = [*COMMANDS[command], "--config", write_config(tmp_path, config)]
        assert run([*argv, "--out", str(out)]) == code
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("ERROR code=")
        ]
        assert len(errors) == 1 and errors[0].startswith(f"ERROR code={code} ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, code",
        [(["prune"], {"groups": {"l0": 4, "block_counts": [2]}}, 6),
         (["prune"], {"calibration_size": 0}, 2),
         (["sweep", "--fractions", "0.5"], {"calibration_size": 0}, 2)],
        ids=["prune_plan_overflow", "prune_zero_calibration", "sweep_zero_calibration"],
    )
    def test_no_accuracy_pass_before_a_config_error(
        self, tmp_path, monkeypatch, no_work, argv, config, code
    ):
        passes = []

        def counted(net, images, labels):
            passes.append(net)
            return 0.0

        for target in ("smoea.pipeline.evaluate_accuracy", "smoea.cli.evaluate_accuracy"):
            monkeypatch.setattr(target, counted)
        cfg = write_config(tmp_path, config)
        assert run([*argv, "--config", cfg, "--out", str(tmp_path / "r")]) == code
        assert passes == []

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--fractions", "0.5,abc"], ["sweep", "--fractions", "0,0.5"],
         ["baseline", "--criterion", "random", "--retain", "1.5"],
         [*RETAIN_REPORT, retain_report(None)],
         [*RETAIN_REPORT, retain_report("{not json")],
         [*RETAIN_REPORT, retain_report(prune_report_text(TOY_WIDTHS, "baseline"))],
         [*RETAIN_REPORT, retain_report(json.dumps({"command": "prune", "layers": [
             {"ordinal": 1, "num_filters": 8, "retained_rate": 1.5}]}))]],
        ids=["unparsable_fraction", "zero_fraction", "retain_above_one",
             "retain_report_missing", "retain_report_not_json", "retain_report_of_baseline",
             "retain_report_rate_above_one"],
    )
    def test_flag_error_builds_no_dataset(self, tmp_path, monkeypatch, argv):
        built = []
        for target in ("smoea.cli.load_cifar10", "smoea.cli.generate_synthetic"):
            monkeypatch.setattr(target, lambda *a, **k: built.append(a))
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        cfg = write_config(tmp_path)
        assert run([*argv, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert built == []

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

    @settings(max_examples=120, deadline=None)
    @given(case=corrupt_model())
    def test_corrupt_model_property(self, tmp_path_factory, case):
        """Every corrupt manifest field, blob size or non-finite blob value
        of a saved model exits 4 with one error line, writing nothing."""
        tmp_path = tmp_path_factory.mktemp("model")
        model = tmp_path / "model"
        save_model(build_toy_cnn(), model)
        apply_corruption(model, case)
        out = tmp_path / "r"
        argv = ["report", "--model", str(model), "--with-accuracy",
                "--config", write_config(tmp_path), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == 4
        err = err.getvalue()
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("ERROR code=")]
        assert len(errors) == 1
        assert errors[0].startswith("ERROR code=4 type=ModelFormatError ")
        kind, where, _ = case
        if kind in ("blob_size", "blob_value") or kind == "layer_field" and where[1] == "blob":
            i = where if kind == "blob_size" else where[0]
            assert errors[0].split(" msg=", 1)[1].startswith(f"layers[{i}].blob ")
        assert not out.exists()
