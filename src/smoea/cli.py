"""Command-line surface.

Subcommands: train, evolve-layer, prune, baseline, sweep, report. Every
run writes a self-describing directory: config.echo (the merged JSON
config), log.txt, any produced model under model/, and report.json, the one
record of the run's results (Pareto fronts included). Re-running with the
echoed config and seeds reproduces all numeric outputs. `baseline --retain`
takes one fraction for every planned layer or a prune run's report.json,
whose per-layer retained rates it replays.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import network as N
from .data import Dataset, SyntheticParams, generate_synthetic, load_cifar10
from .evolution import EvolutionConfig, run_summary
from .exceptions import (
    ArgumentError,
    PlanError,
    SmoeaError,
    UnknownLayerError,
    check_fields,
    read_json_object,
)
from .network import Network, build_toy_cnn, build_vgg14, load_model, save_model
from .pipeline import (
    FineTuneConfig,
    GroupPlan,
    baseline_prune,
    calibration_batch,
    evaluate_accuracy,
    evolve_layer,
    final_accuracy,
    finetune,
    group_layers,
    smoea_prune,
    sweep_uniform_retention,
)

log = logging.getLogger("smoea")

IMAGE_SHAPE = ("channels", "height", "width")

DEFAULT_CONFIG = {
    "model": {
        "builtin": "toy-cnn",
        "path": None,
        "seed": 0,
        "conv_channels": [8, 16, 16, 16],
        "input_shape": [3, 8, 8],
        "classes": 10,
    },
    # synthetic images take the model's input shape
    "dataset": {
        "kind": "synthetic",
        "path": None,
        **{k: v for k, v in asdict(SyntheticParams()).items() if k not in IMAGE_SHAPE},
    },
    "groups": {"l0": 1, "block_counts": [1, 1, 1, 1]},
    "evolution": asdict(EvolutionConfig()),
    "finetune": asdict(FineTuneConfig()),
    "calibration_size": 64,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    user = read_json_object(path, ArgumentError, "config")
    _check_keys(user, DEFAULT_CONFIG)
    return _merge(DEFAULT_CONFIG, user)


def _check_keys(given: dict, known: dict, section: str = "") -> None:
    """Reject each key of `given` that `known` lacks, by its dotted path."""
    where = f"{section}." if section else ""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ArgumentError("; ".join(f"{where}{key} is not a config key" for key in unknown))


def build_dataset(d: dict, input_shape: tuple[int, int, int]) -> Dataset:
    """The dataset of a checked `dataset` section; synthetic images have
    the given input shape."""
    if d["kind"] == "cifar10-binary":
        return load_cifar10(d["path"])
    synthetic = {k: v for k, v in d.items() if k not in ("kind", "path")}
    synthetic.update(zip(IMAGE_SHAPE, input_shape))
    return generate_synthetic(SyntheticParams(**synthetic))


def build_model(m: dict) -> Network:
    """The model of a checked `model` section: the saved model at its path,
    else the builtin."""
    if m["path"]:
        return load_model(m["path"])
    if m["builtin"] == "vgg14":
        return build_vgg14(seed=m["seed"])
    return build_toy_cnn(
        conv_channels=tuple(m["conv_channels"]),
        input_shape=tuple(m["input_shape"]),
        num_classes=m["classes"],
        seed=m["seed"],
    )


def check_fit(dataset: Dataset, net: Network) -> None:
    """The images must have the model's input shape, and the model must
    output a score for every class the labels name."""
    image_shape = tuple(dataset.train_images.shape[1:])
    if image_shape != tuple(net.input_shape):
        raise ArgumentError(
            f"dataset images of shape {list(image_shape)} do not fit the model's "
            f"input_shape {list(net.input_shape)}"
        )
    out_shape = N.activation_shapes(net)[-1]
    if len(out_shape) != 1 or out_shape[0] < dataset.num_classes:
        raise ArgumentError(
            f"the model outputs shape {list(out_shape)} but the dataset has "
            f"{dataset.num_classes} classes"
        )


def _section(cfg: dict, name: str, error: type[SmoeaError] = ArgumentError) -> dict:
    """Config section `name`, which must be an object (else `error`) whose
    keys are all keys of DEFAULT_CONFIG[name]."""
    check_fields(cfg, "an object", (name,), error=error)
    _check_keys(cfg[name], DEFAULT_CONFIG[name], name)
    return dict(cfg[name])


def _model_section(cfg: dict) -> dict:
    m = _section(cfg, "model")
    check = partial(check_fields, m, section="model")
    check(("toy-cnn", "vgg14"), ("builtin",))
    check("a string or null", ("path",))
    check("an integer", ("seed",), low=0)
    check("an integer", ("classes",), low=1)
    check("a list of integers", ("conv_channels",), low=1)
    check("a list of 3 integers", ("input_shape",), low=1)
    return m


def _dataset_section(cfg: dict) -> dict:
    d = _section(cfg, "dataset")
    check = partial(check_fields, d, section="dataset")
    check(("synthetic", "cifar10-binary"), ("kind",))
    check("a string or null", ("path",))
    if d["kind"] == "cifar10-binary":
        check("a non-empty string", ("path",), when="dataset.kind is 'cifar10-binary'")
    # fewer than 2 classes is a data error (exit 3), raised by the generator
    check("an integer", ("classes",))
    check("an integer", ("train_per_class", "test_per_class", "seed"), low=0)
    check("a number", ("noise",))
    return d


@dataclass(frozen=True)
class Settings:
    """A run's merged config with every section checked: all a command reads."""

    config: dict  # as config.echo records it
    model: dict
    dataset: dict
    plan: GroupPlan
    evolution: EvolutionConfig
    finetune: FineTuneConfig
    calibration_size: int


def read_settings(cfg: dict) -> Settings:
    """Check every section of a merged config, whichever a command reads,
    and return the checked values."""
    model, dataset = _model_section(cfg), _dataset_section(cfg)
    plan = GroupPlan(**_section(cfg, "groups", PlanError))
    check_fields(cfg, "an integer", ("calibration_size",), low=1)
    return Settings(
        config=cfg,
        model=model,
        dataset=dataset,
        plan=plan,
        evolution=EvolutionConfig(**_section(cfg, "evolution")),
        finetune=FineTuneConfig(**_section(cfg, "finetune")),
        calibration_size=cfg["calibration_size"],
    )


def read_run(args, with_data: bool = True) -> tuple[Settings, Network, Dataset | None]:
    """Everything a run reads, checked and built while nothing is written:
    the config with --model folded in as model.path, the model and, with
    `with_data`, the dataset checked to fit the model. A size field too
    large for numpy to make its arrays, the search's population among them,
    raises ArgumentError."""
    cfg = load_config(args.config)
    if args.model:
        # a new section: the defaults' own model dict must stay as it is
        cfg["model"] = {**_section(cfg, "model"), "path": args.model}
    settings = read_settings(cfg)
    try:
        net = build_model(settings.model)
        dataset = build_dataset(settings.dataset, net.input_shape) if with_data else None
        # the search's pool of children and elites at the widest conv, made
        # and dropped untouched
        evo = settings.evolution
        widths = [net.conv(l).params.out_channels for l in range(1, net.num_convs + 1)]
        np.empty((evo.population_size + evo.elite_size, max(widths, default=0)), dtype=bool)
    except (ValueError, OverflowError, MemoryError) as e:
        # numpy's refusals of a size field too large for an array
        raise ArgumentError(f"a model, dataset or population size is too large: {e}") from e
    if dataset is not None:
        check_fit(dataset, net)
    return settings, net, dataset


def open_run(args, command: str, settings: Settings) -> Path:
    """Make the run directory, echo the config and start log.txt."""
    if args.out:
        run_dir = Path(args.out)
    else:
        root = Path(os.environ.get("SMOEA_RUNS", "runs"))
        run_dir = root / f"{command}-{time.strftime('%Y%m%d-%H%M%S')}"
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.echo").write_text(json.dumps(settings.config, indent=2))
    except OSError as e:
        raise ArgumentError(f"cannot write the run directory {run_dir}: {e}") from e
    for old in list(log.handlers):
        log.removeHandler(old)
        old.close()
    handler = logging.FileHandler(run_dir / "log.txt")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    log.info("command=%s run_dir=%s", command, run_dir)
    return run_dir


def read_retain(text: str) -> float | dict[int, dict]:
    """--retain as one fraction in (0, 1], or, where it is not a number, the
    path of a prune run's report.json, returned as its layer rows by ordinal."""
    try:
        fraction = float(text)
    except ValueError:
        pass
    else:
        check_fields({"--retain": fraction}, "a number in (0, 1]", ("--retain",))
        return fraction
    report = read_json_object(text, ArgumentError, "--retain report")
    layers = report.get("layers")
    if not isinstance(layers, list) or report.get("command") != "prune" or not all(
        isinstance(row, dict) and {"ordinal", "num_filters", "retained_rate"} <= set(row)
        for row in layers
    ):
        raise ArgumentError(f"--retain {text} is not the report.json of a prune run")
    for i, row in enumerate(layers):
        check = partial(check_fields, row, section=f"layers[{i}]")
        check("an integer", ("ordinal", "num_filters"))
        check("a number in (0, 1]", ("retained_rate",))
    return {row["ordinal"]: row for row in layers}


def planned_rates(
    retain: float | dict[int, dict], groups: list[list[int]], net: Network
) -> dict[int, float]:
    """The retained fraction of each planned conv: the one --retain fraction,
    or the rate in the report's row for that conv, which must record the
    model's width of it."""
    planned = [l for group in groups for l in group]
    if not isinstance(retain, dict):
        return dict.fromkeys(planned, retain)
    for l in planned:
        row = retain.get(l)
        if row is None:
            raise ArgumentError(f"the --retain report has no row for planned conv {l}")
        width = net.conv(l).params.out_channels
        if row["num_filters"] != width:
            raise ArgumentError(
                f"the --retain report's conv {l} has {row['num_filters']} filters, "
                f"the model's has {width}"
            )
    return {l: retain[l]["retained_rate"] for l in planned}


def write_report(run_dir: Path, payload: dict) -> None:
    # a NaN, the accuracy of a run without a test split, is not JSON: null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    (run_dir / "report.json").write_text(json.dumps(payload, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    s, net, dataset = read_run(args)
    dataset.require_nonempty()
    dataset.require_test_split()
    run_dir = open_run(args, "train", s)
    net = finetune(net, dataset, s.finetune)
    acc = evaluate_accuracy(net, dataset.test_images, dataset.test_labels)
    save_model(net, run_dir / "model")
    log.info("trained model accuracy=%.4f", acc)
    write_report(run_dir, {"command": "train", "test_accuracy": acc,
                           "params": N.count_params(net),
                           "flops": N.count_flops(net)})
    print(f"test_accuracy={acc:.4f}")
    return 0


def cmd_evolve_layer(args) -> int:
    s, net, dataset = read_run(args)
    if not 1 <= args.layer <= net.num_convs:
        raise UnknownLayerError(f"layer {args.layer} out of range 1..{net.num_convs}")
    dataset.require_nonempty()
    run_dir = open_run(args, "evolve-layer", s)
    evo = s.evolution
    calib = calibration_batch(dataset, s.calibration_size, evo.seed)
    summary = run_summary(evo, evolve_layer(net, calib, args.layer, evo))
    summary["command"] = "evolve-layer"
    summary["layer"] = args.layer
    write_report(run_dir, summary)
    knee = summary["front"][summary["knee_index"]]
    print(
        f"layer={args.layer} alpha_mode={evo.alpha_mode} "
        f"front_size={len(summary['front'])} "
        f"knee_filter_pct={knee['filter_pct']:.4f} "
        f"knee_error={knee['error']:.6g}"
    )
    return 0


def cmd_prune(args) -> int:
    s, net, dataset = read_run(args)
    group_layers(s.plan, net.num_convs)  # the plan must fit the model
    dataset.require_nonempty()
    run_dir = open_run(args, "prune", s)
    pruned, report = smoea_prune(
        net, dataset, s.plan, s.evolution, s.finetune,
        calibration_size=s.calibration_size,
    )
    save_model(pruned, run_dir / "model")
    payload = report.to_dict()
    payload["command"] = "prune"
    write_report(run_dir, payload)
    print(
        f"remained_parameter_pct={payload['remained_parameter_pct']:.2f} "
        f"final_accuracy={report.final_accuracy:.4f}"
    )
    return 0


def cmd_baseline(args) -> int:
    retain = read_retain(args.retain)
    s, net, dataset = read_run(args)
    rates = planned_rates(retain, group_layers(s.plan, net.num_convs), net)
    dataset.require_nonempty()
    run_dir = open_run(args, "baseline", s)
    pruned, accuracies = baseline_prune(
        net, dataset, s.plan, rates, args.criterion, s.finetune, seed=s.evolution.seed
    )
    save_model(pruned, run_dir / "model")
    final = final_accuracy(pruned, dataset, accuracies)
    payload = {
        "command": "baseline",
        "criterion": args.criterion,
        "retain": args.retain if isinstance(retain, dict) else retain,
        "rates": rates,
        "params_before": N.count_params(net),
        "params_after": N.count_params(pruned),
        "stage_accuracies": accuracies,
        "final_accuracy": final,
    }
    write_report(run_dir, payload)
    print(f"criterion={args.criterion} final_accuracy={final:.4f}")
    return 0


def cmd_sweep(args) -> int:
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError as e:
        raise ArgumentError(f"bad --fractions {args.fractions!r}: {e}") from e
    for f in fractions:
        check_fields({"--fractions entry": f}, "a number in (0, 1]", ("--fractions entry",))
    s, net, dataset = read_run(args)
    dataset.require_nonempty()
    dataset.require_test_split()
    run_dir = open_run(args, "sweep", s)
    rows = sweep_uniform_retention(
        net, dataset, fractions, s.evolution, s.finetune,
        calibration_size=s.calibration_size,
    )
    write_report(run_dir, {"command": "sweep", "rows": rows})
    for row in rows:
        print(
            f"fraction={row['fraction']:.2f} "
            f"params_pct={row['remained_params_pct']:.2f} "
            f"accuracy={row['accuracy']:.4f}"
        )
    return 0


def cmd_report(args) -> int:
    s, net, dataset = read_run(args, with_data=args.with_accuracy)
    if dataset is not None:
        dataset.require_test_split()
    run_dir = open_run(args, "report", s)
    payload = {
        "command": "report",
        "params": N.count_params(net),
        "flops": N.count_flops(net),
        "num_convs": net.num_convs,
        "input_shape": list(net.input_shape),
    }
    if dataset is not None:
        payload["test_accuracy"] = evaluate_accuracy(
            net, dataset.test_images, dataset.test_labels
        )
    write_report(run_dir, payload)
    print(f"params={payload['params']} flops={payload['flops']:.4g}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoea", description="sub-network evolutionary filter pruning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="run directory (default: $SMOEA_RUNS/<cmd>-<ts>)")
        p.add_argument("--model", help="model directory to load (recorded as model.path)")

    p = sub.add_parser("train", help="train a model and save it")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evolve-layer", help="evolve one layer's mask front")
    common(p)
    p.add_argument("--layer", type=int, required=True)
    p.set_defaults(func=cmd_evolve_layer)

    p = sub.add_parser("prune", help="full group-wise evolutionary pruning")
    common(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("baseline", help="prune with a heuristic criterion")
    common(p)
    p.add_argument("--criterion", choices=["random", "l2", "fpgm"], required=True)
    p.add_argument(
        "--retain", default="0.5",
        help="fraction in (0, 1] of each planned conv's filters to keep, or the "
        "report.json of a prune run, whose per-conv retained_rate is kept",
    )
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="uniform-retention sweep")
    common(p)
    p.add_argument("--fractions", default="0.25,0.35,0.45,0.55,0.65,0.75")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="params / FLOPs / accuracy of a model")
    common(p)
    p.add_argument("--with-accuracy", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SmoeaError as e:
        print(
            f"ERROR code={e.exit_code} type={type(e).__name__} msg={e}",
            file=sys.stderr,
        )
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
