"""The three benchmark workloads.

Each workload is a `Workload` of three functions:

- `setup(seed, workdir)` makes the inputs from the seed (data, model) and
  returns them; it is timed as `setup_s`;
- `run(state)` does the timed job and returns an `Outcome`;
- `check(state, outcome, checks)` verifies the outcome against slow oracles
  outside the timed region and returns quality metrics.

Every smoea call goes through a module attribute (`P.smoea_prune`, not a
name imported once), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from smoea import data as D
from smoea import evolution as E
from smoea import network as N
from smoea import objectives as O
from smoea import pipeline as P
from smoea import tensor as T

# slow-path error tolerance: |fast - slow| <= RTOL*slow + ATOL*||reference||
RTOL = 1e-7
ATOL = 1e-10
# criterion 07's bound on |masked logits - compacted logits|
COMPACT_TOL = 1e-9

clock = time.perf_counter


class Checks:
    """Counts correctness checks and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    metrics: dict[str, float]  # timings of parts of the job, and rates
    digest_parts: dict  # every deterministic output of the job
    payload: dict = field(default_factory=dict)  # what check() needs

    def digest(self) -> str:
        raw = json.dumps(self.digest_parts, sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()


@dataclass
class Workload:
    name: str
    why: str
    # input seeds a run cycles over: more than one where the amount of work
    # depends on the inputs, so a run measures a mix rather than one draw
    input_seeds: int
    settings: dict
    setup: Callable
    run: Callable
    check: Callable


def derive_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence((seed, key)).generate_state(1)[0])


def input_seeds(seed: int, count: int) -> list[int]:
    """The run's seed first, then seeds derived from it."""
    return [seed, *(derive_seed(seed, k) for k in range(1, count))]


def params_digest(net: N.Network) -> str:
    h = hashlib.sha256()
    for lay in net.layers:
        if lay.kind == "conv":
            h.update(lay.params.weights.tobytes())
            h.update(lay.params.bias.tobytes())
        elif lay.kind == "dense":
            h.update(lay.weights.tobytes())
            h.update(lay.bias.tobytes())
    return h.hexdigest()


def front_rows(front) -> list[dict]:
    return [
        {
            "filter_pct": ind.objectives.filter_pct,
            "error": ind.objectives.error,
            "mask_hex": E.mask_hex(ind.genes),
        }
        for ind in front
    ]


def hypervolume(points: list[tuple[float, float]]) -> float:
    """2-D hypervolume dominated by minimisation points in [0,1]^2 with the
    reference point (1, 1)."""
    area = 0.0
    best_y = 1.0
    pts = sorted(points)
    for i, (x, y) in enumerate(pts):
        best_y = min(best_y, y)
        next_x = pts[i + 1][0] if i + 1 < len(pts) else 1.0
        area += (next_x - x) * (1.0 - best_y)
    return area


def check_front(checks: Checks, label: str, sub, map_l, rows, knee: dict, evo):
    """Slow-path oracle for one layer's final front, and its knee. Returns
    the knee genome and the front's hypervolume with errors normalised by
    the unmasked-output norm."""
    reference = N.subnetwork_forward(sub, map_l)
    ref_norm = T.frobenius_norm(reference)
    n = sub.first.params.out_channels
    lo, hi = E.count_bounds(n, evo.tau1, evo.tau2)
    members = []
    for row in rows:
        ind = E.Individual(E.mask_from_hex(row["mask_hex"], n))
        ind.objectives = O.ObjectiveVector(row["filter_pct"], row["error"])
        members.append(ind)
        k, (fp, err) = ind.retained, ind.objectives.as_tuple()
        checks.expect(
            lo <= k <= hi and fp == k / n,
            f"{label}: member with {k}/{n} filters is infeasible or mislabelled",
        )
        approx = N.subnetwork_forward(sub, map_l, N.FilterMask(ind.genes.astype(np.uint8), 0))
        alpha = O.optimal_alpha(reference, approx)
        slow = T.frobenius_norm(reference - alpha * approx)
        checks.expect(
            abs(err - slow) <= RTOL * slow + ATOL * ref_norm,
            f"{label}: front error {err!r} != slow path {slow!r}",
        )
    checks.expect(
        not any(E.dominates(a.objectives, b.objectives) for a in members for b in members),
        f"{label}: front has a dominated member",
    )
    expect = E.knee_point(members)
    checks.expect(
        expect.objectives.as_tuple() == (knee["filter_pct"], knee["error"]),
        f"{label}: reported knee is not knee_point(front)",
    )
    hv = hypervolume([(m.objectives.filter_pct, m.objectives.error / ref_norm) for m in members])
    return expect.genes, hv


# ---------------------------------------------------------------------------
# desk-prune: the acceptance suite's one-seed desk protocol

DESK_TRAIN = dict(lr=0.01, epochs=8, milestones=(4, 6), batch_size=32)
DESK_GROUP_FT = dict(lr=0.01, epochs=4, milestones=(2, 3), batch_size=32)
DESK_EVO = dict(population_size=40, elite_size=15, generations=25)
DESK_GROUPS = [1, 1, 1, 1]
DESK_CALIBRATION = 64
# the pruned widths, and so the fine-tuning work, depend on the inputs
DESK_INPUT_SEEDS = 3


def desk_setup(seed: int, workdir: Path) -> dict:
    return {
        "seed": seed,
        "dataset": D.generate_synthetic(D.SyntheticParams(seed=seed)),
        "net": N.build_toy_cnn(seed=seed),
    }


def desk_configs(seed: int):
    return (
        P.FineTuneConfig(**DESK_TRAIN, seed=seed),
        P.FineTuneConfig(**DESK_GROUP_FT, seed=seed),
        E.EvolutionConfig(**DESK_EVO, seed=seed),
        P.GroupPlan(1, list(DESK_GROUPS)),
    )


def desk_run(state: dict) -> Outcome:
    seed, dataset = state["seed"], state["dataset"]
    train_cfg, group_ft, evo, plan = desk_configs(seed)
    t0 = clock()
    trained, losses = P.finetune_with_history(state["net"], dataset, train_cfg)
    t1 = clock()
    pruned, report = P.smoea_prune(
        trained, dataset, plan, evo, group_ft, calibration_size=DESK_CALIBRATION
    )
    t2 = clock()
    _, rand_accs = P.baseline_prune(
        trained, dataset, plan, report.retained_rates(), "random", group_ft, seed=seed
    )
    t3 = clock()
    samples = train_cfg.epochs * dataset.train_images.shape[0]
    return Outcome(
        metrics={
            "train_s": t1 - t0,
            "prune_s": t2 - t1,
            "baseline_s": t3 - t2,
            "train_samples_per_s": samples / (t1 - t0),
        },
        digest_parts={
            "train_losses": losses,
            "report": report.to_dict(),
            "random_accuracies": rand_accs,
            "pruned_params": params_digest(pruned),
        },
        payload={"trained": trained, "report": report},
    )


def desk_check(state: dict, out: Outcome, checks: Checks) -> dict:
    """Replay smoea_prune's group loop with the reported knees: check each
    layer's front on the slow path against the network state it was evolved
    on, check compacted == masked logits, and check that the replay ends at
    the reported network."""
    seed, dataset = state["seed"], state["dataset"]
    _, group_ft, evo, plan = desk_configs(seed)
    report = out.payload["report"]
    for loss in out.digest_parts["train_losses"]:
        checks.expect(np.isfinite(loss), f"initial training loss {loss!r} not finite")
    rows = {row["ordinal"]: row for row in report.layers}
    calib = P.calibration_batch(dataset, DESK_CALIBRATION, evo.seed)
    current = out.payload["trained"]
    groups = P.group_layers(plan, current.num_convs)
    hvs = []
    for g in range(len(groups) - 1, -1, -1):
        masks = {}
        for l in groups[g]:
            row = rows[l]
            label = f"desk conv {l}"
            _, captured = N.forward(current, calib, capture={l})
            sub = N.extract_subnetwork(current, l)
            genes, hv = check_front(
                checks, label, sub, captured[l], row["front"], row["knee"], evo
            )
            hvs.append(hv)
            mask = N.FilterMask(genes.astype(np.uint8), l)
            current = N.apply_mask(current, mask)
            masks[l] = mask
        compacted = N.compact(current, masks)
        masked_logits, _ = N.forward(current, dataset.test_images)
        compact_logits, _ = N.forward(compacted, dataset.test_images)
        checks.expect(
            np.abs(masked_logits - compact_logits).max() < COMPACT_TOL,
            f"desk group {g + 1}: compacted logits differ from masked logits",
        )
        current = P.finetune(compacted, dataset, group_ft)
    checks.expect(
        params_digest(current) == out.digest_parts["pruned_params"],
        "desk replay does not reproduce the pruned network",
    )
    checks.expect(
        N.count_flops(current) == report.flops_after,
        "desk replay FLOPs differ from the report",
    )
    return {
        "final_accuracy": report.final_accuracy,
        "random_accuracy": out.digest_parts["random_accuracies"][-1],
        "remained_flops_pct": 100.0 * report.flops_after / report.flops_before,
        "front_hv": float(np.mean(hvs)),
    }


# ---------------------------------------------------------------------------
# evolve-vgg: mask search only, at VGG-14 shapes

VGG_LAYERS = (2, 9, 13)  # 64 filters @32x32 conv tail; 512 @4x4 conv tail; 512 @2x2 dense tail
VGG_EVO = dict(population_size=40, elite_size=15, generations=5)
VGG_CALIBRATION = 8


def vgg_setup(seed: int, workdir: Path) -> dict:
    dataset = D.generate_synthetic(
        D.SyntheticParams(
            train_per_class=1, test_per_class=0, height=32, width=32, seed=seed
        )
    )
    return {
        "seed": seed,
        "calib": P.calibration_batch(dataset, VGG_CALIBRATION, seed),
        "net": N.build_vgg14(seed=seed),
    }


def vgg_run(state: dict) -> Outcome:
    seed, net = state["seed"], state["net"]
    _, captured = N.forward(net, state["calib"], capture=set(VGG_LAYERS))
    evolve_s = 0.0
    layers = []
    for l in VGG_LAYERS:
        sub = N.extract_subnetwork(net, l)
        ctx = O.EvaluationContext.build(sub, captured[l])
        cfg = E.EvolutionConfig(**VGG_EVO, seed=derive_seed(seed, l))
        t = clock()
        result = E.evolve_subnetwork(ctx, cfg)
        evolve_s += clock() - t
        knee = E.knee_point(result.front)
        layers.append(
            {
                "ordinal": l,
                "front": front_rows(result.front),
                "knee": {"filter_pct": knee.objectives.filter_pct, "error": knee.objectives.error},
                "best_error": result.history["best_error"],
            }
        )
    evaluations = len(VGG_LAYERS) * VGG_EVO["population_size"] * (VGG_EVO["generations"] + 1)
    return Outcome(
        metrics={"evolve_s": evolve_s, "evals_per_s": evaluations / evolve_s},
        digest_parts={"layers": layers},
        payload={"captured": captured},
    )


def vgg_check(state: dict, out: Outcome, checks: Checks) -> dict:
    net = state["net"]
    captured = out.payload["captured"]
    hvs = []
    for layer in out.digest_parts["layers"]:
        l = layer["ordinal"]
        sub = N.extract_subnetwork(net, l)
        evo = E.EvolutionConfig(**VGG_EVO, seed=derive_seed(state["seed"], l))
        _, hv = check_front(
            checks, f"vgg conv {l}", sub, captured[l], layer["front"], layer["knee"], evo
        )
        hvs.append(hv)
    return {"front_hv": float(np.mean(hvs))}


# ---------------------------------------------------------------------------
# finetune-cifar: training only, at CIFAR-10 geometry through the binary loader

CIFAR_TRAIN_PER_CLASS = 32
CIFAR_TEST_PER_CLASS = 10
CIFAR_TRAIN_FILES = 2
CIFAR_NOISE = 1.0  # keeps test accuracy well below 1 after the short schedule
CIFAR_CHANNELS = [32, 32, 64, 64]
CIFAR_POOL_AFTER = {2, 4}
CIFAR_FT = dict(lr=0.003, epochs=2, milestones=(), batch_size=32)


def quantise(images: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(127.5 + 32.0 * images), 0, 255).astype(np.uint8)


def cifar_setup(seed: int, workdir: Path) -> dict:
    synth = D.generate_synthetic(
        D.SyntheticParams(
            train_per_class=CIFAR_TRAIN_PER_CLASS,
            test_per_class=CIFAR_TEST_PER_CLASS,
            height=32,
            width=32,
            noise=CIFAR_NOISE,
            seed=seed,
        )
    )
    files = {}
    parts = zip(
        np.array_split(quantise(synth.train_images), CIFAR_TRAIN_FILES),
        np.array_split(synth.train_labels, CIFAR_TRAIN_FILES),
    )
    for i, (images, labels) in enumerate(parts, start=1):
        files[f"data_batch_{i}.bin"] = (images, labels)
    files["test_batch.bin"] = (quantise(synth.test_images), synth.test_labels)
    for name, (images, labels) in files.items():
        D.write_cifar10_batch(workdir / name, images, labels)
    return {
        "seed": seed,
        "workdir": workdir,
        "files": files,
        "dataset": D.load_cifar10(workdir),
        "net": N.build_cnn(CIFAR_CHANNELS, CIFAR_POOL_AFTER, (3, 32, 32), seed=seed),
    }


def cifar_run(state: dict) -> Outcome:
    dataset = state["dataset"]
    cfg = P.FineTuneConfig(**CIFAR_FT, seed=state["seed"])
    t0 = clock()
    net, losses = P.finetune_with_history(state["net"], dataset, cfg)
    t1 = clock()
    accuracy = P.evaluate_accuracy(net, dataset.test_images, dataset.test_labels)
    samples = cfg.epochs * dataset.train_images.shape[0]
    return Outcome(
        metrics={"finetune_s": t1 - t0, "train_samples_per_s": samples / (t1 - t0)},
        digest_parts={
            "losses": losses,
            "accuracy": accuracy,
            "params": params_digest(net),
        },
    )


def cifar_check(state: dict, out: Outcome, checks: Checks) -> dict:
    for loss in out.digest_parts["losses"]:
        checks.expect(np.isfinite(loss), f"cifar training loss {loss!r} not finite")
    for name, (images, labels) in state["files"].items():
        got_images, got_labels = D.read_cifar10_batch(state["workdir"] / name)
        checks.expect(
            np.array_equal(got_labels, labels) and np.array_equal(got_images, images / 255.0),
            f"{name}: read back differs from what was written",
        )
    raw = np.concatenate(
        [images for name, (images, _) in state["files"].items() if name.startswith("data_")]
    ) / 255.0
    mean = raw.mean(axis=(0, 2, 3))
    std = raw.std(axis=(0, 2, 3))
    expect = (raw - mean[None, :, None, None]) / std[None, :, None, None]
    checks.expect(
        np.allclose(state["dataset"].train_images, expect, rtol=0, atol=1e-12),
        "load_cifar10 normalisation differs from per-channel (x - mean) / std",
    )
    return {"final_accuracy": out.digest_parts["accuracy"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-prune",
            "the desk protocol users run: every layer at toy shapes, per-call "
            "overhead dominates and genomes repeat",
            DESK_INPUT_SEEDS,
            {
                "data": "synthetic 3x8x8, 10 classes, 40 train / 10 test per class",
                "model": "build_toy_cnn 8/16/16/16",
                "train": DESK_TRAIN,
                "evolution": DESK_EVO,
                "groups": DESK_GROUPS,
                "calibration_size": DESK_CALIBRATION,
                "group_finetune": DESK_GROUP_FT,
                "baseline": "random at the evolved retained rates",
            },
            desk_setup,
            desk_run,
            desk_check,
        ),
        Workload(
            "evolve-vgg",
            "mask search only at VGG-14 shapes: costly, almost never repeated "
            "evaluations through conv and dense tails, no training",
            1,
            {
                "model": "build_vgg14, He init",
                "layers": list(VGG_LAYERS),
                "calibration": f"{VGG_CALIBRATION} synthetic 3x32x32 images",
                "evolution": VGG_EVO,
            },
            vgg_setup,
            vgg_run,
            vgg_check,
        ),
        Workload(
            "finetune-cifar",
            "training only at CIFAR-10 geometry through the binary loader: "
            "conv backward dominates, no mask evaluation",
            1,
            {
                "data": f"synthetic 3x32x32 uint8, {CIFAR_TRAIN_PER_CLASS} train / "
                f"{CIFAR_TEST_PER_CLASS} test per class, noise {CIFAR_NOISE}, "
                f"{CIFAR_TRAIN_FILES} data_batch files + test_batch",
                "model": f"build_cnn {CIFAR_CHANNELS}, pools after {sorted(CIFAR_POOL_AFTER)}",
                "finetune": CIFAR_FT,
            },
            cifar_setup,
            cifar_run,
            cifar_check,
        ),
    )
}
