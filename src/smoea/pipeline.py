"""Group-wise progressive pruning: reverse-order group pruning driven by
per-layer evolution with interleaved fine-tuning, plus the random / l2 /
geometric-median baseline criteria and a uniform-retention sweep.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import network as N
from .data import Dataset
from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    evolve_subnetwork,
    front_rows,
    knee_point,
)
from .exceptions import (
    DataError,
    NonFiniteError,
    PlanError,
    check_fields,
)
from .network import FilterMask, Network
from .objectives import EvaluationContext
from . import tensor as T


@dataclass
class GroupPlan:
    """First pruned conv ordinal plus per-group block counts."""

    l0: int
    block_counts: list[int]

    def __post_init__(self):
        for kind, name in (("an integer", "l0"), ("a list of integers", "block_counts")):
            check_fields(vars(self), kind, (name,), low=1, error=PlanError, section="groups")


@dataclass
class FineTuneConfig:
    """Momentum SGD with a step learning rate. The defaults are the desk
    schedule that every command runs unless its config's `finetune` section
    says otherwise; the paper's 160-epoch schedule (milestones 50 and 100,
    batch 64) is set there too."""

    lr: float = 0.01
    epochs: int = 8
    milestones: tuple[int, ...] = (4, 6)
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check = partial(check_fields, vars(self), section="finetune")
        check("a number > 0", ("lr",))
        check("an integer", ("epochs", "seed"), low=0)
        check("an integer", ("batch_size",), low=1)
        check("a number in [0, 1)", ("momentum",))
        check("a strictly increasing list of integers", ("milestones",))
        if self.epochs > 0:
            check("a list of integers", ("milestones",), below="epochs")
        self.milestones = tuple(self.milestones)


def lr_at(cfg: FineTuneConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch: divided by 10 at each milestone."""
    drops = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.lr / (10.0 ** drops)


@dataclass
class PruneReport:
    params_before: int = 0
    params_after: int = 0
    flops_before: int = 0
    flops_after: int = 0
    baseline_accuracy: float = 0.0
    final_accuracy: float = 0.0
    layers: list[dict] = field(default_factory=list)
    stages: list[dict] = field(default_factory=list)

    def retained_rates(self) -> dict[int, float]:
        return {row["ordinal"]: row["retained_rate"] for row in self.layers}

    def to_dict(self) -> dict:
        return {
            "params_before": self.params_before,
            "params_after": self.params_after,
            "remained_parameter_pct": 100.0 * self.params_after / self.params_before
            if self.params_before
            else 100.0,
            "flops_before": self.flops_before,
            "flops_after": self.flops_after,
            "baseline_accuracy": self.baseline_accuracy,
            "final_accuracy": self.final_accuracy,
            "layers": self.layers,
            "stages": self.stages,
        }


# ---------------------------------------------------------------------------
# grouping


def group_layers(plan: GroupPlan, num_convs: int) -> list[list[int]]:
    """Group g holds ordinals l0-1 + sum(B_i, i<g) + 1..B_g, ascending."""
    groups = []
    start = plan.l0
    for b in plan.block_counts:
        groups.append(list(range(start, start + b)))
        start += b
    if groups and groups[-1][-1] > num_convs:
        raise PlanError(
            f"plan covers conv {groups[-1][-1]} but network has {num_convs} convs"
        )
    return groups


# ---------------------------------------------------------------------------
# training / evaluation


EVAL_BATCH = 256  # images per forward pass of an accuracy evaluation


def evaluate_accuracy(net: Network, images: np.ndarray, labels: np.ndarray) -> float:
    if images.shape[0] == 0:
        raise DataError("empty evaluation split")
    correct = 0
    for i in range(0, images.shape[0], EVAL_BATCH):
        logits, _ = N.forward(net, images[i : i + EVAL_BATCH])
        correct += int((logits.argmax(axis=1) == labels[i : i + EVAL_BATCH]).sum())
    return correct / images.shape[0]


def _test_accuracy(net: Network, dataset: Dataset) -> float:
    """Test-split accuracy, NaN when the dataset has no test split."""
    if not dataset.test_images.size:
        return float("nan")
    return evaluate_accuracy(net, dataset.test_images, dataset.test_labels)


def _clone(net: Network) -> Network:
    return Network(copy.deepcopy(net.layers), net.input_shape)


def finetune_with_history(
    net: Network, dataset: Dataset, cfg: FineTuneConfig
) -> tuple[Network, list[float]]:
    """Momentum SGD over softmax cross-entropy with the step lr schedule.

    Shuffle order is fixed by cfg.seed; returns the tuned network and the
    mean training loss per epoch. Raises NonFiniteError at the first step
    whose loss is NaN or infinite, before that step's update.
    """
    dataset.require_nonempty()
    net = _clone(net)
    velocity: dict[int, list[np.ndarray]] = {}
    rng = np.random.default_rng(cfg.seed)
    x, y = dataset.train_images, dataset.train_labels
    losses = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        nbatch = 0
        for i in range(0, x.shape[0], cfg.batch_size):
            idx = order[i : i + cfg.batch_size]
            logits, saved = N.forward_cached(net, x[idx])
            loss, grad = T.softmax_cross_entropy(logits, y[idx])
            if not math.isfinite(loss):
                raise NonFiniteError(
                    f"fine-tuning diverged: loss {loss} at epoch {epoch + 1} of "
                    f"{cfg.epochs}, step {i // cfg.batch_size + 1} (lr {lr}); "
                    "lower finetune.lr"
                )
            # backward empties saved, freeing each layer's entry once read
            for pos, grads in N.backward(net, saved, grad).items():
                if pos not in velocity:
                    velocity[pos] = [np.zeros_like(g) for g in grads]
                # the clone owns its arrays
                T.sgd_update(net.layers[pos].arrays(), grads, lr, cfg.momentum, velocity[pos])
            epoch_loss += loss
            nbatch += 1
        losses.append(epoch_loss / max(nbatch, 1))
    return net, losses


def finetune(net: Network, dataset: Dataset, cfg: FineTuneConfig) -> Network:
    return finetune_with_history(net, dataset, cfg)[0]


def calibration_batch(dataset: Dataset, size: int, seed: int) -> np.ndarray:
    """Fixed seeded subset of the training images used for feature-map
    reconstruction; makes the evolution deterministic."""
    check_fields({"calibration_size": size}, "an integer", ("calibration_size",), low=1)
    dataset.require_nonempty()
    n = dataset.train_images.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=min(size, n), replace=False)
    return dataset.train_images[np.sort(idx)]


def _layer_seed(base_seed: int, ordinal: int) -> int:
    return int(np.random.SeedSequence((base_seed, ordinal)).generate_state(1)[0])


def evolve_layer(
    net: Network, calib: np.ndarray, l: int, evo: EvolutionConfig
) -> EvolutionResult:
    """Evolve conv l's mask front on its two-layer sub-network, fed by the
    calibration batch, with a seed derived from evo.seed and l."""
    _, captured = N.forward(net, calib, capture={l})
    sub = N.extract_subnetwork(net, l)
    ctx = EvaluationContext.build(sub, captured[l])
    return evolve_subnetwork(ctx, replace(evo, seed=_layer_seed(evo.seed, l)))


# ---------------------------------------------------------------------------
# the main framework


def _prune_groups(
    net: Network,
    dataset: Dataset,
    groups: list[list[int]],
    choose: Callable[[Network, int], np.ndarray],
    ft: FineTuneConfig,
) -> tuple[Network, list[float]]:
    """The protocol every criterion shares: per group, in the order given,
    mask each block by choose(current, l), then compact, fine-tune and
    record the test accuracy (NaN without a test split)."""
    current = net
    accuracies = []
    for group in groups:
        masks: dict[int, FilterMask] = {}
        for l in group:
            masks[l] = FilterMask(choose(current, l), l)
            current = N.apply_mask(current, masks[l])
        current = finetune(N.compact(current, masks), dataset, ft)
        accuracies.append(_test_accuracy(current, dataset))
    return current, accuracies


def smoea_prune(
    net: Network,
    dataset: Dataset,
    plan: GroupPlan,
    evo: EvolutionConfig,
    ft: FineTuneConfig,
    *,
    calibration_size: int,
) -> tuple[Network, PruneReport]:
    """Prune groups in reverse order; inside a group, evolve each block's
    mask on the current network state, then compact and fine-tune before
    moving to the next (earlier) group."""
    # a plan that does not fit, or a bad calibration size, fails before the
    # baseline's test pass
    groups = group_layers(plan, net.num_convs)
    calib = calibration_batch(dataset, calibration_size, evo.seed)
    report = PruneReport(
        params_before=N.count_params(net),
        flops_before=N.count_flops(net),
        baseline_accuracy=_test_accuracy(net, dataset),
    )

    def knee_genes(current: Network, l: int) -> np.ndarray:
        result = evolve_layer(current, calib, l, evo)
        knee = knee_point(result.front)
        report.layers.append(
            {
                "ordinal": l,
                "num_filters": knee.genes.shape[0],
                "retained_count": knee.retained,
                "retained_rate": knee.retained / knee.genes.shape[0],
                "knee": {
                    "filter_pct": knee.objectives.filter_pct,
                    "error": knee.objectives.error,
                },
                "front": front_rows(result.front),
            }
        )
        return knee.genes

    pruned, accuracies = _prune_groups(net, dataset, groups[::-1], knee_genes, ft)
    report.stages = [
        {"group": g, "layers": groups[g - 1], "accuracy": acc}
        for g, acc in zip(range(len(groups), 0, -1), accuracies)
    ]
    report.layers.sort(key=lambda row: row["ordinal"])
    report.params_after = N.count_params(pruned)
    report.flops_after = N.count_flops(pruned)
    # the last stage has measured the returned network already
    report.final_accuracy = (
        accuracies[-1] if accuracies else _test_accuracy(pruned, dataset)
    )
    return pruned, report


# ---------------------------------------------------------------------------
# baselines


def _fpgm_distance_sums(weights: np.ndarray) -> np.ndarray:
    """Each filter's summed Euclidean distance to all filters, one row of
    the distance matrix at a time: an [n, n, d] difference array would take
    9.7 GB at VGG-14's 512-filter convs."""
    flat = weights.reshape(weights.shape[0], -1)
    return np.array([np.sqrt(((row - flat) ** 2).sum(axis=1)).sum() for row in flat])


def baseline_mask(
    weights: np.ndarray,
    retain_fraction: float,
    criterion: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Retain bits (uint8) for one conv layer by a heuristic criterion.

    random: uniform subset. l2: keep the largest-norm filters. fpgm: prune
    the filters with the smallest summed distance to all others (the most
    replaceable ones). Ties prune the lower filter index first.
    """
    check_fields(
        {"retain_fraction": retain_fraction}, "a number in (0, 1]", ("retain_fraction",)
    )
    check_fields({"criterion": criterion}, ("random", "l2", "fpgm"), ("criterion",))
    n = weights.shape[0]
    keep = max(1, round(retain_fraction * n))
    bits = np.zeros(n, dtype=np.uint8)
    if criterion == "random":
        bits[rng.choice(n, size=keep, replace=False)] = 1
    elif criterion == "l2":
        norms = np.sqrt((weights.reshape(n, -1) ** 2).sum(axis=1))
        order = np.argsort(norms, kind="stable")  # ascending: prune front
        bits[order[n - keep :]] = 1
    else:  # fpgm
        order = np.argsort(_fpgm_distance_sums(weights), kind="stable")
        bits[order[n - keep :]] = 1
    return bits


def baseline_prune(
    net: Network,
    dataset: Dataset,
    plan: GroupPlan,
    rates: dict[int, float],
    criterion: str,
    ft: FineTuneConfig,
    seed: int = 0,
) -> tuple[Network, list[float]]:
    """Same reverse-group prune/fine-tune protocol as the evolved pipeline,
    with per-layer masks chosen by a baseline criterion at the given rates.
    Returns the pruned network and one test accuracy per group, in run
    order (NaN without a test split)."""

    def criterion_bits(current: Network, l: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((seed, l)))
        return baseline_mask(current.conv(l).params.weights, rates[l], criterion, rng)

    groups = group_layers(plan, net.num_convs)
    return _prune_groups(net, dataset, groups[::-1], criterion_bits, ft)


# ---------------------------------------------------------------------------
# uniform-retention sweep


def sweep_uniform_retention(
    net: Network,
    dataset: Dataset,
    fractions: list[float],
    evo: EvolutionConfig,
    ft: FineTuneConfig,
    *,
    calibration_size: int,
) -> list[dict]:
    """Evolve every conv once, then for each fraction pick each front's
    member with the closest retention (ties toward lower error), prune all
    convs as one group, fine-tune and record accuracy."""
    for f in fractions:
        check_fields({"fraction": f}, "a number in (0, 1]", ("fraction",))
    calib = calibration_batch(dataset, calibration_size, evo.seed)
    # measured before any evolution or fine-tuning, so that a dataset
    # without a test split fails first
    baseline_acc = evaluate_accuracy(net, dataset.test_images, dataset.test_labels)
    layers = list(range(1, net.num_convs + 1))
    fronts = {l: evolve_layer(net, calib, l, evo).front for l in layers}
    params_before = N.count_params(net)
    rows = []
    for f in fractions:
        if f == 1.0:
            rows.append(
                {"fraction": 1.0, "remained_params_pct": 100.0, "accuracy": baseline_acc}
            )
            continue

        def closest(_: Network, l: int) -> np.ndarray:
            return min(
                fronts[l],
                key=lambda ind: (abs(ind.objectives.filter_pct - f), ind.objectives.error),
            ).genes

        pruned, (acc,) = _prune_groups(net, dataset, [layers], closest, ft)
        pct = 100.0 * N.count_params(pruned) / params_before
        rows.append({"fraction": f, "remained_params_pct": pct, "accuracy": acc})
    return rows
