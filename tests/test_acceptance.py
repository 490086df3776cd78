"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import time
from itertools import combinations

import numpy as np
import pytest

from smoea import network as N
from smoea import tensor as T
from smoea.data import (
    CIFAR_RECORD,
    SyntheticParams,
    generate_synthetic,
    read_cifar10_batch,
    write_cifar10_batch,
)
from smoea.evolution import (
    EvolutionConfig,
    Individual,
    evolve,
    evolve_subnetwork,
    fast_nondominated_sort,
    knee_point,
    select_elites,
)
from smoea.exceptions import DataFormatError
from smoea.network import FilterMask, build_toy_cnn, build_vgg14, compact, forward
from smoea.objectives import EvaluationContext, ObjectiveVector, optimal_alpha
from smoea.pipeline import (
    FineTuneConfig,
    GroupPlan,
    baseline_prune,
    calibration_batch,
    finetune,
    smoea_prune,
)

from conftest import deb_rank, deb_select, numerical_grad, rel_err


def criterion(num, name, time_limit):
    """Wrap a test: print one pass/fail line and enforce the runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{name}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            line = f"criterion {num:2d} [{name}]: "
            if elapsed > time_limit:
                print(line + f"FAIL (runtime {elapsed:.1f}s > {time_limit}s)")
                raise AssertionError(
                    f"criterion {num} exceeded its {time_limit}s budget "
                    f"({elapsed:.1f}s)"
                )
            print(line + f"PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. FLOPs accounting


@criterion(1, "vgg14 flops accounting", 1.0)
def test_criterion_01_flops():
    flops = N.count_flops(build_vgg14(seed=0))
    assert 6.20e8 <= flops <= 6.33e8


# ---------------------------------------------------------------------------
# 2. brute-force Pareto equivalence at full default budget


@criterion(2, "pareto front matches exhaustive enumeration", 60.0)
def test_criterion_02_bruteforce_front():
    n = 10
    imp = np.linspace(0.5, 5.0, n)

    def score(genes):
        return np.array([(g.sum() / n, imp[~g].sum()) for g in genes])

    # exhaustive feasible enumeration, counts 2..8 under tau = [0.2, 0.8]
    pts = []
    for k in range(2, 9):
        for kept in combinations(range(n), k):
            genes = np.zeros(n, dtype=bool)
            genes[list(kept)] = True
            pts.append((k / n, float(imp[~genes].sum()), k))
    exhaustive = {
        (p[2], round(p[1], 9))
        for p in pts
        if not any(
            q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
            for q in pts
        )
    }

    res = evolve(score, n, EvolutionConfig(seed=42))  # N=100 K=30 T=100
    got = {(ind.retained, round(ind.objectives.error, 9)) for ind in res.front}
    assert got == exhaustive


# ---------------------------------------------------------------------------
# 3. closed-form alpha vs grid scan


@criterion(3, "closed-form alpha beats grid scan", 10.0)
def test_criterion_03_alpha_oracle():
    rng = np.random.default_rng(0)
    alphas = np.arange(0.0, 5.0001, 1e-4)
    for _ in range(100):
        approx = rng.normal(size=(6, 6))
        scale = rng.uniform(0.2, 3.0)
        ref = scale * approx + 0.5 * rng.normal(size=(6, 6))
        sq = (
            (ref.ravel()[None, :] - alphas[:, None] * approx.ravel()[None, :]) ** 2
        ).sum(axis=1)
        a_grid = alphas[sq.argmin()]
        a_closed = optimal_alpha(ref, approx)
        assert abs(a_closed - a_grid) <= 1e-3
        assert T.frobenius_norm(ref - a_closed * approx) <= np.sqrt(sq.min()) + 1e-12


# ---------------------------------------------------------------------------
# 4. optimized-alpha front dominates fixed-alpha front per retained count


@criterion(4, "alpha compensation dominates fixed alpha", 120.0)
def test_criterion_04_alpha_dominance():
    dataset = generate_synthetic(SyntheticParams(seed=5))
    net = build_toy_cnn(seed=5)
    net = finetune(
        net, dataset, FineTuneConfig(lr=0.01, epochs=4, milestones=(2, 3),
                                     batch_size=32, seed=5)
    )
    calib = calibration_batch(dataset, 64, 5)
    _, captured = forward(net, calib, capture={1})
    sub = N.extract_subnetwork(net, 1)
    ctx = EvaluationContext.build(sub, captured[1])
    fronts = {}
    for mode in ("optimized", "fixed_one"):
        cfg = EvolutionConfig(
            population_size=60, elite_size=20, generations=60, seed=11,
            alpha_mode=mode,
        )
        res = evolve_subnetwork(ctx, cfg)
        fronts[mode] = {
            ind.retained: ind.objectives.error for ind in res.front
        }
    shared = set(fronts["optimized"]) & set(fronts["fixed_one"])
    assert shared
    for k in shared:
        assert fronts["optimized"][k] <= fronts["fixed_one"][k] + 1e-9


# ---------------------------------------------------------------------------
# 5. gradients vs central finite differences


@criterion(5, "backward ops match finite differences", 30.0)
def test_criterion_05_gradients():
    rng = np.random.default_rng(1)
    tol = 1e-4
    for trial in range(20):
        # conv
        params = N.ConvParams(
            out_channels=3, in_channels=2, kernel_h=3, kernel_w=3,
            stride=1, padding=1,
            weights=rng.normal(size=(3, 2, 3, 3)),
            bias=rng.normal(size=3),
        )
        x = rng.normal(size=(2, 2, 4, 4))
        grad_out = rng.normal(size=(2, 3, 4, 4))
        gx, gw, gb = T.conv2d_backward(x, params, grad_out)
        assert rel_err(
            gx, numerical_grad(lambda v: (T.conv2d_forward(v, params) * grad_out).sum(), x)
        ) < tol
        assert rel_err(
            gw,
            numerical_grad(
                lambda v: (T.conv2d_forward(x, params) * grad_out).sum(),
                params.weights,
            ),
        ) < tol
        assert rel_err(
            gb,
            numerical_grad(
                lambda v: (T.conv2d_forward(x, params) * grad_out).sum(), params.bias
            ),
        ) < tol

        # relu, away from the kink
        xr = rng.normal(size=(3, 5))
        xr[np.abs(xr) < 1e-3] = 0.1
        gr = rng.normal(size=(3, 5))
        assert rel_err(
            T.relu_backward(xr, gr),
            numerical_grad(lambda v: (T.relu(v) * gr).sum(), xr),
        ) < tol

        # maxpool, ties broken by margin
        xp = rng.normal(size=(2, 2, 4, 4)) * 3
        _, record = T.maxpool2x2(xp)
        gp = rng.normal(size=(2, 2, 2, 2))
        assert rel_err(
            T.maxpool2x2_backward(record, gp),
            numerical_grad(lambda v: (T.maxpool2x2(v)[0] * gp).sum(), xp),
        ) < tol

        # dense
        xd = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        gd = rng.normal(size=(3, 5))
        gx, gw, gb = T.dense_backward(xd, w, gd)
        assert rel_err(
            gx, numerical_grad(lambda v: (T.dense_forward(v, w, b) * gd).sum(), xd)
        ) < tol
        assert rel_err(
            gw, numerical_grad(lambda v: (T.dense_forward(xd, v, b) * gd).sum(), w)
        ) < tol

        # softmax cross-entropy wrt logits
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad = T.softmax_cross_entropy(logits, labels)
        assert rel_err(
            grad,
            numerical_grad(lambda v: T.softmax_cross_entropy(v, labels)[0], logits),
        ) < tol


# ---------------------------------------------------------------------------
# 6. sorting and selection vs independent oracles


@criterion(6, "sorting and selection match oracles", 10.0)
def test_criterion_06_sorting_oracles():
    rng = np.random.default_rng(2)
    for _ in range(50):
        size = int(rng.integers(5, 301))
        # small integer grids force plenty of duplicates and ties
        objs = np.column_stack(
            [
                rng.integers(0, 10, size=size) / 10.0,
                rng.integers(0, 10, size=size).astype(np.float64),
            ]
        )
        pop = []
        for fp, err in objs:
            p = Individual(rng.random(6) < 0.5)
            p.objectives = ObjectiveVector(fp, err)
            pop.append(p)
        got = [sorted(f) for f in fast_nondominated_sort(objs)]
        ranked = deb_rank(pop)
        assert got == ranked[0]
        k = int(rng.integers(1, size + 1))
        if k < 2:
            continue
        assert select_elites(objs, k) == deb_select(pop, k, ranked)


# ---------------------------------------------------------------------------
# 7. compaction reproduces masked logits


@criterion(7, "compaction preserves masked logits", 30.0)
def test_criterion_07_mask_compact_equivalence():
    rng = np.random.default_rng(3)
    for trial in range(20):
        net = build_toy_cnn(seed=int(rng.integers(0, 10_000)))
        masked = net
        masks = {}
        for l in range(1, 5):
            nf = net.conv(l).params.out_channels
            keep = int(rng.integers(max(1, nf // 4), nf + 1))
            bits = np.zeros(nf, dtype=np.uint8)
            bits[rng.choice(nf, size=keep, replace=False)] = 1
            mask = FilterMask(bits, l)
            masked = N.apply_mask(masked, mask)
            masks[l] = mask
        small = compact(net, masks)
        x = rng.normal(size=(4, 3, 8, 8))
        ref, _ = forward(masked, x)
        got, _ = forward(small, x)
        assert np.abs(ref - got).max() < 1e-9


# ---------------------------------------------------------------------------
# 8. knee point geometry and tie rules


@criterion(8, "knee point geometry", 5.0)
def test_criterion_08_knee_point():
    def ind(fp, err):
        i = Individual(np.zeros(4, dtype=bool))
        i.objectives = ObjectiveVector(fp, err)
        return i

    # brute-force point-line distance confirms (0.2, 0.3) on the normalized
    # hand-constructed front
    front = [ind(0.0, 1.0), ind(0.2, 0.3), ind(1.0, 0.0)]
    knee = knee_point(front)
    assert (knee.objectives.filter_pct, knee.objectives.error) == (0.2, 0.3)

    # size 1: the only member
    solo = [ind(0.4, 2.0)]
    assert knee_point(solo) is solo[0]

    # size 2: minimum filter_pct
    pair = [ind(0.8, 1.0), ind(0.2, 5.0)]
    assert knee_point(pair).objectives.filter_pct == 0.2

    # collinear: all distances tie, minimum filter_pct wins
    line = [ind(x, 1.0 - x) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert knee_point(line).objectives.filter_pct == 0.1


# ---------------------------------------------------------------------------
# 9 / 10. end-to-end desk-scale runs, twice for determinism

DESK_SEEDS = (1, 2, 3)


def _desk_protocol(seed):
    """One seeded end-to-end run: train, evolve-prune, random-prune at the
    same retained rates. Returns every reported number."""
    dataset = generate_synthetic(SyntheticParams(seed=seed))
    net = build_toy_cnn(seed=seed)
    net = finetune(
        net, dataset,
        FineTuneConfig(lr=0.01, epochs=8, milestones=(4, 6), batch_size=32, seed=seed),
    )
    group_ft = FineTuneConfig(
        lr=0.01, epochs=4, milestones=(2, 3), batch_size=32, seed=seed
    )
    evo = EvolutionConfig(population_size=40, elite_size=15, generations=25, seed=seed)
    plan = GroupPlan(1, [1, 1, 1, 1])
    pruned, report = smoea_prune(
        net, dataset, plan, evo, group_ft, calibration_size=64
    )
    _, rand_accs = baseline_prune(
        net, dataset, plan, report.retained_rates(), "random", group_ft, seed=seed
    )
    return {
        "baseline_accuracy": report.baseline_accuracy,
        "smoea_accuracy": report.final_accuracy,
        "rand_accuracy": rand_accs[-1],
        "params_ratio": report.params_after / report.params_before,
        "report": report.to_dict(),
    }


@pytest.fixture(scope="module")
def desk_runs():
    start = time.perf_counter()
    first = [_desk_protocol(seed) for seed in DESK_SEEDS]
    first_elapsed = time.perf_counter() - start
    second = [_desk_protocol(seed) for seed in DESK_SEEDS]
    return first, second, first_elapsed


@criterion(9, "end-to-end desk-scale pruning", 900.0)
def test_criterion_09_end_to_end(desk_runs):
    first, _, elapsed = desk_runs
    assert elapsed < 900.0
    for run in first:
        assert run["baseline_accuracy"] >= 0.90
        assert run["params_ratio"] <= 0.60
    mean = lambda key: float(np.mean([run[key] for run in first]))
    assert mean("smoea_accuracy") >= mean("rand_accuracy")
    assert mean("baseline_accuracy") - mean("smoea_accuracy") <= 0.03


@criterion(10, "bit-for-bit determinism", 900.0)
def test_criterion_10_determinism(desk_runs):
    first, second, _ = desk_runs
    assert first == second


# ---------------------------------------------------------------------------
# 11. CIFAR-10 binary parser


@criterion(11, "cifar10 parser round trip and rejection", 5.0)
def test_criterion_11_cifar_parser(tmp_path):
    rng = np.random.default_rng(4)
    imgs = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    f = tmp_path / "good.bin"
    write_cifar10_batch(f, imgs, labels)
    images, read_labels = read_cifar10_batch(f)
    np.testing.assert_array_equal(read_labels, labels)
    np.testing.assert_allclose(images, imgs / 255.0)

    for nbytes in (CIFAR_RECORD - 1, CIFAR_RECORD + 1, 2 * CIFAR_RECORD - 100):
        bad = tmp_path / f"trunc_{nbytes}.bin"
        bad.write_bytes(b"\x00" * nbytes)
        with pytest.raises(DataFormatError):
            read_cifar10_batch(bad)

    bad_label = tmp_path / "badlabel.bin"
    bad_label.write_bytes(bytes([10]) + b"\x00" * 3072)
    with pytest.raises(DataFormatError):
        read_cifar10_batch(bad_label)
