import tracemalloc

import numpy as np
import pytest

from smoea import network as N
from smoea import pipeline as P
from smoea import tensor as T
from smoea.data import Dataset, SyntheticParams, generate_synthetic
from smoea.evolution import EvolutionConfig
from smoea.exceptions import ArgumentError, DataError, NonFiniteError, PlanError
from smoea.network import (
    DenseLayer,
    FilterMask,
    Network,
    build_toy_cnn,
    compact,
    count_params,
    forward,
)
from smoea.objectives import EvaluationContext, score_genomes
from smoea.pipeline import (
    FineTuneConfig,
    GroupPlan,
    baseline_mask,
    baseline_prune,
    calibration_batch,
    evaluate_accuracy,
    evolve_layer,
    finetune,
    finetune_with_history,
    group_layers,
    lr_at,
    smoea_prune,
    sweep_uniform_retention,
)

SMALL_EVO = EvolutionConfig(population_size=24, elite_size=8, generations=10, seed=5)
SMALL_FT = FineTuneConfig(lr=0.01, epochs=2, milestones=(), batch_size=32, seed=5)


class TestGroupLayers:
    def test_single_group_of_two(self):
        assert group_layers(GroupPlan(1, [2]), 4) == [[1, 2]]

    def test_last_group_reaches_final_layers(self):
        groups = group_layers(GroupPlan(1, [1, 1, 2]), 4)
        assert groups[-1] == [3, 4]

    def test_offset_singletons(self):
        assert group_layers(GroupPlan(5, [1, 1, 1, 1]), 13) == [[5], [6], [7], [8]]

    def test_overflow_raises(self):
        with pytest.raises(PlanError):
            group_layers(GroupPlan(3, [1, 2]), 4)

    def test_bad_plan_fields(self):
        with pytest.raises(PlanError):
            GroupPlan(0, [1])
        with pytest.raises(PlanError):
            GroupPlan(1, [0])


class TestLrSchedule:
    def test_paper_schedule(self):
        cfg = FineTuneConfig(lr=0.01, epochs=160, milestones=(50, 100))
        assert lr_at(cfg, 0) == 0.01
        assert lr_at(cfg, 49) == 0.01
        assert lr_at(cfg, 50) == pytest.approx(0.001)
        assert lr_at(cfg, 99) == pytest.approx(0.001)
        assert lr_at(cfg, 100) == pytest.approx(0.0001)
        assert lr_at(cfg, 159) == pytest.approx(0.0001)

    def test_bad_milestones(self):
        with pytest.raises(ArgumentError):
            FineTuneConfig(epochs=10, milestones=(5, 3))
        with pytest.raises(ArgumentError):
            FineTuneConfig(epochs=10, milestones=(10,))


class TestFinetune:
    def test_zero_epochs_unchanged(self, toy_dataset):
        net = build_toy_cnn(seed=2)
        tuned = finetune(net, toy_dataset, FineTuneConfig(epochs=0, milestones=()))
        np.testing.assert_array_equal(
            tuned.conv(1).params.weights, net.conv(1).params.weights
        )

    def test_loss_decreases(self, toy_dataset):
        net = build_toy_cnn(seed=2)
        cfg = FineTuneConfig(lr=0.01, epochs=5, milestones=(), batch_size=32, seed=2)
        _, losses = finetune_with_history(net, toy_dataset, cfg)
        assert losses[-1] < losses[0]
        assert all(b <= a + 0.05 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self, toy_dataset):
        cfg = FineTuneConfig(lr=0.01, epochs=2, milestones=(), batch_size=32, seed=3)
        a = finetune(build_toy_cnn(seed=2), toy_dataset, cfg)
        b = finetune(build_toy_cnn(seed=2), toy_dataset, cfg)
        np.testing.assert_array_equal(
            a.conv(3).params.weights, b.conv(3).params.weights
        )

    def test_empty_dataset(self):
        empty = generate_synthetic(SyntheticParams(train_per_class=1, seed=0))
        empty.train_images = empty.train_images[:0]
        with pytest.raises(DataError):
            finetune(build_toy_cnn(), empty, SMALL_FT)

    def test_diverging_loss_raises_at_its_step(self, toy_dataset, monkeypatch):
        net = build_toy_cnn(seed=2)
        before = net.conv(1).params.weights.copy()
        updates = []
        sgd_update = T.sgd_update
        monkeypatch.setattr(
            T, "sgd_update", lambda *a: updates.append(1) or sgd_update(*a)
        )
        cfg = FineTuneConfig(lr=1e6, epochs=2, milestones=(), batch_size=32, seed=2)
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match=r"epoch 1 of 2, step [2-9]"
        ) as err:
            finetune_with_history(net, toy_dataset, cfg)
        step = int(err.value.args[0].split("step ")[1].split()[0])
        per_step = sum(lay.parametric for lay in net.layers)
        assert len(updates) == (step - 1) * per_step  # none for the failing step
        np.testing.assert_array_equal(net.conv(1).params.weights, before)


class TestEvaluateAccuracy:
    def test_constant_logits_chance_level(self, toy_dataset):
        net = Network(
            [N.FlattenLayer(), DenseLayer(np.zeros((192, 10)), np.zeros(10))],
            (3, 8, 8),
        )
        acc = evaluate_accuracy(net, toy_dataset.test_images, toy_dataset.test_labels)
        assert acc == pytest.approx(0.1, abs=0.05)

    def test_memorizer_hits_training_set(self, trained_toy, toy_dataset):
        acc = evaluate_accuracy(
            trained_toy, toy_dataset.train_images, toy_dataset.train_labels
        )
        assert acc == 1.0

    def test_invariant_under_identity_compaction(self, trained_toy, toy_dataset):
        masks = {
            l: FilterMask(
                np.ones(trained_toy.conv(l).params.out_channels, dtype=np.uint8), l
            )
            for l in range(1, 5)
        }
        small = compact(trained_toy, masks)
        a = evaluate_accuracy(trained_toy, toy_dataset.test_images, toy_dataset.test_labels)
        b = evaluate_accuracy(small, toy_dataset.test_images, toy_dataset.test_labels)
        assert a == b

    def test_empty_split(self, trained_toy):
        with pytest.raises(DataError):
            evaluate_accuracy(trained_toy, np.zeros((0, 3, 8, 8)), np.zeros(0))


class TestBaselineMask:
    def test_retain_everything(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 3, 3, 3))
        for criterion in ("random", "l2", "fpgm"):
            bits = baseline_mask(w, 1.0, criterion, rng)
            assert bits.sum() == 6

    def test_l2_keeps_largest_norms(self):
        w = np.zeros((4, 1, 1, 1))
        w[:, 0, 0, 0] = [5.0, 0.1, 3.0, 0.2]
        bits = baseline_mask(w, 0.5, "l2", np.random.default_rng(0))
        assert set(np.flatnonzero(bits)) == {0, 2}

    def test_fpgm_prunes_the_mean_filter(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 2, 3, 3))
        w[3] = w[:3].mean(axis=0)
        bits = baseline_mask(w, 0.75, "fpgm", rng)
        assert bits[3] == 0 and bits.sum() == 3

    def test_fpgm_matches_brute_force_distance_sums(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(6, 2, 3, 3))
        flat = w.reshape(6, -1)
        sums = np.array(
            [sum(np.linalg.norm(flat[i] - flat[j]) for j in range(6)) for i in range(6)]
        )
        bits = baseline_mask(w, 0.5, "fpgm", rng)
        assert set(np.flatnonzero(bits == 0)) == set(np.argsort(sums)[:3])

    @pytest.mark.parametrize(
        "shape",
        [(7, 5), (6, 2, 3, 3), (16, 8, 3, 3), (33, 17, 1, 1), (64, 64, 3, 3),
         (256, 256, 3, 3)],
    )
    def test_fpgm_row_form_equals_broadcast_form(self, shape):
        """The distance sums, one row at a time, equal bit for bit the form
        that built the whole [n, n, d] difference array."""
        w = np.random.default_rng(3).normal(size=shape)
        flat = w.reshape(shape[0], -1)
        diff = flat[:, None, :] - flat[None, :, :]
        broadcast = np.sqrt((diff ** 2).sum(axis=2)).sum(axis=1)
        assert P._fpgm_distance_sums(w).tobytes() == broadcast.tobytes()

    def test_fpgm_peak_memory_is_a_few_weight_copies(self):
        n, d = 128, 64 * 9
        w = np.random.default_rng(4).normal(size=(n, 64, 3, 3))
        tracemalloc.start()
        try:
            baseline_mask(w, 0.5, "fpgm", np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an [n, n, d] difference array alone would take n·n·d·8 bytes (75 MB)
        assert peak < 4 * n * d * 8

    def test_invalid_fraction(self):
        with pytest.raises(ArgumentError):
            baseline_mask(np.zeros((4, 1, 1, 1)), 0.0, "l2", np.random.default_rng(0))

    def test_unknown_criterion(self):
        with pytest.raises(ArgumentError):
            baseline_mask(np.zeros((4, 1, 1, 1)), 0.5, "l1", np.random.default_rng(0))


def no_test_pass(*args):
    raise AssertionError("a test-split accuracy pass ran")


@pytest.fixture(scope="module")
def small_run(trained_toy, toy_dataset):
    return smoea_prune(
        trained_toy,
        toy_dataset,
        GroupPlan(1, [2, 2]),
        SMALL_EVO,
        SMALL_FT,
        calibration_size=32,
    )


class TestSmoeaPrune:
    def test_empty_plan_is_noop(self, trained_toy, toy_dataset):
        pruned, report = smoea_prune(
            trained_toy, toy_dataset, GroupPlan(1, []), SMALL_EVO, SMALL_FT,
            calibration_size=128,
        )
        assert report.layers == [] and report.stages == []
        assert count_params(pruned) == count_params(trained_toy)
        x = toy_dataset.test_images[:4]
        np.testing.assert_array_equal(
            forward(pruned, x)[0], forward(trained_toy, x)[0]
        )

    def test_rates_within_constraint(self, small_run):
        _, report = small_run
        for rate in report.retained_rates().values():
            assert SMALL_EVO.tau1 <= rate <= SMALL_EVO.tau2

    def test_reverse_group_order(self, small_run):
        _, report = small_run
        assert [(s["group"], s["layers"]) for s in report.stages] == [
            (2, [3, 4]),
            (1, [1, 2]),
        ]

    def test_params_cross_check(self, small_run, trained_toy):
        pruned, report = small_run
        # rebuild the expected parameter count from the per-layer retained
        # counts and the input/output coupling of consecutive convs
        kept = {row["ordinal"]: row["retained_count"] for row in report.layers}
        in_c = 3
        expected = 0
        for l in range(1, 5):
            out_c = kept[l]
            expected += out_c * in_c * 9 + out_c
            in_c = out_c
        spatial = 4  # 8x8 input through two 2x2 pools -> 2x2
        expected += in_c * spatial * 10 + 10
        assert count_params(pruned) == expected == report.params_after

    def test_accuracy_recovered(self, small_run, trained_toy):
        _, report = small_run
        assert report.final_accuracy >= report.baseline_accuracy - 0.05

    def test_one_test_pass_per_stage(self, trained_toy, toy_dataset, monkeypatch):
        # the baseline and each stage are measured once; the final accuracy
        # is the last stage's, not another pass over the same network
        passes = []

        def counted(net, images, labels):
            passes.append(net)
            return evaluate_accuracy(net, images, labels)

        monkeypatch.setattr("smoea.pipeline.evaluate_accuracy", counted)
        pruned, report = smoea_prune(
            trained_toy, toy_dataset, GroupPlan(1, [2, 2]), SMALL_EVO, SMALL_FT,
            calibration_size=32,
        )
        assert len(passes) == 1 + len(report.stages)
        assert passes[-1] is pruned
        assert report.final_accuracy == report.stages[-1]["accuracy"]
        assert report.final_accuracy == evaluate_accuracy(
            pruned, toy_dataset.test_images, toy_dataset.test_labels
        )

    @pytest.mark.parametrize(
        "plan, calibration_size, error",
        [(GroupPlan(4, [2]), 32, PlanError), (GroupPlan(1, [1]), 0, ArgumentError)],
        ids=["plan_overflow", "zero_calibration"],
    )
    def test_bad_argument_fails_before_the_baseline_pass(
        self, trained_toy, toy_dataset, monkeypatch, plan, calibration_size, error
    ):
        monkeypatch.setattr("smoea.pipeline.evaluate_accuracy", no_test_pass)
        with pytest.raises(error):
            smoea_prune(trained_toy, toy_dataset, plan, SMALL_EVO, SMALL_FT,
                        calibration_size=calibration_size)

    def test_deterministic(self, trained_toy, toy_dataset, small_run):
        pruned_a, report_a = small_run
        pruned_b, report_b = smoea_prune(
            trained_toy,
            toy_dataset,
            GroupPlan(1, [2, 2]),
            SMALL_EVO,
            SMALL_FT,
            calibration_size=32,
        )
        assert report_a.to_dict() == report_b.to_dict()
        np.testing.assert_array_equal(
            pruned_a.conv(2).params.weights, pruned_b.conv(2).params.weights
        )


class TestEvolvedMasksBeatRandom:
    def test_reconstruction_error_not_worse(self, trained_toy, toy_dataset):
        # the evolved knee mask should reconstruct at least as well as a
        # random mask with the same retained count, layer by layer
        from smoea.evolution import evolve_subnetwork, knee_point
        from smoea.network import extract_subnetwork

        calib = calibration_batch(toy_dataset, 32, 0)
        for l in (1, 2):
            _, cap = forward(trained_toy, calib, capture={l})
            sub = extract_subnetwork(trained_toy, l)
            ctx = EvaluationContext.build(sub, cap[l])
            res = evolve_subnetwork(ctx, SMALL_EVO)
            knee = knee_point(res.front)
            rng = np.random.default_rng(123)
            n = ctx.num_filters
            bits = np.zeros(n, dtype=np.uint8)
            bits[rng.choice(n, size=knee.retained, replace=False)] = 1
            random_error = score_genomes(ctx, bits[None])[0, 1]
            assert knee.objectives.error <= random_error + 1e-12


class TestBaselinePrune:
    def test_same_rates_same_structure(self, trained_toy, toy_dataset):
        rates = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}
        pruned, accs = baseline_prune(
            trained_toy, toy_dataset, GroupPlan(1, [2, 2]), rates, "l2", SMALL_FT, seed=1
        )
        for l in range(1, 5):
            n = trained_toy.conv(l).params.out_channels
            assert pruned.conv(l).params.out_channels == max(1, round(0.5 * n))
        assert len(accs) == 2

    def test_nan_per_group_without_test_split(self, trained_toy, toy_dataset):
        no_test = Dataset(
            toy_dataset.train_images, toy_dataset.train_labels,
            toy_dataset.test_images[:0], toy_dataset.test_labels[:0],
        )
        rates = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}
        _, accs = baseline_prune(
            trained_toy, no_test, GroupPlan(1, [1, 2]), rates, "random", SMALL_FT
        )
        assert len(accs) == 2 and all(np.isnan(a) for a in accs)


class TestSweep:
    def test_rows_and_full_retention(self, trained_toy, toy_dataset):
        rows = sweep_uniform_retention(
            trained_toy,
            toy_dataset,
            [0.4, 0.7, 1.0],
            SMALL_EVO,
            SMALL_FT,
            calibration_size=32,
        )
        assert [r["fraction"] for r in rows] == [0.4, 0.7, 1.0]
        base = evaluate_accuracy(
            trained_toy, toy_dataset.test_images, toy_dataset.test_labels
        )
        assert rows[-1]["accuracy"] == base
        assert rows[-1]["remained_params_pct"] == 100.0
        assert rows[0]["remained_params_pct"] < rows[1]["remained_params_pct"] < 100.0

    def test_accuracy_weakly_increases(self, trained_toy, toy_dataset):
        rows = sweep_uniform_retention(
            trained_toy, toy_dataset, [0.3, 0.6, 1.0], SMALL_EVO, SMALL_FT,
            calibration_size=32,
        )
        accs = [r["accuracy"] for r in rows]
        inversions = sum(1 for a, b in zip(accs, accs[1:]) if b < a - 1e-9)
        assert inversions <= 1

    def test_row_params_match_compacted_front_members(self, trained_toy, toy_dataset):
        f = 0.5
        (row,) = sweep_uniform_retention(
            trained_toy, toy_dataset, [f], SMALL_EVO, SMALL_FT, calibration_size=32
        )
        calib = calibration_batch(toy_dataset, 32, SMALL_EVO.seed)
        masks = {}
        for l in range(1, trained_toy.num_convs + 1):
            front = evolve_layer(trained_toy, calib, l, SMALL_EVO).front
            best = min(
                front,
                key=lambda ind: (abs(ind.objectives.filter_pct - f), ind.objectives.error),
            )
            masks[l] = FilterMask(best.genes, l)
        expected = 100.0 * count_params(compact(trained_toy, masks))
        assert row["remained_params_pct"] == expected / count_params(trained_toy)

    def test_zero_calibration_fails_before_the_baseline_pass(
        self, trained_toy, toy_dataset, monkeypatch
    ):
        monkeypatch.setattr("smoea.pipeline.evaluate_accuracy", no_test_pass)
        with pytest.raises(ArgumentError):
            sweep_uniform_retention(
                trained_toy, toy_dataset, [0.5], SMALL_EVO, SMALL_FT, calibration_size=0
            )

    def test_bad_fraction(self, trained_toy, toy_dataset):
        with pytest.raises(ArgumentError):
            sweep_uniform_retention(
                trained_toy, toy_dataset, [1.5], SMALL_EVO, SMALL_FT,
                calibration_size=128,
            )
