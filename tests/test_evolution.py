from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoea.evolution import (
    EvolutionConfig,
    Individual,
    crowding_distance,
    dominates,
    evolve,
    fast_nondominated_sort,
    front_rows,
    init_population,
    knee_point,
    make_children,
    mask_from_hex,
    mask_hex,
    pareto_front,
    repair,
    run_summary,
    select_elites,
)
from smoea.exceptions import EvolutionError
from smoea.objectives import ObjectiveVector

from conftest import deb_rank, deb_select, deb_sort


def ind(fp, err, genes=None):
    i = Individual(np.zeros(4, dtype=bool) if genes is None else genes)
    i.objectives = ObjectiveVector(fp, err)
    return i


def random_population(rng, size):
    pop = []
    for _ in range(size):
        genes = rng.random(6) < 0.5
        pop.append(ind(float(rng.integers(0, 8)) / 8, float(rng.integers(0, 8)), genes))
    return pop


def points_of(pop):
    """The [N, 2] objective array of a member list."""
    return np.array([ind.objectives.as_tuple() for ind in pop]).reshape(-1, 2)


def assert_matches_deb(pop):
    """Fronts, crowding bit for bit (inf included) and the elite order for
    every k equal the Deb-sort oracles'."""
    fronts, crowding = deb_rank(pop)
    points = points_of(pop)
    assert fast_nondominated_sort(points) == fronts
    for front in fronts:
        rows = np.array(
            [[pop[i].objectives.filter_pct, pop[i].objectives.error] for i in front]
        )
        got = crowding_distance(rows)
        assert got.tobytes() == np.array([crowding[i] for i in front]).tobytes()
    for k in range(1, len(pop) + 1):
        assert select_elites(points, k) == deb_select(pop, k, (fronts, crowding))


# --- tests -------------------------------------------------------------------


class TestInitPopulation:
    def test_counts_within_bounds(self):
        cfg = EvolutionConfig(population_size=200, seed=3)
        for genes in init_population(10, cfg):
            assert 2 <= genes.sum() <= 8

    def test_same_seed_identical(self):
        cfg = EvolutionConfig(population_size=50, seed=9)
        np.testing.assert_array_equal(init_population(10, cfg), init_population(10, cfg))

    def test_retained_count_roughly_uniform(self):
        cfg = EvolutionConfig(population_size=10_000, seed=0)
        counts = np.bincount(
            init_population(10, cfg).sum(1), minlength=11
        )[2:9]
        # 7 buckets, expected ~1/7 each; generous band covers the rounding
        # bias at the edge counts
        assert counts.sum() == 10_000
        assert counts.min() > 10_000 / 7 * 0.5
        assert counts.max() < 10_000 / 7 * 1.6

    def test_infeasible_bounds(self):
        with pytest.raises(EvolutionError):
            init_population(2, EvolutionConfig(tau1=0.4, tau2=0.45))


class TestDominates:
    def test_strict(self):
        assert dominates(ObjectiveVector(0.5, 0.1), ObjectiveVector(0.6, 0.2))

    def test_incomparable(self):
        a, b = ObjectiveVector(0.5, 0.3), ObjectiveVector(0.6, 0.2)
        assert not dominates(a, b) and not dominates(b, a)

    def test_equal(self):
        a = ObjectiveVector(0.5, 0.5)
        assert not dominates(a, a)


class TestSorting:
    def test_three_point_example(self):
        fronts = fast_nondominated_sort(np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]))
        assert fronts == [[0, 1], [2]]

    def test_identical_objectives_single_front(self):
        assert fast_nondominated_sort(np.ones((5, 2))) == [list(range(5))]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_peeling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, 200)
        got = [sorted(f) for f in fast_nondominated_sort(points_of(pop))]
        assert got == deb_sort(pop)


class TestCrowding:
    def test_two_member_front_infinite(self):
        crowding = crowding_distance(np.array([[0.1, 2.0], [0.9, 1.0]]))
        assert crowding[0] == float("inf") and crowding[1] == float("inf")

    def test_three_evenly_spaced(self):
        crowding = crowding_distance(np.array([[0.0, 2.0], [0.5, 1.0], [1.0, 0.0]]))
        assert crowding[1] == pytest.approx(2.0)

    def test_degenerate_range_no_division_error(self):
        crowding = crowding_distance(np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]))
        assert np.isfinite(crowding[1])


class TestSelectElites:
    def test_front_exactly_k(self):
        points = np.array([[0.1, 3], [0.2, 2], [0.3, 1], [0.3, 3]])
        assert set(select_elites(points, 3)) == {0, 1, 2}

    def test_small_first_front_fully_included(self):
        points = np.array([[0.1, 1], [0.2, 2], [0.3, 3], [0.4, 4]])
        assert set(select_elites(points, 2)) == {0, 1}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, 120)
        k = int(rng.integers(5, 60))
        assert select_elites(points_of(pop), k) == deb_select(pop, k)

    def test_too_small_pool(self):
        with pytest.raises(EvolutionError):
            select_elites(np.array([[0.1, 1.0]]), 2)

    # pools of up to the paper's 130 members (100 children + 30 elites) on
    # small integer grids, so duplicate points and ties are common
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=130
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_deb_sort_property(self, cells):
        assert_matches_deb([ind(fp / 10, float(err)) for fp, err in cells])

    def test_all_nan_errors_match_deb_sort(self):
        # NaN errors dominate nothing and are never dominated; pools that mix
        # NaN and finite errors are not pinned, because the old key sort had
        # no total order over NaN crowding
        rng = np.random.default_rng(4)
        pop = [ind(float(rng.integers(0, 10)) / 10, float("nan")) for _ in range(40)]
        assert_matches_deb(pop)


class TestRepair:
    def test_feasible_unchanged(self):
        rng = np.random.default_rng(0)
        genes = np.array([1, 1, 0, 0, 1, 0, 0, 0, 0, 1], dtype=bool)
        np.testing.assert_array_equal(repair(genes, 0.2, 0.8, rng), genes)

    def test_all_ones_trimmed(self):
        rng = np.random.default_rng(0)
        assert repair(np.ones(10, dtype=bool), 0.2, 0.8, rng).sum() == 8

    def test_all_zeros_raised(self):
        rng = np.random.default_rng(0)
        assert repair(np.zeros(10, dtype=bool), 0.2, 0.8, rng).sum() == 2


class TestMakeChildren:
    def elites_from(self, genomes):
        return np.asarray(genomes, dtype=bool)

    def test_identical_parents_zero_mutation(self):
        g = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
        elites = self.elites_from([g, g])
        cfg = EvolutionConfig(population_size=20, elite_size=2, mutation_prob=0.0, seed=1)
        for child in make_children(elites, cfg, 1):
            np.testing.assert_array_equal(child, np.asarray(g, dtype=bool))

    def test_uniform_crossover_support(self):
        p1 = [1, 1, 1, 1, 0, 0, 0, 0, 1, 1]
        p2 = [0, 0, 1, 1, 1, 1, 0, 0, 1, 0]
        elites = self.elites_from([p1, p2])
        cfg = EvolutionConfig(population_size=50, elite_size=2, mutation_prob=0.0, seed=2)
        both = np.asarray(p1, dtype=bool), np.asarray(p2, dtype=bool)
        for child in make_children(elites, cfg, 1):
            picked = (child == both[0]) | (child == both[1])
            assert picked.all()

    def test_mutation_rate_statistics(self):
        g = [1, 0] * 8
        elites = self.elites_from([g, g])
        cfg = EvolutionConfig(
            population_size=10_000, mutation_prob=0.05, tau1=0.05, tau2=0.95, seed=3
        )
        children = make_children(elites, cfg, 1)
        base = np.asarray(g, dtype=bool)
        flips = np.mean([(c != base).mean() for c in children])
        sigma = np.sqrt(0.05 * 0.95 / (10_000 * 16))
        assert abs(flips - 0.05) < 3 * sigma + 1e-3  # repair adds slight slack

    def test_degenerate_elites(self):
        with pytest.raises(EvolutionError):
            make_children(self.elites_from([[1, 0]]), EvolutionConfig(), 1)


def separable_problem(n=10, seed=0):
    imp = np.linspace(0.5, 5.0, n)

    def score(genes):
        return np.array([(g.sum() / n, imp[~g].sum()) for g in genes])

    def exhaustive_front():
        pts = []
        for k in range(2, 9):
            for kept in combinations(range(n), k):
                genes = np.zeros(n, dtype=bool)
                genes[list(kept)] = True
                pts.append((k / n, float(imp[~genes].sum()), k))
        front = set()
        for p in pts:
            if not any(
                q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                for q in pts
            ):
                front.add((p[2], round(p[1], 9)))
        return front

    return score, exhaustive_front


class TestEvolve:
    def test_zero_generations_selects_from_init(self):
        score, _ = separable_problem()
        cfg = EvolutionConfig(population_size=40, elite_size=10, generations=0, seed=5)
        res = evolve(score, 10, cfg)
        genes = init_population(10, cfg)
        points = score(genes)
        expect = genes[select_elites(points, 10)]
        got = sorted(mask_hex(e.genes) for e in res.elites)
        assert got == sorted(mask_hex(g) for g in expect)

    def test_matches_exhaustive_front(self):
        score, exhaustive = separable_problem()
        cfg = EvolutionConfig(
            population_size=60, elite_size=20, generations=40, seed=6
        )
        res = evolve(score, 10, cfg)
        got = {(i.retained, round(i.objectives.error, 9)) for i in res.front}
        assert got == exhaustive()

    def test_same_seed_bit_identical(self):
        score, _ = separable_problem()
        cfg = EvolutionConfig(population_size=30, elite_size=10, generations=10, seed=7)
        a = evolve(score, 10, cfg)
        b = evolve(score, 10, cfg)
        for x, y in zip(a.elites, b.elites):
            np.testing.assert_array_equal(x.genes, y.genes)
        assert a.history == b.history

    def test_best_error_non_increasing(self):
        score, _ = separable_problem()
        cfg = EvolutionConfig(population_size=30, elite_size=10, generations=30, seed=8)
        best = evolve(score, 10, cfg).history["best_error"]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_front_mutually_nondominated(self):
        score, _ = separable_problem()
        res = evolve(
            score, 10, EvolutionConfig(population_size=30, elite_size=10,
                                          generations=10, seed=9)
        )
        for a in res.front:
            for b in res.front:
                if a is not b:
                    assert not dominates(a.objectives, b.objectives)


# The search's draws pinned across versions: every stream's draw order
# (parents, crossover coin, crossover pick, flips, repair) and the
# evaluation order decide these. separable_problem does no BLAS, so they
# hold on any core.
PINNED_INIT = ["7b02", "6601", "8501", "b502", "8802", "4f03", "f301", "1c01"]
PINNED_CHILDREN = ["2f03", "cf02", "8f03", "3e01", "3f02", "cf03"]
# seed: (front as (retained, error), history, elite mask_hex)
PINNED_EVOLVE = {
    1: (
        [(2, 18.5), (3, 14.0), (4, 10.5), (6, 5.0), (7, 3.0), (8, 2.0)],
        {"best_error": [5.0, 5.0, 2.0, 2.0, 2.0, 2.0],
         "median_error": [12.25, 13.75, 9.75, 7.25, 9.0, 10.5]},
        ["8002", "8002", "fa03", "fa03", "f003", "f803", "8003", "8003", "c003", "c003"],
    ),
    7: (
        [(2, 18.0), (3, 14.0), (4, 10.5), (5, 7.5), (6, 5.0), (8, 1.5)],
        {"best_error": [4.5, 4.5, 2.0, 2.0, 1.5, 1.5],
         "median_error": [13.75, 10.25, 7.75, 5.5, 11.0, 10.5]},
        ["0003", "0003", "fc03", "f003", "8003", "8003", "c003", "c003", "e003", "e003"],
    ),
}


class TestPinnedDraws:
    def test_init_population(self):
        cfg = EvolutionConfig(population_size=8, elite_size=2, seed=9)
        assert [mask_hex(g) for g in init_population(10, cfg)] == PINNED_INIT

    def test_make_children(self):
        parents = np.array(
            [[1, 1, 1, 1, 0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1, 0, 0, 1, 0]], dtype=bool
        )
        cfg = EvolutionConfig(
            population_size=6, elite_size=2, crossover_prob=0.5, mutation_prob=0.2, seed=4
        )
        assert [mask_hex(c) for c in make_children(parents, cfg, 3)] == PINNED_CHILDREN

    @pytest.mark.parametrize("seed", sorted(PINNED_EVOLVE))
    def test_evolve(self, seed):
        score, _ = separable_problem()
        cfg = EvolutionConfig(population_size=30, elite_size=10, generations=5, seed=seed)
        res = evolve(score, 10, cfg)
        front, history, elites = PINNED_EVOLVE[seed]
        assert [(m.retained, m.objectives.error) for m in res.front] == front
        assert res.history == history
        assert [mask_hex(e.genes) for e in res.elites] == elites


class TestKneePoint:
    def test_normalized_example(self):
        front = [ind(0.0, 1.0), ind(0.2, 0.3), ind(1.0, 0.0)]
        knee = knee_point(front)
        assert knee.objectives.filter_pct == 0.2

    def test_two_point_front(self):
        front = [ind(0.8, 1.0), ind(0.2, 5.0)]
        assert knee_point(front).objectives.filter_pct == 0.2

    def test_single_point_front(self):
        front = [ind(0.4, 2.0)]
        assert knee_point(front) is front[0]

    def test_collinear_ties_break_to_min_filter_pct(self):
        front = [ind(x, 1.0 - x) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert knee_point(front).objectives.filter_pct == 0.1

    def test_empty_front(self):
        with pytest.raises(EvolutionError):
            knee_point([])


class TestExport:
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_mask_hex_round_trip(self, bits):
        genes = np.asarray(bits, dtype=bool)
        np.testing.assert_array_equal(mask_from_hex(mask_hex(genes), len(bits)), genes)

    def test_run_summary_schema(self):
        score, _ = separable_problem()
        cfg = EvolutionConfig(population_size=30, elite_size=10, generations=5, seed=2)
        res = evolve(score, 10, cfg)
        doc = run_summary(cfg, res)
        assert doc["config"]["seed"] == 2
        assert len(doc["best_error"]) == 6  # init + 5 generations
        assert 0 <= doc["knee_index"] < len(doc["front"])

    def test_pareto_front_deduplicates(self):
        g = np.array([1, 0, 1, 0], dtype=bool)
        front = pareto_front(np.array([g, g]), np.array([[0.5, 1.0], [0.5, 1.0]]))
        assert len(front) == 1

    def test_pareto_front_order(self):
        # sorted by filter_pct; equal objectives keep pool order, and a
        # repeated genome keeps its first occurrence
        genes = np.array(
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 0]], dtype=bool
        )
        points = np.array([[0.5, 2.0], [0.5, 2.0], [0.5, 2.0], [0.25, 3.0]])
        front = pareto_front(genes, points)
        assert [mask_hex(m.genes) for m in front] == [mask_hex(genes[i]) for i in (3, 0, 1)]
        assert [m.objectives.as_tuple() for m in front] == [(0.25, 3.0), (0.5, 2.0), (0.5, 2.0)]
