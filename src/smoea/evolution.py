"""Constrained NSGA-II over binary filter masks.

Population members carry a binary genome (1 = filter retained) and the two
objective values; selection ranks and crowds the pool from its [N, 2]
objective array. Retention is kept inside [tau1, tau2] by stochastic repair.
All randomness is drawn from per-individual streams keyed by (seed,
generation, index), so results do not depend on how evaluations are
scheduled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil, floor
from typing import Callable

import numpy as np

from .exceptions import ArgumentError, EvolutionError, check_fields
from .network import FilterMask
from .objectives import (
    EvaluationContext,
    ObjectiveVector,
    _check_alpha_mode,
    evaluate_individual,
)


@dataclass(eq=False)
class Individual:
    genes: np.ndarray  # bool, 1 = retained
    objectives: ObjectiveVector | None = None

    @property
    def retained(self) -> int:
        return int(self.genes.sum())


@dataclass
class EvolutionConfig:
    population_size: int = 100
    elite_size: int = 30
    generations: int = 100
    crossover_prob: float = 1.0
    mutation_prob: float = 0.05
    tau1: float = 0.2
    tau2: float = 0.8
    seed: int = 0
    alpha_mode: str = "optimized"

    def __post_init__(self):
        fields = vars(self)
        check_fields(
            fields, "an integer", ("population_size", "elite_size", "generations", "seed")
        )
        check_fields(fields, "a number", ("crossover_prob", "mutation_prob", "tau1", "tau2"))
        if self.population_size < 2 or self.elite_size < 2:
            raise ArgumentError("population_size and elite_size must be >= 2")
        if self.generations < 0 or self.seed < 0:
            raise ArgumentError("generations and seed must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ArgumentError(f"{name} must lie in [0, 1]")
        _check_alpha_mode(self.alpha_mode)
        if self.elite_size > self.population_size:
            raise EvolutionError("elite_size must be <= population_size")
        if not 0 < self.tau1 < self.tau2 < 1:
            raise EvolutionError("need 0 < tau1 < tau2 < 1")


@dataclass
class EvolutionResult:
    elites: list[Individual]
    front: list[Individual]  # rank-1 members of the final elites, deduplicated
    history: dict[str, list[float]]


EvaluateFn = Callable[[np.ndarray], ObjectiveVector]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def count_bounds(num_filters: int, tau1: float, tau2: float) -> tuple[int, int]:
    """Feasible retained-count range [lo, hi]; errors if empty."""
    lo = max(1, ceil(tau1 * num_filters))
    hi = floor(tau2 * num_filters)
    if lo > hi:
        raise EvolutionError(
            f"no feasible retained count for n={num_filters}, "
            f"bounds [{tau1}, {tau2}]"
        )
    return lo, hi


def init_population(num_filters: int, cfg: EvolutionConfig) -> list[Individual]:
    if num_filters < 2:
        raise EvolutionError("need at least 2 filters to evolve")
    lo, hi = count_bounds(num_filters, cfg.tau1, cfg.tau2)
    pop = []
    for i in range(cfg.population_size):
        rng = _rng(cfg.seed, 0, i)
        r = rng.uniform(cfg.tau1, cfg.tau2)
        k = int(np.clip(round(r * num_filters), lo, hi))
        genes = np.zeros(num_filters, dtype=bool)
        genes[rng.choice(num_filters, size=k, replace=False)] = True
        pop.append(Individual(genes))
    return pop


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Both objectives minimized: a <= b everywhere, < somewhere."""
    return (
        a.filter_pct <= b.filter_pct
        and a.error <= b.error
        and (a.filter_pct < b.filter_pct or a.error < b.error)
    )


def _points(pop: list[Individual]) -> np.ndarray:
    """[N, 2] array of (filter_pct, error) rows."""
    rows = [(ind.objectives.filter_pct, ind.objectives.error) for ind in pop]
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def fast_nondominated_sort(pop: list[Individual]) -> list[list[int]]:
    """Fronts as ascending index lists, best first, peeled from one
    dominance matrix: beats[i, j] when pop[i] dominates pop[j]."""
    points = _points(pop)
    weakly = (points[:, None] <= points[None]).all(2)
    beats = weakly & ~weakly.T
    count = beats.sum(0)
    left = np.ones(len(pop), dtype=bool)
    fronts: list[list[int]] = []
    while left.any():
        front = left & (count == 0)
        fronts.append(np.flatnonzero(front).tolist())
        count -= beats[front].sum(0)
        left &= ~front
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """Crowding distances of one front's [n, 2] objective rows; boundaries
    get +inf and a zero objective range contributes nothing."""
    n = len(points)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for column in points.T:
        order = np.argsort(column, kind="stable")
        value = column[order]
        dist[order[[0, -1]]] = np.inf
        if value[-1] == value[0]:
            continue
        dist[order[1:-1]] += (value[2:] - value[:-2]) / (value[-1] - value[0])
    return dist


def select_elites(pop: list[Individual], k: int) -> list[Individual]:
    """Fill by ascending front; truncate the straddling front by descending
    crowding, ties by lower filter_pct, then stable input order."""
    if len(pop) < k:
        raise EvolutionError(f"cannot select {k} elites from {len(pop)} individuals")
    elites: list[Individual] = []
    for front in fast_nondominated_sort(pop):
        room = k - len(elites)
        if len(front) > room:
            points = _points([pop[i] for i in front])
            crowding = crowding_distance(points).tolist()
            pct = points[:, 0].tolist()
            order = sorted(range(len(front)), key=lambda j: (-crowding[j], pct[j], j))
            front = [front[j] for j in order[:room]]
        elites.extend(pop[i] for i in front)
        if len(elites) == k:
            break
    return elites


def repair(
    genes: np.ndarray, tau1: float, tau2: float, rng: np.random.Generator
) -> np.ndarray:
    """Clamp the retained count into the feasible range by flipping uniformly
    chosen bits; feasible genomes pass through unchanged."""
    n = genes.shape[0]
    lo, hi = count_bounds(n, tau1, tau2)
    genes = genes.copy()
    count = int(genes.sum())
    if count > hi:
        on = np.flatnonzero(genes)
        genes[rng.choice(on, size=count - hi, replace=False)] = False
    elif count < lo:
        off = np.flatnonzero(~genes)
        genes[rng.choice(off, size=lo - count, replace=False)] = True
    return genes


def make_children(
    elites: list[Individual], cfg: EvolutionConfig, generation: int
) -> list[Individual]:
    """N unevaluated children from two random distinct elite parents each:
    uniform crossover, per-gene mutation, then repair."""
    if len(elites) < 2:
        raise EvolutionError("need at least 2 elites to breed")
    n = elites[0].genes.shape[0]
    children = []
    for i in range(cfg.population_size):
        rng = _rng(cfg.seed, generation, i)
        pa, pb = rng.choice(len(elites), size=2, replace=False)
        p1, p2 = elites[pa].genes, elites[pb].genes
        if rng.random() < cfg.crossover_prob:
            pick = rng.random(n) < 0.5
            genes = np.where(pick, p1, p2)
        else:
            genes = p1.copy()
        flips = rng.random(n) < cfg.mutation_prob
        genes = genes ^ flips
        genes = repair(genes, cfg.tau1, cfg.tau2, rng)
        children.append(Individual(genes))
    return children


def pareto_front(elites: list[Individual]) -> list[Individual]:
    """Rank-1 members deduplicated by genome, sorted by ascending filter_pct."""
    fronts = fast_nondominated_sort(elites)
    seen = set()
    members = []
    for i in fronts[0]:
        key = elites[i].genes.tobytes()
        if key not in seen:
            seen.add(key)
            members.append(elites[i])
    members.sort(key=lambda ind: (ind.objectives.filter_pct, ind.objectives.error))
    return members


def evolve(
    evaluate: EvaluateFn, num_filters: int, cfg: EvolutionConfig
) -> EvolutionResult:
    """Initialize, sort, then T rounds of child generation and elite
    selection over the union of children and previous elites."""
    lo, hi = count_bounds(num_filters, cfg.tau1, cfg.tau2)
    pop = init_population(num_filters, cfg)
    for ind in pop:
        ind.objectives = evaluate(ind.genes)
    elites = select_elites(pop, cfg.elite_size)
    history: dict[str, list[float]] = {"best_error": [], "median_error": []}
    _record(history, elites)
    for t in range(1, cfg.generations + 1):
        children = make_children(elites, cfg, t)
        for ind in children:
            assert lo <= ind.retained <= hi  # repair keeps the pool feasible
            ind.objectives = evaluate(ind.genes)
        elites = select_elites(children + elites, cfg.elite_size)
        _record(history, elites)
    return EvolutionResult(elites, pareto_front(elites), history)


def _record(history: dict[str, list[float]], elites: list[Individual]) -> None:
    errors = [ind.objectives.error for ind in elites]
    history["best_error"].append(min(errors))
    history["median_error"].append(float(np.median(errors)))


def evolve_subnetwork(ctx: EvaluationContext, cfg: EvolutionConfig) -> EvolutionResult:
    """Run the evolution loop against a sub-network evaluation context, in
    cfg's alpha mode."""

    def evaluate(genes: np.ndarray) -> ObjectiveVector:
        mask = FilterMask(genes.astype(np.uint8), 0)
        return evaluate_individual(ctx, mask, alpha_mode=cfg.alpha_mode)

    return evolve(evaluate, ctx.num_filters, cfg)


# ---------------------------------------------------------------------------
# knee point


def knee_point(front: list[Individual]) -> Individual:
    """Front member farthest (perpendicular distance, objectives normalized
    to [0,1]) from the line through the two extreme endpoints.

    Fronts of size 1 or 2 return the member with the smaller filter_pct;
    distance ties break by smaller filter_pct, then lower error.
    """
    if not front:
        raise EvolutionError("knee_point on an empty front")
    small_key = lambda ind: (ind.objectives.filter_pct, ind.objectives.error)
    if len(front) <= 2:
        return min(front, key=small_key)
    pts = np.array([[ind.objectives.filter_pct, ind.objectives.error] for ind in front])
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    norm = np.zeros_like(pts)
    for d in range(2):
        if span[d] > 0:
            norm[:, d] = (pts[:, d] - lo[d]) / span[d]
    a = norm[int(np.argmin(norm[:, 0]))]  # minimal normalized filter_pct
    b = norm[int(np.argmin(norm[:, 1]))]  # minimal normalized error
    ab = b - a
    length = float(np.hypot(*ab))
    if length == 0.0:
        dist = np.zeros(len(front))
    else:
        dist = np.abs(ab[0] * (norm[:, 1] - a[1]) - ab[1] * (norm[:, 0] - a[0])) / length
    # everything within float noise of the maximum counts as a tie
    tied = np.flatnonzero(dist >= dist.max() - 1e-12)
    best = min(
        tied,
        key=lambda i: (front[i].objectives.filter_pct, front[i].objectives.error),
    )
    return front[int(best)]


# ---------------------------------------------------------------------------
# export


def mask_hex(genes: np.ndarray) -> str:
    """Genome packed little-endian bit order, hex encoded."""
    return np.packbits(genes.astype(np.uint8), bitorder="little").tobytes().hex()


def mask_from_hex(hex_str: str, num_filters: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(hex_str), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:num_filters].astype(bool)


def front_rows(front: list[Individual]) -> list[dict]:
    """JSON-ready rows of a front, one per member: filter_pct, error,
    retained_count and mask_hex."""
    return [
        {
            "filter_pct": ind.objectives.filter_pct,
            "error": ind.objectives.error,
            "retained_count": ind.retained,
            "mask_hex": mask_hex(ind.genes),
        }
        for ind in front
    ]


def run_summary(
    cfg: EvolutionConfig, result: EvolutionResult
) -> dict:
    """JSON-ready document: config echo, error traces, final front and the
    knee-point index within it."""
    return {
        "config": asdict(cfg),
        "best_error": result.history["best_error"],
        "median_error": result.history["median_error"],
        "front": front_rows(result.front),
        "knee_index": result.front.index(knee_point(result.front)),
    }
