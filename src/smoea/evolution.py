"""Constrained NSGA-II over binary filter masks.

The pool is one [N, C] bool genome matrix (1 = filter retained) and one
[N, 2] array of (filter_pct, error) rows; sorting and selection return pool
indices into both. `Individual`s are built only for the returned result.
A generation is scored in one call, a mask's score is its row of that
call, and a rerun reproduces every bit. Retention is kept inside
[tau1, tau2] by stochastic repair. All randomness is drawn from per-genome
streams keyed by (seed, generation, index).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from math import ceil, floor
from typing import Callable

import numpy as np

from .exceptions import EvolutionError, check_fields
from .objectives import ALPHA_MODES, EvaluationContext, ObjectiveVector, score_genomes


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
        check = partial(check_fields, vars(self), section="evolution")
        check("an integer", ("population_size", "elite_size"), low=2)
        check("an integer", ("generations", "seed"), low=0)
        check("a number in [0, 1]", ("crossover_prob", "mutation_prob"))
        check("a number in (0, 1)", ("tau1", "tau2"))
        check(ALPHA_MODES, ("alpha_mode",))
        check("an integer", ("population_size",), low="elite_size")
        check("a number", ("tau1",), below="tau2")


@dataclass
class EvolutionResult:
    elites: list[Individual]
    front: list[Individual]  # rank-1 members of the final elites, deduplicated
    history: dict[str, list[float]]


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


def init_population(num_filters: int, cfg: EvolutionConfig) -> np.ndarray:
    """[P, C] genomes, each keeping round(r * C) filters, r uniform in
    [tau1, tau2], clamped to the feasible counts."""
    if num_filters < 2:
        raise EvolutionError("need at least 2 filters to evolve")
    lo, hi = count_bounds(num_filters, cfg.tau1, cfg.tau2)
    genes = np.zeros((cfg.population_size, num_filters), dtype=bool)
    for i, row in enumerate(genes):
        rng = _rng(cfg.seed, 0, i)
        r = rng.uniform(cfg.tau1, cfg.tau2)
        k = int(np.clip(round(r * num_filters), lo, hi))
        row[rng.choice(num_filters, size=k, replace=False)] = True
    return genes


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Both objectives minimized: a <= b everywhere, < somewhere."""
    return (
        a.filter_pct <= b.filter_pct
        and a.error <= b.error
        and (a.filter_pct < b.filter_pct or a.error < b.error)
    )


def fast_nondominated_sort(points: np.ndarray) -> list[list[int]]:
    """Fronts of an [N, 2] objective array as ascending index lists, best
    first, peeled from one dominance matrix: beats[i, j] when row i
    dominates row j."""
    weakly = (points[:, None] <= points[None]).all(2)
    beats = weakly & ~weakly.T
    count = beats.sum(0)
    left = np.ones(len(points), dtype=bool)
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


def select_elites(points: np.ndarray, k: int) -> list[int]:
    """Indices of k rows of an [N, 2] objective array: fill by ascending
    front; truncate the straddling front by descending crowding, ties by
    lower filter_pct, then stable input order."""
    if len(points) < k:
        raise EvolutionError(f"cannot select {k} elites from {len(points)} individuals")
    elites: list[int] = []
    for front in fast_nondominated_sort(points):
        room = k - len(elites)
        if len(front) > room:
            crowding = crowding_distance(points[front]).tolist()
            pct = points[front, 0].tolist()
            order = sorted(range(len(front)), key=lambda j: (-crowding[j], pct[j], j))
            front = [front[j] for j in order[:room]]
        elites.extend(front)
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
    parents: np.ndarray, cfg: EvolutionConfig, generation: int
) -> np.ndarray:
    """[P, C] children of an [E, C] parent matrix, each from two random
    distinct parents: uniform crossover, per-gene mutation, then repair."""
    if len(parents) < 2:
        raise EvolutionError("need at least 2 elites to breed")
    n = parents.shape[1]
    children = np.empty((cfg.population_size, n), dtype=bool)
    for i in range(cfg.population_size):
        rng = _rng(cfg.seed, generation, i)
        p1, p2 = parents[rng.choice(len(parents), size=2, replace=False)]
        if rng.random() < cfg.crossover_prob:
            genes = np.where(rng.random(n) < 0.5, p1, p2)
        else:
            genes = p1
        flips = rng.random(n) < cfg.mutation_prob
        children[i] = repair(genes ^ flips, cfg.tau1, cfg.tau2, rng)
    return children


def _members(genes: np.ndarray, points: np.ndarray) -> list[Individual]:
    return [Individual(g, ObjectiveVector(*p)) for g, p in zip(genes, points)]


def pareto_front(genes: np.ndarray, points: np.ndarray) -> list[Individual]:
    """Rank-1 members deduplicated by genome (first occurrence kept), sorted
    by ascending filter_pct."""
    unique: dict[bytes, int] = {}
    for i in fast_nondominated_sort(points)[0]:
        unique.setdefault(genes[i].tobytes(), i)
    keep = sorted(unique.values(), key=lambda i: points[i].tolist())
    return _members(genes[keep], points[keep])


def evolve(
    score: Callable[[np.ndarray], np.ndarray], num_filters: int, cfg: EvolutionConfig
) -> EvolutionResult:
    """Initialize, sort, then T rounds of child generation and elite
    selection over the union of children and previous elites; `score` maps
    each generation's [P, C] genomes to their [P, 2] objectives."""
    lo, hi = count_bounds(num_filters, cfg.tau1, cfg.tau2)
    genes = init_population(num_filters, cfg)
    points = score(genes)
    history: dict[str, list[float]] = {"best_error": [], "median_error": []}
    for t in range(cfg.generations + 1):
        if t > 0:
            children = make_children(genes, cfg, t)
            retained = children.sum(1)
            # repair keeps the pool feasible
            assert ((lo <= retained) & (retained <= hi)).all()
            genes = np.concatenate([children, genes])
            points = np.concatenate([score(children), points])
        keep = select_elites(points, cfg.elite_size)
        genes, points = genes[keep], points[keep]
        errors = points[:, 1].tolist()
        history["best_error"].append(min(errors))
        history["median_error"].append(float(np.median(errors)))
    return EvolutionResult(_members(genes, points), pareto_front(genes, points), history)


def evolve_subnetwork(ctx: EvaluationContext, cfg: EvolutionConfig) -> EvolutionResult:
    """Run the evolution loop against a sub-network evaluation context, in
    cfg's alpha mode."""
    return evolve(partial(score_genomes, ctx, alpha_mode=cfg.alpha_mode), ctx.num_filters, cfg)


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
    pts = np.array([small_key(ind) for ind in front])
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
    return min((front[i] for i in tied), key=small_key)


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
