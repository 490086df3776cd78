import numpy as np
import pytest

from smoea.data import SyntheticParams, generate_synthetic
from smoea.evolution import dominates
from smoea.network import build_toy_cnn
from smoea.pipeline import FineTuneConfig, finetune


def numerical_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(b.ravel()), 1e-12)
    return np.linalg.norm((a - b).ravel()) / denom


def naive_conv2d(x, params):
    """Seven-loop direct-summation convolution oracle."""
    n, cin, h, w = x.shape
    s, p = params.stride, params.padding
    oh = (h + 2 * p - params.kernel_h) // s + 1
    ow = (w + 2 * p - params.kernel_w) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, params.out_channels, oh, ow))
    for b in range(n):
        for o in range(params.out_channels):
            for i in range(oh):
                for j in range(ow):
                    acc = params.bias[o]
                    for c in range(cin):
                        for ki in range(params.kernel_h):
                            for kj in range(params.kernel_w):
                                acc += (
                                    xp[b, c, i * s + ki, j * s + kj]
                                    * params.weights[o, c, ki, kj]
                                )
                    out[b, o, i, j] = acc
    return out


# --- NSGA-II oracle: the per-member forms selection ran before the
# objective-array sort and crowding (Deb et al. 2002), over a list of
# members with .objectives; fronts are ascending pool indices, best first


def deb_sort(pop):
    """The general N-objective non-dominated sort, with ranks left out."""
    n = len(pop)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(pop[i].objectives, pop[j].objectives):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(pop[j].objectives, pop[i].objectives):
                dominated_by[j].append(i)
                domination_count[i] += 1
    for i in range(n):
        if domination_count[i] == 0:
            fronts[0].append(i)
    f = 0
    while fronts[f]:
        nxt = []
        for i in fronts[f]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        fronts.append(sorted(nxt))
        f += 1
    return fronts[:-1]


def deb_crowding(front, pop):
    """The per-member crowding loop over one front, as {index: distance}."""
    crowding = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    for value in (
        lambda i: pop[i].objectives.filter_pct,
        lambda i: pop[i].objectives.error,
    ):
        order = sorted(front, key=value)
        lo, hi = value(order[0]), value(order[-1])
        crowding[order[0]] = float("inf")
        crowding[order[-1]] = float("inf")
        if hi == lo:
            continue
        for k in range(1, len(order) - 1):
            crowding[order[k]] += (value(order[k + 1]) - value(order[k - 1])) / (hi - lo)
    return crowding


def deb_rank(pop):
    """deb_sort's fronts and every member's deb_crowding distance."""
    fronts = deb_sort(pop)
    crowding = {}
    for front in fronts:
        crowding.update(deb_crowding(front, pop))
    return fronts, crowding


def deb_select(pop, k, ranked=None):
    """The elite fill: whole fronts while they fit, then the straddling
    front by descending crowding, ties by lower filter_pct, then pool
    order. `ranked` is deb_rank(pop), passed to reuse it over many k."""
    fronts, crowding = deb_rank(pop) if ranked is None else ranked
    chosen = []
    for front in fronts:
        if len(chosen) + len(front) <= k:
            chosen.extend(front)
        else:
            ordered = sorted(
                front, key=lambda i: (-crowding[i], pop[i].objectives.filter_pct, i)
            )
            chosen.extend(ordered[: k - len(chosen)])
        if len(chosen) == k:
            break
    return chosen


@pytest.fixture(scope="session")
def toy_dataset():
    return generate_synthetic(SyntheticParams(seed=1))


@pytest.fixture(scope="session")
def trained_toy(toy_dataset):
    """Toy 4-conv CNN trained to (near) perfect accuracy on the synthetic set."""
    net = build_toy_cnn(seed=1)
    cfg = FineTuneConfig(lr=0.01, epochs=8, milestones=(4, 6), batch_size=32, seed=1)
    return finetune(net, toy_dataset, cfg)
