"""The two pruning objectives: retained-filter fraction and the
intensity-compensated feature-map reconstruction error of a two-layer
sub-network.

A mask is scored without a forward pass. Zeroing channel c of the first
conv's output commutes with the relu, 2x2 maxpool and flatten between the
two layers, and the second layer is linear, so the masked output is
``a = B + sum_c m_c Y_c``: ``Y_c`` is the second layer's bias-free response
to channel c alone and ``B`` its bias broadcast over the output (the
decomposition of channel pruning by reconstruction, He et al. 2017 and
ThiNet). The evaluation context holds only what scoring reads, built once
per layer from one forward pass to the second layer's input: the Gram terms
``G = <Y_c, Y_c'>``, ``h_c = <Y_c, B>`` and ``beta = ||B||^2``, and the
unmasked output's norm ``||r||``; the error of a mask is then a quadratic
form in its bits, which ``score_genomes`` forms for a whole genome matrix in
one product. ``network.subnetwork_forward`` followed by the
array-taking ``reconstruction_error`` is the slow, direct path the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from .exceptions import EvolutionError, NonFiniteError, ShapeError, check_fields
from .network import SubNetwork

ALPHA_MODES = ("optimized", "fixed_one")

@dataclass(frozen=True)
class ObjectiveVector:
    filter_pct: float
    error: float

    def __post_init__(self):
        object.__setattr__(self, "filter_pct", float(self.filter_pct))
        object.__setattr__(self, "error", float(self.error))

    def as_tuple(self) -> tuple[float, float]:
        return (self.filter_pct, self.error)


@dataclass(frozen=True, eq=False)
class EvaluationContext:
    """What a mask's score reads on one layer's sub-network, in either
    alpha mode: score_genomes takes the mode."""

    gram: np.ndarray = field(repr=False)  # <Y_c, Y_c'>, [C, C]
    bias_cross: np.ndarray = field(repr=False)  # <Y_c, B>, [C]
    bias_sq: float  # ||B||^2
    ref_norm: float  # ||r||, the norm of the unmasked sub-network output

    @classmethod
    def build(cls, sub: SubNetwork, map_l: np.ndarray) -> "EvaluationContext":
        """The context of `sub` on the calibration input `map_l`: one pass
        through the first conv and the interstitial layers feeds both ||r||
        and the Gram terms. Raises NonFiniteError where a term is NaN or
        infinite, and EvolutionError where the output is one number, since
        no mask could then be ranked."""
        x = T.conv2d_forward(map_l, sub.first.params)
        for lay in sub.interstitial:
            x = lay.forward(x)[0]
        out = sub.second.forward(x)[0]
        if out.size == 1:
            raise EvolutionError(
                "the sub-network's output over the calibration batch is one "
                "number, which the optimized alpha fits under every mask, so "
                "the reconstruction error ranks no mask"
            )
        ref_norm = T.frobenius_norm(out)
        del out  # freed before the Gram build
        terms = (*_gram_terms(sub, x), ref_norm)
        if not all(np.isfinite(term).all() for term in terms):
            raise NonFiniteError(
                "the evaluation terms of the sub-network are not finite "
                "(NaN or infinite weights or activations)"
            )
        return cls(*terms)

    @property
    def num_filters(self) -> int:
        return self.gram.shape[0]


def _gram_terms(sub: SubNetwork, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(G, h, beta) of the second layer's per-channel responses to its input
    x, from its channel_operands, accumulated in chunks of images, output
    positions and output channels (unchunked, VGG-14 conv 9's responses
    alone take about 268 MB at a batch of 8 images).

    A chunk of k positions and o outputs holds a [C, k, taps] block and its
    [C, k*o] response y. The rule keeps both within T.CHUNK_BYTES, except
    that a chunk never holds less than one output row: at VGG-14 conv 9
    (4x4 output, 512 channels in and out) the rule allows 2 positions but a
    chunk takes a row of 4, so each y is 512 x 2048 doubles, 8 MiB, twice
    CHUNK_BYTES. Two chunks are in flight at once, so a build of two or more
    chunks makes two buffers for y and two for its C x C product, sized by
    that rule, and reuses them for every pair.

    The chunk products y @ y.T run two at a time on tensor._side_by_side,
    chunk i on the helper thread beside chunk i + 1 on this one, and are
    added into G in chunk order; an odd last chunk runs on this thread.
    Each product is the same numpy call on the same operand as it would be
    alone, so G does not depend on the thread that formed its terms."""
    n, c = x.shape[0], sub.first.params.out_channels
    patches, w = sub.second.channel_operands(x, c)  # [N, C, Ho, Wo, taps...]
    w = np.ascontiguousarray(w)  # [C, taps, outs]
    bias = sub.second.arrays()[1]
    out_h, out_w = patches.shape[2:4]
    _, taps, outs = w.shape
    budget = T.CHUNK_BYTES // 8
    out_step = min(outs, max(1, budget // c))
    rows = max(1, budget // (c * max(out_step, taps)))
    blocks = _position_blocks(n, out_h, out_w, rows)
    # a chunk's positions: at most rows, or one output row where it is longer
    positions = min(max(rows, out_w), n * out_h * out_w)
    in_flight = min(2, len(blocks) * -(-outs // out_step))
    buffers = [(np.empty(c * positions * out_step), np.empty((c, c))) for _ in range(in_flight)]
    gram = np.zeros((c, c))
    patch_sums = np.zeros((c, taps))
    chunks = _chunks(patches, w, blocks, out_step, patch_sums)
    for first in chunks:
        second = next(chunks, None)
        if second is None:
            gram += _chunk_product(*first, *buffers[0])
            continue
        halves = (
            lambda: partial(_chunk_product, *first, *buffers[0]),
            lambda: partial(_chunk_product, *second, *buffers[1]),
        )
        for product in T._side_by_side(*halves):
            gram += product
    # <Y_c, B> = sum over positions and taps of patch * (w_c @ bias)
    cross = (patch_sums * (w @ bias)).sum(axis=1)
    return gram, cross, n * out_h * out_w * float(bias @ bias)


def _chunks(patches: np.ndarray, w: np.ndarray, blocks, out_step: int, patch_sums: np.ndarray):
    """The Gram build's chunks, in chunk order, as (block, w) operands of
    _chunk_product: each of the position blocks (_position_blocks) by
    out_step outputs. Cutting each block of patches adds its per-channel
    patch sums into patch_sums, in block order."""
    c = patches.shape[1]
    _, taps, outs = w.shape
    for images, out_rows in blocks:
        block = patches[images, :, out_rows].swapaxes(0, 1).reshape(c, -1, taps)
        patch_sums += block.sum(axis=1)
        for o in range(0, outs, out_step):
            yield block, w[:, :, o : o + out_step]


def _chunk_product(block: np.ndarray, w: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y @ y.T of the responses y = block @ w, flattened per channel, into
    out, through the buffer y (a prefix of it holds them)."""
    c, k, outs = *block.shape[:2], w.shape[2]
    y = np.matmul(block, w, out=y[: c * k * outs].reshape(c, k, outs)).reshape(c, -1)
    return np.matmul(y, y.T, out=out)  # one operand: numpy takes its symmetric kernel


def _position_blocks(
    images: int, out_h: int, out_w: int, rows: int
) -> list[tuple[slice, slice]]:
    """(image slice, output-row slice) pairs that cover every output position
    in blocks of at most `rows` positions, or of one output row where a row
    is longer than that."""
    per_image = out_h * out_w
    if per_image <= rows:
        step = rows // per_image
        return [(slice(i, i + step), slice(None)) for i in range(0, images, step)]
    step = max(1, rows // out_w)
    return [
        (slice(i, i + 1), slice(h, h + step))
        for i in range(images)
        for h in range(0, out_h, step)
    ]


def optimal_alpha(reference: np.ndarray, approx: np.ndarray) -> float:
    """Closed-form minimizer of ||reference - a*approx||_2 over scalar a.

    The 1-D least-squares solution <ref, approx> / <approx, approx>;
    returns 0 for an all-zero approx.
    """
    if tuple(reference.shape) != tuple(approx.shape):
        raise ShapeError(
            f"alpha shapes {tuple(reference.shape)} vs {tuple(approx.shape)}"
        )
    denom = T.inner_product(approx, approx)
    if denom == 0.0:
        return 0.0
    return T.inner_product(reference, approx) / denom


def reconstruction_error(
    reference: np.ndarray, approx: np.ndarray, alpha_mode: str = "optimized"
) -> float:
    """||reference - alpha*approx||_2, with alpha from optimal_alpha or, in
    the "fixed_one" mode, 1: the direct form of the error that
    score_genomes takes from the Gram terms."""
    check_fields({"alpha_mode": alpha_mode}, ALPHA_MODES, ("alpha_mode",))
    if tuple(approx.shape) != tuple(reference.shape):
        raise ShapeError(
            f"approx shape {tuple(approx.shape)} != reference {tuple(reference.shape)}"
        )
    a = optimal_alpha(reference, approx) if alpha_mode == "optimized" else 1.0
    return T.frobenius_norm(reference - a * approx)


def score_genomes(
    ctx: EvaluationContext, genes: np.ndarray, *, alpha_mode: str = "optimized"
) -> np.ndarray:
    """[P, 2] rows of (filter_pct, error) for a [P, C] genome matrix, from
    the context's Gram terms, with alpha from optimal_alpha or, in the
    "fixed_one" mode, 1. One product with G serves every row, and a
    genome's score is its row of that call: another batch size may take
    another BLAS kernel and move the last bit.

    With q = 1 - m, the part a mask removes is d = r - a = sum_c q_c Y_c.
    The squared error is ||d||^2 at alpha = 1 and ||d||^2 - <a, d>^2 / ||a||^2
    at the best alpha. Forming it from d rather than from
    ||r||^2 - <r, a>^2 / ||a||^2 keeps rounding at the scale of the error
    instead of the scale of ||r||.
    """
    check_fields({"alpha_mode": alpha_mode}, ALPHA_MODES, ("alpha_mode",))
    m = genes.astype(np.float64)
    q = 1.0 - m
    g_q, g_m = np.split(np.concatenate((q, m)) @ ctx.gram, 2)
    err_sq = (q * g_q).sum(axis=1)  # ||d||^2
    if alpha_mode == "optimized":
        a_sq = ctx.bias_sq + 2.0 * (m * ctx.bias_cross).sum(axis=1) + (m * g_m).sum(axis=1)
        a_d = (q * ctx.bias_cross).sum(axis=1) + (q * g_m).sum(axis=1)
        live = a_sq > 0.0  # else alpha = 0, as optimal_alpha takes it
        err_sq[live] -= a_d[live] * a_d[live] / a_sq[live]
    error = np.sqrt(np.maximum(err_sq, 0.0))
    if alpha_mode == "optimized":
        error[~live] = ctx.ref_norm
    return np.column_stack((genes.sum(axis=1) / genes.shape[1], error))
