"""Per-layer tracing for the traced benchmark run.

`Tracer.install` wraps the public functions of the six measured smoea
modules from outside the package. Every attribute of every loaded smoea
module that refers to a wrapped function is replaced, so calls made through
`from .x import f` bindings are timed too. `Tracer.uninstall` puts every
original back; untraced runs never install a tracer.

Spans stay in memory as [name, start_ns, end_ns, parent_index]. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("data", "network", "tensor", "objectives", "evolution", "pipeline")

# Leaf helpers called in the innermost loops (every pair comparison of a
# sort, every conv shape check): a span per call would cost more than the
# call and swamp the layers around them.
SKIP = frozenset({"evolution.dominates", "tensor.conv_output_hw"})

# (metric name, unit, better); the trace-mode JSON reports exactly these.
PER_LAYER = [
    ("objectives.evaluations", "count", "lower"),
    ("objectives.evaluate_s", "s", "lower"),
    ("objectives.evaluate_self_s", "s", "lower"),
    ("objectives.context_builds", "count", "lower"),
    ("objectives.context_build_s", "s", "lower"),
    ("objectives.distinct_genome_ratio", "ratio", "higher"),
    ("network.tail_forward_s", "s", "lower"),
    ("network.tail_forward_calls", "count", "lower"),
    ("network.forward_s", "s", "lower"),
    ("network.forward_cached_s", "s", "lower"),
    ("network.backward_s", "s", "lower"),
    ("network.compact_s", "s", "lower"),
    ("tensor.conv_fwd_calls", "count", "lower"),
    ("tensor.conv_fwd_s", "s", "lower"),
    ("tensor.conv_bwd_calls", "count", "lower"),
    ("tensor.conv_bwd_s", "s", "lower"),
    ("tensor.maxpool_fwd_calls", "count", "lower"),
    ("tensor.maxpool_fwd_s", "s", "lower"),
    ("tensor.maxpool_bwd_calls", "count", "lower"),
    ("tensor.maxpool_bwd_s", "s", "lower"),
    ("tensor.relu_calls", "count", "lower"),
    ("tensor.relu_s", "s", "lower"),
    ("tensor.dense_calls", "count", "lower"),
    ("tensor.dense_s", "s", "lower"),
    ("tensor.conv_fwd_gflop", "GFLOP", "lower"),
    ("tensor.conv_bwd_gflop", "GFLOP", "lower"),
    ("tensor.conv_bwd_gflops", "GFLOP/s", "higher"),
    ("evolution.evolve_s", "s", "lower"),
    ("evolution.nsga_self_s", "s", "lower"),
    ("evolution.select_elites_s", "s", "lower"),
    ("evolution.make_children_s", "s", "lower"),
    ("evolution.generations", "count", "lower"),
    ("evolution.front_size", "count", "higher"),
    ("pipeline.finetune_calls", "count", "lower"),
    ("pipeline.finetune_steps", "count", "lower"),
    ("pipeline.finetune_s", "s", "lower"),
    ("pipeline.evaluate_accuracy_s", "s", "lower"),
    ("pipeline.prune_self_s", "s", "lower"),
    ("data.generate_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# per-layer metric prefix -> traced function, for the calls/seconds pairs
TENSOR_OPS = {
    "conv_fwd": "tensor.conv2d_forward",
    "conv_bwd": "tensor.conv2d_backward",
    "maxpool_fwd": "tensor.maxpool2x2",
    "maxpool_bwd": "tensor.maxpool2x2_backward",
    "relu": "tensor.relu",
    "dense": "tensor.dense_forward",
}


def conv_flop(x_shape, params) -> int:
    """Forward FLOPs of one conv call (one multiply-accumulate = 2),
    computed from the argument shapes."""
    n, _, h, w = x_shape
    oh = (h + 2 * params.padding - params.kernel_h) // params.stride + 1
    ow = (w + 2 * params.padding - params.kernel_w) // params.stride + 1
    return (
        2 * n * params.out_channels * params.in_channels
        * params.kernel_h * params.kernel_w * oh * ow
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.conv_fwd_flop = 0
        self.conv_bwd_flop = 0
        self.finetune_steps = 0
        self.front_sizes: list[int] = []
        self.genomes: set[tuple[int, bytes]] = set()
        # contexts stay referenced so their ids stay unique within the trace
        self._contexts: dict[int, object] = {}
        self._hooks = {
            "tensor.conv2d_forward": self._count_conv_fwd,
            "tensor.conv2d_backward": self._count_conv_bwd,
            "objectives.evaluate_individual": self._count_genome,
            "evolution.evolve": self._count_front,
            "pipeline.finetune_with_history": self._count_steps,
        }

    # -- counters computed from arguments and results

    def _count_conv_fwd(self, args, result):
        self.conv_fwd_flop += conv_flop(args[0].shape, args[1])

    def _count_conv_bwd(self, args, result):
        # grad wrt weights and grad wrt input each cost one forward
        self.conv_bwd_flop += 2 * conv_flop(args[0].shape, args[1])

    def _count_genome(self, args, result):
        ctx, mask = args
        self._contexts[id(ctx)] = ctx
        self.genomes.add((id(ctx), mask.bits.tobytes()))

    def _count_front(self, args, result):
        self.front_sizes.append(len(result.front))

    def _count_steps(self, args, result):
        _, dataset, cfg = args
        n = dataset.train_images.shape[0]
        self.finetune_steps += cfg.epochs * math.ceil(n / cfg.batch_size)

    # -- patching

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"smoea.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrappers[obj] = self._wrap(obj, name)
        smoea_modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "smoea" or key.startswith("smoea.")
        ]
        for mod in smoea_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        ctx_cls = importlib.import_module("smoea.objectives").EvaluationContext
        build = ctx_cls.__dict__["build"]
        ctx_cls.build = classmethod(
            self._wrap(build.__func__, "objectives.EvaluationContext.build")
        )
        self._patched.append((ctx_cls, "build", build))

    def uninstall(self) -> list[tuple[object, str, object]]:
        """Restore every patched attribute; returns what was restored."""
        restored = self._patched[::-1]
        for owner, attr, original in restored:
            setattr(owner, attr, original)
        self._patched = []
        return restored

    # -- metrics

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total = defaultdict(int)
        self_ns = defaultdict(int)
        evaluate_in_evolve = 0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            if (
                name == "objectives.evaluate_individual"
                and parent >= 0
                and spans[parent][0] == "evolution.evolve"
            ):
                evaluate_in_evolve += end - start

        def sec(ns):
            return ns / 1e9

        evaluations = calls["objectives.evaluate_individual"]
        m = {
            "objectives.evaluations": evaluations,
            "objectives.evaluate_s": sec(total["objectives.evaluate_individual"]),
            "objectives.evaluate_self_s": sec(self_ns["objectives.evaluate_individual"]),
            "objectives.context_builds": calls["objectives.EvaluationContext.build"],
            "objectives.context_build_s": sec(total["objectives.EvaluationContext.build"]),
            "objectives.distinct_genome_ratio": (
                len(self.genomes) / evaluations if evaluations else 0.0
            ),
            "network.tail_forward_s": sec(total["network.subnetwork_tail_forward"]),
            "network.tail_forward_calls": calls["network.subnetwork_tail_forward"],
            "network.forward_s": sec(total["network.forward"]),
            "network.forward_cached_s": sec(total["network.forward_cached"]),
            "network.backward_s": sec(total["network.backward"]),
            "network.compact_s": sec(total["network.compact"]),
        }
        for key, fn in TENSOR_OPS.items():
            m[f"tensor.{key}_calls"] = calls[fn]
            m[f"tensor.{key}_s"] = sec(total[fn])
        m["tensor.conv_fwd_gflop"] = self.conv_fwd_flop / 1e9
        m["tensor.conv_bwd_gflop"] = self.conv_bwd_flop / 1e9
        bwd_s = m["tensor.conv_bwd_s"]
        m["tensor.conv_bwd_gflops"] = m["tensor.conv_bwd_gflop"] / bwd_s if bwd_s else 0.0
        m.update(
            {
                "evolution.evolve_s": sec(total["evolution.evolve"]),
                "evolution.nsga_self_s": sec(total["evolution.evolve"] - evaluate_in_evolve),
                "evolution.select_elites_s": sec(total["evolution.select_elites"]),
                "evolution.make_children_s": sec(total["evolution.make_children"]),
                "evolution.generations": calls["evolution.make_children"],
                "evolution.front_size": (
                    sum(self.front_sizes) / len(self.front_sizes) if self.front_sizes else 0.0
                ),
                "pipeline.finetune_calls": calls["pipeline.finetune_with_history"],
                "pipeline.finetune_steps": self.finetune_steps,
                "pipeline.finetune_s": sec(total["pipeline.finetune_with_history"]),
                "pipeline.evaluate_accuracy_s": sec(total["pipeline.evaluate_accuracy"]),
                "pipeline.prune_self_s": sec(self_ns["pipeline.smoea_prune"]),
                "data.generate_s": sec(total["data.generate_synthetic"]),
                "data.load_s": sec(total["data.load_cifar10"]),
                "trace.spans": len(spans),
                "trace.overhead_s": overhead_s,
            }
        )
        return m
