"""Ablation of the intensity compensation: evolve one layer's Pareto front
with the closed-form scale against a fixed scale of 1 and print both error
columns per retained count.

    python3 scripts/alpha_ablation.py --layer 1 --seed 5
"""

import argparse

from smoea.data import SyntheticParams, generate_synthetic
from smoea.evolution import EvolutionConfig, evolve_subnetwork
from smoea.network import build_toy_cnn, extract_subnetwork, forward
from smoea.objectives import EvaluationContext
from smoea.pipeline import FineTuneConfig, calibration_batch, finetune


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--layer", type=int, default=1)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--generations", type=int, default=60)
    args = ap.parse_args()

    dataset = generate_synthetic(SyntheticParams(seed=args.seed))
    net = build_toy_cnn(seed=args.seed)
    net = finetune(
        net, dataset,
        FineTuneConfig(lr=0.01, epochs=4, milestones=(2, 3), batch_size=32,
                       seed=args.seed),
    )
    calib = calibration_batch(dataset, 64, args.seed)
    _, captured = forward(net, calib, capture={args.layer})
    sub = extract_subnetwork(net, args.layer)

    ctx = EvaluationContext.build(sub, captured[args.layer])
    fronts = {}
    for mode in ("optimized", "fixed_one"):
        cfg = EvolutionConfig(
            population_size=60, elite_size=20, generations=args.generations,
            seed=11, alpha_mode=mode,
        )
        res = evolve_subnetwork(ctx, cfg)
        fronts[mode] = {ind.retained: ind.objectives.error for ind in res.front}

    counts = sorted(set(fronts["optimized"]) | set(fronts["fixed_one"]))
    print(f"layer {args.layer}: reconstruction error by retained filter count")
    print(f"{'kept':>6} {'compensated':>14} {'fixed scale':>14}")
    def cell(value):
        return f"{value:>14.6g}" if value is not None else f"{'-':>14}"

    for k in counts:
        opt = fronts["optimized"].get(k)
        fix = fronts["fixed_one"].get(k)
        print(f"{k:>6} {cell(opt)} {cell(fix)}")


if __name__ == "__main__":
    main()
