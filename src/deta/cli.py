"""Command-line interface: benchmark sweeps, single-episode adaptation, weight dumps.

Exit codes: 0 on success, 2 for configuration or input errors (including files
that cannot be read or written), 3 when every episode of some benchmark cell
diverged (or a single adaptation run did).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from .adaptation import AdaptationConfig, adapt_task
from .classifier import evaluate, plain_ncc_accuracy
from .episodes import (
    SyntheticNoiseConfig,
    generate_synthetic_episode,
    load_episode_file,
    save_episode_file,
)
from .errors import DetaError, DivergenceError
from .harness import (
    ABLATION_PRESETS,
    NOISE_TYPES,
    AggregateReport,
    BenchmarkConfig,
    emit_report,
    run_benchmark,
)
from .losses import LossHyperparams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _ratio_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratio list {text!r}") from exc


def _preset_list(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    unknown = [name for name in names if name not in ABLATION_PRESETS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown ablation preset(s) {unknown}; choose from {sorted(ABLATION_PRESETS)}"
        )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"repeated ablation preset in {text!r}")
    return names


def _add_adaptation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--k-regions", type=int, default=2)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--pi", type=float, default=0.07)
    p.add_argument("--gamma", type=float, default=0.7, help="image-weight momentum")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--embed-dim", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)


def _adaptation_config(args, record_trace: bool = False) -> AdaptationConfig:
    return AdaptationConfig(
        iterations=args.iterations,
        learning_rate=args.lr,
        k_regions=args.k_regions,
        momentum=args.gamma,
        hp=LossHyperparams(tau=args.tau, pi=args.pi, beta=args.beta),
        seed=args.seed,
        embed_dim=args.embed_dim,
        jitter=args.jitter,
        record_weight_trace=record_trace,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a noise-sweep benchmark over seeded episodes")
    bench.add_argument("--way", type=int, default=5)
    bench.add_argument("--shot", type=int, default=10)
    bench.add_argument("--dim", type=int, default=64)
    bench.add_argument("--query-shot", type=int, default=15)
    bench.add_argument("--noise-type", choices=NOISE_TYPES, default="label")
    bench.add_argument("--noise-ratios", type=_ratio_list, default=(0.1, 0.3, 0.5, 0.7))
    bench.add_argument("--episodes", type=int, default=100)
    bench.add_argument(
        "--ablation",
        type=_preset_list,
        default=("full",),
        help="comma-separated presets, run in order on the same episodes: "
        + ", ".join(sorted(ABLATION_PRESETS)),
    )
    bench.add_argument("--class-separation", type=float, default=3.0)
    bench.add_argument("--distractor-mix", type=float, default=0.5)
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_adaptation_flags(bench)

    adapt = sub.add_parser("adapt", help="adapt a single episode loaded from a JSON file")
    adapt.add_argument("--episode", required=True)
    adapt.add_argument("--out", required=True)
    _add_adaptation_flags(adapt)

    weights = sub.add_parser("weights", help="dump the per-iteration region/image weight trace")
    weights.add_argument("--episode", required=True)
    weights.add_argument("--out", required=True)
    _add_adaptation_flags(weights)

    gen = sub.add_parser("gen", help="generate a synthetic episode file")
    gen.add_argument("--way", type=int, default=5)
    gen.add_argument("--shot", type=int, default=10)
    gen.add_argument("--k-regions", type=int, default=2)
    gen.add_argument("--dim", type=int, default=64)
    gen.add_argument("--query-shot", type=int, default=15)
    gen.add_argument("--label-noise", type=float, default=0.0)
    gen.add_argument("--image-noise", type=float, default=0.0)
    gen.add_argument("--distractor-mix", type=float, default=0.5)
    gen.add_argument("--class-separation", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)
    return parser


def _cmd_bench(args) -> int:
    cfg = BenchmarkConfig(
        way=args.way,
        shot=args.shot,
        k_regions=args.k_regions,
        feature_dim=args.dim,
        query_shot=args.query_shot,
        noise_type=args.noise_type,
        noise_ratios=args.noise_ratios,
        episodes_per_cell=args.episodes,
        adaptation=_adaptation_config(args),
        distractor_mix=args.distractor_mix,
        class_separation=args.class_separation,
        master_seed=args.seed,
    )
    # Episode seeds never depend on the ablation, so every preset runs the same episodes.
    runs = [run_benchmark(replace(cfg, ablation=ABLATION_PRESETS[name])) for name in args.ablation]
    report = AggregateReport(
        master_seed=cfg.master_seed,
        ablation_mask=",".join(run.ablation_mask for run in runs),
        cells=[cell for run in runs for cell in run.cells],
        episodes=[episode for run in runs for episode in run.episodes],
    )
    emit_report(report, args.format, args.out)
    for cell in report.cells:
        print(
            f"{cell.cell_id}: baseline={_show(cell.baseline_mean)} "
            f"deta={_show(cell.deta_mean)} delta={_show(cell.delta_mean)} "
            f"({cell.n_episodes} ok, {cell.n_failed} failed)"
        )
    if any(cell.n_episodes == 0 for cell in report.cells):
        print("error: at least one cell had no surviving episodes", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _show(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _load_and_adapt(args, record_trace: bool = False):
    episode = load_episode_file(args.episode)
    return episode, adapt_task(episode, _adaptation_config(args, record_trace))


def _cmd_adapt(args) -> int:
    episode, state = _load_and_adapt(args)
    state.save_json(args.out)
    accuracy = evaluate(episode, state) if episode.queries else None
    baseline = plain_ncc_accuracy(episode) if episode.queries else None
    print(f"adapted {args.iterations} iterations; state written to {args.out}")
    if accuracy is not None:
        print(f"query accuracy: {accuracy:.4f} (baseline {baseline:.4f})")
    return EXIT_OK


def _cmd_weights(args) -> int:
    _, state = _load_and_adapt(args, record_trace=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "sample_id", "region_slot", "phi", "psi", "lambda", "omega"])
        for row in state.weight_trace or []:
            writer.writerow(
                [
                    row["iteration"],
                    row["sample_id"],
                    row["region_slot"],
                    repr(row["phi"]),
                    repr(row["psi"]),
                    repr(row["lambda"]),
                    repr(row["omega"]),
                ]
            )
    print(f"weight trace written to {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    cfg = SyntheticNoiseConfig(
        label_noise_ratio=args.label_noise,
        image_noise_ratio=args.image_noise,
        distractor_mix=args.distractor_mix,
        class_separation=args.class_separation,
    )
    episode = generate_synthetic_episode(
        args.way, args.shot, args.k_regions, args.dim, cfg, args.seed, query_shot=args.query_shot
    )
    save_episode_file(episode, args.out)
    print(f"episode with {episode.n_support} support samples written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bench": _cmd_bench,
        "adapt": _cmd_adapt,
        "weights": _cmd_weights,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except DivergenceError as exc:
        print(f"error: diverged at iteration {exc.iteration}: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
