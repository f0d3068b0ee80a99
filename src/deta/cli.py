"""Command-line interface: benchmark sweeps, single-episode adaptation, weight dumps.

Exit codes: 0 on success, 2 for configuration or input errors (including files
that cannot be read or written), 3 when every episode of some benchmark cell
diverged (or a single adaptation run did).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .adaptation import AdaptationConfig, adapt_task
from .classifier import adapted_features, evaluate, plain_ncc_accuracy
from .episodes import (
    SyntheticNoiseConfig,
    generate_synthetic_episode,
    load_episode_file,
    save_episode_file,
)
from .errors import DetaError, DivergenceError, InvalidParameterError
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


def _add_adaptation_flags(p: argparse.ArgumentParser, jitter: bool) -> None:
    a, hp = AdaptationConfig, LossHyperparams
    p.add_argument("--iterations", type=int, default=a.iterations)
    p.add_argument("--k-regions", type=int, default=a.k_regions)
    p.add_argument("--beta", type=float, default=hp.beta)
    p.add_argument("--tau", type=float, default=hp.tau)
    p.add_argument("--pi", type=float, default=hp.pi)
    p.add_argument("--gamma", type=float, default=a.momentum, help="image-weight momentum")
    p.add_argument("--lr", type=float, default=a.learning_rate)
    if jitter:  # only loaded episodes are jittered, and bench generates synthetic ones
        p.add_argument("--jitter", type=float, default=a.jitter)
    p.add_argument("--embed-dim", type=int, default=a.embed_dim)
    p.add_argument("--seed", type=int, default=7)


def _adaptation_config(args) -> AdaptationConfig:
    return AdaptationConfig(
        iterations=args.iterations,
        learning_rate=args.lr,
        k_regions=args.k_regions,
        momentum=args.gamma,
        hp=LossHyperparams(tau=args.tau, pi=args.pi, beta=args.beta),
        seed=args.seed,
        embed_dim=args.embed_dim,
        jitter=getattr(args, "jitter", AdaptationConfig.jitter),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    b, noise = BenchmarkConfig, SyntheticNoiseConfig

    bench = sub.add_parser("bench", help="run a noise-sweep benchmark over seeded episodes")
    bench.add_argument("--way", type=int, default=b.way)
    bench.add_argument("--shot", type=int, default=b.shot)
    bench.add_argument("--dim", type=int, default=b.feature_dim)
    bench.add_argument("--query-shot", type=int, default=b.query_shot)
    bench.add_argument("--noise-type", choices=NOISE_TYPES, default=b.noise_type)
    bench.add_argument("--noise-ratios", type=_ratio_list, default=b.noise_ratios)
    bench.add_argument("--episodes", type=int, default=b.episodes_per_cell)
    bench.add_argument(
        "--ablation",
        type=_preset_list,
        default=("full",),
        help="comma-separated presets, run in order on the same episodes: "
        + ", ".join(sorted(ABLATION_PRESETS)),
    )
    bench.add_argument("--class-separation", type=float, default=b.class_separation)
    bench.add_argument("--distractor-mix", type=float, default=b.distractor_mix)
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_adaptation_flags(bench, jitter=False)

    adapt = sub.add_parser("adapt", help="adapt a single episode loaded from a JSON file")
    adapt.add_argument("--episode", required=True)
    adapt.add_argument("--out", required=True)
    _add_adaptation_flags(adapt, jitter=True)

    weights = sub.add_parser("weights", help="dump the per-iteration region/image weight trace")
    weights.add_argument("--episode", required=True)
    weights.add_argument("--out", required=True)
    _add_adaptation_flags(weights, jitter=True)

    gen = sub.add_parser("gen", help="generate a synthetic episode file")
    gen.add_argument("--way", type=int, default=b.way)
    gen.add_argument("--shot", type=int, default=b.shot)
    gen.add_argument("--k-regions", type=int, default=b.k_regions)
    gen.add_argument("--dim", type=int, default=b.feature_dim)
    gen.add_argument("--query-shot", type=int, default=b.query_shot)
    gen.add_argument("--label-noise", type=float, default=noise.label_noise_ratio)
    gen.add_argument("--image-noise", type=float, default=noise.image_noise_ratio)
    gen.add_argument("--distractor-mix", type=float, default=noise.distractor_mix)
    gen.add_argument("--class-separation", type=float, default=noise.class_separation)
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


def _load_and_adapt(args):
    episode = load_episode_file(args.episode)
    state = adapt_task(episode, _adaptation_config(args))
    adapted_features(state, episode.support_features)  # raises if the last update blew up
    return episode, state


def _cmd_adapt(args) -> int:
    episode, state = _load_and_adapt(args)
    accuracy = evaluate(episode, state) if episode.query_labels.size else None
    baseline = plain_ncc_accuracy(episode) if episode.query_labels.size else None
    state.save_json(args.out)
    print(f"adapted {args.iterations} iterations; state written to {args.out}")
    if accuracy is not None:
        print(f"query accuracy: {accuracy:.4f} (baseline {baseline:.4f})")
    return EXIT_OK


def _cmd_weights(args) -> int:
    _, state = _load_and_adapt(args)
    k, ids = args.k_regions, state.sample_ids
    order = sorted(range(len(ids) * k), key=lambda row: ids[row // k])  # by sample id, then slot
    lines = ["iteration,sample_id,region_slot,phi,psi,lambda,omega\n"]
    for t, record in enumerate(state.trace, start=1):
        table = record.table
        columns = (table.per_class_phi, table.per_class_psi, table.weights, record.image_weights)
        phi, psi, lam, om = (c.tolist() for c in columns)
        # Integers and float reprs never need CSV quoting, so these are csv.writer's bytes.
        lines.extend(
            f"{t},{ids[r // k]},{r % k},{phi[r]!r},{psi[r]!r},{lam[r]!r},{om[r // k]!r}\n" for r in order
        )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
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


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written as a file, before any work is done."""
    out = Path(path).absolute()
    if out.is_dir():
        raise InvalidParameterError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise InvalidParameterError(f"--out {path}: {out.parent} is not an existing directory")


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
        _check_out(args.out)
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
