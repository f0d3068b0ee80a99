"""Command-line interface: benchmark sweeps, single-episode adaptation, weight dumps.

Exit codes: 0 on success, 2 for configuration or input errors (including files
that cannot be read or written), 3 when every episode of some benchmark cell
failed: it diverged, or its labels could not be corrupted without emptying a
class (or a single adaptation run diverged).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

from .adaptation import AdaptationConfig, adapt_task
from .classifier import adapted_features, evaluate, plain_ncc_accuracy
from .episodes import (
    SyntheticNoiseConfig,
    generate_synthetic_episode,
    load_episode_file,
    output_target,
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


def _add_adaptation_flags(p: argparse.ArgumentParser) -> None:
    a, hp = AdaptationConfig, LossHyperparams
    p.add_argument("--iterations", type=int, default=a.iterations)
    p.add_argument("--k-regions", type=int, default=a.k_regions)
    p.add_argument("--beta", type=float, default=hp.beta)
    p.add_argument("--tau", type=float, default=hp.tau)
    p.add_argument("--pi", type=float, default=hp.pi)
    p.add_argument("--gamma", type=float, default=a.momentum, help="image-weight momentum")
    p.add_argument("--lr", type=float, default=a.learning_rate)
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
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_adaptation_flags(bench)

    for name, help_text in (
        ("adapt", "adapt a single episode loaded from a JSON file"),
        ("weights", "dump the per-iteration region/image weight trace"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--episode", required=True)
        p.add_argument("--out", required=True)
        _add_adaptation_flags(p)
        # Only loaded episodes are jittered, and bench generates synthetic ones.
        p.add_argument("--jitter", type=float, default=AdaptationConfig.jitter)

    gen = sub.add_parser("gen", help="generate a synthetic episode file")
    gen.add_argument("--way", type=int, default=b.way)
    gen.add_argument("--shot", type=int, default=b.shot)
    gen.add_argument("--k-regions", type=int, default=b.k_regions)
    gen.add_argument("--dim", type=int, default=b.feature_dim)
    gen.add_argument("--query-shot", type=int, default=b.query_shot)
    gen.add_argument("--label-noise", type=float, default=noise.label_noise_ratio)
    gen.add_argument("--image-noise", type=float, default=noise.image_noise_ratio)
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


def _cmd_adapt(args) -> int:
    """Both adapt and weights: load, adapt, then write the state or the weight trace."""
    episode = load_episode_file(args.episode)
    state = adapt_task(episode, _adaptation_config(args))
    adapted_features(state, episode.support_features)  # raises if the last update blew up
    if args.command == "weights":
        state.save_weights_csv(args.out)
        print(f"weight trace written to {args.out}")
        return EXIT_OK
    accuracy = evaluate(episode, state) if episode.query_labels.size else None
    baseline = plain_ncc_accuracy(episode) if episode.query_labels.size else None
    state.save_json(args.out)
    print(f"adapted {args.iterations} iterations; state written to {args.out}")
    if accuracy is not None:
        print(f"query accuracy: {accuracy:.4f} (baseline {baseline:.4f})")
    return EXIT_OK


def _cmd_gen(args) -> int:
    cfg = SyntheticNoiseConfig(label_noise_ratio=args.label_noise, image_noise_ratio=args.image_noise)
    episode = generate_synthetic_episode(
        args.way, args.shot, args.k_regions, args.dim, cfg, args.seed, query_shot=args.query_shot
    )
    save_episode_file(episode, args.out)
    print(f"episode with {episode.n_support} support samples written to {args.out}")
    return EXIT_OK


def _check_out(args) -> None:
    """Refuse, before any work, an --out that names no file or cannot be written, or that is
    the file stdout or stderr goes to, or the --episode."""
    path, episode = args.out, getattr(args, "episode", None)
    if os.path.isdir(path):
        raise InvalidParameterError(f"--out {path} is a directory")
    if os.path.basename(path) == "":  # "" or "x/", which realpath turns into the working directory or "x"
        raise InvalidParameterError(f"--out {path!r} names no file")
    target = output_target(path)  # None for a FIFO or a device, which is written in place
    if target is not None:
        parent = target.parent  # where write_output makes its temporary file
        try:
            tempfile.TemporaryFile(dir=parent).close()
        except OSError as exc:
            raise InvalidParameterError(f"--out {path}: {parent} takes no new file: {exc.strerror}") from exc
        for name, stream in (("stdout", sys.stdout), ("stderr", sys.stderr)):
            try:  # no such file yet, or the stream has no descriptor (a StringIO): not its file
                is_stream = os.path.samestat(os.stat(target), os.fstat(stream.fileno()))
            except (OSError, ValueError):
                is_stream = False
            if is_stream:  # replacing it would lose what the command prints
                raise InvalidParameterError(f"--out {path} is the file {name} is redirected to")
    # Only existing files are compared: load_episode_file reports a missing --episode.
    if episode and os.path.exists(path) and os.path.exists(episode) and os.path.samefile(path, episode):
        raise InvalidParameterError(f"--out {path} is the --episode file {episode}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bench": _cmd_bench,
        "adapt": _cmd_adapt,
        "weights": _cmd_adapt,
        "gen": _cmd_gen,
    }
    try:
        _check_out(args)
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
