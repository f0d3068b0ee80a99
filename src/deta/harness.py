"""Benchmark driver: noise sweeps over seeded episodes, paired against a baseline.

Every cell of the sweep (one noise ratio) runs a fixed set of seeded
episodes; each episode is scored by the plain nearest-centroid baseline and
by the configured adaptation variant, so the reported delta is paired.
Episode seeds derive from the master seed and the cell's noise coordinates
only, never from the ablation flags, which keeps the baseline column and the
episode set identical across ablation variants.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .adaptation import AblationFlags, AdaptationConfig, adapt_task, by_sample_id
from .classifier import evaluate, plain_ncc_accuracy
from .episodes import (
    NOISE_CLEAN,
    SyntheticNoiseConfig,
    generate_synthetic_episode,
    write_output,
)
from .errors import DivergenceError, InvalidParameterError

NOISE_TYPES = ("none", "label", "image")


ABLATION_PRESETS: dict[str, AblationFlags] = {
    "full": AblationFlags(),
    "no-cora": AblationFlags(cora=False),
    "no-local": AblationFlags(local_loss=False),
    "no-global": AblationFlags(global_loss=False),
    "no-ma": AblationFlags(accumulator=False),
    "off": AblationFlags(False, False, False, False),
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: episode shape, noise sweep, ablation, adaptation knobs.

    run_episode overrides adaptation.k_regions, adaptation.seed and
    adaptation.ablation per episode with k_regions, the episode seed and
    ablation. Its episodes use the generator's fixed DISTRACTOR_MIX and
    CLASS_SEPARATION; only the noise ratio varies between cells.
    """

    way: int = 5
    shot: int = 10
    k_regions: int = 2
    feature_dim: int = 64
    query_shot: int = 15
    noise_type: str = "label"
    noise_ratios: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)
    episodes_per_cell: int = 100
    ablation: AblationFlags = field(default_factory=AblationFlags)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    master_seed: int = 7

    def __post_init__(self):
        if self.noise_type not in NOISE_TYPES:
            raise InvalidParameterError(f"noise_type must be one of {NOISE_TYPES}")
        if self.episodes_per_cell < 1:
            raise InvalidParameterError("episodes_per_cell must be >= 1")
        if any(not 0.0 <= r <= 1.0 for r in self.noise_ratios):
            raise InvalidParameterError("noise ratios must lie in [0, 1]")
        if not self.noise_ratios:
            raise InvalidParameterError("at least one noise ratio is required")
        if len(set(self.noise_ratios)) != len(self.noise_ratios):
            raise InvalidParameterError(f"repeated noise ratio in {self.noise_ratios}")
        if self.master_seed < 0:
            raise InvalidParameterError("master_seed must be non-negative")
        if self.way < 2 or self.shot < 1 or self.k_regions < 1 or self.feature_dim < 2:
            raise InvalidParameterError("invalid episode shape")
        if self.query_shot < 1:
            raise InvalidParameterError(f"query_shot must be >= 1, got {self.query_shot}")


@dataclass
class EpisodeReport:
    """Outcome of one episode under baseline and the configured variant."""

    cell_id: str
    seed: int
    noise_type: str
    noise_ratio: float
    baseline_accuracy: float | None = None
    deta_accuracy: float | None = None
    omega: dict[str, float] = field(default_factory=dict)
    noise_tags: dict[str, str] = field(default_factory=dict)
    omega_separation: float | None = None
    loss_first: float | None = None
    loss_final: float | None = None
    failed: bool = False
    error: str | None = None


@dataclass
class CellAggregate:
    cell_id: str
    noise_type: str
    noise_ratio: float
    ablation_mask: str
    n_episodes: int
    n_failed: int
    baseline_mean: float | None
    baseline_ci95: float | None
    deta_mean: float | None
    deta_ci95: float | None
    delta_mean: float | None
    omega_separation: float | None
    omega_separation_positive_fraction: float | None


@dataclass
class AggregateReport:
    master_seed: int
    ablation_mask: str
    cells: list[CellAggregate]
    episodes: list[EpisodeReport]


def _episode_seed(master: int, noise_type: str, ratio_index: int, episode_index: int) -> int:
    code = NOISE_TYPES.index(noise_type)
    ss = np.random.SeedSequence([master, code, ratio_index, episode_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return mean, half


def _separation(omega: np.ndarray, noise: np.ndarray) -> float | None:
    """Mean image weight of clean samples minus that of noisy ones; both arrays in support order."""
    clean = noise == NOISE_CLEAN
    if clean.all() or not clean.any():
        return None
    return float(np.mean(omega[clean]) - np.mean(omega[~clean]))


def run_episode(cfg: BenchmarkConfig, ratio: float, ratio_index: int, index: int) -> EpisodeReport:
    """Generate, score and adapt one seeded episode of a benchmark cell."""
    ratio_eff = 0.0 if cfg.noise_type == "none" else ratio
    seed = _episode_seed(cfg.master_seed, cfg.noise_type, ratio_index, index)
    noise = SyntheticNoiseConfig(
        label_noise_ratio=ratio_eff if cfg.noise_type == "label" else 0.0,
        image_noise_ratio=ratio_eff if cfg.noise_type == "image" else 0.0,
    )
    cell_id = f"{cfg.noise_type}-{ratio_eff:g}-{cfg.ablation.mask()}"
    report = EpisodeReport(cell_id=cell_id, seed=seed, noise_type=cfg.noise_type, noise_ratio=ratio_eff)
    try:  # BenchmarkConfig checked the rest: only labels that cannot all be corrupted are refused
        episode = generate_synthetic_episode(
            cfg.way, cfg.shot, cfg.k_regions, cfg.feature_dim, noise, seed, query_shot=cfg.query_shot
        )
    except InvalidParameterError as exc:
        report.failed = True
        report.error = str(exc)
        return report
    report.noise_tags = by_sample_id(episode.sample_ids.tolist(), episode.noise)
    report.baseline_accuracy = plain_ncc_accuracy(episode)

    adapt_cfg = replace(cfg.adaptation, k_regions=cfg.k_regions, seed=seed, ablation=cfg.ablation)
    try:
        state = adapt_task(episode, adapt_cfg)
        report.deta_accuracy = evaluate(episode, state)
    except DivergenceError as exc:
        report.failed = True
        report.error = f"diverged at iteration {exc.iteration}: {exc}"
        return report
    report.omega = by_sample_id(state.sample_ids, state.final_image_weights)
    report.omega_separation = _separation(state.final_image_weights, episode.noise)
    report.loss_first = state.trace[0].combined
    report.loss_final = state.trace[-1].combined
    return report


def run_benchmark(cfg: BenchmarkConfig) -> AggregateReport:
    """Run every cell of the sweep and aggregate paired accuracies.

    Episodes that diverge, or whose labels cannot be corrupted without
    emptying a class, are kept in the per-episode list, counted per cell
    and excluded from the means. Episode seeds are keyed on a ratio's
    position in noise_ratios, not on its value: the 0.3 cell of (0.3,) and
    the 0.3 cell of (0.1, 0.3) run different episodes. Runs that differ only
    in the ablation always share episodes.
    """
    ratios = (0.0,) if cfg.noise_type == "none" else tuple(cfg.noise_ratios)
    cells: list[CellAggregate] = []
    episodes: list[EpisodeReport] = []
    for ratio_index, ratio in enumerate(ratios):
        reports = [
            run_episode(cfg, ratio, ratio_index, i) for i in range(cfg.episodes_per_cell)
        ]
        episodes.extend(reports)
        ok = [r for r in reports if not r.failed]
        base_mean, base_ci = _mean_ci([r.baseline_accuracy for r in ok])
        deta_mean, deta_ci = _mean_ci([r.deta_accuracy for r in ok])
        delta_mean, _ = _mean_ci([r.deta_accuracy - r.baseline_accuracy for r in ok])
        seps = [r.omega_separation for r in ok if r.omega_separation is not None]
        sep_mean = float(np.mean(seps)) if seps else None
        sep_pos = float(np.mean([s > 0.0 for s in seps])) if seps else None
        cells.append(
            CellAggregate(
                cell_id=reports[0].cell_id,
                noise_type=cfg.noise_type,
                noise_ratio=ratio,
                ablation_mask=cfg.ablation.mask(),
                n_episodes=len(ok),
                n_failed=len(reports) - len(ok),
                baseline_mean=base_mean,
                baseline_ci95=base_ci,
                deta_mean=deta_mean,
                deta_ci95=deta_ci,
                delta_mean=delta_mean,
                omega_separation=sep_mean,
                omega_separation_positive_fraction=sep_pos,
            )
        )
    return AggregateReport(
        master_seed=cfg.master_seed,
        ablation_mask=cfg.ablation.mask(),
        cells=cells,
        episodes=episodes,
    )


def emit_report(report: AggregateReport, fmt: str, path) -> None:
    """Write the aggregate as CSV (one row per cell, the CellAggregate fields) or JSON (full detail).

    The CSV writes None as an empty field and a float as its repr. Its ints,
    floats and identifiers never need quoting, so these are csv.writer's bytes.
    """
    if fmt == "csv":
        rows = [[f.name for f in fields(CellAggregate)], *map(astuple, report.cells)]
        text = "".join(",".join("" if v is None else str(v) for v in row) + "\n" for row in rows)
    elif fmt == "json":
        text = json.dumps(asdict(report), indent=2) + "\n"
    else:
        raise InvalidParameterError(f"unknown report format {fmt!r}")
    write_output(path, text.encode())
