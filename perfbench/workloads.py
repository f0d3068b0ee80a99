"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every workload is a closed loop with one client: one process runs one
episode at a time and starts the next only when the previous one finished.
The workload seed is the only source of randomness; the program receives
only the configurations and files derived from it. See README.md for why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re

import numpy as np

# Episode index used by the warm-up in set-up, outside any timed range.
WARMUP_INDEX = 10**6


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Result of one operation after its outputs were checked."""

    ok: bool  # finished without divergence or error, and every output check passed
    valid: bool  # outputs were well-formed; an invalid output makes the run incorrect
    error: str | None = None
    gain: float | None = None  # adapted minus baseline query accuracy, as a fraction
    separation: float | None = None  # mean clean omega minus mean noisy omega
    fingerprint: str = ""  # digest of the operation's outputs, for determinism checks


def failure(error: str, valid: bool = True) -> Outcome:
    return Outcome(ok=False, valid=valid, error=error)


def _accuracy_ok(*values) -> bool:
    return all(v is not None and 0.0 <= v <= 1.0 for v in values)


class SyntheticCells:
    """Seeded synthetic episodes run through ``deta.harness.run_episode``.

    Operation i runs episode i // len(cells) of cell i % len(cells), so one
    round visits every cell once and ablation cells share their episodes,
    as in the harness's own sweeps.
    """

    def __init__(self, name: str, cells, quality_episodes: int):
        self.name = name
        self._cells = cells  # (BenchmarkConfig keyword args, ablation, ratios, ratio index)
        self.round_size = len(cells)
        self.quality_episodes = quality_episodes

    def setup(self, mods, seed: int, workdir) -> None:
        self._harness = mods.harness
        self._cfgs = []
        for kwargs, ablation, ratios, ratio_index in self._cells:
            cfg = mods.harness.BenchmarkConfig(
                noise_ratios=ratios,
                ablation=mods.harness.ABLATION_PRESETS[ablation],
                master_seed=seed,
                **kwargs,
            )
            self._cfgs.append((cfg, ratios[ratio_index], ratio_index))

    def op(self, i: int):
        cfg, ratio, ratio_index = self._cfgs[i % self.round_size]
        return self._harness.run_episode(cfg, ratio, ratio_index, i // self.round_size)

    def check(self, i: int, report) -> Outcome:
        fingerprint = hashlib.sha256(
            json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
        ).hexdigest()
        if report.failed:
            return Outcome(ok=False, valid=True, error=report.error, fingerprint=fingerprint)
        if not _accuracy_ok(report.baseline_accuracy, report.deta_accuracy):
            return Outcome(ok=False, valid=False, error="accuracy outside [0, 1]",
                           fingerprint=fingerprint)
        cfg = self._cfgs[i % self.round_size][0]
        # Without relevance weighting every omega is 1, so separation is 0 by construction.
        separation = report.omega_separation if cfg.ablation.cora else None
        return Outcome(
            ok=True,
            valid=True,
            gain=report.deta_accuracy - report.baseline_accuracy,
            separation=separation,
            fingerprint=fingerprint,
        )


ACCEPTANCE = {"way": 5, "shot": 10, "k_regions": 2, "feature_dim": 64, "query_shot": 15,
              "noise_type": "label"}
SWEEP = (0.1, 0.3, 0.5, 0.7)


def acceptance_mix() -> SyntheticCells:
    cells = [(ACCEPTANCE, "full", SWEEP, j) for j in range(len(SWEEP))]
    cells += [(ACCEPTANCE, name, (0.3,), 0) for name in ("no-cora", "no-local", "no-global", "no-ma")]
    return SyntheticCells("acceptance-mix", cells, quality_episodes=12 * len(cells))


def wide_image() -> SyntheticCells:
    shape = {"way": 10, "shot": 10, "k_regions": 4, "feature_dim": 128, "query_shot": 15,
             "noise_type": "image"}
    return SyntheticCells("wide-image", [(shape, "full", (0.3,), 0)], quality_episodes=15)


_ACCURACY_LINE = re.compile(r"query accuracy: ([0-9.]+) \(baseline ([0-9.]+)\)")


class FileRoundtrip:
    """``deta adapt`` then ``deta weights`` on one seeded episode file, in-process."""

    name = "file-roundtrip"
    files = 8
    round_size = 1
    quality_episodes = files  # each file once
    way, shot, stored_regions, dim, query_shot, label_noise = 5, 10, 8, 64, 200, 0.3
    iterations, k_regions = 40, 2  # the CLI defaults

    def __init__(self):
        self._tags = {}  # file seed -> noise tags; the same for every set-up of a run

    def setup(self, mods, seed: int, workdir) -> None:
        self._cli = mods.cli
        self._episodes = mods.episodes
        self._state = workdir / "state.json"
        self._weights = workdir / "weights.csv"
        seeds = np.random.SeedSequence(seed).generate_state(self.files, dtype=np.uint32)
        self._files = []
        for f, file_seed in enumerate(int(s) for s in seeds):
            path = workdir / f"episode-{f}.json"
            argv = ["gen", "--way", str(self.way), "--shot", str(self.shot),
                    "--k-regions", str(self.stored_regions), "--dim", str(self.dim),
                    "--query-shot", str(self.query_shot), "--label-noise", str(self.label_noise),
                    "--seed", str(file_seed), "--out", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = mods.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"deta gen exited with {code}")
            self._files.append((str(path), file_seed))

    def _noise_tags(self, file_seed: int) -> dict:
        """Noise tag of each support sample of a file, outside any timed range.

        The file drops the tags, so the episode is generated again from its
        seed; the result is kept for later checks of the same file.
        """
        if file_seed not in self._tags:
            episode = self._episodes.generate_synthetic_episode(
                self.way, self.shot, self.stored_regions, self.dim,
                self._episodes.SyntheticNoiseConfig(label_noise_ratio=self.label_noise),
                file_seed, query_shot=self.query_shot,
            )
            self._tags[file_seed] = episode.noise_tags()
        return self._tags[file_seed]

    def op(self, i: int):
        path, seed = self._files[i % self.files]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            adapt = self._cli.main(["adapt", "--episode", path, "--out", str(self._state),
                                    "--seed", str(seed)])
            weights = self._cli.main(["weights", "--episode", path, "--out", str(self._weights),
                                      "--seed", str(seed)])
        return adapt, weights, out.getvalue()

    def check(self, i: int, raw) -> Outcome:
        adapt, weights, text = raw
        if adapt != 0 or weights != 0:
            return failure(f"exit codes adapt={adapt} weights={weights}")
        state_bytes = self._state.read_bytes()
        csv_bytes = self._weights.read_bytes()
        fingerprint = hashlib.sha256(text.encode() + state_bytes + csv_bytes).hexdigest()

        def invalid(error: str) -> Outcome:
            return Outcome(ok=False, valid=False, error=error, fingerprint=fingerprint)

        match = _ACCURACY_LINE.search(text)
        if match is None:
            return invalid("adapt printed no query accuracy")
        accuracy, baseline = float(match.group(1)), float(match.group(2))
        if not _accuracy_ok(accuracy, baseline):
            return invalid("accuracy outside [0, 1]")
        try:
            state = json.loads(state_bytes)
        except ValueError as exc:
            return invalid(f"state JSON does not parse: {exc}")
        tags = self._noise_tags(self._files[i % self.files][1])
        omega = {int(k): v for k, v in state.get("final_image_weights", {}).items()}
        if state.get("iterations") != self.iterations or sorted(omega) != sorted(tags):
            return invalid("state JSON has the wrong iterations or samples")
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        expected_rows = self.iterations * self.way * self.shot * self.k_regions
        if len(rows) != 1 + expected_rows:
            return invalid(f"weights CSV has {len(rows) - 1} rows, expected {expected_rows}")
        for row in rows[1:]:
            lam, om = float(row[5]), float(row[6])
            if not (math.isfinite(lam) and math.isfinite(om) and lam > 0.0 and om > 0.0):
                return invalid(f"weights CSV row {row} has a bad lambda or omega")
        clean = [omega[s] for s, tag in tags.items() if tag == "clean"]
        noisy = [omega[s] for s, tag in tags.items() if tag != "clean"]
        return Outcome(
            ok=True,
            valid=True,
            gain=accuracy - baseline,
            separation=float(np.mean(clean) - np.mean(noisy)),
            fingerprint=fingerprint,
        )


WORKLOADS = {
    "acceptance-mix": acceptance_mix,
    "wide-image": wide_image,
    "file-roundtrip": FileRoundtrip,
}
