"""Independent reference evaluators used as test oracles.

Everything here is written with literal loops and plain python math on
purpose, so it stays structurally independent of the vectorized production
code it checks. Keep it slow and obvious.

Inputs use the production array layout: region row r belongs to the support
sample at position sample_of[r], whose class is class_of[sample_of[r]].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
import orjson

from deta.episodes import (
    CLASS_SEPARATION,
    DISTRACTOR_MIX,
    NOISE_CLEAN,
    NOISE_IMAGE,
    NOISE_LABEL,
    TaskEpisode,
    _unit_directions,
    episode_from_dict,
)
from deta.errors import InvalidParameterError, ParseError, SchemaError
from deta.harness import AggregateReport, CellAggregate, EpisodeReport
from deta.losses import EmbeddingBatch
from deta.relevance import RegionIndex, RegionWeightTable


def _dot(a, b) -> float:
    return float(sum(float(x) * float(y) for x, y in zip(a, b)))


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


def _cos(a, b) -> float:
    return _dot(a, b) / (_norm(a) * _norm(b))


def region_rows(regions: dict[RegionIndex, np.ndarray]):
    """Regions named by RegionIndex as (keys, features, sample_of, class_of).

    Rows follow sorted key order and support positions ascending sample id.
    """
    keys = sorted(regions)
    ids = sorted({k.sample_id for k in keys})
    position = {sid: p for p, sid in enumerate(ids)}
    class_of = np.zeros(len(ids), dtype=int)
    for k in keys:
        class_of[position[k.sample_id]] = k.class_id
    sample_of = np.array([position[k.sample_id] for k in keys])
    return keys, np.stack([regions[k] for k in keys]), sample_of, class_of


def brute_region_weights(features, sample_of, class_of) -> dict[str, list[float]]:
    """Literal-loop evaluation of the contrastive relevance weights, per region row."""
    rows = range(len(features))
    cls = [int(class_of[sample_of[r]]) for r in rows]
    phi: list[float] = []
    psi: list[float] = []
    for r in rows:
        in_set = [o for o in rows if cls[o] == cls[r] and sample_of[o] != sample_of[r]]
        out_set = [o for o in rows if cls[o] != cls[r]]
        if in_set:
            phi.append(sum(_cos(features[r], features[o]) for o in in_set) / len(in_set))
        else:
            phi.append(0.0)
        psi.append(sum(_cos(features[r], features[o]) for o in out_set) / len(out_set))

    phi_t = [0.0] * len(phi)
    psi_t = [0.0] * len(psi)
    lam = [0.0] * len(phi)
    for cid in sorted(set(cls)):
        members = [r for r in rows if cls[r] == cid]
        phi_den = sum(math.exp(phi[m]) for m in members)
        psi_den = sum(math.exp(psi[m]) for m in members)
        for m in members:
            phi_t[m] = math.exp(phi[m]) / phi_den
            psi_t[m] = math.exp(psi[m]) / psi_den
            lam[m] = phi_t[m] / psi_t[m]
    return {"phi": phi, "psi": psi, "phi_norm": phi_t, "psi_norm": psi_t, "lam": lam}


def validate_weight_table(table: RegionWeightTable, atol: float = 1e-9) -> None:
    """Raise InvalidParameterError unless the table's normalized scores sum to one per
    class and its weights are positive, finite and equal to phi_norm / psi_norm."""
    region_class = table.class_of[table.sample_of]
    classes = np.unique(region_class)
    phi_sums = np.bincount(region_class, weights=table.per_class_phi)[classes]
    psi_sums = np.bincount(region_class, weights=table.per_class_psi)[classes]
    if np.any(np.abs(phi_sums - 1.0) > atol) or np.any(np.abs(psi_sums - 1.0) > atol):
        raise InvalidParameterError(f"normalized scores per class sum to {phi_sums}, {psi_sums}")
    if not np.all((table.weights > 0.0) & np.isfinite(table.weights)):
        raise InvalidParameterError("non-positive or non-finite region weight")
    ratio = table.per_class_phi / table.per_class_psi
    if np.any(np.abs(table.weights - ratio) > atol * np.maximum(1.0, np.abs(ratio))):
        raise InvalidParameterError("weights are not phi/psi")


def brute_local_loss(regions, weights, region_class, tau: float) -> float:
    """Literal double loop over ordered same-class pairs with explicit denominators."""
    rows = range(len(regions))
    class_sizes: dict[int, int] = {}
    for r in rows:
        class_sizes[int(region_class[r])] = class_sizes.get(int(region_class[r]), 0) + 1
    normalizer = sum(n * (n - 1) / 2.0 for n in class_sizes.values())
    if normalizer == 0:
        return 0.0

    total = 0.0
    for i in rows:
        for j in rows:
            if i == j or region_class[i] != region_class[j]:
                continue
            num = math.exp(weights[i] * weights[j] * _dot(regions[i], regions[j]) / tau)
            den = 0.0
            for v in rows:
                if v == i:
                    continue
                den += math.exp(weights[i] * weights[v] * _dot(regions[i], regions[v]) / tau)
            total += -math.log(num / den)
    return total / normalizer


def brute_global_loss(regions, weights, images, omega, sample_of, class_of, pi: float) -> float:
    """Literal evaluation of the prototype cross-entropy over all regions."""
    classes = sorted({int(c) for c in class_of})
    dim = len(images[0])
    protos: dict[int, list[float]] = {}
    for c in classes:
        members = [i for i in range(len(images)) if class_of[i] == c]
        acc = [0.0] * dim
        for i in members:
            for p in range(dim):
                acc[p] += omega[i] * float(images[i][p])
        protos[c] = [v / len(members) for v in acc]

    total = 0.0
    for r in range(len(regions)):
        own = int(class_of[sample_of[r]])
        sims = {c: _cos(regions[r], protos[c]) for c in classes}
        den = sum(math.exp(sims[c] / pi) for c in classes)
        p_own = math.exp(sims[own] / pi) / den
        total += -weights[r] * math.log(p_own)
    return total / len(regions)


def episode_from_samples(feature_dim, support, queries=(), seed=0):
    """The one place tests build an episode sample by sample.

    support entries are dicts with the wire-format keys id, label,
    image_feature and regions, plus optional true_label (default: label) and
    noise (default: clean); query entries have id, label and image_feature.
    """
    regions = [np.asarray(s["regions"], dtype=np.float64).reshape(-1, feature_dim) for s in support]
    return TaskEpisode(
        sample_ids=np.array([s["id"] for s in support]),
        labels=np.array([s["label"] for s in support]),
        true_labels=np.array([s.get("true_label", s["label"]) for s in support]),
        noise=np.array([s.get("noise", NOISE_CLEAN) for s in support]),
        support_features=np.array([s["image_feature"] for s in support], dtype=np.float64),
        regions=np.concatenate(regions),
        region_offsets=np.cumsum([0] + [len(r) for r in regions]),
        query_ids=np.array([q["id"] for q in queries], dtype=np.int64),
        query_labels=np.array([q["label"] for q in queries], dtype=np.int64),
        query_features=np.array(
            [q["image_feature"] for q in queries], dtype=np.float64
        ).reshape(len(queries), feature_dim),
        seed=seed,
    )


def episode_samples(episode):
    """An episode's support samples as per-sample dicts, the inverse of episode_from_samples."""
    off = episode.region_offsets
    return [
        {
            "id": int(episode.sample_ids[i]),
            "label": int(episode.labels[i]),
            "image_feature": episode.support_features[i],
            "regions": episode.regions[off[i] : off[i + 1]],
            "true_label": int(episode.true_labels[i]),
            "noise": str(episode.noise[i]),
        }
        for i in range(episode.n_support)
    ]


def same_episode(a: TaskEpisode, b: TaskEpisode) -> bool:
    """Equal content: every array, and so way and feature_dim; seed is provenance."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(TaskEpisode)
        if f.name != "seed"
    )


def episode_dict(episode) -> dict:
    """Wire-format dict of an episode, built sample by sample."""
    return {
        "version": 1,
        "feature_dim": episode.feature_dim,
        "way": episode.way,
        "support": [
            {
                "id": s["id"],
                "label": s["label"],
                "image_feature": [float(x) for x in s["image_feature"]],
                "regions": [[float(x) for x in row] for row in s["regions"]],
            }
            for s in episode_samples(episode)
        ],
        "queries": [
            {"id": int(qid), "label": int(label), "image_feature": [float(x) for x in feature]}
            for qid, label, feature in zip(
                episode.query_ids, episode.query_labels, episode.query_features
            )
        ],
    }


def episode_bytes(episode) -> bytes:
    """The bytes save_episode_file writes: orjson of the whole wire-format dict.

    orjson refuses integers beyond 64 bits, so every id must fit.
    """
    return orjson.dumps(episode_dict(episode)) + b"\n"


def stdlib_episode_bytes(episode) -> bytes:
    """The bytes save_episode_file wrote before it used orjson: json.dumps of the whole dict."""
    return (json.dumps(episode_dict(episode)) + "\n").encode("utf-8")


def stdlib_load_episode_file(path) -> TaskEpisode:
    """The episode loader on Python's json decoder alone: a text-mode read, then json.loads."""

    def reject_constant(name):
        raise SchemaError(f"non-finite JSON constant {name!r} not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return episode_from_dict(doc)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def per_sample_episode(way, shot, k, d, cfg, seed, query_shot=15):
    """generate_synthetic_episode drawn one sample at a time, in the order the
    generator used before it drew blocks: per support sample its image then its
    k regions, the image-noise loop, per query its feature, then label noise
    with one class offset per picked sample in support order."""
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(way + 1, d, rng)
    class_means, distractor_mean = dirs[:way], dirs[way]
    sigma = 1.0 / CLASS_SEPARATION
    n = way * shot
    support = []
    for c in range(way):
        for _ in range(shot):
            image = class_means[c] + sigma * rng.standard_normal(d)
            regions = class_means[c] + sigma * rng.standard_normal((k, d))
            support.append({"id": len(support), "label": c, "image_feature": image,
                            "regions": regions, "true_label": c, "noise": NOISE_CLEAN})
    for sid in rng.choice(n, size=_round_half_away(cfg.image_noise_ratio * n), replace=False):
        s = support[int(sid)]
        mix = DISTRACTOR_MIX
        n_dist = min(k, _round_half_away(mix * k))
        slots = rng.choice(k, size=n_dist, replace=False)
        s["regions"] = s["regions"].copy()
        s["regions"][slots] = distractor_mean + sigma * rng.standard_normal((n_dist, d))
        s["image_feature"] = (
            (1.0 - mix) * class_means[s["true_label"]]
            + mix * distractor_mean
            + sigma * rng.standard_normal(d)
        )
        s["noise"] = NOISE_IMAGE
    queries = []
    for c in range(way):
        for _ in range(query_shot):
            queries.append({"id": n + len(queries), "label": c,
                            "image_feature": class_means[c] + sigma * rng.standard_normal(d)})
    if cfg.label_noise_ratio > 0.0:
        label_rng = np.random.default_rng(int(rng.integers(2**63)))
        n_corrupt = _round_half_away(cfg.label_noise_ratio * n)
        for _ in range(1000):
            picked = set(int(i) for i in label_rng.choice(n, size=n_corrupt, replace=False))
            new_labels = [
                (s["true_label"] + int(label_rng.integers(1, way))) % way if pos in picked
                else s["label"]
                for pos, s in enumerate(support)
            ]
            if len(set(new_labels)) == way:
                break
        for pos in picked:
            support[pos]["label"] = new_labels[pos]
            support[pos]["noise"] = NOISE_LABEL
    return episode_from_samples(d, support, queries, seed=seed)


def per_sample_resample(episode, k: int, jitter: float, seed: int) -> np.ndarray:
    """resample_regions sample by sample, in support order.

    Unless every sample stores exactly k regions, one (n, m) block of uniform
    keys is drawn first, m the largest stored count, and each sample takes its
    stored rows at the k smallest keys among its own first count slots, in
    slot order; otherwise each sample takes all its rows. Each sample then
    adds k jitter rows.
    """
    rng = np.random.default_rng(seed)
    d = episode.feature_dim
    out = np.empty((episode.n_support, k, d))
    samples = episode_samples(episode)
    counts = [len(s["regions"]) for s in samples]
    subsample = any(count != k for count in counts)
    if subsample:
        keys = rng.random((len(samples), max(counts)))
    for pos, s in enumerate(samples):
        stored = s["regions"]
        if subsample:
            stored = stored[np.sort(np.argsort(keys[pos, : len(stored)], kind="stable")[:k])]
        out[pos] = stored
        if jitter > 0.0:
            out[pos] += jitter * rng.standard_normal((k, d))
    return out


def report_from_dict(doc: dict) -> AggregateReport:
    return AggregateReport(
        master_seed=doc["master_seed"],
        ablation_mask=doc["ablation_mask"],
        cells=[CellAggregate(**c) for c in doc["cells"]],
        episodes=[EpisodeReport(**e) for e in doc["episodes"]],
    )


def load_report_json(path) -> AggregateReport:
    with open(path, "r", encoding="utf-8") as fh:
        return report_from_dict(json.load(fh))


class OracleFailure(ArithmeticError):
    """The finite-difference oracle evaluated the target to a non-finite value."""


@dataclass(frozen=True)
class GradCheckConfig:
    """Step size and tolerances for central-difference gradient checks."""

    step: float = 1e-5
    rel_tol: float = 1e-4
    abs_tol: float = 1e-7

    def __post_init__(self):
        if self.step <= 0.0:
            raise InvalidParameterError("finite-difference step must be positive")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidParameterError("gradient-check tolerances must be positive")


def finite_difference_gradient(f, params, cfg: GradCheckConfig = GradCheckConfig()) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Evaluates (f(p + h*e_i) - f(p - h*e_i)) / (2h) per coordinate. This is
    the reference oracle for every analytic gradient in the package and must
    stay independent of the code paths it checks.
    """
    p = np.asarray(params, dtype=np.float64)
    if p.ndim != 1 or not np.all(np.isfinite(p)):
        raise InvalidParameterError(f"params must be a finite 1-D vector, got shape {p.shape}")
    h = cfg.step
    grad = np.empty_like(p)
    for i in range(p.size):
        probe = p.copy()
        probe[i] = p[i] + h
        hi = float(f(probe))
        probe[i] = p[i] - h
        lo = float(f(probe))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise OracleFailure(
                f"objective non-finite while probing coordinate {i}: f+={hi}, f-={lo}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def fd_matches(f, params, analytic, cfg: GradCheckConfig = GradCheckConfig()) -> tuple[bool, float]:
    """Compare an analytic gradient against the central-difference oracle.

    Returns (ok, worst violation ratio); a ratio <= 1 means every coordinate
    is within abs_tol + rel_tol * |fd|.
    """
    fd = finite_difference_gradient(f, params, cfg)
    analytic = np.asarray(analytic, dtype=np.float64)
    err = np.abs(analytic - fd)
    tol = cfg.abs_tol + cfg.rel_tol * np.abs(fd)
    ratio = float(np.max(err / tol))
    return bool(np.all(err <= tol)), ratio


def make_instance(
    rng: np.random.Generator,
    n_classes: int = 2,
    samples_per_class: int = 2,
    k: int = 2,
    dim: int = 6,
) -> tuple[EmbeddingBatch, np.ndarray, np.ndarray]:
    """Random unit-embedding instance with positive weights, for loss tests.

    Returns the batch, one region weight per region row and one image weight
    per sample.
    """
    images, omega, regions, weights = [], [], [], []
    for _ in range(n_classes * samples_per_class):
        v = rng.standard_normal(dim)
        images.append(v / np.linalg.norm(v))
        omega.append(float(rng.uniform(0.3, 1.8)))
        for _ in range(k):
            r = rng.standard_normal(dim)
            regions.append(r / np.linalg.norm(r))
            weights.append(float(rng.uniform(0.4, 2.0)))
    n = len(images)
    batch = EmbeddingBatch(
        image_embeddings=np.stack(images),
        region_embeddings=np.stack(regions),
        sample_of=np.repeat(np.arange(n), k),
        class_of=np.repeat(np.arange(n_classes), samples_per_class),
    )
    return batch, np.array(weights), np.array(omega)


def validate_embedding_batch(batch: EmbeddingBatch, atol: float = 1e-9) -> None:
    """Raise InvalidParameterError unless both embedding blocks are (rows, embed_dim),
    the region block's width, and every row has unit norm."""
    for name, mat in (("image", batch.image_embeddings), ("region", batch.region_embeddings)):
        if mat.ndim != 2 or mat.shape[1] != batch.embed_dim:
            raise InvalidParameterError(f"{name} embeddings have shape {mat.shape}")
        if np.any(np.abs(np.linalg.norm(mat, axis=1) - 1.0) > atol):
            raise InvalidParameterError(f"{name} embeddings are not unit norm")


def flatten_embeddings(batch: EmbeddingBatch) -> np.ndarray:
    """Concatenate region then image embeddings, row by row."""
    return np.concatenate([batch.region_embeddings.ravel(), batch.image_embeddings.ravel()])


def rebuild_batch(template: EmbeddingBatch, vec: np.ndarray) -> EmbeddingBatch:
    """Inverse of flatten_embeddings against a template's layout."""
    split = template.region_embeddings.size
    return EmbeddingBatch(
        image_embeddings=vec[split:].reshape(template.image_embeddings.shape),
        region_embeddings=vec[:split].reshape(template.region_embeddings.shape),
        sample_of=template.sample_of,
        class_of=template.class_of,
    )


def flatten_grads(region_grads: np.ndarray, image_grads: np.ndarray) -> np.ndarray:
    return np.concatenate([region_grads.ravel(), image_grads.ravel()])
