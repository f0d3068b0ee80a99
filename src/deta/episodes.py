"""Few-shot task episodes: synthetic generation, label corruption, file I/O.

An episode holds per-class support samples (one image feature plus a set of
region features each) and query samples, all as pre-extracted feature
vectors. Synthetic episodes additionally carry a hidden generative source so
region sets can be redrawn each adaptation iteration; loaded episodes
approximate redrawing by subsampling their stored regions with jitter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ParseError, SchemaError
from .numerics import check_finite

NOISE_CLEAN = "clean"
NOISE_IMAGE = "image_noisy"
NOISE_LABEL = "label_noisy"

_NOISE_TAGS = (NOISE_CLEAN, NOISE_IMAGE, NOISE_LABEL)

EPISODE_FORMAT_VERSION = 1


def _round_half_away(x: float) -> int:
    """round() with halves away from zero (5.5 -> 6), not banker's rounding."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class SyntheticNoiseConfig:
    """Noise knobs for synthetic episode generation.

    label_noise_ratio / image_noise_ratio give the fraction of support
    samples hit by each noise type. distractor_mix is the fraction of an
    image-noisy sample's regions replaced by draws from a shared,
    class-agnostic distractor distribution. class_separation controls how far
    apart class mean directions are relative to the within-class spread
    (the per-coordinate feature noise scale is 1/class_separation).
    """

    label_noise_ratio: float = 0.0
    image_noise_ratio: float = 0.0
    distractor_mix: float = 0.5
    class_separation: float = 3.0

    def __post_init__(self):
        for name in ("label_noise_ratio", "image_noise_ratio", "distractor_mix"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1], got {v}")
        check_finite(class_separation=self.class_separation)
        if self.class_separation <= 0.0:
            raise InvalidParameterError("class_separation must be positive")


@dataclass(frozen=True)
class _SyntheticSource:
    """Generative state of a synthetic episode, kept for region redraws.

    A sample's stored regions act as its anchor set: redraws jitter around
    them at crop_jitter * sigma so consecutive adaptation iterations see
    perturbed views of the same crops rather than unrelated samples. Not
    serialized: saved-and-reloaded episodes fall back to stored-region
    subsampling.
    """

    class_means: np.ndarray  # (way, d), unit rows, indexed by true class
    distractor_mean: np.ndarray  # (d,), unit
    sigma: float
    crop_jitter: float
    distractor_mix: dict[int, float]  # sample_id -> fraction of distractor regions


@dataclass(eq=False)
class SupportSample:
    sample_id: int
    label: int
    image_feature: np.ndarray  # (d,)
    region_features: np.ndarray  # (k, d), one row per region
    ground_truth_label: int
    noise_tag: str = NOISE_CLEAN

    def __eq__(self, other):
        if not isinstance(other, SupportSample):
            return NotImplemented
        return (
            self.sample_id == other.sample_id
            and self.label == other.label
            and self.ground_truth_label == other.ground_truth_label
            and self.noise_tag == other.noise_tag
            and np.array_equal(self.image_feature, other.image_feature)
            and np.array_equal(self.region_features, other.region_features)
        )


@dataclass(eq=False)
class QuerySample:
    sample_id: int
    image_feature: np.ndarray  # (d,)
    ground_truth_label: int

    def __eq__(self, other):
        if not isinstance(other, QuerySample):
            return NotImplemented
        return (
            self.sample_id == other.sample_id
            and self.ground_truth_label == other.ground_truth_label
            and np.array_equal(self.image_feature, other.image_feature)
        )


@dataclass(eq=False)
class TaskEpisode:
    """One few-shot task. Treated as immutable after construction.

    Equality compares content (shape, features, labels, evaluation tags) and
    ignores provenance (seed, generative source).
    """

    way: int
    shots: tuple[int, ...]
    support: tuple[SupportSample, ...]
    queries: tuple[QuerySample, ...]
    feature_dim: int
    seed: int
    source: _SyntheticSource | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.way < 2:
            raise InvalidParameterError(f"an episode needs at least 2 classes, got {self.way}")
        counts = [0] * self.way
        for s in self.support:
            if not 0 <= s.label < self.way:
                raise InvalidParameterError(f"sample {s.sample_id} has label {s.label} outside [0, {self.way})")
            if not 0 <= s.ground_truth_label < self.way:
                raise InvalidParameterError(f"sample {s.sample_id} true label out of range")
            if s.noise_tag not in _NOISE_TAGS:
                raise InvalidParameterError(f"unknown noise tag {s.noise_tag!r}")
            counts[s.label] += 1
        if any(c == 0 for c in counts):
            raise InvalidParameterError("every class must have at least one support sample")
        if tuple(counts) != tuple(self.shots):
            raise InvalidParameterError("shots do not match per-class support counts")

    @property
    def n_support(self) -> int:
        return len(self.support)

    def labels(self) -> dict[int, int]:
        return {s.sample_id: s.label for s in self.support}

    def noise_tags(self) -> dict[int, str]:
        return {s.sample_id: s.noise_tag for s in self.support}

    def __eq__(self, other):
        if not isinstance(other, TaskEpisode):
            return NotImplemented
        return (
            self.way == other.way
            and self.shots == other.shots
            and self.feature_dim == other.feature_dim
            and self.support == other.support
            and self.queries == other.queries
        )

    def to_dict(self) -> dict:
        """Wire-format dict (evaluation-only fields are not serialized)."""
        return {
            "version": EPISODE_FORMAT_VERSION,
            "feature_dim": self.feature_dim,
            "way": self.way,
            "support": [
                {
                    "id": s.sample_id,
                    "label": s.label,
                    "image_feature": [float(x) for x in s.image_feature],
                    "regions": [[float(x) for x in row] for row in s.region_features],
                }
                for s in self.support
            ],
            "queries": [
                {
                    "id": q.sample_id,
                    "label": q.ground_truth_label,
                    "image_feature": [float(x) for x in q.image_feature],
                }
                for q in self.queries
            ],
        }


def _shots_from_support(way: int, support) -> tuple[int, ...]:
    counts = [0] * way
    for s in support:
        counts[s.label] += 1
    return tuple(counts)


def _unit_directions(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors in R^d, mutually orthogonal whenever d allows it."""
    if d >= n:
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        return q.T.copy()
    vecs = rng.standard_normal((n, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def generate_synthetic_episode(
    way: int,
    shot: int,
    k: int,
    d: int,
    cfg: SyntheticNoiseConfig,
    seed: int,
    query_shot: int = 15,
    crop_jitter: float = 0.1,
) -> TaskEpisode:
    """Sample a synthetic episode with controllable image and label noise.

    Clean samples draw their image and k region features around a unit-norm
    class mean with Gaussian spread 1/class_separation. Image-noisy samples
    have a distractor_mix fraction of regions (and a commensurate part of the
    image feature) replaced by draws around a shared distractor direction.
    Label noise is applied last via corrupt_labels. Deterministic per seed.

    crop_jitter sets how far resample_regions strays from the stored regions
    relative to the class spread.
    """
    if way < 2 or shot < 1 or k < 1 or d < 2:
        raise InvalidParameterError(
            f"invalid episode shape: way={way}, shot={shot}, k={k}, d={d}"
        )
    if query_shot < 0:
        raise InvalidParameterError("query_shot must be non-negative")
    if crop_jitter < 0.0:
        raise InvalidParameterError("crop_jitter must be non-negative")
    if seed < 0:
        raise InvalidParameterError("seed must be non-negative")

    rng = np.random.default_rng(seed)
    dirs = _unit_directions(way + 1, d, rng)
    class_means, distractor_mean = dirs[:way], dirs[way]
    sigma = 1.0 / cfg.class_separation

    n_support = way * shot
    support: list[SupportSample] = []
    for c in range(way):
        for _ in range(shot):
            sid = len(support)
            image = class_means[c] + sigma * rng.standard_normal(d)
            regions = class_means[c] + sigma * rng.standard_normal((k, d))
            support.append(
                SupportSample(
                    sample_id=sid,
                    label=c,
                    image_feature=image,
                    region_features=regions,
                    ground_truth_label=c,
                )
            )

    mix_by_sample = {s.sample_id: 0.0 for s in support}
    n_image_noisy = _round_half_away(cfg.image_noise_ratio * n_support)
    for sid in rng.choice(n_support, size=n_image_noisy, replace=False):
        s = support[int(sid)]
        mix = cfg.distractor_mix
        mix_by_sample[s.sample_id] = mix
        n_dist = min(k, _round_half_away(mix * k))
        slots = rng.choice(k, size=n_dist, replace=False)
        regions = s.region_features.copy()
        regions[slots] = distractor_mean + sigma * rng.standard_normal((n_dist, d))
        image = (
            (1.0 - mix) * class_means[s.ground_truth_label]
            + mix * distractor_mean
            + sigma * rng.standard_normal(d)
        )
        support[int(sid)] = SupportSample(
            sample_id=s.sample_id,
            label=s.label,
            image_feature=image,
            region_features=regions,
            ground_truth_label=s.ground_truth_label,
            noise_tag=NOISE_IMAGE,
        )

    queries: list[QuerySample] = []
    for c in range(way):
        for _ in range(query_shot):
            qid = n_support + len(queries)
            queries.append(
                QuerySample(
                    sample_id=qid,
                    image_feature=class_means[c] + sigma * rng.standard_normal(d),
                    ground_truth_label=c,
                )
            )

    episode = TaskEpisode(
        way=way,
        shots=(shot,) * way,
        support=tuple(support),
        queries=tuple(queries),
        feature_dim=d,
        seed=seed,
        source=_SyntheticSource(
            class_means=class_means,
            distractor_mean=distractor_mean,
            sigma=sigma,
            crop_jitter=crop_jitter,
            distractor_mix=mix_by_sample,
        ),
    )
    if cfg.label_noise_ratio > 0.0:
        episode = corrupt_labels(episode, cfg.label_noise_ratio, int(rng.integers(2**63)))
    return episode


def corrupt_labels(episode: TaskEpisode, ratio: float, seed: int) -> TaskEpisode:
    """Mislabel a fraction of support samples, uniformly over the wrong classes.

    Exactly round(ratio * n_support) samples are picked without replacement;
    each gets a label drawn uniformly from the classes other than its true
    one. True labels are preserved for evaluation, features are untouched.
    An assignment that would leave some class without any support sample is
    redrawn, so the episode keeps satisfying its class-coverage invariant.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidParameterError(f"corruption ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return episode
    if episode.way < 2:
        raise InvalidParameterError("label corruption needs at least 2 classes")

    rng = np.random.default_rng(seed)
    n = episode.n_support
    n_corrupt = _round_half_away(ratio * n)

    for _ in range(1000):
        picked = set(int(i) for i in rng.choice(n, size=n_corrupt, replace=False))
        new_labels = {}
        counts = [0] * episode.way
        for pos, s in enumerate(episode.support):
            if pos in picked:
                offset = int(rng.integers(1, episode.way))
                new_labels[pos] = (s.ground_truth_label + offset) % episode.way
            else:
                new_labels[pos] = s.label
            counts[new_labels[pos]] += 1
        if all(c > 0 for c in counts):
            break
    else:
        raise InvalidParameterError(
            f"could not corrupt {n_corrupt}/{n} labels without emptying a class"
        )

    support = list(episode.support)
    for pos in picked:
        s = support[pos]
        support[pos] = SupportSample(
            sample_id=s.sample_id,
            label=new_labels[pos],
            image_feature=s.image_feature,
            region_features=s.region_features,
            ground_truth_label=s.ground_truth_label,
            noise_tag=NOISE_LABEL,
        )

    return TaskEpisode(
        way=episode.way,
        shots=_shots_from_support(episode.way, support),
        support=tuple(support),
        queries=episode.queries,
        feature_dim=episode.feature_dim,
        seed=episode.seed,
        source=episode.source,
    )


def resample_regions(episode: TaskEpisode, k: int, jitter: float, seed: int) -> np.ndarray:
    """Draw a fresh set of k regions per support sample, as one (n, k, d) array.

    Row i holds the regions of the support sample at position i. Synthetic
    episodes redraw from each sample's generative mixture: up to the stored
    region count, fresh draws jitter around the stored regions at the
    source's crop_jitter scale (so iterations see perturbed views of the same
    crops); beyond it, whole region sets are redrawn from the class and
    distractor components. Loaded episodes subsample k of their stored
    regions uniformly without replacement and add jitter-scaled Gaussian
    perturbation. Deterministic for a fixed seed; pass a distinct seed per
    adaptation iteration.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if jitter < 0.0:
        raise InvalidParameterError("jitter must be non-negative")
    rng = np.random.default_rng(seed)
    d = episode.feature_dim

    if episode.source is not None:
        src = episode.source
        scale = src.crop_jitter * src.sigma
        if all(s.region_features.shape[0] == k for s in episode.support):
            # The generator fills its output in order, so one draw equals the per-sample draws.
            anchors = np.stack([s.region_features for s in episode.support])
            return anchors + scale * rng.standard_normal((episode.n_support, k, d))
        out = np.empty((episode.n_support, k, d))
        for pos, s in enumerate(episode.support):
            anchors = s.region_features
            k_stored = anchors.shape[0]
            if k < k_stored:
                idx = np.sort(rng.choice(k_stored, size=k, replace=False))
                out[pos] = anchors[idx] + scale * rng.standard_normal((k, d))
            else:
                mean = src.class_means[s.ground_truth_label]
                regions = mean + src.sigma * rng.standard_normal((k, d))
                mix = src.distractor_mix.get(s.sample_id, 0.0)
                n_dist = min(k, _round_half_away(mix * k))
                if n_dist > 0:
                    slots = rng.choice(k, size=n_dist, replace=False)
                    regions[slots] = src.distractor_mean + src.sigma * rng.standard_normal(
                        (n_dist, d)
                    )
                out[pos] = regions
        return out

    out = np.empty((episode.n_support, k, d))
    for pos, s in enumerate(episode.support):
        stored = s.region_features
        if stored.shape[0] < k:
            raise InvalidParameterError(
                f"sample {s.sample_id} stores {stored.shape[0]} regions, need {k}"
            )
        idx = rng.choice(stored.shape[0], size=k, replace=False)
        out[pos] = stored[np.sort(idx)]
        if jitter > 0.0:
            out[pos] += jitter * rng.standard_normal((k, d))
    return out


def _require_keys(obj: dict, keys: set[str], where: str):
    got = set(obj.keys())
    if got != keys:
        extra = sorted(got - keys)
        missing = sorted(keys - got)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unknown {extra}")
        raise SchemaError(f"{where}: " + ", ".join(parts))


_NUMBER_TYPES = {int, float}  # the types json.loads gives numbers; bool is a type of its own


def _as_feature(values, d: int, where: str) -> np.ndarray:
    if not isinstance(values, list) or not (
        set(map(type, values)) <= _NUMBER_TYPES
        or all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
    ):
        raise SchemaError(f"{where}: feature must be a list of numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise SchemaError(f"{where}: feature value out of float range ({exc})") from exc
    if arr.shape != (d,):
        raise SchemaError(f"{where}: expected dimension {d}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: non-finite feature values")
    return arr


def episode_from_dict(doc: dict) -> TaskEpisode:
    """Validate a wire-format dict and build the episode.

    Feature values must be ints or floats that are finite as doubles.
    Subclasses such as numpy.float64 pass; bools do not.
    """
    if not isinstance(doc, dict):
        raise SchemaError("episode document must be a JSON object")
    _require_keys(doc, {"version", "feature_dim", "way", "support", "queries"}, "episode")
    if doc["version"] != EPISODE_FORMAT_VERSION:
        raise SchemaError(f"unsupported version {doc['version']!r}")
    way = doc["way"]
    d = doc["feature_dim"]
    if not isinstance(way, int) or way < 2:
        raise SchemaError(f"way must be an integer >= 2, got {way!r}")
    if not isinstance(d, int) or d < 1:
        raise SchemaError(f"feature_dim must be a positive integer, got {d!r}")
    if not isinstance(doc["support"], list) or not doc["support"]:
        raise SchemaError("support must be a non-empty list")
    if not isinstance(doc["queries"], list):
        raise SchemaError("queries must be a list")

    support: list[SupportSample] = []
    seen_ids: set[int] = set()
    for entry in doc["support"]:
        if not isinstance(entry, dict):
            raise SchemaError("support entries must be objects")
        _require_keys(entry, {"id", "label", "image_feature", "regions"}, "support entry")
        sid, label = entry["id"], entry["label"]
        if not isinstance(sid, int):
            raise SchemaError(f"support id must be an integer, got {sid!r}")
        if sid in seen_ids:
            raise SchemaError(f"duplicate support id {sid}")
        seen_ids.add(sid)
        if not isinstance(label, int) or not 0 <= label < way:
            raise SchemaError(f"support sample {sid}: unknown class index {label!r}")
        image = _as_feature(entry["image_feature"], d, f"support sample {sid}")
        regions_raw = entry["regions"]
        if not isinstance(regions_raw, list) or not regions_raw:
            raise SchemaError(f"support sample {sid}: needs at least one region")
        regions = np.stack(
            [
                _as_feature(r, d, f"support sample {sid}, region {j}")
                for j, r in enumerate(regions_raw)
            ]
        )
        support.append(
            SupportSample(
                sample_id=sid,
                label=label,
                image_feature=image,
                region_features=regions,
                ground_truth_label=label,
            )
        )

    counts = [0] * way
    for s in support:
        counts[s.label] += 1
    if any(c == 0 for c in counts):
        empty = [c for c, n in enumerate(counts) if n == 0]
        raise SchemaError(f"classes without support samples: {empty}")

    queries: list[QuerySample] = []
    seen_qids: set[int] = set()
    for entry in doc["queries"]:
        if not isinstance(entry, dict):
            raise SchemaError("query entries must be objects")
        _require_keys(entry, {"id", "label", "image_feature"}, "query entry")
        qid, label = entry["id"], entry["label"]
        if not isinstance(qid, int):
            raise SchemaError(f"query id must be an integer, got {qid!r}")
        if qid in seen_qids:
            raise SchemaError(f"duplicate query id {qid}")
        seen_qids.add(qid)
        if not isinstance(label, int) or not 0 <= label < way:
            raise SchemaError(f"query {qid}: unknown class index {label!r}")
        queries.append(
            QuerySample(
                sample_id=qid,
                image_feature=_as_feature(entry["image_feature"], d, f"query {qid}"),
                ground_truth_label=label,
            )
        )

    return TaskEpisode(
        way=way,
        shots=tuple(counts),
        support=tuple(support),
        queries=tuple(queries),
        feature_dim=d,
        seed=0,
    )


def load_episode_file(path) -> TaskEpisode:
    """Load and validate an episode from a UTF-8 JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return episode_from_dict(doc)


def _reject_constant(name: str):
    raise SchemaError(f"non-finite JSON constant {name!r} not allowed")


def save_episode_file(episode: TaskEpisode, path) -> None:
    """Write the episode in the wire format. Evaluation-only fields are dropped."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(episode.to_dict(), fh)
        fh.write("\n")


def episode_bytes(episode: TaskEpisode) -> bytes:
    """Canonical serialized form, for determinism checks."""
    return (json.dumps(episode.to_dict()) + "\n").encode("utf-8")
