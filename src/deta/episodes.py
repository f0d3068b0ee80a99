"""Few-shot task episodes: synthetic generation, label corruption, file I/O.

An episode holds its support and query sets as arrays of pre-extracted
feature vectors: one image feature and a set of stored region features per
support sample, one feature per query, and id, label and noise-tag vectors.
Each adaptation iteration redraws the region sets by one rule, whether the
episode was generated or loaded: take k of each sample's stored regions and
add jitter.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import secrets
import stat
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from .errors import InvalidParameterError, ParseError, SchemaError
from .numerics import check_finite

NOISE_CLEAN = "clean"
NOISE_IMAGE = "image_noisy"
NOISE_LABEL = "label_noisy"

_NOISE_TAGS = (NOISE_CLEAN, NOISE_IMAGE, NOISE_LABEL)

EPISODE_FORMAT_VERSION = 1

CROP_JITTER = 0.1  # the default region redraw jitter, relative to the synthetic class spread
DISTRACTOR_MIX = 0.5  # the share of an image-noisy sample's regions drawn around the distractor
CLASS_SEPARATION = 3.0  # unit-norm class means; the per-coordinate spread is its inverse


def _round_half_away(x: float) -> int:
    """round() with halves away from zero (5.5 -> 6), not banker's rounding."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class SyntheticNoiseConfig:
    """Noise ratios for synthetic episode generation.

    label_noise_ratio / image_noise_ratio give the fraction of support
    samples hit by each noise type.
    """

    label_noise_ratio: float = 0.0
    image_noise_ratio: float = 0.0

    def __post_init__(self):
        for name in ("label_noise_ratio", "image_noise_ratio"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True, eq=False)
class TaskEpisode:
    """One few-shot task as arrays in support order and query order.

    Support sample i has id sample_ids[i], label labels[i] (possibly
    corrupted), true label true_labels[i], noise tag noise[i], image feature
    support_features[i] and stored regions
    regions[region_offsets[i]:region_offsets[i + 1]]; the count may differ per
    sample. Ids do not repeat within the support set or within the queries.
    way and feature_dim are read from the arrays: every class in [0, way) has
    a support sample, so way is one more than the largest label, and
    feature_dim is the width of support_features. Treated as immutable after
    construction.
    """

    sample_ids: np.ndarray  # (n,)
    labels: np.ndarray  # (n,)
    true_labels: np.ndarray  # (n,)
    noise: np.ndarray  # (n,) str
    support_features: np.ndarray  # (n, d)
    regions: np.ndarray  # (R, d)
    region_offsets: np.ndarray  # (n + 1,), from 0 to R
    query_ids: np.ndarray  # (q,)
    query_labels: np.ndarray  # (q,)
    query_features: np.ndarray  # (q, d)
    seed: int = 0

    def __post_init__(self):
        n, q = len(self.sample_ids), len(self.query_ids)
        offsets = self.region_offsets
        if not (
            self.labels.shape == self.true_labels.shape == self.noise.shape == (n,)
            and self.support_features.ndim == 2
            and len(self.support_features) == n
            and offsets.shape == (n + 1,)
            and offsets[0] == 0
            and np.all(offsets[1:] > offsets[:-1])
            and self.regions.shape == (offsets[-1], self.feature_dim)
            and self.query_labels.shape == (q,)
            and self.query_features.shape == (q, self.feature_dim)
        ):
            raise InvalidParameterError(
                f"episode arrays do not fit {n} support samples with at least one region "
                f"each, {q} queries and support_features of shape {self.support_features.shape}"
            )
        for kind, ids in (("support", self.sample_ids), ("query", self.query_ids)):
            seen: set = set()
            for eid in ids.tolist():
                if eid in seen:
                    raise InvalidParameterError(f"repeated {kind} id {eid}")
                seen.add(eid)
        # way is 0 without labels; the range check runs before bincount, which raises on negatives.
        if self.way < 2:
            raise InvalidParameterError(f"an episode needs at least 2 classes, got {self.way}")
        for name in ("labels", "true_labels", "query_labels"):
            values = getattr(self, name)
            if np.any((values < 0) | (values >= self.way)):
                raise InvalidParameterError(f"{name} outside [0, {self.way})")
        if not np.all(np.isin(self.noise, _NOISE_TAGS)):
            raise InvalidParameterError(f"unknown noise tag in {sorted(set(self.noise.tolist()))}")
        if np.any(np.bincount(self.labels, minlength=self.way) == 0):
            raise InvalidParameterError("every class must have at least one support sample")

    @property
    def way(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def feature_dim(self) -> int:
        return self.support_features.shape[1]

    @property
    def n_support(self) -> int:
        return len(self.sample_ids)

    def noise_tags(self) -> dict[int, str]:
        return dict(zip(self.sample_ids.tolist(), self.noise.tolist()))


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
) -> TaskEpisode:
    """Sample a synthetic episode with controllable image and label noise.

    Clean samples draw their image and k region features around a unit-norm
    class mean with Gaussian spread 1/CLASS_SEPARATION. Image-noisy samples
    have a DISTRACTOR_MIX fraction of regions (and a commensurate part of the
    image feature) replaced by draws around a shared distractor direction.
    Label noise is applied last via corrupt_labels. Deterministic per seed.
    """
    if way < 2 or shot < 1 or k < 1 or d < 2:
        raise InvalidParameterError(
            f"invalid episode shape: way={way}, shot={shot}, k={k}, d={d}"
        )
    if query_shot < 0:
        raise InvalidParameterError("query_shot must be non-negative")
    if seed < 0:
        raise InvalidParameterError("seed must be non-negative")

    rng = np.random.default_rng(seed)
    dirs = _unit_directions(way + 1, d, rng)
    class_means, distractor_mean = dirs[:way], dirs[way]
    sigma = 1.0 / CLASS_SEPARATION

    n = way * shot
    labels = np.repeat(np.arange(way), shot)
    means = class_means[labels]
    # The generator fills its output in order, so row i of one block draw is
    # sample i's image draw followed by its k region draws.
    draw = sigma * rng.standard_normal((n, (1 + k) * d))
    images = means + draw[:, :d]
    regions = (means[:, None, :] + draw[:, d:].reshape(n, k, d)).reshape(n * k, d)

    n_dist = _round_half_away(DISTRACTOR_MIX * k)
    noisy = rng.choice(n, size=_round_half_away(cfg.image_noise_ratio * n), replace=False)
    for pos in noisy.tolist():
        slots = rng.choice(k, size=n_dist, replace=False)
        regions[pos * k + slots] = distractor_mean + sigma * rng.standard_normal((n_dist, d))
        images[pos] = (
            (1.0 - DISTRACTOR_MIX) * class_means[labels[pos]]
            + DISTRACTOR_MIX * distractor_mean
            + sigma * rng.standard_normal(d)
        )
    is_noisy = np.isin(np.arange(n), noisy)

    query_labels = np.repeat(np.arange(way), query_shot)
    queries = class_means[query_labels] + sigma * rng.standard_normal((query_labels.size, d))
    episode = TaskEpisode(
        sample_ids=np.arange(n),
        labels=labels,
        true_labels=labels,
        noise=np.where(is_noisy, NOISE_IMAGE, NOISE_CLEAN),
        support_features=images,
        regions=regions,
        region_offsets=k * np.arange(n + 1),
        query_ids=n + np.arange(query_labels.size),
        query_labels=query_labels,
        query_features=queries,
        seed=seed,
    )
    if cfg.label_noise_ratio > 0.0:
        episode = corrupt_labels(episode, cfg.label_noise_ratio, int(rng.integers(2**63)))
    return episode


def corrupt_labels(episode: TaskEpisode, ratio: float, seed: int) -> TaskEpisode:
    """Mislabel a fraction of support samples, uniformly over the wrong classes.

    Exactly round(ratio * n_support) samples are picked without replacement;
    each gets a label drawn uniformly from the classes other than its true
    one, in support order. True labels are preserved for evaluation, features
    are untouched. An assignment that would leave some class without any
    support sample is redrawn, up to 1000 times, so the episode keeps
    satisfying its class-coverage invariant. One label in an episode with one
    correctly labelled sample per class always empties a class, so that case
    is refused before any draw.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidParameterError(f"corruption ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return episode

    rng = np.random.default_rng(seed)
    n, way = episode.n_support, episode.way
    n_corrupt = _round_half_away(ratio * n)
    hopeless = n_corrupt == 1 and n == way and np.array_equal(episode.labels, episode.true_labels)

    for _ in range(0 if hopeless else 1000):
        picked = np.sort(rng.choice(n, size=n_corrupt, replace=False))
        labels = episode.labels.copy()
        labels[picked] = (episode.true_labels[picked] + rng.integers(1, way, size=n_corrupt)) % way
        if np.all(np.bincount(labels, minlength=way) > 0):
            break
    else:
        raise InvalidParameterError(
            f"could not corrupt {n_corrupt}/{n} labels without emptying a class"
        )
    noise = np.where(np.isin(np.arange(n), picked), NOISE_LABEL, episode.noise)
    return replace(episode, labels=labels, noise=noise)


def resample_regions(episode: TaskEpisode, k: int, jitter: float, seed: int) -> np.ndarray:
    """Draw a fresh set of k regions per support sample, as one (n, k, d) array.

    Row i holds the regions of the support sample at position i. When every
    sample stores exactly k regions, all of them are taken, in stored order,
    with no draw; otherwise each row is a uniform k-subset of its sample's
    stored regions, without replacement. Then one (n, k, d) standard normal
    draw scaled by jitter is added. A sample storing fewer than k regions is
    refused. Deterministic for a fixed seed; pass a distinct seed per
    adaptation iteration.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not 0.0 <= jitter < np.inf:
        raise InvalidParameterError(f"jitter must be finite and non-negative, got {jitter}")
    rng = np.random.default_rng(seed)
    n, d = episode.n_support, episode.feature_dim
    stored = episode.regions
    counts = np.diff(episode.region_offsets)
    if np.any(counts < k):
        pos = int(np.argmax(counts < k))
        raise InvalidParameterError(
            f"sample {episode.sample_ids[pos]} stores {counts[pos]} regions, need {k}"
        )
    if np.all(counts == k):
        slots = np.arange(k)
    else:
        # One uniform key per stored slot, +inf past each sample's own count; the
        # k smallest keys of a row are a uniform k-subset of that sample's slots.
        keys = rng.random((n, int(counts.max())))
        keys[np.arange(keys.shape[1]) >= counts[:, None]] = np.inf
        slots = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
    out = stored[episode.region_offsets[:-1, None] + slots]
    if jitter > 0.0:
        out += jitter * rng.standard_normal((n, k, d))
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
_LISTED_CLASSES = 10  # empty classes named in an error message; the rest are counted


def _as_block(lists: list, d: int, where) -> np.ndarray:
    """Feature lists as one (len(lists), d) float array; where(i) names list i in errors."""
    for i, values in enumerate(lists):
        if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
            raise SchemaError(f"{where(i)}: feature must be a list of numbers")
        if len(values) != d:
            raise SchemaError(f"{where(i)}: expected dimension {d}, got {len(values)}")
    try:
        block = np.array(lists, dtype=np.float64).reshape(len(lists), d)
    except OverflowError:
        for i, values in enumerate(lists):
            try:
                np.array(values, dtype=np.float64)
            except OverflowError as exc:
                raise SchemaError(f"{where(i)}: feature value out of float range ({exc})") from exc
        raise
    finite = np.isfinite(block)
    if not finite.all():
        raise SchemaError(f"{where(int(np.argmin(finite.all(axis=1))))}: non-finite feature values")
    return block


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_entry(entry, keys: set[str], kind: str, way: int) -> None:
    """Check a support or query entry's keys, id and label; TaskEpisode refuses repeated ids."""
    if not isinstance(entry, dict):
        raise SchemaError(f"{kind} entries must be objects")
    _require_keys(entry, keys, f"{kind} entry")
    eid, label = entry["id"], entry["label"]
    if not _is_int(eid):
        raise SchemaError(f"{kind} id must be an integer, got {eid!r}")
    if not _is_int(label) or not 0 <= label < way:
        name = "support sample" if kind == "support" else "query"
        raise SchemaError(f"{name} {eid}: label is an unknown class index {label!r}")


def episode_from_dict(doc: dict) -> TaskEpisode:
    """Validate a wire-format dict and build the episode.

    Feature values must be ints or floats that are finite as doubles. Bools
    do not pass, neither as feature values nor as the integers version, way,
    feature_dim, ids and labels.
    """
    if not isinstance(doc, dict):
        raise SchemaError("episode document must be a JSON object")
    _require_keys(doc, {"version", "feature_dim", "way", "support", "queries"}, "episode")
    if isinstance(doc["version"], bool) or doc["version"] != EPISODE_FORMAT_VERSION:
        raise SchemaError(f"unsupported version {doc['version']!r}")
    way = doc["way"]
    d = doc["feature_dim"]
    support, queries = doc["support"], doc["queries"]
    if not _is_int(way) or way < 2:
        raise SchemaError(f"way must be an integer >= 2, got {way!r}")
    if not _is_int(d) or d < 1:
        raise SchemaError(f"feature_dim must be a positive integer, got {d!r}")
    if not isinstance(support, list) or not support:
        raise SchemaError("support must be a non-empty list")
    if not isinstance(queries, list):
        raise SchemaError("queries must be a list")
    if way > len(support):
        raise SchemaError(
            f"way {way} exceeds the {len(support)} support samples: every class needs one"
        )

    rows: list = []
    offsets = [0]
    for entry in support:
        _check_entry(entry, {"id", "label", "image_feature", "regions"}, "support", way)
        if not isinstance(entry["regions"], list) or not entry["regions"]:
            raise SchemaError(f"support sample {entry['id']}: needs at least one region")
        rows.extend(entry["regions"])
        offsets.append(len(rows))
    ids = [entry["id"] for entry in support]
    images = _as_block([entry["image_feature"] for entry in support], d,
                       lambda i: f"support sample {ids[i]}")

    def region_name(r: int) -> str:
        pos = bisect.bisect_right(offsets, r) - 1
        return f"support sample {ids[pos]}, region {r - offsets[pos]}"

    regions = _as_block(rows, d, region_name)
    labels = np.array([entry["label"] for entry in support])
    empty = np.flatnonzero(np.bincount(labels, minlength=way) == 0)
    if empty.size:
        more = empty.size - _LISTED_CLASSES
        listed = f"{empty[:_LISTED_CLASSES].tolist()}" + (f" and {more} more" if more > 0 else "")
        raise SchemaError(f"classes without support samples: {listed}")

    for entry in queries:
        _check_entry(entry, {"id", "label", "image_feature"}, "query", way)
    query_ids = [entry["id"] for entry in queries]
    return TaskEpisode(
        sample_ids=np.array(ids),
        labels=labels,
        true_labels=labels,
        noise=np.full(len(ids), NOISE_CLEAN),
        support_features=images,
        regions=regions,
        region_offsets=np.array(offsets),
        query_ids=np.array(query_ids),
        query_labels=np.array([entry["label"] for entry in queries], dtype=np.int64),
        query_features=_as_block([entry["image_feature"] for entry in queries], d,
                                 lambda i: f"query {query_ids[i]}"),
    )


_WIRE_DEPTH = 5  # episode object > support list > entry > regions list > region row
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_NESTING_STEP = np.zeros(256, dtype=np.int8)
_NESTING_STEP[list(b"[{")] = 1
_NESTING_STEP[list(b"]}")] = -1


def _shallow_and_unescaped(data: bytes) -> bool:
    """True if data holds no backslash and nests at most _WIRE_DEPTH deep outside strings.

    Without escapes a string ends at its next quote, so the brackets outside
    quote pairs give the nesting a parser reaches before its first error.
    """
    if b"\\" in data:
        return False
    marks = np.frombuffer(data.translate(None, _NOT_STRUCTURE), dtype=np.uint8)
    outside = np.cumsum(marks == ord('"')) % 2 == 0
    depth = np.cumsum(np.where(outside, _NESTING_STEP[marks], 0))
    return depth.size == 0 or int(depth.max()) <= _WIRE_DEPTH


def load_episode_file(path) -> TaskEpisode:
    """Load and validate an episode from a UTF-8 JSON file.

    orjson parses the file. A file it refuses, or whose document the schema
    refuses, is decoded again by Python's json, whose refusal is the one
    reported: orjson words its errors differently and reads integers beyond
    64 bits as floats. Text that nests deeper than a valid episode or holds an
    escape goes to json alone, since orjson overflows the C stack on deep
    nesting.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _shallow_and_unescaped(data):
        try:
            return episode_from_dict(orjson.loads(data))
        except (orjson.JSONDecodeError, SchemaError):
            pass
    try:  # what a text-mode read of the file gives, newline translation included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:  # too deep nesting, integers over 4300 digits
        raise ParseError(f"{path}: {exc}") from exc
    return episode_from_dict(doc)


def _reject_constant(name: str):
    raise SchemaError(f"non-finite JSON constant {name!r} not allowed")


def save_episode_file(episode: TaskEpisode, path) -> None:
    """Write the episode in the wire format. Evaluation-only fields are dropped.

    orjson writes each feature row and each sample's region block with the
    shortest digits that read back to the same double. f-strings write ids
    and labels, since orjson refuses integers beyond 64 bits, and join the
    document. orjson would write NaN and infinity as null, so non-finite
    features are refused before the file is opened.
    """
    images, regions, queries = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (episode.support_features, episode.regions, episode.query_features)
    )
    check_finite(support_features=images, regions=regions, query_features=queries)

    def dumps(rows) -> str:
        return orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY).decode()

    off = episode.region_offsets.tolist()
    support = ",".join(
        f'{{"id":{sid},"label":{label},"image_feature":{dumps(images[i])},'
        f'"regions":{dumps(regions[off[i] : off[i + 1]])}}}'
        for i, (sid, label) in enumerate(zip(episode.sample_ids.tolist(), episode.labels.tolist()))
    )
    query_entries = ",".join(
        f'{{"id":{qid},"label":{label},"image_feature":{dumps(queries[i])}}}'
        for i, (qid, label) in enumerate(zip(episode.query_ids.tolist(), episode.query_labels.tolist()))
    )
    write_output(path, (
        f'{{"version":{EPISODE_FORMAT_VERSION},"feature_dim":{episode.feature_dim},'
        f'"way":{episode.way},"support":[{support}],"queries":[{query_entries}]}}\n'
    ).encode())


def output_target(path) -> Path | None:
    """The file write_output replaces for path, links resolved, or None where it writes in place.

    It writes in place to a path that exists but is not a regular file (a
    FIFO, /dev/null, a terminal): replacing it would put a file there instead.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except (FileNotFoundError, NotADirectoryError):
        pass
    return Path(os.path.realpath(path))


def write_output(path, data: bytes) -> None:
    """Write data in place or to a sibling temporary file that then replaces output_target(path).

    A write that raises leaves the old file, or none, and no temporary file;
    the temporary is not fsynced, so a crash or power loss may still leave a
    short file. Mode bits follow the umask; a link keeps naming the written file.
    The temporary's name is 22 bytes whatever the output's, so any name that fits gets one.
    """
    target = output_target(path)
    if target is None:
        with open(path, "wb") as fh:
            fh.write(data)
        return
    tmp = target.with_name(f".deta-{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
