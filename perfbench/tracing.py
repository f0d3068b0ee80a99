"""Spans and counters recorded from outside the deta package.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed, so untraced runs
execute the unmodified package. Each wrapper is installed under the name by
which its caller looks the function up (the package imports with
``from .x import y``), e.g. ``deta.adaptation.region_weights`` rather than
``deta.relevance.region_weights``.

Spans are kept in memory and written as JSON lines when the run ends. The
program is single-threaded and never waits on a queue, a lock or I/O
concurrency, so spans carry busy time only and no wait time is recorded.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict


def _local_flops(args, kwargs) -> int:
    """Computed flop count of one local_compactness_loss call, from its shapes.

    Two (n, n, e) matrix products dominate: the weighted Gram matrix and the
    gradient product. The elementwise softmax and gradient algebra add about
    a dozen operations per entry of the (n, n) matrices.
    """
    batch = args[0] if args else kwargs["batch"]
    n = len(batch.region_embeddings)
    e = batch.embed_dim
    return 4 * n * n * e + 12 * n * n


def _file_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Wrapped calls that adapt_task makes itself in one iteration: resampling,
# two adapter forwards, region weights, the accumulator and sample_means,
# two head forwards and the combined loss. The second pattern adds the
# backward pass and the SGD step, which are skipped when both losses are off.
_ITERATION_CALLS = (
    {"episodes.resample": 1, "adaptation.adapter": 2, "relevance.weights": 1,
     "relevance.accumulate": 2, "adaptation.head": 2, "losses.combined": 1},
    {"episodes.resample": 1, "adaptation.adapter": 5, "relevance.weights": 1,
     "relevance.accumulate": 2, "adaptation.head": 4, "losses.combined": 1},
)


class Tracer:
    """Span recorder that wraps the public functions of each deta layer."""

    def __init__(self, mods):
        self.spans: list = []  # (span id, parent id, episode id, name, start ns, end ns)
        self.counts: Counter = Counter()
        self.raised: dict[int, type] = {}  # span id -> type of the exception it raised
        self.episode = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        a, c, h, lo, r, cl = (
            mods.adaptation, mods.cli, mods.harness, mods.losses, mods.relevance, mods.classifier
        )
        spans = [
            (h, "run_episode", "harness.run_episode"),
            (c, "main", "cli.main"),
            (h, "generate_synthetic_episode", "episodes.generate"),
            (c, "load_episode_file", "episodes.load"),
            (h, "adapt_task", "adaptation.adapt_task"),
            (c, "adapt_task", "adaptation.adapt_task"),
            (h, "evaluate", "classifier.evaluate"),
            (c, "evaluate", "classifier.evaluate"),
            (h, "plain_ncc_accuracy", "classifier.baseline"),
            (c, "plain_ncc_accuracy", "classifier.baseline"),
            (a, "resample_regions", "episodes.resample"),
            (a, "forward_features", "adaptation.adapter"),
            (a, "adapter_backward", "adaptation.adapter"),
            (a, "sgd_step", "adaptation.adapter"),
            (a, "head_forward", "adaptation.head"),
            (a, "head_backward", "adaptation.head"),
            (a, "region_weights", "relevance.weights"),
            (a, "uniform_weight_table", "relevance.weights"),
            (a, "accumulate_image_weights", "relevance.accumulate"),
            (r.RegionWeightTable, "sample_means", "relevance.accumulate"),
            (a, "combined_loss", "losses.combined"),
            (lo, "local_compactness_loss", "losses.local"),
            (lo, "global_dispersion_loss", "losses.global"),
            (r, "softmax", "numerics.softmax"),
        ]
        hooks = {"losses.local": ("losses.local.flop", _local_flops),
                 "episodes.load": ("episodes.load.bytes", _file_bytes)}
        for owner, attr, name in spans:
            self._add(owner, attr, self._span_wrapper(getattr(owner, attr), name, hooks.get(name)))
        for owner, attr, name in (
            (r.RegionIndex, "__hash__", "relevance.region_index_hash"),
            (cl, "classify", "classifier.classify"),
        ):
            self._add(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        self._divergence = mods.errors.DivergenceError

    def _add(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def _span_wrapper(self, fn, name: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.raised[sid] = type(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.episode, name, start, end)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, episode, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "episode": episode,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")

    def _self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children.

        The children cover disjoint parts of their parent because the
        program is single-threaded.
        """
        own = [end - start for _, _, _, _, start, end in self.spans]
        for sid, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= self.spans[sid][5] - self.spans[sid][4]
        return own

    def summary(self) -> dict:
        """Calls, and inclusive and self time in ms, per span name.

        Inclusive time counts only the outermost span of each name, so a
        name nested in itself is not counted twice.
        """
        own = self._self_ns()
        inclusive = defaultdict(float)
        self_ms = defaultdict(float)
        calls = Counter()
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            self_ms[name] += own[sid] / 1e6
            while parent is not None and self.spans[parent][3] != name:
                parent = self.spans[parent][1]
            if parent is None:
                inclusive[name] += (end - start) / 1e6
        return {"calls": calls, "inclusive_ms": dict(inclusive), "self_ms": dict(self_ms)}

    def diverged_calls(self, name: str) -> int:
        return sum(self.spans[sid][3] == name and issubclass(kind, self._divergence)
                   for sid, kind in self.raised.items())

    def structure_errors(self) -> list[str]:
        """Spans that do not lie inside their parent's interval, and adapt_task
        calls whose own wrapped calls do not repeat one iteration's pattern."""
        errors = []
        children = defaultdict(Counter)
        for sid, parent, _, name, start, end in self.spans:
            if parent is None:
                continue
            _, _, _, parent_name, parent_start, parent_end = self.spans[parent]
            if not parent_start <= start <= end <= parent_end:
                errors.append(f"span {sid} ({name}) lies outside its parent {parent}")
            if parent_name == "adaptation.adapt_task":
                children[parent][name] += 1
        for sid, _, episode, name, _, _ in self.spans:
            if name != "adaptation.adapt_task" or sid in self.raised:
                continue
            calls = children[sid]
            iterations = calls["episodes.resample"]
            if iterations == 0 or not any(
                calls == Counter({k: v * iterations for k, v in pattern.items()})
                for pattern in _ITERATION_CALLS
            ):
                errors.append(f"adapt_task span {sid} of episode {episode} made {dict(calls)}")
        return errors

    def adapt_accounting(self) -> tuple[float, dict[str, float]]:
        """Traced adapt_task time and the self time of each span name inside it, in ms.

        The self times add up to the adapt_task time by construction, so this
        is a breakdown, not a check.
        """
        own = self._self_ns()
        inside = [False] * len(self.spans)
        total = 0.0
        parts = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            if name == "adaptation.adapt_task":
                total += (end - start) / 1e6
            elif parent is None or not inside[parent]:
                continue
            inside[sid] = True
            parts[name] += own[sid] / 1e6
        return total, dict(parts)
