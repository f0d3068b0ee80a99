"""Trainable model and the per-task adaptation loop.

The trainable surface is a residual linear adapter over the raw features
plus a two-layer projection head whose output is unit-normalized. Each
iteration redraws regions, recomputes relevance weights on the adapter's
region features, refreshes the momentum-smoothed image weights, evaluates the
combined loss on the projected embeddings and takes one plain SGD step.
Gradients are backpropagated by hand; weights never receive gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import orjson

from .episodes import CLASS_SEPARATION, CROP_JITTER, TaskEpisode, resample_regions, write_output
from .errors import DegenerateVectorError, DivergenceError, InvalidParameterError
from .losses import EmbeddingBatch, LossHyperparams, LossValue, combined_loss
from .numerics import check_finite
from .relevance import (
    RegionWeightTable,
    accumulate_image_weights,
    region_weights,
    uniform_weight_table,
)


@dataclass
class AdapterParams:
    """Residual linear map over raw features: x -> x + w @ x + b."""

    w: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)


def init_adapter(d: int) -> AdapterParams:
    """Zero-initialized adapter, i.e. the identity map."""
    return AdapterParams(w=np.zeros((d, d)), b=np.zeros(d))


@dataclass
class ProjectionHead:
    """Two-layer rectifier MLP whose output is scaled to unit norm."""

    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (e, h)
    b2: np.ndarray  # (e,)


def init_head(d: int, hidden: int, embed: int, rng: np.random.Generator) -> ProjectionHead:
    """Uniform +-1/sqrt(fan_in) initialization for both layers."""
    s1 = 1.0 / np.sqrt(d)
    s2 = 1.0 / np.sqrt(hidden)
    return ProjectionHead(
        w1=rng.uniform(-s1, s1, size=(hidden, d)),
        b1=rng.uniform(-s1, s1, size=hidden),
        w2=rng.uniform(-s2, s2, size=(embed, hidden)),
        b2=rng.uniform(-s2, s2, size=embed),
    )


def forward_features(adapter: AdapterParams, raw: np.ndarray) -> np.ndarray:
    """Adapter forward pass for a single vector or a batch of row vectors."""
    x = np.asarray(raw, dtype=np.float64)
    if x.shape[-1] != adapter.w.shape[1]:
        raise InvalidParameterError(
            f"feature dimension {x.shape[-1]} does not match adapter dimension {adapter.w.shape[1]}"
        )
    return x + x @ adapter.w.T + adapter.b


def adapter_backward(raw: np.ndarray, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients of the adapter given gradients at its output."""
    return d_out.T @ raw, d_out.sum(axis=0)


def head_forward(head: ProjectionHead, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Project a batch of row vectors to unit embeddings, keeping the cache."""
    pre1 = x @ head.w1.T + head.b1
    hidden = np.maximum(pre1, 0.0)
    pre2 = hidden @ head.w2.T + head.b2
    norms = np.linalg.norm(pre2, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError("projection produced a zero vector before normalization")
    out = pre2 / norms[:, None]
    return out, {"x": x, "pre1": pre1, "hidden": hidden, "out": out, "norms": norms}


def head_backward(
    head: ProjectionHead, cache: dict, d_out: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Backpropagate through normalization and both layers.

    Returns the parameter gradients, in ProjectionHead field order, and the
    gradient at the head's input.
    """
    out, norms = cache["out"], cache["norms"]
    inner = (d_out * out).sum(axis=1, keepdims=True)
    d_pre2 = (d_out - inner * out) / norms[:, None]
    d_pre1 = (d_pre2 @ head.w2) * (cache["pre1"] > 0.0)
    d_w1, d_w2 = d_pre1.T @ cache["x"], d_pre2.T @ cache["hidden"]
    return (d_w1, d_pre1.sum(axis=0), d_w2, d_pre2.sum(axis=0)), d_pre1 @ head.w1


def param_layout(d: int, hidden: int, embed: int) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter group, in the order of the flat parameter vector."""
    return {"adapter.w": (d, d), "adapter.b": (d,), "head.w1": (hidden, d), "head.b1": (hidden,),
            "head.w2": (embed, hidden), "head.b2": (embed,)}


def _group_ends(layout: dict) -> np.ndarray:
    return np.cumsum([math.prod(shape) for shape in layout.values()])


def param_views(theta: np.ndarray, layout: dict) -> tuple[AdapterParams, ProjectionHead]:
    """The adapter and the head as reshaped views of the flat parameter vector."""
    parts = np.split(theta, _group_ends(layout)[:-1])
    w, b, w1, b1, w2, b2 = map(np.reshape, parts, layout.values())
    return AdapterParams(w, b), ProjectionHead(w1, b1, w2, b2)


def flat_gradient(head, img_cache, reg_cache, loss: LossValue, x_img, x_reg) -> np.ndarray:
    """Loss gradient over the flat parameters: the image rows' part plus the region rows' part.

    x_img and x_reg are the raw adapter inputs of the rows in the two head caches.
    """
    head_img, da_img = head_backward(head, img_cache, loss.image_grads)
    head_reg, da_reg = head_backward(head, reg_cache, loss.region_grads)
    img = (*adapter_backward(x_img, da_img), *head_img)
    reg = (*adapter_backward(x_reg, da_reg), *head_reg)
    return np.concatenate([(gi + gr).ravel() for gi, gr in zip(img, reg)])


def sgd_step(theta: np.ndarray, grad: np.ndarray, learning_rate: float, layout: dict, iteration=0):
    """One plain gradient-descent step in place: theta <- theta - lr * grad, no momentum or decay.

    A non-finite gradient raises DivergenceError naming the layout group of
    its first bad entry.
    """
    if grad.shape != theta.shape:
        raise InvalidParameterError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    finite = np.isfinite(grad)
    if not finite.all():
        group = int(np.searchsorted(_group_ends(layout), np.argmin(finite), side="right"))
        raise DivergenceError(f"non-finite gradient for {list(layout)[group]}", iteration=iteration)
    theta -= learning_rate * grad


@dataclass(frozen=True)
class AblationFlags:
    """Which components of the method are active."""

    cora: bool = True
    local_loss: bool = True
    global_loss: bool = True
    accumulator: bool = True

    def mask(self) -> str:
        bits = (self.cora, self.local_loss, self.global_loss, self.accumulator)
        return "".join("1" if b else "0" for b in bits)


@dataclass(frozen=True)
class AdaptationConfig:
    """Knobs of the per-task adaptation loop. The head's hidden width is the feature dimension."""

    iterations: int = 40
    learning_rate: float = 0.05
    k_regions: int = 2
    momentum: float = 0.7
    hp: LossHyperparams = field(default_factory=LossHyperparams)
    seed: int = 0
    embed_dim: int = 128
    jitter: float = CROP_JITTER / CLASS_SEPARATION  # scale of the noise added to each region redraw
    ablation: AblationFlags = field(default_factory=AblationFlags)

    def __post_init__(self):
        check_finite(learning_rate=self.learning_rate, jitter=self.jitter)
        if self.iterations < 1:
            raise InvalidParameterError("iterations must be >= 1")
        if self.learning_rate < 0.0:
            raise InvalidParameterError("learning rate must be non-negative")
        if self.jitter < 0.0:
            raise InvalidParameterError("jitter must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.k_regions < 1:
            raise InvalidParameterError("k_regions must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError("seed must be non-negative")
        if self.embed_dim < 1:
            raise InvalidParameterError("embed_dim must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's region weight table, the image weights its losses used, and the loss parts."""

    table: RegionWeightTable
    image_weights: np.ndarray  # (n,)
    l_local: float
    l_global: float
    combined: float


@dataclass
class AdaptedState:
    """Everything the inference stage needs after adaptation finished.

    final_image_weights, the last trace record's image_weights, is the one (n,)
    image-weight vector, in support order, that predict uses: omega, smoothed by
    momentum, or the instantaneous weights without the accumulator. sample_ids
    names its entries. trace holds one IterationRecord per iteration: 8 * (3r + n)
    bytes of arrays for r region rows, and about 11.3 KB in all at 10-way 10-shot
    k=4 and 3.6 KB at 5-way 10-shot k=2, as tracemalloc measures it. It grows
    with cfg.iterations; run_episode drops each state once scored.
    """

    adapter: AdapterParams
    head: ProjectionHead
    sample_ids: tuple[int, ...]
    trace: list[IterationRecord]

    @property
    def final_image_weights(self) -> np.ndarray:
        return self.trace[-1].image_weights

    def to_dict(self) -> dict:
        return {
            "adapter": {name: v.tolist() for name, v in vars(self.adapter).items()},
            "head": {name: v.tolist() for name, v in vars(self.head).items()},
            "final_image_weights": by_sample_id(self.sample_ids, self.final_image_weights),
            "iterations": len(self.trace),
            "loss_trace": [
                {"iteration": t, "local": r.l_local, "global": r.l_global, "combined": r.combined}
                for t, r in enumerate(self.trace, start=1)
            ],
        }

    def save_json(self, path) -> None:
        """Write to_dict() as one line of orjson; NaN and infinity, which it writes as null, are refused."""
        params = {f"{g}.{k}": v for g in ("adapter", "head") for k, v in vars(getattr(self, g)).items()}
        check_finite(**params, final_image_weights=self.final_image_weights,
                     loss_trace=[(r.l_local, r.l_global, r.combined) for r in self.trace])
        write_output(path, orjson.dumps(self.to_dict()) + b"\n")

    def save_weights_csv(self, path) -> None:
        """Write the weight trace as CSV: rows by iteration, then sample id, then region slot."""
        ids = self.sample_ids
        k = len(self.trace[0].table.weights) // len(ids)
        rows = [p * k + s for p in by_sample_id(ids, np.arange(len(ids))).values() for s in range(k)]
        lines = ["iteration,sample_id,region_slot,phi,psi,lambda,omega\n"]
        for t, record in enumerate(self.trace, start=1):
            table = record.table
            columns = (table.per_class_phi, table.per_class_psi, table.weights, record.image_weights)
            phi, psi, lam, om = (c.tolist() for c in columns)
            # Integers and float reprs never need CSV quoting, so these are csv.writer's bytes.
            lines.extend(
                f"{t},{ids[r // k]},{r % k},{phi[r]!r},{psi[r]!r},{lam[r]!r},{om[r // k]!r}\n" for r in rows
            )
        write_output(path, "".join(lines).encode())


def by_sample_id(sample_ids, values: np.ndarray) -> dict:
    """Support-order values keyed by str(sample id), in increasing id order."""
    return {str(k): v for k, v in sorted(zip(sample_ids, values.tolist()))}


@np.errstate(over="ignore", invalid="ignore")
def adapt_task(episode: TaskEpisode, cfg: AdaptationConfig) -> AdaptedState:
    """Run the full adaptation loop on one episode.

    Deterministic for a fixed (episode, config) pair. Raises DivergenceError,
    tagged with the failing iteration, if an adapter output, the loss or a
    gradient turns non-finite or, once the parameters have been updated, a
    vector that needs a direction collapses to zero norm. A zero-norm vector
    under the initial parameters is the input's fault and raises
    DegenerateVectorError. Every per-iteration array follows support order, with the k
    regions of each sample in consecutive rows. Overflow and invalid-value
    warnings are silenced: the explicit checks above report a blow-up.
    """
    d = episode.feature_dim
    k = cfg.k_regions
    ab = cfg.ablation
    base = np.random.SeedSequence([cfg.seed, episode.seed])
    init_ss, iter_ss = base.spawn(2)
    iter_seeds = iter_ss.generate_state(cfg.iterations, dtype=np.uint64)

    layout = param_layout(d, d, cfg.embed_dim)
    adapter, head = init_adapter(d), init_head(d, d, cfg.embed_dim, np.random.default_rng(init_ss))
    parts = (adapter.w, adapter.b, head.w1, head.b1, head.w2, head.b2)
    theta = np.concatenate([p.ravel() for p in parts])
    adapter, head = param_views(theta, layout)  # sgd_step updates theta, and so both, in place
    omega = None

    sample_ids = tuple(episode.sample_ids.tolist())
    n = len(sample_ids)
    class_of = episode.labels
    sample_of = np.repeat(np.arange(n), k)
    x_img = episode.support_features

    trace: list[IterationRecord] = []
    train = ab.local_loss or ab.global_loss

    for t in range(1, cfg.iterations + 1):
        drawn = resample_regions(episode, k, cfg.jitter, int(iter_seeds[t - 1]))
        x_reg = drawn.reshape(n * k, d)

        a_img = forward_features(adapter, x_img)
        a_reg = forward_features(adapter, x_reg)
        if not (np.all(np.isfinite(a_img)) and np.all(np.isfinite(a_reg))):
            raise DivergenceError("non-finite adapter output", iteration=t)

        try:
            table: RegionWeightTable = (
                region_weights(a_reg, sample_of, class_of)
                if ab.cora
                else uniform_weight_table(sample_of, class_of)
            )
            instantaneous = table.sample_means()
            omega = accumulate_image_weights(omega, instantaneous, cfg.momentum)
            omega_used = omega if ab.accumulator else instantaneous

            e_img, img_cache = head_forward(head, a_img)
            e_reg, reg_cache = head_forward(head, a_reg)
            batch = EmbeddingBatch(e_img, e_reg, sample_of, class_of)

            loss = combined_loss(
                batch,
                table.weights,
                omega_used,
                cfg.hp,
                include_local=ab.local_loss,
                include_global=ab.global_loss,
            )
        except DegenerateVectorError as exc:
            if t == 1 or not train:
                raise  # the parameters are still the initial ones, so the input is at fault
            raise DivergenceError(str(exc), iteration=t) from exc
        if not np.isfinite(loss.combined):
            raise DivergenceError(f"non-finite loss {loss.combined}", iteration=t)
        trace.append(IterationRecord(table, omega_used, loss.l_local, loss.l_global, loss.combined))

        if train:
            grad = flat_gradient(head, img_cache, reg_cache, loss, x_img, x_reg)
            sgd_step(theta, grad, cfg.learning_rate, layout, iteration=t)

    return AdaptedState(adapter=adapter, head=head, sample_ids=sample_ids, trace=trace)
