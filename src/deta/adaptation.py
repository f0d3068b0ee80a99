"""Trainable model and the per-task adaptation loop.

The trainable surface is a residual linear adapter over the raw features
plus a two-layer projection head whose output is unit-normalized. Each
iteration redraws regions, recomputes relevance weights on the adapter's
region features, refreshes the image-weight accumulator, evaluates the
combined loss on the projected embeddings and takes one plain SGD step.
Gradients are backpropagated by hand; weights never receive gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .episodes import TaskEpisode, resample_regions
from .errors import DegenerateVectorError, DivergenceError, InvalidParameterError
from .losses import EmbeddingBatch, LossHyperparams, combined_loss
from .numerics import check_finite
from .relevance import (
    ImageWeightAccumulator,
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
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backpropagate through normalization and both layers.

    Returns parameter gradients and the gradient at the head's input.
    """
    out, norms = cache["out"], cache["norms"]
    inner = (d_out * out).sum(axis=1, keepdims=True)
    d_pre2 = (d_out - inner * out) / norms[:, None]
    grads = {
        "head.w2": d_pre2.T @ cache["hidden"],
        "head.b2": d_pre2.sum(axis=0),
    }
    d_hidden = d_pre2 @ head.w2
    d_pre1 = d_hidden * (cache["pre1"] > 0.0)
    grads["head.w1"] = d_pre1.T @ cache["x"]
    grads["head.b1"] = d_pre1.sum(axis=0)
    d_x = d_pre1 @ head.w1
    return grads, d_x


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    learning_rate: float,
    iteration: int = 0,
) -> dict[str, np.ndarray]:
    """One plain gradient-descent step: p <- p - lr * g, no momentum or decay."""
    if learning_rate < 0.0:
        raise InvalidParameterError("learning rate must be non-negative")
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise InvalidParameterError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {name}", iteration=iteration)
        out[name] = p - learning_rate * g
    return out


@dataclass(frozen=True)
class AblationFlags:
    """Which components of the method are active."""

    cora: bool = True
    local_loss: bool = True
    global_loss: bool = True
    accumulator: bool = True
    out_of_class_term: bool = True

    def mask(self) -> str:
        bits = (self.cora, self.local_loss, self.global_loss, self.accumulator, self.out_of_class_term)
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
    jitter: float = 0.05  # region perturbation for episodes without a generative source
    ablation: AblationFlags = field(default_factory=AblationFlags)
    record_weight_trace: bool = False

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
class LossSummary:
    iteration: int
    l_local: float
    l_global: float
    combined: float


@dataclass
class AdaptedState:
    """Everything the inference stage needs after adaptation finished.

    The accumulator's omega follows support order; sample_ids names its entries.
    """

    adapter: AdapterParams
    head: ProjectionHead
    accumulator: ImageWeightAccumulator
    sample_ids: tuple[int, ...]
    loss_trace: list[LossSummary]
    final_image_weights: dict[int, float]
    config: AdaptationConfig
    weight_trace: list[dict] | None = None

    def to_dict(self) -> dict:
        return {
            "adapter": {"w": self.adapter.w.tolist(), "b": self.adapter.b.tolist()},
            "head": {
                "w1": self.head.w1.tolist(),
                "b1": self.head.b1.tolist(),
                "w2": self.head.w2.tolist(),
                "b2": self.head.b2.tolist(),
            },
            "omega": {
                str(k): v for k, v in sorted(zip(self.sample_ids, self.accumulator.omega.tolist()))
            },
            "final_image_weights": {str(k): v for k, v in sorted(self.final_image_weights.items())},
            "iterations": self.accumulator.iteration,
            "loss_trace": [
                {"iteration": t.iteration, "local": t.l_local, "global": t.l_global, "combined": t.combined}
                for t in self.loss_trace
            ],
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _params_of(adapter: AdapterParams, head: ProjectionHead) -> dict[str, np.ndarray]:
    return {
        "adapter.w": adapter.w,
        "adapter.b": adapter.b,
        "head.w1": head.w1,
        "head.b1": head.b1,
        "head.w2": head.w2,
        "head.b2": head.b2,
    }


def _rebuild(params: dict[str, np.ndarray]) -> tuple[AdapterParams, ProjectionHead]:
    adapter = AdapterParams(w=params["adapter.w"], b=params["adapter.b"])
    head = ProjectionHead(
        w1=params["head.w1"], b1=params["head.b1"], w2=params["head.w2"], b2=params["head.b2"]
    )
    return adapter, head


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

    adapter = init_adapter(d)
    head = init_head(d, d, cfg.embed_dim, np.random.default_rng(init_ss))
    acc = ImageWeightAccumulator(momentum=cfg.momentum)

    sample_ids = tuple(s.sample_id for s in episode.support)
    n = len(sample_ids)
    class_of = np.array([s.label for s in episode.support])
    sample_of = np.repeat(np.arange(n), k)
    x_img = np.stack([np.asarray(s.image_feature, dtype=np.float64) for s in episode.support])

    loss_trace: list[LossSummary] = []
    weight_trace: list[dict] | None = [] if cfg.record_weight_trace else None
    trace_order = sorted(range(n), key=sample_ids.__getitem__)
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
                region_weights(a_reg, sample_of, class_of, use_out_of_class=ab.out_of_class_term)
                if ab.cora
                else uniform_weight_table(sample_of, class_of)
            )
            acc = accumulate_image_weights(acc, table)
            instantaneous = table.sample_means()
            omega_used = acc.omega if ab.accumulator else instantaneous

            e_img, img_cache = head_forward(head, a_img)
            e_reg, reg_cache = head_forward(head, a_reg)
            batch = EmbeddingBatch(e_img, e_reg, sample_of, class_of, embed_dim=cfg.embed_dim)

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
        loss_trace.append(LossSummary(t, loss.l_local, loss.l_global, loss.combined))

        if weight_trace is not None:
            phi, psi = table.per_class_phi.tolist(), table.per_class_psi.tolist()
            lam, om = table.weights.tolist(), omega_used.tolist()
            for pos in trace_order:
                for slot in range(k):
                    row = pos * k + slot
                    weight_trace.append(
                        {
                            "iteration": t,
                            "sample_id": sample_ids[pos],
                            "region_slot": slot,
                            "phi": phi[row],
                            "psi": psi[row],
                            "lambda": lam[row],
                            "omega": om[pos],
                        }
                    )

        if train:
            head_g_img, da_img = head_backward(head, img_cache, loss.image_grads)
            head_g_reg, da_reg = head_backward(head, reg_cache, loss.region_grads)
            dw_img, db_img = adapter_backward(x_img, da_img)
            dw_reg, db_reg = adapter_backward(x_reg, da_reg)
            grads = {
                "adapter.w": dw_img + dw_reg,
                "adapter.b": db_img + db_reg,
                "head.w1": head_g_img["head.w1"] + head_g_reg["head.w1"],
                "head.b1": head_g_img["head.b1"] + head_g_reg["head.b1"],
                "head.w2": head_g_img["head.w2"] + head_g_reg["head.w2"],
                "head.b2": head_g_img["head.b2"] + head_g_reg["head.b2"],
            }
            params = sgd_step(_params_of(adapter, head), grads, cfg.learning_rate, iteration=t)
            adapter, head = _rebuild(params)

    final = acc.omega if ab.accumulator else instantaneous
    return AdaptedState(
        adapter=adapter,
        head=head,
        accumulator=acc,
        sample_ids=sample_ids,
        loss_trace=loss_trace,
        final_image_weights=dict(zip(sample_ids, final.tolist())),
        config=cfg,
        weight_trace=weight_trace,
    )
