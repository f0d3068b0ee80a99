"""Metamorphic properties of the whole pipeline under relabelings of the support set
and reorderings of the queries, and of the region weights under rescaling of the
region features.

The episode is a loaded one (no redraw scale) whose support samples
store exactly k regions, adapted with jitter 0: resampling then returns every
stored region, so a run depends on the support set and not on how it is
ordered or named.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deta.adaptation import AdaptationConfig, adapt_task
from deta.classifier import predict
from deta.episodes import SyntheticNoiseConfig, episode_from_dict, generate_synthetic_episode
from deta.relevance import region_weights
from oracles import episode_dict

WAY, SHOT, K, QUERY_SHOT = 4, 3, 2, 6
N, Q = WAY * SHOT, WAY * QUERY_SHOT
CFG = AdaptationConfig(iterations=6, k_regions=K, jitter=0.0, embed_dim=16, seed=3)
# Reordering rows reorders floating-point sums, which moves each result by a few
# ulps; 2**20 ulps at 1.0 (about 2.3e-10) leaves room for that to grow over the
# iterations and is far below any change in what is computed.
TOL = 2.0**20 * np.finfo(np.float64).eps


def run(doc):
    episode = episode_from_dict(doc)
    state = adapt_task(episode, CFG)
    losses = np.array([(r.l_local, r.l_global, r.combined) for r in state.trace])
    return state.final_image_weights, predict(episode, state), losses


@pytest.fixture(scope="module")
def base():
    episode = generate_synthetic_episode(
        WAY, SHOT, K, 12, SyntheticNoiseConfig(label_noise_ratio=0.25), seed=21, query_shot=QUERY_SHOT
    )
    doc = episode_dict(episode)
    return doc, *run(doc)


@settings(max_examples=15)
@given(
    order=st.permutations(range(N)),
    ids=st.lists(st.integers(0, 10**6), min_size=N, max_size=N, unique=True),
)
def test_support_order_and_ids_leave_omega_and_predictions(base, order, ids):
    doc, omega, pred, losses = base
    support = [dict(doc["support"][p], id=ids[p]) for p in order]
    new_omega, new_pred, new_losses = run({**doc, "support": support})
    position = {entry["id"]: j for j, entry in enumerate(support)}
    for p in range(N):
        assert abs(new_omega[position[ids[p]]] - omega[p]) <= TOL
    assert np.array_equal(new_pred, pred)
    assert np.abs(new_losses - losses).max() <= TOL


@settings(max_examples=15)
@given(order=st.permutations(range(Q)))
def test_query_order_permutes_predictions_only(base, order):
    # adaptation never reads the queries, so its results stay bit for bit
    doc, omega, pred, losses = base
    new_omega, new_pred, new_losses = run({**doc, "queries": [doc["queries"][j] for j in order]})
    assert np.array_equal(new_pred, pred[order])
    assert new_omega.tobytes() == omega.tobytes()
    assert new_losses.tobytes() == losses.tobytes()


@settings(max_examples=15)
@given(perm=st.permutations(range(WAY)))
def test_class_relabeling_permutes_predictions(base, perm):
    doc, _, pred, losses = base
    support = [dict(entry, label=perm[entry["label"]]) for entry in doc["support"]]
    queries = [dict(entry, label=perm[entry["label"]]) for entry in doc["queries"]]
    _, new_pred, new_losses = run({**doc, "support": support, "queries": queries})
    assert np.array_equal(new_pred, np.array(perm)[pred])
    assert np.abs(new_losses - losses).max() <= TOL


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**16),
    scales=st.lists(st.floats(1e-3, 1e3), min_size=3 * 3 * 2, max_size=3 * 3 * 2),
)
def test_region_weights_ignore_positive_row_scaling(seed, scales):
    # 3 classes x 3 samples x 2 regions: only the directions of the features matter
    features = np.random.default_rng(seed).standard_normal((18, 5))
    sample_of = np.repeat(np.arange(9), 2)
    class_of = np.repeat(np.arange(3), 3)
    base = region_weights(features, sample_of, class_of)
    scaled = region_weights(np.array(scales)[:, None] * features, sample_of, class_of)
    for field in ("weights", "per_class_phi", "per_class_psi"):
        np.testing.assert_allclose(getattr(scaled, field), getattr(base, field), rtol=1e-12)
