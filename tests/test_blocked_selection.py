"""Row-blocked distances and per-cluster dedup geometry against the
full-broadcast reference implementations they replaced.

The references below are the earlier code: one ``(n, m, d)`` broadcast per
k-means iteration and per k-NN prediction, and a dedup pass that rebuilds
every cluster's cosine matrix at each threshold. The k-means reference labels
each point by the first column of a stable argsort, not ``argmin``: the same
label on finite data, and a NaN distance ordered last. The blocked versions,
and the dedup ladder's one-byte pair levels, must reproduce them bit for bit.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from heurlab import pipeline
from heurlab.domains import Domain
from heurlab.models import ModelKind, ResidualModel, predict_batch, train_residual_model
from heurlab.oracle import section_of
from heurlab.pipeline import TrainingExample, kmeans, semdedup_select
from heurlab.util import derive_seed


# ---------------------------------------------------------------------------
# Reference implementations (full broadcast)

def reference_kmeans(vectors, k, seed, max_iter=50):
    n = len(vectors)
    k = max(1, min(k, n))
    rng = random.Random(seed)
    centroids = vectors[rng.sample(range(n), k)].astype(float)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        # argmin on finite data; a NaN distance goes last, as pipeline.kmeans orders it
        new_labels = np.argsort(d2, axis=1, kind="stable")[:, 0]
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            members = vectors[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return labels, centroids


def reference_predict_batch(model, features):
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    z = model.standardize(x)
    d2 = ((z[:, None, :] - model.neighbors[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    nearest = order[:, : model.k]
    return model.targets[nearest].mean(axis=1)


def reference_dedup_survivors(vectors, labels, centroids, threshold):
    survivors = []
    for c in range(len(centroids)):
        idxs = np.flatnonzero(labels == c)
        if len(idxs) == 0:
            continue
        if len(idxs) == 1:
            survivors.append(int(idxs[0]))
            continue
        local = vectors[idxs]
        sim = pipeline._cosine_matrix(local)
        dist = np.linalg.norm(local - centroids[c][None, :], axis=1)
        alive = [True] * len(idxs)
        for a in range(len(idxs)):
            if not alive[a]:
                continue
            for b in range(a + 1, len(idxs)):
                if not alive[b]:
                    continue
                if sim[a, b] > threshold:
                    if (dist[a], a) <= (dist[b], b):
                        alive[a] = False
                        break
                    alive[b] = False
        survivors.extend(int(idxs[i]) for i in range(len(idxs)) if alive[i])
    return sorted(survivors)


def reference_semdedup_indices(vectors, budget, seed, threshold=0.95):
    k = math.ceil(len(vectors) / 200)
    labels, centroids = reference_kmeans(vectors, k, derive_seed(seed, "kmeans"))
    survivors = reference_dedup_survivors(vectors, labels, centroids, threshold)
    while len(survivors) < budget and threshold < 1.0:
        threshold = min(1.0, round(threshold + 0.01, 10))
        survivors = reference_dedup_survivors(vectors, labels, centroids, threshold)
    if len(survivors) > budget:
        rng = random.Random(derive_seed(seed, "downsample"))
        keep = sorted(rng.sample(range(len(survivors)), budget))
        survivors = [survivors[i] for i in keep]
    return survivors


# ---------------------------------------------------------------------------
# Data

def _example(i, vector, d_star, n_instances=20):
    g = i % 10
    return TrainingExample(
        instance_id=f"p{i % n_instances:02d}",
        state_key=str(i).encode(),
        text=str(i),
        quick_h=1.0,
        d_star=d_star,
        g=g,
        plan_len=11,
        section=section_of(g, 11),
        feature_vector=tuple(vector),
        domain=Domain.MAZE,
    )


def _near_duplicate_vectors(n, d, seed):
    """Vectors on a coarse grid (so exact duplicates and equal distances
    occur) plus jittered copies of earlier rows (near-duplicates)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(n, d)).astype(float)
    copies = rng.integers(0, n // 2, size=n // 3)
    base[n // 2 : n // 2 + len(copies)] = base[copies] + rng.normal(0.0, 1e-3, size=(len(copies), d))
    return base


def _tie_model(seed):
    """k-NN model whose neighbours repeat in shuffled positions with distinct
    targets, so ties at the k-th distance must keep insertion order."""
    rng = np.random.default_rng(seed)
    distinct = rng.integers(-2, 3, size=(41, 5)).astype(float)
    rows = rng.permutation(np.repeat(np.arange(41), 4))
    neighbors = distinct[rows]
    targets = rng.normal(size=len(neighbors))
    return ResidualModel(
        kind=ModelKind.KNN,
        domain=Domain.MAZE,
        mu=np.zeros(5),
        sigma=np.ones(5),
        k=6,
        neighbors=neighbors,
        targets=targets,
    ), distinct


# ---------------------------------------------------------------------------
# Blocked kernel equivalence

@pytest.mark.parametrize("block_floats", [None, 910, 1])
def test_blocked_kmeans_matches_full_broadcast(monkeypatch, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(pipeline, "DISTANCE_BLOCK_FLOATS", block_floats)
    vectors = _near_duplicate_vectors(1003, 7, seed=4)
    labels, centroids = kmeans(vectors, 13, seed=9)
    ref_labels, ref_centroids = reference_kmeans(vectors, 13, seed=9)
    assert labels.dtype == ref_labels.dtype
    assert labels.tobytes() == ref_labels.tobytes()
    assert centroids.tobytes() == ref_centroids.tobytes()


def test_blocked_kmeans_matches_at_default_block_size(monkeypatch):
    # 25 centroids x 30 dims gives blocks of 174 rows, which do not divide 5003.
    rows = pipeline.DISTANCE_BLOCK_FLOATS // (25 * 30)
    assert 1 < rows < 5003 and 5003 % rows
    vectors = np.random.default_rng(1).normal(size=(5003, 30))
    monkeypatch.setattr(pipeline, "KMEANS_MAX_ITER", 5)
    labels, centroids = kmeans(vectors, 25, seed=2)
    ref_labels, ref_centroids = reference_kmeans(vectors, 25, seed=2, max_iter=5)
    assert labels.tobytes() == ref_labels.tobytes()
    assert centroids.tobytes() == ref_centroids.tobytes()


def test_single_centroid_kmeans_matches_lloyd_reference(monkeypatch):
    # With k = 1 (as the combined strategy's per-instance dedup asks) the
    # answer is the plain mean; no distance is computed at all.
    def no_distances(*args, **kwargs):
        raise AssertionError("k = 1 must not compute distances")

    rng = np.random.default_rng(8)
    for trial in range(300):
        n, d = int(rng.integers(1, 120)), int(rng.integers(1, 90))
        if trial % 3 == 0:
            vectors = rng.integers(-3, 4, size=(n, d)).astype(float)  # ties and duplicates
        else:
            vectors = rng.normal(0, 10.0 ** rng.integers(-3, 4), size=(n, d))
        k = 1 if trial % 5 else 4  # the cap at n makes 4 centroids one for single rows
        if k > 1:
            vectors = vectors[:1]
        ref_labels, ref_centroids = reference_kmeans(vectors, k, seed=trial)
        with monkeypatch.context() as patched:
            patched.setattr(pipeline, "nearest_neighbors", no_distances)
            labels, centroids = kmeans(vectors, k, seed=trial)
        assert labels.dtype == ref_labels.dtype and centroids.dtype == ref_centroids.dtype
        assert labels.tobytes() == ref_labels.tobytes()
        assert centroids.shape == ref_centroids.shape
        assert centroids.tobytes() == ref_centroids.tobytes()


def test_kmeans_rejects_empty_input():
    with pytest.raises(ValueError, match="at least one vector"):
        kmeans(np.zeros((0, 3)), 1, seed=0)


@pytest.mark.parametrize("block_floats", [None, 4 * 164 * 5, 1])
def test_blocked_predict_batch_matches_full_broadcast(monkeypatch, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(pipeline, "DISTANCE_BLOCK_FLOATS", block_floats)
    model, distinct = _tie_model(seed=3)
    rng = np.random.default_rng(5)
    # Exact neighbour rows (ties among their copies) and off-grid queries.
    queries = np.vstack([distinct[:20], rng.normal(size=(17, 5))])
    preds = predict_batch(model, queries)
    assert preds.tobytes() == reference_predict_batch(model, queries).tobytes()
    single = predict_batch(model, queries[3])
    assert single.tobytes() == reference_predict_batch(model, queries[3]).tobytes()


def test_blocked_predict_batch_matches_on_trained_model():
    rng = np.random.default_rng(11)
    vectors = rng.integers(0, 3, size=(1200, 30)).astype(float)
    examples = [_example(i, vectors[i], float(rng.normal())) for i in range(len(vectors))]
    model = train_residual_model(examples, kind="knn", k=8, seed=1)
    queries = rng.integers(0, 3, size=(301, 30)).astype(float)
    assert predict_batch(model, queries).tobytes() == reference_predict_batch(model, queries).tobytes()


# ---------------------------------------------------------------------------
# Memory: the distance temporaries stay bounded as the data grows

MEMORY_BOUND_MB = 8.0


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_train_residual_model_memory_is_bounded():
    # One full broadcast to score train MAE would be 900 x 900 x 30 float64 (~185 MB).
    rng = random.Random(7)
    examples = [_example(i, [rng.gauss(0, 1) for _ in range(30)], rng.random()) for i in range(1000)]
    peak = _traced_peak_mb(lambda: train_residual_model(examples, kind="knn", k=8, seed=0))
    assert peak < MEMORY_BOUND_MB


def test_kmeans_memory_is_bounded(monkeypatch):
    # One full-broadcast iteration at 5000 x 25 x 30 would allocate ~29 MB.
    vectors = np.random.default_rng(0).normal(size=(5000, 30))
    monkeypatch.setattr(pipeline, "KMEANS_MAX_ITER", 2)
    peak = _traced_peak_mb(lambda: kmeans(vectors, 25, seed=1))
    assert peak < MEMORY_BOUND_MB


# ---------------------------------------------------------------------------
# Dedup ladder: per-cluster pair levels built once, reused at every threshold

def _ladder_case():
    """Vectors with near-duplicates, clusters with members at equal distance
    from their centroid, a member whose features are NaN, two singleton
    clusters and one empty cluster."""
    rng = np.random.default_rng(21)
    vectors = _near_duplicate_vectors(300, 6, seed=8) + 1.0
    labels = rng.integers(0, 6, size=len(vectors))
    labels[labels == 5] = 4  # cluster 5 stays empty
    centroids = np.vstack([vectors[labels == c].mean(axis=0) if np.any(labels == c) else np.zeros(6) for c in range(6)])
    # Cluster 6: a centroid with members mirrored around it (equal distances)
    # and one NaN member, whose similarity to every other member is NaN.
    center = np.full(6, 2.0)
    mirrored = np.vstack([center + s * e for e in np.eye(6) for s in (1.0, -1.0)] + [center + 0.5 * np.ones(6)] * 2
                         + [np.full(6, np.nan)])
    vectors = np.vstack([vectors, mirrored, [[5.0, 0, 0, 0, 0, 1]], [[0, 5.0, 0, 0, 1, 0]]])
    labels = np.concatenate([labels, np.full(len(mirrored), 6), [7, 8]])
    centroids = np.vstack([centroids, center, vectors[-2], vectors[-1]])
    return vectors, labels, centroids


def test_dedup_ladder_matches_rebuilt_matrices():
    vectors, labels, centroids = _ladder_case()
    nan_member = len(vectors) - 3
    assert pipeline.dedup_ladder(0.95) == [0.95, 0.96, 0.97, 0.98, 0.99, 1.0]
    for start in (0.95, -1.0, 1.0, 1.5):
        ladder = pipeline.dedup_ladder(start)
        clusters = pipeline._cluster_geometry(vectors, labels, centroids, ladder)
        assert all(level.dtype == np.uint8 for _, level, _, _ in clusters)
        counts = []
        for step, threshold in enumerate(ladder):
            survivors = pipeline._dedup_survivors(clusters, step)
            assert survivors == reference_dedup_survivors(vectors, labels, centroids, threshold), (start, step)
            counts.append(len(survivors))
            # Singleton clusters and the NaN member always survive.
            assert {len(vectors) - 2, len(vectors) - 1, nan_member} <= set(survivors)
        # No similarity exceeds 1.0, so the ladder's last step keeps everyone.
        assert counts[-1] == len(vectors)
        if start == 0.95:  # the ladder is exercised: relaxing the threshold keeps more examples
            assert counts == sorted(counts) and counts[0] < counts[-1]
    assert len(pipeline.dedup_ladder(-1.0)) == 201
    assert pipeline.dedup_ladder(1.0) == [1.0] and pipeline.dedup_ladder(1.5) == [1.5]


@pytest.mark.parametrize("threshold", [-1.0 - 1e-9, -1e20, math.nan, math.inf])
def test_dedup_ladder_refuses_a_threshold_below_minus_one_or_not_finite(threshold):
    # From -1e20 the 0.01 step is lost to rounding, and the ladder never ended.
    with pytest.raises(ValueError, match="similarity_threshold must be finite and at least -1"):
        pipeline.dedup_ladder(threshold)


def test_cluster_geometry_holds_one_byte_per_pair():
    # 80 clusters of about 150 members, 1.7 MB of pairs: float64 cosine
    # matrices kept for the whole ladder would hold 8 bytes per pair, 14 MB.
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(12000, 8)) + 3.0
    labels = rng.integers(0, 80, size=len(vectors))
    centroids = np.vstack([vectors[labels == c].mean(axis=0) for c in range(80)])
    pair_mb = float((np.bincount(labels).astype(float) ** 2).sum()) / 2**20
    clusters = []
    peak = _traced_peak_mb(lambda: clusters.extend(pipeline._cluster_geometry(vectors, labels, centroids,
                                                                             pipeline.dedup_ladder(0.95))))
    assert sum(level.nbytes for _, level, _, _ in clusters) == round(pair_mb * 2**20)
    assert peak < 2 * pair_mb


@pytest.mark.parametrize("seed", [0, 1])
def test_semdedup_select_matches_reference(seed):
    vectors = _near_duplicate_vectors(700, 8, seed=seed) + 0.5
    pool = [_example(i, vectors[i], 0.0) for i in range(len(vectors))]
    for budget in (150, 450, 690):
        selected = semdedup_select(pool, budget, seed=seed)
        expected = reference_semdedup_indices(vectors, budget, seed)
        assert [int(ex.state_key) for ex in selected] == expected
