"""``pipeline.nearest_neighbors`` against the full-broadcast stable argsort it
replaces: the screen with its rounding bound may only ever drop points that
the exact order would not pick, on any data, size and block size."""

import numpy as np
import pytest

from heurlab import pipeline
from heurlab.pipeline import kmeans, nearest_neighbors, prepare_points


def reference(queries, points, k):
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _data(kind, rng, n, m, d):
    if kind == "gaussian":
        return rng.normal(size=(n, d)), rng.normal(size=(m, d))
    if kind == "grid":  # many ties, also at the k-th distance
        return rng.integers(-2, 3, size=(n, d)).astype(float), rng.integers(-2, 3, size=(m, d)).astype(float)
    if kind == "duplicates":
        base = rng.normal(size=(max(1, m // 4), d))
        points = base[rng.integers(0, len(base), size=m)]
        return base[rng.integers(0, len(base), size=n)], points
    if kind == "near_duplicates":
        base = rng.normal(size=(max(1, m // 3), d))
        points = base[rng.integers(0, len(base), size=m)] + rng.normal(scale=1e-13, size=(m, d))
        return base[rng.integers(0, len(base), size=n)], points
    scale = {"tiny": 1e-160, "large": 1e150}[kind]
    return rng.normal(scale=scale, size=(n, d)), rng.normal(scale=scale, size=(m, d))


KINDS = ["gaussian", "grid", "duplicates", "near_duplicates", "tiny", "large"]


def _trials(seed, count):
    rng = np.random.default_rng(seed)
    for t in range(count):
        kind = KINDS[t % len(KINDS)]
        k = int(rng.integers(1, 13))
        m = int(rng.integers(k, 70))
        # d spans numpy's 8-wide unrolled and 128-element pairwise sum blocks.
        d = int(rng.choice([1, 2, 7, 8, 9, 17, 30, 81, 127, 128, 129, 150]))
        n = int(rng.integers(1, 6))
        queries, points = _data(kind, rng, n, m, d)
        yield kind, k, queries, points


@pytest.mark.parametrize("block_floats", [None, 1, 8 * 13 + 5, 977])
def test_matches_stable_argsort_reference(monkeypatch, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(pipeline, "DISTANCE_BLOCK_FLOATS", block_floats)
    for kind, k, queries, points in _trials(seed=block_floats or 0, count=300):
        got = nearest_neighbors(queries, points, k)
        assert got.tobytes() == reference(queries, points, k).tobytes(), (kind, k, points.shape)


@pytest.mark.parametrize("block_floats", [None, 8 * 40 * 3 + 7])
def test_many_query_rows_across_blocks(monkeypatch, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(pipeline, "DISTANCE_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(6)
    for kind in KINDS:
        queries, points = _data(kind, rng, 203, 40, 23)
        for k in (1, 5, 12):
            assert nearest_neighbors(queries, points, k).tobytes() == reference(queries, points, k).tobytes()


def test_prepared_points_give_the_same_answer():
    rng = np.random.default_rng(2)
    queries, points = _data("grid", rng, 9, 50, 30)
    prepared = prepare_points(points)
    assert prepared[0].flags.c_contiguous and prepared[0].shape == (30, 50)
    got = nearest_neighbors(queries, points, 7, prepared)
    assert got.tobytes() == reference(queries, points, 7).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the screen meets inf - inf
def test_non_finite_distances_sort_last():
    rng = np.random.default_rng(3)
    queries, points = _data("gaussian", rng, 4, 12, 5)
    points[2, 1] = np.nan
    points[7, 0] = np.inf
    for k in (1, 10, 12):
        assert nearest_neighbors(queries, points, k).tobytes() == reference(queries, points, k).tobytes()


def test_first_index_wins_ties_as_in_kmeans_argmin():
    # The query sits halfway between the two centroids, in either order.
    centroids = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]])
    assert nearest_neighbors(np.array([[1.0, 0.0]]), centroids, 1).tolist() == [[0]]
    assert nearest_neighbors(np.array([[1.0, 0.0]]), centroids[[1, 0, 2]], 1).tolist() == [[0]]
    # k = 1 equals argmin (first index on ties) on tie-heavy grid data.
    rng = np.random.default_rng(4)
    vectors, centroids = _data("grid", rng, 500, 9, 3)
    d2 = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1).max() > 1  # ties occur
    assert np.array_equal(nearest_neighbors(vectors, centroids, 1)[:, 0], d2.argmin(axis=1))


def test_kmeans_assigns_ties_to_the_first_centroid():
    # Identical points give identical seeds: every point ties between the
    # centroids and joins the first, so the others stay empty.
    vectors = np.ones((6, 3))
    labels, centroids = kmeans(vectors, 3, seed=0, max_iter=5)
    assert labels.tolist() == [0] * 6
    assert centroids.tolist() == [[1.0] * 3] * 3


@pytest.mark.parametrize("k", [0, 5])
def test_rejects_k_outside_point_count(k):
    with pytest.raises(ValueError, match="must lie in 1..4"):
        nearest_neighbors(np.zeros((2, 3)), np.zeros((4, 3)), k)


def test_empty_queries():
    assert nearest_neighbors(np.zeros((0, 3)), np.ones((4, 3)), 2).shape == (0, 2)
