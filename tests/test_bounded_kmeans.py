"""``pipeline.kmeans`` measures only the points whose distance bounds leave
room for a change of cluster. Its labels and centroids must still be those of
the plain Lloyd loop that measures every point against every centroid at
every iteration, bit for bit, on any data."""

from collections import Counter

import numpy as np
import pytest

from heurlab import pipeline
from heurlab.pipeline import kmeans
from test_blocked_selection import reference_kmeans


KINDS = ["grid", "duplicates", "blobs", "near_duplicates", "k_near_n", "one_dim", "tiny", "large", "nan_row"]


def _case(kind, rng):
    n = int(rng.integers(2, 160))
    d = 1 if kind == "one_dim" else int(rng.choice([1, 2, 3, 5, 8, 13]))
    k = int(rng.integers(2, min(n, 24) + 1))
    if kind == "grid":  # exact ties between centroids at every scale of the loop
        vectors = rng.integers(0, 3, size=(n, d)).astype(float)
    elif kind == "duplicates":  # repeated rows: repeated seeds, so clusters that empty
        base = rng.integers(-2, 3, size=(max(1, n // 6), d)).astype(float)
        vectors = base[rng.integers(0, len(base), size=n)]
    elif kind == "blobs":
        centers = rng.normal(scale=10.0, size=(int(rng.integers(2, 9)), d))
        vectors = centers[rng.integers(0, len(centers), size=n)] + rng.normal(size=(n, d))
    elif kind == "near_duplicates":
        base = rng.normal(size=(max(1, n // 4), d))
        vectors = base[rng.integers(0, len(base), size=n)] + rng.normal(scale=1e-13, size=(n, d))
    elif kind == "k_near_n":
        vectors = rng.integers(0, 4, size=(n, d)).astype(float) + rng.normal(scale=0.1, size=(n, d))
        k = n - int(rng.integers(0, 3))
    elif kind == "one_dim":
        vectors = rng.integers(0, 6, size=(n, 1)) * rng.choice([1.0, 0.5, 1e-3])
    elif kind == "tiny":  # squares underflow into subnormals
        vectors = rng.normal(scale=1e-160, size=(n, d))
    elif kind == "large":
        vectors = rng.normal(scale=1e150, size=(n, d))
    else:  # a row of NaN makes its cluster's centroid NaN
        vectors = rng.normal(size=(n, d))
        vectors[int(rng.integers(0, n))] = np.nan
    return vectors, max(1, k)


def _measured_kmeans(monkeypatch, vectors, k, seed, no_bound_passes=False):
    """``kmeans(vectors, k, seed)`` and the number of rows it handed to the
    screen. With eps taken as 1 no bound passes, so every point is measured
    at every iteration, as in the plain loop: n x iterations rows."""
    rows = []
    screen = pipeline._screen

    def counting_screen(q, *args):
        rows.append(len(q))
        return screen(q, *args)

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "_screen", counting_screen)
        if no_bound_passes:
            patched.setattr(pipeline, "_EPS", 1.0)
        return kmeans(vectors, k, seed), sum(rows)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the NaN row's screen and bounds
def test_bounded_kmeans_matches_the_plain_loop(monkeypatch):
    rng = np.random.default_rng(24)
    seen = Counter()
    for trial in range(360):
        kind = KINDS[trial % len(KINDS)]
        vectors, k = _case(kind, rng)
        want_labels, want_centroids = reference_kmeans(vectors, k, seed=trial)
        (labels, centroids), measured = _measured_kmeans(monkeypatch, vectors, k, trial)
        assert labels.tobytes() == want_labels.tobytes(), (trial, kind)
        assert centroids.tobytes() == want_centroids.tobytes(), (trial, kind)

        d2 = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        seen["ties"] += bool(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any())
        seen["empty"] += len(np.unique(labels)) < len(centroids)
        seen["k_is_n"] += len(centroids) == len(vectors)
        seen["skipped"] += measured < _measured_kmeans(monkeypatch, vectors, k, trial, no_bound_passes=True)[1]
    assert seen["ties"] >= 60 and seen["empty"] >= 30 and seen["k_is_n"] >= 10, seen
    assert seen["skipped"] >= 120, seen


def _blobs(seed, n=3000, d=12, k=20):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=20.0, size=(k, d))
    return centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, d)), k


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_kmeans_measures_under_half_the_points(monkeypatch, seed):
    vectors, k = _blobs(seed)
    want_labels, want_centroids = reference_kmeans(vectors, k, seed=seed)
    (labels, centroids), measured = _measured_kmeans(monkeypatch, vectors, k, seed)
    (all_labels, all_centroids), every = _measured_kmeans(monkeypatch, vectors, k, seed, no_bound_passes=True)
    iterations = every // len(vectors)
    assert every == iterations * len(vectors) and iterations >= 4
    assert measured < every / 2
    for got_labels, got_centroids in ((labels, centroids), (all_labels, all_centroids)):
        assert got_labels.tobytes() == want_labels.tobytes()
        assert got_centroids.tobytes() == want_centroids.tobytes()
