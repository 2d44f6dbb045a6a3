"""Training-data pipeline: pool extraction from optimal paths, utility-driven
sampling, dedup-based selection, and corpus export.

A pool example is one node of an optimal plan; its regression target is the
residual d* = (plan_len - g) - quick_h, the gap between the exact
distance-to-goal and the quick heuristic. Node utility grows with depth,
C(n) = ln(plan_len / (plan_len - g)), and the planner-aware sampler draws
nodes per instance from SoftMax(C / tau) without replacement. Every
selection strategy is reached through ``run_strategy``.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import domains
from .domains import Domain, PuzzleInstance
from .oracle import SectionLabel, parse_sections, section_of
from .search import SearchResult
from .util import derive_seed, read_jsonl, serial_sum, write_jsonl
from .generation import stp_symbol_table


class CVariant(str, Enum):
    LOG_RATIO = "log_ratio"  # ln(L / (L - g))
    RATIO = "ratio"  # L / (L - g)
    LINEAR_DEPTH = "linear_depth"  # g / L


class Strategy(str, Enum):
    UNIFORM = "uniform"
    PLANNER_AWARE = "planner_aware"
    SEMDEDUP = "semdedup"
    COMBINED = "combined"  # semdedup baseline merged with planner-aware draws
    SECTION_SPLIT = "section_split"


@dataclass(frozen=True)
class TrainingExample:
    instance_id: str
    state_key: bytes
    text: str  # board rendering of this node's state
    quick_h: float
    d_star: float
    g: int
    plan_len: int
    section: SectionLabel
    feature_vector: tuple[float, ...]
    domain: Domain


@dataclass(frozen=True)
class SamplingSpec:
    strategy: Strategy = Strategy.UNIFORM
    tau: float = 1.0
    c_variant: CVariant = CVariant.LOG_RATIO
    total_budget: int | None = None
    per_problem_m: int | None = None
    section: str | None = None
    n_clusters: int | None = None
    similarity_threshold: float = 0.95
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))  # a plain name is its strategy
        if not self.tau > 0:  # refuses NaN too
            raise ValueError("tau must be positive")
        if self.total_budget is not None and self.total_budget < 1:
            raise ValueError("total_budget must be positive")
        if self.per_problem_m is not None and self.per_problem_m < 1:
            raise ValueError("per_problem_m must be positive")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        dedup_ladder(self.similarity_threshold)  # refuses a threshold semdedup cannot use


def extract_pool(solved: Iterable[tuple[PuzzleInstance, SearchResult]]) -> tuple[list[TrainingExample], int]:
    """One example per optimal-path node, goal node excluded.

    Callers must pass solves done with an admissible heuristic so paths are
    optimal. Unsolved results are skipped; the second return value counts them.
    """
    examples: list[TrainingExample] = []
    skipped = 0
    for instance, result in solved:
        if not result.solved:
            skipped += 1
            continue
        plan_len = result.path_length
        for g, state in enumerate(result.path[:-1]):
            features = tuple(domains.feature_vector(state, instance))
            quick_h = features[0]  # every domain's column 0 is its quick heuristic
            d_star = (plan_len - g) - quick_h
            if d_star < 0:
                raise ValueError(
                    f"negative residual on {instance.id} at depth {g}: "
                    "the solve heuristic was not admissible"
                )
            examples.append(
                TrainingExample(
                    instance_id=instance.id,
                    state_key=state.key(),
                    text=domains.render_ascii(instance, state),
                    quick_h=quick_h,
                    d_star=d_star,
                    g=g,
                    plan_len=plan_len,
                    section=section_of(g, plan_len),
                    feature_vector=features,
                    domain=instance.domain,
                )
            )
    return examples, skipped


def utility(g: int, plan_len: int, c_variant: CVariant = CVariant.LOG_RATIO) -> float:
    """Depth utility of an optimal-path node; undefined at or past the goal."""
    if plan_len <= 0:
        raise ValueError("plan_len must be positive")
    if g < 0:
        raise ValueError("g must be nonnegative")
    if g >= plan_len:
        raise ValueError(f"utility undefined for g={g} >= plan_len={plan_len}")
    c_variant = CVariant(c_variant)  # a plain "ratio" names the same variant
    if c_variant is CVariant.LOG_RATIO:
        return math.log(plan_len / (plan_len - g))
    if c_variant is CVariant.RATIO:
        return plan_len / (plan_len - g)
    return g / plan_len


def softmax(logits: Sequence[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(x - top) for x in logits]
    total = serial_sum(exps)
    return [e / total for e in exps]


def planner_aware_probs(group: Sequence[TrainingExample], tau: float, c_variant: CVariant) -> list[float]:
    if not tau > 0:  # refuses NaN too
        raise ValueError("tau must be positive")
    return softmax([utility(e.g, e.plan_len, c_variant) / tau for e in group])


def weighted_sample_without_replacement(items: Sequence, weights: Sequence[float], m: int, rng: random.Random) -> list:
    """Successive draws with renormalization over the remaining items."""
    if m > len(items):
        raise ValueError(f"cannot draw {m} of {len(items)} items without replacement")
    alive = list(range(len(items)))
    w = [float(x) for x in weights]
    picked = []
    for _ in range(m):
        total = serial_sum(w[i] for i in alive)
        r = rng.random() * total
        acc = 0.0
        chosen_pos = len(alive) - 1
        for pos, i in enumerate(alive):
            acc += w[i]
            if r < acc:
                chosen_pos = pos
                break
        picked.append(items[alive.pop(chosen_pos)])
    return picked


def group_by_instance(pool: Sequence[TrainingExample]) -> dict[str, list[TrainingExample]]:
    """Group pool examples per instance, each group in depth order.

    Depth is unique within an instance (one example per path node), so the
    grouping does not depend on how the pool happens to be interleaved.
    """
    groups: dict[str, list[TrainingExample]] = {}
    for ex in pool:
        groups.setdefault(ex.instance_id, []).append(ex)
    for group in groups.values():
        group.sort(key=lambda ex: ex.g)
    return groups


def per_problem_m(budget: int, n_instances: int) -> int:
    if budget < 1 or n_instances < 1:
        raise ValueError("budget and instance count must be positive")
    return math.ceil(budget / n_instances)


def trim_to_budget(selected: Sequence[TrainingExample], budget: int, seed: int) -> list[TrainingExample]:
    """Uniformly drop the overshoot from a per-instance selection, keeping order."""
    if len(selected) <= budget:
        return list(selected)
    rng = random.Random(derive_seed(seed, "trim"))
    drop = set(rng.sample(range(len(selected)), len(selected) - budget))
    return [ex for i, ex in enumerate(selected) if i not in drop]


# ---------------------------------------------------------------------------
# Dedup-based selection over feature vectors

# Most float64 elements the temporaries of one row block may hold together
# (1 MiB): a block's (rows, m) screen arrays take at most an eighth each, and
# the exact recompute works through its survivors in chunks of this size.
DISTANCE_BLOCK_FLOATS = 1 << 17

KMEANS_MAX_ITER = 50  # Lloyd iterations before k-means stops without converging

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def prepare_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-point data ``nearest_neighbors`` screens with: a contiguous
    transposed copy (so the screen is one plain GEMM) and the squared norms.
    Worth keeping when the same points are searched many times."""
    return np.ascontiguousarray(points.T), np.einsum("ij,ij->i", points, points)


def nearest_neighbors(
    queries: np.ndarray,
    points: np.ndarray,
    k: int,
    prepared: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Indices of the ``k`` nearest ``points`` to each query, ordered by
    (squared Euclidean distance, index): the first ``k`` columns of a stable
    argsort over the full-broadcast ``((q - p) ** 2).sum()``, bit for bit.

    Per row block of queries, a screen ``|q|² + |p|² - 2 q·p`` with a rounding
    bound ``err`` keeps every point whose lower bound is not above the k-th
    smallest upper bound; only those survivors get the exact row-major
    ``(q - p)²`` sum, which is then sorted. ``prepared`` is
    ``prepare_points(points)``, computed here when not given.

    The bound. With unit roundoff u = eps/2, γ_n = n·u/(1 - n·u) and
    S = |q|² + |p|², each of |q|², |p|² and q·p (any summation order, with or
    without FMA) is off by at most γ_d times its sum of absolute products,
    which totals γ_d·S for the norms and γ_d·S for 2·q·p; the two final
    additions add u·S and 2u·S more. The exact sum itself is off from the
    true distance D by γ_(d+2)·D, with D <= 2S. So |screen - exact| <=
    (2γ_d + 3u + 2γ_(d+2))·S ≈ (2d + 3.5)·eps·S <= 2(d + 4)·eps·S. ``err``
    takes 8(d + 4)·eps·S, four times that, to cover its own rounding; the
    absolute term 8(d + 4)·2⁻¹⁰⁷⁴ covers the products that underflow into
    subnormals, each off by at most half of 2⁻¹⁰⁷⁴. Writing the test as
    ``~(lower > kth)`` sends NaN and inf screens to the exact path.
    """
    m, d = points.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} must lie in 1..{m}")
    points_t, points_sq = prepare_points(points) if prepared is None else prepared
    scale = 8.0 * (d + 4)
    rows = max(1, DISTANCE_BLOCK_FLOATS // (8 * m))
    chunk = max(1, DISTANCE_BLOCK_FLOATS // max(1, d))
    nearest = np.empty((len(queries), k), dtype=np.intp)
    for start in range(0, len(queries), rows):
        q = queries[start : start + rows]
        err = np.add.outer(np.einsum("ij,ij->i", q, q), points_sq)
        approx = q @ points_t
        approx *= -2.0
        approx += err
        err *= scale * _EPS
        err += scale * _TINY
        kth = np.partition(approx + err, k - 1, axis=1)[:, k - 1, None]
        lower = np.subtract(approx, err, out=approx)
        row, col = np.divmod(np.flatnonzero(~(lower > kth)), m)
        d2 = np.empty(len(row))
        for s in range(0, len(row), chunk):
            diff = q[row[s : s + chunk]] - points[col[s : s + chunk]]
            np.square(diff, out=diff)
            d2[s : s + chunk] = diff.sum(axis=1)
        # Every row keeps at least k survivors, grouped by row after the sort.
        order = np.lexsort((col, d2, row))
        first = np.searchsorted(row, np.arange(len(q)))
        nearest[start : start + len(q)] = col[order][first[:, None] + np.arange(k)]
    return nearest


def kmeans(vectors: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations with seeded initialization, at most ``KMEANS_MAX_ITER``.

    Returns (labels, centroids). Empty clusters keep their previous centroid;
    a point equally near several centroids joins the first.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("kmeans needs at least one vector")
    k = max(1, min(k, n))
    if k == 1:
        # One centroid: every point joins it, and one mean step is the fixed point.
        return np.zeros(n, dtype=int), vectors.mean(axis=0, keepdims=True)
    rng = random.Random(seed)
    centroids = vectors[rng.sample(range(n), k)].astype(float)
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        new_labels = nearest_neighbors(vectors, centroids, 1)[:, 0]
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            members = vectors[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return labels, centroids


def _cosine_matrix(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms < 1e-12, 1.0, norms)
    unit = vectors / safe[:, None]
    sim = unit @ unit.T
    return np.clip(sim, -1.0, 1.0, out=sim)


def dedup_ladder(threshold: float) -> list[float]:
    """The similarity thresholds semdedup tries in turn: ``threshold``, then
    0.01 higher at each step (rounded to 10 places), up to 1.0.

    Cosine similarity never falls below -1, so a lower threshold dedups
    exactly as -1 does; it is refused, because far enough below it the 0.01
    step is lost to rounding and the ladder never ends. From -1 the ladder
    has 201 thresholds, and it rises strictly until it ends.
    """
    if not -1.0 <= threshold < math.inf:  # refuses NaN too
        raise ValueError(f"similarity_threshold must be finite and at least -1, got {threshold}")
    ladder = [threshold]
    while ladder[-1] < 1.0:
        ladder.append(min(1.0, round(ladder[-1] + 0.01, 10)))
    return ladder


def _cluster_geometry(vectors: np.ndarray, labels: np.ndarray, centroids: np.ndarray,
                      ladder: Sequence[float]) -> list[tuple]:
    """Per non-empty cluster: member indices, the ``uint8`` dedup level of each
    member pair, the highest of those levels, and the members' distances to
    the centroid. Built once, reused at every step of ``ladder``.

    A pair's level, kept in the upper triangle, counts the thresholds of
    ``ladder`` that its cosine similarity exceeds. The ladder rises strictly,
    so the similarity exceeds ``ladder[step]`` exactly when the level exceeds
    ``step``; a NaN similarity exceeds none. So each pair costs one byte, and
    a cluster's float cosine matrix lives only while its levels are counted,
    one compare per threshold (at most 201).
    """
    clusters = []
    for c in range(len(centroids)):
        idxs = np.flatnonzero(labels == c)
        if len(idxs) == 0:
            continue
        local = vectors[idxs]
        dist = np.linalg.norm(local - centroids[c][None, :], axis=1)
        sim = _cosine_matrix(local)
        level = np.zeros(sim.shape, dtype=np.uint8)
        above = np.empty(sim.shape, dtype=bool)
        for threshold in ladder:
            level += np.greater(sim, threshold, out=above)
        level = np.triu(level, 1)
        clusters.append((idxs, level, int(level.max()), dist.tolist()))
    return clusters


def _dedup_survivors(clusters: list[tuple], step: int) -> list[int]:
    """Indices kept after near-duplicate removal within each cluster, at the
    threshold ``ladder[step]`` of the ladder the clusters were built on.

    For a too-similar pair the member closer to its centroid goes, keeping the
    outskirts of each cluster, a denser spread of distinct situations.
    """
    survivors = []
    for idxs, level, top, dist in clusters:
        if top <= step:  # no pair above the threshold: every member stays
            survivors.extend(idxs.tolist())
            continue
        above = level > step
        alive = [True] * len(idxs)
        for a in range(len(idxs)):
            if not alive[a]:
                continue
            for b in np.flatnonzero(above[a]).tolist():
                if not alive[b]:
                    continue
                # Drop the one nearer the centroid; ties drop the earlier index.
                if (dist[a], a) <= (dist[b], b):
                    alive[a] = False
                    break
                alive[b] = False
        survivors.extend(int(idxs[i]) for i in range(len(idxs)) if alive[i])
    return sorted(survivors)


def semdedup_select(
    pool: Sequence[TrainingExample],
    budget: int,
    n_clusters: int | None = None,
    similarity_threshold: float = 0.95,
    seed: int = 0,
) -> list[TrainingExample]:
    """Cluster feature vectors, drop near-duplicates, land on the budget.

    Over budget: uniform downsample of survivors. Under budget: relax the
    threshold up ``dedup_ladder`` toward 1.0 (less aggressive dedup) until
    enough survive. A budget larger than the pool returns the whole pool.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if budget > len(pool):
        warnings.warn(f"budget {budget} exceeds pool size {len(pool)}; taking the whole pool")
        return list(pool)
    if budget == len(pool):
        return list(pool)
    vectors = np.array([ex.feature_vector for ex in pool], dtype=float)
    k = n_clusters if n_clusters is not None else math.ceil(len(pool) / 200)
    labels, centroids = kmeans(vectors, k, derive_seed(seed, "kmeans"))
    ladder = dedup_ladder(similarity_threshold)
    clusters = _cluster_geometry(vectors, labels, centroids, ladder)
    for step in range(len(ladder)):
        survivors = _dedup_survivors(clusters, step)
        if len(survivors) >= budget:
            break
    if len(survivors) > budget:
        rng = random.Random(derive_seed(seed, "downsample"))
        keep = sorted(rng.sample(range(len(survivors)), budget))
        survivors = [survivors[i] for i in keep]
    return [pool[i] for i in survivors]


# ---------------------------------------------------------------------------
# Combining a baseline selection with planner-aware draws

def combine_resample(
    s1: Sequence[TrainingExample], s2: Sequence[TrainingExample], m: int, rng: random.Random
) -> list[TrainingExample]:
    """Resample m nodes from s1 union s2; members of both sets weigh double."""
    union: list[TrainingExample] = []
    seen = set()
    in_both = set(s1) & set(s2)
    for ex in list(s1) + list(s2):
        if ex not in seen:
            seen.add(ex)
            union.append(ex)
    denom = len(s1) + len(s2)
    weights = [(2.0 if ex in in_both else 1.0) / denom for ex in union]
    take = min(m, len(union))
    return weighted_sample_without_replacement(union, weights, take, rng)


# ---------------------------------------------------------------------------
# Section-restricted splits

def build_section_split(pool: Sequence[TrainingExample], selector: str, size: int, seed: int = 0) -> list[TrainingExample]:
    """Uniform sample of exactly ``size`` from the sections that ``selector``
    names (see ``oracle.parse_sections``). Raises if they hold fewer than
    ``size`` examples.
    """
    wanted = parse_sections(selector)
    eligible = [ex for ex in pool if ex.section in wanted]
    if len(eligible) < size:
        raise ValueError(
            f"section {selector!r} holds {len(eligible)} examples, {size - len(eligible)} short of {size}"
        )
    rng = random.Random(derive_seed(seed, "section", selector.lower()))
    return rng.sample(eligible, size)


# ---------------------------------------------------------------------------
# Strategy dispatch: the one selection path

def _uniform_draw(group: Sequence[TrainingExample], take: int, spec: SamplingSpec) -> list[TrainingExample]:
    return random.Random(derive_seed(spec.seed, "uniform", group[0].instance_id)).sample(group, take)


def _planner_aware_draw(group: Sequence[TrainingExample], take: int, spec: SamplingSpec) -> list[TrainingExample]:
    """``take`` SoftMax(C/tau) draws without replacement."""
    rng = random.Random(derive_seed(spec.seed, "planner_aware", group[0].instance_id))
    return weighted_sample_without_replacement(group, planner_aware_probs(group, spec.tau, spec.c_variant), take, rng)


def _combined_draw(group: Sequence[TrainingExample], take: int, spec: SamplingSpec) -> list[TrainingExample]:
    """``take`` semdedup draws and ``take`` planner-aware draws, then ``take``
    resampled from their union with intersection members double-weighted."""
    instance_id = group[0].instance_id
    s1 = semdedup_select(group, take, spec.n_clusters, spec.similarity_threshold,
                         derive_seed(spec.seed, "baseline", instance_id))
    s2 = _planner_aware_draw(group, take, spec)
    return combine_resample(s1, s2, take, random.Random(derive_seed(spec.seed, "combine", instance_id)))


# The per-instance strategies: each draws ``take`` examples from one
# instance's depth-ordered group, seeding itself from the instance id.
_DRAWS = {
    Strategy.UNIFORM: _uniform_draw,
    Strategy.PLANNER_AWARE: _planner_aware_draw,
    Strategy.COMBINED: _combined_draw,
}

# The SamplingSpec fields each strategy reads besides strategy and seed.
READS = {
    Strategy.UNIFORM: frozenset({"total_budget", "per_problem_m"}),
    Strategy.PLANNER_AWARE: frozenset({"total_budget", "per_problem_m", "tau", "c_variant"}),
    Strategy.COMBINED: frozenset(
        {"total_budget", "per_problem_m", "tau", "c_variant", "n_clusters", "similarity_threshold"}
    ),
    Strategy.SEMDEDUP: frozenset({"total_budget", "n_clusters", "similarity_threshold"}),
    Strategy.SECTION_SPLIT: frozenset({"total_budget", "section"}),
}

# The SamplingSpec fields each strategy needs: at least one of each group set.
NEEDS = {
    Strategy.UNIFORM: (("total_budget", "per_problem_m"),),
    Strategy.PLANNER_AWARE: (("total_budget", "per_problem_m"),),
    Strategy.COMBINED: (("total_budget", "per_problem_m"),),
    Strategy.SEMDEDUP: (("total_budget",),),
    Strategy.SECTION_SPLIT: (("section",), ("total_budget",)),
}


def unmet_needs(spec: SamplingSpec, name=str) -> list[str]:
    """Each ``NEEDS`` group of ``spec``'s strategy that ``spec`` leaves unset,
    as its fields written by ``name`` and joined by ``or``."""
    return [" or ".join(map(name, group)) for group in NEEDS[spec.strategy]
            if all(getattr(spec, field) is None for field in group)]


def run_strategy(pool: Sequence[TrainingExample], spec: SamplingSpec) -> list[TrainingExample]:
    """Select from ``pool`` as ``spec`` says.

    ``section_split`` and ``semdedup`` select from the whole pool. Every other
    strategy concatenates its per-instance draws of m examples (the whole
    group when smaller) over the instance ids in sorted order, so the result
    does not depend on how the pool is interleaved. A ``total_budget`` sets
    m = ceil(budget / #instances), taking precedence over ``per_problem_m``,
    and the overshoot is then trimmed uniformly.
    """
    lacking = unmet_needs(spec)
    if lacking:
        raise ValueError(f"{spec.strategy.value} selection needs {' and '.join(lacking)}")
    if spec.strategy is Strategy.SECTION_SPLIT:
        return build_section_split(pool, spec.section, spec.total_budget, spec.seed)
    if spec.strategy is Strategy.SEMDEDUP:
        return semdedup_select(pool, spec.total_budget, spec.n_clusters, spec.similarity_threshold, spec.seed)

    draw = _DRAWS[spec.strategy]
    groups = group_by_instance(pool)
    m = spec.per_problem_m if spec.total_budget is None else per_problem_m(spec.total_budget, len(groups))
    selected = []
    for instance_id in sorted(groups):
        group = groups[instance_id]
        selected.extend(draw(group, min(m, len(group)), spec))
    return selected if spec.total_budget is None else trim_to_budget(selected, spec.total_budget, spec.seed)


# ---------------------------------------------------------------------------
# Corpus export

def example_to_record(ex: TrainingExample) -> dict:
    return {
        "instance_id": ex.instance_id,
        "state_key": ex.state_key.hex(),
        "text": ex.text,
        "quick_h": ex.quick_h,
        "d_star": ex.d_star,
        "g": ex.g,
        "plan_len": ex.plan_len,
        "section": ex.section.value,
        "feature_vector": list(ex.feature_vector),
        "domain": ex.domain.value,
    }


def record_to_example(rec: dict) -> TrainingExample:
    return TrainingExample(
        instance_id=rec["instance_id"],
        state_key=bytes.fromhex(rec["state_key"]),
        text=rec["text"],
        quick_h=rec["quick_h"],
        d_star=rec["d_star"],
        g=rec["g"],
        plan_len=rec["plan_len"],
        section=SectionLabel(rec["section"]),
        feature_vector=tuple(rec["feature_vector"]),
        domain=Domain(rec["domain"]),
    )


def write_pool(pool: Sequence[TrainingExample], path: str | Path) -> None:
    write_jsonl(path, (example_to_record(ex) for ex in pool))


def read_pool(path: str | Path) -> list[TrainingExample]:
    """The examples of a pool file. A record with another number of features
    than the first fails naming the file and the record."""
    pool = read_jsonl(path, record_to_example)
    for number, ex in enumerate(pool, 1):
        if len(ex.feature_vector) != len(pool[0].feature_vector):
            raise ValueError(f"{path}: record {number} has {len(ex.feature_vector)} features, "
                             f"record 1 has {len(pool[0].feature_vector)}")
    return pool


PROMPT_TEMPLATE = """import torch
def get_improved_heuristic(heuristic: int, difference: int):
    '''
        A function that takes in the admissible A* heuristic and adds to it the difference, to return a heuristic closer to the optimal cost to the goal. The difference should be calculated keeping in mind the optimal cost of the puzzle.
    '''
    return heuristic + difference

# The difference is calculated by observing the {domain} puzzle and deducing the optimal cost to goal. The heuristic is subtracted from this optimal cost
# {puzzle_legend}
puzzle_str = "{puzzle_str}"
improved_heuristic = get_improved_heuristic({heuristic},"""


def _format_heuristic(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def render_prompt(ex: TrainingExample, seed: int = 0) -> str:
    """Fill the code-style prompt for one example.

    Sliding-tile boards are remapped to the instance's letter alphabet and the
    goal line rides along with the legend comment; grid domains embed their
    board rendering directly.
    """
    if ex.domain is Domain.STP:
        tiles = [int(tok) for tok in ex.text.split()]
        width = math.isqrt(len(tiles))
        table = stp_symbol_table(width, derive_seed(seed, "stp_symbols", ex.instance_id))
        puzzle_str = " ".join(table[t] for t in tiles)
        goal_str = " ".join(table[t] for t in sorted(table))
        legend = f'goal = "{goal_str}"\n# legend =  "{domains.LEGENDS[ex.domain]}"'
    else:
        puzzle_str = ex.text
        legend = f'legend =  "{domains.LEGENDS[ex.domain]}"'
    return PROMPT_TEMPLATE.format(
        domain=ex.domain.value,
        puzzle_legend=legend,
        puzzle_str=puzzle_str,
        heuristic=_format_heuristic(ex.quick_h),
    )


def export_corpus(examples: Sequence[TrainingExample], path: str | Path, seed: int = 0) -> int:
    """Write one (prompt, target) record per example, target d*; ``write_pool``
    writes the examples themselves."""
    write_jsonl(
        path,
        [
            {"prompt": render_prompt(ex, seed), "target": ex.d_star, "instance_id": ex.instance_id, "g": ex.g}
            for ex in examples
        ],
    )
    return len(examples)
