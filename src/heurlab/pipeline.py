"""Training-data pipeline: pool extraction from optimal paths, utility-driven
sampling, dedup-based selection, and corpus export.

A pool example is one node of an optimal plan; its regression target is the
residual d* = (plan_len - g) - quick_h, the gap between the exact
distance-to-goal and the quick heuristic. Node utility grows with depth,
C(n) = ln(plan_len / (plan_len - g)), and the planner-aware sampler draws
nodes per instance from SoftMax(C / tau) without replacement.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import domains
from .domains import Domain, PuzzleInstance
from .oracle import SectionLabel, section_of
from .search import SearchResult
from .util import derive_seed, read_jsonl, write_jsonl
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
    EXCLUSION_SPLIT = "exclusion_split"


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
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.total_budget is not None and self.total_budget < 1:
            raise ValueError("total_budget must be positive")
        if self.per_problem_m is not None and self.per_problem_m < 1:
            raise ValueError("per_problem_m must be positive")


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
            quick_h = float(domains.quick_heuristic(state, instance))
            d_star = (plan_len - g) - quick_h
            if d_star < 0:
                raise ValueError(
                    f"negative residual on {instance.id} at depth {g}: "
                    "the solve heuristic was not admissible"
                )
            examples.append(
                TrainingExample(
                    instance_id=instance.id,
                    state_key=domains.state_key(state),
                    text=domains.render_ascii(instance, state),
                    quick_h=quick_h,
                    d_star=d_star,
                    g=g,
                    plan_len=plan_len,
                    section=section_of(g, plan_len),
                    feature_vector=tuple(domains.feature_vector(state, instance)),
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
    if c_variant is CVariant.LOG_RATIO:
        return math.log(plan_len / (plan_len - g))
    if c_variant is CVariant.RATIO:
        return plan_len / (plan_len - g)
    return g / plan_len


def softmax(logits: Sequence[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(x - top) for x in logits]
    total = sum(exps)
    return [e / total for e in exps]


def planner_aware_probs(group: Sequence[TrainingExample], tau: float, c_variant: CVariant) -> list[float]:
    if tau <= 0:
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
        total = sum(w[i] for i in alive)
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


def sample_planner_aware(
    pool: Sequence[TrainingExample],
    m: int,
    tau: float,
    c_variant: CVariant = CVariant.LOG_RATIO,
    seed: int = 0,
) -> list[TrainingExample]:
    """Per-instance SoftMax(C/tau) draws without replacement, m per instance
    (whole group when smaller). Groups are processed in instance-id order with
    per-instance derived seeds, so results do not depend on pool interleaving."""
    out = []
    groups = group_by_instance(pool)
    for instance_id in sorted(groups):
        group = groups[instance_id]
        rng = random.Random(derive_seed(seed, "planner_aware", instance_id))
        take = min(m, len(group))
        probs = planner_aware_probs(group, tau, c_variant)
        out.extend(weighted_sample_without_replacement(group, probs, take, rng))
    return out


def sample_uniform(pool: Sequence[TrainingExample], m: int, seed: int = 0) -> list[TrainingExample]:
    """Per-instance uniform draws without replacement, m per instance."""
    out = []
    groups = group_by_instance(pool)
    for instance_id in sorted(groups):
        group = groups[instance_id]
        rng = random.Random(derive_seed(seed, "uniform", instance_id))
        out.extend(rng.sample(group, min(m, len(group))))
    return out


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


def select_with_budget(
    pool: Sequence[TrainingExample],
    budget: int,
    seed: int,
    selector: Callable[[Sequence[TrainingExample], int], list[TrainingExample]],
) -> list[TrainingExample]:
    """Apportion a global budget as per-problem m = ceil(budget / #instances),
    then trim the overshoot uniformly."""
    groups = group_by_instance(pool)
    m = per_problem_m(budget, len(groups))
    return trim_to_budget(selector(pool, m), budget, seed)


# ---------------------------------------------------------------------------
# Dedup-based selection over feature vectors

# Most float64 elements the temporaries of one row block may hold together
# (1 MiB): a block's (rows, m) screen arrays take at most an eighth each, and
# the exact recompute works through its survivors in chunks of this size.
DISTANCE_BLOCK_FLOATS = 1 << 17

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


def kmeans(vectors: np.ndarray, k: int, seed: int, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations with seeded initialization.

    Returns (labels, centroids). Empty clusters keep their previous centroid;
    a point equally near several centroids joins the first.
    """
    n = len(vectors)
    k = max(1, min(k, n))
    rng = random.Random(seed)
    centroids = vectors[rng.sample(range(n), k)].astype(float)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
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
    return np.clip(sim, -1.0, 1.0)


def _cluster_geometry(vectors: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> list[tuple]:
    """Per non-empty cluster: member indices, their cosine matrix and their
    distances to the centroid. Built once, reused at every dedup threshold;
    the matrices together hold the sum of the squared cluster sizes."""
    clusters = []
    for c in range(len(centroids)):
        idxs = np.flatnonzero(labels == c)
        if len(idxs) == 0:
            continue
        local = vectors[idxs]
        dist = np.linalg.norm(local - centroids[c][None, :], axis=1)
        clusters.append((idxs, _cosine_matrix(local), dist.tolist()))
    return clusters


def _dedup_survivors(clusters: list[tuple], threshold: float) -> list[int]:
    """Indices kept after near-duplicate removal within each cluster.

    For a too-similar pair the member closer to its centroid goes, keeping the
    outskirts of each cluster, a denser spread of distinct situations.
    """
    survivors = []
    for idxs, sim, dist in clusters:
        above = np.triu(sim > threshold, 1)
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
    threshold in 0.01 steps toward 1.0 (less aggressive dedup) until enough
    survive. A budget larger than the pool returns the whole pool.
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
    clusters = _cluster_geometry(vectors, labels, centroids)
    threshold = similarity_threshold
    survivors = _dedup_survivors(clusters, threshold)
    while len(survivors) < budget and threshold < 1.0:
        threshold = min(1.0, round(threshold + 0.01, 10))
        survivors = _dedup_survivors(clusters, threshold)
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


def combine_with_baseline(
    pool: Sequence[TrainingExample],
    m: int,
    baseline_selector: Callable[[Sequence[TrainingExample], int, int], list[TrainingExample]],
    tau: float,
    c_variant: CVariant = CVariant.LOG_RATIO,
    seed: int = 0,
) -> list[TrainingExample]:
    """Per instance: m baseline draws, m planner-aware draws, then resample m
    from the union with intersection members double-weighted.

    ``baseline_selector(group, m, seed)`` must draw without replacement.
    """
    out = []
    groups = group_by_instance(pool)
    for instance_id in sorted(groups):
        group = groups[instance_id]
        take = min(m, len(group))
        s1 = baseline_selector(group, take, derive_seed(seed, "baseline", instance_id))
        probs = planner_aware_probs(group, tau, c_variant)
        rng = random.Random(derive_seed(seed, "planner_aware", instance_id))
        s2 = weighted_sample_without_replacement(group, probs, take, rng)
        out.extend(combine_resample(s1, s2, take, random.Random(derive_seed(seed, "combine", instance_id))))
    return out


def uniform_baseline(group: Sequence[TrainingExample], m: int, seed: int) -> list[TrainingExample]:
    return random.Random(seed).sample(list(group), m)


def semdedup_baseline(group: Sequence[TrainingExample], m: int, seed: int) -> list[TrainingExample]:
    return semdedup_select(group, m, seed=seed)


# ---------------------------------------------------------------------------
# Section-restricted splits

_SECTION_CHOICES = {
    "all": None,
    **{s.value: frozenset([s]) for s in SectionLabel},
    **{f"~{s.value}": frozenset(set(SectionLabel) - {s}) for s in SectionLabel},
}


def build_section_split(pool: Sequence[TrainingExample], selector: str, size: int, seed: int = 0) -> list[TrainingExample]:
    """Uniform sample of exactly ``size`` from the named section(s).

    ``selector`` is one of all/initial/middle/end or an exclusion ~initial/
    ~middle/~end. Raises if the section holds fewer than ``size`` examples.
    """
    key = selector.lower()
    if key not in _SECTION_CHOICES:
        raise ValueError(f"unknown section selector {selector!r}; choose from {sorted(_SECTION_CHOICES)}")
    wanted = _SECTION_CHOICES[key]
    eligible = list(pool) if wanted is None else [ex for ex in pool if ex.section in wanted]
    if len(eligible) < size:
        raise ValueError(
            f"section {selector!r} holds {len(eligible)} examples, {size - len(eligible)} short of {size}"
        )
    rng = random.Random(derive_seed(seed, "section", key))
    return rng.sample(eligible, size)


# ---------------------------------------------------------------------------
# Strategy dispatch used by the end-to-end pipeline

def run_strategy(pool: Sequence[TrainingExample], spec: SamplingSpec) -> list[TrainingExample]:
    if spec.strategy in (Strategy.SECTION_SPLIT, Strategy.EXCLUSION_SPLIT):
        if spec.section is None or spec.total_budget is None:
            raise ValueError("section splits need section and total_budget")
        selector = spec.section if spec.strategy is Strategy.SECTION_SPLIT else f"~{spec.section}"
        return build_section_split(pool, selector, spec.total_budget, spec.seed)
    if spec.strategy is Strategy.SEMDEDUP:
        if spec.total_budget is None:
            raise ValueError("semdedup selection is budget-global; set total_budget")
        return semdedup_select(pool, spec.total_budget, spec.n_clusters, spec.similarity_threshold, spec.seed)

    if spec.total_budget is None and spec.per_problem_m is None:
        raise ValueError("sampling needs total_budget or per_problem_m")
    if spec.strategy is Strategy.UNIFORM:
        selector = lambda p, m: sample_uniform(p, m, spec.seed)
    elif spec.strategy is Strategy.PLANNER_AWARE:
        selector = lambda p, m: sample_planner_aware(p, m, spec.tau, spec.c_variant, spec.seed)
    elif spec.strategy is Strategy.COMBINED:
        selector = lambda p, m: combine_with_baseline(p, m, semdedup_baseline, spec.tau, spec.c_variant, spec.seed)
    else:
        raise ValueError(f"unknown strategy {spec.strategy}")
    if spec.total_budget is not None:
        return select_with_budget(pool, spec.total_budget, spec.seed, selector)
    return selector(pool, spec.per_problem_m)


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
    write_jsonl(path, [example_to_record(ex) for ex in pool])


def read_pool(path: str | Path) -> list[TrainingExample]:
    return [record_to_example(rec) for rec in read_jsonl(path)]


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


def export_corpus(examples: Sequence[TrainingExample], format: str, path: str | Path, seed: int = 0) -> int:
    """Write a line-delimited corpus: ``records`` round-trips every example
    field; ``prompts`` emits (prompt, target) pairs with target d*."""
    if format == "records":
        write_pool(examples, path)
    elif format == "prompts":
        write_jsonl(
            path,
            [
                {"prompt": render_prompt(ex, seed), "target": ex.d_star, "instance_id": ex.instance_id, "g": ex.g}
                for ex in examples
            ],
        )
    else:
        raise ValueError(f"unknown corpus format {format!r}; use 'records' or 'prompts'")
    return len(examples)
