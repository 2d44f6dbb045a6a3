"""``run_strategy`` selects exactly what the former per-strategy samplers did.

The per-instance samplers, the budget wrapper, the per-instance loop, the
depth-ordered grouping and the exclusion split are kept below as they were
before they folded into ``run_strategy``'s draw table and section selector,
so the reference does not call the code it checks. Same seed and spec, same
examples in the same order.
"""

import random
from typing import Callable, Sequence

import pytest

from heurlab.oracle import parse_sections
from heurlab.pipeline import (
    CVariant,
    SamplingSpec,
    Strategy,
    TrainingExample,
    combine_resample,
    per_problem_m,
    planner_aware_probs,
    run_strategy,
    semdedup_select,
    trim_to_budget,
    weighted_sample_without_replacement,
)
from heurlab.util import derive_seed


# --- former code, verbatim -------------------------------------------------

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


def _draw_per_instance(pool: Sequence[TrainingExample], m: int,
                       draw: Callable[[str, list, int], list]) -> list[TrainingExample]:
    """Concatenate ``draw(instance_id, group, take)`` over the instances in id
    order, with take = min(m, len(group)). Each draw seeds itself from the
    instance id, so results do not depend on pool interleaving."""
    out = []
    groups = group_by_instance(pool)
    for instance_id in sorted(groups):
        group = groups[instance_id]
        out.extend(draw(instance_id, group, min(m, len(group))))
    return out


def _planner_aware_draw(group: Sequence[TrainingExample], take: int, tau: float, c_variant: CVariant,
                        seed: int) -> list[TrainingExample]:
    """``take`` SoftMax(C/tau) draws without replacement from one instance's group."""
    rng = random.Random(derive_seed(seed, "planner_aware", group[0].instance_id))
    return weighted_sample_without_replacement(group, planner_aware_probs(group, tau, c_variant), take, rng)


def sample_planner_aware(
    pool: Sequence[TrainingExample],
    m: int,
    tau: float,
    c_variant: CVariant = CVariant.LOG_RATIO,
    seed: int = 0,
) -> list[TrainingExample]:
    """Per-instance SoftMax(C/tau) draws without replacement, m per instance
    (whole group when smaller)."""
    return _draw_per_instance(pool, m, lambda _, group, take: _planner_aware_draw(group, take, tau, c_variant, seed))


def sample_uniform(pool: Sequence[TrainingExample], m: int, seed: int = 0) -> list[TrainingExample]:
    """Per-instance uniform draws without replacement, m per instance."""

    def draw(instance_id, group, take):
        return random.Random(derive_seed(seed, "uniform", instance_id)).sample(group, take)

    return _draw_per_instance(pool, m, draw)


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


def combine_with_baseline(
    pool: Sequence[TrainingExample],
    m: int,
    tau: float,
    c_variant: CVariant = CVariant.LOG_RATIO,
    seed: int = 0,
) -> list[TrainingExample]:
    """Per instance: m semdedup draws, m planner-aware draws, then resample m
    from the union with intersection members double-weighted."""

    def draw(instance_id, group, take):
        s1 = semdedup_select(group, take, seed=derive_seed(seed, "baseline", instance_id))
        s2 = _planner_aware_draw(group, take, tau, c_variant, seed)
        return combine_resample(s1, s2, take, random.Random(derive_seed(seed, "combine", instance_id)))

    return _draw_per_instance(pool, m, draw)


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


def _former_per_instance(pool, spec):
    # The per-instance tail of the former run_strategy.
    if spec.total_budget is None and spec.per_problem_m is None:
        raise ValueError("sampling needs total_budget or per_problem_m")
    if spec.strategy is Strategy.UNIFORM:
        selector = lambda p, m: sample_uniform(p, m, spec.seed)
    elif spec.strategy is Strategy.PLANNER_AWARE:
        selector = lambda p, m: sample_planner_aware(p, m, spec.tau, spec.c_variant, spec.seed)
    elif spec.strategy is Strategy.COMBINED:
        selector = lambda p, m: combine_with_baseline(p, m, spec.tau, spec.c_variant, spec.seed)
    else:
        raise ValueError(f"unknown strategy {spec.strategy}")
    if spec.total_budget is not None:
        return select_with_budget(pool, spec.total_budget, spec.seed, selector)
    return selector(pool, spec.per_problem_m)


def _former_exclusion_split(pool, section, size, seed):
    # The former run_strategy's exclusion_split branch.
    return build_section_split(pool, f"~{section}", size, seed)


# --- the checks --------------------------------------------------------------

@pytest.fixture(scope="module")
def shuffled_pool(maze_pool_150):
    """Seven whole instances plus the last four nodes of an eighth, so one
    group is smaller than every m below, all shuffled."""
    ids = sorted({ex.instance_id for ex in maze_pool_150})[:8]
    pool = [ex for ex in maze_pool_150 if ex.instance_id in ids[:7]]
    pool += [ex for ex in maze_pool_150 if ex.instance_id == ids[7] and ex.g >= ex.plan_len - 4]
    random.Random(11).shuffle(pool)
    return pool


SIZES = [
    {"total_budget": 37},
    {"per_problem_m": 6},
    {"total_budget": 37, "per_problem_m": 3},  # the budget wins
]


@pytest.mark.parametrize("strategy", [Strategy.UNIFORM, Strategy.PLANNER_AWARE, Strategy.COMBINED])
def test_per_instance_strategies_match_the_former_samplers(shuffled_pool, strategy):
    for size in SIZES:
        for seed in range(4):
            for tau, c_variant in [(1.0, CVariant.LOG_RATIO), (0.5, CVariant.LINEAR_DEPTH)]:
                spec = SamplingSpec(strategy, tau=tau, c_variant=c_variant, seed=seed, **size)
                want = _former_per_instance(shuffled_pool, spec)
                assert run_strategy(shuffled_pool, spec) == want, (size, seed, tau)


@pytest.mark.parametrize("section", ["initial", "middle", "end"])
def test_excluding_section_split_matches_the_former_exclusion_split(shuffled_pool, section):
    for seed in range(4):
        spec = SamplingSpec(Strategy.SECTION_SPLIT, section=f"~{section}", total_budget=25, seed=seed)
        want = _former_exclusion_split(shuffled_pool, section, 25, seed)
        assert run_strategy(shuffled_pool, spec) == want, seed

