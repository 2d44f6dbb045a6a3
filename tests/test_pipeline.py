"""Training-pool extraction and the selection strategies."""

import dataclasses
import inspect
import math
import random
import re

import pytest

from heurlab import domains, evaluation, generation, pipeline
from heurlab.domains import Domain, maze
from heurlab.oracle import SectionLabel, parse_sections, section_of
from heurlab.pipeline import (
    CVariant,
    SamplingSpec,
    Strategy,
    TrainingExample,
    build_section_split,
    combine_resample,
    example_to_record,
    export_corpus,
    extract_pool,
    group_by_instance,
    kmeans,
    per_problem_m,
    planner_aware_probs,
    read_pool,
    record_to_example,
    render_prompt,
    run_strategy,
    semdedup_select,
    softmax,
    trim_to_budget,
    utility,
    weighted_sample_without_replacement,
    write_pool,
)
from heurlab.search import QuickHeuristic, SearchResult, Status, astar
from heurlab.util import derive_seed, read_jsonl

import numpy as np


def _fake_example(instance_id, g, plan_len, vector=(1.0, 0.0), d_star=0.0):
    return TrainingExample(
        instance_id=instance_id,
        state_key=f"{instance_id}:{g}".encode(),
        text=f"{instance_id}:{g}",
        quick_h=float(plan_len - g) - d_star,
        d_star=d_star,
        g=g,
        plan_len=plan_len,
        section=section_of(g, plan_len),
        feature_vector=tuple(vector),
        domain=Domain.MAZE,
    )


def _fake_group(instance_id, plan_len):
    return [_fake_example(instance_id, g, plan_len) for g in range(plan_len)]


# ---------------------------------------------------------------------------
# Extraction

def test_extract_pool_fields(maze_train_150):
    subset = maze_train_150[:3]
    solved = [(inst, astar(inst, QuickHeuristic())) for inst in subset]
    pool, skipped = extract_pool(solved)
    assert skipped == 0
    assert len(pool) == sum(result.path_length for _, result in solved)
    by_id = group_by_instance(pool)
    for inst, result in solved:
        group = by_id[inst.id]
        assert [ex.g for ex in group] == list(range(result.path_length))
        for ex in group:
            assert ex.plan_len == result.path_length
            assert ex.section == section_of(ex.g, ex.plan_len)
            assert ex.d_star == (ex.plan_len - ex.g) - ex.quick_h
            assert ex.d_star >= 0
            assert len(ex.feature_vector) == 30
            # The rendered text reproduces the path state.
            reparsed = maze.parse_ascii(ex.text)
            assert reparsed.start_state.key() == ex.state_key


def test_extract_pool_counts_unsolved(maze_train_150):
    inst = maze_train_150[0]
    good = astar(inst, QuickHeuristic())
    bad = SearchResult(Status.LIMIT_EXCEEDED)
    pool, skipped = extract_pool([(inst, good), (inst, bad)])
    assert skipped == 1
    assert len(pool) == good.path_length


def test_extract_pool_rejects_inadmissible_paths(maze_train_150):
    inst = next(
        inst for inst in maze_train_150 if domains.quick_heuristic(inst.start_state, inst) > 1
    )
    real = astar(inst, QuickHeuristic())
    # Pretend a two-state prefix of the real path was a complete solution;
    # the start's heuristic then exceeds the claimed remaining cost.
    fake = SearchResult(Status.SOLUTION_FOUND, path=real.path[:2], path_length=1)
    with pytest.raises(ValueError, match="not admissible"):
        extract_pool([(inst, fake)])


# ---------------------------------------------------------------------------
# Utility and sampling weights

def test_utility_closed_forms():
    assert utility(0, 10, CVariant.LOG_RATIO) == 0.0
    assert abs(utility(5, 10, CVariant.LOG_RATIO) - math.log(2.0)) < 1e-12
    assert abs(utility(9, 10, CVariant.RATIO) - 10.0) < 1e-12
    assert abs(utility(3, 12, CVariant.LINEAR_DEPTH) - 0.25) < 1e-12
    # A variant's plain name is the variant, not a fall-through to linear_depth.
    assert utility(5, 10, "ratio") == utility(5, 10, CVariant.RATIO) == 2.0
    with pytest.raises(ValueError):
        utility(5, 10, "cubic")


def test_c_variant_string_selects_like_its_enum():
    pool = _fake_group("a", 30) + _fake_group("b", 20)
    for strategy in (Strategy.PLANNER_AWARE, Strategy.COMBINED):
        for variant in CVariant:
            as_enum = run_strategy(pool, SamplingSpec(strategy, tau=0.5, c_variant=variant, per_problem_m=6, seed=2))
            as_text = run_strategy(pool, SamplingSpec(strategy, tau=0.5, c_variant=variant.value, per_problem_m=6,
                                                      seed=2))
            assert as_text == as_enum, (strategy, variant)


@pytest.mark.parametrize("bad", [(0, 0), (-1, 5), (5, 5), (6, 5)])
def test_utility_domain_errors(bad):
    g, plan_len = bad
    with pytest.raises(ValueError):
        utility(g, plan_len)


def test_utility_is_strictly_increasing_in_depth():
    for variant in CVariant:
        for plan_len in (2, 7, 31):
            values = [utility(g, plan_len, variant) for g in range(plan_len)]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_softmax_two_nodes():
    probs = softmax([0.0, math.log(2.0)])
    assert abs(probs[0] - 1 / 3) < 1e-12
    assert abs(probs[1] - 2 / 3) < 1e-12
    # Shifting all logits leaves the distribution unchanged.
    shifted = softmax([1000.0, 1000.0 + math.log(2.0)])
    assert abs(shifted[0] - 1 / 3) < 1e-12
    assert softmax([3.0, 3.0, 3.0]) == [pytest.approx(1 / 3)] * 3


def test_planner_aware_probs_favor_depth():
    group = _fake_group("p", 20)
    probs = planner_aware_probs(group, tau=1.0, c_variant=CVariant.LOG_RATIO)
    assert abs(sum(probs) - 1.0) < 1e-12
    assert all(b > a for a, b in zip(probs, probs[1:]))
    # Large tau flattens toward uniform, small tau concentrates on the end.
    flat = planner_aware_probs(group, tau=1e9, c_variant=CVariant.LOG_RATIO)
    assert max(flat) - min(flat) < 1e-6
    sharp = planner_aware_probs(group, tau=0.01, c_variant=CVariant.LOG_RATIO)
    assert sharp[-1] > 0.99
    with pytest.raises(ValueError):
        planner_aware_probs(group, tau=0.0, c_variant=CVariant.LOG_RATIO)


def test_weighted_sampling_without_replacement():
    rng = random.Random(0)
    items = list("abcd")
    with pytest.raises(ValueError):
        weighted_sample_without_replacement(items, [1] * 4, 5, rng)
    everything = weighted_sample_without_replacement(items, [1] * 4, 4, rng)
    assert sorted(everything) == items
    for trial in range(200):
        picked = weighted_sample_without_replacement(items[:3], [1.0, 0.0, 1.0], 2, random.Random(trial))
        assert "b" not in picked
    a = weighted_sample_without_replacement(items, [1, 2, 3, 4], 2, random.Random(5))
    b = weighted_sample_without_replacement(items, [1, 2, 3, 4], 2, random.Random(5))
    assert a == b


def test_uniform_sampling_is_unbiased_over_seeds():
    group = _fake_group("p", 30)
    counts = [0] * 30
    trials = 3000
    for seed in range(trials):
        (chosen,) = run_strategy(group, SamplingSpec(Strategy.UNIFORM, per_problem_m=1, seed=seed))
        counts[chosen.g] += 1
    expected = trials / 30
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 99th percentile of chi-square with 29 degrees of freedom.
    assert chi2 < 49.588


def test_grouping_sorts_by_depth_and_ignores_interleaving():
    pool = _fake_group("a", 5) + _fake_group("b", 4)
    shuffled = pool[:]
    random.Random(3).shuffle(shuffled)
    groups = group_by_instance(shuffled)
    assert sorted(groups) == ["a", "b"]
    assert [ex.g for ex in groups["a"]] == list(range(5))
    assert [ex.g for ex in groups["b"]] == list(range(4))


def test_per_instance_samplers_ignore_pool_order():
    pool = _fake_group("a", 25) + _fake_group("b", 25)
    shuffled = pool[:]
    random.Random(9).shuffle(shuffled)
    for strategy in (Strategy.UNIFORM, Strategy.PLANNER_AWARE):
        spec = SamplingSpec(strategy, tau=2.0, per_problem_m=5, seed=1)
        straight = {(ex.instance_id, ex.g) for ex in run_strategy(pool, spec)}
        scrambled = {(ex.instance_id, ex.g) for ex in run_strategy(shuffled, spec)}
        assert straight == scrambled


def test_samplers_take_whole_group_when_small():
    pool = _fake_group("a", 3)
    for strategy in (Strategy.UNIFORM, Strategy.PLANNER_AWARE):
        assert len(run_strategy(pool, SamplingSpec(strategy, per_problem_m=10, seed=0))) == 3


def test_per_problem_m_and_trim():
    assert per_problem_m(2000, 150) == 14
    assert per_problem_m(150, 150) == 1
    with pytest.raises(ValueError):
        per_problem_m(0, 5)
    with pytest.raises(ValueError):
        per_problem_m(5, 0)
    pool = _fake_group("a", 50)
    trimmed = trim_to_budget(pool, 20, seed=4)
    assert len(trimmed) == 20
    gs = [ex.g for ex in trimmed]
    assert gs == sorted(gs)  # relative order preserved
    assert trim_to_budget(pool, 50, seed=4) == pool
    assert trim_to_budget(pool, 20, seed=4) == trimmed


def test_total_budget_is_hit_exactly(maze_pool_150):
    budget = 500
    selected = run_strategy(maze_pool_150, SamplingSpec(Strategy.UNIFORM, total_budget=budget, seed=0))
    assert len(selected) == budget
    keys = {(ex.instance_id, ex.g) for ex in selected}
    assert len(keys) == budget  # without replacement across the board


# ---------------------------------------------------------------------------
# Dedup selection

def test_kmeans_separates_blobs():
    rng = np.random.default_rng(0)
    blob_a = rng.normal(0.0, 0.05, size=(20, 3))
    blob_b = rng.normal(5.0, 0.05, size=(20, 3))
    vectors = np.vstack([blob_a, blob_b])
    labels, centroids = kmeans(vectors, 2, seed=1)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]
    # Centroids sit near the blob centers.
    spread = sorted(float(np.linalg.norm(c)) for c in centroids)
    assert spread[0] < 1.0 and abs(spread[1] - math.sqrt(75)) < 1.0


def test_kmeans_caps_k_at_n():
    vectors = np.array([[0.0], [1.0], [2.0]])
    labels, centroids = kmeans(vectors, 10, seed=0)
    assert len(centroids) == 3
    assert sorted(labels) == [0, 1, 2]


def test_semdedup_collapses_duplicate_pairs():
    pool = [
        _fake_example("a", 0, 4, vector=(1.0, 0.0)),
        _fake_example("a", 1, 4, vector=(1.0, 0.0)),  # exact duplicate direction
        _fake_example("a", 2, 4, vector=(0.0, 1.0)),
        _fake_example("a", 3, 4, vector=(-1.0, 0.5)),
    ]
    selected = semdedup_select(pool, budget=3, n_clusters=1, seed=0)
    assert len(selected) == 3
    kept = {ex.g for ex in selected}
    # Exactly one of the duplicated pair survives.
    assert len(kept & {0, 1}) == 1
    assert {2, 3} <= kept


def test_semdedup_threshold_one_only_downsamples():
    pool = [_fake_example("a", g, 40, vector=(g, 1.0)) for g in range(40)]
    selected = semdedup_select(pool, budget=10, similarity_threshold=1.0, seed=3)
    assert len(selected) == 10
    # With dedup disabled survivors keep pool order.
    gs = [ex.g for ex in selected]
    assert gs == sorted(gs)


def test_semdedup_relaxes_threshold_until_budget_met():
    # All vectors identical: at the starting threshold a single example
    # survives, so the threshold must relax to fill the budget.
    pool = [_fake_example("a", g, 8, vector=(2.0, 1.0)) for g in range(8)]
    selected = semdedup_select(pool, budget=4, n_clusters=1, similarity_threshold=0.9, seed=0)
    assert len(selected) == 4


def test_semdedup_budget_edge_cases():
    pool = [_fake_example("a", g, 6, vector=(g, 1.0)) for g in range(6)]
    assert semdedup_select(pool, budget=6, seed=0) == pool
    with pytest.warns(UserWarning, match="exceeds pool size"):
        taken = semdedup_select(pool, budget=10, seed=0)
    assert taken == pool
    with pytest.raises(ValueError):
        semdedup_select(pool, budget=0, seed=0)


def test_semdedup_is_deterministic(maze_pool_150):
    subset = maze_pool_150[:400]
    a = semdedup_select(subset, budget=100, seed=5)
    b = semdedup_select(subset, budget=100, seed=5)
    assert [(ex.instance_id, ex.g) for ex in a] == [(ex.instance_id, ex.g) for ex in b]
    assert len(a) == 100


# ---------------------------------------------------------------------------
# Combination

def test_combine_resample_identical_sets_return_the_union():
    group = _fake_group("a", 4)
    s1 = group[:2]
    out = combine_resample(s1, list(s1), 2, random.Random(0))
    assert sorted(ex.g for ex in out) == [0, 1]
    # m larger than the union size clips to the union.
    out = combine_resample(s1, list(s1), 10, random.Random(0))
    assert sorted(ex.g for ex in out) == [0, 1]


def test_combined_takes_m_per_instance():
    pool = _fake_group("a", 30) + _fake_group("b", 30)
    spec = SamplingSpec(Strategy.COMBINED, tau=2.0, per_problem_m=6, seed=1)
    out = run_strategy(pool, spec)
    groups = group_by_instance(out)
    assert {len(g) for g in groups.values()} == {6}
    assert sorted(groups) == ["a", "b"]
    again = run_strategy(pool, spec)
    assert [(ex.instance_id, ex.g) for ex in again] == [(ex.instance_id, ex.g) for ex in out]


# ---------------------------------------------------------------------------
# Section splits

def test_section_split_sizes_and_membership():
    pool = _fake_group("a", 30) + _fake_group("b", 30)  # 10 per section per instance
    for selector, sections in [
        ("initial", {SectionLabel.INITIAL}),
        ("middle", {SectionLabel.MIDDLE}),
        ("end", {SectionLabel.END}),
        ("~initial", {SectionLabel.MIDDLE, SectionLabel.END}),
        ("~middle", {SectionLabel.INITIAL, SectionLabel.END}),
        ("~end", {SectionLabel.INITIAL, SectionLabel.MIDDLE}),
    ]:
        split = build_section_split(pool, selector, 15, seed=2)
        assert len(split) == 15
        assert {ex.section for ex in split} <= sections
    everything = build_section_split(pool, "all", 15, seed=2)
    assert len(everything) == 15


def test_section_split_errors():
    pool = _fake_group("a", 30)
    with pytest.raises(ValueError, match="unknown section selector"):
        build_section_split(pool, "later", 5)
    with pytest.raises(ValueError, match="2 short of 12"):
        build_section_split(pool, "initial", 12)  # only 10 initial nodes


def test_section_split_is_seeded():
    pool = _fake_group("a", 60)
    a = build_section_split(pool, "middle", 10, seed=1)
    assert build_section_split(pool, "middle", 10, seed=1) == a
    b = build_section_split(pool, "middle", 10, seed=2)
    assert {ex.g for ex in a} != {ex.g for ex in b}


# The two selector parsers that ``oracle.parse_sections`` replaced, as they
# were: the noise study's (which also took a label or a list) and the section
# split's lookup (None meaning every section).

def _former_noise_sections(sections):
    if isinstance(sections, str):
        if sections.lower() == "all":
            return frozenset(SectionLabel)
        sections = [sections]
    if isinstance(sections, SectionLabel):
        sections = [sections]
    out = frozenset(SectionLabel(s) for s in sections)
    if not out:
        raise ValueError("oracle_sections must name at least one section")
    return out


_FORMER_SPLIT_CHOICES = {
    "all": None,
    **{s.value: frozenset([s]) for s in SectionLabel},
    **{f"~{s.value}": frozenset(set(SectionLabel) - {s}) for s in SectionLabel},
}


def _former_split_sections(selector):
    wanted = _FORMER_SPLIT_CHOICES[selector.lower()]
    return frozenset(SectionLabel) if wanted is None else wanted


def _former_section_split(pool, selector, size, seed):
    wanted = _FORMER_SPLIT_CHOICES[selector.lower()]
    eligible = list(pool) if wanted is None else [ex for ex in pool if ex.section in wanted]
    return random.Random(derive_seed(seed, "section", selector.lower())).sample(eligible, size)


GRAMMAR = ["all", "initial", "middle", "end", "~initial", "~middle", "~end"]
SELECTORS = (
    [variant for name in GRAMMAR for variant in (name, name.upper(), name.title())]
    + list(SectionLabel)
    + ["", "nonsense", "~all", "~", " end", "end ", "~~end", "initial,end"]
)


def test_parse_sections_agrees_with_both_former_parsers():
    accepted = 0
    for selector in SELECTORS:
        for former in (_former_noise_sections, _former_split_sections):
            try:
                want = former(selector)
            except (KeyError, ValueError):
                continue
            assert parse_sections(selector) == want, (selector, former.__name__)
            accepted += 1
    # The noise study took "all" in any case, the lowercase names and the
    # labels (9); the split lookup took every grammar case and the labels (24).
    assert accepted == 9 + 24


def test_parse_sections_rejects_what_is_not_a_selector():
    for selector in ["", "nonsense", "~all", " end", "~~end", "initial,end", None, 3, [], ["end"]]:
        with pytest.raises(ValueError, match="unknown section selector"):
            parse_sections(selector)


def test_section_split_matches_the_former_lookup():
    rng = random.Random(17)
    pool = [ex for i in range(6) for ex in _fake_group(f"p{i}", rng.randint(9, 30))]
    rng.shuffle(pool)
    for selector in GRAMMAR + [name.upper() for name in GRAMMAR]:
        for seed in (0, 1, 2):
            want = _former_section_split(pool, selector, 20, seed)
            assert build_section_split(pool, selector, 20, seed) == want, (selector, seed)


# ---------------------------------------------------------------------------
# Strategy dispatch

def test_run_strategy_dispatch():
    pool = _fake_group("a", 30) + _fake_group("b", 30)
    selected = run_strategy(pool, SamplingSpec(strategy=Strategy.UNIFORM, per_problem_m=4, seed=1))
    assert len(selected) == 8
    selected = run_strategy(pool, SamplingSpec(strategy=Strategy.PLANNER_AWARE, tau=2.0, total_budget=10, seed=1))
    assert len(selected) == 10
    selected = run_strategy(pool, SamplingSpec(strategy=Strategy.SECTION_SPLIT, section="end", total_budget=6, seed=1))
    assert len(selected) == 6
    assert {ex.section for ex in selected} == {SectionLabel.END}
    selected = run_strategy(pool, SamplingSpec(strategy=Strategy.SECTION_SPLIT, section="~end", total_budget=6, seed=1))
    assert len(selected) == 6
    assert SectionLabel.END not in {ex.section for ex in selected}


def test_every_strategy_has_a_selection_path():
    # Each strategy is handled by name in run_strategy or draws per instance
    # through the draw table, never both; a new one with neither fails here.
    source = inspect.getsource(run_strategy)
    pool = _fake_group("a", 12) + _fake_group("b", 9)
    for strategy in Strategy:
        by_name = f"Strategy.{strategy.name}" in source
        assert by_name != (strategy in pipeline._DRAWS), strategy
        assert strategy in pipeline.READS, strategy
        spec = SamplingSpec(strategy, section="all", total_budget=5, seed=0)
        assert len(run_strategy(pool, spec)) == 5, strategy


def test_fields_a_strategy_does_not_read_leave_its_selection_alone():
    rng = random.Random(4)
    pool = [_fake_example(iid, g, n, vector=(rng.random(), rng.random(), rng.random()))
            for iid, n in (("a", 15), ("b", 12), ("c", 9)) for g in range(n)]
    others = {"tau": 0.3, "c_variant": CVariant.RATIO, "per_problem_m": 2, "section": "end",
              "n_clusters": 3, "similarity_threshold": 0.3}
    for strategy in Strategy:
        base = SamplingSpec(strategy, section="all", total_budget=8, seed=5)
        expected = run_strategy(pool, base)
        for name, value in others.items():
            if name not in pipeline.READS[strategy]:
                assert run_strategy(pool, dataclasses.replace(base, **{name: value})) == expected, (strategy, name)


def test_run_strategy_argument_errors():
    pool = _fake_group("a", 10)
    with pytest.raises(ValueError, match="section and total_budget"):
        run_strategy(pool, SamplingSpec(strategy=Strategy.SECTION_SPLIT))
    with pytest.raises(ValueError, match="total_budget"):
        run_strategy(pool, SamplingSpec(strategy=Strategy.SEMDEDUP))
    with pytest.raises(ValueError, match="total_budget or per_problem_m"):
        run_strategy(pool, SamplingSpec(strategy=Strategy.UNIFORM))


def test_sampling_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(tau=0.0)
    with pytest.raises(ValueError):
        SamplingSpec(total_budget=0)
    with pytest.raises(ValueError):
        SamplingSpec(per_problem_m=0)
    # NaN weights would make every draw take the last remaining item.
    with pytest.raises(ValueError, match="tau must be positive"):
        SamplingSpec(tau=math.nan)
    with pytest.raises(ValueError, match="tau must be positive"):
        planner_aware_probs(_fake_group("a", 4), math.nan, CVariant.LOG_RATIO)



def test_sampling_spec_plain_strategy_name_selects_like_its_enum():
    pool = _fake_group("a", 12) + _fake_group("b", 9)
    for strategy in Strategy:
        by_name = SamplingSpec(strategy.value, section="all", total_budget=5, seed=0)
        assert by_name.strategy is strategy
        assert run_strategy(pool, by_name) == run_strategy(pool, SamplingSpec(strategy, section="all", total_budget=5))
    with pytest.raises(ValueError, match="not a valid Strategy"):
        SamplingSpec("semdedupe", total_budget=3)


@pytest.mark.parametrize("n_clusters", [0, -4])
def test_sampling_spec_rejects_cluster_counts_below_one(n_clusters):
    with pytest.raises(ValueError, match="n_clusters must be positive"):
        SamplingSpec(Strategy.SEMDEDUP, total_budget=3, n_clusters=n_clusters)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_sampling_spec_rejects_non_finite_similarity_thresholds(threshold):
    with pytest.raises(ValueError, match="similarity_threshold must be finite"):
        SamplingSpec(Strategy.SEMDEDUP, total_budget=3, similarity_threshold=threshold)


def test_similarity_thresholds_below_minus_one_are_refused():
    # Cosine similarity is never below -1; from -1e20 the dedup ladder's
    # 0.01 step is lost to rounding and semdedup never ended.
    with pytest.raises(ValueError, match="similarity_threshold must be finite and at least -1, got -1.01"):
        SamplingSpec(Strategy.SEMDEDUP, total_budget=3, similarity_threshold=-1.01)
    pool = [_fake_example("a", g, 11, vector=(g, 1.0)) for g in range(11)]
    with pytest.raises(ValueError, match="at least -1, got -1e\\+20"):
        semdedup_select(pool, budget=4, similarity_threshold=-1e20)
    assert len(semdedup_select(pool, budget=4, similarity_threshold=-1.0)) == 4


# ---------------------------------------------------------------------------
# Records and prompt export

def test_pool_records_round_trip(tmp_path, maze_pool_150):
    subset = maze_pool_150[:25]
    for ex in subset:
        assert record_to_example(example_to_record(ex)) == ex
    path = tmp_path / "pool.jsonl"
    write_pool(subset, path)
    assert read_pool(path) == subset


def test_read_jsonl_converts_each_record_as_it_is_read(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"x": 1}\n\n{"x": 2}\n{"y": 3}\n')
    assert read_jsonl(path) == [{"x": 1}, {"x": 2}, {"y": 3}]
    converted = []

    def convert(rec):
        converted.append(rec["x"])
        return rec["x"] * 10

    # The blank line counts as a line, not as a record.
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record 3 has no field 'x'$"):
        read_jsonl(path, convert)
    assert converted == [1, 2]
    path.write_text('{"x": 1}\n\n{"x": 2}\n')
    assert read_jsonl(path, convert) == [10, 20]
    # A record is converted before the next line is parsed.
    path.write_text('{"x": 4}\n{"x": 5\n{"x": 6}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: Expecting"):
        read_jsonl(path, convert)
    assert converted[-1] == 4
    path.write_text('{"x": 4}\n{"x": "five"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record 2: invalid literal"):
        read_jsonl(path, lambda rec: int(rec["x"]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: record 2: can only concatenate"):
        read_jsonl(path, lambda rec: rec["x"] + 1)


def test_render_prompt_maze_structure(maze_pool_150):
    ex = maze_pool_150[0]
    prompt = render_prompt(ex)
    assert prompt.startswith("import torch\ndef get_improved_heuristic(heuristic: int, difference: int):")
    assert "return heuristic + difference" in prompt
    assert "# The difference is calculated by observing the maze puzzle" in prompt
    assert '# legend =  "@ - player, # - wall, . - empty cell, X - goal"' in prompt
    assert f'puzzle_str = "{ex.text}"' in prompt
    heuristic = str(int(ex.quick_h)) if ex.quick_h.is_integer() else repr(ex.quick_h)
    assert prompt.endswith(f"improved_heuristic = get_improved_heuristic({heuristic},")


def test_render_prompt_remaps_sliding_tiles(stp_200):
    inst = stp_200[0]
    result = astar(inst, QuickHeuristic())
    pool, _ = extract_pool([(inst, result)])
    prompt = render_prompt(pool[0], seed=3)
    marker = 'puzzle_str = "'
    payload = prompt.split(marker, 1)[1].split('"', 1)[0]
    tokens = payload.split()
    assert len(tokens) == 9
    assert "0" in tokens
    assert all(tok == "0" or (tok.isalpha() and tok.islower()) for tok in tokens)
    goal_line = [line for line in prompt.splitlines() if line.startswith("# goal = ")]
    assert len(goal_line) == 1
    assert '# legend =  "0 - empty space"' in prompt
    # The remap is fixed per instance: a second node reuses the alphabet.
    other = render_prompt(pool[1], seed=3)
    other_payload = other.split(marker, 1)[1].split('"', 1)[0]
    assert set(other_payload.split()) == set(tokens)


def test_render_prompt_remaps_with_the_instance_table():
    # Every node of an instance renders with that instance's seeded alphabet:
    # the puzzle tokens map its tiles and the goal line maps 0..n-1.
    inst = generation.generate_stp(3, generation.STP_FILTER, seed=77, id="stp-remap")
    pool, _ = extract_pool([(inst, astar(inst, QuickHeuristic()))])
    assert [int(tok) for tok in pool[0].text.split()] == list(inst.start_state.tiles)
    table = generation.stp_symbol_table(3, derive_seed(5, "stp_symbols", inst.id))
    for ex in pool:
        prompt = render_prompt(ex, seed=5)
        puzzle = prompt.split('puzzle_str = "', 1)[1].split('"', 1)[0].split()
        goal = prompt.split('# goal = "', 1)[1].split('"', 1)[0].split()
        assert puzzle == [table[int(tok)] for tok in ex.text.split()]
        assert goal == [table[t] for t in range(9)]
        assert "0" in puzzle


def test_export_corpus_formats(tmp_path, maze_pool_150):
    subset = maze_pool_150[:10]
    prompts = tmp_path / "prompts.jsonl"
    assert export_corpus(subset, prompts) == 10
    from heurlab.util import read_jsonl

    rows = read_jsonl(prompts)
    assert len(rows) == 10
    for ex, row in zip(subset, rows):
        assert row["target"] == ex.d_star
        assert row["instance_id"] == ex.instance_id
        assert row["g"] == ex.g
        assert row["prompt"] == render_prompt(ex)
