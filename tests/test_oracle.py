"""Exact oracle tables, section math, and the noisy-oracle evaluator."""

import pytest

from conftest import maze_bfs_distance

from heurlab import domains, evaluation
from heurlab.domains import MazeState, maze, stp
from heurlab.oracle import (
    NoiseSpec,
    NoisyOracle,
    SectionLabel,
    UnsupportedDomainError,
    exact_oracle,
    oracle_distances,
    oracle_tables,
    ordering_holds,
    run_oracle_experiment,
    section_of,
)
from heurlab.search import astar

POCKET = "\n".join(
    [
        "#######",
        "#@....#",
        "#####.#",
        "#...#X#",
        "#######",
    ]
)


def test_oracle_distances_match_bfs(maze_train_150):
    for inst in maze_train_150[:20]:
        table = oracle_distances(inst)
        truth = maze_bfs_distance(inst, start=inst.goal_spec)
        assert {MazeState(c).key(): d for c, d in truth.items()} == table


def test_oracle_rejects_other_domains():
    inst = stp.make_instance(tuple(range(9)), 3)
    with pytest.raises(UnsupportedDomainError):
        oracle_distances(inst)


def test_section_boundaries():
    # Thirds of a length-9 plan: g 0-2 initial, 3-5 middle, 6+ end.
    labels = [section_of(g, 9) for g in range(10)]
    assert labels[:3] == [SectionLabel.INITIAL] * 3
    assert labels[3:6] == [SectionLabel.MIDDLE] * 3
    assert labels[6:] == [SectionLabel.END] * 4
    # Non-multiples of three split at the fractional boundaries.
    assert section_of(3, 10) == SectionLabel.INITIAL  # 3 < 10/3
    assert section_of(4, 10) == SectionLabel.MIDDLE
    assert section_of(6, 10) == SectionLabel.MIDDLE  # 6 < 20/3
    assert section_of(7, 10) == SectionLabel.END
    with pytest.raises(ValueError):
        section_of(0, 0)
    with pytest.raises(ValueError):
        section_of(-1, 9)


def test_noise_spec_validation():
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            NoiseSpec(sigma=sigma)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, oracle_sections=[])
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, oracle_sections="nonsense")
    spec = NoiseSpec(sigma=1.0, oracle_sections="end")
    assert spec.oracle_sections == frozenset({SectionLabel.END})
    assert NoiseSpec(sigma=0.0).oracle_sections == frozenset(SectionLabel)
    # The selector grammar is the section splits' own: exclusions and any case.
    assert NoiseSpec(sigma=1.0, oracle_sections="~End").oracle_sections == {SectionLabel.INITIAL, SectionLabel.MIDDLE}
    assert NoiseSpec(sigma=1.0, oracle_sections=SectionLabel.MIDDLE).oracle_sections == {SectionLabel.MIDDLE}
    with pytest.raises(ValueError, match="unknown section selector"):
        NoiseSpec(sigma=1.0, oracle_sections=["end"])


def test_exact_oracle_reports_true_distance(maze_train_150):
    inst = maze_train_150[0]
    oracle = exact_oracle(oracle_tables([inst]))
    start_h = oracle.evaluate_batch([inst.start_state], inst, 0)[0]
    assert start_h == float(inst.provenance["plan_length"])
    result = astar(inst, oracle)
    assert result.solved
    assert result.path_length == inst.provenance["plan_length"]


def test_sigma_zero_equals_exact(maze_train_150):
    inst = maze_train_150[1]
    table = oracle_distances(inst)
    noisy = NoisyOracle(NoiseSpec(sigma=0.0, oracle_sections="end", noise_seed=3), {inst.id: table})
    states = [MazeState((r, c)) for r in range(inst.board.height) for c in range(inst.board.width)
              if MazeState((r, c)).key() in table][:50]
    exact = exact_oracle({inst.id: table})
    for g in range(len(states)):
        assert noisy.evaluate_batch(states, inst, g) == exact.evaluate_batch(states, inst, g), g


def test_noise_is_deterministic_per_state(maze_train_150):
    inst = maze_train_150[2]
    table = oracle_distances(inst)
    spec = NoiseSpec(sigma=4.0, oracle_sections="initial", noise_seed=7)
    a = NoisyOracle(spec, {inst.id: table})
    b = NoisyOracle(spec, {inst.id: table})
    states = _sample_states(inst, table, 40)
    g = inst.provenance["plan_length"] - 1  # deep in the end section
    first = a.evaluate_batch(states, inst, g)
    assert a.evaluate_batch(states, inst, g) == first
    assert b.evaluate_batch(states, inst, g) == first
    different_seed = NoisyOracle(NoiseSpec(sigma=4.0, oracle_sections="initial", noise_seed=8), {inst.id: table})
    assert different_seed.evaluate_batch(states, inst, g) != first


def _sample_states(inst, table, n):
    cells = []
    for r in range(inst.board.height):
        for c in range(inst.board.width):
            if MazeState((r, c)).key() in table:
                cells.append(MazeState((r, c)))
    return cells[:n]


def test_noise_respects_exact_sections(maze_train_150):
    inst = maze_train_150[3]
    table = oracle_distances(inst)
    plan_len = table[inst.start_state.key()]
    oracle = NoisyOracle(NoiseSpec(sigma=50.0, oracle_sections="initial", noise_seed=1), {inst.id: table})
    states = _sample_states(inst, table, 30)
    # Queried at g=0 every state sits in the initial section: exact values.
    exact = [float(table[s.key()]) for s in states]
    assert oracle.evaluate_batch(states, inst, 0) == exact
    # Queried deep in the plan the same states are perturbed.
    noisy = oracle.evaluate_batch(states, inst, plan_len)
    assert noisy != exact


def test_clamping_keeps_values_nonnegative(maze_train_150):
    inst = maze_train_150[4]
    table = oracle_distances(inst)
    states = _sample_states(inst, table, 200)
    g = inst.provenance["plan_length"]
    clamped = NoisyOracle(NoiseSpec(sigma=100.0, oracle_sections="initial", noise_seed=2), {inst.id: table})
    values = clamped.evaluate_batch(states, inst, g)
    assert all(v >= 0.0 for v in values)
    free = NoisyOracle(
        NoiseSpec(sigma=100.0, oracle_sections="initial", noise_seed=2, clamp_at_zero=False), {inst.id: table}
    )
    assert any(v < 0.0 for v in free.evaluate_batch(states, inst, g))


def test_per_query_redraws_and_disables_caching(maze_train_150):
    inst = maze_train_150[5]
    table = oracle_distances(inst)
    spec = NoiseSpec(sigma=5.0, oracle_sections="initial", noise_seed=4, per_query=True)
    oracle = NoisyOracle(spec, {inst.id: table})
    assert oracle.cacheable is False
    states = _sample_states(inst, table, 10)
    g = inst.provenance["plan_length"]
    first = oracle.evaluate_batch(states, inst, g)
    assert oracle.evaluate_batch(states, inst, g) != first
    # Draws are counted per instance: one oracle serving two instances gives
    # each the sequence an oracle of its own would.
    other = maze_train_150[6]
    shared = NoisyOracle(spec, {other.id: oracle_distances(other), inst.id: table})
    other_states = _sample_states(other, shared.tables[other.id], 10)
    assert shared.evaluate_batch(other_states, other, other.provenance["plan_length"]) != [
        float(shared.tables[other.id][s.key()]) for s in other_states
    ]
    assert shared.evaluate_batch(states, inst, g) == first
    fixed = NoisyOracle(NoiseSpec(sigma=5.0, oracle_sections="initial", noise_seed=4), {inst.id: table})
    assert fixed.cacheable is True


def test_disconnected_start_is_rejected():
    inst = maze.parse_ascii("\n".join(["#####", "#@#X#", "#####"]))
    with pytest.raises(ValueError, match="start state is not connected"):
        oracle_tables([inst])


def test_oracle_tables_reject_a_repeated_id(maze_train_150):
    inst = maze_train_150[0]
    assert oracle_tables([inst]) == {inst.id: oracle_distances(inst)}
    with pytest.raises(ValueError, match="repeated"):
        oracle_tables([inst, inst])


def test_unreachable_states_fall_back_to_quick_heuristic():
    # The goal-side corridor is reachable; the left pocket is not.
    inst = maze.parse_ascii(POCKET)
    oracle = exact_oracle(oracle_tables([inst]))
    pocket_state = MazeState((3, 1))
    value = oracle.evaluate_batch([pocket_state], inst, 0)[0]
    assert value == float(domains.quick_heuristic(pocket_state, inst))


def _untimed(report):
    counts = {key: getattr(report, key) for key in evaluation.HEADLINE_METRICS + ("n_total", "n_solved", "n_optimal")}
    return counts, [{k: v for k, v in row.items() if "wall" not in k and k != "itr"} for row in report.rows]


@pytest.mark.parametrize("per_query", [False, True])
def test_oracle_study_does_not_depend_on_jobs(maze_train_150, per_query):
    # At jobs=2 whole passes go to worker processes; every pass must solve
    # exactly as it does in-process, per-query draws included.
    instances = maze_train_150[:4]
    (rows, details), (rows_2, details_2) = [
        run_oracle_experiment(instances, sigmas=[4.0], seeds=[3], per_query=per_query, jobs=jobs) for jobs in (1, 2)
    ]
    assert rows == rows_2
    assert list(details) == list(details_2)
    for key, report in details.items():
        assert _untimed(report) == _untimed(details_2[key]), key


def test_ordering_holds_reads_rows():
    rows = [
        {"set": "all", "sigma": None, "ilr_on_solved": 1.0},
        {"set": "initial", "sigma": 2.0, "ilr_on_solved": 0.8},
        {"set": "middle", "sigma": 2.0, "ilr_on_solved": 0.9},
        {"set": "end", "sigma": 2.0, "ilr_on_solved": 1.0},
    ]
    assert ordering_holds(rows)
    assert ordering_holds(rows, margin=0.05)
    assert not ordering_holds(rows, margin=0.15)
    rows[3]["ilr_on_solved"] = 0.85
    assert not ordering_holds(rows)
    assert not ordering_holds([])
