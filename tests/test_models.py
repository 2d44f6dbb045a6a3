"""Residual models: fitting, prediction, the search evaluator, persistence."""

import itertools
import json
import random
import re

import numpy as np
import pytest

from heurlab import domains
from heurlab.domains import Domain, MazeState, stp
from heurlab.models import (
    LearnedHeuristic,
    ModelKind,
    ResidualModel,
    learned_heuristic,
    load_model,
    predict_batch,
    save_model,
    train_residual_model,
)
from heurlab.oracle import section_of
from heurlab.pipeline import TrainingExample, extract_pool
from heurlab.search import QuickHeuristic, astar


def _example(instance_id, g, plan_len, vector, d_star):
    return TrainingExample(
        instance_id=instance_id,
        state_key=f"{instance_id}:{g}".encode(),
        text="",
        quick_h=float(plan_len - g) - d_star,
        d_star=d_star,
        g=g,
        plan_len=plan_len,
        section=section_of(g, plan_len),
        feature_vector=tuple(vector),
        domain=Domain.MAZE,
    )


def _linear_examples(n, n_instances=10, seed=0, noise=0.0):
    """d* = 3*x0 - 2*x1 + 1 with optional noise, spread over instances."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        target = 3.0 * x[0] - 2.0 * x[1] + 1.0 + noise * rng.gauss(0, 1)
        out.append(_example(f"p{i % n_instances:02d}", i, n + 1, x, target))
    return out


def test_linear_model_recovers_exact_relationship():
    examples = _linear_examples(200)
    model = train_residual_model(examples, kind="linear", seed=1)
    assert model.kind is ModelKind.LINEAR
    feats = np.array([ex.feature_vector for ex in examples])
    targets = np.array([ex.d_star for ex in examples])
    preds = predict_batch(model, feats)
    assert np.abs(preds - targets).max() < 1e-6
    assert model.manifest["train_mae"] < 1e-6
    assert model.manifest["val_mae"] < 1e-6


def test_knn_k1_memorizes_training_points():
    examples = _linear_examples(60)
    model = train_residual_model(examples, kind="knn", k=1, seed=0)
    train_ids = {f"p{i:02d}" for i in range(10)} - _val_ids(model, examples)
    kept = [ex for ex in examples if ex.instance_id in train_ids]
    feats = np.array([ex.feature_vector for ex in kept])
    targets = np.array([ex.d_star for ex in kept])
    assert np.abs(predict_batch(model, feats) - targets).max() < 1e-12


def _val_ids(model, examples):
    # Recover the holdout ids from the manifest counts by re-splitting.
    from heurlab.models import _split_by_instance

    _, val = _split_by_instance(examples, model.manifest["seed"])
    return {ex.instance_id for ex in val}


def test_knn_k_equal_n_predicts_global_mean():
    examples = _linear_examples(30, n_instances=1)  # no holdout with one instance
    model = train_residual_model(examples, kind="knn", k=30, seed=0)
    assert model.manifest["n_val"] == 0
    assert model.manifest["val_mae"] is None
    mean = np.mean([ex.d_star for ex in examples])
    preds = predict_batch(model, np.array([[0.0, 0.0], [5.0, -3.0]]))
    assert np.allclose(preds, mean)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(3)
    examples = _linear_examples(120, seed=4, noise=0.5)
    model = train_residual_model(examples, kind="knn", k=8, seed=2)
    queries = rng.normal(0, 1.5, size=(300, 2))
    preds = predict_batch(model, queries)
    z = (queries - model.mu) / model.sigma
    for i in range(len(queries)):
        d2 = ((model.neighbors - z[i]) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[:8]
        assert abs(preds[i] - model.targets[order].mean()) < 1e-9


def test_knn_breaks_distance_ties_by_insertion_order():
    # Four stored points at equal distance from the query; k=2 must take the
    # first two in insertion order.
    model = ResidualModel(
        kind=ModelKind.KNN,
        domain=Domain.MAZE,
        mu=np.zeros(2),
        sigma=np.ones(2),
        k=2,
        neighbors=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        targets=np.array([10.0, 20.0, 30.0, 40.0]),
    )
    assert predict_batch(model, np.zeros((1, 2)))[0] == 15.0


def test_scalar_and_batch_predictions_agree():
    examples = _linear_examples(50, seed=6)
    for kind in ("knn", "linear"):
        model = train_residual_model(examples, kind=kind, seed=0)
        feats = np.array([ex.feature_vector for ex in examples[:7]])
        batch = predict_batch(model, feats)
        single = [predict_batch(model, row)[0] for row in feats]
        assert np.allclose(batch, single)


def test_constant_feature_dimension_is_safe():
    examples = [
        _example("a", g, 21, (float(g), 5.0), d_star=float(g)) for g in range(20)
    ]
    model = train_residual_model(examples, kind="linear", seed=0)
    assert model.sigma[1] == 1.0  # zero spread replaced, no division blowup
    preds = predict_batch(model, np.array([[3.0, 5.0]]))
    assert np.isfinite(preds).all()


def test_training_input_validation():
    with pytest.raises(ValueError, match="empty"):
        train_residual_model([], kind="knn")
    tiny = _linear_examples(2)
    with pytest.raises(ValueError, match="at least"):
        train_residual_model(tiny, kind="knn", k=8)
    bad = [_example("a", 0, 2, (float("nan"), 0.0), 0.0),
           _example("a", 1, 2, (1.0, 0.0), 0.0)] * 5
    with pytest.raises(ValueError, match="non-finite"):
        train_residual_model(bad, kind="linear")


def test_validation_split_is_disjoint_and_seeded():
    from heurlab.models import _split_by_instance

    examples = _linear_examples(100, n_instances=20, seed=9)
    train, val = _split_by_instance(examples, seed=5)
    train_ids = {ex.instance_id for ex in train}
    val_ids = {ex.instance_id for ex in val}
    assert train_ids.isdisjoint(val_ids)
    assert len(val_ids) == 2  # 10% of 20
    assert len(train) + len(val) == 100
    again_train, again_val = _split_by_instance(examples, seed=5)
    assert [ex.g for ex in again_val] == [ex.g for ex in val]
    single = _linear_examples(10, n_instances=1)
    all_train, no_val = _split_by_instance(single, seed=0)
    assert no_val == [] and len(all_train) == 10


def test_trained_model_beats_zero_predictor(maze_pool_150):
    # Predicting d* should at least improve on always-zero, across seeds.
    subset = maze_pool_150[:1200]
    zero_mae = np.mean([abs(ex.d_star) for ex in subset])
    for seed in range(5):
        model = train_residual_model(subset, kind="knn", k=8, seed=seed)
        val_mae = model.manifest["val_mae"]
        assert val_mae is not None
        assert val_mae < zero_mae


# ---------------------------------------------------------------------------
# Learned-heuristic evaluator

def _small_model():
    examples = _linear_examples(40, seed=2)
    return train_residual_model(examples, kind="linear", seed=0)


def test_learned_heuristic_adds_floored_residual(maze_pool_150, maze_train_150):
    model = train_residual_model(maze_pool_150[:500], kind="knn", k=8, seed=0)
    inst = maze_train_150[0]
    evaluator = learned_heuristic(model, domain="maze")
    state = inst.start_state
    (value,) = evaluator.evaluate_batch([state], inst, [0])
    quick = float(domains.quick_heuristic(state, inst))
    feats = np.array([domains.feature_vector(state, inst)])
    residual = float(predict_batch(model, feats)[0])
    assert value == quick + max(0.0, residual)
    assert value >= quick


def test_floor_flag_controls_negative_residuals():
    model = ResidualModel(
        kind=ModelKind.LINEAR,
        domain=Domain.MAZE,
        mu=np.zeros(30),
        sigma=np.ones(30),
        weights=np.zeros(30),
        bias=-3.0,
    )
    inst = _tiny_maze()
    state = inst.start_state
    quick = float(domains.quick_heuristic(state, inst))
    floored = LearnedHeuristic(model)
    assert floored.evaluate_batch([state], inst, [0]) == [quick]
    raw = LearnedHeuristic(model, floor_at_zero=False)
    assert raw.evaluate_batch([state], inst, [0]) == [quick - 3.0]
    rounded = LearnedHeuristic(_half_bias_model(), round_predictions=True)
    assert rounded.evaluate_batch([state], inst, [0]) == [quick]  # 0.4 rounds to 0


def _tiny_maze():
    from heurlab.domains import maze

    return maze.parse_ascii("\n".join(["#####", "#@..#", "#..X#", "#####"]))


def _half_bias_model():
    return ResidualModel(
        kind=ModelKind.LINEAR,
        domain=Domain.MAZE,
        mu=np.zeros(30),
        sigma=np.ones(30),
        weights=np.zeros(30),
        bias=0.4,
    )


def test_goal_state_keeps_zero_heuristic():
    inst = _tiny_maze()
    goal_state = MazeState(inst.goal_spec)
    model = ResidualModel(
        kind=ModelKind.LINEAR,
        domain=Domain.MAZE,
        mu=np.zeros(30),
        sigma=np.ones(30),
        weights=np.zeros(30),
        bias=0.0,
    )
    evaluator = LearnedHeuristic(model)
    assert evaluator.evaluate_batch([goal_state], inst, [3]) == [0.0]


def test_cache_batches_one_model_call_per_evaluate(maze_train_150, maze_pool_150):
    # The engine memoises values within a search; the evaluator makes exactly
    # one predict_batch call for each evaluate_batch, whatever its size.
    model = train_residual_model(maze_pool_150[:500], kind="knn", k=8, seed=0)
    inst = maze_train_150[1]
    evaluator = LearnedHeuristic(model)
    states = [s for _, s in domains.successors(inst.start_state, inst)]
    first = evaluator.evaluate_batch(states, inst, [1] * len(states))
    assert evaluator.model_invocations == 1
    assert evaluator.evaluate_batch(states, inst, [1] * len(states)) == first
    assert evaluator.model_invocations == 2
    assert evaluator.evaluate_batch([], inst, []) == []
    assert evaluator.model_invocations == 2


def _sampled_states(instances, n_walks, walk_len, seed):
    """(state, instance) pairs along seeded random walks from start states."""
    rng = random.Random(seed)
    out = []
    for inst in rng.sample(list(instances), n_walks):
        state = inst.start_state
        for _ in range(walk_len):
            out.append((state, inst))
            children = [child for _, child in domains.successors(state, inst)]
            if not children:
                break
            state = rng.choice(children)
    return out


@pytest.fixture(scope="module")
def sampled_states(maze_train_150, stp_200, sokoban_100):
    return {
        "maze": _sampled_states(maze_train_150, 8, 25, seed=1),
        "stp": _sampled_states(stp_200, 8, 25, seed=2),
        "sokoban": _sampled_states(sokoban_100, 8, 25, seed=3),
    }


@pytest.mark.parametrize("domain", ["maze", "stp", "sokoban"])
def test_feature_column_zero_is_quick_heuristic(sampled_states, domain):
    # LearnedHeuristic reads quick_h from column 0 instead of recomputing it.
    states = sampled_states[domain]
    assert len(states) > 100
    for state, inst in states:
        assert domains.feature_vector(state, inst)[0] == float(domains.quick_heuristic(state, inst))


@pytest.mark.parametrize("floor, rounding", [(True, False), (False, False), (True, True), (False, True)])
def test_learned_batch_matches_per_state_formula(sampled_states, floor, rounding):
    # The batched floor/round reproduces quick_h + residual computed state by
    # state, with the residual floored then rounded as the flags say.
    states = sampled_states["sokoban"]
    rng = np.random.default_rng(4)
    dims = len(domains.feature_vector(*states[0]))
    model = ResidualModel(
        kind=ModelKind.LINEAR,
        domain=Domain.SOKOBAN,
        mu=np.zeros(dims),
        sigma=np.ones(dims),
        weights=rng.normal(scale=0.3, size=dims),
        bias=-1.5,
    )
    evaluator = LearnedHeuristic(model, floor_at_zero=floor, round_predictions=rounding)
    quick, expected, values = [], [], []
    for _, walk in itertools.groupby(states, key=lambda pair: id(pair[1])):
        walk = list(walk)
        inst = walk[0][1]
        for i in range(0, len(walk), 4):
            batch = [s for s, _ in walk[i : i + 4]]
            values.extend(evaluator.evaluate_batch(batch, inst, [0] * len(batch)))
            # The same batch through predict_batch: a linear model's GEMV may
            # round differently for another number of rows.
            preds = predict_batch(model, [domains.feature_vector(s, inst) for s in batch])
            for state, pred in zip(batch, preds):
                quick.append(float(domains.quick_heuristic(state, inst)))
                residual = float(pred)
                if floor:
                    residual = max(0.0, residual)
                if rounding:
                    residual = float(round(residual))
                expected.append(quick[-1] + residual)
    assert values == expected
    below = [v < q for v, q in zip(values, quick)]
    assert not any(below) if floor else any(below)


def test_learned_heuristic_domain_guard():
    model = _small_model()
    assert model.domain is Domain.MAZE
    with pytest.raises(ValueError, match="trained for maze"):
        learned_heuristic(model, domain="stp")
    assert learned_heuristic(model, domain="maze") is not None


def test_learned_search_solves_mazes(maze_pool_150, maze_train_150):
    model = train_residual_model(maze_pool_150[:1200], kind="knn", k=8, seed=0)
    for inst in maze_train_150[:5]:
        result = astar(inst, learned_heuristic(model, domain="maze"))
        assert result.solved
        # Learned guidance may lose optimality but never validity.
        assert result.path_length >= inst.provenance["plan_length"]


def test_feature_dimension_mismatch_is_rejected():
    model = _small_model()
    with pytest.raises(ValueError, match="expected"):
        predict_batch(model, np.zeros((4, 7)))


# ---------------------------------------------------------------------------
# Persistence

def test_save_load_round_trip(tmp_path):
    for kind in ("knn", "linear"):
        examples = _linear_examples(60, seed=8)
        model = train_residual_model(examples, kind=kind, seed=3)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind is model.kind
        assert back.domain is model.domain
        assert back.k == model.k
        assert back.manifest == model.manifest
        queries = np.array([[0.3, -1.2], [1.8, 0.4]])
        assert np.allclose(predict_batch(back, queries), predict_batch(model, queries))


def test_load_rejects_foreign_and_future_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)
    examples = _linear_examples(40)
    model = train_residual_model(examples, kind="linear")
    save_model(model, path)
    import json

    record = json.loads(path.read_text())
    record["version"] = 99
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="unsupported model version"):
        load_model(path)


def _saved_record(tmp_path, kind):
    model = train_residual_model(_linear_examples(60, seed=8), kind=kind, k=4, seed=3)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    return path, json.loads(path.read_text())


def _write(path, record):
    path.write_text(json.dumps(record))
    return path


@pytest.mark.parametrize(
    "kind, corrupt, message",
    [
        ("knn", lambda r: r["mu"].append(0.0), "'sigma' has 2 entries, 'mu' has 3"),
        ("knn", lambda r: r["sigma"].pop(), "'sigma' has 1 entries, 'mu' has 2"),
        ("knn", lambda r: r["sigma"].__setitem__(1, 0.0), "'sigma' has entries <= 0"),
        ("knn", lambda r: r["sigma"].__setitem__(0, -1.0), "'sigma' has entries <= 0"),
        ("knn", lambda r: [row.append(1.0) for row in r["neighbors"]], "'neighbors' has 3 columns, 'mu' has 2"),
        ("knn", lambda r: r["neighbors"][0].pop(), "'neighbors' is not a numeric array"),
        ("knn", lambda r: r.__setitem__("neighbors", None), "'neighbors' has 0 dimensions, expected 2"),
        ("knn", lambda r: r["targets"].pop(), "'targets' has 53 entries, 'neighbors' has 54 rows"),
        ("knn", lambda r: r["targets"].__setitem__(2, float("nan")), "'targets' has non-finite values"),
        ("knn", lambda r: r["neighbors"][1].__setitem__(0, float("inf")), "'neighbors' has non-finite values"),
        ("knn", lambda r: r["mu"].__setitem__(0, float("-inf")), "'mu' has non-finite values"),
        ("knn", lambda r: r.__setitem__("k", 0), "'k' is 0, expected an integer in 1..54"),
        ("knn", lambda r: r.__setitem__("k", 55), "'k' is 55, expected an integer in 1..54"),
        ("knn", lambda r: r.__setitem__("k", 2.5), "'k' is 2.5, expected an integer in 1..54"),
        ("linear", lambda r: r["weights"].append(1.0), "'weights' has 3 entries, 'mu' has 2"),
        ("linear", lambda r: r["weights"].__setitem__(0, float("nan")), "'weights' has non-finite values"),
        ("linear", lambda r: r.__setitem__("bias", float("inf")), "'bias' is not finite"),
    ],
)
def test_load_rejects_inconsistent_model_files(tmp_path, kind, corrupt, message):
    path, record = _saved_record(tmp_path, kind)
    assert len(record["mu"]) == 2 and (kind == "linear" or len(record["neighbors"]) == 54)
    corrupt(record)
    with pytest.raises(ValueError, match=re.escape(f"{path}: model field {message}")):
        load_model(_write(path, record))


def test_load_accepts_k_equal_to_neighbor_count(tmp_path):
    path, record = _saved_record(tmp_path, "knn")
    record["k"] = len(record["neighbors"])
    back = load_model(_write(path, record))
    # Every neighbour votes: the prediction is the mean of all targets.
    assert np.allclose(predict_batch(back, np.zeros((1, 2))), np.mean(record["targets"]))
