"""Residual regressors over feature vectors and the learned-heuristic evaluator.

The models predict d* = h* - quick_h from a state's feature vector; at search
time the evaluator returns quick_h + max(0, prediction) per state, batched once
per expansion.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import domains
from .domains import Domain
from .pipeline import TrainingExample, nearest_neighbors, prepare_points
from .search import HeuristicEvaluator
from .util import derive_seed

MODEL_FORMAT = "heurlab-model"
MODEL_VERSION = 1


class ModelKind(str, Enum):
    KNN = "knn"
    LINEAR = "linear"


@dataclass
class ResidualModel:
    kind: ModelKind
    domain: Domain
    mu: np.ndarray  # per-dimension training mean
    sigma: np.ndarray  # per-dimension training std, zeros replaced by 1
    k: int = 8
    neighbors: np.ndarray | None = None  # standardized features, insertion order
    targets: np.ndarray | None = None
    weights: np.ndarray | None = None
    bias: float = 0.0
    manifest: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return len(self.mu)

    def standardize(self, features: np.ndarray) -> np.ndarray:
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"feature matrix has shape {features.shape}, expected (n, {self.n_features})"
            )
        return (features - self.mu) / self.sigma

    @cached_property
    def neighbor_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``prepare_points(neighbors)``, built once per model; not saved."""
        return prepare_points(self.neighbors)


def predict_batch(model: ResidualModel, features: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Predicted residuals for a feature matrix, one row per state."""
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    z = model.standardize(x)
    if model.kind is ModelKind.LINEAR:
        return z @ model.weights + model.bias
    # k nearest stored neighbors by Euclidean distance; ties keep insertion order.
    nearest = nearest_neighbors(z, model.neighbors, model.k, model.neighbor_index)
    return model.targets[nearest].mean(axis=1)


def _split_by_instance(examples: Sequence[TrainingExample], seed: int) -> tuple[list[TrainingExample], list[TrainingExample]]:
    """Hold out ~10% of instance ids for validation (at least one when possible)."""
    ids = sorted({ex.instance_id for ex in examples})
    if len(ids) < 2:
        return list(examples), []
    rng = random.Random(derive_seed(seed, "val_split"))
    rng.shuffle(ids)
    n_val = max(1, round(0.1 * len(ids)))
    val_ids = set(ids[:n_val])
    train = [ex for ex in examples if ex.instance_id not in val_ids]
    val = [ex for ex in examples if ex.instance_id in val_ids]
    return train, val


def train_residual_model(
    examples: Sequence[TrainingExample],
    kind: ModelKind | str = ModelKind.KNN,
    k: int = 8,
    ridge: float = 1e-6,
    seed: int = 0,
    manifest: dict | None = None,
) -> ResidualModel:
    """Fit a residual regressor on the selection; parameters come from the 90%
    training side of an instance-id split, the 10% holdout only scores
    validation MAE for the manifest."""
    kind = ModelKind(kind)
    if not examples:
        raise ValueError("cannot train on an empty selection")
    train, val = _split_by_instance(examples, seed)
    x = np.array([ex.feature_vector for ex in train], dtype=float)
    y = np.array([ex.d_star for ex in train], dtype=float)
    n, dims = x.shape
    needed = max(k, dims + 1) if kind is ModelKind.KNN else dims + 1
    if n < needed:
        raise ValueError(f"need at least {needed} training examples, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values in training set")

    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma < 1e-12] = 1.0
    domain = train[0].domain
    model = ResidualModel(kind=kind, domain=domain, mu=mu, sigma=sigma, k=min(k, n))
    z = (x - mu) / sigma
    if kind is ModelKind.KNN:
        model.neighbors = z
        model.targets = y
    else:
        # Ridge-damped least squares; the intercept column is damped too, but
        # at 1e-6 the perturbation is far below the MAE tolerances in use.
        a = np.hstack([z, np.ones((n, 1))])
        gram = a.T @ a + ridge * np.eye(dims + 1)
        coef = np.linalg.solve(gram, a.T @ y)
        model.weights = coef[:-1]
        model.bias = float(coef[-1])

    def mae(subset: list[TrainingExample]) -> float | None:
        if not subset:
            return None
        feats = np.array([ex.feature_vector for ex in subset], dtype=float)
        actual = np.array([ex.d_star for ex in subset], dtype=float)
        return float(np.abs(predict_batch(model, feats) - actual).mean())

    model.manifest = dict(manifest or {})
    model.manifest.update(
        {
            "kind": kind.value,
            "domain": domain.value,
            "k": model.k,
            "seed": seed,
            "n_train": len(train),
            "n_val": len(val),
            "train_mae": mae(train),
            "val_mae": mae(val),
        }
    )
    return model


# ---------------------------------------------------------------------------
# Search-time evaluator

class LearnedHeuristic(HeuristicEvaluator):
    """quick_heuristic + floored model residual; one predict_batch call per
    evaluate_batch. The search engine reuses each state's value within a
    search (``cacheable``)."""

    cacheable = True

    def __init__(self, model: ResidualModel, floor_at_zero: bool = True, round_predictions: bool = False):
        self.model = model
        self.floor_at_zero = floor_at_zero
        self.round_predictions = round_predictions
        self.model_invocations = 0

    def evaluate_batch(self, states, instance, gs):
        if not states:
            return []
        # Column 0 of every domain's feature vector is its quick heuristic.
        feats = np.array([domains.feature_vector(s, instance) for s in states], dtype=float)
        preds = predict_batch(self.model, feats)
        self.model_invocations += 1
        if self.floor_at_zero:
            preds = np.maximum(preds, 0.0)
        if self.round_predictions:
            preds = np.round(preds)
        return (feats[:, 0] + preds).tolist()


def learned_heuristic(
    model: ResidualModel,
    domain: Domain | None = None,
    floor_at_zero: bool = True,
    round_predictions: bool = False,
) -> LearnedHeuristic:
    if domain is not None and model.domain is not Domain(domain):
        raise ValueError(f"model was trained for {model.domain.value}, not {Domain(domain).value}")
    return LearnedHeuristic(model, floor_at_zero, round_predictions)


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: ResidualModel, path: str | Path) -> None:
    record = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind.value,
        "domain": model.domain.value,
        "k": model.k,
        "mu": model.mu.tolist(),
        "sigma": model.sigma.tolist(),
        "neighbors": None if model.neighbors is None else model.neighbors.tolist(),
        "targets": None if model.targets is None else model.targets.tolist(),
        "weights": None if model.weights is None else model.weights.tolist(),
        "bias": model.bias,
        "manifest": model.manifest,
    }
    Path(path).write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")


def _model_array(path: str | Path, record: dict, name: str, ndim: int) -> np.ndarray:
    try:
        array = np.array(record.get(name), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: model field '{name}' is not a numeric array") from exc
    if array.ndim != ndim:
        raise ValueError(f"{path}: model field '{name}' has {array.ndim} dimensions, expected {ndim}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{path}: model field '{name}' has non-finite values")
    return array


def load_model(path: str | Path) -> ResidualModel:
    """Read a saved model, rejecting files whose arrays disagree in shape,
    hold non-finite values, or whose k-NN ``k`` is outside 1..len(neighbors)."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a model file")
    if record.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {record.get('version')}")
    mu = _model_array(path, record, "mu", 1)
    sigma = _model_array(path, record, "sigma", 1)
    if len(sigma) != len(mu):
        raise ValueError(f"{path}: model field 'sigma' has {len(sigma)} entries, 'mu' has {len(mu)}")
    if np.any(sigma <= 0):
        raise ValueError(f"{path}: model field 'sigma' has entries <= 0")
    model = ResidualModel(
        kind=ModelKind(record["kind"]),
        domain=Domain(record["domain"]),
        mu=mu,
        sigma=sigma,
        k=record["k"],
        bias=record["bias"],
        manifest=record["manifest"],
    )
    if model.kind is ModelKind.KNN:
        model.neighbors = _model_array(path, record, "neighbors", 2)
        model.targets = _model_array(path, record, "targets", 1)
        n = len(model.neighbors)
        if model.neighbors.shape[1] != len(mu):
            raise ValueError(
                f"{path}: model field 'neighbors' has {model.neighbors.shape[1]} columns, 'mu' has {len(mu)} entries"
            )
        if len(model.targets) != n:
            raise ValueError(f"{path}: model field 'targets' has {len(model.targets)} entries, 'neighbors' has {n} rows")
        if type(model.k) is not int or not 1 <= model.k <= n:
            raise ValueError(f"{path}: model field 'k' is {model.k!r}, expected an integer in 1..{n}")
    else:
        model.weights = _model_array(path, record, "weights", 1)
        if len(model.weights) != len(mu):
            raise ValueError(f"{path}: model field 'weights' has {len(model.weights)} entries, 'mu' has {len(mu)}")
        if not math.isfinite(model.bias):
            raise ValueError(f"{path}: model field 'bias' is not finite")
    return model
