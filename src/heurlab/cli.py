"""Command-line entry point: puzzle generation, solving, the oracle noise
study, pool extraction, sampling, model training, evaluation, and the
end-to-end checkpointed pipeline.

Every stochastic step derives its seed from one master seed (flag, config
file, or HEURLAB_SEED), so reruns with the same configuration reproduce all
non-timing outputs byte for byte.

Exit codes: 0 success, 1 a requested assertion failed, 2 usage error,
3 runtime failure (with HEURLAB_DEBUG=1 its traceback is printed first).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

from . import domains, evaluation, generation, models, oracle, pipeline
from .domains import Domain
from .search import SearchLimits, TieBreak
from .util import content_hash, derive_seed, read_jsonl, write_jsonl

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# Sampling defaults per domain, scaled alongside split sizes by --scale.
DOMAIN_BUDGET = {Domain.MAZE: 12000, Domain.SOKOBAN: 8000, Domain.STP: 8000}
DOMAIN_TAU = {Domain.MAZE: 2.0, Domain.SOKOBAN: 0.8, Domain.STP: 5.0}
# The combined strategy favors a flatter draw on Sokoban.
DOMAIN_COMBINED_TAU = {Domain.MAZE: 2.0, Domain.SOKOBAN: 5.0, Domain.STP: 5.0}

PIPELINE_ROWS = ("full_data", "uniform", "planner_aware", "semdedup", "semdedup_planner")

_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


class UsageError(Exception):
    pass


def _env_seed() -> int:
    raw = os.environ.get("HEURLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"HEURLAB_SEED must be an integer, got {raw!r}") from exc


def _limits(args) -> SearchLimits | None:
    max_iter = getattr(args, "max_iterations", None)
    max_wall = getattr(args, "max_wall_time", None)
    if max_iter is None and max_wall is None:
        return None
    return SearchLimits(max_iterations=max_iter, max_wall_time=max_wall)


def _tie_break(args) -> TieBreak:
    return TieBreak(getattr(args, "tie_break", "larger_g"))


def _comma_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _comma_names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# Parser construction and config-file merging

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heurlab",
        description="Search-efficiency laboratory: generate puzzles, solve them, "
        "study oracle noise, and train data-selected residual heuristics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI file; [common] plus a per-command section; flags win")
    common.add_argument("--seed", type=int, default=_env_seed(), help="master seed (HEURLAB_SEED fallback)")
    common.add_argument("--jobs", type=int, default=1, help="worker processes for parallel stages")

    sub = parser.add_subparsers(dest="command", required=True)

    def register(name, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        _SUBPARSERS[name] = p
        return p

    p = register("generate", "generate puzzle splits to instance directories")
    p.add_argument("--domain", choices=[d.value for d in Domain], default="maze")
    p.add_argument("--splits", default="", help="comma list; default: every split in the catalogue")
    p.add_argument("--out", required=True, help="output root; one directory per split")
    p.add_argument("--scale", type=float, default=0.1, help="split-size multiplier")
    p.add_argument("--boxoban", help="level file or directory (Sokoban source boards)")
    p.add_argument("--force", action="store_true", help="overwrite non-empty split directories")
    p.set_defaults(func=cmd_generate)

    p = register("solve", "solve an instance directory and write per-instance results")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="results file (line-delimited records)")
    p.add_argument("--heuristic", choices=["quick", "zero", "learned"], default="quick")
    p.add_argument("--model", help="model file for --heuristic learned")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)
    p.add_argument("--tie-break", choices=[t.value for t in TieBreak], default="larger_g")
    p.set_defaults(func=cmd_solve)

    p = register("oracle-study", "noise-injected exact-heuristic study on mazes")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sigmas", type=_comma_floats, default=[2.0, 4.0, 6.0])
    p.add_argument("--noise-seeds", type=int, default=3, help="number of derived noise seeds")
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--assert-ordering", action="store_true",
                   help="exit 1 unless End > Middle > Initial by --margin at every sigma")
    p.add_argument("--per-query", action="store_true", help="redraw noise on every query")
    p.add_argument("--no-clamp", action="store_true", help="allow negative noised heuristics")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)
    p.set_defaults(func=cmd_oracle_study)

    p = register("extract", "solve a split with the quick heuristic and extract the training pool")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="pool file (line-delimited records)")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)
    p.set_defaults(func=cmd_extract)

    p = register("sample", "select training examples from a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=[s.value for s in pipeline.Strategy], default="uniform")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--c-variant", choices=[c.value for c in pipeline.CVariant], default="log_ratio")
    p.add_argument("--budget", type=int, help="global selection size")
    p.add_argument("--per-problem-m", type=int, help="per-instance size (alternative to --budget)")
    p.add_argument("--section", help="section_split/exclusion_split target: initial, middle, end")
    p.add_argument("--clusters", type=int, help="semdedup cluster count (default pool/200)")
    p.add_argument("--threshold", type=float, default=0.95, help="semdedup cosine cutoff")
    p.set_defaults(func=cmd_sample)

    p = register("train", "fit a residual model on a selection")
    p.add_argument("--pool", required=True, help="selection file from `sample` or `extract`")
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--model-kind", choices=[k.value for k in models.ModelKind], default="knn")
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_train)

    p = register("eval", "run a heuristic over a split and report the metrics")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--name", default="eval", help="report file prefix")
    p.add_argument("--heuristic", choices=["quick", "zero", "learned"], default="learned")
    p.add_argument("--model", help="model file for --heuristic learned")
    p.add_argument("--references", help="reference file; computed (and saved here) when missing")
    p.add_argument("--eval-seeds", type=int, default=1, help="independent timing repeats")
    p.add_argument("--no-residual-floor", action="store_true")
    p.add_argument("--round-predictions", action="store_true")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)
    p.add_argument("--tie-break", choices=[t.value for t in TieBreak], default="larger_g")
    p.set_defaults(func=cmd_eval)

    p = register("pipeline", "checkpointed end-to-end run: generate, pool, sample, train, compare")
    p.add_argument("--workdir", required=True)
    p.add_argument("--domain", choices=[d.value for d in Domain], default="maze")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--strategies", default=",".join(PIPELINE_ROWS), help="comma list of comparison rows")
    p.add_argument("--budget", type=int, help="selection budget before scaling (domain default)")
    p.add_argument("--tau", type=float, help="planner-aware temperature (domain default)")
    p.add_argument("--combined-tau", type=float, help="temperature for semdedup_planner (domain default)")
    p.add_argument("--model-kind", choices=[k.value for k in models.ModelKind], default="knn")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--boxoban", help="Sokoban source boards (required for --domain sokoban)")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)
    p.set_defaults(func=cmd_pipeline)

    p = register("export-prompts", "render a selection as code-style prompt/target records")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_prompts)

    return parser


def _config_tokens(path: str, command: str) -> list[str]:
    """Turn [common] and [<command>] config entries into CLI tokens.

    The tokens are inserted before the user's own flags, so explicit flags win.
    """
    sub = _SUBPARSERS[command]
    cfg = configparser.ConfigParser()
    loaded = cfg.read(path)
    if not loaded:
        raise UsageError(f"config file {path!r} not found")
    tokens: list[str] = []
    for section in ("common", command):
        if not cfg.has_section(section):
            continue
        for key, value in cfg.items(section):
            flag = "--" + key.replace("_", "-")
            action = sub._option_string_actions.get(flag)
            if action is None:
                raise UsageError(f"config key {key!r} is not an option of {command!r}")
            if action.nargs == 0:
                if value.strip().lower() in ("1", "true", "yes", "on"):
                    tokens.append(flag)
                elif value.strip().lower() not in ("0", "false", "no", "off"):
                    raise UsageError(f"config key {key!r} expects a boolean, got {value!r}")
            else:
                tokens.extend([flag, value])
    return tokens


def _merge_config(argv: list[str]) -> list[str]:
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or command not in _SUBPARSERS:
        return argv
    at = argv.index(command) + 1
    return argv[:at] + _config_tokens(path, command) + argv[at:]


# ---------------------------------------------------------------------------
# Shared helpers

def _load_boxoban(path: str | None) -> list:
    if not path:
        raise UsageError("Sokoban needs --boxoban pointing at a level file or directory")
    p = Path(path)
    if p.is_dir():
        boards = []
        for f in sorted(p.rglob("*.txt")):
            boards.extend(generation.load_boxoban(f))
        if not boards:
            raise UsageError(f"no .txt level files under {path}")
        return boards
    return generation.load_boxoban(p)


def _build_split(domain: Domain, split: str, seed: int, scale: float, jobs: int, boxoban: str | None):
    if domain is Domain.MAZE:
        return generation.build_maze_split(split, seed, scale=scale, jobs=jobs)
    if domain is Domain.STP:
        return generation.build_stp_split(split, seed, scale=scale, jobs=jobs)
    return generation.build_sokoban_split(split, seed, _load_boxoban(boxoban), scale=scale)


def _evaluator_factory(args, model=None):
    kind = args.heuristic
    if kind == "quick":
        return lambda inst: evaluation.QuickHeuristic()
    if kind == "zero":
        from .search import ZeroHeuristic

        return lambda inst: ZeroHeuristic()
    if model is None:
        raise UsageError("--heuristic learned needs --model")
    floor = not getattr(args, "no_residual_floor", False)
    round_preds = getattr(args, "round_predictions", False)
    return lambda inst: models.learned_heuristic(model, floor_at_zero=floor, round_predictions=round_preds)


def _result_row(instance_id: str, res) -> dict:
    return {
        "instance_id": instance_id,
        "status": res.status.value,
        "plan_length": res.path_length,
        "closed_length": res.closed_length,
        "expansions": res.expansions,
        "heuristic_calls": res.heuristic_calls,
        "wall_time": res.wall_time,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_generate(args) -> int:
    domain = Domain(args.domain)
    catalogue = generation.SPLIT_CATALOGUE[domain]
    names = _comma_names(args.splits) or list(catalogue)
    unknown = [n for n in names if n not in catalogue]
    if unknown:
        raise UsageError(f"unknown splits {unknown}; {domain.value} has {list(catalogue)}")
    out_root = Path(args.out)
    boxoban = getattr(args, "boxoban", None)
    for split in names:
        instances = _build_split(domain, split, args.seed, args.scale, args.jobs, boxoban)
        out_dir = out_root / domain.value / split
        generation.write_split(instances, out_dir, force=args.force)
        print(f"{domain.value}/{split}: {len(instances)} instances -> {out_dir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instances = generation.read_split(args.instances)
    if args.heuristic == "learned" and not args.model:
        raise UsageError("--heuristic learned needs --model")
    model = models.load_model(args.model) if args.heuristic == "learned" else None
    factory = _evaluator_factory(args, model)
    results = evaluation.solve_all(instances, factory, limits=_limits(args), tie_break=_tie_break(args), jobs=args.jobs)
    rows = [_result_row(iid, results[iid]) for iid in sorted(results)]
    write_jsonl(args.out, rows)
    solved = sum(1 for r in rows if r["status"] == "solution_found")
    print(f"solved {solved}/{len(rows)} -> {args.out}")
    return EXIT_OK


def cmd_oracle_study(args) -> int:
    instances = generation.read_split(args.instances)
    noise_seeds = [derive_seed(args.seed, "noise", i) for i in range(args.noise_seeds)]
    rows, details = oracle.run_oracle_experiment(
        instances,
        sigmas=args.sigmas,
        seeds=noise_seeds,
        limits=_limits(args),
        clamp_at_zero=not args.no_clamp,
        per_query=args.per_query,
        jobs=args.jobs,
    )
    out = Path(args.out)
    evaluation.write_rows_csv(rows, out / "oracle_table.csv")
    write_jsonl(out / "oracle_details.jsonl", details)
    header = f"{'set':8s} {'sigma':>5s} {'ILR-solved':>11s} {'ILR-optimal':>12s} {'SWC':>7s} {'Optimal%':>8s}"
    print(header)
    for row in rows:
        sigma = "-" if row["sigma"] is None else f"{row['sigma']:.1f}"
        print(
            f"{row['set']:8s} {sigma:>5s} {row['ilr_on_solved']:11.4f} "
            f"{row['ilr_on_optimal']:12.4f} {row['swc']:7.4f} {row['optimal_pct']:8.1f}"
        )
    if args.assert_ordering and not oracle.ordering_holds(rows, margin=args.margin):
        print(f"ordering violated: need End > Middle > Initial by {args.margin} at every sigma", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_extract(args) -> int:
    instances = generation.read_split(args.instances)
    results = evaluation.solve_all(
        instances, lambda inst: evaluation.QuickHeuristic(), limits=_limits(args), jobs=args.jobs
    )
    pool, skipped = pipeline.extract_pool([(inst, results[inst.id]) for inst in instances])
    pipeline.write_pool(pool, args.out)
    print(f"pool: {len(pool)} examples from {len(instances) - skipped} instances "
          f"({skipped} unsolved skipped) -> {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    pool = pipeline.read_pool(args.pool)
    spec = pipeline.SamplingSpec(
        strategy=pipeline.Strategy(args.strategy),
        tau=args.tau,
        c_variant=pipeline.CVariant(args.c_variant),
        total_budget=args.budget,
        per_problem_m=args.per_problem_m,
        section=args.section,
        n_clusters=args.clusters,
        similarity_threshold=args.threshold,
        seed=args.seed,
    )
    selection = pipeline.run_strategy(pool, spec)
    pipeline.write_pool(selection, args.out)
    print(f"{args.strategy}: {len(selection)} of {len(pool)} examples -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    examples = pipeline.read_pool(args.pool)
    model = models.train_residual_model(
        examples, kind=args.model_kind, k=args.k, seed=args.seed, manifest={"source": str(args.pool)}
    )
    models.save_model(model, args.out)
    m = model.manifest
    print(f"{args.model_kind}: train MAE {m['train_mae']:.4f}, val MAE "
          f"{m['val_mae'] if m['val_mae'] is None else round(m['val_mae'], 4)} -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    instances = generation.read_split(args.instances)
    if args.heuristic == "learned" and not args.model:
        raise UsageError("--heuristic learned needs --model")
    limits = _limits(args)
    if args.references and Path(args.references).exists():
        references = evaluation.references_from_records(read_jsonl(args.references))
    else:
        references, failed = evaluation.compute_references(instances, limits=limits, jobs=args.jobs)
        if failed:
            print(f"warning: {len(failed)} instances had no reference solve", file=sys.stderr)
        if args.references:
            write_jsonl(args.references, evaluation.reference_records(references))
    model = models.load_model(args.model) if args.heuristic == "learned" else None
    factory = _evaluator_factory(args, model)
    outcome = evaluation.run_experiment(
        instances,
        references,
        lambda inst, seed: factory(inst),
        seeds=list(range(args.eval_seeds)),
        limits=limits,
        tie_break=_tie_break(args),
        jobs=args.jobs,
        config={"heuristic": args.heuristic, "model": args.model, "name": args.name},
    )
    out = Path(args.out)
    for seed, report in outcome.per_seed:
        evaluation.write_report(report, out, f"{args.name}_seed{seed}", manifest=outcome.manifest)
    evaluation.write_rows_csv([outcome.aggregate], out / f"{args.name}_aggregate.csv")
    agg = outcome.aggregate
    print(f"{args.name}: ILR-solved {agg['ilr_on_solved']:.4f}  ILR-optimal {agg['ilr_on_optimal']:.4f}  "
          f"SWC {agg['swc']:.4f}  Optimal% {agg['optimal_pct']:.1f}")
    return EXIT_OK


def cmd_export_prompts(args) -> int:
    examples = pipeline.read_pool(args.pool)
    n = pipeline.export_corpus(examples, "prompts", args.out, seed=args.seed)
    print(f"{n} prompt records -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# End-to-end pipeline with stage checkpoints

def _pipeline_config(args, domain: Domain) -> dict:
    budget = args.budget if args.budget is not None else DOMAIN_BUDGET[domain]
    tau = args.tau if args.tau is not None else DOMAIN_TAU[domain]
    combined_tau = args.combined_tau if args.combined_tau is not None else DOMAIN_COMBINED_TAU[domain]
    strategies = _comma_names(args.strategies)
    unknown = [s for s in strategies if s not in PIPELINE_ROWS]
    if unknown:
        raise UsageError(f"unknown strategies {unknown}; choose from {list(PIPELINE_ROWS)}")
    return {
        "domain": domain.value,
        "scale": args.scale,
        "seed": args.seed,
        "strategies": strategies,
        "budget": budget,
        "tau": tau,
        "combined_tau": combined_tau,
        "model_kind": args.model_kind,
        "k": args.k,
        "max_iterations": args.max_iterations,
        "max_wall_time": args.max_wall_time,
    }


def _sampling_spec(row: str, cfg: dict, budget: int) -> pipeline.SamplingSpec | None:
    seed = derive_seed(cfg["seed"], "sample", row)
    if row == "full_data":
        return None
    if row == "uniform":
        return pipeline.SamplingSpec(strategy=pipeline.Strategy.UNIFORM, total_budget=budget, seed=seed)
    if row == "planner_aware":
        return pipeline.SamplingSpec(
            strategy=pipeline.Strategy.PLANNER_AWARE, tau=cfg["tau"], total_budget=budget, seed=seed
        )
    if row == "semdedup":
        return pipeline.SamplingSpec(strategy=pipeline.Strategy.SEMDEDUP, total_budget=budget, seed=seed)
    return pipeline.SamplingSpec(
        strategy=pipeline.Strategy.COMBINED, tau=cfg["combined_tau"], total_budget=budget, seed=seed
    )


def cmd_pipeline(args) -> int:
    domain = Domain(args.domain)
    cfg = _pipeline_config(args, domain)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    if cfg_path.exists():
        stored = json.loads(cfg_path.read_text(encoding="utf-8"))
        if stored.get("config_hash") != content_hash(cfg):
            print(f"{workdir} was built with a different configuration; use a fresh --workdir", file=sys.stderr)
            return EXIT_RUNTIME
        print("resuming: configuration matches")
    else:
        cfg_path.write_text(json.dumps({"config": cfg, "config_hash": content_hash(cfg)}, indent=2) + "\n",
                            encoding="utf-8")
    limits = _limits(args)

    def stage(label, outputs, build):
        paths = [workdir / rel for rel in outputs]
        if all(p.exists() for p in paths):
            print(f"[{label}] up to date")
            return
        print(f"[{label}] running")
        build()

    # 1. instances
    splits = ("train", "test_iid", "test_ood")
    for split in splits:
        stage(
            f"instances/{split}",
            [f"instances/{split}/manifest.jsonl"],
            lambda split=split: generation.write_split(
                _build_split(domain, split, cfg["seed"], cfg["scale"], args.jobs, args.boxoban),
                workdir / "instances" / split,
                force=True,
            ),
        )
    instances = {split: generation.read_split(workdir / "instances" / split) for split in splits}

    # 2. references for the evaluation splits
    def build_references(split):
        refs, failed = evaluation.compute_references(instances[split], limits=limits, jobs=args.jobs)
        write_jsonl(workdir / "references" / f"{split}.jsonl", evaluation.reference_records(refs))
        if failed:
            write_jsonl(workdir / "references" / f"{split}_unsolved.jsonl", [{"instance_id": i} for i in failed])
            print(f"  {split}: {len(failed)} instances had no reference solve; excluded", file=sys.stderr)

    for split in ("test_iid", "test_ood"):
        stage(f"references/{split}", [f"references/{split}.jsonl"], lambda split=split: build_references(split))
    references = {
        split: evaluation.references_from_records(read_jsonl(workdir / "references" / f"{split}.jsonl"))
        for split in ("test_iid", "test_ood")
    }

    # 3. training pool from quick solves of the train split
    def build_pool():
        results = evaluation.solve_all(
            instances["train"], lambda inst: evaluation.QuickHeuristic(), limits=limits, jobs=args.jobs
        )
        pool, skipped = pipeline.extract_pool([(inst, results[inst.id]) for inst in instances["train"]])
        if skipped:
            print(f"  pool: {skipped} unsolved train instances skipped", file=sys.stderr)
        pipeline.write_pool(pool, workdir / "pool.jsonl")

    stage("pool", ["pool.jsonl"], build_pool)
    pool = pipeline.read_pool(workdir / "pool.jsonl")
    budget = generation.scaled_count(cfg["budget"], cfg["scale"])

    # 4. per-strategy selections
    def build_selection(row):
        spec = _sampling_spec(row, cfg, budget)
        selection = list(pool) if spec is None else pipeline.run_strategy(pool, spec)
        pipeline.write_pool(selection, workdir / "selections" / f"{row}.jsonl")

    for row in cfg["strategies"]:
        stage(f"selections/{row}", [f"selections/{row}.jsonl"], lambda row=row: build_selection(row))

    # 5. per-strategy models
    def build_model(row):
        selection = pipeline.read_pool(workdir / "selections" / f"{row}.jsonl")
        model = models.train_residual_model(
            selection,
            kind=cfg["model_kind"],
            k=cfg["k"],
            seed=derive_seed(cfg["seed"], "train", row),
            manifest={"strategy": row, "budget": None if row == "full_data" else budget},
        )
        models.save_model(model, workdir / "models" / f"{row}.json")

    (workdir / "models").mkdir(exist_ok=True)
    for row in cfg["strategies"]:
        stage(f"models/{row}", [f"models/{row}.json"], lambda row=row: build_model(row))

    # 6. evaluation per strategy and split
    def build_eval(row, split):
        model = models.load_model(workdir / "models" / f"{row}.json")
        split_instances = instances[split]
        dims = {len(domains.feature_vector(inst.start_state, inst)) for inst in split_instances}
        usable = dims == {model.n_features}
        out_dir = workdir / "eval"
        name = f"{row}_{split}"
        if not usable:
            # Board sizes whose feature dimensionality differs from the
            # training boards cannot be scored by the built-in models.
            evaluation.write_rows_csv(
                [{"strategy": row, "split": split, "skipped": "feature dimensionality differs from training"}],
                out_dir / f"{name}_summary.csv",
            )
            print(f"  {name}: skipped (feature dimensionality differs)", file=sys.stderr)
            return
        outcome = evaluation.run_experiment(
            split_instances,
            references[split],
            lambda inst, seed: models.learned_heuristic(model),
            seeds=[0],
            limits=limits,
            jobs=args.jobs,
            config={"strategy": row, "split": split, **cfg},
        )
        _, report = outcome.per_seed[0]
        evaluation.write_report(report, out_dir, name, manifest=outcome.manifest)

    for row in cfg["strategies"]:
        for split in ("test_iid", "test_ood"):
            stage(f"eval/{row}_{split}", [f"eval/{row}_{split}_summary.csv"],
                  lambda row=row, split=split: build_eval(row, split))

    # 7. comparison table (non-timing metrics only, so reruns diff clean)
    def build_comparison():
        rows = []
        for row in cfg["strategies"]:
            entry = {"strategy": row}
            for split, tag in (("test_iid", "iid"), ("test_ood", "ood")):
                summary = evaluation.read_rows_csv(workdir / "eval" / f"{row}_{split}_summary.csv")[0]
                if "skipped" in summary:
                    entry.update({f"{tag}_{c}": "" for c in ("ilr_on_solved", "ilr_on_optimal", "swc", "optimal_pct")})
                else:
                    for col in ("ilr_on_solved", "ilr_on_optimal", "swc", "optimal_pct"):
                        entry[f"{tag}_{col}"] = summary[col]
            rows.append(entry)
        evaluation.write_rows_csv(rows, workdir / "comparison.csv")

    stage("comparison", ["comparison.csv"], build_comparison)
    print(f"\ncomparison ({domain.value}, scale {cfg['scale']}, budget {budget}):")
    rows = evaluation.read_rows_csv(workdir / "comparison.csv")
    cols = list(rows[0].keys()) if rows else []
    print("  " + "  ".join(f"{c:>16s}" for c in cols))
    for row in rows:
        cells = [row[c] if not row[c].replace(".", "").replace("-", "").isdigit() else f"{float(row[c]):.4f}"
                 for c in cols]
        print("  " + "  ".join(f"{c:>16s}" for c in cells))
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        if os.environ.get("HEURLAB_DEBUG") == "1":
            import traceback  # only on this path, to keep start-up lean

            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
