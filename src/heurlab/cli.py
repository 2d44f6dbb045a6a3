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

from . import evaluation, generation, models, oracle, pipeline
from .domains import Domain
from .search import SearchLimits, TieBreak, ZeroHeuristic
from .util import atomic_write, content_hash, convert_records, derive_seed, read_jsonl, write_jsonl

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# Sampling defaults per domain, scaled alongside split sizes by --scale.
DOMAIN_BUDGET = {Domain.MAZE: 12000, Domain.SOKOBAN: 8000, Domain.STP: 8000}
DOMAIN_TAU = {Domain.MAZE: 2.0, Domain.SOKOBAN: 0.8, Domain.STP: 5.0}
# The combined strategy favors a flatter draw on Sokoban.
DOMAIN_COMBINED_TAU = {Domain.MAZE: 2.0, Domain.SOKOBAN: 5.0, Domain.STP: 5.0}

# Comparison rows of `pipeline`, in their default order: row -> (sampling
# strategy, config key of its temperature or None for the default tau).
# full_data trains on the whole pool.
PIPELINE_ROWS = {
    "full_data": None,
    "uniform": (pipeline.Strategy.UNIFORM, None),
    "planner_aware": (pipeline.Strategy.PLANNER_AWARE, "tau"),
    "semdedup": (pipeline.Strategy.SEMDEDUP, None),
    "semdedup_planner": (pipeline.Strategy.COMBINED, "combined_tau"),
}

# The option flags of `sample` (by argparse dest) -> the SamplingSpec field
# each sets; `pipeline.READS` says which strategies read that field.
SAMPLE_OPTIONS = {
    "tau": "tau",
    "c_variant": "c_variant",
    "budget": "total_budget",
    "per_problem_m": "per_problem_m",
    "section": "section",
    "clusters": "n_clusters",
    "threshold": "similarity_threshold",
}

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
    if args.max_iterations is None and args.max_wall_time is None:
        return None
    return SearchLimits(max_iterations=args.max_iterations, max_wall_time=args.max_wall_time)


def _comma_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _comma_names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# Parser construction and config-file merging

def _limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--max-wall-time", type=float)


def _heuristic_flags(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--heuristic", choices=["quick", "zero", "learned"], default=default)
    p.add_argument("--model", help="model file for --heuristic learned")


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-kind", choices=[k.value for k in models.ModelKind], default="knn")
    p.add_argument("--k", type=int, default=8)


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
    _heuristic_flags(p, "quick")
    _limit_flags(p)
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
    _limit_flags(p)
    p.set_defaults(func=cmd_oracle_study)

    p = register("extract", "solve a split with the quick heuristic and extract the training pool")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="pool file (line-delimited records)")
    _limit_flags(p)
    p.set_defaults(func=cmd_extract)

    p = register("sample", "select training examples from a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=[s.value for s in pipeline.Strategy], default="uniform")
    # SamplingSpec holds the defaults: an option left unset is absent from args.
    unset = argparse.SUPPRESS
    p.add_argument("--tau", type=float, default=unset)
    p.add_argument("--c-variant", type=pipeline.CVariant, choices=[c.value for c in pipeline.CVariant], default=unset)
    p.add_argument("--budget", type=int, default=unset, help="global selection size")
    p.add_argument("--per-problem-m", type=int, default=unset, help="per-instance size (alternative to --budget)")
    p.add_argument("--section", default=unset,
                   help="section_split selector: all, initial, middle, end or ~<section> for the other two")
    p.add_argument("--clusters", type=int, default=unset,
                   help="k-means cluster count of semdedup and of combined's per-instance dedup "
                        "(default: one per 200 examples it dedups, rounded up)")
    p.add_argument("--threshold", type=float, default=unset,
                   help="cosine cutoff of semdedup and of combined's per-instance dedup")
    p.set_defaults(func=cmd_sample)

    p = register("train", "fit a residual model on a selection")
    p.add_argument("--pool", required=True, help="selection file from `sample` or `extract`")
    p.add_argument("--out", required=True, help="model file")
    _model_flags(p)
    p.set_defaults(func=cmd_train)

    p = register("eval", "run a heuristic over a split and report the metrics")
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--name", default="eval", help="report file prefix")
    _heuristic_flags(p, "learned")
    p.add_argument("--references", help="reference file; computed (and saved here) when missing")
    p.add_argument("--eval-seeds", type=int, default=1, help="independent timing repeats")
    p.add_argument("--no-residual-floor", action="store_true")
    p.add_argument("--round-predictions", action="store_true")
    _limit_flags(p)
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
    _model_flags(p)
    p.add_argument("--boxoban", help="Sokoban source boards (required for --domain sokoban)")
    _limit_flags(p)
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


def _evaluator_factory(args, instances):
    """Per-instance evaluators for ``--heuristic``. A learned model is loaded
    and checked against ``instances`` here, before anything is solved."""
    if args.heuristic == "quick":
        return lambda inst: evaluation.QuickHeuristic()
    if args.heuristic == "zero":
        return lambda inst: ZeroHeuristic()
    if not args.model:
        raise UsageError("--heuristic learned needs --model")
    model = models.load_model(args.model)
    reason = models.mismatch_reason(model, instances)
    if reason:
        raise ValueError(f"{args.model} cannot score {args.instances}: {reason}")
    # Only eval declares the two prediction flags.
    floor = not getattr(args, "no_residual_floor", False)
    round_preds = getattr(args, "round_predictions", False)
    return lambda inst: models.LearnedHeuristic(model, floor, round_preds)


def _read_references(path) -> dict:
    return {ref.instance_id: ref for ref in convert_records(path, read_jsonl(path), evaluation.reference_from_record)}


def _quick_pool(instances, limits, jobs):
    """Solve with the quick heuristic, which is admissible, so every plan is
    optimal; then extract the pool. Returns (pool, unsolved count)."""
    results = evaluation.solve_all(instances, lambda inst: evaluation.QuickHeuristic(), limits=limits, jobs=jobs)
    return pipeline.extract_pool([(inst, results[inst.id]) for inst in instances])


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
    for split in names:
        instances = _build_split(domain, split, args.seed, args.scale, args.jobs, args.boxoban)
        out_dir = out_root / domain.value / split
        generation.write_split(instances, out_dir, force=args.force)
        print(f"{domain.value}/{split}: {len(instances)} instances -> {out_dir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instances = generation.read_split(args.instances)
    factory = _evaluator_factory(args, instances)
    results = evaluation.solve_all(
        instances, factory, limits=_limits(args), tie_break=TieBreak(args.tie_break), jobs=args.jobs
    )
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
    pool, skipped = _quick_pool(instances, _limits(args), args.jobs)
    pipeline.write_pool(pool, args.out)
    print(f"pool: {len(pool)} examples from {len(instances) - skipped} instances "
          f"({skipped} unsolved skipped) -> {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    strategy = pipeline.Strategy(args.strategy)
    given = {field: getattr(args, dest) for dest, field in SAMPLE_OPTIONS.items() if hasattr(args, dest)}
    ignored = [f"--{dest.replace('_', '-')}" for dest, field in SAMPLE_OPTIONS.items()
               if field in given and field not in pipeline.READS[strategy]]
    if ignored:
        raise UsageError(f"--strategy {strategy.value} does not read {', '.join(ignored)}")
    if "total_budget" in given and "per_problem_m" in given:
        raise UsageError("give --budget or --per-problem-m, not both: the budget would win")
    pool = pipeline.read_pool(args.pool)
    spec = pipeline.SamplingSpec(strategy, seed=args.seed, **given)
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
    factory = _evaluator_factory(args, instances)
    limits = _limits(args)
    if args.references and Path(args.references).exists():
        references = _read_references(args.references)
    else:
        references, failed = evaluation.compute_references(instances, limits=limits, jobs=args.jobs)
        if failed:
            print(f"warning: {len(failed)} instances had no reference solve", file=sys.stderr)
        if args.references:
            write_jsonl(args.references, evaluation.reference_records(references))
    outcome = evaluation.run_experiment(
        instances,
        references,
        factory,
        seeds=list(range(args.eval_seeds)),
        limits=limits,
        tie_break=TieBreak(args.tie_break),
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
    n = pipeline.export_corpus(examples, args.out, seed=args.seed)
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
        with atomic_write(cfg_path) as fh:
            fh.write(json.dumps({"config": cfg, "config_hash": content_hash(cfg)}, indent=2) + "\n")
    limits = _limits(args)

    def stage(label, output, build, *build_args):
        """``workdir/output``, built first by ``build(path, *build_args)``
        unless it exists."""
        path = workdir / output
        if path.exists():
            print(f"[{label}] up to date")
        else:
            print(f"[{label}] running")
            build(path, *build_args)
        return path

    # 1. instances
    def build_split(path, split):
        built = _build_split(domain, split, cfg["seed"], cfg["scale"], args.jobs, args.boxoban)
        generation.write_split(built, path.parent, force=True)

    splits = ("train", "test_iid", "test_ood")
    manifests = {split: stage(f"instances/{split}", f"instances/{split}/manifest.jsonl", build_split, split)
                 for split in splits}
    instances = {split: generation.read_split(path.parent) for split, path in manifests.items()}

    # 2. references for the evaluation splits
    def build_references(path, split):
        refs, failed = evaluation.compute_references(instances[split], limits=limits, jobs=args.jobs)
        if failed:
            write_jsonl(path.with_name(f"{split}_unsolved.jsonl"), [{"instance_id": i} for i in failed])
            print(f"  {split}: {len(failed)} instances had no reference solve; excluded", file=sys.stderr)
        write_jsonl(path, evaluation.reference_records(refs))

    eval_splits = ("test_iid", "test_ood")
    reference_files = {split: stage(f"references/{split}", f"references/{split}.jsonl", build_references, split)
                       for split in eval_splits}
    references = {split: _read_references(path) for split, path in reference_files.items()}

    # 3. training pool from quick solves of the train split
    def build_pool(path):
        pool, skipped = _quick_pool(instances["train"], limits, args.jobs)
        if skipped:
            print(f"  pool: {skipped} unsolved train instances skipped", file=sys.stderr)
        pipeline.write_pool(pool, path)

    pool = pipeline.read_pool(stage("pool", "pool.jsonl", build_pool))
    budget = generation.scaled_count(cfg["budget"], cfg["scale"])

    # 4. per-strategy selections
    def build_selection(path, row):
        selection = pool
        if PIPELINE_ROWS[row]:
            strategy, tau_key = PIPELINE_ROWS[row]
            tau = {"tau": cfg[tau_key]} if tau_key else {}
            seed = derive_seed(cfg["seed"], "sample", row)
            selection = pipeline.run_strategy(pool, pipeline.SamplingSpec(strategy, total_budget=budget, seed=seed, **tau))
        pipeline.write_pool(selection, path)

    strategies = cfg["strategies"]
    selections = {row: stage(f"selections/{row}", f"selections/{row}.jsonl", build_selection, row)
                  for row in strategies}

    # 5. per-strategy models
    def build_model(path, row):
        model = models.train_residual_model(
            pipeline.read_pool(selections[row]),
            kind=cfg["model_kind"],
            k=cfg["k"],
            seed=derive_seed(cfg["seed"], "train", row),
            manifest={"strategy": row, "budget": None if row == "full_data" else budget},
        )
        models.save_model(model, path)

    model_files = {row: stage(f"models/{row}", f"models/{row}.json", build_model, row) for row in strategies}

    # 6. evaluation per strategy and split
    def build_eval(path, row, split):
        model = models.load_model(model_files[row])
        name = f"{row}_{split}"
        reason = models.mismatch_reason(model, instances[split])
        if reason:
            # e.g. sliding-tile test_ood boards are wider than the training boards
            evaluation.write_rows_csv([{"strategy": row, "split": split, "skipped": reason}], path)
            print(f"  {name}: skipped ({reason})", file=sys.stderr)
            return
        outcome = evaluation.run_experiment(
            instances[split],
            references[split],
            lambda inst: models.LearnedHeuristic(model),
            seeds=[0],
            limits=limits,
            jobs=args.jobs,
            config={"strategy": row, "split": split, **cfg},
        )
        _, report = outcome.per_seed[0]
        evaluation.write_report(report, path.parent, name, manifest=outcome.manifest)

    summaries = {(row, split): stage(f"eval/{row}_{split}", f"eval/{row}_{split}_summary.csv", build_eval, row, split)
                 for row in strategies for split in eval_splits}

    # 7. comparison table (non-timing metrics only, so reruns diff clean)
    def build_comparison(path):
        rows = []
        for row in strategies:
            entry = {"strategy": row}
            for split, tag in (("test_iid", "iid"), ("test_ood", "ood")):
                summary = evaluation.read_rows_csv(summaries[row, split])[0]
                for col in evaluation.HEADLINE_METRICS:
                    entry[f"{tag}_{col}"] = "" if "skipped" in summary else summary[col]
            rows.append(entry)
        evaluation.write_rows_csv(rows, path)

    comparison = stage("comparison", "comparison.csv", build_comparison)
    print(f"\ncomparison ({domain.value}, scale {cfg['scale']}, budget {budget}):")
    rows = evaluation.read_rows_csv(comparison)
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
