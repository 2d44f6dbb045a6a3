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
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import evaluation, generation, models, oracle, pipeline
from .domains import Domain
from .search import TieBreak, ZeroHeuristic
from .util import atomic_write, content_hash, derive_seed, read_jsonl, write_jsonl

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# Pipeline sampling defaults per domain, in config order; --scale scales the budget like the split sizes.
DOMAIN_DEFAULTS = {
    Domain.MAZE: {"budget": 12000, "tau": 2.0, "combined_tau": 2.0},
    Domain.SOKOBAN: {"budget": 8000, "tau": 0.8, "combined_tau": 5.0},  # combined favors a flatter draw
    Domain.STP: {"budget": 8000, "tau": 5.0, "combined_tau": 5.0},
}

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

_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


class UsageError(Exception):
    pass


def _env_seed() -> int | UsageError:
    """``--seed``'s default: HEURLAB_SEED, else 0. A value that is not an
    integer is kept as its error, which main() raises only when no ``--seed``
    replaces it."""
    raw = os.environ.get("HEURLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        return UsageError(f"HEURLAB_SEED must be an integer, got {raw!r}")


def _rule(name: str, holds) -> type[argparse.Action]:
    """The action of an option whose value, or each entry of a list value, must be ``name``, as ``holds``
    tests it. A config-file value arrives as a flag, so it is refused the same way, before any handler runs."""
    class Rule(argparse.Action):
        rule = name

        def __call__(self, parser, namespace, values, option_string=None):
            for value in values if isinstance(values, list) else [values]:
                if not holds(value):
                    raise UsageError(f"{self.option_strings[0]} must be {name}, got {value}")
            setattr(namespace, self.dest, values)

    return Rule


# Each numeric option but --seed declares one of these as its action. NaN fails every one.
POSITIVE = _rule("positive", lambda v: v > 0)
NONNEGATIVE = _rule("nonnegative", lambda v: v >= 0)
FINITE = _rule("finite", math.isfinite)
FINITE_POSITIVE = _rule("finite and positive", lambda v: 0 < v < math.inf)
FINITE_NONNEGATIVE = _rule("finite and nonnegative", lambda v: 0 <= v < math.inf)


def _is_section_selector(text: str) -> bool:
    try:
        oracle.parse_sections(text)
    except ValueError:
        return False
    return True


def _comma_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _name_list(flag: str, text: str, known, every: list[str] | None = None) -> list[str]:
    """The names of ``flag``'s comma list ``text``, each one of ``known`` and
    none twice; an empty list stands for ``every``, and is refused without it."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise UsageError(f"unknown {flag.lstrip('-')} {unknown}; choose from {list(known)}")
    repeated = list(dict.fromkeys(n for n in names if names.count(n) > 1))
    if repeated:
        raise UsageError(f"{flag} names {repeated} more than once")
    if names:
        return names
    if every is None:
        raise UsageError(f"{flag} names nothing; choose from {list(known)}")
    return every


# ---------------------------------------------------------------------------
# Parser construction and config-file merging

def _limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iterations", type=int, action=NONNEGATIVE)


def _heuristic_flags(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--heuristic", choices=["quick", "zero", "learned"], default=default)
    p.add_argument("--model", help="model file for --heuristic learned")


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-kind", choices=[k.value for k in models.ModelKind], default="knn")
    p.add_argument("--k", type=int, default=8, action=POSITIVE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heurlab",
        description="Search-efficiency laboratory: generate puzzles, solve them, "
        "study oracle noise, and train data-selected residual heuristics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI file; [common] plus a per-command section; flags win")
    common.add_argument("--seed", type=int, default=_env_seed(), help="master seed (HEURLAB_SEED fallback)")
    common.add_argument("--jobs", type=int, default=1, action=POSITIVE, help="worker processes for parallel stages")

    sub = parser.add_subparsers(dest="command", required=True)

    def register(name, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        _SUBPARSERS[name] = p
        return p

    p = register("generate", "generate puzzle splits to instance directories")
    p.add_argument("--domain", choices=[d.value for d in Domain], default="maze")
    p.add_argument("--splits", default="", help="comma list; default: every split in the catalogue")
    p.add_argument("--out", required=True, help="output root; one directory per split")
    p.add_argument("--scale", type=float, default=0.1, action=FINITE_POSITIVE, help="split-size multiplier")
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
    p.add_argument("--sigmas", type=_comma_floats, default=[2.0, 4.0, 6.0], action=FINITE_NONNEGATIVE)
    p.add_argument("--noise-seeds", type=int, default=3, action=POSITIVE, help="number of derived noise seeds")
    p.add_argument("--margin", type=float, default=0.05, action=FINITE)
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
    # Each dest is the SamplingSpec field, which holds the default: an unset option is absent from args.
    unset = argparse.SUPPRESS
    p.add_argument("--tau", type=float, default=unset, action=POSITIVE)
    p.add_argument("--c-variant", type=pipeline.CVariant, choices=[c.value for c in pipeline.CVariant], default=unset)
    p.add_argument("--budget", type=int, default=unset, dest="total_budget", metavar="BUDGET", action=POSITIVE,
                   help="global selection size")
    p.add_argument("--per-problem-m", type=int, default=unset, action=POSITIVE,
                   help="per-instance size (alternative to --budget)")
    p.add_argument("--section", default=unset,
                   action=_rule("all, initial, middle, end or ~<section>", _is_section_selector),
                   help="section_split selector: all, initial, middle, end or ~<section> for the other two")
    p.add_argument("--clusters", type=int, default=unset, dest="n_clusters", metavar="CLUSTERS", action=POSITIVE,
                   help="k-means cluster count of semdedup and of combined's per-instance dedup "
                        "(default: one per 200 examples it dedups, rounded up)")
    p.add_argument("--threshold", type=float, default=unset, dest="similarity_threshold", metavar="THRESHOLD",
                   action=_rule("finite and at least -1", lambda v: -1 <= v < math.inf),
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
    p.add_argument("--eval-seeds", type=int, default=1, action=POSITIVE, help="independent timing repeats")
    p.add_argument("--no-residual-floor", action="store_true")
    p.add_argument("--round-predictions", action="store_true")
    _limit_flags(p)
    p.add_argument("--tie-break", choices=[t.value for t in TieBreak], default="larger_g")
    p.set_defaults(func=cmd_eval)

    p = register("pipeline", "checkpointed end-to-end run: generate, pool, sample, train, compare")
    p.add_argument("--workdir", required=True)
    p.add_argument("--domain", choices=[d.value for d in Domain], default="maze")
    p.add_argument("--scale", type=float, default=0.1, action=FINITE_POSITIVE)
    p.add_argument("--strategies", default=",".join(PIPELINE_ROWS), help="comma list of comparison rows")
    p.add_argument("--budget", type=int, action=POSITIVE, help="selection budget before scaling (domain default)")
    p.add_argument("--tau", type=float, action=POSITIVE, help="planner-aware temperature (domain default)")
    p.add_argument("--combined-tau", type=float, action=POSITIVE, help="temperature for semdedup_planner (domain default)")
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
    cfg = configparser.ConfigParser(interpolation=None)  # values are taken literally: '5%' stays '5%'
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

def _boxoban(path: str | None) -> str:
    """The ``--boxoban`` source, which Sokoban needs."""
    if not path:
        raise UsageError("Sokoban needs --boxoban pointing at a level file or directory")
    return path


def _evaluator(args, instances):
    """The ``--heuristic`` evaluator; a model is loaded and checked against ``instances`` before any solve."""
    if args.heuristic == "quick":
        return evaluation.QuickHeuristic()
    if args.heuristic == "zero":
        return ZeroHeuristic()
    if not args.model:
        raise UsageError("--heuristic learned needs --model")
    model = models.load_model(args.model)
    reason = models.mismatch_reason(model, instances)
    if reason:
        raise ValueError(f"{args.model} cannot score {args.instances}: {reason}")
    # Only eval declares the two prediction flags.
    floor = not getattr(args, "no_residual_floor", False)
    round_preds = getattr(args, "round_predictions", False)
    return models.LearnedHeuristic(model, floor, round_preds)


def _read_references(path) -> dict:
    return {ref.instance_id: ref for ref in read_jsonl(path, evaluation.reference_from_record)}


def _quick_pool(instances, max_iterations, jobs):
    """Solve with the quick heuristic, which is admissible, so every plan is
    optimal; then extract the pool. Returns (pool, unsolved count)."""
    results = evaluation.solve_all(instances, evaluation.QuickHeuristic(), max_iterations, jobs=jobs)
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
    names = _name_list("--splits", args.splits, catalogue, every=list(catalogue))
    out_root = Path(args.out)
    boards = functools.cache(lambda: generation.load_boxoban(_boxoban(args.boxoban)))
    for split in names:
        instances = generation.build_split(domain, split, args.seed, args.scale, args.jobs, boards)
        out_dir = out_root / domain.value / split
        generation.write_split(instances, out_dir, force=args.force)
        print(f"{domain.value}/{split}: {len(instances)} instances -> {out_dir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instances = generation.read_split(args.instances)
    results = evaluation.solve_all(
        instances, _evaluator(args, instances), args.max_iterations, TieBreak(args.tie_break), args.jobs
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
        max_iterations=args.max_iterations,
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
    pool, skipped = _quick_pool(instances, args.max_iterations, args.jobs)
    pipeline.write_pool(pool, args.out)
    print(f"pool: {len(pool)} examples from {len(instances) - skipped} instances "
          f"({skipped} unsolved skipped) -> {args.out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    strategy = pipeline.Strategy(args.strategy)
    actions = _SUBPARSERS["sample"]._actions
    flag = {a.dest: a.option_strings[0] for a in actions if a.option_strings}
    given = {a.dest: getattr(args, a.dest) for a in actions if a.default is argparse.SUPPRESS and hasattr(args, a.dest)}
    ignored = [flag[dest] for dest in given if dest not in pipeline.READS[strategy]]
    if ignored:
        raise UsageError(f"--strategy {strategy.value} does not read {', '.join(ignored)}")
    if "total_budget" in given and "per_problem_m" in given:
        raise UsageError("give --budget or --per-problem-m, not both: the budget would win")
    spec = pipeline.SamplingSpec(strategy, seed=args.seed, **given)
    lacking = pipeline.unmet_needs(spec, flag.get)
    if lacking:
        raise UsageError(f"--strategy {strategy.value} needs {' and '.join(lacking)}")
    pool = pipeline.read_pool(args.pool)
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
    evaluator = _evaluator(args, instances)
    if args.references and Path(args.references).exists():
        references = _read_references(args.references)
        missing = sum(inst.id not in references for inst in instances)
        if missing:
            print(f"warning: {missing} of {len(instances)} instances have no reference in {args.references}",
                  file=sys.stderr)
    else:
        references, failed = evaluation.compute_references(instances, args.max_iterations, args.jobs)
        if failed:
            print(f"warning: {len(failed)} instances had no reference solve", file=sys.stderr)
        if args.references:
            write_jsonl(args.references, evaluation.reference_records(references))
    tie_break = TieBreak(args.tie_break)
    seeds = list(range(args.eval_seeds))
    manifest = evaluation.run_manifest(
        instances, {"heuristic": args.heuristic, "model": args.model, "name": args.name}, seeds
    )
    out = Path(args.out)
    reports = []
    for seed in seeds:
        report = evaluation.solve_and_score(instances, references, evaluator, args.max_iterations, tie_break, args.jobs)
        evaluation.write_report(report, out, f"{args.name}_seed{seed}", manifest)
        reports.append(report)
    agg = evaluation.mean_over_reports(reports)
    evaluation.write_rows_csv([agg], out / f"{args.name}_aggregate.csv")
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
    strategies = _name_list("--strategies", args.strategies, PIPELINE_ROWS)
    cfg = {
        "domain": domain.value,
        "scale": args.scale,
        "seed": args.seed,
        "strategies": strategies,
        **{key: default if getattr(args, key) is None else getattr(args, key)
           for key, default in DOMAIN_DEFAULTS[domain].items()},
        "model_kind": args.model_kind,
        "k": args.k,
        "max_iterations": args.max_iterations,
        "max_wall_time": None,  # the removed wall-time limit; kept so config.json and its hash stay the same
    }
    if domain is Domain.SOKOBAN:  # a resume must read the same levels
        cfg["boxoban"] = generation.source_hash(_boxoban(args.boxoban))
    return cfg


def run_pipeline(workdir: Path, cfg: dict, jobs: int, boards) -> Path:
    """Build in ``workdir`` the stages of ``_pipeline_config``'s ``cfg`` that are missing, with Sokoban
    source ``boards()``; returns the comparison table. A workdir of another ``cfg`` is refused first."""
    domain = Domain(cfg["domain"])
    max_iterations = cfg["max_iterations"]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    if cfg_path.exists():
        try:
            stored = json.loads(cfg_path.read_text(encoding="utf-8"))
            if not isinstance(stored, dict):
                raise ValueError(f"expected a JSON object, got {type(stored).__name__}")
        except ValueError as exc:
            raise ValueError(f"{cfg_path}: {exc}") from None
        if stored.get("config_hash") != content_hash(cfg):
            raise ValueError(f"{workdir} was built with a different configuration; use a fresh --workdir")
        print("resuming: configuration matches")
    else:
        with atomic_write(cfg_path) as fh:
            fh.write(json.dumps({"config": cfg, "config_hash": content_hash(cfg)}, indent=2) + "\n")

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
        built = generation.build_split(domain, split, cfg["seed"], cfg["scale"], jobs, boards)
        generation.write_split(built, path.parent, force=True)

    splits = ("train", "test_iid", "test_ood")
    manifests = {split: stage(f"instances/{split}", f"instances/{split}/manifest.jsonl", build_split, split)
                 for split in splits}
    instances = {split: generation.read_split(path.parent) for split, path in manifests.items()}

    # 2. references for the evaluation splits
    def build_references(path, split):
        refs, failed = evaluation.compute_references(instances[split], max_iterations, jobs)
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
        pool, skipped = _quick_pool(instances["train"], max_iterations, jobs)
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
        report = evaluation.solve_and_score(instances[split], references[split], models.LearnedHeuristic(model),
                                            max_iterations, TieBreak.LARGER_G, jobs)
        manifest = evaluation.run_manifest(instances[split], {"strategy": row, "split": split, **cfg}, [0])
        evaluation.write_report(report, path.parent, name, manifest)

    summaries = {(row, split): stage(f"eval/{row}_{split}", f"eval/{row}_{split}_summary.csv", build_eval, row, split)
                 for row in strategies for split in eval_splits}

    # 7. comparison table (non-timing metrics only, so reruns diff clean).
    # A skipped eval, or one where no instance has a reference, scores
    # nothing, so its cells stay empty rather than read as a score of 0.
    def build_comparison(path):
        rows = []
        for row in strategies:
            entry = {"strategy": row}
            for split, tag in (("test_iid", "iid"), ("test_ood", "ood")):
                summary = evaluation.read_rows_csv(summaries[row, split])[0]
                scored = summary.get("n_total", "0") != "0"
                for col in evaluation.HEADLINE_METRICS:
                    entry[f"{tag}_{col}"] = summary[col] if scored else ""
            rows.append(entry)
        evaluation.write_rows_csv(rows, path)

    return stage("comparison", "comparison.csv", build_comparison)


def cmd_pipeline(args) -> int:
    domain = Domain(args.domain)
    cfg = _pipeline_config(args, domain)
    boards = functools.cache(lambda: generation.load_boxoban(args.boxoban))  # a Sokoban config has checked the path
    comparison = run_pipeline(Path(args.workdir), cfg, args.jobs, boards)
    budget = generation.scaled_count(cfg["budget"], cfg["scale"])
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
        if isinstance(args.seed, UsageError):
            raise args.seed
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
