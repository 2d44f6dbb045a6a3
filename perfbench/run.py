"""heurlab benchmark: times seeded workloads through the ``heurlab`` CLI.

    python3 perfbench/run.py --workload puzzle-pipelines --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the program runs from ``src`` there. One
run prepares the workload's inputs from the seed ``SETUP_REPEATS`` times
(for a median set-up time), then times whole passes of the workload's
commands, one process at a time, for up to ``--seconds`` (at least one
pass). A pass counts as correct when every command exits 0, every pipeline
prints its stage markers, the workload's output checks hold, and the output
digest equals the other passes' and the one recorded in
``perfbench/digests.json`` for this workload and seed. Digests are recorded
for seeds 0-20 only; for any other seed the details say
``"digest_check": "unrecorded"`` and the output bytes are compared only
between passes (and with the traced pass), so a change to the program that alters the outputs
goes unnoticed for that seed. A pass of either workload takes about 30 s, so
at ``--seconds`` 35 a run makes one untraced pass.

With ``--trace 1`` the inputs are prepared once, one more pass runs under
``perfbench/traced.py``, and the run reports per-layer metrics instead of
end-to-end ones; the traced pass must reproduce the untraced digest. The
raw traces, spans included, are kept in
``.bench_work/<workload>-<seed>-<pid>.trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: per-stage medians, every pass, the digest and the
environment. The exit code is 0 for a correct run, 1 for an incorrect one,
and 2 or 3 when no result could be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from digest import tree_digest
from workloads import WORKLOADS, CheckFailed, stage_of

HERE = Path(__file__).resolve().parent

DIGESTS = HERE / "digests.json"  # workload -> seed -> digest of the outputs at the recording commit
# Set-ups per untraced run; setup_s is their median. A puzzle-pipelines
# set-up takes about 12 s, and each one more adds that to every run.
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
MARKER = re.compile(rb"^\[([^\]]+)\] (running|up to date)\s*$")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


class CommandFailed(Exception):
    pass


class Bench:
    """Runs child processes from the checkout root, one at a time, and
    records their wall time, exit code, peak RSS and stage markers."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HEURLAB_SEED"}
        # One BLAS thread keeps the single-core-per-process shape of the
        # CLI and makes floating-point reductions repeat bit for bit.
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1", PYTHONHASHSEED="0")
        self.log = work / "stderr.log"
        self.traces: list[Path] | None = None  # when a list, heurlab() calls are traced into it
        self.trace_dir = work / "trace"

    def spawn(self, argv: list[str]) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CommandFailed("out of time before " + " ".join(argv[1:4]))
        marks = []
        with self.log.open("ab") as err:
            err.write(("$ " + " ".join(argv) + "\n").encode())
            err.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    for line in proc.stdout:
                        found = MARKER.match(line)
                        if found:
                            marks.append((found.group(1).decode(), found.group(2).decode(),
                                          time.perf_counter() - start))
            finally:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024, "marks": marks}

    def heurlab_argv(self, args: list[str]) -> list[str]:
        if self.traces is None:
            return [sys.executable, "-m", "heurlab", *args]
        self.traces.append(self.trace_dir / f"{len(self.traces)}.json")
        return [sys.executable, str(HERE / "traced.py"), str(self.traces[-1]), *args]

    def python(self, argv: list[str]) -> dict:
        outcome = self.spawn(argv)
        if outcome["code"] != 0:
            raise CommandFailed(f"{' '.join(argv[1:3])} exited {outcome['code']}; see {self.log}")
        return outcome

    def heurlab(self, args: list[str]) -> dict:
        """A set-up call of the CLI; failing it ends the run."""
        return self.python(self.heurlab_argv(args))

    def script(self, args: list[str]) -> dict:
        return self.python([sys.executable, *args])


def run_pass(bench: Bench, workload, seed: int, inputs: Path, out: Path) -> dict:
    """One pass of the workload's commands into the empty directory ``out``."""
    out.mkdir(parents=True)
    workload.prepare(inputs, out)
    stages: dict[str, float] = {}
    result = {"commands": 0, "failed": 0, "total_s": 0.0, "peak_rss_mb": 0.0, "stages": stages, "errors": []}
    for command in workload.commands(seed, inputs, out):
        outcome = bench.spawn(bench.heurlab_argv(command.args))
        result["commands"] += 1
        result["total_s"] += outcome["wall"]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], outcome["rss_mb"])
        marks = outcome["marks"]
        if outcome["code"] != 0:
            result["errors"].append(f"{command.args[0]} exited {outcome['code']}")
        elif [(label, state) for label, state, _ in marks] != command.markers:
            seen = {(label, state) for label, state, _ in marks}
            missing = [m for m in command.markers if m not in seen]
            result["errors"].append(f"{command.args[0]} printed other stage markers; missing {missing[:3]}")
        if result["errors"]:
            result["failed"] += 1
            break
        prefix = f"{command.part}." if command.part else ""
        if command.markers:
            ends = [t for _, _, t in marks[1:]] + [outcome["wall"]]
            for (label, state, begin), end in zip(marks, ends):
                stage = prefix + stage_of(label, state)
                stages[stage] = stages.get(stage, 0.0) + end - begin
        else:
            stages[prefix + command.stage] = stages.get(prefix + command.stage, 0.0) + outcome["wall"]
    if not result["errors"]:
        try:
            workload.check(seed, inputs, out)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            result["errors"].append(f"output check: {exc}")
            result["failed"] = result["commands"]
    result["digest"] = tree_digest(out)
    shutil.rmtree(out)
    return result


def set_up(bench: Bench, workload, seed: int, inputs: Path) -> tuple[float, float]:
    """Write the inputs and start the CLI once; the seconds both took, and
    the seconds the CLI start-up alone took."""
    inputs.mkdir()
    begin = time.perf_counter()
    workload.setup(bench, seed, inputs)
    startup = bench.heurlab(["--help"])["wall"]
    return time.perf_counter() - begin, startup


def combined_digest(inputs_digest: str, outputs_digest: str) -> str:
    return hashlib.sha256(f"{inputs_digest}:{outputs_digest}".encode()).hexdigest()


def environment(root: Path) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {var: 1 for var in THREAD_VARS},
        "commit": _commit(root),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    return env


def _commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, root: Path, work: Path) -> dict:
    """Every path below is relative to ``work``, the working directory of
    the benchmark and of each command, so that the paths the CLI records in
    its outputs are the same in every pass and every checkout."""
    workload = WORKLOADS[args.workload]
    bench = Bench(root, work, time.monotonic() + DEADLINE_S)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded.get(args.workload, {}).get(str(args.seed))

    setups, startups, input_digests = [], [], []
    for i in range(1 if args.trace else SETUP_REPEATS):
        seconds, startup = set_up(bench, workload, args.seed, Path(f"inputs{i}"))
        setups.append(seconds)
        startups.append(startup)
        input_digests.append(tree_digest(Path(f"inputs{i}")))
    if len(set(input_digests)) != 1:
        raise CommandFailed("set-up wrote different inputs for the same seed")
    inputs = Path("inputs0")

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(bench, workload, args.seed, inputs, Path("out")))
        elapsed = time.perf_counter() - begin
        if passes[-1]["errors"] or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    problems = [e for p in passes for e in p["errors"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes with the same seed wrote different outputs")
    digest = combined_digest(input_digests[0], passes[0]["digest"])
    if expected is None:
        print(f"perfbench: no digest recorded for {args.workload} seed {args.seed}; "
              "the output bytes are compared only between passes", file=sys.stderr)
    elif digest != expected:
        problems.append(f"output digest {digest[:12]} differs from the recorded {expected[:12]}")
    attempted = sum(p["commands"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if problems and not failed:
        failed = attempted

    stage_names = sorted({s for p in passes for s in p["stages"]})
    stages = {s: statistics.median(p["stages"].get(s, 0.0) for p in passes) for s in stage_names}
    total_s = statistics.median(p["total_s"] for p in passes)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "recorded_digest": expected,
        "digest_check": "unrecorded" if expected is None else "recorded",
        "stages_s": stages,
        "setup_runs_s": setups,
        "cli_startup_runs_s": startups,
        "passes": [{k: p[k] for k in ("total_s", "peak_rss_mb", "stages", "digest")} for p in passes],
        "environment": environment(root),
    }

    if args.trace:
        bench.trace_dir.mkdir()
        bench.traces = []
        if workload.setup_traced:
            set_up(bench, workload, args.seed, Path("traced-inputs"))
            if tree_digest(Path("traced-inputs")) != input_digests[0]:
                problems.append("the traced set-up wrote different inputs than the untraced ones")
        in_setup = len(bench.traces)
        traced = run_pass(bench, workload, args.seed, inputs, Path("out"))
        files, bench.traces = bench.traces, None
        attempted += traced["commands"]
        failed += traced["failed"]
        problems += [f"traced: {e}" for e in traced["errors"]]
        if not traced["errors"] and traced["digest"] != passes[0]["digest"]:
            problems.append("the traced pass wrote different outputs than the untraced ones")
            failed += traced["commands"]
        setup_traces, pass_traces = ([json.loads(p.read_text(encoding="utf-8")) for p in part if p.exists()]
                                     for part in (files[:in_setup], files[in_setup:]))
        (work.parent / f"{work.name}.trace.json").write_text(
            json.dumps({"setup": setup_traces, "pass": pass_traces}), encoding="utf-8")
        details["traced_total_s"] = traced["total_s"]
        details["moves"] = {name: moves for name, _, _, moves in layers.METRICS}
        values = layers.compute(layers.merge(pass_traces), layers.merge(setup_traces + pass_traces),
                                statistics.median(startups), traced["total_s"] - total_s)
        units = {name: unit for name, unit, _, _ in layers.METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "total_s": total_s,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS

    details["problems"] = problems
    details["fail_frac"] = failed / attempted
    return {
        "details": details,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="heurlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes for up to this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heurlab" / "cli.py").is_file():
        print(f"perfbench: no heurlab sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    outcome = None
    try:
        outcome = run(args, root, work)
    except CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        os.chdir(root)
        if (outcome is None or not outcome["result"]["correct"]) and (work / "stderr.log").exists():
            # Keep the commands' standard error of a failed run beside the work directory.
            shutil.copy(work / "stderr.log", work.parent / f"{work.name}.stderr.log")
        shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        return 3
    print(json.dumps(outcome["details"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
