"""Tiny-scale self-check of the benchmark; exits 0 when every check holds.

    python3 perfbench/smoke.py

Run it from the root of a checkout. It runs a sliding-tile pipeline at a
very small scale through ``run.main`` and checks that:

- ``BENCHMARK.json`` names the same workloads and metrics as the code;
- every stage marker is parsed and every stage gets a time;
- two runs with the same seed give the same digest, and the traced run
  reports every per-layer metric and matches the untraced digest;
- a run exits non-zero when a stage marker is missing or when the digest
  differs from the recorded one.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import layers
import run
from workloads import WORKLOADS, StpPipeline

SEED = 5


class TinyStp(StpPipeline):
    name = "smoke-stp"
    scale = "0.005"
    rows = ("uniform",)
    budget = 40


class MissingMarker(TinyStp):
    name = "smoke-missing-marker"

    def commands(self, seed, inputs, out):
        commands = super().commands(seed, inputs, out)
        commands[0].markers.insert(1, ("instances/extra", "running"))
        return commands


def bench(workload: str, trace: int = 0) -> tuple[int, dict, dict]:
    """Run the benchmark in-process: exit code, details and result."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    lines = stdout.getvalue().splitlines()
    if len(lines) < 2:
        return code, {}, {}
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()},
          "BENCHMARK.json lists the workloads and their reasons", failures)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items()),
          "BENCHMARK.json lists the end-to-end metrics", failures)
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [row[:3] for row in layers.METRICS],
          "BENCHMARK.json lists the per-layer metrics", failures)

    for workload in (TinyStp(), MissingMarker()):
        WORKLOADS[workload.name] = workload
    code, details, result = bench(TinyStp.name)
    check(code == 0 and result.get("correct") is True, "a tiny pipeline run is correct", failures)
    stages = set(details.get("stages_s", {}))
    check({"generate_s", "solve_s", "select_s", "train_s", "eval_s"} <= stages,
          f"every pipeline stage is timed ({sorted(stages)})", failures)
    check(set(result.get("metrics", {})) == set(run.END_TO_END_UNITS), "the run reports the end-to-end metrics", failures)

    code, again, _ = bench(TinyStp.name)
    check(code == 0 and again.get("digest") == details.get("digest"), "the digest repeats across runs", failures)

    code, _, result = bench(TinyStp.name, trace=1)
    check(code == 0 and result.get("correct") is True, "the traced run matches the untraced digest", failures)
    check(set(result.get("metrics", {})) == {row[0] for row in layers.METRICS},
          "the traced run reports every per-layer metric", failures)

    code, _, result = bench(MissingMarker.name)
    check(code != 0 and result.get("correct") is False, "a missing stage marker fails the run", failures)

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        digests = Path(tmp) / "digests.json"
        digests.write_text(json.dumps({TinyStp.name: {str(SEED): "0" * 64}}), encoding="utf-8")
        run.DIGESTS = digests.resolve()
        code, _, result = bench(TinyStp.name)
    check(code != 0 and result.get("correct") is False, "a digest mismatch fails the run", failures)

    print(f"{len(failures)} of the checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
