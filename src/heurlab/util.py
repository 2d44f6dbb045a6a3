"""Small shared utilities: seed derivation, left-to-right float sums,
deterministic noise, crash-safe files, JSONL files and the serial-or-process-pool map."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from a master seed plus context labels.

    Stable across processes and platforms, unlike built-in ``hash`` which is
    salted per interpreter run.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def serial_sum(values: Iterable[float]) -> float:
    """The float total of ``values``, added left to right.

    The builtin ``sum`` compensates float rounding from Python 3.12 on, so the
    same values can total to other last bits on another interpreter; this is
    the builtin's result before 3.12 on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def unit_normal(seed: int, key: bytes, draw: int = 0) -> float:
    """Standard-normal deviate that is a pure function of (seed, key, draw)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(seed).encode("utf-8"))
    h.update(b"\x00")
    h.update(key)
    h.update(draw.to_bytes(8, "big", signed=False))
    d = h.digest()
    # Box-Muller; u1 lands in (0, 1] so the log stays finite.
    u1 = (int.from_bytes(d[:8], "big") + 1) / 2.0**64
    u2 = int.from_bytes(d[8:], "big") / 2.0**64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text so it appears whole or not at all.

    The text goes to ``<name>.tmp`` in the same directory, which replaces
    ``path`` only once the block has finished. A run killed part way leaves
    at most that temp file, and rerunning the writer overwrites it. Line
    ends are written as given (no newline translation), as ``csv`` needs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: str | Path, convert: Callable | None = None) -> list:
    """One record per non-blank line, each passed through ``convert`` as soon
    as it is parsed when ``convert`` is given, so the parsed dicts never pile
    up. A line that is not JSON raises ``ValueError("<path>:<line>: <reason>")``;
    a record lacking a field raises
    ``ValueError("<path>: record <n> has no field '<name>'")`` and one whose
    conversion raises ``ValueError`` or ``TypeError`` (a field of the wrong
    JSON type) raises ``ValueError("<path>: record <n>: <reason>")``."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            if convert is not None:
                try:
                    record = convert(record)
                except KeyError as exc:
                    raise ValueError(f"{path}: record {len(records) + 1} has no field {exc}") from None
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path}: record {len(records) + 1}: {exc}") from None
            records.append(record)
    return records


def content_hash(obj: object) -> str:
    """SHA-256 of a canonical JSON rendering; used in run manifests."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def map_tasks(worker: Callable, tasks: Sequence, jobs: int, chunksize: int) -> list:
    """``[worker(t) for t in tasks]``, fanned out to ``jobs`` worker processes
    when there is more than one of each; results keep the task order."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))
