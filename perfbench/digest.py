"""Digest of a directory of heurlab outputs, blind to timing fields.

JSON-lines keys and CSV columns whose name matches ``TIMING_FIELD`` hold
wall-clock readings or the interpreter and platform, so they are dropped
before hashing; every other byte of every file counts. The rule is the one
acceptance criterion 11 applies to pipeline reruns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

TIMING_FIELD = re.compile(r"wall|itr|platform|python")


def _strip(record):
    if isinstance(record, dict):
        return {k: v for k, v in record.items() if not TIMING_FIELD.search(k)}
    return record


def normalized(path: Path) -> bytes:
    """The bytes of ``path`` that a rerun with the same seed must reproduce."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = [_strip(row) for row in csv.DictReader(io.StringIO(data.decode("utf-8")))]
        return json.dumps(rows, sort_keys=True).encode("utf-8")
    if path.suffix == ".jsonl":
        lines = [_strip(json.loads(line)) for line in data.decode("utf-8").splitlines() if line.strip()]
        return json.dumps(lines, sort_keys=True).encode("utf-8")
    return data


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(normalized(path)).digest())
    return h.hexdigest()
