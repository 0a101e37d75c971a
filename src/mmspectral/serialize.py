"""Disk formats: the experiment artifact tables as CSV, canonical JSON for
reports and config hashing, and the declarative JSON config files. CSV
tables are written for inspection and comparison; the package does not
re-load them.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigParseError


def save_csv(path, rows, header=None) -> None:
    """Write a table (2-d array or list of rows) as CSV. Floats are written
    with repr so a bit-identical run produces a byte-identical file."""
    rows = np.asarray(rows, dtype=object)
    if rows.ndim == 1:
        rows = rows[:, None]
    def cell(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else x
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([cell(x) for x in row])


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """sha256 over the canonical JSON of a config dict; ties a report to
    the exact configuration that produced it."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def load_json_config(path) -> dict:
    """Read a declarative config file (flat JSON object)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigParseError(f"{path}: config must be a JSON object")
    return payload


__all__ = ["save_csv", "canonical_json", "config_hash", "load_json_config"]
