"""Deterministic CSV output.

All emitted tables share the same shape: a '#'-prefixed header block with
run metadata (tool version, config hash, model, grid, tolerances), one
column-name row, then comma-separated data rows.  Floats are written with
repr (shortest round-trip form), so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    return str(value)


def write_csv(path, meta: dict, columns, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k}: {fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
