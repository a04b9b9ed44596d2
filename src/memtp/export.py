"""CSV and JSON export of experiment rows.

CSV files carry a header row, comma separators and floats printed with 17
significant digits; the run configuration (including any seed) is recorded
in a leading comment line. JSON files hold one object with ``config`` and
``rows``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["format_value", "rows_to_csv", "rows_to_json", "write_rows"]


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(format_value(v) for v in value) + "]"
    return str(value)


def _tolist(value):
    return value.tolist()


def rows_to_csv(rows: list[dict], config: dict | None = None) -> str:
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True,
                                               default=_tolist))
    if rows:
        keys = list(rows[0].keys())
        lines.append(",".join(keys))
        for row in rows:
            lines.append(",".join(format_value(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict], config: dict | None = None) -> str:
    return json.dumps({"config": config or {}, "rows": rows}, indent=2,
                      default=_tolist) + "\n"


def write_rows(path: str | Path | None, rows: list[dict],
               config: dict | None = None, fmt: str = "csv") -> None:
    """Write rows to ``path`` (or stdout when path is None)."""
    if fmt == "csv":
        text = rows_to_csv(rows, config)
    elif fmt == "json":
        text = rows_to_json(rows, config)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
