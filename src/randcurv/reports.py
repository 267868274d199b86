"""Artifact writers and readers.

CSV files carry '#'-prefixed metadata lines (config hash first), then a
header row, then comma-separated data rows; floats are written with repr so
reading them back is lossless.  Tables are written column by column: each
column is formatted once (format_column) and the rows are joined from the
formatted columns.  A float64 column's cells are repr of the Python float,
the same text format_cell gives each value, so the bytes do not depend on
whether a table arrives as rows of scalars or as arrays.  Each run also emits
one JSON summary object with the command, config hash, canonical config text,
and every table row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RunRecord",
    "RUN_SCHEMA",
    "format_cell",
    "format_column",
    "write_csv",
    "read_csv",
    "payload_lines",
    "write_run_json",
]


@dataclass(frozen=True)
class RunRecord:
    command: str
    config_hash: str
    version: str
    timestamp: str
    config_text: str
    artifacts: tuple[str, ...]
    rows: tuple[dict, ...]


# jsonschema document for the run summary file
RUN_SCHEMA = {
    "type": "object",
    "required": ["command", "config_hash", "version", "timestamp", "config", "artifacts", "rows"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "config": {"type": "string"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": {
                    "type": ["number", "string", "boolean", "null"]
                },
            },
        },
    },
}


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # float() strips numpy scalar wrappers so repr stays plain
        return repr(float(value))
    if isinstance(value, int):
        return str(value)
    text = str(value)
    # keep the format trivially splittable
    return text.replace(",", ";").replace("\n", " ")


def format_column(values) -> list[str]:
    """[format_cell(v) for v in values], with the same strings made in bulk
    for float64 and integer arrays.  Only float64 takes the repr path: a
    float32 cell is formatted as its own shortest text, not its double's."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return list(map(repr, values.tolist()))
        if values.dtype.kind in "iu":
            return list(map(str, values.tolist()))
    return [format_cell(v) for v in values]


def write_csv(path, metadata: dict, header, columns) -> str:
    """Write one table from its formatted columns (format_column), one per
    header name; metadata keys become '# key=value' lines above the header.
    Returns the path as a string."""
    if len(columns) != len(header):
        raise ValueError("column count does not match the header width")
    if len({len(column) for column in columns}) > 1:
        raise ValueError("ragged columns: some rows would not match the header width")
    lines = [f"# {key}={format_cell(value)}" for key, value in metadata.items()]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*columns)))
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def read_csv(path) -> tuple[dict, list, list]:
    """(metadata, header, rows) with every cell still a string."""
    metadata: dict = {}
    header: list = []
    rows: list = []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                metadata[key.strip()] = value
            continue
        cells = line.split(",")
        if not header:
            header = cells
        else:
            rows.append(cells)
    return metadata, header, rows


def payload_lines(path) -> list:
    """The non-metadata lines (header and data) used for byte-level
    reproducibility comparisons."""
    return [
        line
        for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]


def write_run_json(path, record: RunRecord) -> str:
    doc = {
        "command": record.command,
        "config_hash": record.config_hash,
        "version": record.version,
        "timestamp": record.timestamp,
        "config": record.config_text,
        "artifacts": list(record.artifacts),
        "rows": list(record.rows),
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(p)
