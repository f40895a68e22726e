"""Per-row reference for the frame writer: one `json.dumps` per frame. It is
the definition the table-driven writer in `grfsq.cli` must match byte for
byte."""

from __future__ import annotations

import json


def reference_write_frames(path, frames) -> None:
    """Write (T, D) frames as JSON lines, one array of floats per frame."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in frames:
            fh.write(json.dumps([float(v) for v in row]))
            fh.write("\n")
