"""Readers for the files the harness writes, so tests can check them."""

import re
from pathlib import Path

import numpy as np

from stdac.errors import ConfigurationError


def read_run_csv(path) -> tuple[list[str], list[dict[str, float]]]:
    """Comment lines (config echo) and data rows as column->float dicts."""
    comments, rows, header = [], [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append({k: float(v) for k, v in zip(header, line.split(","))})
    return comments, rows


def parse_svg_series(path) -> dict[str, tuple[list[float], list[float]]]:
    """Recover the exact plotted values from a curves SVG."""
    text = Path(path).read_text()
    out = {}
    for m in re.finditer(r'<polyline class="series" data-label="([^"]*)" '
                         r'data-x="([^"]*)" data-y="([^"]*)"', text):
        label, dx, dy = m.groups()
        out[label] = ([float(v) for v in dx.split()] if dx else [],
                      [float(v) for v in dy.split()] if dy else [])
    return out


def read_pgm(path) -> np.ndarray:
    """Inverse of write_pgm, back to floats in [0,1]."""
    with open(path, "rb") as f:
        blob = f.read()
    parts = []
    pos = 0
    while len(parts) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            pos = blob.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(blob) and not blob[end:end + 1].isspace():
            end += 1
        parts.append(blob[pos:end])
        pos = end
    if parts[0] != b"P5":
        raise ConfigurationError(f"{path}: not a binary PGM")
    w, h, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    pos += 1
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=w * h)
    return data.reshape(h, w).astype(np.float64) / maxval
