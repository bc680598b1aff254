"""Written text formats: `FORMATS`, the one table of cloud formats (xyz, ascii
PLY, OFF) by extension; `coordinate_rows`, the one coordinate text rule, whose
17 significant digits round-trip doubles bitwise in cloud files and CSVs
alike; and `write_csv`, the one CSV writer. Only vertex coordinates are read:
faces and every other non-vertex element are skipped unparsed.
"""

from __future__ import annotations

import csv
import os
from itertools import repeat

import numpy as np

from .errors import CloudParseError, InvalidArgumentError
from .geometry import PointCloud

_BLOCK_ROWS = 1024  # rows that coordinate_rows converts at a time, well under 1 MiB


def _lines(path, comments):
    """Yield ``(line number, tokens)`` for each non-blank line of ``path``, and
    ``(last line number, [])`` at its end; with ``comments``, '#' lines are skipped.

    Lines are decoded one at a time, so a byte that is not UTF-8 is refused on its line."""
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                tokens = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise CloudParseError(path, lineno, "line is not UTF-8 text") from None
            if tokens and not (comments and tokens[0].startswith("#")):
                yield lineno, tokens
    yield lineno, []


def _rows(path, lines, count, width, columns):
    """Read ``count`` rows of exactly ``width`` finite numbers from ``lines``
    (every row to the end of the file when ``count`` is None) and return their
    ``columns`` as an array."""
    rows, linenos = [], []
    for lineno, tokens in lines:
        if not tokens:
            break
        if len(tokens) != width:
            raise CloudParseError(path, lineno, f"expected {width} numbers, found {len(tokens)}")
        try:
            rows.append(list(map(float, tokens)))
        except ValueError:
            raise CloudParseError(path, lineno, f"invalid number in {tokens!r}") from None
        linenos.append(lineno)
        if len(rows) == count:
            break
    if len(rows) < (count or 1):
        message = f"declared {count} vertices, found {len(rows)}" if count else "file contains no points"
        raise CloudParseError(path, lineno, message)
    points = np.array(rows)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise CloudParseError(path, linenos[row], f"non-finite number in {rows[row]!r}")
    return points[:, columns]


def _load_ply(path, lines) -> np.ndarray:
    lineno, tokens = next(lines)
    if lineno != 1 or tokens != ["ply"]:
        raise CloudParseError(path, 1, "missing 'ply' magic")
    elements = []  # (name, row count, property names), in file order
    for lineno, tokens in lines:
        if not tokens:
            raise CloudParseError(path, lineno, "incomplete PLY header")
        if tokens[0] == "end_header":
            break
        if tokens[0] == "format" and tokens[1:2] != ["ascii"]:
            raise CloudParseError(path, lineno, "only ascii PLY is supported")
        if tokens[0] == "element":
            try:
                name, count = tokens[1], int(tokens[2])
            except (IndexError, ValueError):
                raise CloudParseError(path, lineno, "element needs a name and a row count") from None
            if count < 0 or (name == "vertex" and count < 1):
                raise CloudParseError(path, lineno, f"PLY file declares {count} {name} rows")
            elements.append((name, count, []))
        elif tokens[0] == "property" and elements:
            elements[-1][2].append(tokens[-1])
    header_end = lineno
    for name, count, props in elements:
        if name == "vertex":
            if not set("xyz") <= set(props):
                raise CloudParseError(path, header_end, "vertex properties x, y and z are required")
            return _rows(path, lines, count, len(props), [props.index(axis) for axis in "xyz"])
        for _ in range(count):
            lineno, tokens = next(lines)
            if not tokens:
                raise CloudParseError(path, lineno, f"declared {count} {name} rows, file is short")
    raise CloudParseError(path, header_end, "PLY file declares no vertex element")


def _load_off(path, lines) -> np.ndarray:
    lineno, tokens = next(lines)
    magic = tokens[0] if tokens else ""
    if not magic.startswith("OFF"):
        raise CloudParseError(path, lineno, "first token must be 'OFF'")
    # Counts may follow the magic on its line, even glued to it as ModelNet40
    # writes them ("OFF490 518 0"), or sit on the next line.
    counts = tokens[1:] if magic == "OFF" else [magic[3:]] + tokens[1:]
    if not counts:
        lineno, counts = next(lines)
    try:
        n_vertices = int(counts[0])
    except (IndexError, ValueError):
        raise CloudParseError(path, lineno, "bad counts line") from None
    if n_vertices < 1:
        raise CloudParseError(path, lineno, f"OFF file declares {n_vertices} vertices")
    return _rows(path, lines, n_vertices, 3, [0, 1, 2])


# Extension -> (reader of the file's `_lines`, whether '#' starts a comment line,
# as it does except in PLY, which marks comments with a keyword, header text).
FORMATS = {
    ".xyz": (lambda path, lines: _rows(path, lines, None, 3, [0, 1, 2]), True, ""),
    ".ply": (_load_ply, False, "ply\nformat ascii 1.0\nelement vertex {n}\n"
             "property double x\nproperty double y\nproperty double z\nend_header\n"),
    ".off": (_load_off, True, "OFF\n{n} 0 0\n"),
}


def _format(path) -> tuple:
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in FORMATS:
        raise InvalidArgumentError(f"unrecognized point-cloud extension {ext!r}")
    return FORMATS[ext]


def load_cloud(path) -> PointCloud:
    load, comments, _ = _format(path)
    lines = _lines(path, comments)
    try:
        return PointCloud(load(path, lines))
    finally:
        lines.close()


def coordinate_rows(points):
    """Yield each row of `points` as a tuple of its coordinates' text, with 17
    significant digits, converting one block of rows at a time."""
    for start in range(0, len(points), _BLOCK_ROWS):
        texts = map(format, points[start:start + _BLOCK_ROWS].ravel().tolist(), repeat(".17g"))
        yield from zip(*[texts] * points.shape[1])  # one iterator, so each row takes the next texts


def save_cloud(cloud: PointCloud, path) -> None:
    header = _format(path)[2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header.format(n=len(cloud)))
        fh.writelines("%s %s %s\n" % row for row in coordinate_rows(cloud.points))


def write_csv(path, header, rows) -> None:
    """Write `header` and then each row of the iterable `rows` as a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
