"""Point-cloud file I/O: xyz, ascii PLY, and OFF.

Coordinates are serialized with 17 significant digits so text round-trips
reproduce doubles bitwise. Only vertex coordinates are read: faces and every
other non-vertex element are skipped unparsed.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CloudParseError, InvalidArgumentError
from .geometry import PointCloud

FORMAT_XYZ = "xyz"
FORMAT_PLY = "ply-ascii"
FORMAT_OFF = "off"

_EXTENSIONS = {".xyz": FORMAT_XYZ, ".ply": FORMAT_PLY, ".off": FORMAT_OFF}


def detect_format(path) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _EXTENSIONS:
        raise InvalidArgumentError(f"unrecognized point-cloud extension {ext!r}")
    return _EXTENSIONS[ext]


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


def _load_xyz(path, lines) -> np.ndarray:
    return _rows(path, lines, None, 3, [0, 1, 2])


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


_LOADERS = {FORMAT_XYZ: _load_xyz, FORMAT_PLY: _load_ply, FORMAT_OFF: _load_off}


def load_cloud(path) -> PointCloud:
    fmt = detect_format(path)
    # PLY marks its comments with a keyword; a '#' line in its body is a bad row.
    lines = _lines(path, comments=fmt != FORMAT_PLY)
    try:
        return PointCloud(_LOADERS[fmt](path, lines))
    finally:
        lines.close()


def save_cloud(cloud: PointCloud, path) -> None:
    fmt = detect_format(path)
    pts = cloud.points
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == FORMAT_PLY:
            fh.write(
                "ply\nformat ascii 1.0\n"
                f"element vertex {len(pts)}\n"
                "property double x\nproperty double y\nproperty double z\n"
                "end_header\n"
            )
        elif fmt == FORMAT_OFF:
            fh.write("OFF\n")
            fh.write(f"{len(pts)} 0 0\n")
        for p in pts:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
