"""Point-cloud file I/O: xyz, ascii PLY, and OFF.

Coordinates are serialized with 17 significant digits so text round-trips
reproduce doubles bitwise. Faces in OFF/PLY are parsed and discarded.
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


def _parse_floats(tokens, path, lineno, expect):
    if len(tokens) < expect:
        raise CloudParseError(path, lineno, f"expected {expect} numbers")
    try:
        return [float(t) for t in tokens[:expect]]
    except ValueError:
        raise CloudParseError(path, lineno, f"invalid number in {tokens!r}") from None


def _load_xyz(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) != 3:
                raise CloudParseError(path, lineno, "expected three coordinates per line")
            rows.append(_parse_floats(tokens, path, lineno, 3))
    if not rows:
        raise CloudParseError(path, 0, "file contains no points")
    return np.array(rows)


def _load_ply(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(path, 1, "missing 'ply' magic")
    vertex_count = None
    body_start = None
    in_vertex_element = False
    coord_props: list[str] = []
    for i, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise CloudParseError(path, i, "only ascii PLY is supported")
        elif tokens[0] == "element":
            in_vertex_element = tokens[1] == "vertex"
            if in_vertex_element:
                try:
                    vertex_count = int(tokens[2])
                except (IndexError, ValueError):
                    raise CloudParseError(path, i, "bad vertex count") from None
        elif tokens[0] == "property" and in_vertex_element:
            coord_props.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = i
            break
    if vertex_count is None or body_start is None:
        raise CloudParseError(path, len(lines), "incomplete PLY header")
    for axis in ("x", "y", "z"):
        if axis not in coord_props:
            raise CloudParseError(path, body_start, f"vertex property {axis!r} missing")
    ix, iy, iz = (coord_props.index(a) for a in ("x", "y", "z"))
    rows = []
    lineno = body_start
    for raw in lines[body_start:]:
        lineno += 1
        tokens = raw.split()
        if not tokens:
            continue
        vals = _parse_floats(tokens, path, lineno, len(coord_props))
        rows.append([vals[ix], vals[iy], vals[iz]])
        if len(rows) == vertex_count:
            break
    if len(rows) != vertex_count:
        raise CloudParseError(
            path, lineno, f"declared {vertex_count} vertices, found {len(rows)}"
        )
    return np.array(rows)


def _load_off(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    content = [
        (i + 1, ln.split())
        for i, ln in enumerate(lines)
        if ln.split() and not ln.lstrip().startswith("#")
    ]
    if not content:
        raise CloudParseError(path, 1, "empty OFF file")
    lineno, tokens = content[0]
    if tokens[0] != "OFF":
        raise CloudParseError(path, lineno, "first token must be 'OFF'")
    # Counts may share the OFF line (ModelNet quirk) or follow on the next one.
    if len(tokens) >= 4:
        counts = tokens[1:4]
        body = content[1:]
    else:
        if len(content) < 2:
            raise CloudParseError(path, lineno, "missing counts line")
        lineno, counts = content[1][0], content[1][1]
        body = content[2:]
    try:
        n_vertices = int(counts[0])
    except (IndexError, ValueError):
        raise CloudParseError(path, lineno, "bad counts line") from None
    if len(body) < n_vertices:
        raise CloudParseError(path, lineno, f"declared {n_vertices} vertices, file is short")
    rows = [_parse_floats(t, path, ln, 3) for ln, t in body[:n_vertices]]
    if not rows:
        raise CloudParseError(path, lineno, "OFF file declares zero vertices")
    return np.array(rows)


_LOADERS = {FORMAT_XYZ: _load_xyz, FORMAT_PLY: _load_ply, FORMAT_OFF: _load_off}


def load_cloud(path) -> PointCloud:
    pts = _LOADERS[detect_format(path)](path)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return PointCloud(pts, name)


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
