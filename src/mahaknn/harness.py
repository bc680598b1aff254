"""Scenario runner: paired registration trials with persistent reports.

Each trial samples a ground-truth motion, corrupts the pair once, then runs
every configured pipeline on the identical corrupted inputs (paired design).
Error metrics are always computed on the full-resolution clouds, even when a
density corruption was active: the estimated motion is applied to the
original-scale source before scoring.

Report files: report.json (schema-versioned, machine-readable) and report.csv
(one row per scenario/pipeline/statistic) are deterministic for a fixed
base_seed; wall times go to the separate timings.csv sidecar.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cloudio import load_cloud, write_csv
from .corruption import NoiseSpec, corrupt
from .errors import InvalidArgumentError, MahaknnError
from .evaluation import pose_error, set_distance
from .geometry import PointCloud, apply, hold_fields, interval, sample_rigid, text_parsers
from .registration import RegistrationConfig, register
from .shapes import generate

SCHEMA_VERSION = 1
SUCCESS_THRESHOLD_DEG = 5.0

_STATS = ("rmse_r_deg", "rmse_t", "geodesic_r_deg", "chamfer", "hausdorff")


@dataclass(frozen=True)
class Scenario:
    name: str
    input: str
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    rot_range_deg: tuple = (0.0, 45.0)
    trans_range: tuple = (-0.5, 0.5)
    trials: int = 20
    pipelines: tuple = ()  # sequence of (name, RegistrationConfig)
    base_seed: int = 0

    def __post_init__(self):
        hold_fields(self)
        for name in ("rot_range_deg", "trans_range"):
            object.__setattr__(self, name, interval(name, getattr(self, name)))
        if not isinstance(self.noise, NoiseSpec):
            raise InvalidArgumentError(f"noise must be a NoiseSpec, got {self.noise!r}")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        pairs = self.pipelines
        if not (isinstance(pairs, tuple) and pairs
                and all(isinstance(p, tuple) and len(p) == 2 for p in pairs)
                and all(isinstance(n, str) and isinstance(c, RegistrationConfig) for n, c in pairs)):
            raise InvalidArgumentError(
                f"pipelines must be a non-empty tuple of (str, RegistrationConfig) pairs, got {pairs!r}")
        if self.base_seed < 0:
            raise InvalidArgumentError("base_seed must be >= 0")

    def config_hash(self) -> str:
        payload = {
            **vars(self),
            "noise": self.noise.serialize(),
            "pipelines": [[n, vars(c)] for n, c in self.pipelines],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class BenchmarkReport:
    scenario: str
    trials: int
    base_seed: int
    config_hash: str
    toolkit_version: str
    cells: dict  # pipeline name -> {statistic: value}
    timings: dict  # pipeline name -> mean wall seconds (not deterministic)


def load_input_cloud(spec: str) -> PointCloud:
    """`shape:NAME:N[:SEED]` for synthetic inputs, otherwise a file path."""
    if spec.startswith("shape:"):
        parts = spec.split(":")
        if len(parts) not in (3, 4) or not all(p.isdecimal() for p in parts[2:]):
            raise InvalidArgumentError(f"bad shape spec {spec!r}")
        seed = int(parts[3]) if len(parts) == 4 else 0
        return generate(parts[1], int(parts[2]), seed)
    if not os.path.exists(spec):
        raise IOError(f"input cloud not found: {spec}")
    return load_cloud(spec)


def run_scenario(scenario: Scenario) -> BenchmarkReport:
    source = load_input_cloud(scenario.input)
    per_pipeline = {name: {s: [] for s in _STATS} for name, _ in scenario.pipelines}
    wall = {name: 0.0 for name, _ in scenario.pipelines}

    for trial in range(scenario.trials):
        rng = np.random.default_rng(scenario.base_seed + trial)
        truth = sample_rigid(rng, scenario.rot_range_deg, scenario.trans_range)
        target = apply(truth, source)
        src_c, tgt_c = corrupt(source, target, scenario.noise, rng)
        for name, cfg in scenario.pipelines:
            start = time.perf_counter()
            try:
                result = register(src_c, tgt_c, cfg)
            except MahaknnError:
                continue  # a failure adds no statistics row
            finally:
                wall[name] += time.perf_counter() - start
            row = {**vars(pose_error(result.motion, truth)),
                   **vars(set_distance(apply(result.motion, source), target))}
            for stat in _STATS:
                per_pipeline[name][stat].append(row[stat])

    cells = {}
    timings = {}
    for name, _ in scenario.pipelines:
        cell = {}
        for stat, values in per_pipeline[name].items():
            arr = np.asarray(values, dtype=float)
            cell[f"{stat}_mean"] = float(arr.mean()) if len(arr) else float("nan")
            cell[f"{stat}_std"] = float(arr.std()) if len(arr) else float("nan")
        geodesic = per_pipeline[name]["geodesic_r_deg"]
        cell["success_rate"] = sum(g < SUCCESS_THRESHOLD_DEG for g in geodesic) / scenario.trials
        cell["failures"] = scenario.trials - len(geodesic)
        cell["trials"] = scenario.trials
        cells[name] = cell
        timings[name] = wall[name] / scenario.trials
    return BenchmarkReport(
        scenario=scenario.name,
        trials=scenario.trials,
        base_seed=scenario.base_seed,
        config_hash=scenario.config_hash(),
        toolkit_version=__version__,
        cells=cells,
        timings=timings,
    )


def write_report(report: BenchmarkReport, out_dir) -> None:
    """Write report.json + report.csv (deterministic) and timings.csv."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": report.scenario,
        "provenance": {
            "base_seed": report.base_seed,
            "trials": report.trials,
            "config_hash": report.config_hash,
            "toolkit_version": report.toolkit_version,
        },
        # A statistic with no completed registration is NaN, which JSON spells null.
        "cells": {
            name: {stat: None if math.isnan(value) else value for stat, value in cell.items()}
            for name, cell in report.cells.items()
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    write_csv(os.path.join(out_dir, "report.csv"), ["scenario", "pipeline", "statistic", "value"], (
        [report.scenario, name, stat, repr(report.cells[name][stat])]
        for name in sorted(report.cells) for stat in sorted(report.cells[name])
    ))
    write_csv(os.path.join(out_dir, "timings.csv"), ["scenario", "pipeline", "mean_wall_seconds"], (
        [report.scenario, name, repr(report.timings[name])] for name in sorted(report.timings)
    ))


def _parse_interval(text: str) -> tuple:
    return interval("interval", tuple(map(float, text.replace(",", " ").split())))


def non_negative_int(text: str) -> int:
    """A seed's text form: np.random.default_rng rejects negative integers."""
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


# Text parser of every RegistrationConfig field, shared by INI files and the CLI.
PIPELINE_FIELDS = text_parsers(RegistrationConfig)


# Text parser of every [scenario] key; base_seed parses as a seed.
_SCENARIO_KEYS = {
    **text_parsers(Scenario),
    "base_seed": non_negative_int,
    "rot_range": _parse_interval,
    "trans_range": _parse_interval,
}


def _parse_section(parser: configparser.ConfigParser, section: str, keys: dict) -> dict:
    """Parse each key of an INI section; an unknown key or a bad value is an error."""
    out = {}
    for key, text in parser[section].items():
        if key not in keys:
            raise InvalidArgumentError(f"unknown option {key!r} in [{section}]")
        try:
            out[key] = keys[key](text)
        except ValueError as exc:
            raise InvalidArgumentError(f"[{section}] {key} = {text!r}: {exc}") from None
    return out


def load_scenario(path) -> Scenario:
    """Parse the INI-style scenario file (see README for the schema)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise InvalidArgumentError(f"malformed scenario file: {exc}") from None
    if not read:
        raise IOError(f"scenario file not found: {path}")
    if "scenario" not in parser:
        raise InvalidArgumentError("scenario file needs a [scenario] section")
    sec = _parse_section(parser, "scenario", _SCENARIO_KEYS)
    if "input" not in sec:
        raise InvalidArgumentError("[scenario] needs an input")
    noise = _parse_section(parser, "noise", {"spec": NoiseSpec.parse}) if "noise" in parser else {}
    # Only the keys the file sets reach Scenario, whose defaults fill the rest.
    if "rot_range" in sec:
        sec["rot_range_deg"] = sec.pop("rot_range")
    if "spec" in noise:
        sec["noise"] = noise["spec"]
    sec.setdefault("name", "scenario")
    pipelines = []
    for section in parser.sections():
        if section.startswith("pipeline:"):
            kwargs = _parse_section(parser, section, PIPELINE_FIELDS)
            pipelines.append((section.partition(":")[2], RegistrationConfig(**kwargs)))
        elif section not in ("scenario", "noise"):
            raise InvalidArgumentError(f"unknown section [{section}]")
    return Scenario(pipelines=tuple(pipelines), **sec)
