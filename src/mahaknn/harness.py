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
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .cloudio import load_cloud
from .corruption import NoiseSpec, corrupt
from .errors import InvalidArgumentError, MahaknnError
from .evaluation import pose_error, set_distance
from .geometry import PointCloud, apply, sample_rigid
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
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if not self.pipelines:
            raise InvalidArgumentError("scenario needs at least one pipeline")

    def config_hash(self) -> str:
        payload = {
            "name": self.name,
            "input": self.input,
            "noise": self.noise.serialize(),
            "rot_range_deg": list(self.rot_range_deg),
            "trans_range": list(self.trans_range),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "pipelines": [[n, vars(c).copy()] for n, c in self.pipelines],
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
    successes = {name: 0 for name, _ in scenario.pipelines}
    failures = {name: 0 for name, _ in scenario.pipelines}
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
            except (MahaknnError, np.linalg.LinAlgError):
                failures[name] += 1
                wall[name] += time.perf_counter() - start
                continue
            wall[name] += time.perf_counter() - start
            err = pose_error(result.motion, truth)
            sd = set_distance(apply(result.motion, source), target)
            stats = per_pipeline[name]
            stats["rmse_r_deg"].append(err.rmse_r_deg)
            stats["rmse_t"].append(err.rmse_t)
            stats["geodesic_r_deg"].append(err.geodesic_r_deg)
            stats["chamfer"].append(sd.chamfer)
            stats["hausdorff"].append(sd.hausdorff)
            if err.geodesic_r_deg < SUCCESS_THRESHOLD_DEG:
                successes[name] += 1

    cells = {}
    timings = {}
    for name, _ in scenario.pipelines:
        cell = {}
        for stat, values in per_pipeline[name].items():
            arr = np.asarray(values, dtype=float)
            cell[f"{stat}_mean"] = float(arr.mean()) if len(arr) else float("nan")
            cell[f"{stat}_std"] = float(arr.std()) if len(arr) else float("nan")
        cell["success_rate"] = successes[name] / scenario.trials
        cell["failures"] = failures[name]
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
        "cells": report.cells,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "pipeline", "statistic", "value"])
        for name in sorted(report.cells):
            for stat in sorted(report.cells[name]):
                writer.writerow([report.scenario, name, stat, repr(report.cells[name][stat])])
    with open(os.path.join(out_dir, "timings.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "pipeline", "mean_wall_seconds"])
        for name in sorted(report.timings):
            writer.writerow([report.scenario, name, repr(report.timings[name])])


def _parse_interval(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise InvalidArgumentError(f"interval needs two numbers, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise InvalidArgumentError(f"boolean must be 1/true/yes or 0/false/no, got {text!r}")


# Field annotations are strings (postponed evaluation in registration.py).
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}
# Text parser of every RegistrationConfig field, shared by INI files and the CLI.
PIPELINE_FIELDS = {f.name: _PARSERS[f.type] for f in fields(RegistrationConfig)}


# Text parser of every [scenario] key.
_SCENARIO_KEYS = {
    "name": str,
    "input": str,
    "trials": int,
    "base_seed": int,
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
    parser = configparser.ConfigParser()
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
    pipelines = []
    for section in parser.sections():
        if section.startswith("pipeline:"):
            kwargs = _parse_section(parser, section, PIPELINE_FIELDS)
            pipelines.append((section.partition(":")[2], RegistrationConfig(**kwargs)))
        elif section not in ("scenario", "noise"):
            raise InvalidArgumentError(f"unknown section [{section}]")
    return Scenario(
        name=sec.get("name", "scenario"),
        input=sec["input"],
        noise=noise.get("spec", NoiseSpec()),
        rot_range_deg=sec.get("rot_range", (0.0, 45.0)),
        trans_range=sec.get("trans_range", (-0.5, 0.5)),
        trials=sec.get("trials", 20),
        pipelines=tuple(pipelines),
        base_seed=sec.get("base_seed", 0),
    )
