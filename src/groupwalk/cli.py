"""Command line front end: `analyze` runs tasks from a JSON config, `verify`
runs a named check suite.  JSON in, JSON out, optional CSV side tables."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .groups import ConstructionError, GroupSpec, build_group
from .harmonic import (
    anti_harmonic_space,
    decompose,
    find_anti_character,
    harmonic_space,
    jointly_biharmonic_space,
    peripheral_boundary,
)
from .measures import MeasureError, is_generating, is_symmetric, measure_from_json
from .operators import ComputationError, _function_values, right_operator, spectrum
from .verify import (
    SUITE_NAMES,
    CheckRecord,
    VerificationReport,
    ball_sign_records,
    fixture_theorem_checks,
    foguel_decay,
    root_of_unity_check,
    verify_suite,
)

TASK_ORDER = ("spectrum", "character", "biharmonic", "boundary", "foguel", "verify")

__all__ = ["AnalysisConfig", "ConfigError", "load_config", "run_analysis", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class AnalysisConfig:
    def __init__(self, group_spec, measure_entries, tasks, tol, exact, max_power, seed):
        self.group_spec = group_spec
        self.measure_entries = measure_entries
        self.tasks = tasks
        self.tol = tol
        self.exact = exact
        self.max_power = max_power
        self.seed = seed

    def to_json(self):
        return {
            "group": self.group_spec.to_json(),
            "measure": self.measure_entries,
            "tasks": list(self.tasks),
            "options": {
                "tol": self.tol,
                "exact": self.exact,
                "max_power": self.max_power,
                "seed": self.seed,
            },
        }


def _check_tol(tol):
    """options.tol and --tol: NaN, infinity and ints past the largest float
    fail the range."""
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol <= sys.float_info.max:
        raise ConfigError(f"options.tol: must be a finite positive number, got {tol!r}")


def _parse_options(obj):
    defaults = {"tol": 1e-9, "exact": True, "max_power": 64, "seed": 0}
    if obj is None:
        return defaults
    if not isinstance(obj, dict):
        raise ConfigError("options: expected a JSON object")
    out = dict(defaults)
    for key, value in obj.items():
        if key not in defaults:
            raise ConfigError(f"options: unknown key {key!r}")
        out[key] = value
    _check_tol(out["tol"])
    if not isinstance(out["exact"], bool):
        raise ConfigError(f"options.exact: must be a boolean, got {out['exact']!r}")
    if not isinstance(out["max_power"], int) or isinstance(out["max_power"], bool) or out["max_power"] < 1:
        raise ConfigError(f"options.max_power: must be a positive integer, got {out['max_power']!r}")
    if not isinstance(out["seed"], int) or isinstance(out["seed"], bool):
        raise ConfigError(f"options.seed: must be an integer, got {out['seed']!r}")
    return out


def parse_config(obj):
    """Validate a decoded JSON config and return an AnalysisConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(obj) - {"group", "measure", "tasks", "options"}
    if unknown:
        raise ConfigError(f"config: unknown field {sorted(unknown)[0]!r}")
    for required in ("group", "measure", "tasks"):
        if required not in obj:
            raise ConfigError(f"{required}: field is required")
    try:
        group_spec = GroupSpec.from_json(obj["group"])
    except (ConstructionError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"group: {exc}") from exc
    measure_entries = obj["measure"]
    if not isinstance(measure_entries, list) or not measure_entries:
        raise ConfigError("measure: expected a nonempty list of {g, w} entries")
    tasks = obj["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks: expected a nonempty list")
    bad = [t for t in tasks if t not in TASK_ORDER]
    if bad:
        raise ConfigError(f"tasks: unknown task {bad[0]!r}; choose from {', '.join(TASK_ORDER)}")
    options = _parse_options(obj.get("options"))
    return AnalysisConfig(
        group_spec,
        measure_entries,
        tasks,
        float(options["tol"]),
        options["exact"],
        options["max_power"],
        options["seed"],
    )


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(obj)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _build_inputs(config):
    try:
        group = build_group(config.group_spec)
    except ConstructionError as exc:
        raise ConfigError(f"group: {exc}") from exc
    try:
        mu = measure_from_json(group, config.measure_entries)
    except (MeasureError, ConstructionError, ValueError) as exc:
        raise ConfigError(f"measure: {exc}") from exc
    if not config.exact and mu.exact:
        mu = mu.as_float()
    return group, mu


def _gate_tasks(group, mu, tasks):
    if group.is_truncated:
        for task in ("spectrum", "biharmonic", "boundary", "foguel"):
            if task in tasks:
                raise ConfigError(
                    f"tasks: {task} requires finite group; use verify/truncated tasks"
                )
    else:
        if not mu.exact and ("biharmonic" in tasks or "boundary" in tasks):
            raise ConfigError(
                "measure: biharmonic and boundary tasks need exact rational weights "
                '(write them as strings like "1/2") with options.exact left on'
            )


def _task_spectrum(group, mu, config):
    report = spectrum(right_operator(group, mu), tol=config.tol)
    eigenvalues = []
    for rec in report.eigenvalues:
        row = rec.to_json()
        row["peripheral"] = abs(rec.value) >= 1 - report.peripheral_tol
        eigenvalues.append(row)
    return {
        "eigenvalues": eigenvalues,
        "peripheral": [[lam.real, lam.imag] for lam in report.peripheral],
    }


def _task_character(group, mu, config):
    chi = find_anti_character(group, mu)
    out = {"character": chi.to_json() if chi is not None else None}
    if not group.is_truncated and mu.exact:
        out["har_dim"] = len(harmonic_space(group, mu))
        out["anti_dim"] = len(anti_harmonic_space(group, mu))
    else:
        out["har_dim"] = None
        out["anti_dim"] = None
    return out


def _task_biharmonic(group, mu, config):
    basis = jointly_biharmonic_space(group, mu)
    decompositions = []
    for f in basis:
        dec = decompose(f, mu, tol=config.tol)
        decompositions.append(
            {
                "function": _function_values(f),
                "constant": _jsonable(dec.constant),
                "harmonic_part": _function_values(dec.harmonic_part),
                "anti_part": _function_values(dec.anti_part),
            }
        )
    return {"dimension": len(basis), "decompositions": decompositions}


def _task_boundary(group, mu, config):
    try:
        basis = peripheral_boundary(group, mu)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc
    return basis.to_json()


def _task_foguel(group, mu, config):
    result = foguel_decay(group, mu)
    return {
        "distances": result.distances,
        "first_below": result.first_below,
        "identity_in_support": result.identity_in_support,
    }


def _task_verify(group, mu, config):
    if group.is_truncated:
        chi = find_anti_character(group, mu)
        if chi is None:
            records = [
                CheckRecord(
                    "config", "sign_character", "none", "n/a", True,
                    note="observation: no character is -1 on the support",
                )
            ]
        else:
            records = ball_sign_records(
                "config", group, mu, chi.as_function(), suffix="_character"
            )
    elif mu.exact and is_symmetric(mu) and is_generating(mu):
        records = fixture_theorem_checks("config", group, mu)
    elif is_generating(mu):
        cap = max(config.max_power, group.order)
        records = root_of_unity_check(group, mu, cap=cap).records
        for rec in records:
            rec.fixture = "config"
    else:
        raise ConfigError(
            "measure: verify task needs a generating measure "
            "(support must reach the whole group)"
        )
    report = VerificationReport("config", records)
    return report.to_json()


_TASK_RUNNERS = {
    "spectrum": _task_spectrum,
    "character": _task_character,
    "biharmonic": _task_biharmonic,
    "boundary": _task_boundary,
    "foguel": _task_foguel,
    "verify": _task_verify,
}


def run_analysis(config):
    """Execute the configured tasks in fixed order and build the report dict."""
    group, mu = _build_inputs(config)
    _gate_tasks(group, mu, config.tasks)
    results = {}
    for task in TASK_ORDER:
        if task in config.tasks:
            results[task] = _TASK_RUNNERS[task](group, mu, config)
    return {"config": config.to_json(), "results": results}


def _write_csv_tables(report, directory):
    os.makedirs(directory, exist_ok=True)
    spectrum_result = report["results"].get("spectrum")
    if spectrum_result is not None:
        path = os.path.join(directory, "eigenvalues.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "multiplicity", "peripheral"])
            for rec in spectrum_result["eigenvalues"]:
                writer.writerow([rec["re"], rec["im"], rec["multiplicity"], rec["peripheral"]])
    foguel_result = report["results"].get("foguel")
    if foguel_result is not None:
        path = os.path.join(directory, "decay.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "tv_gap"])
            for n, d in enumerate(foguel_result["distances"], start=1):
                writer.writerow([n, d])


def _json_float(x):
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _key(key):
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(obj, indent="\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True), built in
    fewer steps: a list of only ints, only strings or only finite floats is
    joined in one pass, and a dict's scalar values are encoded inline."""
    encode = _SCALARS.get(type(obj))
    if encode is not None:
        return encode(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {str}:
            items = map(_SCALARS[kinds.pop()], obj)
        elif kinds == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:
            items = [_encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            encode = _SCALARS.get(type(value))
            text = encode(value) if encode is not None else _encode(value, inner)
            items.append(f"{_key(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    for kind in (str, int, float):  # subclasses of the scalar types
        if isinstance(obj, kind):
            return _SCALARS[kind](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload, out_path):
    text = _encode(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_analyze(args):
    config = load_config(args.config)
    if args.tol is not None:
        _check_tol(args.tol)
        config.tol = args.tol
    if args.no_exact:
        config.exact = False
    report = run_analysis(config)
    if args.csv:
        _write_csv_tables(report, args.csv)
    _emit(report, args.out)
    verify_result = report["results"].get("verify")
    if verify_result is not None and not verify_result["passed"]:
        return 1
    return 0


def _run_verify(args):
    report = verify_suite(args.suite, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _seed(text):
    """--seed's type: a non-negative integer, as numpy's seeded generators need."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupwalk",
        description="Spectral and harmonic analysis of convolution walks on groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="run tasks from a JSON config")
    analyze.add_argument("config", help="path to the JSON config")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--csv", help="directory for eigenvalue/decay CSV tables")
    analyze.add_argument("--tol", type=float, default=None, help="override options.tol")
    analyze.add_argument(
        "--no-exact", action="store_true", help="force floating-point arithmetic"
    )
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    verify.add_argument("--seed", type=_seed, default=0, help="corpus seed, a non-negative integer")
    verify.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeasureError, ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only the report and its CSV tables are written
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ComputationError, np.linalg.LinAlgError, MemoryError, RecursionError) as exc:
        print(f"computation failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
