"""Command line front end: `analyze` runs tasks from a JSON config, `verify`
runs a named check suite.  JSON in, JSON out, optional CSV side tables.  The
report has the bytes of json.dumps(report, indent=2, sort_keys=True): json's
own encoder spells every value, and this module lays the values out and
streams them, a dict key by key and a list 512 entries at a time."""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .groups import ConstructionError, GroupSpec, build_group
from .harmonic import decompose, find_anti_character, jointly_biharmonic_space, peripheral_boundary
from .measures import MeasureError, is_generating, is_symmetric, measure_from_json
from .operators import ComputationError, _function_values, _require_tolerance, right_operator, spectrum
from .verify import (
    SUITE_NAMES,
    CheckRecord,
    VerificationReport,
    _renamed,
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


@dataclass
class AnalysisConfig:
    group_spec: GroupSpec
    measure_entries: list
    tasks: list
    tol: float
    exact: bool

    def to_json(self):
        options = {"tol": self.tol, "exact": self.exact}
        return {"group": self.group_spec.to_json(), "measure": self.measure_entries, "tasks": list(self.tasks),
                "options": options}


def _parse_options(obj):
    defaults = {"tol": 1e-9, "exact": True}
    if obj is None:
        return defaults
    if not isinstance(obj, dict):
        raise ConfigError("options: expected a JSON object")
    out = dict(defaults)
    for key, value in obj.items():
        if key not in defaults:
            raise ConfigError(f"options: unknown key {key!r}")
        out[key] = value
    _require_tolerance("options.tol:", out["tol"], ConfigError)
    if not isinstance(out["exact"], bool):
        raise ConfigError(f"options.exact: must be a boolean, got {out['exact']!r}")
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
    return AnalysisConfig(group_spec, measure_entries, tasks, float(options["tol"]), options["exact"])


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(obj)


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
                raise ConfigError(f"tasks: {task} requires finite group; use verify/truncated tasks")
    else:
        if not mu.exact and ("biharmonic" in tasks or "boundary" in tasks):
            raise ConfigError(
                "measure: biharmonic and boundary tasks need exact rational weights "
                '(write them as strings like "1/2") with options.exact left on'
            )


def _task_spectrum(group, mu, config):
    report = spectrum(right_operator(group, mu), tol=config.tol)
    return {
        "eigenvalues": [rec.to_json() for rec in report.eigenvalues],
        "peripheral": [[lam.real, lam.imag] for lam in report.peripheral],
    }


def _task_character(group, mu, config):
    chi = find_anti_character(group, mu)
    out = {"character": chi.to_json() if chi is not None else None, "har_dim": None, "anti_dim": None}
    if not group.is_truncated and mu.exact:
        walk = right_operator(group, mu).classes()
        out["har_dim"], out["anti_dim"] = walk.count(1), walk.count(-1)
    return out


def _task_biharmonic(group, mu, config):
    basis = jointly_biharmonic_space(group, mu)
    decompositions = []
    for f in basis:
        dec = decompose(f, mu, tol=config.tol)
        decompositions.append(
            {
                "function": _function_values(f),
                "constant": None if dec.constant is None else str(dec.constant),  # a Fraction: weights are exact
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
            note = "observation: no character is -1 on the support"
            records = [CheckRecord("config", "sign_character", "none", "n/a", True, note=note)]
        else:
            records = ball_sign_records("config", group, mu, chi.as_function(), suffix="_character")
    elif mu.exact and is_symmetric(mu) and is_generating(mu):
        records = fixture_theorem_checks("config", group, mu)
    elif is_generating(mu):
        records = _renamed(root_of_unity_check(group, mu), "config")
    else:
        raise ConfigError(
            "measure: verify task needs a generating measure "
            "(support must reach the whole group)"
        )
    return VerificationReport("config", records).to_json()


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
    columns = ["re", "im", "multiplicity", "peripheral"]
    tables = {
        "spectrum": ("eigenvalues.csv", columns,
                     lambda out: ([rec[c] for c in columns] for rec in out["eigenvalues"])),
        "foguel": ("decay.csv", ["n", "tv_gap"], lambda out: enumerate(out["distances"], start=1)),
    }
    for task, (name, header, rows) in tables.items():
        if report["results"].get(task) is not None:
            with open(os.path.join(directory, name), "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows(report["results"][task])])


_BATCH = 512  # list entries encoded and written at a time


@functools.cache
def _flat(inner):
    """json's own encoder with `inner` after each comma.  It writes a scalar
    as json.dumps does, and a container of scalars as json.dumps(indent=2)
    does at this indent but for the line breaks inside its brackets.  Only
    such flat values reach it, so it skips the check for cycles."""
    return json.JSONEncoder(separators=("," + inner, ": "), sort_keys=True, check_circular=False).encode


def _is_flat(values):
    """Whether none of these values is a container."""
    return not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, values)))


def _name(key):
    """A dict key's text as json.dumps writes it: '"key"' of '{"key": null}'."""
    return _flat("")({key: None})[1:-7]


def _encode(obj, indent="\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True) at this indent."""
    return "".join(_chunks(obj, indent))


def _chunks(obj, indent="\n"):
    """The text of `_encode(obj, indent)` in pieces: a dict of scalars whole,
    any other dict key by key, and a list one batch of _BATCH entries at a
    time.  A batch of scalars takes one call to json's encoder, a batch of
    nonempty dicts of scalars (check records as their dicts) one more, and
    any other batch one piece per entry."""
    inner, deeper = indent + "  ", indent + "    "
    if isinstance(obj, dict) and obj and not _is_flat(obj.values()):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + _name(key) + ": "
            yield from _chunks(obj[key], inner)
        yield indent + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for start in range(0, len(obj), _BATCH):
            batch = obj[start:start + _BATCH]
            batch = [record.to_json() for record in batch] if type(batch[0]) is CheckRecord else batch
            yield "," if start else "["
            if _is_flat(batch):
                yield inner + _flat(inner)(batch)[1:-1]
            elif set(map(type, batch)) == {dict} and all(batch) and _is_flat(itertools.chain(*map(dict.values, batch))):
                # encode_basestring_ascii escapes every control character, so
                # a raw line break comes only from a separator: "}," + deeper
                # + "{" is exactly where one record ends and the next begins
                text = _flat(deeper)(batch)[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
                yield inner + "{" + deeper + text + inner + "}"
            else:
                for i, entry in enumerate(batch):
                    yield ("," if i else "") + inner
                    yield from _chunks(entry, inner)
        yield indent + "]"
    elif isinstance(obj, dict) and obj:
        yield "{" + inner + _flat(inner)(obj)[1:-1] + indent + "}"
    else:
        yield _flat(inner)(obj)


def _emit(payload, out_path):
    """Write the report and a newline piece by piece (`_chunks`).  A report
    that fails to encode or to write leaves no file at out_path."""
    pieces = itertools.chain(_chunks(payload), ["\n"])
    if not out_path:
        return sys.stdout.writelines(pieces)
    fh = open(out_path, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(pieces)
    except BaseException:
        if os.path.isfile(out_path) and not os.path.islink(out_path):
            os.remove(out_path)
        raise


def _run_analyze(args):
    config = load_config(args.config)
    if args.tol is not None:
        _require_tolerance("options.tol:", args.tol, ConfigError)
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
    _emit({"suite": report.suite, "passed": report.passed, "checks": report.records}, args.out)
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


@functools.cache
def build_parser():
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
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
