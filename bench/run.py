"""groupwalk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --curves

A run generates the workload's inputs from the seed, times the set-up
(fresh interpreters importing groupwalk.cli), then runs the workload through
groupwalk.cli.main in fresh child processes, one at a time, until the time
budget is used (at least once).  Every output is certified independently
and compared byte for byte with the other runs of the same seed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once with span wrappers and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object.
--curves writes the scaling curves (not gated) and the src/ line count.

Must be started from a checkout that holds src/groupwalk; child processes
run with OPENBLAS_NUM_THREADS (and OMP/MKL) fixed to THREADS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(BENCH, "child.py")
THREADS = "1"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 80


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, log_path, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; return (exit code, peak RSS in MB).

    Peak RSS comes from this child's own rusage via wait4, not from
    RUSAGE_CHILDREN, which keeps a maximum over every child so far.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.kill(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark invocation: inputs, child runs, certificates."""

    def __init__(self, workload, seed):
        import workloads

        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.argvs, self.configs = workloads.write_inputs(
            workload, seed, os.path.join(self.dir, "in")
        )
        self.reps = []
        self.setup_samples = []
        self._n = 0

    def child(self, argvs, trace=False):
        """Run argvs in one fresh process; return its result dict."""
        self._n += 1
        tag = f"{self._n:02d}"
        spec = {
            "src": SRC,
            "argvs": argvs,
            "trace": trace,
            "result": os.path.join(self.dir, f"result-{tag}.json"),
            "spans": os.path.join(self.dir, f"spans-{tag}.json"),
        }
        spec_path = os.path.join(self.dir, f"spec-{tag}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        code, rss = spawn([CHILD, spec_path], os.path.join(self.dir, f"log-{tag}.txt"))
        try:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
        if result is None or code != 0:
            return {"ok": False, "code": code, "peak_rss_mb": rss, "log": self._tail(tag)}
        result.update(ok=True, peak_rss_mb=rss, spans=spec["spans"])
        self.setup_samples.append(result["setup_s"])
        return result

    def _tail(self, tag):
        try:
            with open(os.path.join(self.dir, f"log-{tag}.txt"), encoding="utf-8", errors="replace") as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def probe_setup(self):
        self.child([])  # compiles bytecode and warms the file cache; not counted
        self.setup_samples.clear()
        for _ in range(SETUP_PROBES):
            self.child([])

    def rep(self, trace=False):
        out_dir = os.path.join(self.dir, f"out-{len(self.reps)}")
        os.makedirs(out_dir)
        argvs = [a + ["--out", os.path.join(out_dir, f"{i}.json")] for i, a in enumerate(self.argvs)]
        result = self.child(argvs, trace=trace)
        result["out_dir"] = out_dir
        self.reps.append(result)
        return result

    def outputs(self, rep):
        """Raw bytes of each item's report in one rep (None when missing)."""
        out = []
        for i in range(len(self.argvs)):
            try:
                with open(os.path.join(rep["out_dir"], f"{i}.json"), "rb") as fh:
                    out.append(fh.read())
            except OSError:
                out.append(None)
        return out

    def evaluate(self):
        """Certify every item; return (attempted, failures by item).

        An analyze config is one item; `verify all` counts one item per check
        record it reports.
        """
        from certify import check_analyze

        runs = [r for r in self.reps if r["ok"]]
        if not runs:
            return 1, {"run": ["no run completed: " + self.reps[0].get("log", "")[-300:]]}
        outputs = [self.outputs(r) for r in runs]
        digests = self._stored_digests([None if b is None else _sha(b) for b in outputs[0]])
        attempted = 0
        failures = {}
        for i, config in enumerate(self.configs):
            ref = outputs[0][i]
            others = [o[i] for o in outputs[1:]]
            changed = any(o != ref for o in others) or (
                ref is not None and digests[i] not in (None, _sha(ref))
            )
            codes = [r["items"][i] for r in runs]
            if config is None:
                count, found = _verify_items(ref, others, codes, changed)
                attempted += count
                failures.update(found)
                continue
            attempted += 1
            reasons = []
            if any(c["code"] != 0 for c in codes):
                reasons.append(f"exit {codes[0].get('code')} {codes[0].get('error', '')}".strip())
            if ref is None:
                reasons.append("no report written")
            else:
                if changed:
                    reasons.append("report differs from another run of the same seed")
                try:
                    reasons += check_analyze(config, json.loads(ref))
                except (KeyError, TypeError, ValueError) as exc:
                    reasons.append(f"report unreadable: {type(exc).__name__}: {exc}")
            if reasons:
                failures[f"config-{i}"] = reasons
        return attempted, failures

    def _stored_digests(self, digests):
        """Digests stored by an earlier run of the same inputs and sources.

        Stores them when there are none yet, and returns Nones then.
        """
        # the configs and the verify argv; config paths vary per run
        items = [c if c is not None else a for a, c in zip(self.argvs, self.configs)]
        inputs = _sha(json.dumps(items, sort_keys=True).encode())[:16]
        key = f"{self.workload}-{self.seed}-{inputs}-{_src_digest()}"
        path = os.path.join(WORK, "digests", f"{key}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = None
        if stored is None or len(stored) != len(digests):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(digests, fh)
            return [None] * len(digests)
        return stored


def _verify_items(ref, others, codes, changed):
    """Items of a `verify all` report: one per check record."""
    if ref is None:
        return 1, {"verify": [f"no report written: {codes[0]}"]}
    report = json.loads(ref)
    checks = report["checks"]
    expected = 0 if report["passed"] else 1
    failures = {}
    if any(c["code"] != expected for c in codes):
        failures["verify-exit"] = [f"exit {codes[0].get('code')} (expected {expected})"]
    other_checks = [json.loads(o)["checks"] for o in others if o is not None]
    for j, rec in enumerate(checks):
        reasons = [] if rec["passed"] else [f"{rec['fixture']} {rec['quantity']} failed"]
        # a mismatch with stored digests alone cannot be localized to a record
        if changed and (not other_checks or any(j >= len(o) or o[j] != rec for o in other_checks)):
            reasons.append("differs from another run of the same seed")
        if reasons:
            failures[f"check-{j}"] = reasons
    return len(checks) + ("verify-exit" in failures), failures


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _src_digest():
    """Short digest of the package sources, so stored digests follow the code."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "groupwalk"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed)
    try:
        run.probe_setup()
        start = time.perf_counter()
        if trace:
            plain = run.rep()
            traced = run.rep(trace=True)
        else:
            while True:
                t0 = time.perf_counter()
                plain = run.rep()
                last = time.perf_counter() - t0
                if not plain["ok"] or time.perf_counter() - start + last > seconds:
                    break
        attempted, failures = run.evaluate()
        metrics = {}
        if trace:
            if traced["ok"] and plain["ok"]:
                from tracer import layer_metrics

                with open(traced["spans"], encoding="utf-8") as fh:
                    spans = json.load(fh)
                shutil.copyfile(traced["spans"], os.path.join(WORK, f"last-trace-{workload}.json"))
                for name, (value, unit) in layer_metrics(spans).items():
                    metrics[name] = {"value": value, "unit": unit}
                report_bytes = sum(len(b) for b in run.outputs(traced) if b is not None)
                metrics["cli.report_bytes"] = {"value": report_bytes, "unit": "bytes"}
                metrics["trace.overhead_s"] = {
                    "value": traced["wall_s"] - plain["wall_s"], "unit": "s",
                }
        else:
            ok = [r for r in run.reps if r["ok"]]
            metrics = {
                "wall_s": {"value": _median([r["wall_s"] for r in ok]), "unit": "s"},
                "cpu_s": {"value": _median([r["cpu_s"] for r in ok]), "unit": "s"},
                "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in ok]), "unit": "MB"},
                "setup_s": {"value": _median(run.setup_samples), "unit": "s"},
                "passed_share": {
                    "value": (attempted - len(failures)) / attempted, "unit": "ratio",
                },
            }
        oracle_only = all(
            all(reason.startswith("oracle:") for reason in reasons) for reasons in failures.values()
        )
        correct = all(r["ok"] for r in run.reps) and oracle_only
        _report(run, metrics, attempted, failures, trace)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def _report(run, metrics, attempted, failures, trace):
    """Human-readable lines ahead of the JSON line."""
    ok = [r for r in run.reps if r["ok"]]
    print(f"workload={run.workload} seed={run.seed} trace={int(trace)} "
          f"OPENBLAS_NUM_THREADS={THREADS} runs={len(run.reps)} "
          f"setup_samples={len(run.setup_samples)}")
    for name, m in metrics.items():
        samples = len(run.setup_samples) if name == "setup_s" else 1 if trace else len(ok)
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} n={samples}")
    print(f"  items attempted={attempted} failed={len(failures)}")
    for item, reasons in list(failures.items())[:8]:
        print(f"    {item}: {'; '.join(reasons)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--curves", action="store_true", help="write the scaling curves")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupwalk", "cli.py")):
        print(f"error: no groupwalk sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    os.makedirs(WORK, exist_ok=True)
    if args.curves:
        from curves import run_curves

        print(json.dumps(run_curves()))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
