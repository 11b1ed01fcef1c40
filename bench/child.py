"""One workload run in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC holds {"src": package source dir, "argvs": [[...], ...], "trace": bool,
"result": path, "spans": path}.  The child times `import groupwalk.cli`
(set-up), then calls `groupwalk.cli.main` once per argv and records the
wall and CPU time of that interval, each item's exit code, and, when
tracing, the spans.  An argv list of [] makes the child a set-up probe.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import groupwalk.cli

    setup_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = []
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    for argv in spec["argvs"]:
        try:
            items.append({"code": groupwalk.cli.main(argv)})
        except Exception as exc:  # an escaped exception is an item failure
            items.append({"code": None, "error": f"{type(exc).__name__}: {exc}"})
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "items": items}, fh)


if __name__ == "__main__":
    main()
