"""The bench tracer's targets still name code in the package.

`bench/tracer.py` wraps each (module, attribute) of its TARGETS list by
name, so a deleted or renamed function would break `bench/run.py --trace 1`
only when the benchmark runs.  The tracer's source is compiled in memory
(no bytecode is written next to it) and never installed.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    missing = []
    for module_name, attr, _span, _count in namespace["TARGETS"]:
        home = importlib.import_module(f"groupwalk.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append(f"{module_name}.{attr}")
        elif not callable(getattr(home, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"bench/tracer.py wraps names the package no longer has: {missing}"
