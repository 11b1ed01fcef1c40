"""The benchmark's seeded inputs still build against the package.

`bench/workloads.py` draws its measures with `closure`, `inv`, `GroupSpec`,
`build_group` and `SymmetricGroup.perms`, and writes the configs that
`bench/run.py` hands to the CLI.  Its source is compiled in memory (no
bytecode is written next to it) and never installed.
"""

from pathlib import Path

import pytest

from groupwalk import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    namespace = {"__name__": "bench_workloads"}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    return namespace


@pytest.mark.parametrize("seed", [0, 7])
def test_every_workload_input_is_a_valid_config(tmp_path, seed):
    bench = _workloads()
    for workload in bench["WORKLOADS"]:
        argvs, configs = bench["write_inputs"](workload, seed, str(tmp_path / workload))
        assert len(argvs) == len(configs)
        for argv, config in zip(argvs, configs):
            if config is None:
                assert argv == ["verify", "all", "--seed", str(seed)]
                continue
            assert argv[0] == "analyze"
            loaded = cli.load_config(argv[1])
            assert loaded.to_json()["group"] == config["group"]
            group, mu = cli._build_inputs(loaded)
            assert group.order and mu.weights
