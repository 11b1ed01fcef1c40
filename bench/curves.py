"""Scaling curves over group order (informational, not gated).

    python3 bench/run.py --curves

Three curves, each point timed in a fresh process: exact `harmonic_space`
on D_n with mu uniform on {r, r^-1, s}; `find_anti_character` on Z_n with mu
uniform on {1, -1}; float `spectrum` of the right walk on Z_n with mu
uniform on {1, 2}.  The order doubles until a point takes longer than
CAP_S, is killed at CAP_S, or is refused by the program.  Also reports the
line count of src/ (not a gated metric).
"""

from __future__ import annotations

import json
import os
import sys
import time

CAP_S = 60.0

CURVES = {
    # name: (first order, largest order tried)
    "harmonic_space_dihedral": (16, 4096),
    "anti_character_cyclic": (32, 4096),
    "spectrum_cyclic_float": (64, 8192),
}


def point(curve, order):
    """Seconds for one call at the given group order (runs in a child)."""
    from groupwalk import (
        CyclicGroup, DihedralGroup, find_anti_character, harmonic_space,
        right_operator, spectrum, uniform,
    )

    if curve == "harmonic_space_dihedral":
        group = DihedralGroup(order // 2)
        n = group.n
        mu = uniform(group, [1, n - 1, n])
        start = time.perf_counter()
        harmonic_space(group, mu)
    elif curve == "anti_character_cyclic":
        group = CyclicGroup(order)
        mu = uniform(group, [1, order - 1])
        start = time.perf_counter()
        find_anti_character(group, mu)
    else:
        group = CyclicGroup(order)
        mu = uniform(group, [1, 2]).as_float()
        start = time.perf_counter()
        spectrum(right_operator(group, mu))
    return time.perf_counter() - start


def src_lines(src):
    total = 0
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_curves(cap=CAP_S):
    from run import SRC, WORK, spawn

    out = {"cap_s": cap, "src_lines": src_lines(SRC), "curves": {}}
    log = os.path.join(WORK, "curves-point.log")
    result_path = os.path.join(WORK, "curves-point.json")
    for curve, (order, largest) in CURVES.items():
        points = []
        while order <= largest:
            if os.path.exists(result_path):
                os.remove(result_path)
            code, rss = spawn([os.path.abspath(__file__), curve, str(order), result_path], log,
                              timeout=cap)
            if code != 0 or not os.path.exists(result_path):
                with open(log, encoding="utf-8") as fh:
                    tail = fh.read().strip().splitlines()[-1:] or [""]
                status = "killed at cap" if code == -9 else f"refused: {tail[0]}"
                points.append({"order": order, "status": status})
                break
            with open(result_path, encoding="utf-8") as fh:
                seconds = json.load(fh)
            points.append({"order": order, "seconds": seconds, "peak_rss_mb": rss})
            print(f"{curve} order={order} {seconds:.3f} s {rss:.0f} MB", flush=True)
            if seconds > cap:
                break
            order *= 2
        out["curves"][curve] = points
    with open(os.path.join(WORK, "curves.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    seconds = point(sys.argv[1], int(sys.argv[2]))
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(seconds, fh)
