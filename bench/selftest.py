"""Negative control for the benchmark's output checks.

Run from the repository root: ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``).  Shifting one map of F in the
canonical ``cantor-fine`` input by 1e-3 changes its attractor, so both the
in-process operation and the CLI call must be counted as failed, while the
unshifted input passes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

SHIFT = 1e-3


def _tally(shift: float) -> run.Tally:
    inputs = workloads.make_inputs("cantor-fine", 0, run.WORK / f"selftest-{shift:g}")
    f_path = inputs.configs[1]
    config = json.loads(f_path.read_text(encoding="utf-8"))
    config["maps"][1]["b_re"] += shift
    f_path.write_text(json.dumps(config), encoding="utf-8")

    env = {k: v for k, v in os.environ.items() if k != "HOLOIFS_THREADS"}
    env["PYTHONPATH"] = str(run.SRC)
    systems = workloads.load(inputs)
    tally = run.Tally()
    done = tally.attempt(lambda: workloads.check_op(
        inputs, systems, workloads.run_op(inputs, systems)))
    tally.attempt(lambda: workloads.run_cli(inputs, run.ROOT, env, done))
    return tally


def test_shifted_map_fails():
    tally = _tally(SHIFT)
    assert (tally.attempted, tally.failed) == (2, 2), tally.errors


def test_unshifted_map_passes():
    tally = _tally(0.0)
    assert (tally.attempted, tally.failed) == (2, 0), tally.errors


if __name__ == "__main__":
    for test in (test_shifted_map_fails, test_unshifted_map_passes):
        test()
        print(f"{test.__name__}: ok")
