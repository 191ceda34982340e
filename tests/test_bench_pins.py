"""The benchmark's sha256-pinned reports hold on every test run.

``bench/workloads.py`` is loaded read-only, as ``test_bench_tracing.py``
loads ``bench/tracing.py``.  net-nonuniform is left out: its 8.4M-cylinder
net peaks at about 740 MB.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cantor-fine", "julia-square"])
def test_seed_zero_report_matches_its_pin(workload, tmp_path):
    workloads = _load_workloads()
    inputs = workloads.make_inputs(workload, 0, tmp_path)
    systems = workloads.load(inputs)
    result = workloads.run_op(inputs, systems)
    # raises CheckFailed unless the fields and the sha256 of the report match
    report = workloads.check_op(inputs, systems, result)
    assert b"\nverdict = Shared\n" in report
