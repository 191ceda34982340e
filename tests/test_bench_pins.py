"""The benchmark's sha256-pinned reports hold on every test run.

``bench/workloads.py`` is loaded read-only, as ``test_bench_tracing.py``
loads ``bench/tracing.py``.  The other ``shared`` reports that a refactor
must keep byte-identical are pinned here too.
"""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import holoifs.maps
from holoifs.cli import shared_report_text
from holoifs.dynamics import spectrum
from holoifs.maps import Affine, Disk, IfsSystem
from holoifs.symmetry import Budgets, shared_attractor
from holoifs.systems import cantor_thirds, cantor_thirds_reflected, iterate_system, sqrt_julia

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cantor-fine", "julia-square", "net-nonuniform"])
def test_seed_zero_report_matches_its_pin(workload, tmp_path):
    workloads = _load_workloads()
    inputs = workloads.make_inputs(workload, 0, tmp_path)
    systems = workloads.load(inputs)
    result = workloads.run_op(inputs, systems)
    # raises CheckFailed unless the fields and the sha256 of the report (or
    # of the net's CSV) match
    output = workloads.check_op(inputs, systems, result)
    if workload == "net-nonuniform":
        assert output.count(b"\n") == len(result) == 1864
    else:
        assert b"\nverdict = Shared\n" in output


THIRDS = ("cantor-thirds", cantor_thirds)
REFLECTED = ("cantor-thirds-reflected", cantor_thirds_reflected)


def _report(g, f, epsilon, budgets=None):
    (label_g, make_g), (label_f, make_f) = g, f
    report = shared_attractor(make_g(), make_f(), epsilon, budgets)
    return shared_report_text(report, epsilon, label_g, label_f).encode("utf-8")


# prep and source lengths that differ: the sources are cut back from, or
# extended past, the prep check's necklaces (the digests were taken before the
# prep check and the spectrum shared one necklace table)
PREP5_SOURCE3 = Budgets(prep_max_word=5, spectrum_source_len=3)
PREP2_SOURCE5 = Budgets(prep_max_word=2, spectrum_source_len=5)


@pytest.mark.parametrize(
    "g, f, epsilon, budgets, digest",
    [
        (THIRDS, REFLECTED, 1e-3, None,
         "14bc3df02ae3c0f009c9edec0a37cc32e8eea4f75e1d9e3151e19e3444b414df"),
        (REFLECTED, THIRDS, 1e-3, None,
         "e5a98ae8f950e9c7fc6654da39b70bd9c4fb2a98a173e1d748a25f484e14d14c"),
        # thirds vs reflected at 1e-5 is the cantor-fine pin
        (REFLECTED, THIRDS, 1e-5, None,
         "cd1599f8093b288ff58a2c664431f0337dc3810e2d4fe0bf18da460a6add215d"),
        # Shared
        (THIRDS, REFLECTED, 1e-3, PREP5_SOURCE3,
         "a4203a1b2e6fbc407a91c38b06c630bd1317a7056680f927055010cc95631f16"),
        (REFLECTED, THIRDS, 1e-3, PREP5_SOURCE3,
         "10c0d0642e6c32bdce3e760697392230fce51043ff914fd6d292aa5a06e29312"),
        # Inconclusive: spectrum compatibility failed
        (THIRDS, REFLECTED, 1e-3, PREP2_SOURCE5,
         "71cce93349b176df1f14fbf3c52fa6b15ac93e1d45324ce84e9b39cd4ee2ae00"),
        (REFLECTED, THIRDS, 1e-3, PREP2_SOURCE5,
         "cb8e509bb718bfaa4f2cc9718c6d93f9f6d6bfa326c51b232f0014deb211b851"),
    ],
    ids=["thirds-reflected-1e-3", "reflected-thirds-1e-3", "reflected-thirds-1e-5",
         "thirds-reflected-prep5-source3", "reflected-thirds-prep5-source3",
         "thirds-reflected-prep2-source5", "reflected-thirds-prep2-source5"],
)
def test_cantor_reports_match_their_pins(g, f, epsilon, budgets, digest):
    assert hashlib.sha256(_report(g, f, epsilon, budgets)).hexdigest() == digest


@pytest.mark.parametrize(
    "budgets, digest",
    [
        # Inconclusive: preperiodic cross-check failed
        (PREP5_SOURCE3, "425c2a56e40e27fdb26bed82ca9e15f73d1d6686436deaf12dfe9897bfa5d768"),
        # Inconclusive: spectrum compatibility failed
        (Budgets(prep_max_word=3, spectrum_source_len=6, spectrum_target_len=6),
         "5d623309e218bcc992d6e0edfccce3f492936846d1fa0f3c12a832c329bed5e7"),
    ],
    ids=["prep5-source3", "prep3-source6-target6"],
)
def test_julia_square_reports_at_other_lengths_match_their_pins(budgets, digest):
    julia = ("sqrt-julia", lambda: sqrt_julia(-6.0))
    square = ("sqrt-julia^2", lambda: iterate_system(sqrt_julia(-6.0), 2))
    assert hashlib.sha256(_report(julia, square, 1e-3, budgets)).hexdigest() == digest


def test_julia_self_report_matches_the_cli_pin():
    # the benchmark's CLI call decides sqrt_julia(-6) against itself
    pin = _load_workloads().PINNED["julia-square.cli"]
    julia = ("sqrt-julia", lambda: sqrt_julia(-6.0))
    assert hashlib.sha256(_report(julia, julia, 1e-3)).hexdigest() == pin


def test_complex_julia_square_report_keeps_its_verdict_counts_and_words():
    # on complex maps a multiplier or residual may move in numpy's last bit,
    # so the floats are not pinned
    c = -6.0 + 0.5j
    text = _report(("sqrt-julia-complex", lambda: sqrt_julia(c)),
                   ("sqrt-julia-complex^2", lambda: iterate_system(sqrt_julia(c), 2)),
                   1e-3).decode("utf-8")
    fields = dict(line.split(" = ", 1) for line in text.splitlines()[1:])
    assert {k: fields[k] for k in (
        "verdict", "ssc_both", "prep_forward_pass", "prep_forward_fail", "prep_backward_pass",
        "prep_backward_fail", "spectrum_count", "equation_count",
    )} == {
        "verdict": "Shared", "ssc_both": "true", "prep_forward_pass": "22",
        "prep_forward_fail": "0", "prep_backward_pass": "316", "prep_backward_fail": "0",
        "spectrum_count": "74", "equation_count": "256",
    }
    words = "".join(
        line + "\n" for line in text.splitlines()
        if re.match(r"equation_\d+_(disk|word_g|word_f) = ", line)
    )
    assert words.count("\n") == 3 * 256
    assert hashlib.sha256(words.encode("utf-8")).hexdigest() == (
        "862a784594eda488f65aab38e515fa129a471156e2ae1f1e98b2537baf33ef3e")


def test_affine_square_sweep_shares_its_compositions(monkeypatch):
    # G = {0.4z, 0.12z + 0.88} against its square: 4,096 equations, and a new
    # composite per germ would hand map_rows 4,096 distinct factors
    sizes = []
    factor_table = holoifs.maps.factor_table

    def spy(maps):
        factors, table = factor_table(maps)
        sizes.append(len(factors))
        return factors, table

    monkeypatch.setattr(holoifs.maps, "factor_table", spy)
    g = ("G0.12", lambda: IfsSystem((Affine(0.4, 0.0), Affine(0.12, 0.88)), Disk(0.5, 2.0)))
    g2 = ("G0.12^2", lambda: iterate_system(g[1](), 2))
    text = _report(g, g2, 1e-3)
    assert b"\nverdict = Shared\n" in text and b"\nequation_count = 4096\n" in text
    assert max(sizes) <= 64
    assert hashlib.sha256(text).hexdigest() == (
        "00fd12d48255b38ef49773829153ce9fc0399e822a082ed088caa71e28a9ddd5")


@pytest.mark.parametrize(
    "make, max_len, digest",
    [
        (lambda: iterate_system(sqrt_julia(-6.0), 2), 8,
         "5c54f300cce67534e5ae3ba58cadc50b721635b235008e7984f6a712569996e1"),
        (lambda: sqrt_julia(-6.0), 10,
         "38d1da80079492d33fff25e91210ddcfc5cec8d813a03044dbf953e2d78e49b5"),
        # complex values, so these bits are numpy's complex arithmetic's
        (lambda: iterate_system(sqrt_julia(-6.0 + 0.5j), 2), 6,
         "3a26a6788ce7e2e5e47f4b9f350d43a01e6a47552e349b1e16203f8771d9aa43"),
    ],
    ids=["julia6-squared", "julia6", "julia-complex-squared"],
)
def test_spectrum_arrays_match_their_pins(make, max_len, digest):
    # the reports print only the matches, so the whole spectrum is pinned here
    spec = spectrum(make(), max_len)
    words = tuple(entry.word.indices for entry in spec.entries)
    data = repr(words).encode() + spec.points.tobytes() + spec.lambdas.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest
