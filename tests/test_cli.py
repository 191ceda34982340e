"""Black-box tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from holoifs import cli
from holoifs.attractor import compute_net, hausdorff
from holoifs.systems import cantor_thirds

THIRDS = {
    "label": "cantor-thirds",
    "maps": [
        {"kind": "affine", "alpha_re": 1 / 3, "alpha_im": 0, "b_re": 0, "b_im": 0},
        {"kind": "affine", "alpha_re": 1 / 3, "alpha_im": 0, "b_re": 2 / 3, "b_im": 0},
    ],
    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
}

REFLECTED = {
    "label": "cantor-thirds-reflected",
    "maps": [
        {"kind": "affine", "alpha_re": 1 / 3, "alpha_im": 0, "b_re": 0, "b_im": 0},
        {"kind": "affine", "alpha_re": -1 / 3, "alpha_im": 0, "b_re": 1.0, "b_im": 0},
    ],
    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
}

SHIFTED = {
    "maps": [
        {"kind": "affine", "alpha_re": 1 / 3, "alpha_im": 0, "b_re": 0, "b_im": 0},
        {"kind": "affine", "alpha_re": 1 / 3, "alpha_im": 0, "b_re": 0.5, "b_im": 0},
    ],
    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
}

HALVES = {
    "maps": [
        {"kind": "affine", "alpha_re": 0.5, "alpha_im": 0, "b_re": 0, "b_im": 0},
        {"kind": "affine", "alpha_re": 0.5, "alpha_im": 0, "b_re": 0.5, "b_im": 0},
    ],
    "domain": {"center_re": 0.5, "center_im": 0, "radius": 2.0},
}

#: the net refinement of this system meets a square-root branch cut
JULIA55 = {
    "maps": [
        {"kind": "sqrt_branch", "c_re": -5.5, "c_im": 0, "sign": 1},
        {"kind": "sqrt_branch", "c_re": -5.5, "c_im": 0, "sign": -1},
    ],
    "domain": {"center_re": 0, "center_im": 0, "radius": 5},
}

JULIA6 = {
    "label": "julia-minus-six",
    "maps": [
        {"kind": "sqrt_branch", "c_re": -6, "c_im": 0, "sign": 1},
        {"kind": "sqrt_branch", "c_re": -6, "c_im": 0, "sign": -1},
    ],
    "domain": {"center_re": 0, "center_im": 0, "radius": 3.2},
}


def _sqrt_julia(label, c):
    """The config of ``systems.sqrt_julia(c)``, on its default domain B(0, 5)."""
    return {
        "label": label,
        "maps": [
            {"kind": "sqrt_branch", "c_re": c.real, "c_im": c.imag, "sign": sign}
            for sign in (1, -1)
        ],
        "domain": {"center_re": 0, "center_im": 0, "radius": 5.0},
    }


@pytest.fixture()
def configs(tmp_path):
    paths = {}
    for name, payload in (
        ("thirds", THIRDS),
        ("reflected", REFLECTED),
        ("shifted", SHIFTED),
        ("halves", HALVES),
        ("julia6", JULIA6),
        ("julia55", JULIA55),
        ("sqrt-julia6", _sqrt_julia("sqrt-julia-6", -6.0 + 0j)),
        ("sqrt-julia-complex", _sqrt_julia("sqrt-julia-6+0.5i", -6.0 + 0.5j)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _cantor_distance(x: float) -> float:
    if x < 0.0:
        return -x
    if x > 1.0:
        return x - 1.0
    scale = 1.0
    t = x
    for _ in range(60):
        if t <= 1 / 3:
            t *= 3.0
        elif t >= 2 / 3:
            t = 3.0 * t - 2.0
        else:
            return scale * min(t - 1 / 3, 2 / 3 - t)
        scale /= 3.0
    return 0.0


# ---------------------------------------------------------------------------
# attractor command


def _read_csv(path):
    """The points of a CSV written by ``attractor --out-csv``."""
    xy = np.loadtxt(path, delimiter=",", ndmin=2)
    return xy[:, 0] + 1j * xy[:, 1]


def test_attractor_csv_is_real_cantor_subset(configs, tmp_path, capsys):
    out = tmp_path / "net.csv"
    code = cli.main(
        ["attractor", configs["thirds"], "--epsilon", "1e-3", "--out-csv", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "system = cantor-thirds" in stdout
    points = _read_csv(out)
    assert len(points) > 100
    assert np.max(np.abs(points.imag)) <= 1e-12
    assert np.min(points.real) >= -1e-3 and np.max(points.real) <= 1 + 1e-3
    assert max(_cantor_distance(x) for x in points.real) <= 1e-3


def test_attractor_csv_line_format(configs, tmp_path):
    out = tmp_path / "net.csv"
    assert cli.main(["attractor", configs["thirds"], "--out-csv", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    for line in lines:
        re_s, im_s = line.split(",")
        # every field is the canonical 15-significant-digit rendering
        assert re_s == f"{float(re_s):.15g}"
        assert im_s == f"{float(im_s):.15g}"


def test_attractor_outputs_deterministic(configs, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    args = ["attractor", configs["julia6"], "--epsilon", "2e-3"]
    assert cli.main(args + ["--out-csv", str(a), "--out-pgm", str(pa)]) == 0
    assert cli.main(args + ["--out-csv", str(b), "--out-pgm", str(pb)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert pa.read_bytes() == pb.read_bytes()


def test_attractor_csv_round_trip(configs, tmp_path):
    out = tmp_path / "net.csv"
    eps = 1e-3
    assert cli.main(
        ["attractor", configs["thirds"], "--epsilon", str(eps), "--out-csv", str(out)]
    ) == 0
    reingested = _read_csv(out)
    net = compute_net(cantor_thirds(), eps)
    assert len(reingested) == len(net.points)
    assert hausdorff(reingested, net.points) <= 1e-12


def test_round_trip_reproduces_shared_verdict(configs, tmp_path, capsys):
    csv_g = tmp_path / "g.csv"
    csv_f = tmp_path / "f.csv"
    eps = 1e-3
    for cfg, path in ((configs["thirds"], csv_g), (configs["shifted"], csv_f)):
        assert cli.main(
            ["attractor", cfg, "--epsilon", str(eps), "--out-csv", str(path)]
        ) == 0
    code = cli.main(["shared", configs["thirds"], configs["shifted"]])
    assert code == 1
    stdout = capsys.readouterr().out
    reported = float(
        next(l for l in stdout.splitlines() if l.startswith("hausdorff")).split("=")[1]
    )
    recomputed = hausdorff(_read_csv(csv_g), _read_csv(csv_f))
    assert abs(recomputed - reported) <= 1e-12
    # both sides of the decision threshold agree
    assert (recomputed > 2 * eps) == (reported > 2 * eps)


def test_attractor_pgm_format(configs, tmp_path):
    out = tmp_path / "net.pgm"
    assert cli.main(
        [
            "attractor",
            configs["thirds"],
            "--out-pgm",
            str(out),
            "--pixels",
            "256",
        ]
    ) == 0
    blob = out.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    width, height = (int(x) for x in dims.split())
    maxval, payload = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert width == 256
    assert len(payload) == width * height
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    assert set(np.unique(img)) <= {0, 255}
    assert np.any(img == 0)
    # 5% padding keeps the border rows clear of hits
    assert np.all(img[0] == 255)
    assert np.all(img[-1] == 255)
    assert np.all(img[:, 0] == 255)
    assert np.all(img[:, -1] == 255)


def _fresh_modules(args):
    """Exit code of ``cli.main(args)`` in a fresh interpreter, and the modules it loaded."""
    script = (
        "import json, sys\n"
        "from holoifs import cli\n"
        f"code = cli.main({args!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_no_command_loads_scipy(configs, tmp_path):
    # this test process has loaded scipy already, so each command runs in a new one
    for args in (
        ["attractor", configs["julia6"], "--epsilon", "1e-3",
         "--out-csv", str(tmp_path / "net.csv"), "--out-pgm", str(tmp_path / "net.pgm")],
        ["check", configs["thirds"], "--epsilon", "1e-2"],
        ["shared", configs["thirds"], configs["reflected"], "--epsilon", "1e-3"],
    ):
        code, modules = _fresh_modules(args)
        assert code == 0, args
        assert "numpy" in modules
        assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}, args


def test_attractor_budget_exit(configs, capsys):
    code = cli.main(
        ["attractor", configs["thirds"], "--epsilon", "1e-6", "--point-cap", "100"]
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config errors


def test_config_unknown_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "maps": [{"kind": "frobnicate"}],
                "domain": {"center_re": 0, "center_im": 0, "radius": 1},
            }
        ),
        encoding="utf-8",
    )
    assert cli.main(["attractor", str(path)]) == 2
    err = capsys.readouterr().err
    assert "kind" in err and "frobnicate" in err


def test_config_missing_field_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(json.dumps(THIRDS))
    del payload["maps"][0]["b_im"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    assert "b_im" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, key",
    [(None, "lable"), (None, "map_labels"), ("domain", "centre_re"), (0, "alpha"), (1, "sign")],
)
def test_config_unknown_field_named(tmp_path, capsys, where, key):
    # a misspelt optional key would otherwise be dropped: "lable" left the
    # label at the file stem
    path = tmp_path / "typo.json"
    payload = json.loads(json.dumps(THIRDS))
    record = payload if where is None else (
        payload["domain"] if where == "domain" else payload["maps"][where])
    record[key] = ["a", "b"] if key == "map_labels" else 1.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f".{key}: unknown field" in err


@pytest.mark.parametrize("label", ["thirds\nverdict = NotShared", "thirds\r", "a\u2028b", "thirds\n"])
def test_config_label_with_a_line_break_is_refused(tmp_path, capsys, label):
    # a line break in the label would forge report lines: "verdict = NotShared"
    # printed above the real verdict
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**THIRDS, "label": label}), encoding="utf-8")
    assert cli.main(["shared", str(path), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}.label: expected one line, got {label!r}\n"


@pytest.mark.parametrize("command", ["check", "attractor", "spectrum"])
def test_config_file_stem_with_a_line_break_is_refused(tmp_path, capsys, command):
    # with no "label" key the label would be the file stem; the path is
    # refused first, so the error that names it is one line, not a forged
    # "valid = true.json..." line under it
    payload = {key: value for key, value in THIRDS.items() if key != "label"}
    for stem in ["thirds\nvalid = true", "thirds\r", "a\u2028b"]:
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {str(path)!r}: a config path must be one line\n"
        assert len(err.splitlines()) == 1


def test_config_invalid_json_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}", encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_config_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1


def test_config_missing_file(capsys):
    assert cli.main(["attractor", "/nonexistent/system.json"]) == 2
    assert "No such file" in capsys.readouterr().err


def test_config_expanding_map_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(json.dumps(THIRDS))
    payload["maps"][0]["alpha_re"] = 2.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    assert "domain" in capsys.readouterr().err


def test_config_negative_radius(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(json.dumps(THIRDS))
    payload["domain"]["radius"] = -1.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    assert "radius" in capsys.readouterr().err


def test_config_constant_map_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(json.dumps(THIRDS))
    payload["maps"][0]["alpha_re"] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["check", str(path), "--osc-disks", "0.5,0,0.6"]) == 2
    assert "derivative vanishes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attractor", "shared"])
@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
def test_epsilon_must_be_finite_positive(configs, capsys, command, value):
    systems = [configs["thirds"]] * (1 if command == "attractor" else 2)
    assert cli.main([command, *systems, f"--epsilon={value}"]) == 2
    assert "--epsilon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--spectrum-tol", "0"), ("--spectrum-tol", "nan"), ("--spectrum-tol", "-1"),
     ("--spectrum-tol", "1e-320"), ("--func-tol", "nan"), ("--func-tol", "inf")],
)
def test_tolerance_must_be_finite_positive(configs, capsys, flag, value):
    assert cli.main(["shared", configs["thirds"], configs["thirds"], f"{flag}={value}"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("shared", "--eq-samples", "0"),
        ("shared", "--prep-max-word", "0"),
        ("shared", "--l-max", "0"),
        ("shared", "--spectrum-source-len", "0"),
        ("shared", "--spectrum-target-len", "-1"),
        ("shared", "--point-cap", "0"),
        ("spectrum", "--max-len", "-2"),
        ("attractor", "--pixels", "0"),
        ("attractor", "--pixels", "-5"),
        ("attractor", "--point-cap", "1.5"),
        ("roots", "--l", "0"),
    ],
)
def test_count_must_be_positive_integer(configs, capsys, command, flag, value):
    if command == "roots":
        args = ["roots", "--lambda", "0.5"]
    else:
        args = [command, *[configs["thirds"]] * (2 if command == "shared" else 1)]
    assert cli.main([*args, f"{flag}={value}"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "base,field,literal",
    [
        (THIRDS, "alpha_re", "NaN"),
        (THIRDS, "b_im", "1" + "0" * 400),
        (JULIA6, "c_re", "Infinity"),
    ],
)
def test_config_non_finite_number_named(tmp_path, capsys, base, field, literal):
    path = tmp_path / "bad.json"
    payload = json.loads(json.dumps(base))
    payload["maps"][0][field] = "@"
    path.write_text(json.dumps(payload).replace('"@"', literal), encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"maps[0].{field}" in err and "finite" in err


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--report", ["shared", "{thirds}", "{thirds}", "--report"]),
        ("--out-csv", ["attractor", "{thirds}", "--out-csv"]),
        ("--out-pgm", ["attractor", "{thirds}", "--out-pgm"]),
    ],
    ids=["report", "out-csv", "out-pgm"],
)
def test_unwritable_output_file_is_a_configuration_error(configs, tmp_path, capsys, flag, argv):
    # exit 1 would read as NotShared; an unwritable file is a usage error
    target = tmp_path / "missing" / "out"
    assert cli.main([a.format(**configs) for a in argv] + [str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag}: [Errno 2] No such file or directory")
    assert err.count("\n") == 1


def test_an_oversized_raster_is_a_configuration_error(configs, tmp_path, capsys, monkeypatch):
    # a width of 10**7 pixels asks for an 8.27 TiB raster; numpy's refusal is
    # planted, so no allocation is attempted
    full, asked = np.full, []

    def refuse_rasters(shape, fill_value, dtype=None):
        if dtype is not np.uint8:
            return full(shape, fill_value, dtype=dtype)
        asked.append(shape)
        raise MemoryError(f"Unable to allocate 8.27 TiB for an array with shape {shape}")

    monkeypatch.setattr(np, "full", refuse_rasters)
    target = tmp_path / "x.pgm"
    argv = ["attractor", configs["thirds"], "--epsilon", "1e-2", "--out-pgm", str(target),
            "--pixels", "10000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert asked == [(909091, 10000000)]
    assert out == ""
    assert err == ("error: --pixels: Unable to allocate 8.27 TiB for an array with shape "
                   "(909091, 10000000)\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, warning",
    [
        (["attractor", "{thirds}", "--epsilon", "100"],
         "net has fewer than 2 points; the attractor is degenerate"),
        (["roots", "--lambda", "0.95", "--l", "2"],
         "multiplier close to 1; linearization coefficients may be ill-conditioned"),
    ],
    ids=["one-point-net", "multiplier-near-one"],
)
def test_a_library_warning_is_one_line(configs, capsys, argv, warning):
    # no source path and no code line; stdout and the exit code are those of
    # a run that ignores the warning
    argv = [a.format(**configs) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    quiet = capsys.readouterr().out
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == f"warning: {warning}\n"
    assert out == quiet and out


# ---------------------------------------------------------------------------
# check command


def test_check_ssc_valid(configs, capsys):
    assert cli.main(["check", configs["thirds"]]) == 0
    out = capsys.readouterr().out
    assert "kind = SSC" in out
    assert "valid = true" in out


def test_check_ssc_invalid(configs, capsys):
    assert cli.main(["check", configs["halves"]]) == 1
    assert "valid = false" in capsys.readouterr().out


def test_check_osc_disks(configs, capsys):
    disks = "0.16666666,0,0.17677;0.83333333,0,0.17677"
    assert cli.main(["check", configs["thirds"], "--osc-disks", disks]) == 0
    assert "kind = StrongOSC" in capsys.readouterr().out


def test_check_osc_disks_malformed(configs, capsys):
    assert cli.main(["check", configs["thirds"], "--osc-disks", "0,0"]) == 2
    assert "osc-disks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "disks, named",
    [
        ("0.5,0,nan", "--osc-disks[0]"),
        ("0.5,0,inf", "--osc-disks[0]"),
        ("nan,0,1", "--osc-disks[0]"),
        ("0.5,0,1;0.5,inf,1", "--osc-disks[1]"),
    ],
)
def test_check_osc_disks_non_finite(configs, capsys, disks, named):
    assert cli.main(["check", configs["thirds"], "--osc-disks", disks]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: expected finite numbers")


@pytest.mark.parametrize("name", ["thirds", "julia6"])
def test_check_osc_disk_with_a_degenerate_image_exits_2(configs, capsys, name):
    # the enclosure radius of a subnormal disk underflows to 0, and the
    # certificate refuses it with the ValueError of Disk
    assert cli.main(["check", configs[name], "--osc-disks", "0.5,0,5e-324"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --osc-disks: disk radius must be positive\n"


# ---------------------------------------------------------------------------
# spectrum command


def test_spectrum_output(configs, capsys):
    assert cli.main(["spectrum", configs["thirds"], "--max-len", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "system = cantor-thirds"
    assert lines[1] == "max_word_length = 2"
    data = lines[2:]
    assert len(data) == 5
    words = [row.split()[0] for row in data]
    assert words == ["(0)", "(1)", "(0,0)", "(0,1)", "(1,1)"]
    mults = {complex(row.split()[2]) for row in data}
    assert any(abs(m - 1 / 3) < 1e-12 for m in mults)
    assert any(abs(m - 1 / 9) < 1e-12 for m in mults)


@pytest.mark.parametrize(
    "name, digest",
    [
        ("thirds", "6f40df594965aa08c3107112af2f4b1303fac079a0947e69fb81183494a9de29"),
        ("reflected", "7246fd1efdee58f1f2330a5a72a06aa0854c13a453d3386a33e9b3f224a22b2d"),
        ("sqrt-julia6", "9761a28c4d71e907afdbda726c0eced82861a121ce9fbfea7a6e8e34ee371b66"),
        # complex values, so these bits are numpy's complex arithmetic's
        ("sqrt-julia-complex", "103c03849e52fd36333846dc3e1589ea8da8ad9797d6dbf6289598483f94f16f"),
    ],
    ids=["thirds", "reflected", "sqrt-julia6", "sqrt-julia-complex"],
)
def test_spectrum_output_bytes_match_their_pins(configs, capsys, name, digest):
    # every entry's word, point and multiplier, as the command prints them
    assert cli.main(["spectrum", configs[name], "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 2 + 15  # the header and one line per necklace of 1..4 letters
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_spectrum_deterministic(configs, capsys):
    assert cli.main(["spectrum", configs["julia6"], "--max-len", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["spectrum", configs["julia6"], "--max-len", "3"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# shared command


def test_shared_verdict_shared(configs, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = cli.main(
        ["shared", configs["thirds"], configs["reflected"], "--report", str(report)]
    )
    assert code == 0
    text = report.read_text(encoding="utf-8")
    assert capsys.readouterr().out == text
    lines = text.splitlines()
    assert lines[0] == cli.REPORT_HEADER
    fields = dict(
        line.split(" = ", 1) for line in lines[1:] if " = " in line
    )
    assert fields["verdict"] == "Shared"
    assert float(fields["hausdorff"]) <= 2e-3
    assert fields["ssc_both"] == "true"
    assert int(fields["equation_count"]) > 0
    oks = [v for k, v in fields.items() if k.endswith("_ok")]
    assert oks and all(v == "true" for v in oks)
    residuals = [float(v) for k, v in fields.items() if k.endswith("_residual")]
    assert max(residuals) <= 1e-9


def test_shared_verdict_not_shared(configs, capsys):
    assert cli.main(["shared", configs["thirds"], configs["shifted"]]) == 1
    out = capsys.readouterr().out
    assert "verdict = NotShared" in out


def test_shared_verdict_inconclusive(configs, capsys):
    assert cli.main(["shared", configs["halves"], configs["halves"]]) == 4
    assert "verdict = Inconclusive" in capsys.readouterr().out


def test_shared_error_is_inconclusive(configs, capsys):
    # a failed computation is no evidence against a shared attractor: it is
    # an Inconclusive report, with no net distance, naming the exception
    assert cli.main(["shared", configs["julia55"], configs["julia55"]]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == cli.REPORT_HEADER
    assert "verdict = Inconclusive" in lines
    assert "hausdorff = nan" in lines and "ssc_both = false" in lines
    assert lines[-1] == "notes = DomainError: disk meets a square-root branch cut"


def test_shared_prep_budget_exit(configs, capsys):
    args = ["shared", configs["thirds"], configs["thirds"], "--prep-max-word", "30"]
    assert cli.main(args) == 3
    assert "budget" in capsys.readouterr().err


def test_shared_report_deterministic(configs, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["shared", configs["thirds"], configs["reflected"]]
    assert cli.main(args + ["--report", str(a)]) == 0
    assert cli.main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# roots command


def test_roots_half_multiplier(capsys):
    assert cli.main(["roots", "--lambda", "0.5", "--coeffs", "1", "--l", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "l = 2"
    assert lines[1] == "roots = 2"
    leads = []
    residuals = []
    for line in lines[2:]:
        key, value = line.split(" = ", 1)
        if key.endswith("_residual"):
            residuals.append(float(value))
        else:
            leads.append(complex(value.split()[0]))
    assert sorted(c.real for c in leads) == pytest.approx(
        [-np.sqrt(0.5), np.sqrt(0.5)], abs=1e-12
    )
    assert max(residuals) <= 1e-8


def test_roots_count_matches_order(capsys):
    assert cli.main(["roots", "--lambda", "0.25,0.1", "--l", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "roots = 3"


def test_roots_invalid_multiplier(capsys):
    assert cli.main(["roots", "--lambda", "1.5", "--l", "2"]) == 2
    assert "lambda" in capsys.readouterr().err


def test_roots_bad_coefficient(capsys):
    assert cli.main(["roots", "--lambda", "0.5", "--coeffs", "x", "--l", "2"]) == 2
    assert "coeffs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coeffs, named", [("inf", "--coeffs[0]"), ("1,nan", "--coeffs[1]"), ("1,-inf", "--coeffs[1]")]
)
def test_roots_non_finite_coefficient(capsys, coeffs, named):
    assert cli.main(["roots", "--lambda", "0.5", "--coeffs", coeffs, "--l", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}: expected a finite number")


def test_roots_nan_residual_fails(capsys):
    # finite coefficients whose Koenigs series overflows; no numpy warning
    # may escape before the error line
    args = ["roots", "--lambda", "0.5", "--coeffs", "1e308,1e308", "--l", "2"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Koenigs coefficient of degree 2 is not finite\n"
    assert "root_0 =" not in captured.out


# ---------------------------------------------------------------------------
# symmetry command


def test_symmetry_reflection(configs, capsys):
    code = cli.main(
        [
            "symmetry",
            configs["reflected"],
            configs["thirds"],
            "--point",
            "0",
            "--word",
            "1",
        ]
    )
    assert code == 0
    fields = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert fields["word_f"] == "(1)"
    assert complex(fields["derivative"]) == pytest.approx(-1.0, abs=1e-12)
    assert fields["passed"] == "true"
    assert float(fields["forward_residual"]) <= 2e-3


def test_symmetry_word_out_of_range(configs, capsys):
    code = cli.main(
        [
            "symmetry",
            configs["reflected"],
            configs["thirds"],
            "--point",
            "0",
            "--word",
            "7",
        ]
    )
    assert code == 2
    assert "indices" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan", "inf", "0.5,nan"])
def test_symmetry_point_non_finite(configs, capsys, point):
    args = ["symmetry", configs["thirds"], configs["thirds"], "--point", point, "--word", "0"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: --point: expected a finite number")


def test_symmetry_point_off_attractor(configs, capsys):
    code = cli.main(
        [
            "symmetry",
            configs["thirds"],
            configs["shifted"],
            "--point",
            "1",
            "--word",
            "1",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("point", ["1e300", "1.7e308,1.7e308"])
def test_symmetry_huge_point_prints_one_error_line(configs, point):
    # a point far outside every image gets a distance of at least the claim
    # radius, or inf, with no numpy warning before the error
    args = ["symmetry", configs["thirds"], configs["thirds"], "--point", point, "--word", "0"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "holoifs.cli", *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_stdout_closed_by_its_reader_ends_quietly(configs):
    # the spectrum to length 14 is about 191 KB, more than a pipe holds, so
    # the writer is still printing when the reader closes the pipe, as
    # `holoifs spectrum ... | head -1` does
    args = ["spectrum", configs["thirds"], "--max-len", "14"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "holoifs.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert first == "system = cantor-thirds\n"
    assert err == ""


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_shared_on_a_pair_scaled_past_overflowing_squares_is_never_not_shared(tmp_path, capsys, s):
    def affine(alpha, b):
        return {"kind": "affine", "alpha_re": alpha, "alpha_im": 0, "b_re": b, "b_im": 0}

    domain = {"center_re": s / 2, "center_im": 0, "radius": 2 * s}
    paths = []
    for name, maps in (("g", [affine(1 / 3, 0), affine(1 / 3, 2 * s / 3)]),
                       ("f", [affine(1 / 3, 0), affine(-1 / 3, s)])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"maps": maps, "domain": domain}), encoding="utf-8")
        paths.append(str(path))
    code = cli.main(["shared", *paths, "--epsilon", repr(s / 1000)])
    out, err = capsys.readouterr()
    assert code != 1 and err == ""
    verdicts = [line for line in out.splitlines() if line.startswith("verdict = ")]
    assert len(verdicts) == 1 and verdicts[0] != "verdict = NotShared"
