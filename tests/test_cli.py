"""Black-box tests of the command-line interface."""

from __future__ import annotations

import json

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

JULIA6 = {
    "label": "julia-minus-six",
    "maps": [
        {"kind": "sqrt_branch", "c_re": -6, "c_im": 0, "sign": 1},
        {"kind": "sqrt_branch", "c_re": -6, "c_im": 0, "sign": -1},
    ],
    "domain": {"center_re": 0, "center_im": 0, "radius": 3.2},
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


def test_attractor_csv_is_real_cantor_subset(configs, tmp_path, capsys):
    out = tmp_path / "net.csv"
    code = cli.main(
        ["attractor", configs["thirds"], "--epsilon", "1e-3", "--out-csv", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "system = cantor-thirds" in stdout
    points = cli.read_csv(str(out))
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
    reingested = cli.read_csv(str(out))
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
    recomputed = hausdorff(cli.read_csv(str(csv_g)), cli.read_csv(str(csv_f)))
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


def test_config_invalid_json_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}", encoding="utf-8")
    assert cli.main(["attractor", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


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
     ("--func-tol", "nan"), ("--func-tol", "inf")],
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
