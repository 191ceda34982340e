"""Seeded workload inputs, the operations the benchmark times, and their checks.

Every workload is written out as system config JSON (the grammar of
``holoifs.cli.load_system``); the library and the CLI only ever see those
files.  Seed 0 is the canonical input.  Other seeds change the input in a way
that keeps the work the same:

* ``cantor-fine`` conjugates both systems and the domain by a random isometry
  ``z -> u*z + t`` (``|u| = 1``), which keeps the maps affine and every report
  count unchanged;
* ``net-nonuniform`` translates the system and the domain by a random ``t``
  with both parts in ``[0, 1]``.  A rotation would change the work: the
  grid deduplication of the 8.4M cylinder centres sorts their cell keys, and
  that sort takes two to three times longer once the imaginary keys vary or
  the real keys turn negative;
* ``julia-square`` draws a real ``c`` in ``[-7, -6]`` (at ``c = -5.5`` the net
  refinement meets the square-root branch cut, so the range stops at -6).

The checks are strict at seed 0 (sha256 of the report and CSV bytes, pinned
at the commit that defined the benchmark) and structural at other seeds.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cantor-fine", "julia-square", "net-nonuniform")

CANTOR_EPS = 1e-5
JULIA_EPS = 1e-3
NET_EPS = 1e-6
PGM_PIXELS = 512
CLI_TIMEOUT_S = 170.0

#: sha256 of the canonical (seed 0) report or CSV bytes; ``.cli`` keys are for
#: CLI calls that decide another input than the in-process operation
PINNED = {
    "cantor-fine": "6e9f7fa5dcf02954a23cff77524a6632a28b954a5fc30a78ffed0f259e430295",
    "julia-square": "3a8c0f6563d319b345eb7e35dfab5e142e03546954b34a4fffea361e93c47d71",
    "julia-square.cli": "eff3fa5492cad104098ec7eda50bce0fbf2bd118fb2e8a9cdd514c86a3dd1900",
    "net-nonuniform": "879bc744a75a6b1e6881f7404cc5ad4ac281ec0c0ec33abefb9d7cb02394e640",
}

#: report fields that every seed must reproduce
EXPECTED_REPORT = {
    "cantor-fine": {
        "verdict": "Shared",
        "prep_forward_pass": "22",
        "prep_forward_fail": "0",
        "prep_backward_pass": "22",
        "prep_backward_fail": "0",
        "equation_count": "32",
    },
    "julia-square": {
        "verdict": "Shared",
        "prep_forward_pass": "22",
        "prep_forward_fail": "0",
        "prep_backward_pass": "316",
        "prep_backward_fail": "0",
        "equation_count": "256",
    },
    # the CLI grammar has no composite maps, so the julia-square CLI call
    # compares G with itself
    "julia-square.cli": {
        "verdict": "Shared",
        "prep_forward_pass": "22",
        "prep_forward_fail": "0",
        "prep_backward_pass": "22",
        "prep_backward_fail": "0",
        "equation_count": "64",
    },
}

NET_DEPTH = 23
NET_POINTS = 1864


class CheckFailed(Exception):
    """An operation returned output that the benchmark does not accept."""


# ---------------------------------------------------------------------------
# inputs


def _affine(alpha: complex, b: complex) -> dict:
    return {
        "kind": "affine",
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "b_re": b.real,
        "b_im": b.imag,
    }


def _config(label: str, maps: list[dict], center: complex, radius: float) -> dict:
    return {
        "label": label,
        "maps": maps,
        "domain": {"center_re": center.real, "center_im": center.imag, "radius": radius},
    }


def _isometry(rng: random.Random, seed: int, rotate: bool) -> tuple[complex, complex]:
    """``(u, t)`` of ``z -> u*z + t``; the identity at seed 0."""
    if seed == 0:
        return 1 + 0j, 0j
    if rotate:
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return u, complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return 1 + 0j, complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))


def _conjugate(label: str, maps: list[tuple[complex, complex]], center: complex,
               radius: float, u: complex, t: complex) -> dict:
    # phi(g(phi^-1(w))) = alpha*w + u*b + t*(1 - alpha) for phi(z) = u*z + t
    return _config(
        label,
        [_affine(alpha, u * b + t * (1 - alpha)) for alpha, b in maps],
        u * center + t,
        radius,
    )


@dataclass
class Inputs:
    """Config files of one workload at one seed, plus how to use them."""

    workload: str
    seed: int
    workdir: Path
    configs: list[Path]
    cli_args: list[str]
    #: the translation of the net workload, which its check undoes
    shift: complex = 0j
    #: whether the CLI call decides the same pair as the in-process operation
    cli_is_op: bool = True


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's configs for ``seed`` into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cantor-fine":
        u, t = _isometry(rng, seed, rotate=True)
        g = _conjugate("cantor-thirds", [(1 / 3, 0), (1 / 3, 2 / 3)], 0.5, 2.0, u, t)
        f = _conjugate("cantor-thirds-reflected", [(1 / 3, 0), (-1 / 3, 1.0)],
                       0.5, 2.0, u, t)
        paths = _write(workdir, {"g.json": g, "f.json": f})
        cli = ["shared", str(paths[0]), str(paths[1]), "--epsilon", repr(CANTOR_EPS),
               "--report", str(workdir / "cli_report.txt")]
        return Inputs(workload, seed, workdir, paths, cli)
    if workload == "julia-square":
        c = -6.0 if seed == 0 else rng.uniform(-7.0, -6.0)
        g = _config("sqrt-julia", [
            {"kind": "sqrt_branch", "c_re": c, "c_im": 0.0, "sign": 1},
            {"kind": "sqrt_branch", "c_re": c, "c_im": 0.0, "sign": -1},
        ], 0j, 5.0)
        paths = _write(workdir, {"g.json": g})
        cli = ["shared", str(paths[0]), str(paths[0]), "--epsilon", repr(JULIA_EPS),
               "--report", str(workdir / "cli_report.txt")]
        return Inputs(workload, seed, workdir, paths, cli, cli_is_op=False)
    if workload == "net-nonuniform":
        u, t = _isometry(rng, seed, rotate=False)
        g = _conjugate("nonuniform", [(0.5, 0), (0.05, 0.95)], 0.5, 2.0, u, t)
        paths = _write(workdir, {"g.json": g})
        cli = ["attractor", str(paths[0]), "--epsilon", repr(NET_EPS),
               "--out-csv", str(workdir / "cli_net.csv"),
               "--out-pgm", str(workdir / "cli_net.pgm"),
               "--pixels", str(PGM_PIXELS)]
        return Inputs(workload, seed, workdir, paths, cli, shift=t)
    raise ValueError(f"unknown workload {workload!r}")


def _write(workdir: Path, files: dict) -> list[Path]:
    paths = []
    for name, data in files.items():
        path = workdir / name
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def load(inputs: Inputs) -> list:
    """Library objects for ``inputs``, built through ``holoifs.cli.load_system``."""
    import holoifs.cli
    from holoifs.systems import iterate_system

    systems = [holoifs.cli.load_system(str(p)) for p in inputs.configs]
    if inputs.workload == "julia-square":
        g, label = systems[0]
        systems.append((iterate_system(g, 2), label + "^2"))
    return systems


# ---------------------------------------------------------------------------
# operations


def run_op(inputs: Inputs, systems: list):
    """One in-process operation, as a library user would make it."""
    import holoifs.attractor
    import holoifs.cli
    import holoifs.symmetry

    if inputs.workload == "net-nonuniform":
        system, _ = systems[0]
        csv, pgm = inputs.workdir / "op_net.csv", inputs.workdir / "op_net.pgm"
        net = holoifs.attractor.compute_net(system, NET_EPS)
        holoifs.cli.write_csv(str(csv), net.points)
        holoifs.cli.write_pgm(str(pgm), net.points, PGM_PIXELS)
        return net
    (g, _), (f, _) = systems
    eps = CANTOR_EPS if inputs.workload == "cantor-fine" else JULIA_EPS
    return holoifs.symmetry.shared_attractor(g, f, eps)


def check_op(inputs: Inputs, systems: list, result) -> bytes:
    """Raise :class:`CheckFailed` unless ``result`` is right; return its bytes."""
    import holoifs.cli

    if inputs.workload == "net-nonuniform":
        data = (inputs.workdir / "op_net.csv").read_bytes()
        _check_net(inputs, result.depth, data)
        _check_pgm((inputs.workdir / "op_net.pgm").read_bytes())
        return data
    (_, label_g), (_, label_f) = systems
    eps = CANTOR_EPS if inputs.workload == "cantor-fine" else JULIA_EPS
    text = holoifs.cli.shared_report_text(result, eps, label_g, label_f).encode("utf-8")
    _check_report(inputs, inputs.workload, text)
    return text


def run_cli(inputs: Inputs, root: Path, env: dict, op_bytes: bytes | None) -> None:
    """One fresh-process CLI call; raises CheckFailed unless it is right.

    ``op_bytes`` are the bytes the in-process operation produced, or None;
    when the CLI decides the same input, its output must match them exactly.
    """
    cmd = [sys.executable, "-m", "holoifs.cli", *inputs.cli_args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed("CLI call timed out") from None
    out = proc.stdout
    if proc.returncode != 0:
        raise CheckFailed(f"CLI exit code {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace').strip()}")
    workdir = inputs.workdir
    if inputs.workload == "net-nonuniform":
        data = (workdir / "cli_net.csv").read_bytes()
        fields = _parse_fields(out.decode("utf-8"))
        if fields.get("points") != str(data.count(b"\n")) or fields.get("depth") != str(NET_DEPTH):
            raise CheckFailed(f"CLI summary {fields} disagrees with its CSV")
        _check_net(inputs, NET_DEPTH, data)
        _check_pgm((workdir / "cli_net.pgm").read_bytes())
    else:
        data = (workdir / "cli_report.txt").read_bytes()
        if out != data:
            raise CheckFailed("CLI stdout differs from its --report file")
        key = inputs.workload if inputs.cli_is_op else f"{inputs.workload}.cli"
        _check_report(inputs, key, data)
    if inputs.cli_is_op and op_bytes is not None and data != op_bytes:
        raise CheckFailed("CLI output bytes differ from the in-process output")


# ---------------------------------------------------------------------------
# checks


def _parse_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def _check_pinned(inputs: Inputs, key: str, data: bytes) -> None:
    if inputs.seed == 0:
        digest = hashlib.sha256(data).hexdigest()
        if digest != PINNED[key]:
            raise CheckFailed(f"{key}: sha256 {digest} differs from the pinned value")


def _check_report(inputs: Inputs, key: str, data: bytes) -> None:
    fields = _parse_fields(data.decode("utf-8"))
    for field_name, want in EXPECTED_REPORT[key].items():
        if fields.get(field_name) != want:
            raise CheckFailed(f"report {field_name} = {fields.get(field_name)!r}, expected {want!r}")
    _check_pinned(inputs, key, data)


def _check_net(inputs: Inputs, depth: int, csv: bytes) -> None:
    """Depth and size of the net, and every point near the translated [0, 1]."""
    if depth != NET_DEPTH:
        raise CheckFailed(f"net depth {depth}, expected {NET_DEPTH}")
    lines = csv.decode("ascii").splitlines()
    # grid deduplication depends on where the cell boundaries fall, so a
    # translated net keeps its size only approximately
    if not abs(len(lines) - NET_POINTS) <= 0.05 * NET_POINTS:
        raise CheckFailed(f"net has {len(lines)} points, expected about {NET_POINTS}")
    for line in lines:
        re_s, im_s = line.split(",")
        z = complex(float(re_s), float(im_s)) - inputs.shift
        if abs(z.imag) > NET_EPS or not -NET_EPS <= z.real <= 1.0 + NET_EPS:
            raise CheckFailed(f"net point {line} is not near the attractor")
    _check_pinned(inputs, "net-nonuniform", csv)


def _check_pgm(data: bytes) -> None:
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P5" or head[2] != b"255":
        raise CheckFailed("PGM header malformed")
    width, height = (int(v) for v in head[1].split())
    if width != PGM_PIXELS or len(head[3]) != width * height or 0 not in head[3]:
        raise CheckFailed("PGM raster malformed")
