"""Command-line interface: config ingestion, subcommands, and file outputs.

Subcommands
-----------
``attractor``
    Compute an epsilon-net and write it as a CSV point cloud and/or a binary
    PGM raster.
``check``
    Certify strong separation (or the strong open-set condition when disks
    are supplied) and exit 0/1 accordingly.
``spectrum``
    Print the multiplier spectrum up to a word length.
``shared``
    Decide whether two systems share an attractor and write a flat
    ``key = value`` report.
``roots``
    Compute functional roots ``g^l = R`` of a power-series germ.
``symmetry``
    Build and verify a local symmetry germ between two systems.

Exit codes: 0 pass/Shared, 1 fail/NotShared, 2 configuration error (an
unwritable output file or a raster too large for memory too), 3 budget
exceeded, 4 inconclusive.  Any other library error exits 1, except under
``shared``, where it leaves the verdict open and exits 4.  Errors and library
warnings are one line each on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .attractor import POINT_CAP, certify_ssc, certify_strong_osc, compute_net
from .dynamics import spectrum
from .errors import (
    BudgetExceeded,
    ConfigError,
    HoloifsError,
    InvalidMultiplier,
)
from .koenigs import ORDER, PowerSeriesGerm, composition_residual, functional_roots
from .maps import Affine, Disk, HoloMap, IfsSystem, SqrtBranch, Word
from .symmetry import Budgets, SystemNet, build_symmetry, shared_attractor, verify_symmetry

REPORT_HEADER = "# holoifs shared-attractor report v1"

#: the fields of each map kind; a config names no other
_MAP_FIELDS = {
    "affine": ("kind", "alpha_re", "alpha_im", "b_re", "b_im"),
    "sqrt_branch": ("kind", "c_re", "c_im", "sign"),
}
_MAP_KINDS = tuple(_MAP_FIELDS)


# ---------------------------------------------------------------------------
# configuration parsing


def _require(record: dict, where: str, field: str):
    if field not in record:
        raise ConfigError(f"{where}.{field}: missing required field")
    return record[field]


def _only(record: dict, where: str, fields: tuple[str, ...]) -> None:
    """Refuse a field the grammar does not define, so a misspelt one is not dropped."""
    for field in record:
        if field not in fields:
            raise ConfigError(f"{where}.{field}: unknown field (expected one of {fields})")


def _number(record: dict, where: str, field: str) -> float:
    value = _require(record, where, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{where}.{field}: expected a number, got {type(value).__name__}"
        )
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{field}: expected a finite number, got {number}")
    return number


def _parse_map(record, where: str) -> HoloMap:
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object, got {type(record).__name__}")
    kind = _require(record, where, "kind")
    if kind in _MAP_KINDS:  # a tuple: an unhashable kind is refused below, not raised here
        _only(record, where, _MAP_FIELDS[kind])
    if kind == "affine":
        alpha = complex(
            _number(record, where, "alpha_re"), _number(record, where, "alpha_im")
        )
        b = complex(_number(record, where, "b_re"), _number(record, where, "b_im"))
        return Affine(alpha, b)
    if kind == "sqrt_branch":
        c = complex(_number(record, where, "c_re"), _number(record, where, "c_im"))
        sign = _number(record, where, "sign")
        if sign not in (-1.0, 1.0):
            raise ConfigError(f"{where}.sign: expected +1 or -1, got {sign:g}")
        return SqrtBranch(c, int(sign))
    raise ConfigError(
        f"{where}.kind: unknown kind {kind!r} (expected one of {_MAP_KINDS})"
    )


def load_system(path: str) -> tuple[IfsSystem, str]:
    """Parse a system config file; returns the system and its display label."""
    if path.splitlines() not in ([], [path]):  # every error below names the path
        raise ConfigError(f"{path!r}: a config path must be one line")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # unreadable, or nested too deeply
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _only(data, path, ("label", "maps", "domain"))

    maps_field = _require(data, path, "maps")
    if not isinstance(maps_field, list) or not maps_field:
        raise ConfigError(f"{path}.maps: expected a non-empty list")
    maps = [
        _parse_map(rec, f"{path}.maps[{k}]") for k, rec in enumerate(maps_field)
    ]

    domain_field = _require(data, path, "domain")
    if not isinstance(domain_field, dict):
        raise ConfigError(f"{path}.domain: expected an object")
    where = f"{path}.domain"
    _only(domain_field, where, ("center_re", "center_im", "radius"))
    center = complex(
        _number(domain_field, where, "center_re"),
        _number(domain_field, where, "center_im"),
    )
    radius = _number(domain_field, where, "radius")
    if radius <= 0:
        raise ConfigError(f"{where}.radius: must be positive, got {radius:g}")

    label = data.get("label", Path(path).stem)
    if not isinstance(label, str):
        raise ConfigError(f"{path}.label: expected a string")
    if label.splitlines() not in ([], [label]):  # a line break would forge report lines
        raise ConfigError(f"{path}.label: expected one line, got {label!r}")

    try:
        system = IfsSystem(tuple(maps), Disk(center, radius))
    except (ValueError, HoloifsError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return system, label


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    value = None
    try:
        if len(parts) == 1:
            value = complex(parts[0].strip())
        elif len(parts) == 2:
            value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    if value is None:
        raise ConfigError(f"{what}: expected 're' or 're,im', got {text!r}")
    if not cmath.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


def _parse_word(text: str, alphabet: int, what: str) -> Word:
    items = [s for s in text.split(",") if s.strip() != ""]
    if not items:
        raise ConfigError(f"{what}: expected a comma-separated list of map indices")
    try:
        indices = tuple(int(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if any(i < 0 or i >= alphabet for i in indices):
        raise ConfigError(
            f"{what}: indices must lie in 0..{alphabet - 1}, got {indices}"
        )
    return Word(indices, alphabet)


def _finite_positive(text: str) -> float:
    """argparse type for resolutions and tolerances: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts, lengths and budgets: an integer above zero."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_disks(text: str) -> tuple[Disk, ...]:
    disks = []
    for k, chunk in enumerate(text.split(";")):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ConfigError(
                f"--osc-disks[{k}]: expected 'center_re,center_im,radius'"
            )
        try:
            cx, cy, r = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"--osc-disks[{k}]: {exc}") from exc
        if not all(math.isfinite(v) for v in (cx, cy, r)):
            raise ConfigError(f"--osc-disks[{k}]: expected finite numbers, got {chunk!r}")
        if r <= 0:
            raise ConfigError(f"--osc-disks[{k}]: radius must be positive")
        disks.append(Disk(complex(cx, cy), r))
    return tuple(disks)


# ---------------------------------------------------------------------------
# output formatting


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _fmt_word(word: Word | None) -> str:
    if word is None:
        return "-"
    return "(" + ",".join(str(i) for i in word.indices) + ")"


def _write(flag: str, write, *args) -> None:
    """``write(*args)``, an unwritable output file being a configuration error."""
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def write_csv(path: str, points: np.ndarray) -> None:
    lines = [f"{z.real:.15g},{z.imag:.15g}" for z in points.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pgm(path: str, points: np.ndarray, pixels: int) -> None:
    """Binary portable graymap of a point cloud: hits 0 on background 255.

    The viewport is the bounding box of the points padded by 5% of its larger
    side on every edge; degenerate boxes fall back to a unit pad.
    """
    xs, ys = points.real, points.imag
    xmin, xmax = float(np.min(xs)), float(np.max(xs))
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    pad = 0.05 * max(xmax - xmin, ymax - ymin)
    if pad == 0.0:
        pad = 0.5
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    width = max(1, int(pixels))
    height = max(1, round(width * (ymax - ymin) / (xmax - xmin)))
    img = np.full((height, width), 255, dtype=np.uint8)
    ix = np.clip(((xs - xmin) / (xmax - xmin) * width).astype(int), 0, width - 1)
    iy = np.clip(((ys - ymin) / (ymax - ymin) * height).astype(int), 0, height - 1)
    img[height - 1 - iy, ix] = 0  # row 0 is the top of the viewport
    # the raster is built before the file is opened and written without a
    # copy, so a refused allocation leaves no file behind
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img)


def shared_report_text(report, epsilon: float, label_g: str, label_f: str) -> str:
    """Flat, diff-stable ``key = value`` rendering of a shared-attractor report."""
    lines = [
        REPORT_HEADER,
        f"system_g = {label_g}",
        f"system_f = {label_f}",
        f"epsilon = {_g17(epsilon)}",
        f"verdict = {report.verdict}",
        f"hausdorff = {_g17(report.hausdorff)}",
        f"ssc_both = {str(report.ssc_both).lower()}",
        f"prep_forward_pass = {report.prep_forward[0]}",
        f"prep_forward_fail = {report.prep_forward[1]}",
        f"prep_backward_pass = {report.prep_backward[0]}",
        f"prep_backward_fail = {report.prep_backward[1]}",
        f"spectrum_count = {len(report.spectrum_matches)}",
    ]
    for k, (lam, l) in enumerate(report.spectrum_matches):
        lines.append(f"spectrum_{k}_multiplier = {_fmt_complex(lam)}")
        lines.append(f"spectrum_{k}_l = {l if l is not None else 'unmatched'}")
    lines.append(f"equation_count = {len(report.functional_equations)}")
    for k, eq in enumerate(report.functional_equations):
        lines.append(f"equation_{k}_disk = {eq.disk_index}")
        lines.append(f"equation_{k}_word_g = {_fmt_word(eq.word_g)}")
        lines.append(f"equation_{k}_word_f = {_fmt_word(eq.word_f)}")
        lines.append(f"equation_{k}_residual = {_g17(eq.residual)}")
        lines.append(f"equation_{k}_ok = {str(eq.ok).lower()}")
        if eq.note:
            lines.append(f"equation_{k}_note = {eq.note}")
    notes = "; ".join(report.notes) if report.notes else "-"
    lines.append(f"notes = {notes}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_attractor(args) -> int:
    system, label = load_system(args.config)
    net = compute_net(system, args.epsilon, point_cap=args.point_cap)
    if args.out_csv:
        _write("--out-csv", write_csv, args.out_csv, net.points)
    if args.out_pgm:
        try:
            _write("--out-pgm", write_pgm, args.out_pgm, net.points, args.pixels)
        except MemoryError as exc:  # numpy's message names the raster's size
            raise ConfigError(f"--pixels: {exc}") from exc
    print(f"system = {label}")
    print(f"epsilon = {_g17(net.epsilon)}")
    print(f"points = {len(net.points)}")
    print(f"depth = {net.depth}")
    return 0


def cmd_check(args) -> int:
    system, label = load_system(args.config)
    net = compute_net(system, args.epsilon, point_cap=args.point_cap)
    if args.osc_disks:
        disks = _parse_disks(args.osc_disks)
        try:
            cert = certify_strong_osc(system, disks, net)
        except ValueError as exc:  # a disk whose image enclosure degenerates, say
            raise ConfigError(f"--osc-disks: {exc}") from exc
    else:
        cert = certify_ssc(system, net)
    print(f"system = {label}")
    print(f"kind = {cert.kind}")
    print(f"pairwise_distance = {_g17(cert.pairwise_distance)}")
    print(f"margin = {_g17(cert.margin)}")
    print(f"valid = {str(cert.valid).lower()}")
    return 0 if cert.valid else 1


def cmd_spectrum(args) -> int:
    system, label = load_system(args.config)
    spec = spectrum(system, args.max_len)
    print(f"system = {label}")
    print(f"max_word_length = {spec.max_word_length}")
    for entry in spec.entries:
        print(
            f"{_fmt_word(entry.word)} {_fmt_complex(entry.point)} "
            f"{_fmt_complex(entry.multiplier)}"
        )
    return 0


def cmd_shared(args) -> int:
    if args.spectrum_tol < np.finfo(float).tiny:
        raise ConfigError(f"--spectrum-tol: expected a normal float, got {args.spectrum_tol!r}")
    system_g, label_g = load_system(args.config_g)
    system_f, label_f = load_system(args.config_f)
    budgets = Budgets(
        prep_max_word=args.prep_max_word,
        spectrum_source_len=args.spectrum_source_len,
        spectrum_target_len=args.spectrum_target_len,
        spectrum_l_max=args.l_max,
        spectrum_tol=args.spectrum_tol,
        func_eq_tol=args.func_tol,
        eq_samples=args.eq_samples,
        point_cap=args.point_cap,
    )
    report = shared_attractor(system_g, system_f, args.epsilon, budgets)
    text = shared_report_text(report, args.epsilon, label_g, label_f)
    if args.report:
        _write("--report", Path(args.report).write_text, text, "utf-8")
    sys.stdout.write(text)
    if report.verdict == "Shared":
        return 0
    if report.verdict == "NotShared":
        return 1
    return 4


def cmd_roots(args) -> int:
    lam = _parse_complex(args.lam, "--lambda")
    coeffs = [lam]
    if args.coeffs.strip():
        for k, chunk in enumerate(args.coeffs.split(",")):
            coeffs.append(_parse_complex(chunk, f"--coeffs[{k}]"))
    # pad with exact zeros so the full working order is available to the
    # conjugation series; the input polynomial is represented exactly
    coeffs.extend([0j] * max(0, ORDER - len(coeffs)))
    target = PowerSeriesGerm(tuple(coeffs))
    try:
        roots = functional_roots(target, args.l)
    except InvalidMultiplier as exc:
        raise ConfigError(f"--lambda: {exc}") from exc
    print(f"l = {args.l}")
    print(f"roots = {len(roots)}")
    for r, germ in enumerate(roots):
        line = " ".join(_fmt_complex(c) for c in germ.coefficients)
        print(f"root_{r} = {line}")
        print(f"root_{r}_residual = {_g17(composition_residual(germ, args.l, target))}")
    return 0


def cmd_symmetry(args) -> int:
    system_g, label_g = load_system(args.config_g)
    system_f, label_f = load_system(args.config_f)
    g = SystemNet(system_g, compute_net(system_g, args.epsilon, point_cap=args.point_cap))
    f = SystemNet(system_f, compute_net(system_f, args.epsilon, point_cap=args.point_cap))
    point = _parse_complex(args.point, "--point")
    word = _parse_word(args.word, len(system_g.maps), "--word")
    germ = build_symmetry(g, f, point, word)
    verify = verify_symmetry(germ, g, f)
    print(f"system_g = {label_g}")
    print(f"system_f = {label_f}")
    print(f"base = {_fmt_complex(complex(germ.base))}")
    print(f"radius = {_g17(germ.radius)}")
    print(f"word_g = {_fmt_word(germ.word_g)}")
    print(f"word_f = {_fmt_word(germ.word_f)}")
    print(f"derivative = {_fmt_complex(complex(germ.derivative))}")
    print(f"forward_residual = {_g17(verify.forward_residual)}")
    print(f"backward_residual = {_g17(verify.backward_residual)}")
    print(f"passed = {str(verify.passed).lower()}")
    return 0 if verify.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoifs",
        description="Numerical toolkit for holomorphic iterated function systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_net_flags(p):
        p.add_argument(
            "--epsilon", type=_finite_positive, default=1e-3, help="net resolution (finite, > 0)"
        )
        p.add_argument(
            "--point-cap",
            type=_positive_int,
            default=POINT_CAP,
            help="budget on refinement points per level",
        )

    p = sub.add_parser("attractor", help="compute an epsilon-net point cloud")
    p.add_argument("config", help="system config file (JSON)")
    add_net_flags(p)
    p.add_argument("--out-csv", help="write the net as 're,im' CSV lines")
    p.add_argument("--out-pgm", help="write a binary PGM raster of the net")
    p.add_argument("--pixels", type=_positive_int, default=512, help="raster width in pixels")
    p.set_defaults(func=cmd_attractor)

    p = sub.add_parser("check", help="certify separation of the system pieces")
    p.add_argument("config", help="system config file (JSON)")
    add_net_flags(p)
    p.add_argument(
        "--osc-disks",
        help="semicolon-separated 'center_re,center_im,radius' disks; when given, "
        "certify the strong open-set condition instead of strong separation",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="print the multiplier spectrum")
    p.add_argument("config", help="system config file (JSON)")
    p.add_argument("--max-len", type=_positive_int, default=3, help="maximum word length")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("shared", help="decide whether two systems share an attractor")
    p.add_argument("config_g", help="first system config file")
    p.add_argument("config_f", help="second system config file")
    add_net_flags(p)
    p.add_argument("--report", help="also write the report to this file")
    p.add_argument("--prep-max-word", type=_positive_int, default=Budgets.prep_max_word)
    p.add_argument(
        "--spectrum-source-len", type=_positive_int, default=Budgets.spectrum_source_len
    )
    p.add_argument(
        "--spectrum-target-len", type=_positive_int, default=Budgets.spectrum_target_len
    )
    p.add_argument("--l-max", type=_positive_int, default=Budgets.spectrum_l_max)
    p.add_argument("--spectrum-tol", type=_finite_positive, default=Budgets.spectrum_tol)
    p.add_argument("--func-tol", type=_finite_positive, default=Budgets.func_eq_tol)
    p.add_argument("--eq-samples", type=_positive_int, default=Budgets.eq_samples)
    p.set_defaults(func=cmd_shared)

    p = sub.add_parser("roots", help="functional roots g^l = R of a series germ")
    p.add_argument("--lambda", dest="lam", required=True, help="multiplier of R")
    p.add_argument(
        "--coeffs",
        default="",
        help="comma-separated coefficients of R from degree 2 upward",
    )
    p.add_argument("--l", type=_positive_int, required=True, help="root order")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("symmetry", help="build and verify a local symmetry germ")
    p.add_argument("config_g", help="source system config file")
    p.add_argument("config_f", help="target system config file")
    add_net_flags(p)
    p.add_argument("--point", required=True, help="base point 're' or 're,im'")
    p.add_argument("--word", required=True, help="source word, e.g. '1,0'")
    p.set_defaults(func=cmd_symmetry)

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr, with no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BudgetExceeded as exc:
            print(f"error: budget exceeded: {exc}", file=sys.stderr)
            return 3
        except HoloifsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
