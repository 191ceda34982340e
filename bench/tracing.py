"""Spans and counters recorded from outside the library.

The tracer replaces public ``holoifs`` functions by timing wrappers at the
module attributes their callers look up, for example
``holoifs.symmetry.compute_net`` (used by ``shared_attractor``),
``holoifs.attractor.certify_ssc`` (used by ``rho_radius``) and
``holoifs.dynamics.fixed_point`` (used by ``spectrum``).  The library source
is not changed, and uninstalling puts the original functions back, so
untraced operations run the plain code.

Each span records its name, start, end, parent span and operation id, kept in
memory.  Self time is a span's duration minus the time its child spans cover.
Functions the tracer does not wrap (private helpers, ``compose_maps``,
``inverse_map``, KD-tree queries) count toward the self time of the nearest
wrapped caller, so ``symmetry.shared_attractor.self_s`` is the time spent
outside every named public call: the preperiodic orbit walks and the
composition sweep.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

REJECTIONS = ("CriterionEmpty", "AddressFailure", "GermBoundsError", "SeparationFailure")


def _compute_net(args, kwargs, net):
    system = args[0]
    # uniform-depth refinement holds m**depth cylinders at its last level
    return {"attractor.cylinders": len(system.maps) ** net.depth,
            "attractor.net_points": len(net.points)}


def _rho_radius(args, kwargs, result):
    system, net = args[0], args[1]
    m = len(system.maps)
    return {"attractor.rho_pairs": m * (m - 1) // 2 * len(net.points) ** 2}


def _box_restriction(args, kwargs, disks):
    return {"attractor.box_disks": len(disks)}


def _spectrum(args, kwargs, result):
    m = len(args[0].maps)
    max_len = args[1] if len(args) > 1 else kwargs["max_len"]
    return {"dynamics.spectrum_words": sum(m**k for k in range(1, max_len + 1))}


def _build_symmetry(args, kwargs, germ):
    return {"symmetry.germs_built": 1}


def _written_bytes(args, kwargs, result):
    return {"cli.output_bytes": Path(args[0]).stat().st_size}


def _report_bytes(args, kwargs, text):
    return {"cli.output_bytes": len(text.encode("utf-8"))}


#: span name -> (modules whose attribute is wrapped, counter hook)
SPANS = {
    "attractor.compute_net": (("holoifs.attractor", "holoifs.symmetry", "holoifs.cli"), _compute_net),
    "attractor.hausdorff": (("holoifs.symmetry",), None),
    "attractor.certify_ssc": (("holoifs.symmetry", "holoifs.attractor", "holoifs.dynamics"), None),
    "attractor.rho_radius": (("holoifs.symmetry",), _rho_radius),
    "attractor.box_restriction": (("holoifs.symmetry",), _box_restriction),
    "dynamics.fixed_point": (("holoifs.symmetry", "holoifs.dynamics"), None),
    "dynamics.spectrum": (("holoifs.symmetry",), _spectrum),
    "maps.compose_word": (("holoifs.symmetry", "holoifs.dynamics"), None),
    "symmetry.shared_attractor": (("holoifs.symmetry",), None),
    "symmetry.build_symmetry": (("holoifs.symmetry",), _build_symmetry),
    "symmetry.s_floor": (("holoifs.symmetry",), None),
    "symmetry.min_depth": (("holoifs.symmetry",), None),
    "symmetry.spectrum_compat": (("holoifs.symmetry",), None),
    "cli.shared_report_text": (("holoifs.cli",), _report_bytes),
    "cli.write_csv": (("holoifs.cli",), _written_bytes),
    "cli.write_pgm": (("holoifs.cli",), _written_bytes),
}

#: counters besides ``<span>.self_s`` and ``<span>.calls``
COUNTERS = (
    "attractor.rho_pairs",
    "attractor.cylinders",
    "attractor.net_points",
    "attractor.box_disks",
    "dynamics.spectrum_words",
    "symmetry.germs_built",
    *(f"symmetry.germs_rejected.{name}" for name in REJECTIONS),
    "cli.output_bytes",
)


class Tracer:
    """In-memory span and counter recorder for wrapped library functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counters: dict = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, (modules, hook) in SPANS.items():
            attr = name.rsplit(".", 1)[1]
            for modname in modules:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "symmetry.build_symmetry":
                    self.counters[self.op][f"symmetry.germs_rejected.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, self.op)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counters[self.op][key] += value
            return result

        return wrapper

    def per_op(self, op: int) -> dict:
        """Self time and calls per span name, plus counters, for one operation."""
        spans = [s for s in self.spans if s[5] == op]
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for sid, name, start, end, _, _ in spans:
            out[f"{name}.self_s"] += (end - start) - covered[sid]
            out[f"{name}.calls"] += 1
        for key in COUNTERS:
            out[key] = self.counters[op][key]
        attempts = out["symmetry.build_symmetry.calls"]
        out["symmetry.germ_yield"] = out["symmetry.germs_built"] / attempts if attempts else 0.0
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
