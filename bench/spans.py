"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions of each etacomplex layer and
rebinds every reference to them: the defining module, every module that
imported the function by name (``complexes`` imports ``solve_linear_system``,
the package re-exports nearly everything) and the benchmark's own modules.
Methods are replaced on their class.  ``uninstall`` restores the originals.

Hot leaf functions (``CoeffRing.canon``, ``RingMatrix.__init__``) are only
counted; ``mat_mul`` and ``compose`` are timed into aggregates; every other
wrapped call is also kept as a span (op index, name, parent, start, end) in
memory and written out by ``write_spans`` when the run ends.  A span's self
time is its duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from etacomplex import (
    base,
    cli,
    complexes,
    frobenius,
    generators,
    gsystems,
    linalg,
    matrix,
    rings,
    serialize,
)

perf = time.perf_counter

# (owner, attribute, span name, layer, group).  `group` names the metric a
# span feeds; spans whose group is None only provide structure.
TIMED = [
    (matrix, "mat_mul", "mat_mul", "matrix", "matmul"),
    (base.ScalarEta, "compose", "ScalarEta.compose", "base", "compose"),
    (base.Graded, "compose", "Graded.compose", "base", "compose"),
    (linalg, "smith_normal_form", "smith_normal_form", "linalg", "snf"),
    (linalg, "solve_linear_system", "solve_linear_system", "linalg", "solve"),
    (linalg, "solve_with_kernel", "solve_with_kernel", "linalg", "solve"),
    (complexes.LinearProblem, "solve", "LinearProblem.solve", "complexes", "problem"),
    (complexes.LinearProblem, "solve_full", "LinearProblem.solve_full", "complexes", "problem"),
    (complexes, "validate_complex", "validate_complex", "complexes", "validate"),
    (complexes, "validate_chain_map", "validate_chain_map", "complexes", "validate"),
    (complexes.HomotopyCertificate, "validate", "HomotopyCertificate.validate", "complexes", "validate"),
    (frobenius, "is_eta_conflation", "is_eta_conflation", "frobenius", "recognize"),
    (frobenius, "eta_homotopic", "eta_homotopic", "frobenius", "recognize"),
    (frobenius, "factor_through_eta", "factor_through_eta", "frobenius", "recognize"),
    (gsystems.MatrixProblem, "solve", "MatrixProblem.solve", "gsystems", "problem"),
    (gsystems.MatrixProblem, "solve_full", "MatrixProblem.solve_full", "gsystems", "problem"),
    (gsystems, "validate_gsystem", "validate_gsystem", "gsystems", "validate"),
    (gsystems, "validate_gmorphism", "validate_gmorphism", "gsystems", "validate"),
    (gsystems, "validate_delta", "validate_delta", "gsystems", "validate"),
    (gsystems, "validate_delta_map", "validate_delta_map", "gsystems", "validate"),
    (gsystems, "seed_equations_hold", "seed_equations_hold", "gsystems", "validate"),
    (gsystems, "corollary_equations_hold", "corollary_equations_hold", "gsystems", "validate"),
    (gsystems, "totalize", "totalize", "gsystems", "totalize"),
    (gsystems, "totalize_mor", "totalize_mor", "gsystems", "totalize"),
    (gsystems, "totalize_complex", "totalize_complex", "gsystems", "totalize"),
    (gsystems, "totalize_chain_map", "totalize_chain_map", "gsystems", "totalize"),
    (gsystems, "theta_extend", "theta_extend", "gsystems", "construct"),
    (gsystems, "theta_extend_mor", "theta_extend_mor", "gsystems", "construct"),
    (gsystems, "eta_null_complete", "eta_null_complete", "gsystems", "construct"),
    (gsystems, "find_seed", "find_seed", "gsystems", None),
    (gsystems, "phi", "phi", "gsystems", None),
    (gsystems, "phi_mor", "phi_mor", "gsystems", None),
    (gsystems, "theta_triangle_check", "theta_triangle_check", "gsystems", None),
    (serialize, "load_instance_file", "load_instance_file", "serialize", "load"),
    (serialize, "payload_from_json", "payload_from_json", "serialize", "load"),
    (serialize, "save_instance_file", "save_instance_file", "serialize", "dump"),
    (serialize, "payload_to_json", "payload_to_json", "serialize", "dump"),
    (cli, "cmd_check", "cmd_check", "cli", "check"),
] + [
    (generators, name, name, "generators", "generate")
    for name, obj in sorted(vars(generators).items())
    if callable(obj) and not name.startswith("_")
    and getattr(obj, "__module__", None) == generators.__name__
]

# Aggregated only; a stored span per call would cost more than the call.
NO_SPAN = {"mat_mul", "ScalarEta.compose", "Graded.compose"}


class Tracer:
    """Counts, timings and spans of one traced run, kept in memory."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.enabled = False
        self.op_index = -1
        self._saved: List[tuple] = []
        self.reset()

    # -- state -----------------------------------------------------------

    def reset(self):
        self.stack: List[list] = []          # frames [name, child_s]
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.group_s: Dict[str, float] = defaultdict(float)   # outermost per group
        self._group_depth: Dict[str, int] = defaultdict(int)
        self._layer_depth: Dict[str, int] = defaultdict(int)
        self.layer_outer: Dict[str, float] = defaultdict(float)
        self.c: Dict[str, int] = defaultdict(int)              # named counts
        self.t: Dict[str, float] = defaultdict(float)          # named times

    # -- wrapping --------------------------------------------------------

    def _timed(self, fn, name, layer, group, after: Optional[Callable]):
        tr = self
        store = name not in NO_SPAN
        key = None if group is None else f"{layer}.{group}"

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            stack, gd, ld, c = tr.stack, tr._group_depth, tr._layer_depth, tr.c
            frame = [name, 0.0]
            outer = key is not None and gd[key] == 0
            if key is not None:
                gd[key] += 1
            ld[layer] += 1
            snap = (tr.layer_outer["linalg"], c["linalg.solve_calls"], c["linalg.cells"])
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                if key is not None:
                    gd[key] -= 1
                ld[layer] -= 1
                if ld[layer] == 0:
                    tr.layer_outer[layer] += d
                own = d - frame[1]
                tr.calls[name] += 1
                tr.layer_self[layer] += own
                if outer:
                    tr.group_s[key] += d
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += d
                if store:
                    tr.spans.append((tr.op_index, name, parent[0] if parent else None, t0, t1))
            if after is not None:
                after(tr, args, out, d, outer, snap)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counted(self, fn, counter):
        tr = self

        def wrapper(*args, **kwargs):
            if tr.enabled:
                tr.c[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function and rebind it wherever it is named."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "etacomplex" or n.startswith("etacomplex."))]
        modules += self.extra_modules
        plan = [(rings.CoeffRing, "canon", self._counted(rings.CoeffRing.canon, "rings.canon_calls")),
                (matrix.RingMatrix, "__init__", self._counted(matrix.RingMatrix.__init__, "matrix.init_calls"))]
        for owner, attr, name, layer, group in TIMED:
            fn = vars(owner)[attr]
            plan.append((owner, attr, self._timed(fn, name, layer, group, AFTER.get(name))))
        for owner, attr, wrapper in plan:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                if mod is owner:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")


# -- per-call hooks ------------------------------------------------------


def _bits(entries) -> int:
    return max((abs(int(x)).bit_length() for x in entries), default=0)


def _after_solve(tr, args, out, d, outer, snap):
    if not outer:
        return
    coeffs = args[0]
    ring = coeffs.ring
    cells = coeffs.rows * coeffs.cols
    tr.c["linalg.solve_calls"] += 1
    tr.c["linalg.cells"] += cells
    tr.c["linalg.max_cells"] = max(tr.c["linalg.max_cells"], cells)
    tr.c["linalg.nnz"] += sum(1 for x in coeffs.entries if x)
    kind = "int" if ring.kind == "Z" else "zmod" if ring.kind == "Zmod" else "field"
    tr.t[f"linalg.solve_s.{kind}"] += d
    sol = out[0] if isinstance(out, tuple) else out
    if sol is None:
        tr.c["linalg.none"] += 1


def _after_kernel(tr, args, out, d, outer, snap):
    _after_solve(tr, args, out, d, outer, snap)
    if outer:
        tr.c["linalg.kernel_calls"] += 1
        tr.t["linalg.kernel_s"] += d


def _after_snf(tr, args, out, d, outer, snap):
    tr.c["linalg.snf_max_bits"] = max(tr.c["linalg.snf_max_bits"],
                                      *(_bits(m.entries) for m in out))


def _after_matmul(tr, args, out, d, outer, snap):
    a, b = args
    tr.c["matrix.matmul_mults"] += a.rows * a.cols * b.cols


def _after_problem(layer):
    def hook(tr, args, out, d, outer, snap):
        if not outer:
            return
        linalg_s, _, cells = snap
        tr.c[f"{layer}.problem_solves"] += 1
        tr.t[f"{layer}.build_s"] += d - (tr.layer_outer["linalg"] - linalg_s)
        tr.c[f"{layer}.cumulative_cells"] += tr.c["linalg.cells"] - cells
    return hook


def _after_recognize(tr, args, out, d, outer, snap):
    if outer:
        tr.c["frobenius.recognize_calls"] += 1
        tr.c["frobenius.recognize_solves"] += tr.c["linalg.solve_calls"] - snap[1]


def _after_construct(tr, args, out, d, outer, snap):
    if isinstance(out, gsystems.Obstruction):
        tr.c["gsystems.obstructions"] += 1


def _after_load(tr, args, out, d, outer, snap):
    import os

    if isinstance(args[0], str):
        tr.c["serialize.load_bytes"] += os.path.getsize(args[0])


AFTER = {
    "solve_linear_system": _after_solve,
    "solve_with_kernel": _after_kernel,
    "smith_normal_form": _after_snf,
    "mat_mul": _after_matmul,
    "LinearProblem.solve": _after_problem("complexes"),
    "LinearProblem.solve_full": _after_problem("complexes"),
    "MatrixProblem.solve": _after_problem("gsystems"),
    "MatrixProblem.solve_full": _after_problem("gsystems"),
    "is_eta_conflation": _after_recognize,
    "eta_homotopic": _after_recognize,
    "factor_through_eta": _after_recognize,
    "theta_extend": _after_construct,
    "theta_extend_mor": _after_construct,
    "eta_null_complete": _after_construct,
    "load_instance_file": _after_load,
}


def layer_metrics(tr: Tracer, op_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass whose ops took `op_s`."""
    c, t, g = tr.c, tr.t, tr.group_s
    solves = c["linalg.solve_calls"]
    recog = c["frobenius.recognize_calls"]
    return {
        "rings.canon_calls": c["rings.canon_calls"],
        "matrix.init_calls": c["matrix.init_calls"],
        "matrix.matmul_calls": tr.calls["mat_mul"],
        "matrix.matmul_mults": c["matrix.matmul_mults"],
        "matrix.matmul_s": g["matrix.matmul"],
        "linalg.solve_calls": solves,
        "linalg.kernel_calls": c["linalg.kernel_calls"],
        "linalg.solve_s": g["linalg.solve"],
        "linalg.kernel_s": t["linalg.kernel_s"],
        "linalg.solve_s.int": t["linalg.solve_s.int"],
        "linalg.solve_s.zmod": t["linalg.solve_s.zmod"],
        "linalg.solve_s.field": t["linalg.solve_s.field"],
        "linalg.snf_s": g["linalg.snf"],
        "linalg.cells": c["linalg.cells"],
        "linalg.nnz": c["linalg.nnz"],
        "linalg.max_cells": c["linalg.max_cells"],
        "linalg.snf_max_bits": c["linalg.snf_max_bits"],
        "linalg.none_frac": c["linalg.none"] / solves if solves else 0.0,
        "linalg.self_share": tr.layer_self["linalg"] / op_s if op_s else 0.0,
        "base.compose_calls": tr.calls["ScalarEta.compose"] + tr.calls["Graded.compose"],
        "base.compose_s": g["base.compose"],
        "complexes.problem_solves": c["complexes.problem_solves"],
        "complexes.build_s": t["complexes.build_s"],
        "complexes.validate_s": g["complexes.validate"],
        "frobenius.recognize_calls": recog,
        "frobenius.solves_per_recognition": c["frobenius.recognize_solves"] / recog if recog else 0.0,
        "frobenius.self_s": tr.layer_self["frobenius"],
        "gsystems.problem_solves": c["gsystems.problem_solves"],
        "gsystems.cumulative_cells": c["gsystems.cumulative_cells"],
        "gsystems.build_s": t["gsystems.build_s"],
        "gsystems.validate_s": g["gsystems.validate"],
        "gsystems.totalize_s": g["gsystems.totalize"],
        "gsystems.obstructions": c["gsystems.obstructions"],
        "serialize.load_s": g["serialize.load"],
        "serialize.load_bytes": c["serialize.load_bytes"],
        "serialize.dump_s": g["serialize.dump"],
        "generators.s": g["generators.generate"],
        "cli.check_s": g["cli.check"],
    }
