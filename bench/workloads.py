"""The four benchmark workloads: seeded inputs, ops and their correctness gate.

``build(seed, workdir)`` generates every instance, validates it and writes
its instance file (the set-up the benchmark times); it returns the op
schedule.  Each ``Op`` runs one user-visible operation and ``judge``
re-validates its answer from outside with the library's own validators, so
an op counts as passed only when its verdict equals the one expected by
construction and every witness checks.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, Dict, List, Tuple

from etacomplex import cli, suite
from etacomplex.complexes import (
    ChainMap,
    HomotopyCertificate,
    apply_auto,
    compose_chain_maps,
    eta_chain_map,
    homotopic,
    normalize_exact_pair,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
)
from etacomplex.generators import columnwise_null_delta_map, inductive_delta_complex
from etacomplex.gsystems import (
    GSystem,
    Obstruction,
    eta_null_complete,
    find_seed,
    gmorphism_to_chain_map,
    phi_mor,
    seed_equations_hold,
    theta_extend,
    theta_extend_mor,
    theta_triangle_check,
    validate_delta,
    validate_delta_map,
    validate_gmorphism,
    validate_gsystem,
)
from etacomplex.rings import ring_from_name
from etacomplex.serialize import chain_map_from_json, load_instance_file, save_instance_file

import instances as gen


class Op:
    """One closed-loop operation: ``run()`` is timed, ``judge(result)``
    returns the observed verdict and whether every witness re-validates."""

    __slots__ = ("key", "kind", "expected", "run", "judge")

    def __init__(self, key: str, kind: str, expected: str, run: Callable, judge: Callable):
        self.key, self.kind, self.expected, self.run, self.judge = key, kind, expected, run, judge


def _shuffled_blocks(combos: List[tuple], blocks: int, rng: random.Random) -> List[Tuple[int, tuple]]:
    """`blocks` copies of `combos`, each copy in its own seeded order, so every
    prefix of the schedule keeps the mix balanced."""
    out = []
    for b in range(blocks):
        order = list(combos)
        rng.shuffle(order)
        out.extend((b, c) for c in order)
    return out


# -- check-integer / check-field ---------------------------------------------


def _read_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


def _cli_check(path: str, op: str, out: str):
    def run():
        code = cli.main(["check", path, "--op", op, "-o", out])
        return code, out
    return run


def _judge_homotopy(f: ChainMap, g: ChainMap):
    inst = f.instance
    X, Y = f.source, f.target

    def judge(result):
        code, out = result
        rec = _read_record(out)
        verdict = rec["verdict"]
        if verdict != "SOME":
            return verdict, code == 1
        s = {
            e["degree"]: inst.mor_from_json(
                e["morphism"], inst.shift_obj(X.obj(e["degree"]), 1), Y.obj(e["degree"] - 1))
            for e in rec["witness"]["homotopy"]
        }
        return verdict, code == 0 and HomotopyCertificate(s, eta_twisted=True).validate(f, g)
    return judge


def _judge_conflation(i: ChainMap, p: ChainMap):
    def judge(result):
        code, out = result
        rec = _read_record(out)
        verdict = rec["verdict"]
        if verdict != "SOME":
            return verdict, code == 1
        alpha = chain_map_from_json(rec["witness"]["alpha"])
        pair = normalize_exact_pair(i, p)
        X = i.source
        ok = (code == 0 and alpha.source == pair.h.source and alpha.target == apply_auto(X, 1)
              and validate_chain_map(alpha))
        if ok:
            h_tilde = compose_chain_maps(eta_chain_map(X), alpha)
            cert = homotopic(h_tilde, pair.h)
            ok = cert is not None and cert.validate(h_tilde, pair.h)
        return verdict, ok
    return judge


class CheckWorkload:
    """In-process ``etacomplex check`` calls on sized complexes."""

    ops = ("eta-homotopic", "is-eta-conflation")
    tail_pct = 90.0

    def __init__(self, name: str, why: str, rings: Dict[str, Tuple[int, int]],
                 shapes: Dict[Tuple[str, str, bool], Tuple[int, int]], blocks: int):
        self.name, self.why = name, why
        self.rings = rings      # ring name -> (eta scalar for homotopy, for conflation)
        self.shapes = shapes    # (op, ring, graded) -> (degrees, rank per degree)
        self.blocks = blocks
        self.trace_ops = len(self.combos())

    @property
    def params(self) -> dict:
        return {
            "rings": {k: {"r_homotopy": a, "r_conflation": b} for k, (a, b) in self.rings.items()},
            "shapes": [{"op": op, "ring": rn, "graded": gr, "degrees": d, "rank": r}
                       for (op, rn, gr), (d, r) in sorted(self.shapes.items())],
            "blocks": self.blocks,
        }

    def combos(self):
        return [(op, rn, gr, v) for op in self.ops for rn in self.rings
                for gr in (False, True) for v in ("SOME", "NONE")]

    def build(self, seed: int, workdir: str) -> List[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for b, (op, rn, graded, verdict) in _shuffled_blocks(self.combos(), self.blocks, rng):
            key = f"{b}-{op}-{rn.replace('/', '')}-{'g' if graded else 's'}-{verdict}"
            ring = ring_from_name(rn)
            degrees, rank = self.shapes[(op, rn, graded)]
            r = self.rings[rn][0 if op == "eta-homotopic" else 1]
            inst = gen.instance_for(ring, graded, r)
            path = os.path.join(workdir, key + ".json")
            out = os.path.join(workdir, key + ".out.jsonl")
            if op == "eta-homotopic":
                f, g = gen.homotopy_pair(inst, degrees, rank, verdict == "SOME", rng)
                _require(validate_complex(f.source) and validate_complex(f.target)
                         and validate_chain_map(f) and validate_chain_map(g), key)
                save_instance_file(path, "chain-maps", (f, g))
                judge = _judge_homotopy(f, g)
            else:
                i, p = gen.conflation_pair(inst, degrees, rank, verdict == "SOME", rng)
                _require(validate_complex(i.target) and validate_chain_map(i)
                         and validate_chain_map(p), key)
                save_instance_file(path, "pair", (i, p))
                judge = _judge_conflation(i, p)
            ops.append(Op(key, op, verdict, _cli_check(path, op, out), judge))
        return ops


def _require(ok: bool, key: str):
    if not ok:
        raise RuntimeError(f"generated instance {key} failed validation")


# -- suite-desk ---------------------------------------------------------------


class SuiteWorkload:
    """One suite trial per op: ``run_suite(seed, trials=1)`` over all 23
    properties and the default ring pool.

    The suite seeds are gate_seed + t, t = 0 .. trials - 1, whatever the
    benchmark seed, and a run cycles through them: a suite trial costs from
    20 ms to over 600 ms (cost CV about 1.1), so the ~150 trials of one run
    drawn afresh per seed would move throughput by about 13% between seeds,
    and a run that covers a few trials more or less than another would move
    its tail.  Cycling a fixed pool, like the acceptance gate replays its
    seed, keeps every run's sample the same."""

    name = "suite-desk"
    why = "run_suite one trial at a time over all 23 properties: thousands of tiny systems, so ring, matrix and assembly overhead show"
    gate_seed = 20260824    # the seed of tests/test_acceptance.py
    trials = 40
    trace_ops = 30
    tail_pct = 90.0

    @property
    def params(self) -> dict:
        return {"properties": len(suite.PROPERTIES), "suite_seeds": f"{self.gate_seed}+t",
                "trials": self.trials, "rings": [str(r) for r in suite.RINGS]}

    def build(self, seed: int, workdir: str) -> List[Op]:
        return [Op(str(t), "trial", "pass", _suite_trial(self.gate_seed + t), _judge_suite)
                for t in range(self.trials)]


def _suite_trial(suite_seed: int):
    return lambda: suite.run_suite(seed=suite_seed, trials=1)


def _judge_suite(result):
    ok, records = result
    failed = sum(r["verdict"] != "pass" for r in records)
    verdict = "pass" if failed == 0 else f"{failed} failed"
    return verdict, ok and len(records) == len(suite.PROPERTIES)


# -- complete-wide -----------------------------------------------------------


def _verdict(out) -> str:
    if isinstance(out, Obstruction):
        return f"OBSTRUCTED@{out.level}"
    return "PASS" if out is not None and out is not False else "FAIL"


def _complete_pipeline(files: List[str], outs: List[str]):
    def run():
        return [(cli.main(["check", f, "--op", "theta-extend", "-o", o]), o)
                for f, o in zip(files, outs)]
    return run


def _judge_complete(inputs, min_levels):
    def judge(result):
        verdicts, ok = [], True
        for (code, out), x, min_level in zip(result, inputs, min_levels):
            rec = _read_record(out)
            v = rec["verdict"]
            if v == "OBSTRUCTED":
                v = f"OBSTRUCTED@{rec['obstruction']['level']}"
                ok = ok and code == 1
            elif v == "PASS":
                xhat = GSystem.from_json(rec["result"])
                ok = ok and code == 0 and validate_gsystem(xhat) and xhat.max_level() >= min_level
                for (r, j), m in x.delta0.items():
                    ok = ok and xhat.diff(0, r + j, j) == m
            verdicts.append(v)
        return "/".join(verdicts), ok
    return judge


def _null_pipeline(path: str):
    def run():
        _, alpha = load_instance_file(path)
        xhat = theta_extend(alpha.source)
        if isinstance(xhat, Obstruction):
            return xhat, None, None, None
        fhat = theta_extend_mor(alpha, xhat, xhat)
        if isinstance(fhat, Obstruction):
            return fhat, None, None, None
        seed = find_seed(fhat)
        if seed is None:
            return None, fhat, None, None
        return eta_null_complete(fhat, *seed), fhat, seed, xhat
    return run


def _judge_null(result):
    cert, fhat, seed, xhat = result
    if not isinstance(cert, HomotopyCertificate):
        return _verdict(cert), True
    fc = gmorphism_to_chain_map(fhat)
    ok = (validate_gsystem(xhat) and validate_gmorphism(fhat) and seed_equations_hold(fhat, *seed)
          and cert.validate(fc, zero_chain_map(fc.source, fc.target)))
    return "SOME", ok


def _triangle_pipeline(path: str):
    def run():
        _, beta = load_instance_file(path)
        return theta_triangle_check(beta), phi_mor(beta)
    return run


def _judge_triangle(result):
    res, pm = result
    if isinstance(pm, Obstruction) or res is not True:
        return _verdict(res if res is not True else pm), True
    return "PASS", isinstance(pm, ChainMap) and validate_chain_map(pm)


class CompleteWorkload:
    """The bigraded bridge on wide DeltaComplex inputs."""

    name = "complete-wide"
    why = "theta_extend(_mor), find_seed, eta_null_complete, phi_mor and triangle checks on wide strips: MatrixProblem assembly and per-level re-solves dominate"
    rings = ("Z/4", "Z/8", "F5")
    kinds = ("complete", "null", "triangle")
    tail_pct = 90.0

    def __init__(self, width: int, shapes: Dict[Tuple[str, str], Tuple[int, int]], blocks: int):
        self.width, self.blocks = width, blocks
        self.shapes = shapes    # (kind, ring) -> (strip rows, rank per position)
        self.trace_ops = 2 * len(self.kinds) * len(self.rings)

    @property
    def params(self) -> dict:
        return {"columns": self.width + 1, "blocks": self.blocks,
                "shapes": [{"kind": k, "ring": rn, "strip_rows": rows, "rank": rank}
                           for (k, rn), (rows, rank) in sorted(self.shapes.items())]}

    def build(self, seed: int, workdir: str) -> List[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        combos = [(k, rn) for k in self.kinds for rn in self.rings]
        ops = []
        for b, (kind, rn) in _shuffled_blocks(combos, self.blocks, rng):
            ring = ring_from_name(rn)
            key = f"{b}-{kind}-{rn.replace('/', '')}"
            rows, rank = self.shapes[(kind, rn)]
            if kind == "complete":
                inputs = [gen.wide_delta(ring, rows, self.width, rank, rng)]
                expected, min_levels = ["PASS"], [0]
                if rn == "Z/4":
                    inputs.append(inductive_delta_complex(rng))
                    expected.append("PASS")
                    min_levels.append(2)
                inputs.append(gen.wide_delta(ring, rows, self.width, rank, rng, obstructed=True))
                expected.append("OBSTRUCTED@1")
                min_levels.append(0)
                files, outs = [], []
                for t, x in enumerate(inputs):
                    _require(validate_delta(x), key)
                    files.append(os.path.join(workdir, f"{key}-{t}.json"))
                    outs.append(os.path.join(workdir, f"{key}-{t}.out.jsonl"))
                    save_instance_file(files[-1], "delta-complex", x)
                ops.append(Op(key, kind, "/".join(expected), _complete_pipeline(files, outs),
                              _judge_complete(inputs, min_levels)))
                continue
            path = os.path.join(workdir, key + ".json")
            if kind == "null":
                x = gen.delta_sum(ring, gen.strips(ring, rows, self.width, rank))
                x = gen.delta_conjugate(x, gen.delta_autos(x, rng))
                alpha = columnwise_null_delta_map(x, x, rng)
                _require(validate_delta(x) and validate_delta_map(alpha), key)
                save_instance_file(path, "delta-map", alpha)
                ops.append(Op(key, kind, "SOME", _null_pipeline(path), _judge_null))
            else:
                beta = gen.strip_map(ring, rows, self.width, rank, rng)
                _require(validate_delta(beta.source) and validate_delta(beta.target)
                         and validate_delta_map(beta), key)
                save_instance_file(path, "delta-map", beta)
                ops.append(Op(key, kind, "PASS", _triangle_pipeline(path), _judge_triangle))
        return ops


# -- the registry -------------------------------------------------------------


WORKLOADS = {
    "suite-desk": SuiteWorkload(),
    "check-integer": CheckWorkload(
        "check-integer",
        "eta-homotopic and is-eta-conflation CLI checks over Z, Z/8, Z/9 past desk scale: every solve goes through smith_normal_form",
        rings={"Z": (2, 2), "Z/8": (2, 2), "Z/9": (3, 3)},
        shapes={**{(op, rn, gr): (3, 4) if gr else (4, 3)
                   for op in ("is-eta-conflation",) for rn in ("Z", "Z/8", "Z/9") for gr in (False, True)},
                **{("eta-homotopic", rn, True): (3, 7) for rn in ("Z", "Z/8", "Z/9")},
                ("eta-homotopic", "Z", False): (3, 7), ("eta-homotopic", "Z/8", False): (3, 6),
                ("eta-homotopic", "Z/9", False): (3, 6)},
        blocks=6,
    ),
    "check-field": CheckWorkload(
        "check-field",
        "the same checks over GF(5) and Q: elimination is cheap, so problem assembly, graded composition and witness checks show",
        rings={"F5": (2, 0), "Q": (2, 0)},
        shapes={("eta-homotopic", "F5", False): (3, 6), ("eta-homotopic", "F5", True): (3, 7),
                ("is-eta-conflation", "F5", False): (3, 4), ("is-eta-conflation", "F5", True): (3, 4),
                ("eta-homotopic", "Q", False): (3, 4), ("eta-homotopic", "Q", True): (3, 5),
                ("is-eta-conflation", "Q", False): (4, 2), ("is-eta-conflation", "Q", True): (3, 3)},
        blocks=8,
    ),
    "complete-wide": CompleteWorkload(
        width=7,
        shapes={**{(k, rn): (3 if k == "complete" else 2, 2)
                   for k in CompleteWorkload.kinds for rn in ("Z/4", "Z/8")},
                ("complete", "F5"): (5, 2), ("null", "F5"): (3, 2), ("triangle", "F5"): (3, 2)},
        blocks=6,
    ),
}
