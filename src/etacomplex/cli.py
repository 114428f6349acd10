"""Command-line surface: instance I/O, seeded generation, checks, suite.

Machine contract: exit code 0 means the check or suite passed, 1 means a
well-posed check failed (non-conflation, obstruction, failing property),
2 means the input could not be understood (bad file, wrong payload kind,
bad flags, an unwritable report path).  All reports are UTF-8 JSON-lines on
stdout or the file given with ``-o``, which is opened before the work starts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from typing import List, Optional

from .base import Graded, ScalarEta
from .complexes import (
    Complex,
    NotChainwiseSplit,
    id_chain_map,
    validate_chain_map,
    validate_complex,
    verify,
    zero_chain_map,
)
from .frobenius import StandardConflation, eta_homotopic, is_eta_conflation
from .gsystems import (
    CGRA,
    Obstruction,
    phi,
    phi_mor,
    theta_extend,
    theta_triangle_check,
    totalize,
    validate_delta,
    validate_gsystem,
)
from .rings import ring_from_name
from .serialize import (
    chain_map_to_json,
    complex_to_json,
    load_instance_file,
    save_instance_file,
)

RING_ENV = "ETACOMPLEX_RING"

CHECK_OPS = (
    "is-eta-conflation",
    "eta-homotopic",
    "totalize",
    "theta-extend",
    "phi",
    "triangle-check",
    "axioms",
)

PROFILES = (
    "scalar-eta",
    "graded",
    "gsystem",
    "delta",
    "pair",
    "chain-maps",
    "delta-map",
)


# the checks that run a construction on completion inputs, and the payload
# kinds each accepts
_CONSTRUCTION_KINDS = {
    "theta-extend": ("delta-complex",),
    "phi": ("delta-complex", "delta-map"),
    "triangle-check": ("delta-map",),
}

# the checks that answer a question about two chain maps, and the payload
# kind each accepts
_MAP_KINDS = {
    "is-eta-conflation": "pair",
    "eta-homotopic": "chain-maps",
    "axioms": "pair",
}


class _Usage(Exception):
    """Input that cannot be understood: maps to exit code 2."""


def _default_ring_name() -> str:
    return os.environ.get(RING_ENV, "Z/4")


def _parse_ring(name: str):
    try:
        return ring_from_name(name)
    except ValueError as exc:
        raise _Usage(str(exc))


def _open_report(out: Optional[str]):
    """The report stream: stdout, or the file ``out`` opened for writing now,
    before any work, so that an unwritable path fails at once."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _Usage(f"cannot write {out}: {exc.strerror}")


def _emit(records: List[dict], fh) -> None:
    fh.write("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def _load(path: str):
    try:
        return load_instance_file(path)
    except FileNotFoundError:
        raise _Usage(f"no such file: {path}")
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise _Usage(f"cannot parse instance file {path}: {exc}")


def _need_kind(kind: str, wanted, op: str):
    if isinstance(wanted, str):
        wanted = (wanted,)
    if kind not in wanted:
        raise _Usage(f"op {op!r} needs a {' or '.join(wanted)} file, got {kind!r}")


# -- check ------------------------------------------------------------------


def _check_record(op: str, verdict: str, **extra) -> dict:
    rec = {"check": op, "verdict": verdict}
    rec.update(extra)
    return rec


def _chain_maps_valid(maps) -> bool:
    """Every distinct complex of the maps has d^2 = 0, and every map is a chain map."""
    complexes = []
    for f in maps:
        for c in (f.source, f.target):
            if c not in complexes:
                complexes.append(c)
    return all(validate_complex(c) for c in complexes) and all(validate_chain_map(f) for f in maps)


def cmd_check(path: str, op: str, seed: int) -> (int, List[dict]):
    kind, obj = _load(path)

    if op in _MAP_KINDS:
        _need_kind(kind, _MAP_KINDS[op], op)
        if not _chain_maps_valid(obj):
            return 1, [_check_record(op, "FAIL", detail="input is not a pair of chain maps")]

    if op == "is-eta-conflation":
        i, p = obj
        try:
            conf = is_eta_conflation(i, p)
        except NotChainwiseSplit as exc:
            return 1, [_check_record(op, "NONE", detail=f"not chainwise split: {exc}")]
        if conf is None:
            return 1, [_check_record(op, "NONE")]
        return 0, [
            _check_record(op, "SOME", witness={"alpha": chain_map_to_json(conf.alpha)})
        ]

    if op == "eta-homotopic":
        f, g = obj
        cert = eta_homotopic(f, g)
        if cert is None:
            return 1, [_check_record(op, "NONE")]
        inst = f.instance
        witness = {
            "homotopy": [
                {"degree": n, "morphism": inst.mor_to_json(m)}
                for n, m in sorted(cert.s.items())
            ]
        }
        return 0, [_check_record(op, "SOME", witness=witness)]

    if op == "totalize":
        _need_kind(kind, ("gsystem", "complex"), op)
        if kind == "gsystem":
            if obj.convention != CGRA:
                raise _Usage("totalize needs a gsystem in the CgrA convention")
            if not validate_gsystem(obj):
                return 1, [_check_record(op, "FAIL", detail="input relations fail")]
            tot = totalize(obj)
        else:
            from .gsystems import totalize_complex

            if not isinstance(obj.instance, Graded):
                raise _Usage("totalize needs a complex over a graded instance")
            if not validate_complex(obj):
                return 1, [_check_record(op, "FAIL", detail="d^2 != 0")]
            tot = totalize_complex(obj)
        ok = validate_complex(tot)
        rec = _check_record(
            op, "PASS" if ok else "FAIL", result=complex_to_json(tot)
        )
        return (0 if ok else 1), [rec]

    if op in _CONSTRUCTION_KINDS:
        _need_kind(kind, _CONSTRUCTION_KINDS[op], op)
        ends = (obj,) if kind == "delta-complex" else (obj.source, obj.target)
        if not all(validate_delta(x) for x in ends):
            return 1, [_check_record(op, "FAIL", detail="input is not a valid completion problem")]
        if op == "theta-extend":
            return _verdict(op, theta_extend(obj), validate_gsystem, lambda x: x.to_json())
        if op == "triangle-check":
            return _verdict(op, theta_triangle_check(obj), bool, None)
        if kind == "delta-complex":
            return _verdict(op, phi(obj), validate_complex, complex_to_json)
        return _verdict(op, phi_mor(obj), validate_chain_map, chain_map_to_json)

    if op == "axioms":
        return _check_axioms(obj, seed)

    raise _Usage(f"unknown check op {op!r}")


def _verdict(op: str, out, validate, encode) -> (int, List[dict]):
    """OBSTRUCTED for an Obstruction, else PASS or FAIL by ``validate(out)``,
    with ``encode(out)`` as the result unless encode is None."""
    if isinstance(out, Obstruction):
        return 1, [_check_record(op, "OBSTRUCTED", obstruction=out.to_json())]
    ok = validate(out)
    extra = {} if encode is None else {"result": encode(out)}
    return (0 if ok else 1), [_check_record(op, "PASS" if ok else "FAIL", **extra)]


def _check_axioms(pair, seed: int) -> (int, List[dict]):
    """Recognize the pair and verify the closure axioms around it."""
    from .suite import AXIOMS

    i, p = pair
    try:
        conf = is_eta_conflation(i, p)
    except NotChainwiseSplit as exc:
        return 1, [_check_record("axioms", "NONE", detail=f"not chainwise split: {exc}")]
    if conf is None:
        return 1, [_check_record("axioms", "NONE", detail="pair is not a conflation")]
    defl = StandardConflation(conf.alpha)
    rng = random.Random(seed)
    zero = Complex(defl.instance, {}, {})
    ok0 = is_eta_conflation(zero_chain_map(zero, defl.Z), id_chain_map(defl.Z)) is not None
    checks = [("recognized", True), ("ex0", ok0)]
    checks += [(name, check(defl, witness(defl, rng))) for name, (witness, check) in AXIOMS.items()]
    records = [_check_record(f"axioms/{name}", "PASS" if ok else "FAIL") for name, ok in checks]
    return (0 if all(ok for _, ok in checks) else 1), records


# -- gen --------------------------------------------------------------------


def cmd_gen(
    seed: int,
    profile: str,
    out: str,
    ring_name: str,
    r_value: int,
    max_len: int,
    max_rank: int,
) -> int:
    from .generators import (
        random_chain_map,
        random_complex,
        random_delta_complex,
        random_delta_map,
        random_gsystem,
        random_std_conflation,
    )

    ring = _parse_ring(ring_name)
    if max_len < 0:
        raise _Usage("--max-len must be at least 0")
    if max_rank < 1:
        raise _Usage("--max-rank must be at least 1")
    rng = random.Random(seed)

    if profile in ("scalar-eta", "graded"):
        inst = ScalarEta(ring, ring.canon(r_value))
        if profile == "graded":
            inst = Graded(inst)
        obj = random_complex(inst, rng, max_len=max_len, max_rank=max_rank)
        verify(validate_complex(obj), "gen: the generated complex is invalid")
        kind = "complex"
    elif profile == "gsystem":
        obj = random_gsystem(ring, rng, max_len=max_len, max_rank=max_rank)
        kind = "gsystem"
    elif profile == "delta":
        obj = random_delta_complex(ring, rng, max_rank=max_rank)
        verify(validate_delta(obj), "gen: the generated delta-complex is invalid")
        kind = "delta-complex"
    elif profile == "pair":
        # redraw until W = Z[-1] meets supp X or supp X + 1; is-eta-conflation
        # then poses, for eta = c, h + d t + t d = 0 mod c in t alone over Z
        # with |c| >= 2, nothing for a unit c, and the Kronecker system in a
        # and t for a zero-divisor c of Z/m
        if max_len < 1:
            raise _Usage("--profile pair needs --max-len of at least 1")
        inst = ScalarEta(ring, ring.canon(r_value))
        while True:
            defl = random_std_conflation(inst, rng, max_len=max_len, max_rank=max_rank)
            if any(n in defl.X.objects or n - 1 in defl.X.objects for n in defl.alpha.source.objects):
                break
        obj = (defl.i, defl.p)
        kind = "pair"
    elif profile == "chain-maps":
        # redraw until Y meets supp X (chain maps) and supp X - 1 (homotopy
        # unknowns s^n: X^n(1) -> Y^{n-1}); that needs two degrees
        if max_len < 2:
            raise _Usage("--profile chain-maps needs --max-len of at least 2")
        inst = ScalarEta(ring, ring.canon(r_value))
        while True:
            a = random_complex(inst, rng, max_len=max_len, max_rank=max_rank)
            b = random_complex(inst, rng, max_len=max_len, max_rank=max_rank)
            if any(n in b.objects for n in a.objects) and any(n - 1 in b.objects for n in a.objects):
                break
        obj = (random_chain_map(a, b, rng), random_chain_map(a, b, rng))
        kind = "chain-maps"
    elif profile == "delta-map":
        x = random_delta_complex(ring, rng, max_rank=max_rank)
        y = random_delta_complex(ring, rng, max_rank=max_rank)
        obj = random_delta_map(x, y, rng)
        kind = "delta-map"
    else:
        raise _Usage(f"unknown profile {profile!r}")

    try:
        save_instance_file(out, kind, obj)
    except OSError as exc:
        raise _Usage(f"cannot write {out}: {exc.strerror}")
    return 0


# -- suite ------------------------------------------------------------------


def cmd_suite(
    seed: int,
    trials: int,
    ring_name: Optional[str],
    names: Optional[List[str]],
    fail_dir: Optional[str],
) -> (int, List[dict]):
    from . import suite as suite_mod

    if trials < 1:
        raise _Usage("--trials must be at least 1")
    rings = [_parse_ring(ring_name)] if ring_name else suite_mod.RINGS
    if names:
        unknown = [n for n in names if n not in suite_mod.PROPERTIES]
        if unknown:
            raise _Usage(f"unknown properties: {', '.join(unknown)}")
    if fail_dir is not None:
        try:
            os.makedirs(fail_dir, exist_ok=True)
        except OSError as exc:
            raise _Usage(f"cannot use --fail-dir {fail_dir}: {exc.strerror}")
    ok, records = suite_mod.run_suite(
        seed=seed, trials=trials, names=names, fail_dir=fail_dir, rings=rings
    )
    summary = {
        "suite": "etacomplex",
        "seed": seed,
        "trials": trials,
        "properties": len({r["name"] for r in records}),
        "failures": sum(r["verdict"] != "pass" for r in records),
        "verdict": "pass" if ok else "fail",
    }
    return (0 if ok else 1), records + [summary]


# -- entry point ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(
        prog="etacomplex",
        description="checks, generators and the property suite for twisted "
        "Frobenius structures on complexes",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run one named check on an instance file")
    c.add_argument("file")
    c.add_argument("--op", required=True, choices=CHECK_OPS)
    c.add_argument("--seed", type=int, default=0, help="seed for auxiliary data (axioms op)")
    c.add_argument("-o", "--out", default=None, help="write the report here instead of stdout")

    g = sub.add_parser("gen", help="deterministically generate an instance file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--profile", required=True, choices=PROFILES)
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--ring", default=None, help=f"ring name (default ${RING_ENV} or Z/4)")
    g.add_argument("--r", type=int, default=2, help="twist scalar for scalar-eta/graded/pair profiles")
    g.add_argument("--max-len", type=int, default=3)
    g.add_argument("--max-rank", type=int, default=2)

    s = sub.add_parser("suite", help="run the full property suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=5)
    s.add_argument("--ring", default=None,
                   help="draw random instances over this ring only; theta-obstruction-reported "
                        "and cone-normalize keep their fixture rings")
    s.add_argument("--property", action="append", default=None, dest="properties",
                   help="run only this property (repeatable)")
    s.add_argument("-o", "--out", default=None)
    s.add_argument("--fail-dir", default=None,
                   help="directory for replayable failing-instance files")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.cmd == "check":
            with _open_report(args.out) as fh:
                code, records = cmd_check(args.file, args.op, args.seed)
                _emit(records, fh)
            return code
        if args.cmd == "gen":
            ring = args.ring or _default_ring_name()
            return cmd_gen(
                args.seed, args.profile, args.out, ring, args.r,
                args.max_len, args.max_rank,
            )
        if args.cmd == "suite":
            ring = args.ring  # None = full desk pool; env var narrows it
            if ring is None and os.environ.get(RING_ENV):
                ring = os.environ[RING_ENV]
            with _open_report(args.out) as fh:
                code, records = cmd_suite(
                    args.seed, args.trials, ring, args.properties, args.fail_dir
                )
                _emit(records, fh)
            return code
        raise _Usage(f"unknown command {args.cmd!r}")
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
