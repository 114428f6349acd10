"""Seeded property-suite runner with machine-readable reports.

Every invariant of the library has a named property here.  A property is a
function ``prop(rng, rings) -> (ok, detail, payload)``: ``rings`` is the pool
its random instances draw their coefficient ring from, and ``payload`` is an
optional ``(kind, object)`` pair that can be written to an instance file for
replay when the property fails.

Determinism contract: the per-trial generator is seeded from the string
``"{seed}:{name}:{trial}"`` using the standard library's Mersenne Twister,
so replaying with the same suite seed reproduces identical verdicts.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import Graded, ScalarEta
from .complexes import (
    ChainMap,
    Complex,
    compose_chain_maps,
    cone,
    cone_complex,
    eta_chain_map,
    eta_on_cone,
    homotopic,
    id_chain_map,
    normalize_exact_pair,
    null_homotopic,
    shift_complex,
    apply_auto,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
)
from .frobenius import (
    cone_eta,
    cover_deflation,
    env_inflation,
    eta_homotopic,
    eta_null_homotopic,
    ex1_composite,
    ex1_op_composite,
    ex2_op_pushout,
    ex2_pullback,
    factors_through_env,
    injective_extend,
    is_eta_conflation,
    is_split_pair,
    projective_lift,
)
from .generators import (
    columnwise_null_delta_map,
    conjugate_pair,
    inductive_delta_complex,
    obstructed_delta_complex,
    random_chain_map,
    random_complex,
    random_delta_complex,
    random_delta_map,
    random_gmorphism,
    random_gsystem,
    random_split_pair,
    random_std_conflation,
    random_strip_delta_complex,
)
from .gsystems import (
    Obstruction,
    eta_null_complete,
    find_seed,
    gmorphism_to_chain_map,
    gs_compose,
    gsystem_to_complex,
    phi_mor,
    psi,
    psi_inv,
    psi_inv_mor,
    psi_mor,
    theta_extend,
    theta_extend_mor,
    theta_triangle_check,
    totalize_chain_map,
    validate_delta,
    validate_gmorphism,
    validate_gsystem,
    xi_cone_identity,
)
from .matrix import RingMatrix
from .rings import GF, ZZ, CoeffRing, Zmod
from .serialize import payload_from_json, payload_to_json, save_instance_file

RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), GF(5)]


def _scalar_instance(rng: random.Random, rings: Sequence[CoeffRing]) -> ScalarEta:
    ring = rng.choice(rings)
    r = ring.canon(rng.choice([0, 1, 2, 3]))
    return ScalarEta(ring, r)


def _mixed_instance(rng: random.Random, rings: Sequence[CoeffRing]):
    inst = _scalar_instance(rng, rings)
    if rng.random() < 0.3:
        return Graded(inst)
    return inst


def _light_instance(rng: random.Random, rings: Sequence[CoeffRing]):
    """Like _mixed_instance but graded only occasionally; for properties
    whose recognizers solve large linear systems per trial."""
    inst = _scalar_instance(rng, rings)
    if rng.random() < 0.12:
        return Graded(inst)
    return inst


# -- conflation axioms ------------------------------------------------------
#
# The random witness of each closure axiom: a complex of length at most 2 and
# ranks at most ``max_rank``, and a chain map between it and the conflation.
# ``AXIOMS`` pairs each witness with its check. ``etacomplex check --op
# axioms`` runs this one table at the default witness rank, and the suite's
# ``axiom-<name>`` properties run it at rank 1.


def ex1_witness(defl, rng, max_rank=2):
    """beta: Y[-1] -> V(1) for a random V, to compose with the deflation."""
    V = random_complex(defl.instance, rng, max_len=2, max_rank=max_rank)
    return random_chain_map(shift_complex(defl.middle, -1), apply_auto(V, 1), rng)


def ex1_op_witness(infl, rng, max_rank=2):
    """gamma: U[-1] -> Y(1) for a random U, to compose with the inflation."""
    U = random_complex(infl.instance, rng, max_len=2, max_rank=max_rank)
    return random_chain_map(shift_complex(U, -1), apply_auto(infl.middle, 1), rng)


def ex2_witness(defl, rng, max_rank=2):
    """h: Z' -> Z for a random Z', to pull the deflation back along."""
    zp = random_complex(defl.instance, rng, max_len=2, max_rank=max_rank)
    return random_chain_map(zp, defl.Z, rng)


def ex2_op_witness(infl, rng, max_rank=2):
    """h: X -> X' for a random X', to push the inflation out along."""
    xp = random_complex(infl.instance, rng, max_len=2, max_rank=max_rank)
    return random_chain_map(infl.X, xp, rng)


# name -> (witness draw, check): composites of deflations and of inflations,
# pullbacks of deflations and pushouts of inflations are again conflations
AXIOMS: Dict[str, Tuple[Callable, Callable]] = {
    "ex1": (ex1_witness, ex1_composite),
    "ex1-op": (ex1_op_witness, ex1_op_composite),
    "ex2": (ex2_witness, ex2_pullback),
    "ex2-op": (ex2_op_witness, ex2_op_pushout),
}


def _light_conflation(rng, rings):
    """A standard conflation of length at most 2, of rank 1 if graded."""
    inst = _light_instance(rng, rings)
    return random_std_conflation(inst, rng, max_len=2, max_rank=1 if isinstance(inst, Graded) else 2)


def prop_axiom_ex0(rng, rings):
    """The identity deflation onto any object is a conflation."""
    inst = _mixed_instance(rng, rings)
    x = random_complex(inst, rng, max_len=2)
    zero = Complex(inst, {}, {})
    i = zero_chain_map(zero, x)
    p = id_chain_map(x)
    ok = is_eta_conflation(i, p) is not None
    return ok, "identity deflation recognized" if ok else "not recognized", ("pair", (i, p))


def _axiom_property(name):
    """The suite property of ``AXIOMS[name]``: its check on a light standard
    conflation and a rank-1 witness."""
    witness, check = AXIOMS[name]

    def prop(rng, rings):
        conf = _light_conflation(rng, rings)
        return check(conf, witness(conf, rng, max_rank=1)), "", ("pair", (conf.i, conf.p))

    return prop


# -- Frobenius property -----------------------------------------------------


def prop_projective_lift(rng, rings):
    """cone_eta(V) lifts exactly against every generated deflation."""
    inst = _mixed_instance(rng, rings)
    defl = random_std_conflation(inst, rng, max_len=2)
    V = random_complex(inst, rng, max_len=2)
    P = cone_eta(V)
    g = random_chain_map(P, defl.Z, rng)
    lift = projective_lift(g, V, defl)
    ok = validate_chain_map(lift) and compose_chain_maps(defl.p, lift) == g
    return ok, "", ("pair", (defl.i, defl.p))


def prop_injective_extend(rng, rings):
    """cone_eta(V) extends exactly against every generated inflation."""
    inst = _mixed_instance(rng, rings)
    infl = random_std_conflation(inst, rng, max_len=2)
    V = random_complex(inst, rng, max_len=2)
    P = cone_eta(V)
    g = random_chain_map(infl.X, P, rng)
    ext = injective_extend(g, V, infl)
    ok = validate_chain_map(ext) and compose_chain_maps(ext, infl.i) == g
    return ok, "", ("pair", (infl.i, infl.p))


def prop_env_cover_conflations(rng, rings):
    """Envelope inflations and cover deflations are recognized conflations."""
    inst = _light_instance(rng, rings)
    rank = 1 if isinstance(inst, Graded) else 2
    x = random_complex(inst, rng, max_len=2, max_rank=rank)
    conf = env_inflation(x) if rng.random() < 0.5 else cover_deflation(x)
    ok = is_eta_conflation(conf.i, conf.p) is not None
    return ok, "", ("complex", x)


# -- conflation recognition and normalization -------------------------------


def prop_conflation_recognized(rng, rings):
    """Conjugated standard conflations pass the recognizer with a witness."""
    defl = _light_conflation(rng, rings)
    i2, p2 = conjugate_pair(defl.i, defl.p, rng)
    ok = is_eta_conflation(i2, p2) is not None
    return ok, "", ("pair", (i2, p2))


def prop_cone_normalize(rng, rings):
    """The standard pair of a cone normalizes back to its invariant and the
    twist acts on the cone by the expected triangle rotation identity."""
    # deterministic fixture with f d_X != 0: catches a wrong sign in the
    # cone differential even when the random trials happen to commute
    inst0 = ScalarEta(ZZ, 1)
    two = {0: RingMatrix.from_rows(ZZ, [[2]])}
    one = {n: RingMatrix.from_rows(ZZ, [[1]]) for n in (0, 1)}
    X0 = Complex(inst0, {0: 1, 1: 1}, dict(two))
    f0 = ChainMap(X0, X0, one)
    c0 = cone_complex(f0)
    if not validate_complex(c0):
        return False, "cone differential does not square to zero", ("complex", c0)

    inst = _mixed_instance(rng, rings)
    W = random_complex(inst, rng, max_len=2)
    X = random_complex(inst, rng, max_len=2)
    f = random_chain_map(W, X, rng)
    c, i, p = cone(f)
    if not validate_complex(c):
        return False, "cone differential does not square to zero", ("complex", c)
    pair = normalize_exact_pair(i, p)
    ok = homotopic(pair.h, f) is not None
    ok = ok and eta_on_cone(f)
    return ok, "", ("chain-maps", (i, p))


def prop_calibration_unit(rng, rings):
    """With an invertible twist scalar every chainwise split pair is a
    conflation."""
    ring = rng.choice(rings)
    inst = ScalarEta(ring, ring.one())
    i, p = random_split_pair(inst, rng, max_len=2)
    i, p = conjugate_pair(i, p, rng)
    ok = is_eta_conflation(i, p) is not None
    return ok, "", ("pair", (i, p))


def prop_calibration_zero(rng, rings):
    """With twist scalar zero, conflation recognition equals split-pair
    recognition."""
    ring = rng.choice(rings)
    inst = ScalarEta(ring, ring.zero())
    i, p = random_split_pair(inst, rng, max_len=2)
    ok = (is_eta_conflation(i, p) is not None) == is_split_pair(i, p)
    return ok, "", ("pair", (i, p))


# -- homotopy ----------------------------------------------------------------


def prop_homotopy_agreement(rng, rings):
    """Twisted homotopy of f, g is equivalent to ordinary homotopy after
    precomposition with the structural map eta."""
    inst = _mixed_instance(rng, rings)
    a = random_complex(inst, rng, max_len=3)
    b = random_complex(inst, rng, max_len=3)
    f = random_chain_map(a, b, rng)
    g = random_chain_map(a, b, rng)
    ea = eta_chain_map(a)
    lhs = eta_homotopic(f, g) is not None
    rhs = (
        homotopic(compose_chain_maps(f, ea), compose_chain_maps(g, ea)) is not None
    )
    return lhs == rhs, f"twisted={lhs} precomposed={rhs}", ("chain-maps", (f, g))


def prop_null_factorization(rng, rings):
    """A map is twisted-null-homotopic iff it factors through the envelope
    inflation of its source."""
    inst = _mixed_instance(rng, rings)
    a = random_complex(inst, rng, max_len=3)
    b = random_complex(inst, rng, max_len=3)
    f = random_chain_map(a, b, rng)
    null = eta_null_homotopic(f) is not None
    fact = factors_through_env(f) is not None
    return null == fact, f"null={null} factors={fact}", ("chain-maps", (f, zero_chain_map(a, b)))


# -- bridge: reindexing and totalization ------------------------------------


def prop_psi_roundtrip(rng, rings):
    """The position reindexing between the two bigraded conventions is an
    exact involution that preserves composition."""
    ring = rng.choice(rings)
    x = random_gsystem(ring, rng)
    y = random_gsystem(ring, rng)
    gx = psi_inv(x)
    ok = validate_gsystem(gx) and psi(gx) == x
    f = random_gmorphism(x, y, rng)
    gf = psi_inv_mor(f)
    ok = ok and validate_gmorphism(gf) and psi_mor(gf) == f
    g = random_gmorphism(y, random_gsystem(ring, rng), rng)
    ok = ok and psi_inv_mor(gs_compose(g, f)) == gs_compose(
        psi_inv_mor(g), psi_inv_mor(f)
    )
    return ok, "", ("gsystem", x)


def prop_totalize_functor(rng, rings):
    """Totalization is functorial and sends graded identities and the
    structural twist map to the identity."""
    ring = rng.choice(rings)
    x = random_gsystem(ring, rng)
    y = random_gsystem(ring, rng)
    z = random_gsystem(ring, rng)
    f = random_gmorphism(x, y, rng)
    g = random_gmorphism(y, z, rng)
    tf = totalize_chain_map(gmorphism_to_chain_map(f))
    tg = totalize_chain_map(gmorphism_to_chain_map(g))
    tgf = totalize_chain_map(gmorphism_to_chain_map(gs_compose(g, f)))
    ok = validate_chain_map(tf) and compose_chain_maps(tg, tf) == tgf
    te = totalize_mor_eta(x)
    ok = ok and te
    return ok, "", ("gsystem", x)


def totalize_mor_eta(x) -> bool:
    """Totalized structural twist equals the identity chain map."""
    t = totalize_chain_map(eta_chain_map(gsystem_to_complex(x)))
    return t == id_chain_map(t.target)


def prop_xi_cone_eta(rng, rings):
    """Totalization carries the cone of the structural twist to the cone of
    the identity, up to the canonical interleave permutation."""
    ring = rng.choice(rings)
    v = random_gsystem(ring, rng)
    return xi_cone_identity(v), "", ("gsystem", v)


# -- bridge: inductive completion -------------------------------------------


def prop_theta_revalidates(rng, rings):
    """Completion outputs always satisfy the full higher square-zero
    relations, and strip inputs complete with the signed level-one part."""
    ring = rng.choice(rings)
    x = random_delta_complex(ring, rng)
    if not validate_delta(x):
        return False, "generator produced invalid completion input", ("delta-complex", x)
    out = theta_extend(x)
    if isinstance(out, Obstruction):
        return False, f"unexpected obstruction: {out.to_json()}", ("delta-complex", x)
    ok = validate_gsystem(out)
    for (i, j), m in x.delta0.items():
        ok = ok and out.diff(0, i + j, j) == m
    return ok, "", ("delta-complex", x)


def prop_theta_obstruction_reported(rng, rings):
    """Engineered non-completable inputs yield a reported obstruction with a
    level and position, never a silent pass, while the inductive template
    genuinely needs and gets a level-two correction."""
    ring = rng.choice([ZZ, Zmod(8), Zmod(9), GF(5)])
    bad = obstructed_delta_complex(ring)
    out = theta_extend(bad)
    ok = isinstance(out, Obstruction) and out.level == 1 and bool(out) is False
    tmpl = inductive_delta_complex(rng)
    ext = theta_extend(tmpl)
    ok = ok and not isinstance(ext, Obstruction)
    ok = ok and ext.max_level() >= 2 and validate_gsystem(ext)
    return ok, "", ("delta-complex", bad)


def prop_theta_triangle(rng, rings):
    """On strictly solvable strip instances the completion intertwines cones
    and shifts exactly."""
    ring = rng.choice(rings)
    X = random_strip_delta_complex(ring, rng)
    Y = random_strip_delta_complex(ring, rng)
    alpha = random_delta_map(X, Y, rng)
    res = theta_triangle_check(alpha)
    if isinstance(res, Obstruction):
        # morphism extension against fixed completions can genuinely
        # obstruct; that is a reported outcome, not a failure
        ok = res.stage == "theta-extend-mor"
        return ok, f"reported {res.to_json()}", ("delta-map", alpha)
    return bool(res), "", ("delta-map", alpha)


def prop_eta_null_complete(rng, rings):
    """Column-wise null-homotopic endomorphisms complete to a full twisted
    homotopy family whose certificate validates."""
    ring = rng.choice(rings)
    x = random_strip_delta_complex(ring, rng)
    if not x.columns:
        return True, "empty instance", None
    alpha = columnwise_null_delta_map(x, x, rng)
    xhat = theta_extend(x)
    if isinstance(xhat, Obstruction):
        return False, "source did not complete", ("delta-complex", x)
    fhat = theta_extend_mor(alpha, xhat, xhat)
    if isinstance(fhat, Obstruction):
        return True, "morphism extension obstructed (reported)", None
    seed = find_seed(fhat)
    if seed is None:
        return False, "no homotopy seed for columnwise-null map", ("delta-map", alpha)
    cert = eta_null_complete(fhat, seed[0], seed[1])
    ok = not isinstance(cert, Obstruction)
    return ok, "", ("delta-map", alpha)


def prop_phi_null(rng, rings):
    """The composite realization sends column-wise null-homotopic
    endomorphisms to classically null-homotopic totalized maps."""
    ring = rng.choice(rings)
    x = random_strip_delta_complex(ring, rng)
    if not x.columns:
        return True, "empty instance", None
    alpha = columnwise_null_delta_map(x, x, rng)
    fc = phi_mor(alpha)
    if isinstance(fc, Obstruction):
        ok = fc.stage in ("theta-extend", "theta-extend-mor")
        return ok, f"reported {fc.to_json()}", ("delta-map", alpha)
    ok = validate_chain_map(fc) and null_homotopic(fc) is not None
    return ok, "", ("delta-map", alpha)


def prop_serialize_roundtrip(rng, rings):
    """Instance files are canonical: parse then serialize is the identity on
    serialized form."""
    ring = rng.choice(rings)
    x = random_delta_complex(ring, rng)
    first = json.dumps(payload_to_json("delta-complex", x), sort_keys=True)
    kind, back = payload_from_json(json.loads(first))
    second = json.dumps(payload_to_json(kind, back), sort_keys=True)
    inst = _mixed_instance(rng, rings)
    c = random_complex(inst, rng, max_len=3)
    cf = json.dumps(payload_to_json("complex", c), sort_keys=True)
    kind2, c2 = payload_from_json(json.loads(cf))
    cs = json.dumps(payload_to_json(kind2, c2), sort_keys=True)
    ok = first == second and cf == cs and c2 == c
    return ok, "", ("complex", c)


PROPERTIES: Dict[str, Callable] = {
    "axiom-ex0": prop_axiom_ex0,
    **{f"axiom-{name}": _axiom_property(name) for name in AXIOMS},
    "projective-lift": prop_projective_lift,
    "injective-extend": prop_injective_extend,
    "env-cover-conflations": prop_env_cover_conflations,
    "conflation-recognized": prop_conflation_recognized,
    "cone-normalize": prop_cone_normalize,
    "calibration-unit": prop_calibration_unit,
    "calibration-zero": prop_calibration_zero,
    "homotopy-agreement": prop_homotopy_agreement,
    "null-factorization": prop_null_factorization,
    "psi-roundtrip": prop_psi_roundtrip,
    "totalize-functor": prop_totalize_functor,
    "xi-cone-eta": prop_xi_cone_eta,
    "theta-revalidates": prop_theta_revalidates,
    "theta-obstruction-reported": prop_theta_obstruction_reported,
    "theta-triangle": prop_theta_triangle,
    "eta-null-complete": prop_eta_null_complete,
    "phi-null": prop_phi_null,
    "serialize-roundtrip": prop_serialize_roundtrip,
}


def trial_rng(seed: int, name: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{trial}")


def run_property(
    name: str,
    seed: int,
    trials: int,
    fail_dir: Optional[str] = None,
    rings: Sequence[CoeffRing] = RINGS,
) -> List[dict]:
    """Run one named property for the given number of trials, drawing rings from ``rings``.

    Returns one record per trial, ordered by trial index.
    """
    prop = PROPERTIES[name]
    records = []
    for t in range(trials):
        rng = trial_rng(seed, name, t)
        start = time.perf_counter()
        try:
            ok, detail, payload = prop(rng, rings)
        except Exception as exc:  # a crash is a failure, not a report gap
            ok, detail, payload = False, f"exception: {exc!r}", None
        elapsed = time.perf_counter() - start
        rec = {
            "name": name,
            "trial": t,
            "seed": seed,
            "verdict": "pass" if ok else "fail",
            "time": round(elapsed, 6),
        }
        if detail:
            rec["detail"] = detail
        if not ok and payload is not None and fail_dir is not None:
            os.makedirs(fail_dir, exist_ok=True)
            path = os.path.join(fail_dir, f"{name}-trial{t}.json")
            try:
                save_instance_file(path, payload[0], payload[1])
                rec["replay"] = path
            except Exception:
                pass
        records.append(rec)
    return records


def run_suite(
    seed: int,
    trials: int,
    names: Optional[List[str]] = None,
    fail_dir: Optional[str] = None,
    rings: Sequence[CoeffRing] = RINGS,
) -> Tuple[bool, List[dict]]:
    """Run every named property over the ring pool ``rings``; returns (all_passed, records)."""
    names = list(PROPERTIES) if names is None else names
    records: List[dict] = []
    ok = True
    for name in names:
        recs = run_property(name, seed, trials, fail_dir=fail_dir, rings=rings)
        records.extend(recs)
        ok = ok and all(r["verdict"] == "pass" for r in recs)
    return ok, records
