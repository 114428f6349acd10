"""The eta-twisted exact structure on complexes.

An eta-conflation is a chainwise-split exact pair whose homotopy invariant
h: Z[-1] -> X factors through eta_X: X(1) -> X.  Projective = injective
objects are the cones cone(eta_V); both lifting problems have closed-form
block solutions which are constructed (and re-validated) here, together
with the standard triangles of the stable category.  A question about eta^m
is asked of the complexes re-instanced over ``EtaPower(inst, m)``
(``reinstance_chain_map``).

Where eta is a monomorphism (t over ``Graded``, a non-zero-divisor c over
``ScalarEta``), a map factors through it iff it vanishes in the quotient by
eta.  Recognition there poses only h + d t + t d = 0 in that quotient, for
t alone (over the inner instance on level 0, over Z/|c| for Z), and the
factor is the rest divided by eta; see ``_factor_through_eta``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .base import BaseInstance
from .complexes import (
    ChainMap,
    Complex,
    ExactPair,
    HomotopyCertificate,
    LinearProblem,
    _add,
    _compose,
    _homotopy,
    add_family,
    apply_auto,
    apply_auto_map,
    block_diag,
    chain_map_problem,
    compose_chain_maps,
    cone,
    cone_complex,
    eta_after,
    eta_before,
    eta_chain_map,
    family_terms,
    homotopic,
    id_chain_map,
    normalize_exact_pair,
    shift_chain_map,
    shift_complex,
    solution_chain_map,
    validate_chain_map,
    validate_complex,
    verify,
    zero_chain_map,
)


class EtaConflation:
    """A recognized eta-conflation: pair + factorization witness.

    alpha: Z[-1] -> X(1) is a chain map and t a homotopy such that
    eta_X . alpha = h + d_X t + t d_{Z[-1]}  (a homotopic representative
    of the stored invariant h factors through eta_X).
    """

    __slots__ = ("pair", "alpha", "t")

    def __init__(self, pair: ExactPair, alpha: ChainMap, t: Dict[int, object]):
        self.pair = pair
        self.alpha = alpha
        self.t = t

    @property
    def instance(self):
        return self.pair.instance

    def h_tilde(self) -> ChainMap:
        """The representative of the invariant that factors through eta."""
        return eta_after(self.pair.sub, self.alpha)


# -- factorization through eta ----------------------------------------------


def _factor_through_eta(h: ChainMap, up_to_homotopy: bool):
    """Solve eta_X a^n = h^n + d_X^{n-1} t^n + t^{n+1} d_W^n for a chain map
    a: W -> X(1) and, when up_to_homotopy, a homotopy t^n: W^n -> X^{n-1}
    (else t = 0).  Returns (a, t) or None.

    Where eta is mono, phi = h + d t + t d factors through it iff phi
    vanishes in the quotient by eta (``inst.eta_quotient()``), and a is then
    phi / eta, a chain map because eta a = phi is one.  So only
    h + d t + t d = 0 is posed there, in t alone, one block per degree and
    piece, and the factor is divided out:
    - over ``Graded`` eta = t, the quotient is level 0, grade by grade over
      the inner instance, and a is phi moved down one level;
    - over ``ScalarEta(Z, c)`` with |c| >= 2 the quotient is Z/|c| (GF(|c|)
      for prime |c|); t lifts to [0, |c|) and a = phi / c exactly;
    - for a unit c the quotient is 0: t = 0 and a = c^-1 h, nothing solved;
    - for c = 0 every a has eta a = 0, so the system is posed over R itself
      and a = 0.
    ``EtaPower(ScalarEta(R, c), m)`` has eta = c^m, under the same rules.
    Where eta is a zero-divisor other than 0 (a non-unit c of Z/m) and for
    ``EtaPower`` over ``Graded``, a and t are solved together in Kronecker
    form (``_kronecker_factor``)."""
    inst = h.instance
    quo = inst.eta_quotient()
    if quo is None:
        return _kronecker_factor(h, up_to_homotopy)
    W, X = h.source, h.target
    dw, dx = W.diffs, X.diffs
    t: Dict[int, object] = {}
    zero = quo.instance is None  # the quotient is 0, and every phi vanishes there
    if up_to_homotopy and not zero:
        prob = LinearProblem(quo.instance)
        for n in W.support:
            below = quo.pieces(X.obj(n - 1))
            for j, w in quo.pieces(W.obj(n)).items():
                if j in below:
                    prob.add_unknown(("t", n, j), w, below[j])
        rdx = {n: quo.reduce(d) for n, d in dx.items()}
        rdw = {n: quo.reduce(d) for n, d in dw.items()}
        for n in W.support:
            here = quo.pieces(X.obj(n))
            rh = quo.reduce(h.components.get(n))
            for j, w in quo.pieces(W.obj(n)).items():
                if j not in here:
                    continue
                terms = []
                d = rdx.get(n - 1, {}).get(j)
                if d is not None and ("t", n, j) in prob.unknowns:
                    terms.append((("t", n, j), d, None, -1))
                d = rdw.get(n, {}).get(j)
                if d is not None and ("t", n + 1, j) in prob.unknowns:
                    terms.append((("t", n + 1, j), None, d, -1))
                prob.add_equation(w, here[j], terms, rh.get(j))
        sol = prob.solve()
        if sol is None:
            return None
        blocks: Dict[int, Dict] = {}
        for (_, n, j), m in sol.items():
            if not m.is_zero():
                blocks.setdefault(n, {})[j] = m
        t = {n: quo.lift(b, W.obj(n), X.obj(n - 1)) for n, b in blocks.items()}
    elif not zero and any(quo.reduce(f) for f in h.components.values()):
        return None
    X1 = apply_auto(X, 1)
    a = {}
    for n in W.support:
        phi = _add(inst, _add(inst, h.components.get(n), _compose(inst, dx.get(n - 1), t.get(n))),
                   _compose(inst, t.get(n + 1), dw.get(n)))
        a_n = None if phi is None else quo.divide(phi, W.obj(n), X1.obj(n))
        if a_n is not None:
            a[n] = a_n
    return ChainMap(W, X1, a), t


def _kronecker_factor(h: ChainMap, up_to_homotopy: bool):
    """``_factor_through_eta`` as one Kronecker system in a and t together,
    for every instance: eta_X a^n - d_X^{n-1} t^n - t^{n+1} d_W^n = h^n."""
    inst = h.instance
    W, X = h.source, h.target
    X1 = apply_auto(X, 1)
    prob = LinearProblem(inst)
    a_degs = chain_map_problem(prob, "a", W, X1)
    t_degs = add_family(prob, "t", W, X, -1) if up_to_homotopy else []
    for n in W.support:
        terms = family_terms(prob, "t", W, X, -1, n, (-1, -1))
        if ("a", n) in prob.unknowns:
            terms.append((("a", n), inst.eta(X.obj(n)), None, 1))
        prob.add_equation(W.obj(n), X.obj(n), terms, h.components.get(n))
    sol = prob.solve()
    if sol is None:
        return None
    return solution_chain_map(sol, "a", a_degs, W, X1), {n: sol[("t", n)] for n in t_degs}


def factor_through_eta(h: ChainMap) -> Optional[ChainMap]:
    """SOME chain map alpha: W -> X(1) with eta_X . alpha = h, else NONE."""
    found = _factor_through_eta(h, False)
    if found is None:
        return None
    alpha = found[0]
    verify(validate_chain_map(alpha), "factor_through_eta: the factor is not a chain map")
    verify(eta_after(h.target, alpha) == h, "factor_through_eta: eta . alpha != h")
    return alpha


def is_eta_conflation(i: ChainMap, p: ChainMap) -> Optional[EtaConflation]:
    """SOME witness iff some homotopic representative of the invariant of
    (i, p) factors through eta_X; raises NotChainwiseSplit if not split."""
    pair = normalize_exact_pair(i, p)
    found = _factor_through_eta(pair.h, True)
    if found is None:
        return None
    conf = EtaConflation(pair, *found)
    verify(validate_chain_map(conf.alpha), "is_eta_conflation: alpha is not a chain map")
    verify(HomotopyCertificate(conf.t).validate(conf.h_tilde(), pair.h), "is_eta_conflation: t is not a homotopy")
    return conf


# -- eta homotopy -----------------------------------------------------------


def eta_homotopic(f: ChainMap, g: ChainMap) -> Optional[HomotopyCertificate]:
    """SOME s with (f - g) eta_X = s^{n+1} d_X^n(1) + d_Y^{n-1} s^n, else NONE."""
    return _homotopy(f, g, True, "eta_homotopic: the certificate fails the eta-homotopy equation")


def eta_null_homotopic(f: ChainMap) -> Optional[HomotopyCertificate]:
    return eta_homotopic(f, zero_chain_map(f.source, f.target))


def stable_equal(f: ChainMap, g: ChainMap) -> bool:
    return eta_homotopic(f, g) is not None


# -- projective-injective objects and lifts ---------------------------------


def cone_eta(V: Complex) -> Complex:
    """cone(eta_V): V^{n+1}(1) (+) V^n with d = [[-d_V^{n+1}(1), 0], [eta, d_V]]."""
    return cone_complex(eta_chain_map(V))


class StandardConflation:
    """The normalized model X -> cone(f) -> Z of an eta-conflation, where
    f = eta_X . alpha for a chain map alpha: Z[-1] -> X(1)."""

    __slots__ = ("X", "Z", "alpha", "f", "middle", "i", "p")

    def __init__(self, alpha: ChainMap):
        W = alpha.source  # Z[-1]
        X1 = alpha.target  # X(1)
        X = apply_auto(X1, -1)
        if alpha.target != apply_auto(X, 1):
            raise ValueError("alpha must land in X(1)")
        self.X = X
        self.Z = shift_complex(W, 1)
        self.alpha = alpha
        self.f = eta_after(X, alpha)
        self.middle, self.i, self.p = cone(self.f)

    @property
    def instance(self):
        return self.alpha.instance


def projective_lift(g: ChainMap, V: Complex, defl: StandardConflation) -> ChainMap:
    """Lift g: cone(eta_V) -> Z through the deflation p: cone(f) -> Z.

    The lift is the block map [[g1, g2], [0, alpha(-1) g1[-1](-1)]]; it is a
    chain map with p . lift = g (validated before returning).
    """
    inst = g.instance
    P = cone_eta(V)
    if g.source != P or g.target != defl.Z:
        raise ValueError("g must be a chain map cone_eta(V) -> Z")
    X, Z, alpha = defl.X, defl.Z, defl.alpha
    comps = {}
    for n in sorted(set(defl.middle.objects) | set(P.objects)):
        v_top = inst.shift_obj(V.obj(n + 1), 1)  # V^{n+1}(1)
        v_bot = V.obj(n)
        gs = inst.split_mor(g.component(n), [Z.obj(n)], [v_top, v_bot])
        g1n, g2n = gs[0][0], gs[0][1]
        # bottom-right: alpha^n(-1) . g1^{n-1}(-1): V^n -> X^n, None (zero) where alpha^n is
        a = alpha.components.get(n)
        br = None
        if a is not None:
            g1prev = inst.split_mor(
                g.component(n - 1), [Z.obj(n - 1)], [inst.shift_obj(V.obj(n), 1), V.obj(n - 1)]
            )[0][0]
            br = inst.compose(inst.shift_mor(a, -1), inst.shift_mor(g1prev, -1))
        comps[n] = inst.block_mor(
            [[g1n, g2n], [None, br]], [Z.obj(n), X.obj(n)], [v_top, v_bot]
        )
    lift = ChainMap(P, defl.middle, comps)
    verify(validate_chain_map(lift), "projective_lift: the lift is not a chain map")
    verify(compose_chain_maps(defl.p, lift) == g, "projective_lift: p . lift != g")
    return lift


def injective_extend(g: ChainMap, V: Complex, infl: StandardConflation) -> ChainMap:
    """Extend g: X -> cone(eta_V) along the inflation i: X -> cone(f).

    The extension is [[g2[1](1) beta[1], g1], [0, g2]] with beta = infl.alpha;
    it is a chain map with extend . i = g (validated before returning).
    """
    inst = g.instance
    P = cone_eta(V)
    if g.source != infl.X or g.target != P:
        raise ValueError("g must be a chain map X -> cone_eta(V)")
    X, Z, beta = infl.X, infl.Z, infl.alpha
    comps = {}
    for n in sorted(set(infl.middle.objects)):
        v_top = inst.shift_obj(V.obj(n + 1), 1)
        v_bot = V.obj(n)
        gs = inst.split_mor(g.component(n), [v_top, v_bot], [X.obj(n)])
        g1n, g2n = gs[0][0], gs[1][0]
        # top-left: g2^{n+1}(1) . beta^{n+1}: Z^n -> V^{n+1}(1), None (zero) where beta^{n+1} is
        b = beta.components.get(n + 1)
        tl = None
        if b is not None:
            g2next = inst.split_mor(
                g.component(n + 1), [inst.shift_obj(V.obj(n + 2), 1), V.obj(n + 1)], [X.obj(n + 1)]
            )[1][0]
            tl = inst.compose(inst.shift_mor(g2next, 1), b)
        comps[n] = inst.block_mor(
            [[tl, g1n], [None, g2n]], [v_top, v_bot], [Z.obj(n), X.obj(n)]
        )
    ext = ChainMap(infl.middle, P, comps)
    verify(validate_chain_map(ext), "injective_extend: the extension is not a chain map")
    verify(compose_chain_maps(ext, infl.i) == g, "injective_extend: ext . i != g")
    return ext


# -- enough projectives / injectives ----------------------------------------


def env_inflation(X: Complex) -> StandardConflation:
    """X -> cone(eta_X) -> X(1)[1] with witness alpha = id_{X(1)}."""
    return StandardConflation(id_chain_map(apply_auto(X, 1)))


def cover_deflation(X: Complex) -> StandardConflation:
    """cone(eta_W) -> X for W = X[-1](-1); witness alpha = id."""
    W = shift_complex(apply_auto(X, -1), -1)
    conf = StandardConflation(id_chain_map(apply_auto(W, 1)))
    # conf.Z = W(1)[1] = X exactly
    verify(conf.Z == X, "cover_deflation: the quotient is not X")
    return conf


def factors_through_env(f: ChainMap) -> Optional[ChainMap]:
    """SOME u: cone(eta_X) -> Y with u . i = f for the envelope inflation."""
    inst = f.instance
    X, Y = f.source, f.target
    env = env_inflation(X)
    P, i = env.middle, env.i
    prob = LinearProblem(inst)
    degs = chain_map_problem(prob, "u", P, Y)
    for n in X.support:
        terms = []
        i_n = i.components.get(n)  # an absent i^n is zero, and so is its term
        if i_n is not None and ("u", n) in prob.unknowns:
            terms.append((("u", n), None, i_n, 1))
        prob.add_equation(X.obj(n), Y.obj(n), terms, f.components.get(n))
    sol = prob.solve()
    if sol is None:
        return None
    u = solution_chain_map(sol, "u", degs, P, Y)
    verify(validate_chain_map(u), "factors_through_env: u is not a chain map")
    verify(compose_chain_maps(u, i) == f, "factors_through_env: u . i != f")
    return u


# -- standard triangles and suspension --------------------------------------


def standard_triangle(f: ChainMap) -> Tuple[ChainMap, ChainMap, ChainMap]:
    """X -> Y -> cone(f eta_X) -> X(1)[1]; returns (f, inj, proj)."""
    _, inj, proj = cone(eta_before(f))
    return f, inj, proj


def suspension(X: Complex) -> Complex:
    return apply_auto(shift_complex(X, 1), 1)


def suspend_map(f: ChainMap) -> ChainMap:
    """S(f): X(1)[1] -> Y(1)[1], induced on cokernels of the envelope
    inflations; well-defined up to stable equality."""
    inst = f.instance
    X, Y = f.source, f.target
    envX = env_inflation(X)
    envY = env_inflation(Y)
    g = compose_chain_maps(envY.i, f)  # X -> cone(eta_Y)
    ext = injective_extend(g, Y, envX)  # cone(eta_X) -> cone(eta_Y)
    # induced map on quotients = top-left block
    SX, SY = suspension(X), suspension(Y)
    comps = {}
    for n in sorted(set(SX.objects) | set(SY.objects)):
        xt = inst.shift_obj(X.obj(n + 1), 1)
        yt = inst.shift_obj(Y.obj(n + 1), 1)
        blk = inst.split_mor(
            ext.component(n), [yt, Y.obj(n)], [xt, X.obj(n)]
        )[0][0]
        comps[n] = blk
    sf = ChainMap(SX, SY, comps)
    verify(validate_chain_map(sf), "suspend_map: the result is not a chain map")
    return sf


# -- degenerate calibration and towers --------------------------------------


def is_split_pair(i: ChainMap, p: ChainMap) -> bool:
    """True iff the chainwise-split pair is split: invariant h ~ 0."""
    pair = normalize_exact_pair(i, p)
    return homotopic(pair.h, zero_chain_map(pair.h.source, pair.h.target)) is not None


def reinstance_complex(c: Complex, inst: BaseInstance) -> Complex:
    return Complex(inst, dict(c.objects), dict(c.diffs))


def reinstance_chain_map(f: ChainMap, inst: BaseInstance) -> ChainMap:
    return ChainMap(
        reinstance_complex(f.source, inst),
        reinstance_complex(f.target, inst),
        dict(f.components),
    )


# -- exact-structure axiom witnesses (Ex1), (Ex2) and duals -----------------


def ex1_composite(defl1: StandardConflation, beta: ChainMap) -> bool:
    """Closure of deflations under composition, with the explicit witness.

    defl1: Y = cone(f) -> Z with f = eta_X alpha.  beta: Y[-1] -> V(1)
    defines the second deflation W = cone(eta_V beta) -> Y.  Verifies the
    block identities W = cone((f; g1)) and eta_{cone(g2)} (alpha; beta1)
    = (f; g1), then recognizes the composite deflation.
    """
    inst = defl1.instance
    X, Z, alpha, f, Y = defl1.X, defl1.Z, defl1.alpha, defl1.f, defl1.middle
    defl0 = StandardConflation(beta)
    V = defl0.X
    W = defl0.middle
    g = defl0.f  # Y[-1] -> V, g = eta_V beta
    Ym1 = shift_complex(Y, -1)
    Zm1 = shift_complex(Z, -1)
    Xm1 = shift_complex(X, -1)
    # split g and beta into their Z[-1]/X[-1] blocks
    g1_c, g2_c, b1_c = {}, {}, {}
    V1 = apply_auto(V, 1)
    for n in sorted(set(Ym1.objects)):
        zs, xs = Zm1.obj(n), Xm1.obj(n)
        gg = inst.split_mor(g.component(n), [V.obj(n)], [zs, xs])
        g1_c[n], g2_c[n] = gg[0][0], gg[0][1]
        b1_c[n] = inst.split_mor(beta.component(n), [V1.obj(n)], [zs, xs])[0][0]
    g2 = ChainMap(Xm1, V, g2_c)
    ok = validate_chain_map(g2)
    cg2 = cone_complex(g2)
    fg1 = ChainMap(Zm1, cg2, {
        n: inst.block_mor(
            [[f.components.get(n)], [g1_c.get(n)]],  # None is a zero block
            [X.obj(n), V.obj(n)],
            [Zm1.obj(n)],
        )
        for n in sorted(set(Zm1.objects))
    })
    ok = ok and validate_chain_map(fg1)
    # W = cone((f; g1)) exactly (block associativity of the cone)
    cfg1, sub_i, _ = cone(fg1)
    ok = ok and (W == cfg1)
    # the witness (alpha; beta1) factors (f; g1) through eta_{cone(g2)}
    ab = ChainMap(Zm1, apply_auto(cg2, 1), {
        n: inst.block_mor(
            [[alpha.components.get(n)], [b1_c.get(n)]],
            [inst.shift_obj(X.obj(n), 1), V1.obj(n)],
            [Zm1.obj(n)],
        )
        for n in sorted(set(Zm1.objects))
    })
    ok = ok and validate_chain_map(ab)
    ok = ok and (eta_after(cg2, ab) == fg1)
    if not ok:
        return False
    # the composite W -> Y -> Z is a recognized eta-deflation
    return is_eta_conflation(sub_i, compose_chain_maps(defl1.p, defl0.p)) is not None


def ex2_pullback(defl: StandardConflation, h: ChainMap) -> bool:
    """Pullback of the deflation p: cone(f) -> Z along h: Z' -> Z.

    Built as cone(f h[-1]) -> Z' with the square maps (1, 0) and
    [[h, 0], [0, Id]]; checks the cone is a complex, the square commutes and
    the pullback pair is an eta-conflation.
    """
    inst = defl.instance
    X, Z, alpha = defl.X, defl.Z, defl.alpha
    Zp = h.source
    hm1 = shift_chain_map(h, -1)
    fh = compose_chain_maps(defl.f, hm1)  # Z'[-1] -> X
    pull = StandardConflation(compose_chain_maps(alpha, hm1))
    verify(pull.f == fh, "ex2_pullback: the pulled-back map is not f . h[-1]")
    # the square: middle map [[h, 0], [0, Id]] : cone(f h[-1]) -> cone(f)
    mid = ChainMap(pull.middle, defl.middle, {
        n: block_diag(inst, [h.components.get(n), inst.id_mor(X.obj(n))],
                      [Z.obj(n), X.obj(n)], [Zp.obj(n), X.obj(n)])
        for n in sorted(set(pull.middle.objects) | set(defl.middle.objects))
    })
    if not (validate_complex(pull.middle) and validate_chain_map(mid)):
        return False
    if compose_chain_maps(defl.p, mid) != compose_chain_maps(h, pull.p):
        return False
    return is_eta_conflation(pull.i, pull.p) is not None


def ex1_op_composite(infl1: StandardConflation, gamma: ChainMap) -> bool:
    """Closure of inflations under composition.

    infl1: X -> Y = cone(f) with f = eta_X alpha; gamma: U[-1] -> Y(1)
    defines the second inflation Y -> W = cone(g) with g = eta_Y gamma.  The
    composite X -> W has quotient Q = cone(p g) = U (+) Z, for p: Y -> Z the
    deflation of infl1, and W -> Q is Id_U (+) p; checks the pair is an
    eta-conflation.
    """
    inst = infl1.instance
    Z, Y, p = infl1.Z, infl1.middle, infl1.p
    infl2 = StandardConflation(gamma)
    verify(infl2.X == Y, "ex1_op_composite: the second inflation does not start at Y")
    W, U = infl2.middle, infl2.Z
    composite = compose_chain_maps(infl2.i, infl1.i)  # X -> W
    Q = cone_complex(compose_chain_maps(p, infl2.f))  # Q^n = U^n (+) Z^n
    proj = ChainMap(W, Q, {
        n: block_diag(inst, [inst.id_mor(U.obj(n)), p.components.get(n)],
                      [U.obj(n), Z.obj(n)], [U.obj(n), Y.obj(n)])
        for n in sorted(W.objects)
    })
    if not validate_chain_map(proj):
        return False
    return is_eta_conflation(composite, proj) is not None


def ex2_op_pushout(infl: StandardConflation, h: ChainMap) -> bool:
    """Pushout of the inflation i: X -> cone(f) along h: X -> X'; checks the
    cone is a complex, the square commutes and the pair is an eta-conflation."""
    inst = infl.instance
    X, Z, alpha = infl.X, infl.Z, infl.alpha
    Xp = h.target
    # h f = eta_{X'} (h(1) alpha) by naturality
    push = StandardConflation(compose_chain_maps(apply_auto_map(h, 1), alpha))
    mid = ChainMap(infl.middle, push.middle, {
        n: block_diag(inst, [inst.id_mor(Z.obj(n)), h.components.get(n)],
                      [Z.obj(n), Xp.obj(n)], [Z.obj(n), X.obj(n)])
        for n in sorted(set(infl.middle.objects) | set(push.middle.objects))
    })
    if not (validate_complex(push.middle) and validate_chain_map(mid)):
        return False
    if compose_chain_maps(mid, infl.i) != compose_chain_maps(push.i, h):
        return False
    return is_eta_conflation(push.i, push.p) is not None
