import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from etacomplex import complexes, linalg
from etacomplex.base import EtaPower, Graded, GradedMorphism, GradedObject, GradedQuotient, ScalarEta
from etacomplex.cli import main
from etacomplex.complexes import (
    ChainMap,
    Complex,
    ExactPair,
    HomotopyCertificate,
    LinearProblem,
    NotChainwiseSplit,
    _summand_inj,
    _summand_proj,
    add_chain_maps,
    apply_auto,
    block_sum,
    chain_map_problem,
    apply_auto_map,
    compose_chain_maps,
    cone,
    eta_after,
    eta_before,
    eta_chain_map,
    eta_on_cone,
    homotopic,
    id_chain_map,
    normalize_exact_pair,
    null_homotopic,
    shift_chain_map,
    shift_complex,
    sub_chain_maps,
    validate_chain_map,
    validate_complex,
    zero_chain_map,
)
from etacomplex.frobenius import (
    env_inflation,
    eta_homotopic,
    factor_through_eta,
    factors_through_env,
    is_eta_conflation,
    reinstance_chain_map,
)
from etacomplex.generators import (
    conjugate_pair,
    random_automorphism,
    random_chain_map,
    random_complex,
    random_split_pair,
    random_std_conflation,
)
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, QQ, ZZ, Zmod
from etacomplex.suite import run_suite

from dense_adapter import dense_build

RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), GF(5)]


def instances():
    out = [ScalarEta(Zmod(4), 2), ScalarEta(Zmod(8), 2), ScalarEta(GF(5), 1), ScalarEta(ZZ, 2)]
    out.append(Graded(ScalarEta(Zmod(4), 1)))
    out.append(Graded(ScalarEta(GF(5), 1)))
    return out


class TestValidation:
    def test_zero_complex(self):
        inst = ScalarEta(ZZ, 1)
        assert validate_complex(Complex(inst, {}, {}))

    def test_mod4_two_term(self):
        inst = ScalarEta(Zmod(4), 2)
        d = RingMatrix.from_rows(Zmod(4), [[2]])
        c = Complex(inst, {0: 1, 1: 1}, {0: d})
        assert validate_complex(c)

    def test_invalid_three_term(self):
        inst = ScalarEta(Zmod(4), 2)
        one = RingMatrix.from_rows(Zmod(4), [[1]])
        c = Complex(inst, {0: 1, 1: 1, 2: 1}, {0: one, 1: one})
        assert not validate_complex(c)

    def test_random_generated_complexes_validate(self):
        rng = random.Random(20)
        for inst in instances():
            for _ in range(25):
                c = random_complex(inst, rng)
                assert validate_complex(c)

    def test_random_generated_chain_maps_validate(self):
        rng = random.Random(21)
        for inst in instances():
            for _ in range(15):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                assert validate_chain_map(f)


class TestShifts:
    def test_double_shift_round_trip(self):
        rng = random.Random(22)
        for inst in instances():
            c = random_complex(inst, rng)
            assert shift_complex(shift_complex(c, 1), -1) == c
            assert apply_auto(apply_auto(c, 1), -1) == c
            assert apply_auto(c, 0) == c

    def test_even_shift_is_two_odd_ones(self):
        rng = random.Random(40)
        for inst in instances():
            for _ in range(5):
                c = random_complex(inst, rng)
                assert shift_complex(c, 2) == shift_complex(shift_complex(c, 1), 1)
                assert shift_complex(c, -2) == shift_complex(shift_complex(c, -1), -1)

    def test_shift_negates_differential(self):
        inst = ScalarEta(Zmod(4), 2)
        d = RingMatrix.from_rows(Zmod(4), [[2]])
        c = Complex(inst, {0: 1, 1: 1}, {0: d})
        s = shift_complex(c, 1)
        assert s.obj(-1) == 1
        assert s.diff(-1) == RingMatrix.from_rows(Zmod(4), [[2]])  # -2 = 2 mod 4

    def test_auto_commutes_with_shift(self):
        # (1)[1] = [1](1) exactly
        rng = random.Random(23)
        for inst in instances():
            for _ in range(20):
                c = random_complex(inst, rng)
                assert apply_auto(shift_complex(c, 1), 1) == shift_complex(apply_auto(c, 1), 1)

    def test_eta_shift_compat(self):
        # eta_{X[1]} = eta_X[1] and eta_{X(1)} = eta_X(1)
        rng = random.Random(24)
        for inst in instances():
            for _ in range(20):
                c = random_complex(inst, rng)
                assert eta_chain_map(shift_complex(c, 1)) == shift_chain_map(eta_chain_map(c), 1)
                assert eta_chain_map(apply_auto(c, 1)) == apply_auto_map(eta_chain_map(c), 1)

    def test_eta_is_chain_map(self):
        rng = random.Random(25)
        for inst in instances():
            for _ in range(20):
                c = random_complex(inst, rng)
                assert validate_chain_map(eta_chain_map(c))


def dsum_maps(a: Complex, b: Complex):
    """a (+) b = ``block_sum`` of [a, b] with its summand maps
    (inj_a, inj_b, proj_a, proj_b), built degreewise from ``_summand_inj``
    and ``_summand_proj``."""
    inst = a.instance
    s = block_sum(inst, [a, b])

    def structural(src, tgt, piece, k):
        return ChainMap(src, tgt, {n: piece(inst, [a.obj(n), b.obj(n)], k) for n in s.objects})

    return (s, structural(a, s, _summand_inj, 0), structural(b, s, _summand_inj, 1),
            structural(s, a, _summand_proj, 0), structural(s, b, _summand_proj, 1))


class TestStructuralMaps:
    """The summand maps of a ``block_sum`` and of ``cone`` satisfy the biproduct
    identities: proj_k inj_k = Id, proj_k inj_l = 0 for k != l and
    sum_k inj_k proj_k = Id."""

    @staticmethod
    def draw_instances():
        return instances() + [EtaPower(ScalarEta(Zmod(8), 2), 2), EtaPower(Graded(ScalarEta(GF(5), 1)), 2)]

    def test_dsum_maps_are_a_biproduct(self):
        rng = random.Random(37)
        for inst in self.draw_instances():
            for _ in range(8):
                a, b = random_complex(inst, rng), random_complex(inst, rng)
                s, inj_a, inj_b, proj_a, proj_b = dsum_maps(a, b)
                assert validate_complex(s)
                injs, projs = (inj_a, inj_b), (proj_a, proj_b)
                for m in injs + projs:
                    assert validate_chain_map(m)
                for k, pk in enumerate(projs):
                    for l, il in enumerate(injs):
                        pi = compose_chain_maps(pk, il)
                        assert pi == id_chain_map(pk.target) if k == l else pi.is_zero()
                total = add_chain_maps(compose_chain_maps(inj_a, proj_a), compose_chain_maps(inj_b, proj_b))
                assert total == id_chain_map(s)

    def test_cone_maps_are_its_summand_maps(self):
        # inj: Y -> cone and proj: cone -> X[1] are chain maps with proj inj = 0,
        # and in each degree the summand maps of X^{n+1} (+) Y^n are a biproduct
        rng = random.Random(38)
        for inst in self.draw_instances():
            for _ in range(8):
                a, b = random_complex(inst, rng), random_complex(inst, rng)
                c, inj, proj = cone(random_chain_map(a, b, rng))
                assert validate_chain_map(inj) and validate_chain_map(proj)
                assert compose_chain_maps(proj, inj).is_zero()
                for n, C in c.objects.items():
                    objs = [a.obj(n + 1), b.obj(n)]
                    injs = [_summand_inj(inst, objs, k) for k in (0, 1)]
                    projs = [_summand_proj(inst, objs, k) for k in (0, 1)]
                    assert inst.mor_eq(inj.component(n), injs[1])
                    assert inst.mor_eq(proj.component(n), projs[0])
                    for k in (0, 1):
                        for l in (0, 1):
                            pi = inst.compose(projs[k], injs[l])
                            assert inst.mor_eq(pi, inst.id_mor(objs[k])) if k == l else inst.mor_is_zero(pi)
                    total = inst.hom_add(*(inst.compose(injs[k], projs[k]) for k in (0, 1)))
                    assert inst.mor_eq(total, inst.id_mor(C))

    def test_block_sum_is_an_iterated_direct_sum(self):
        rng = random.Random(39)
        for inst in self.draw_instances():
            for _ in range(5):
                parts = [random_complex(inst, rng) for _ in range(3)]
                s = block_sum(inst, parts)
                assert validate_complex(s)
                assert s == block_sum(inst, [block_sum(inst, parts[:2]), parts[2]])


class TestCone:
    def test_cone_of_zero_map_between_empty(self):
        inst = ScalarEta(ZZ, 1)
        e = Complex(inst, {}, {})
        c, inj, proj = cone(zero_chain_map(e, e))
        assert c.is_zero()

    def test_cone_of_zero_map(self):
        rng = random.Random(26)
        inst = ScalarEta(Zmod(4), 2)
        a = random_complex(inst, rng)
        b = random_complex(inst, rng)
        c, _, _ = cone(zero_chain_map(a, b))
        expected = block_sum(inst, [shift_complex(a, 1), b])
        assert c == expected

    def test_cone_valid_and_pair(self):
        rng = random.Random(27)
        for inst in instances():
            for _ in range(15):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                c, inj, proj = cone(f)
                assert validate_complex(c)
                assert validate_chain_map(inj)
                assert validate_chain_map(proj)
                assert compose_chain_maps(proj, inj).is_zero()

    def test_cone_identity_contractible(self):
        rng = random.Random(28)
        for inst in instances():
            for _ in range(10):
                a = random_complex(inst, rng)
                c, _, _ = cone(id_chain_map(a))
                assert null_homotopic(id_chain_map(c)) is not None

    def test_cone_commutes_with_auto(self):
        # cone(f(1)) = cone(f)(1)
        rng = random.Random(29)
        for inst in instances():
            for _ in range(10):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                c1, _, _ = cone(apply_auto_map(f, 1))
                c2, _, _ = cone(f)
                assert c1 == apply_auto(c2, 1)

    def test_eta_on_cone(self):
        rng = random.Random(30)
        for inst in instances():
            for _ in range(15):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                assert eta_on_cone(f)


class TestHomotopy:
    def test_self_homotopic(self):
        rng = random.Random(31)
        for inst in instances():
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            f = random_chain_map(a, b, rng)
            cert = homotopic(f, f)
            assert cert is not None
            assert cert.validate(f, f)

    def test_identity_not_null_homotopic_mod4(self):
        inst = ScalarEta(Zmod(4), 2)
        c = Complex(inst, {0: 1, 1: 1}, {0: RingMatrix.from_rows(Zmod(4), [[2]])})
        assert null_homotopic(id_chain_map(c)) is None

    def test_brute_force_agreement_mod4(self):
        inst = ScalarEta(Zmod(4), 2)
        rng = random.Random(32)
        checked = 0
        while checked < 20:
            a = random_complex(inst, rng, max_len=3, max_rank=1)
            b = random_complex(inst, rng, max_len=3, max_rank=1)
            f = random_chain_map(a, b, rng)
            g = random_chain_map(a, b, rng)
            slots = [
                (n, a.obj(n) * b.obj(n - 1))
                for n in a.support
                if a.obj(n) and b.obj(n - 1)
            ]
            total = sum(d for _, d in slots)
            if total == 0 or total > 4:
                continue
            checked += 1
            found = None
            for vals in itertools.product(range(4), repeat=total):
                pos = 0
                s = {}
                for n, d in slots:
                    s[n] = inst.vec_to_mor(vals[pos : pos + d], a.obj(n), b.obj(n - 1))
                    pos += d
                cert = HomotopyCertificate(s, eta_twisted=False)
                if cert.validate(f, g):
                    found = cert
                    break
            assert (homotopic(f, g) is not None) == (found is not None)

    def test_certificate_revalidates(self):
        rng = random.Random(33)
        for inst in instances():
            for _ in range(10):
                a = random_complex(inst, rng)
                c, _, _ = cone(id_chain_map(a))
                cert = null_homotopic(id_chain_map(c))
                assert cert is not None
                assert cert.validate(id_chain_map(c), zero_chain_map(c, c))


class TestExactPairs:
    def test_cone_pair_recovers_f(self):
        rng = random.Random(34)
        for inst in instances():
            for _ in range(15):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                c, inj, proj = cone(f)
                pair = normalize_exact_pair(inj, proj)
                # quotient is X[1]; invariant h: X[1][-1] = X -> Y equals f
                assert pair.h.source == a
                assert pair.h.target == b
                assert homotopic(pair.h, f) is not None

    def test_direct_sum_pair_h_zero(self):
        rng = random.Random(35)
        for inst in instances():
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            s, inj_a, _, _, proj_b = dsum_maps(a, b)
            pair = normalize_exact_pair(inj_a, proj_b)
            assert homotopic(pair.h, zero_chain_map(pair.h.source, pair.h.target)) is not None

    def test_not_chainwise_split(self):
        inst = ScalarEta(ZZ, 1)
        x = Complex(inst, {0: 1}, {})
        y = Complex(inst, {0: 1}, {})
        i = ChainMap(x, y, {0: RingMatrix.from_rows(ZZ, [[2]])})
        p = ChainMap(y, Complex(inst, {}, {}), {})
        with pytest.raises(NotChainwiseSplit):
            normalize_exact_pair(i, p)

    def test_round_trip_through_invariant(self):
        rng = random.Random(36)
        for inst in instances():
            for _ in range(10):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                c, inj, proj = cone(f)
                pair = normalize_exact_pair(inj, proj)
                mid, i2, p2 = cone(pair.h)
                assert validate_complex(mid)
                pair2 = normalize_exact_pair(i2, p2)
                assert homotopic(pair2.h, pair.h) is not None


def ref_normalize_exact_pair(i: ChainMap, p: ChainMap) -> ExactPair:
    """The per-degree splitter: one system per degree in r and q, with the
    Y x Y equation i r + q p = Id posed directly."""
    if i.target != p.source:
        raise ValueError("pair legs do not share the middle complex")
    inst = i.instance
    X, Y, Z = i.source, i.target, p.target
    pi = compose_chain_maps(p, i)
    if not pi.is_zero():
        raise NotChainwiseSplit(min(pi.components))
    r = {}
    q = {}
    for n in sorted(set(Y.objects) | set(X.objects) | set(Z.objects)):
        prob = LinearProblem(inst)
        prob.add_unknown("r", Y.obj(n), X.obj(n))
        prob.add_unknown("q", Z.obj(n), Y.obj(n))
        prob.add_equation(
            X.obj(n), X.obj(n), [("r", None, i.component(n), 1)], inst.id_mor(X.obj(n))
        )
        prob.add_equation(
            Z.obj(n), Z.obj(n), [("q", p.component(n), None, 1)], inst.id_mor(Z.obj(n))
        )
        prob.add_equation(
            Y.obj(n), Y.obj(n),
            [("r", i.component(n), None, 1), ("q", None, p.component(n), 1)],
            inst.id_mor(Y.obj(n)),
        )
        sol = prob.solve()
        if sol is None:
            raise NotChainwiseSplit(n)
        r[n] = sol["r"]
        q[n] = sol["q"]
    zm1 = shift_complex(Z, -1)
    h_comps = {}
    for n in sorted(set(X.objects)):
        if inst.obj_is_zero(Z.obj(n - 1)):
            continue
        rn = r.get(n, inst.zero_mor(Y.obj(n), X.obj(n)))
        qn1 = q.get(n - 1, inst.zero_mor(Z.obj(n - 1), Y.obj(n - 1)))
        h_comps[n] = inst.compose(rn, inst.compose(Y.diff(n - 1), qn1))
    h = ChainMap(zm1, X, h_comps)
    return ExactPair(i, p, r, q, h)


def ref_kronecker_one_sided_inverses(i: ChainMap, p: ChainMap, degs):
    """The one-sided inverses in Kronecker form over the instance itself, over
    every level under an ``EtaPower`` of ``Graded``: unknowns r^n and q^n
    whole, as ``complexes._one_sided_inverses`` posed them over ``ScalarEta``
    before it split every instance on the degree-0 view."""
    inst = i.instance
    X, Y, Z = i.source, i.target, p.target
    prob = LinearProblem(inst)
    for n in degs:
        prob.add_unknown(("r", n), Y.obj(n), X.obj(n))
        prob.add_unknown(("q", n), Z.obj(n), Y.obj(n))
        # an absent i^n or p^n is zero, and leaves its equation no term
        i_n, p_n = i.components.get(n), p.components.get(n)
        prob.add_equation(X.obj(n), X.obj(n), [] if i_n is None else [(("r", n), None, i_n, 1)],
                          inst.id_mor(X.obj(n)))
        prob.add_equation(Z.obj(n), Z.obj(n), [] if p_n is None else [(("q", n), p_n, None, 1)],
                          inst.id_mor(Z.obj(n)))
    return prob.solve()


def ref_kronecker_split(i: ChainMap, p: ChainMap) -> ExactPair:
    """``normalize_exact_pair`` with its one-sided inverses solved by
    ``ref_kronecker_one_sided_inverses``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_one_sided_inverses", ref_kronecker_one_sided_inverses)
        return normalize_exact_pair(i, p)


def ref_level0_kronecker_one_sided_inverses(i: ChainMap, p: ChainMap, degs):
    """The one-sided inverses on the degree-0 blocks in Kronecker form: one
    LinearProblem whose unknowns are the blocks r_0^{n,j} and q_0^{n,j}
    whole, with r_0 i_0 = Id as I (x) i_0^T and p_0 q_0 = Id as p_0 (x) I,
    lifted as ``complexes._one_sided_inverses`` lifts its solutions (that
    function's body before it solved one row of r_0 and one column of q_0
    per rhs column)."""
    view = i.instance.degree_zero()
    X, Y, Z = i.source, i.target, p.target
    prob = LinearProblem(view.instance)
    for n in degs:
        y = view.pieces(Y.obj(n))
        # an absent block leaves its equation no term, and the system no solution
        i0, p0 = view.reduce(i.components.get(n)), view.reduce(p.components.get(n))
        for j, c in view.pieces(X.obj(n)).items():
            b = i0.get(j)
            if b is not None:
                prob.add_unknown(("r", n, j), y[j], c)
            prob.add_equation(c, c, [] if b is None else [(("r", n, j), None, b, 1)], view.instance.id_mor(c))
        for j, c in view.pieces(Z.obj(n)).items():
            b = p0.get(j)
            if b is not None:
                prob.add_unknown(("q", n, j), c, y[j])
            prob.add_equation(c, c, [] if b is None else [(("q", n, j), b, None, 1)], view.instance.id_mor(c))
    sol = prob.solve()
    if sol is None:
        return None
    level0 = {}  # (key, n) -> {j: r_0^j or q_0^j}
    for (key, n, j), m in sol.items():
        level0.setdefault((key, n), {})[j] = m
    graded = isinstance(view, GradedQuotient)
    out = {}
    for n in degs:
        r0, q0 = level0.get(("r", n), {}), level0.get(("q", n), {})
        out[("r", n)] = (complexes._graded_left_inverse(i.components[n], r0) if graded and r0
                         else view.lift(r0, Y.obj(n), X.obj(n)))
        out[("q", n)] = (complexes._graded_right_inverse(p.components[n], q0) if graded and q0
                         else view.lift(q0, Z.obj(n), Y.obj(n)))
    return out


def ref_level0_kronecker_split(i: ChainMap, p: ChainMap) -> ExactPair:
    """``normalize_exact_pair`` with its one-sided inverses solved by
    ``ref_level0_kronecker_one_sided_inverses``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_one_sided_inverses", ref_level0_kronecker_one_sided_inverses)
        return normalize_exact_pair(i, p)


def _same_split(pair, ref) -> bool:
    """The two ExactPairs hold the same r, q and h."""
    return pair.r == ref.r and pair.q == ref.q and pair.h == ref.h


def _split_degree(i, p, split):
    """(None, pair) if split(i, p) returns, (degree, None) if it raises NotChainwiseSplit."""
    try:
        return None, split(i, p)
    except NotChainwiseSplit as exc:
        return exc.degree, None


def _splitting_holds(pair) -> bool:
    """r i = Id, p q = Id and i r + q p = Id in every degree of the pair."""
    inst = pair.instance
    X, Y, Z = pair.sub, pair.middle, pair.quotient
    for n in sorted(set(X.objects) | set(Y.objects) | set(Z.objects)):
        i, p, r, q = pair.i.component(n), pair.p.component(n), pair.r[n], pair.q[n]
        if not (inst.mor_eq(inst.compose(r, i), inst.id_mor(X.obj(n)))
                and inst.mor_eq(inst.compose(p, q), inst.id_mor(Z.obj(n)))
                and inst.mor_eq(inst.hom_add(inst.compose(i, r), inst.compose(q, p)), inst.id_mor(Y.obj(n)))):
            return False
    return True


def _broken_variants(i, p, rng):
    """The pair and three copies that may not split: i doubled at one degree
    (no retraction where 2 is not a unit), p dropped at one degree (no
    section there) and p replaced by the map to 0 (the rank check fails
    wherever Y^n != X^n).  None is required to be a chain map."""
    inst = i.instance
    out = [(i, p)]
    degs = sorted(i.components)
    if degs:
        n = rng.choice(degs)
        f = i.components[n]
        out.append((ChainMap(i.source, i.target, {**i.components, n: inst.hom_add(f, f)}), p))
    degs = sorted(p.components)
    if degs:
        n = rng.choice(degs)
        out.append((i, ChainMap(p.source, p.target, {k: m for k, m in p.components.items() if k != n})))
    out.append((i, zero_chain_map(p.source, Complex(inst, {}, {}))))
    return out


class TestSplitOracle:
    """``normalize_exact_pair`` against the per-degree splitter it replaced,
    and against the level-0 Kronecker form it solved in before: one solve
    per normalization, and the same r, q and h."""

    def test_against_per_degree_reference(self, monkeypatch):
        solves = []
        solve = complexes._solve

        def counting(ring, rows, m, want_kernel, t=1):
            solves.append(rows)
            return solve(ring, rows, m, want_kernel, t)

        monkeypatch.setattr(complexes, "_solve", counting)
        rng = random.Random(71)
        seen = Counter()
        for inst in instances():
            pairs = []
            for _ in range(6):
                a, b = random_complex(inst, rng), random_complex(inst, rng)
                _, inj, proj = cone(random_chain_map(a, b, rng))
                pairs.append(("cone", inj, proj))
                _, inj_a, _, _, proj_b = dsum_maps(a, b)
                pairs.append(("dsum", inj_a, proj_b))
                pairs.append(("conjugated", *conjugate_pair(*random_split_pair(inst, rng), rng)))
            for kind, i0, p0 in pairs:
                for i, p in _broken_variants(i0, p0, rng):
                    ref_deg, ref = _split_degree(i, p, ref_normalize_exact_pair)
                    kron_deg, kron = _split_degree(i, p, ref_level0_kronecker_split)
                    start = len(solves)
                    deg, pair = _split_degree(i, p, normalize_exact_pair)
                    assert deg == ref_deg == kron_deg, (inst, kind)
                    if pair is None:
                        seen["raised"] += 1
                        continue
                    assert len(solves) - start == 1, (inst, kind)
                    assert _same_split(pair, kron), (inst, kind)
                    assert _splitting_holds(pair), (inst, kind)
                    assert homotopic(pair.h, ref.h) is not None, (inst, kind)
                    seen[kind] += 1
        assert seen["raised"] >= 20 and min(seen[k] for k in ("cone", "dsum", "conjugated")) >= 20, seen


ETA_POWER_GRADED_RINGS = [ZZ, Zmod(4), GF(5), QQ]


class TestEtaPowerGradedSplit:
    """``normalize_exact_pair`` over ``EtaPower(Graded(...), 2)`` splits on
    the inner instance's level-0 route, which ``EtaPower`` takes from
    ``Graded`` by delegation; the Kronecker reference over every level
    raises at the same degrees, and the level-0 Kronecker form gives the
    same r, q and h."""

    @pytest.mark.parametrize("ring", ETA_POWER_GRADED_RINGS, ids=str)
    def test_splits_match_the_kronecker_reference(self, ring):
        graded = Graded(ScalarEta(ring, 1))
        inst = EtaPower(graded, 2)
        rng = random.Random(97)
        seen = Counter()
        for k in range(16):
            if k % 2:
                defl = random_std_conflation(graded, rng)
                kind, (i0, p0) = "conjugated", conjugate_pair(defl.i, defl.p, rng)
            else:
                kind, (i0, p0) = "split", random_split_pair(graded, rng)
            for v, (i, p) in enumerate(_broken_variants(i0, p0, rng)):
                i, p = reinstance_chain_map(i, inst), reinstance_chain_map(p, inst)
                deg, pair = _split_degree(i, p, normalize_exact_pair)
                assert deg == _split_degree(i, p, ref_kronecker_split)[0], (ring, kind, k)
                if pair is None:
                    seen["raised"] += 1
                    continue
                assert _same_split(pair, _split_degree(i, p, ref_level0_kronecker_split)[1]), (ring, kind, k)
                assert pair.instance == inst
                assert _splitting_holds(pair), (ring, kind, k)
                # h is a chain map where i and p are: the drawn pair, variant 0
                assert v or validate_chain_map(pair.h), (ring, kind, k)
                seen[kind] += 1
                seen["above level 0"] += any(lvl for f in (*pair.r.values(), *pair.q.values()) for lvl, _ in f.components)
        assert seen["raised"] >= 10 and min(seen["split"], seen["conjugated"]) >= 8, seen
        assert seen["above level 0"] >= 5, seen


class TestSplitEdgeCases:
    def test_rank_check_with_both_inverses(self):
        """i = [1;0;0], p = [0 1 0]: r i = Id and p q = Id solve, but 3 != 1 + 1."""
        inst = ScalarEta(ZZ, 2)
        x, y = Complex(inst, {0: 1}, {}), Complex(inst, {0: 3}, {})
        i = ChainMap(x, y, {0: RingMatrix.from_rows(ZZ, [[1], [0], [0]])})
        p = ChainMap(y, x, {0: RingMatrix.from_rows(ZZ, [[0, 1, 0]])})
        for split in (normalize_exact_pair, ref_normalize_exact_pair):
            assert _split_degree(i, p, split)[0] == 0

    def test_graded_rank_check_compares_grades(self):
        """Total ranks 2 = 1 + 1 agree at degree 1, grades {0: 1, 1: 1} != {0: 2} do not."""
        inst = Graded(ScalarEta(GF(5), 1))
        one = {(0, 0): RingMatrix.identity(GF(5), 1)}
        g1, g2 = GradedObject({0: 1}), GradedObject({0: 2})
        x = Complex(inst, {0: g1, 1: g1}, {})
        y = Complex(inst, {0: g2, 1: GradedObject({0: 1, 1: 1})}, {})
        z = Complex(inst, {0: g1, 1: g1}, {})
        m = lambda X, Y, rows: GradedMorphism(X, Y, {(0, 0): RingMatrix.from_rows(GF(5), rows)})
        i = ChainMap(x, y, {0: m(g1, g2, [[1], [0]]), 1: GradedMorphism(g1, y.obj(1), one)})
        p = ChainMap(y, z, {0: m(g2, g1, [[0, 1]])})
        assert inst.dsum([x.obj(1), z.obj(1)]).total_rank() == y.obj(1).total_rank()
        for split in (normalize_exact_pair, ref_normalize_exact_pair):
            assert _split_degree(i, p, split)[0] == 1

    def test_inverse_failure_before_rank_failure(self):
        """Degree 0 has no retraction of i = [2] over Z, degree 1 fails the rank
        check only: the least degree, 0, is named."""
        inst = ScalarEta(ZZ, 2)
        m = lambda *rows: RingMatrix.from_rows(ZZ, list(rows))
        x = Complex(inst, {0: 1, 1: 1}, {})
        y = Complex(inst, {0: 1, 1: 3}, {})
        z = Complex(inst, {1: 1}, {})
        i = ChainMap(x, y, {0: m([2]), 1: m([1], [0], [0])})
        p = ChainMap(y, z, {1: m([0, 1, 0])})
        for split in (normalize_exact_pair, ref_normalize_exact_pair):
            assert _split_degree(i, p, split)[0] == 0
        i1 = ChainMap(x, y, {0: m([1]), 1: i.components[1]})
        for split in (normalize_exact_pair, ref_normalize_exact_pair):
            assert _split_degree(i1, p, split)[0] == 1


class TestChainMapAlgebra:
    @pytest.mark.parametrize("inst", [ScalarEta(ZZ, 2), ScalarEta(Zmod(8), 4), ScalarEta(QQ, Fraction(2, 3)),
                                      Graded(ScalarEta(GF(5), 1)), Graded(ScalarEta(ZZ, 1)),
                                      EtaPower(ScalarEta(Zmod(9), 2), 2)], ids=repr)
    def test_eta_composites_match_compose(self, inst):
        """eta_before and eta_after, which skip eta's identity products, give
        the composites with eta_chain_map exactly."""
        rng = random.Random(41)
        nonzero = 0
        for _ in range(10):
            a, b = random_complex(inst, rng), random_complex(inst, rng)
            # random maps, and eta itself: Id . eta and eta_a . eta_{a(1)}
            for f in (random_chain_map(a, b, rng), id_chain_map(a)):
                assert eta_before(f) == compose_chain_maps(f, eta_chain_map(f.source))
                nonzero += not eta_before(f).is_zero()
            for g in (random_chain_map(a, apply_auto(b, 1), rng), eta_chain_map(apply_auto(b, 1))):
                assert eta_after(b, g) == compose_chain_maps(eta_chain_map(b), g)
                nonzero += not eta_after(b, g).is_zero()
        assert nonzero >= 10

    def test_add_sub(self):
        rng = random.Random(37)
        inst = ScalarEta(Zmod(9), 3)
        a = random_complex(inst, rng)
        b = random_complex(inst, rng)
        f = random_chain_map(a, b, rng)
        g = random_chain_map(a, b, rng)
        assert sub_chain_maps(add_chain_maps(f, g), g) == f
        assert validate_chain_map(add_chain_maps(f, g))

    def test_compose_valid(self):
        rng = random.Random(38)
        inst = Graded(ScalarEta(Zmod(4), 1))
        a = random_complex(inst, rng)
        b = random_complex(inst, rng)
        c = random_complex(inst, rng)
        f = random_chain_map(a, b, rng)
        g = random_chain_map(b, c, rng)
        assert validate_chain_map(compose_chain_maps(g, f))


# -- problem assembly against basis probing ---------------------------------


def probe_build(prob: LinearProblem):
    """Reference assembly: apply every term to each basis morphism of its
    unknown and read the image off in hom coordinates."""
    inst = prob.instance
    ring = inst.ring
    col_of, cols = {}, 0
    for key, (X, Y, _) in prob.unknowns.items():
        col_of[key] = cols
        cols += inst.hom_dim(X, Y)
    rows = sum(inst.hom_dim(A, B) for A, B, _, _, _ in prob.equations)
    grid = [[ring.zero()] * cols for _ in range(rows)]
    rhs = []
    for A, B, _, terms, m in prob.equations:
        row = len(rhs)
        for key, left, right, sign in terms:
            X, Y, _ = prob.unknowns[key]
            col = col_of[key]
            dim_u = inst.hom_dim(X, Y)
            for b in range(dim_u):
                basis = [ring.zero()] * dim_u
                basis[b] = ring.one()
                m_b = inst.vec_to_mor(basis, X, Y)
                if right is not None:
                    m_b = inst.compose(m_b, right)
                if left is not None:
                    m_b = inst.compose(left, m_b)
                if sign == -1:
                    m_b = inst.hom_negate(m_b)
                assert inst.validate_mor(m_b, A, B)
                for r, v in enumerate(inst.mor_to_vec(m_b, A, B)):
                    grid[row + r][col + b] = ring.add(grid[row + r][col + b], v)
        rhs.extend([ring.zero()] * inst.hom_dim(A, B) if m is None else inst.mor_to_vec(m, A, B))
    flat = [x for cells in grid for x in cells]
    return RingMatrix(ring, rows, cols, flat), RingMatrix(ring, rows, 1, rhs)


def _random_obj(inst, rng):
    if isinstance(inst.zero_obj(), int):
        return rng.choice([0, 1, 2, 3])
    return GradedObject({j: rng.choice([0, 1, 2]) for j in rng.sample(range(-1, 3), rng.randint(0, 3))})


def _random_mor(inst, X, Y, rng):
    ring = inst.ring
    vec = [ring.canon(rng.randint(-3, 3)) if rng.random() < 0.6 else ring.zero()
           for _ in range(inst.hom_dim(X, Y))]
    return inst.vec_to_mor(vec, X, Y)


def random_problem(inst, rng, seen):
    """A random LinearProblem over a small pool of objects (the zero object
    among them); `seen` counts the shapes of term that occurred."""
    pool = [inst.zero_obj()] + [_random_obj(inst, rng) for _ in range(3)]
    prob = LinearProblem(inst)
    unknowns = []
    for k in range(rng.randint(1, 4)):
        X, Y = rng.choice(pool), rng.choice(pool)
        prob.add_unknown(("u", k), X, Y)
        unknowns.append((("u", k), X, Y))
    for _ in range(rng.randint(1, 4)):
        A, B = rng.choice(pool), rng.choice(pool)
        terms = []
        for _ in range(rng.randint(0, 3)):
            key, X, Y = rng.choice(unknowns)
            left = None if Y == B and rng.random() < 0.5 else _random_mor(inst, Y, B, rng)
            right = None if X == A and rng.random() < 0.5 else _random_mor(inst, A, X, rng)
            sign = rng.choice([1, -1])
            seen["left None"] += left is None
            seen["right None"] += right is None
            seen["sign -1"] += sign == -1
            seen["same unknown twice"] += any(t[0] == key for t in terms)
            seen["zero object"] += any(inst.obj_is_zero(o) for o in (A, B, X, Y))
            terms.append((key, left, right, sign))
        rhs = _random_mor(inst, A, B, rng) if rng.random() < 0.7 else None
        prob.add_equation(A, B, terms, rhs)
    return prob


ORACLE_INSTANCES = [
    ScalarEta(ZZ, 2),
    ScalarEta(Zmod(8), 2),
    ScalarEta(QQ, 3),
    Graded(ScalarEta(GF(5), 1)),
    Graded(ScalarEta(ZZ, 1)),
    EtaPower(ScalarEta(Zmod(9), 3), 2),
    EtaPower(Graded(ScalarEta(Zmod(4), 2)), 2),
]


class TestAssemblyOracle:
    @pytest.mark.parametrize("inst", ORACLE_INSTANCES, ids=repr)
    def test_blocks_match_basis_probing(self, inst):
        rng = random.Random(41)
        seen = {k: 0 for k in ("left None", "right None", "sign -1", "same unknown twice", "zero object")}
        for _ in range(40):
            prob = random_problem(inst, rng, seen)
            coeffs, rhs = dense_build(prob)
            ref_coeffs, ref_rhs = probe_build(prob)
            assert coeffs == ref_coeffs
            assert rhs == ref_rhs
        assert all(seen.values()), seen

    @pytest.mark.parametrize("inst", [ScalarEta(ZZ, 1), Graded(ScalarEta(ZZ, 1))], ids=repr)
    def test_mistyped_term_raises(self, inst):
        def obj(r):
            return r if isinstance(inst, ScalarEta) else GradedObject({0: r})

        for A, B, left in [(obj(1), obj(3), inst.id_mor(obj(2))), (obj(2), obj(2), None)]:
            prob = LinearProblem(inst)
            prob.add_unknown("u", obj(1), obj(2))
            prob.add_equation(A, B, [("u", left, None, 1)])
            with pytest.raises(ValueError):
                prob.solve()

    def test_real_systems_match_basis_probing(self, monkeypatch):
        built = []
        original = LinearProblem._build

        def checked(prob):
            rows = original(prob)
            out = dense_build(prob, rows)
            assert out == probe_build(prob)
            built.append(out[0].rows * out[0].cols)
            return rows

        monkeypatch.setattr(LinearProblem, "_build", checked)
        rng = random.Random(42)
        for inst in instances() + [EtaPower(ScalarEta(Zmod(4), 2), 2)]:
            for _ in range(3):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                g = random_chain_map(a, b, rng)
                homotopic(f, g)
                eta_homotopic(f, g)
                i, p = random_split_pair(inst, rng)
                is_eta_conflation(i, p)
        assert len(built) > 50 and max(built) > 0


# -- the sparse rows a problem is solved from -------------------------------


class TestSparseRows:
    """``_build`` writes only nonzeros: a sum that cancels, or a product that
    vanishes mod m, leaves no key, and a zero rhs entry is not written."""

    @pytest.mark.parametrize("ring", [ZZ, Zmod(8), GF(5), QQ], ids=str)
    def test_opposite_terms_leave_no_key(self, ring):
        inst = ScalarEta(ring, 1)
        L = RingMatrix.from_rows(ring, [[1, 3], [0, 2]])
        prob = LinearProblem(inst)
        prob.add_unknown("u", 2, 2)
        prob.add_equation(2, 2, [("u", None, None, 1), ("u", L, None, 1),
                                 ("u", None, None, -1), ("u", L, None, -1)], inst.zero_mor(2, 2))
        assert prob._build() == [{}, {}, {}, {}]
        # the same with an rhs: no coefficient is left, so the system is inconsistent
        prob.add_equation(2, 2, [("u", L, None, -1), ("u", L, None, 1)], inst.id_mor(2))
        assert prob._build()[4:] == [{4: 1}, {}, {}, {4: 1}]
        assert prob.solve() is None

    def test_products_vanishing_mod_m_leave_no_key(self):
        ring = Zmod(8)
        two, four = (RingMatrix.from_rows(ring, [[x]]) for x in (2, 4))
        prob = LinearProblem(ScalarEta(ring, 1))
        prob.add_unknown("u", 1, 1)
        prob.add_unknown("v", 1, 1)
        prob.add_equation(1, 1, [("u", two, four, 1), ("v", four, two, -1)])  # 8u - 8v
        prob.add_equation(1, 1, [("u", two, None, 1), ("u", four, None, 1), ("u", two, None, 1),
                                 ("v", None, None, 1)])  # 2u + 4u + 2u + v
        assert prob._build() == [{}, {1: 1}]

    def test_integral_rational_sums_are_ints(self):
        half = RingMatrix.from_rows(QQ, [[Fraction(1, 2)]])
        prob = LinearProblem(ScalarEta(QQ, 1))
        prob.add_unknown("u", 1, 1)
        prob.add_equation(1, 1, [("u", half, None, 1), ("u", half, None, 1)])
        prob.add_equation(1, 1, [("u", half, None, 1), ("u", half, None, -1)])
        rows = prob._build()
        assert rows == [{0: 1}, {}] and type(rows[0][0]) is int


class TestNoDenseSolve:
    def test_problems_never_reach_the_dense_entry_points(self, monkeypatch, tmp_path, capsys):
        """Every LinearProblem and MatrixProblem solve of the suite and of a
        CLI theta-extend check hands dict rows to ``linalg._solve``; the
        RingMatrix entry points and their dense-to-rows scan are never called."""
        dense = []

        def refuse(*args, **kwargs):
            dense.append(args)
            raise AssertionError("a problem was solved through a dense RingMatrix")

        for name in ("_system", "solve_linear_system", "solve_with_kernel"):
            monkeypatch.setattr(linalg, name, refuse)
        solved = Counter()
        solve = complexes._solve

        def counting(ring, rows, m, want_kernel, t=1):
            assert type(rows) is list and all(type(row) is dict for row in rows)
            solved[want_kernel] += 1
            return solve(ring, rows, m, want_kernel, t)

        monkeypatch.setattr(complexes, "_solve", counting)
        ok, _ = run_suite(3, trials=1)
        assert ok and solved[False] and solved[True]
        p = tmp_path / "delta.json"
        # at seed 5 the theta-extend check solves four level systems
        assert main(["gen", "--seed", "5", "--profile", "delta", "--ring", "Z/4", "-o", str(p)]) == 0
        before = sum(solved.values())
        assert main(["check", str(p), "--op", "theta-extend"]) in (0, 1)
        capsys.readouterr()
        assert sum(solved.values()) > before
        assert not dense


class TestNoZeroFill:
    def test_checks_and_composition_build_no_zero(self, monkeypatch):
        """``validate_complex``, ``validate_chain_map`` and
        ``compose_chain_maps`` take an absent differential or component for
        zero: they build no zero morphism, on every test instance."""
        built = Counter()
        for cls in (ScalarEta, Graded):
            def counting(self, X, Y, _zero=cls.zero_mor, _name=cls.__name__):
                built[_name] += 1
                return _zero(self, X, Y)

            monkeypatch.setattr(cls, "zero_mor", counting)
        rng = random.Random(97)
        absent = 0
        for inst in instances():
            for _ in range(15):
                a, b, c = (random_complex(inst, rng) for _ in range(3))
                f, g = random_chain_map(a, b, rng), random_chain_map(b, c, rng)
                absent += sum(n not in x.diffs for x in (a, b, c)
                              for n in range(min(x.objects, default=0), max(x.objects, default=-1) + 1))
                absent += sum(n not in h.components for h in (f, g) for n in h.source.support)
                built.clear()
                assert validate_complex(a) and validate_complex(b)
                assert validate_chain_map(f) and validate_chain_map(g)
                assert validate_chain_map(compose_chain_maps(g, f))
                assert not built, (inst, dict(built))
        assert absent > 50
        # the counters see the accessors that do build zeros
        a = Complex(instances()[-1], {0: GradedObject({0: 1})}, {})
        a.diff(0)
        assert built["Graded"] == 1


# -- the family writers against hand-written builders -----------------------
#
# Each reference below poses its system the way the builder did before the
# systems went through ``add_family`` and ``family_terms``: its own unknown
# registration, ``have`` sets and hand-written u d +- d u terms, with the
# eta-twist applied degree by degree.


def ref_chain_map_problem(prob, key_prefix, A, B):
    inst = prob.instance
    degs = [n for n in A.support if not inst.obj_is_zero(B.obj(n))]
    for n in degs:
        prob.add_unknown((key_prefix, n), A.obj(n), B.obj(n))
    have = set(degs)
    for n in sorted(set(A.objects)):
        terms = []
        if n + 1 in have:
            terms.append(((key_prefix, n + 1), None, A.diff(n), 1))
        if n in have:
            terms.append(((key_prefix, n), B.diff(n), None, -1))
        prob.add_equation(A.obj(n), B.obj(n + 1), terms, None)
    return degs


def ref_homotopy_problem(f, g, eta_twisted):
    inst = f.instance
    X, Y = f.source, f.target

    def src(n):
        return inst.shift_obj(X.obj(n), 1) if eta_twisted else X.obj(n)

    prob = LinearProblem(inst)
    s_degs = [
        n for n in sorted(set(X.objects))
        if not inst.obj_is_zero(X.obj(n)) and not inst.obj_is_zero(Y.obj(n - 1))
    ]
    for n in s_degs:
        prob.add_unknown(("s", n), src(n), Y.obj(n - 1))
    have = set(s_degs)
    for n in sorted(set(X.objects) | set(f.components) | set(g.components)):
        terms = []
        if n + 1 in have:
            dx = X.diff(n)
            terms.append((("s", n + 1), None, inst.shift_mor(dx, 1) if eta_twisted else dx, 1))
        if n in have:
            terms.append((("s", n), Y.diff(n - 1), None, 1))
        rhs = inst.hom_add(f.component(n), inst.hom_negate(g.component(n)))
        if eta_twisted:
            rhs = inst.compose(rhs, inst.eta(X.obj(n)))
        prob.add_equation(src(n), Y.obj(n), terms, rhs)
    return prob


def ref_factor_through_eta_problem(h):
    inst = h.instance
    W, X = h.source, h.target
    X1 = apply_auto(X, 1)
    prob = LinearProblem(inst)
    degs = ref_chain_map_problem(prob, "a", W, X1)
    have = set(degs)
    for n in sorted(set(W.objects) | set(h.components)):
        terms = []
        if n in have:
            terms.append((("a", n), inst.eta(X.obj(n)), None, 1))
        prob.add_equation(W.obj(n), X.obj(n), terms, h.component(n))
    return prob


def ref_is_eta_conflation_problem(i, p):
    pair = normalize_exact_pair(i, p)
    inst = i.instance
    X = pair.sub
    h = pair.h
    W = h.source
    X1 = apply_auto(X, 1)
    prob = LinearProblem(inst)
    a_degs = ref_chain_map_problem(prob, "a", W, X1)
    t_degs = [
        n for n in sorted(set(W.objects))
        if not inst.obj_is_zero(W.obj(n)) and not inst.obj_is_zero(X.obj(n - 1))
    ]
    for n in t_degs:
        prob.add_unknown(("t", n), W.obj(n), X.obj(n - 1))
    a_have, t_have = set(a_degs), set(t_degs)
    for n in sorted(set(W.objects) | set(h.components)):
        terms = []
        if n in a_have:
            terms.append((("a", n), inst.eta(X.obj(n)), None, 1))
        if n in t_have:
            terms.append((("t", n), X.diff(n - 1), None, -1))
        if n + 1 in t_have:
            terms.append((("t", n + 1), None, W.diff(n), -1))
        prob.add_equation(W.obj(n), X.obj(n), terms, h.component(n))
    return prob


def ref_factors_through_env_problem(f):
    inst = f.instance
    X, Y = f.source, f.target
    env = env_inflation(X)
    P, i = env.middle, env.i
    prob = LinearProblem(inst)
    degs = ref_chain_map_problem(prob, "u", P, Y)
    have = set(degs)
    for n in sorted(set(X.objects) | set(f.components)):
        terms = []
        if n in have:
            terms.append((("u", n), None, i.component(n), 1))
        prob.add_equation(X.obj(n), Y.obj(n), terms, f.component(n))
    return prob


# Over Graded the conflation systems are posed on level 0 only, over the
# inner instance: one unknown per degree and grade, written here from the
# level-0 blocks f.component(n).component(0, j) (a zero block where absent).


def ref_level0_split_rows(i, p):
    """(rows, m, t) of the split on level 0, for a pair that splits: degree
    by degree and grade by grade, the rows of [i_0^{n,j}T | I] (row v: column
    v of i_0) and then of [p_0^{n,j} | I], each block on unknown columns of
    its own, Y^{n,j} of them, and the t rows' rhs the columns of one
    identity, from column m on."""
    inst = i.instance
    ring = inst.ring
    X, Y, Z = i.source, i.target, p.target
    blocks = []
    for n in sorted(set(Y.objects) | set(X.objects) | set(Z.objects)):
        y = Y.obj(n)
        for j in sorted(X.obj(n).ranks):
            i0 = i.component(n).component(0, j, ring)
            blocks.append([[i0[(a, v)] for a in range(y.rank(j))] for v in range(X.obj(n).rank(j))])
        for j in sorted(Z.obj(n).ranks):
            p0 = p.component(n).component(0, j, ring)
            blocks.append([[p0[(v, a)] for a in range(y.rank(j))] for v in range(Z.obj(n).rank(j))])
    cols = [0]
    for block in blocks:
        cols.append(cols[-1] + len(block[0]))
    m = cols[-1]
    rows = []
    for block, col in zip(blocks, cols):
        for coeffs in block:
            row = {col + a: z for a, z in enumerate(coeffs) if z}
            row[m + len(rows)] = 1
            rows.append(row)
    return rows, m, len(rows)


def ref_level0_factor_problem(h):
    """h_0^{n,j} + d_0 t_0^{n,j} + t_0^{n+1,j} d_0 = 0 in the unknowns
    t_0^{n,j}: W^{n,j} -> X^{n-1,j}, for h: W -> X."""
    inst = h.instance
    ring = inst.ring
    W, X = h.source, h.target
    prob = LinearProblem(inst.inner)
    slots = [(n, j) for n in sorted(W.objects) for j in sorted(W.obj(n).ranks)]
    for n, j in slots:
        if X.obj(n - 1).rank(j):
            prob.add_unknown(("t", n, j), W.obj(n).rank(j), X.obj(n - 1).rank(j))
    for n, j in slots:
        if not X.obj(n).rank(j):
            continue
        terms = []
        if ("t", n, j) in prob.unknowns:
            terms.append((("t", n, j), X.diff(n - 1).component(0, j, ring), None, -1))
        if ("t", n + 1, j) in prob.unknowns:
            terms.append((("t", n + 1, j), None, W.diff(n).component(0, j, ring), -1))
        prob.add_equation(W.obj(n).rank(j), X.obj(n).rank(j), terms, h.component(n).component(0, j, ring))
    return prob


def ref_mod_c_factor_problem(h, c):
    """Over ScalarEta(Z, c), |c| >= 2: h^n + d t^n + t^{n+1} d = 0 mod c in the
    unknowns t^n: W^n -> X^{n-1}, posed over GF(|c|) for prime |c| and Z/|c|
    else, one block per degree keyed ("t", n, 0), for h: W -> X."""
    q = abs(c)
    ring = GF(q) if all(q % k for k in range(2, q)) else Zmod(q)

    def mod_c(m):
        return RingMatrix(ring, m.rows, m.cols, m.entries)

    W, X = h.source, h.target
    prob = LinearProblem(ScalarEta(ring, 0))
    degs = [n for n in sorted(W.objects) if W.obj(n)]
    for n in degs:
        if X.obj(n - 1):
            prob.add_unknown(("t", n, 0), W.obj(n), X.obj(n - 1))
    for n in degs:
        if not X.obj(n):
            continue
        terms = []
        if ("t", n, 0) in prob.unknowns:
            terms.append((("t", n, 0), mod_c(X.diff(n - 1)), None, -1))
        if ("t", n + 1, 0) in prob.unknowns:
            terms.append((("t", n + 1, 0), None, mod_c(W.diff(n)), -1))
        prob.add_equation(W.obj(n), X.obj(n), terms, mod_c(h.component(n)))
    return prob


FAMILY_RINGS = [ZZ, Zmod(8), Zmod(9), GF(5), QQ]


class TestFamilyWriterOracle:
    @pytest.mark.parametrize("graded", [False, True], ids=["scalar", "graded"])
    def test_builders_pose_the_reference_systems(self, monkeypatch, graded):
        solved = []
        solve = LinearProblem.solve

        def recording(prob):
            solved.append(prob)
            return solve(prob)

        monkeypatch.setattr(LinearProblem, "solve", recording)
        posed_rows = []  # (rows, m, t) of every solve, problems' and the split's
        solve_rows = complexes._solve

        def recording_rows(ring, rows, m, want_kernel, t=1):
            posed_rows.append(([dict(row) for row in rows], m, t))
            return solve_rows(ring, rows, m, want_kernel, t)

        monkeypatch.setattr(complexes, "_solve", recording_rows)
        seen = set()

        def same(run, ref, what):
            solved.clear()
            out = run()
            prob = solved[-1]
            coeffs, rhs = dense_build(prob)
            ref_coeffs, ref_rhs = dense_build(ref)
            assert list(prob.unknowns) == list(ref.unknowns), what
            assert (coeffs.rows, coeffs.cols) == (ref_coeffs.rows, ref_coeffs.cols), what
            assert coeffs.entries == ref_coeffs.entries, what
            assert rhs.entries == ref_rhs.entries, what
            if coeffs.cols and any(coeffs.entries):
                seen.add(f"{what} unknowns")
            if any(rhs.entries):
                seen.add(f"{what} rhs")
            seen.add(f"{what} {'NONE' if out is None else 'SOME'}")

        quotient = "level-0" if graded else "mod-c"

        def same_level0(run, refs, kron, what, before=None, split=None):
            """Over Graded, and over ScalarEta where eta is mono: run() poses
            exactly the quotient systems refs, in order, after the systems
            that before() poses (the scalar split), and its verdict is the one
            of the Kronecker system kron, whose unknowns and rhs ``seen``
            records.  With split, the rows (rows, m, t) that run() hands the
            solver first, not through a LinearProblem."""
            solved.clear()
            if before is not None:
                before()
            skip = len(solved)
            solved.clear()
            posed_rows.clear()
            out = run()
            posed = solved[skip:]
            if split is not None:
                assert posed_rows and posed_rows[0] == split, what
                rows, m, t = split
                if any(j < m for row in rows for j in row):
                    seen.add(f"{what} {quotient} split unknowns")
                if t:
                    seen.add(f"{what} {quotient} split rhs")
            assert len(posed) == len(refs), what
            for k, (prob, ref) in enumerate(zip(posed, refs)):
                assert list(prob.unknowns) == list(ref.unknowns), what
                coeffs, rhs = dense_build(prob)
                assert (coeffs, rhs) == dense_build(ref), what
                if any(coeffs.entries):
                    seen.add(f"{what} {quotient} system {k} unknowns")
                if any(rhs.entries):
                    seen.add(f"{what} {quotient} system {k} rhs")
            assert (out is None) == (kron.solve() is None), what
            coeffs, rhs = dense_build(kron)
            if coeffs.cols and any(coeffs.entries):
                seen.add(f"{what} unknowns")
            if any(rhs.entries):
                seen.add(f"{what} rhs")
            seen.add(f"{what} {'NONE' if out is None else 'SOME'}")

        for ring in FAMILY_RINGS:
            inst = Graded(ScalarEta(ring, ring.one())) if graded else ScalarEta(ring, ring.canon(2))
            self._compare_builders(inst, random.Random(61), same, same_level0)
        for what in ("homotopic", "eta", "env", "conflation", "factor"):
            assert {f"{what} unknowns", f"{what} rhs"} <= seen, (what, seen)
        assert {"eta SOME", "eta NONE", "conflation SOME", "conflation NONE"} <= seen, seen
        if graded:
            level0 = {f"conflation level-0 {k} {x}" for k in ("split", "system 0") for x in ("unknowns", "rhs")}
            assert level0 | {"factor SOME", "factor NONE"} <= seen, seen
        else:
            assert {"conflation mod-c system 0 unknowns", "conflation mod-c system 0 rhs"} <= seen, seen

    @staticmethod
    def _compare_builders(inst, rng, same, same_level0):
        for _ in range(12):
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            prob, ref = LinearProblem(inst), LinearProblem(inst)
            assert chain_map_problem(prob, "f", a, b) == ref_chain_map_problem(ref, "f", a, b)
            assert dense_build(prob) == dense_build(ref)
            f = random_chain_map(a, b, rng)
            g = random_chain_map(a, b, rng)
            same(lambda: homotopic(f, g), ref_homotopy_problem(f, g, False), "homotopic")
            same(lambda: eta_homotopic(f, g), ref_homotopy_problem(f, g, True), "eta")
            same(lambda: factors_through_env(f), ref_factors_through_env_problem(f), "env")
            i, p = random_split_pair(inst, rng)
            if rng.random() < 0.5:
                defl = random_std_conflation(inst, rng)
                i, p = conjugate_pair(defl.i, defl.p, rng)
            if type(inst) is Graded:
                # the cone pair of f too, whose invariant has level-0 blocks more often
                for i, p in ((i, p), cone(f)[1:]):
                    h = normalize_exact_pair(i, p).h
                    same_level0(lambda: is_eta_conflation(i, p), [ref_level0_factor_problem(h)],
                                ref_is_eta_conflation_problem(i, p), "conflation", split=ref_level0_split_rows(i, p))
                    same_level0(lambda: factor_through_eta(h), [], ref_factor_through_eta_problem(h), "factor")
                continue
            h = normalize_exact_pair(i, p).h
            c = inst.r
            if inst.ring.is_unit(c) or inst.ring == ZZ:
                # eta mono: Z poses h + d t + t d = 0 mod c after the split,
                # a unit c nothing (R/cR = 0); the strict factor poses nothing
                refs = [] if inst.ring.is_unit(c) else [ref_mod_c_factor_problem(h, c)]
                same_level0(lambda: is_eta_conflation(i, p), refs, ref_is_eta_conflation_problem(i, p),
                            "conflation", lambda: normalize_exact_pair(i, p))
                same_level0(lambda: factor_through_eta(h), [], ref_factor_through_eta_problem(h), "factor")
                continue
            same(lambda: is_eta_conflation(i, p), ref_is_eta_conflation_problem(i, p), "conflation")
            same(lambda: factor_through_eta(h), ref_factor_through_eta_problem(h), "factor")


# -- the graded level recurrences, as written before r became (r0 i)^{-1} r0 --


def ref_left(f, r0):
    """The left inverse r of the graded f: X -> Y with level 0 r0 = {j: r_0^j},
    r_0^j f_0^j = Id.  Level by level, r_k^j = -(sum_{b=1..k} r_{k-b}^{j+b} f_b^j) r_0^j,
    so that (r f)_k^j = r_k^j f_0^j + sum_b r_{k-b}^{j+b} f_b^j vanishes for k >= 1."""
    X, Y, fc = f.source, f.target, f.components
    r = {(0, j): m for j, m in r0.items()}
    top = X.support[-1] - Y.support[0] if r0 else 0  # the highest level of Hom(Y, X)
    for k in range(1, top + 1):
        for j, m0 in r0.items():
            s = complexes._sum_products((r.get((k - b, j + b)), fc.get((b, j))) for b in range(1, k + 1))
            if s is not None:
                s = s @ m0
                if not s.is_zero():
                    r[(k, j)] = -s
    return GradedMorphism._trusted(Y, X, r)


def ref_right(f, q0):
    """The right inverse q of the graded f: Y -> Z with level 0 q0 = {j: q_0^j},
    f_0^j q_0^j = Id.  Level by level, q_k^j = -q_0^{j+k} sum_{b<k} f_{k-b}^{j+b} q_b^j."""
    Y, Z, fc = f.source, f.target, f.components
    q = {(0, j): m for j, m in q0.items()}
    top = Y.support[-1] - Z.support[0] if q0 else 0  # the highest level of Hom(Z, Y)
    for k in range(1, top + 1):
        for j in Z.support:
            m0 = q0.get(j + k)
            s = None if m0 is None else complexes._sum_products((fc.get((k - b, j + b)), q.get((b, j))) for b in range(k))
            if s is not None:
                s = m0 @ s
                if not s.is_zero():
                    q[(k, j)] = -s
    return GradedMorphism._trusted(Z, Y, q)


def ref_automorphism_inverse(inst, X, u, u0_inv):
    """The inverse of the graded automorphism u of X from the inverses
    u0_inv = {j: (u_0^j)^{-1}} of its level-0 blocks, by the generator's loop."""
    # invert recursively: v_0 = u_0^{-1}; u_0^{j+n} v_n^j = -sum_{q<n} u_{n-q}^{j+q} v_q^j
    inv_comps = {(0, j): u0_inv[j] for j in X.ranks}
    for (n, j) in sorted(inst._slots(X, X)):
        if n == 0:
            continue
        acc = None
        for q in range(n):
            uq, vq = u.components.get((n - q, j + q)), inv_comps.get((q, j))
            if uq is not None and vq is not None:  # an absent one is zero
                acc = uq @ vq if acc is None else acc + uq @ vq
        if acc is not None and not acc.is_zero():  # then so is v_n^j, an invertible matrix times acc
            inv_comps[(n, j)] = -(u0_inv[j + n] @ acc)
    return GradedMorphism(X, X, inv_comps)


GRADED_INVERSE_RINGS = [ZZ, Zmod(4), Zmod(9), GF(5), QQ]


class TestGradedInverseOracle:
    """The one graded level recurrence, ``_graded_right_inverse``, against the
    left-inverse recurrence and the generator's inversion loop it replaced."""

    def test_one_sided_inverses_match_the_level_recurrences(self):
        rng = random.Random(83)
        higher = Counter()
        for ring in GRADED_INVERSE_RINGS:
            inst = Graded(ScalarEta(ring, ring.one()))
            for _ in range(6):
                defl = random_std_conflation(inst, rng)
                a, b = random_complex(inst, rng), random_complex(inst, rng)
                pairs = {"split": random_split_pair(inst, rng),
                         "conjugated": conjugate_pair(defl.i, defl.p, rng),
                         "cone": cone(random_chain_map(a, b, rng))[1:]}
                for kind, (i, p) in pairs.items():
                    degs = sorted(set(i.source.objects) | set(i.target.objects) | set(p.target.objects))
                    sol = complexes._one_sided_inverses(i, p, degs)
                    assert sol is not None, (ring, kind)
                    for n in degs:
                        r, q0 = sol[("r", n)], sol[("q", n)]
                        r_0 = {j: m for (k, j), m in r.components.items() if k == 0}
                        q_0 = {j: m for (k, j), m in q0.components.items() if k == 0}
                        assert r == ref_left(i.component(n), r_0), (ring, kind, n)
                        assert q0 == ref_right(p.component(n), q_0), (ring, kind, n)
                        higher["r"] += any(k for k, _ in r.components)
                        higher["q"] += any(k for k, _ in q0.components)
        assert higher["r"] >= 10 and higher["q"] >= 10, higher

    def test_automorphism_inverse_matches_the_generator_loop(self):
        rng = random.Random(84)
        higher = 0
        for ring in GRADED_INVERSE_RINGS:
            inst = Graded(ScalarEta(ring, ring.one()))
            for _ in range(8):
                X = GradedObject({j: rng.randint(0, 3) for j in range(rng.randint(1, 4))})
                u, v = random_automorphism(inst, X, rng)
                v_0 = {j: v.components[(0, j)] for j in X.ranks}
                assert v == ref_automorphism_inverse(inst, X, u, v_0), ring
                assert inst.compose(u, v) == inst.id_mor(X) == inst.compose(v, u), ring
                higher += any(k for k, _ in v.components)
        assert higher
