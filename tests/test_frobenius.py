import itertools
import random
from fractions import Fraction

import pytest

from etacomplex import complexes as complexes_mod, frobenius
from etacomplex.base import EtaPower, Graded, GradedMorphism, GradedObject, ScalarEta
from etacomplex.complexes import (
    ChainMap,
    Complex,
    HomotopyCertificate,
    LinearProblem,
    add_chain_maps,
    apply_auto,
    apply_auto_map,
    compose_chain_maps,
    cone,
    eta_chain_map,
    homotopic,
    id_chain_map,
    normalize_exact_pair,
    shift_chain_map,
    shift_complex,
    validate_chain_map,
    zero_chain_map,
)
from etacomplex.frobenius import (
    StandardConflation,
    cone_eta,
    cover_deflation,
    env_inflation,
    eta_homotopic,
    eta_null_homotopic,
    ex1_composite,
    ex1_op_composite,
    ex2_op_pushout,
    ex2_pullback,
    factor_through_eta,
    factors_through_env,
    injective_extend,
    is_eta_conflation,
    is_split_pair,
    projective_lift,
    reinstance_chain_map,
    stable_equal,
    standard_triangle,
    suspend_map,
    suspension,
)
from etacomplex.generators import (
    conjugate_pair,
    random_chain_map,
    random_complex,
    random_split_pair,
    random_std_conflation,
)
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, QQ, ZZ, Zmod

from test_complexes import _broken_variants, _split_degree, ref_kronecker_split


def instances():
    return [
        ScalarEta(Zmod(4), 2),
        ScalarEta(Zmod(8), 2),
        ScalarEta(Zmod(9), 3),
        Graded(ScalarEta(Zmod(4), 1)),
        Graded(ScalarEta(GF(5), 1)),
    ]


class TestFactorThroughEta:
    def setup_method(self):
        self.inst = ScalarEta(Zmod(4), 2)

    def _stalk_map(self, v):
        x = Complex(self.inst, {0: 1}, {})
        return ChainMap(x, x, {0: RingMatrix.from_rows(Zmod(4), [[v]])})

    def test_factor_exists(self):
        a = factor_through_eta(self._stalk_map(2))
        assert a is not None

    def test_factor_fails(self):
        assert factor_through_eta(self._stalk_map(1)) is None

    def test_zero_map(self):
        a = factor_through_eta(self._stalk_map(0))
        assert a is not None


class TestIsEtaConflation:
    def test_std_conflations_recognized(self):
        rng = random.Random(40)
        for inst in instances():
            for _ in range(4):
                defl = random_std_conflation(inst, rng)
                conf = is_eta_conflation(defl.i, defl.p)
                assert conf is not None

    def test_conjugated_std_conflations_recognized(self):
        rng = random.Random(41)
        for inst in instances():
            for _ in range(3):
                defl = random_std_conflation(inst, rng)
                i2, p2 = conjugate_pair(defl.i, defl.p, rng)
                assert is_eta_conflation(i2, p2) is not None

    def test_unit_eta_everything_recognized(self):
        rng = random.Random(42)
        inst = ScalarEta(Zmod(4), 1)  # eta invertible
        for _ in range(15):
            i, p = random_split_pair(inst, rng)
            i, p = conjugate_pair(i, p, rng)
            assert is_eta_conflation(i, p) is not None

    def test_zero_eta_is_split_recognition(self):
        rng = random.Random(43)
        inst = ScalarEta(Zmod(4), 0)
        for _ in range(15):
            i, p = random_split_pair(inst, rng)
            assert (is_eta_conflation(i, p) is not None) == is_split_pair(i, p)

    def test_non_conflation_mod4(self):
        # invariant [1] cannot factor through eta = 2 on stalks (d = 0)
        inst = ScalarEta(Zmod(4), 2)
        x = Complex(inst, {0: 1}, {})
        f = ChainMap(x, x, {0: RingMatrix.from_rows(Zmod(4), [[1]])})
        c, i, p = cone(f)
        assert is_eta_conflation(i, p) is None


class TestEtaHomotopy:
    def test_reflexive(self):
        rng = random.Random(44)
        for inst in instances():
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            f = random_chain_map(a, b, rng)
            assert stable_equal(f, f)

    def test_identity_on_disk_mod4(self):
        inst = ScalarEta(Zmod(4), 2)
        c = Complex(inst, {0: 1, 1: 1}, {0: RingMatrix.from_rows(Zmod(4), [[2]])})
        assert eta_null_homotopic(id_chain_map(c)) is not None

    def test_identity_on_stalks_mod4(self):
        inst = ScalarEta(Zmod(4), 2)
        c = Complex(inst, {0: 1, 1: 1}, {})
        assert eta_null_homotopic(id_chain_map(c)) is None

    def test_agrees_with_precomposed_homotopy(self):
        rng = random.Random(45)
        for inst in instances():
            for _ in range(10):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                g = random_chain_map(a, b, rng)
                ea = eta_chain_map(a)
                lhs = eta_homotopic(f, g) is not None
                rhs = homotopic(compose_chain_maps(f, ea), compose_chain_maps(g, ea)) is not None
                assert lhs == rhs

    def test_brute_force_cross_check_mod4(self):
        inst = ScalarEta(Zmod(4), 2)
        rng = random.Random(46)
        checked = 0
        while checked < 10:
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
            found = False
            for vals in itertools.product(range(4), repeat=total):
                pos = 0
                s = {}
                for n, d in slots:
                    s[n] = inst.vec_to_mor(vals[pos : pos + d], a.obj(n), b.obj(n - 1))
                    pos += d
                if HomotopyCertificate(s, eta_twisted=True).validate(f, g):
                    found = True
                    break
            assert (eta_homotopic(f, g) is not None) == found

    def test_prop_factorization_equivalence(self):
        # f eta-null-homotopic iff f factors through the envelope inflation
        rng = random.Random(47)
        for inst in instances():
            for _ in range(8):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                null = eta_null_homotopic(f) is not None
                fact = factors_through_env(f) is not None
                assert null == fact

    def test_stable_equal_mod_injectives(self):
        rng = random.Random(48)
        inst = ScalarEta(Zmod(4), 2)
        for _ in range(8):
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            f = random_chain_map(a, b, rng)
            env = env_inflation(a)
            u = random_chain_map(env.middle, b, rng)
            f2 = add_chain_maps(f, compose_chain_maps(u, env.i))
            assert stable_equal(f, f2)


class TestProjectiveInjective:
    def test_projective_lift(self):
        rng = random.Random(49)
        for inst in instances():
            for _ in range(3):
                defl = random_std_conflation(inst, rng)
                V = random_complex(inst, rng)
                P = cone_eta(V)
                g = random_chain_map(P, defl.Z, rng)
                lift = projective_lift(g, V, defl)
                assert validate_chain_map(lift)
                assert compose_chain_maps(defl.p, lift) == g

    def test_injective_extend(self):
        rng = random.Random(50)
        for inst in instances():
            for _ in range(3):
                infl = random_std_conflation(inst, rng)
                V = random_complex(inst, rng)
                P = cone_eta(V)
                g = random_chain_map(infl.X, P, rng)
                ext = injective_extend(g, V, infl)
                assert validate_chain_map(ext)
                assert compose_chain_maps(ext, infl.i) == g

    def test_zero_lift_and_extend(self):
        rng = random.Random(51)
        inst = ScalarEta(Zmod(4), 2)
        defl = random_std_conflation(inst, rng)
        V = random_complex(inst, rng)
        P = cone_eta(V)
        lift = projective_lift(zero_chain_map(P, defl.Z), V, defl)
        assert lift.is_zero()
        ext = injective_extend(zero_chain_map(defl.X, P), V, defl)
        # the extension of 0 is 0 since both blocks of g vanish
        assert ext.is_zero()

    def test_env_and_cover_are_conflations(self):
        rng = random.Random(52)
        for inst in instances():
            for _ in range(3):
                x = random_complex(inst, rng)
                env = env_inflation(x)
                assert env.Z == apply_auto(shift_complex(x, 1), 1)
                assert is_eta_conflation(env.i, env.p) is not None
                cov = cover_deflation(x)
                assert cov.Z == x
                assert is_eta_conflation(cov.i, cov.p) is not None


class TestTrianglesAndSuspension:
    def test_standard_triangle_identity(self):
        rng = random.Random(53)
        for inst in instances():
            x = random_complex(inst, rng)
            f, inj, proj = standard_triangle(id_chain_map(x))
            c = inj.target
            assert c == cone_eta(x)
            assert eta_null_homotopic(id_chain_map(c)) is not None

    def test_standard_triangle_pair_is_conflation(self):
        rng = random.Random(54)
        for inst in instances():
            for _ in range(5):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                _, inj, proj = standard_triangle(f)
                assert is_eta_conflation(inj, proj) is not None

    def test_suspension_formula(self):
        rng = random.Random(55)
        inst = ScalarEta(Zmod(4), 2)
        x = random_complex(inst, rng)
        assert suspension(x) == shift_complex(x, 1)  # (1) = Id here

    def test_suspend_map_is_shift(self):
        rng = random.Random(56)
        for inst in instances():
            for _ in range(5):
                a = random_complex(inst, rng)
                b = random_complex(inst, rng)
                f = random_chain_map(a, b, rng)
                sf = suspend_map(f)
                assert sf == apply_auto_map(shift_chain_map(f, 1), 1)

    def test_suspend_map_stable_well_defined(self):
        rng = random.Random(57)
        inst = ScalarEta(Zmod(4), 2)
        for _ in range(6):
            a = random_complex(inst, rng)
            b = random_complex(inst, rng)
            f = random_chain_map(a, b, rng)
            env = env_inflation(a)
            u = random_chain_map(env.middle, b, rng)
            f2 = add_chain_maps(f, compose_chain_maps(u, env.i))
            assert stable_equal(suspend_map(f), suspend_map(f2))


class TestEtaPowerTower:
    def test_scalar_square(self):
        inst = EtaPower(ScalarEta(Zmod(8), 2), 2)
        assert inst.eta(1) == RingMatrix.from_rows(Zmod(8), [[4]])

    def test_tower_membership(self):
        # every eta^2-conflation is an eta-conflation, and some draws are one
        rng = random.Random(58)
        for inst in (ScalarEta(Zmod(8), 2), Graded(ScalarEta(Zmod(4), 1))):
            power, premises = EtaPower(inst, 2), 0
            for _ in range(5):
                i, p = random_split_pair(inst, rng)
                if is_eta_conflation(reinstance_chain_map(i, power), reinstance_chain_map(p, power)) is not None:
                    premises += 1
                    assert is_eta_conflation(i, p) is not None
            assert premises

    def test_power_conflation_from_power_alpha(self):
        # a deflation built with eta^2 is an eta^2-conflation, hence eta too
        rng = random.Random(59)
        inst = Graded(ScalarEta(GF(5), 1))
        power = EtaPower(inst, 2)
        for _ in range(5):
            defl = random_std_conflation(power, rng)
            assert is_eta_conflation(defl.i, defl.p) is not None  # power instance
            i1 = reinstance_chain_map(defl.i, inst)
            p1 = reinstance_chain_map(defl.p, inst)
            assert is_eta_conflation(i1, p1) is not None


class TestExactStructureAxioms:
    def test_ex0_identity_deflation(self):
        rng = random.Random(60)
        for inst in instances():
            x = random_complex(inst, rng)
            zero = Complex(inst, {}, {})
            i = zero_chain_map(zero, x)
            p = id_chain_map(x)
            assert is_eta_conflation(i, p) is not None

    def test_ex1_composite(self):
        rng = random.Random(61)
        for inst in instances():
            for _ in range(4):
                defl1 = random_std_conflation(inst, rng, max_len=2)
                V = random_complex(inst, rng, max_len=2)
                beta = random_chain_map(
                    shift_complex(defl1.middle, -1), apply_auto(V, 1), rng
                )
                assert ex1_composite(defl1, beta) is True

    def test_ex2_pullback(self):
        rng = random.Random(62)
        for inst in instances():
            for _ in range(4):
                defl = random_std_conflation(inst, rng, max_len=2)
                zp = random_complex(inst, rng, max_len=2)
                h = random_chain_map(zp, defl.Z, rng)
                assert ex2_pullback(defl, h) is True

    def test_ex1_op_composite(self):
        rng = random.Random(63)
        for inst in instances():
            for _ in range(4):
                infl1 = random_std_conflation(inst, rng, max_len=2)
                U = random_complex(inst, rng, max_len=2)
                gamma = random_chain_map(
                    shift_complex(U, -1), apply_auto(infl1.middle, 1), rng
                )
                assert ex1_op_composite(infl1, gamma)

    def test_ex2_op_pushout(self):
        rng = random.Random(64)
        for inst in instances():
            for _ in range(4):
                infl = random_std_conflation(inst, rng, max_len=2)
                xp = random_complex(inst, rng, max_len=2)
                h = random_chain_map(infl.X, xp, rng)
                assert ex2_op_pushout(infl, h)

    @pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=["Z", "GF5"])
    def test_ex2_checks_see_a_flipped_cone_sign(self, monkeypatch, ring):
        """W = X = (R --1--> R) in degrees 0, 1, alpha = Id and h = Id: f d != 0,
        so a cone built with the wrong sign is no complex, and both checks
        must say so rather than compare two equally wrong cones."""
        inst = ScalarEta(ring, ring.one())
        x = Complex(inst, {0: 1, 1: 1}, {0: RingMatrix.identity(ring, 1)})
        conf = StandardConflation(id_chain_map(x))
        checks = lambda: (ex2_pullback(conf, id_chain_map(conf.Z)), ex2_op_pushout(conf, id_chain_map(conf.X)))
        assert checks() == (True, True)
        monkeypatch.setattr(complexes_mod, "_CONE_SIGN", 1)
        conf = StandardConflation(id_chain_map(x))
        assert checks() == (False, False)


def ref_ex1_op_quotient(infl1, gamma):
    """The map W -> Q onto the quotient of the composite inflation, built by
    hand as ``ex1_op_composite`` built it before Q became cone(p g):
    Q^n = U^n (+) Z^n with d_Q = [[d_U, 0], [g1^{n+1}, d_Z]], and W -> Q the
    identity grid on the U and Z blocks of W^n = U^n (+) Z^n (+) X^n."""
    inst = infl1.instance
    X, Z, Y = infl1.X, infl1.Z, infl1.middle
    infl2 = StandardConflation(gamma)
    W = infl2.middle
    U = infl2.Z
    g = infl2.f  # U[-1] -> Y
    # quotient Q^n = U^n (+) Z^n with d_Q = [[d_U, 0], [g1^{n+1}, d_Z]]
    q_objects = {}
    q_diffs = {}
    degs = sorted(set(W.objects))
    for n in degs:
        q_objects[n] = inst.dsum([U.obj(n), Z.obj(n)])
    for n in degs:
        g_next = g.component(n + 1)  # (U[-1])^{n+1} = U^n -> Y^{n+1}
        g1 = inst.split_mor(g_next, [Z.obj(n + 1), X.obj(n + 1)], [U.obj(n)])[0][0]
        q_diffs[n] = inst.block_mor(
            [[U.diffs.get(n), None], [g1, Z.diffs.get(n)]],
            [U.obj(n + 1), Z.obj(n + 1)],
            [U.obj(n), Z.obj(n)],
        )
    Q = Complex(inst, q_objects, q_diffs)
    proj = ChainMap(W, Q, {
        n: inst.block_mor(
            [
                [inst.id_mor(U.obj(n)), None, None],
                [None, inst.id_mor(Z.obj(n)), None],
            ],
            [U.obj(n), Z.obj(n)],
            [U.obj(n), Z.obj(n), X.obj(n)],
        )
        for n in degs
    })
    return proj


class TestEx1OpQuotientOracle:
    @pytest.mark.parametrize("inst", [ScalarEta(ZZ, 2), ScalarEta(Zmod(4), 2), ScalarEta(GF(5), 2),
                                      Graded(ScalarEta(GF(5), 1)), Graded(ScalarEta(ZZ, 1))], ids=repr)
    def test_quotient_is_the_hand_built_one(self, monkeypatch, inst):
        seen = []

        def spy(i, p):
            seen.append((i, p))
            return is_eta_conflation(i, p)

        monkeypatch.setattr(frobenius, "is_eta_conflation", spy)
        rng = random.Random(65)
        for _ in range(6):
            infl1 = random_std_conflation(inst, rng, max_len=2)
            U = random_complex(inst, rng, max_len=2)
            # a random gamma, and gamma = Id_{Y(1)}, whose p g = p eta_Y fills the g1 block of d_Q
            for gamma in (random_chain_map(shift_complex(U, -1), apply_auto(infl1.middle, 1), rng),
                          id_chain_map(apply_auto(infl1.middle, 1))):
                del seen[:]
                assert ex1_op_composite(infl1, gamma)
                (composite, proj), = seen
                ref = ref_ex1_op_quotient(infl1, gamma)
                assert proj.target == ref.target
                assert proj == ref
                assert composite.target == proj.source


class TestRationalGradedWitness:
    """An eta-homotopy over Graded(Q) whose witness has a denominator: Y is
    V -2-> V, X the stalk V, f^0 = Id and g = 0, so the only witness is
    s^0 = eta_V / 2, and validation clears it through ``hom_scale``."""

    @staticmethod
    def pair():
        inst = Graded(ScalarEta(QQ, 1))
        V = GradedObject({0: 1, 1: 2})
        X = Complex(inst, {0: V}, {})
        Y = Complex(inst, {-1: V, 0: V}, {-1: inst.hom_scale(inst.id_mor(V), 2)})
        return ChainMap(X, Y, {0: inst.id_mor(V)}), zero_chain_map(X, Y)

    def test_witness_with_a_denominator_validates(self, monkeypatch):
        f, g = self.pair()
        inst = f.instance
        cert = eta_homotopic(f, g)
        assert cert is not None
        assert any(x.denominator == 2 for m in cert.s.values() for c in m.components.values() for x in c.entries)
        scales = []
        real_scale = Graded.hom_scale
        monkeypatch.setattr(Graded, "hom_scale", lambda self, m, a: scales.append(a) or real_scale(self, m, a))
        assert cert.validate(f, g)
        assert 2 in scales
        assert inst.hom_scale(cert.s[0], 2) == inst.eta(f.source.obj(0))

    def test_one_entry_mutation_fails(self):
        f, g = self.pair()
        cert = eta_homotopic(f, g)
        for n, m in cert.s.items():
            for key, c in m.components.items():
                for k in range(len(c.entries)):
                    entries = list(c.entries)
                    entries[k] += Fraction(1, 3)
                    comps = dict(m.components)
                    comps[key] = RingMatrix(c.ring, c.rows, c.cols, entries)
                    s = dict(cert.s)
                    s[n] = GradedMorphism(m.source, m.target, comps)
                    assert not HomotopyCertificate(s, True).validate(f, g)


# -- the degree-0 route over Graded -----------------------------------------


LEVEL0_RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), Zmod(12), GF(5), QQ]


class TestLevel0Route:
    """``is_eta_conflation`` and ``factor_through_eta`` over ``Graded`` split
    and factor on level 0 alone; the Kronecker route decides the same."""

    @pytest.mark.parametrize("ring", LEVEL0_RINGS, ids=str)
    def test_verdicts_match_the_kronecker_route(self, ring, monkeypatch):
        inst = Graded(ScalarEta(ring, 1))
        # the same category and eta behind an instance that is not Graded, so
        # its factor systems are posed in Kronecker form over every level; it
        # splits on level 0 too (its degree_zero() is Graded's), so the split
        # is compared with the Kronecker reference, on each draw and on its
        # broken variants, which need not split
        kron = EtaPower(inst, 1)
        posed = []
        solve = LinearProblem.solve

        def recording(prob):
            posed.append(prob)
            return solve(prob)

        monkeypatch.setattr(LinearProblem, "solve", recording)
        ref_above = ref_raised = 0
        rng = random.Random(29)
        seen = {"SOME": 0, "SOME, not strict": 0, "NONE": 0}
        for k in range(90):  # 30 each of split pairs, standard conflations and cones
            if k % 3 == 0:
                i, p = random_split_pair(inst, rng)
            elif k % 3 == 1:
                defl = random_std_conflation(inst, rng)
                i, p = conjugate_pair(defl.i, defl.p, rng)
            else:
                f = random_chain_map(random_complex(inst, rng), random_complex(inst, rng), rng)
                i, p = conjugate_pair(*cone(f)[1:], rng)
            for bi, bp in _broken_variants(i, p, random.Random(k)):
                posed.clear()
                ref_deg, _ = _split_degree(frobenius.reinstance_chain_map(bi, kron),
                                           frobenius.reinstance_chain_map(bp, kron), ref_kronecker_split)
                ref_raised += ref_deg is not None
                ref_above += any(lvl for prob in posed for S, T, _ in prob.unknowns.values()
                                 for lvl, _ in kron._slots(S, T))
                assert _split_degree(bi, bp, normalize_exact_pair)[0] == ref_deg, (ring, k)
            conf = is_eta_conflation(i, p)
            ki, kp = frobenius.reinstance_chain_map(i, kron), frobenius.reinstance_chain_map(p, kron)
            assert (conf is None) == (is_eta_conflation(ki, kp) is None), (ring, k)
            h = normalize_exact_pair(i, p).h
            strict = factor_through_eta(h)
            assert (strict is None) == (factor_through_eta(frobenius.reinstance_chain_map(h, kron)) is None)
            assert strict is None or conf is not None
            seen["NONE" if conf is None else "SOME" if strict is not None else "SOME, not strict"] += 1
        assert min(seen.values()) >= 1, seen
        # the reference solves r and q over every level, and some draws raise
        assert ref_above >= 30 and ref_raised >= 30, (ref_above, ref_raised)

    @staticmethod
    def two_level_pair():
        """X = Z = {0: 1, 1: 1} and Y = X (+) Z grade by grade, in degree 0;
        i and p are the summand maps plus i_1^0: X^0 -> X^1 and
        p_1^0: Z^0 -> Z^1 one level up, so p i = 0, and r_1 and q_1 are
        forced nonzero."""
        ring = GF(5)
        inst = Graded(ScalarEta(ring, 1))
        V, Y2 = GradedObject({0: 1, 1: 1}), GradedObject({0: 2, 1: 2})
        m = lambda *rows: RingMatrix.from_rows(ring, list(rows))
        i0 = GradedMorphism(V, Y2, {(0, 0): m([1], [0]), (0, 1): m([1], [0]), (1, 0): m([1], [0])})
        p0 = GradedMorphism(Y2, V, {(0, 0): m([0, 1]), (0, 1): m([0, 1]), (1, 0): m([0, 1])})
        x, y = Complex(inst, {0: V}, {}), Complex(inst, {0: Y2}, {})
        return ChainMap(x, y, {0: i0}), ChainMap(y, x, {0: p0})

    def test_higher_levels_of_the_inverses(self):
        i, p = self.two_level_pair()
        inst = i.instance
        sol = complexes_mod._one_sided_inverses(i, p, [0])
        r, q0 = sol[("r", 0)], sol[("q", 0)]
        assert (1, 0) in r.components and (1, 0) in q0.components
        V = i.source.obj(0)
        assert inst.compose(r, i.components[0]) == inst.id_mor(V)
        assert inst.compose(p.components[0], q0) == inst.id_mor(V)
        pair = normalize_exact_pair(i, p)
        assert inst.compose(pair.r[0], i.components[0]) == inst.id_mor(V)

    @staticmethod
    def cone_pair(f):
        _, inj, proj = cone(f)
        return inj, proj

    def test_level0_zero_factors_with_t_zero(self):
        """h = eta_X: X(1) -> X for a stalk X: h_0 = 0, h_1 = Id."""
        inst = Graded(ScalarEta(GF(5), 1))
        X = Complex(inst, {0: GradedObject({0: 1, 1: 2})}, {})
        i, p = self.cone_pair(eta_chain_map(X))
        h = normalize_exact_pair(i, p).h
        assert all(k for k, _ in h.components[0].components) and h.components[0].components
        conf = is_eta_conflation(i, p)
        assert conf is not None and all(inst.mor_is_zero(m) for m in conf.t.values())
        assert conf.h_tilde() == h
        assert factor_through_eta(h) == conf.alpha

    @staticmethod
    def null_on_level0():
        """f^0 = Id + eta from the stalk V in degree 0 into the disk V -Id-> V
        in degrees -1, 0: its level 0 is d s with s^0 = Id, so it is
        null-homotopic there but not 0."""
        inst = Graded(ScalarEta(QQ, 1))
        V = GradedObject({0: 1, 1: 1})
        X = Complex(inst, {0: V}, {})
        Y = Complex(inst, {-1: V, 0: V}, {-1: inst.id_mor(V)})
        eta = GradedMorphism(V, V, {(1, 0): RingMatrix.identity(QQ, 1)})
        return ChainMap(X, Y, {0: inst.hom_add(inst.id_mor(V), eta)})

    def test_level0_null_homotopic_factors_up_to_homotopy(self):
        i, p = self.cone_pair(self.null_on_level0())
        inst = i.instance
        h = normalize_exact_pair(i, p).h
        assert any(k == 0 for k, _ in h.components[0].components)
        assert factor_through_eta(h) is None
        conf = is_eta_conflation(i, p)
        assert conf is not None and not all(inst.mor_is_zero(m) for m in conf.t.values())
        assert HomotopyCertificate(conf.t).validate(conf.h_tilde(), h)

    def test_level0_not_null_homotopic_is_none(self):
        """Id of a stalk: h_0 = Id, and a stalk has no homotopy."""
        inst = Graded(ScalarEta(QQ, 1))
        X = Complex(inst, {0: GradedObject({0: 1, 2: 1})}, {})
        i, p = self.cone_pair(id_chain_map(X))
        h = normalize_exact_pair(i, p).h
        assert factor_through_eta(h) is None
        assert is_eta_conflation(i, p) is None


# -- the quotient route over ScalarEta ---------------------------------------


QUOTIENT_INSTANCES = (
    [ScalarEta(ZZ, c) for c in (2, -2, 3, 4, 6)]
    + [ScalarEta(GF(5), 2), ScalarEta(GF(7), 3), ScalarEta(QQ, Fraction(3, 2)), ScalarEta(Zmod(9), 2),
       ScalarEta(ZZ, -1)]
    + [ScalarEta(ring, 0) for ring in (GF(5), QQ, ZZ)]
    + [EtaPower(ScalarEta(ZZ, 2), 2)]
)


def _scalar_c(inst):
    """c with eta = c Id: r, or r^m under EtaPower."""
    return inst.r if isinstance(inst, ScalarEta) else inst.inner.r ** inst.m


class TestQuotientRoute:
    """``_factor_through_eta`` over ``ScalarEta`` and its powers, where eta = c Id
    with c = 0 or a non-zero-divisor, solves h + d t + t d = 0 in R/cR for t
    alone; the Kronecker system in a and t together decides the same."""

    @pytest.mark.parametrize("inst", QUOTIENT_INSTANCES, ids=repr)
    def test_verdicts_match_the_kronecker_route(self, inst):
        c = _scalar_c(inst)
        ring = inst.ring
        draw = inst.inner if isinstance(inst, EtaPower) else inst
        assert inst.eta_quotient() is not None
        rng = random.Random(131)
        seen = {"SOME": 0, "SOME, not strict": 0, "NONE": 0}
        for k in range(100):  # split pairs, standard conflations and cones in turn
            if k % 3 == 0:
                i, p = random_split_pair(draw, rng)
            elif k % 3 == 1:
                defl = random_std_conflation(draw, rng)
                i, p = conjugate_pair(defl.i, defl.p, rng)
            else:
                f = random_chain_map(random_complex(draw, rng), random_complex(draw, rng), rng)
                i, p = conjugate_pair(*cone(f)[1:], rng)
            i, p = frobenius.reinstance_chain_map(i, inst), frobenius.reinstance_chain_map(p, inst)
            h = normalize_exact_pair(i, p).h
            X = h.target
            found = {}
            for up_to_homotopy in (True, False):
                got = found[up_to_homotopy] = frobenius._factor_through_eta(h, up_to_homotopy)
                ref = frobenius._kronecker_factor(h, up_to_homotopy)
                assert (got is None) == (ref is None), (k, up_to_homotopy)
                if got is None:
                    continue
                a, t = got
                assert a.source == h.source and a.target == apply_auto(X, 1) and validate_chain_map(a)
                assert up_to_homotopy or not t
                assert HomotopyCertificate(t).validate(compose_chain_maps(eta_chain_map(X), a), h)
                if ring == ZZ and abs(c) >= 2:  # t lifted from Z/|c|
                    assert all(0 <= x < abs(c) for m in t.values() for x in m.entries)
                if ring.is_unit(c):  # R/cR = 0: nothing is solved
                    assert not t
            seen["NONE" if found[True] is None else "SOME, not strict" if found[False] is None else "SOME"] += 1
        if ring.is_unit(c):
            assert seen["NONE"] == seen["SOME, not strict"] == 0 and seen["SOME"], seen
        else:
            assert min(seen.values()) >= 1, seen

    def test_zero_divisors_keep_the_kronecker_route(self):
        for inst in (ScalarEta(Zmod(8), 2), ScalarEta(Zmod(9), 3), ScalarEta(Zmod(12), 6),
                     EtaPower(ScalarEta(Zmod(8), 2), 2), EtaPower(Graded(ScalarEta(GF(5), 1)), 2)):
            assert inst.eta_quotient() is None, inst
        # eta^2 = 2^2 = 0 over Z/4, and 0 takes the quotient route
        assert EtaPower(ScalarEta(Zmod(4), 2), 2).eta_quotient().c == 0

    def test_quotient_rings(self):
        """GF(|c|) for prime |c|, Z/|c| else; none for a unit, R itself for 0."""
        assert ScalarEta(ZZ, -3).eta_quotient().instance == ScalarEta(GF(3), 0)
        assert ScalarEta(ZZ, 6).eta_quotient().instance == ScalarEta(Zmod(6), 0)
        assert EtaPower(ScalarEta(ZZ, 2), 3).eta_quotient().instance == ScalarEta(Zmod(8), 0)
        assert ScalarEta(Zmod(9), 4).eta_quotient().instance is None
        assert ScalarEta(QQ, 0).eta_quotient().instance == ScalarEta(QQ, 0)
