"""Tests for bigraded systems, completion, and totalization.

Oracle notes:
- [DERIVED] reindexing round trips, totalization functoriality and the
  zero-i-differential total-complex oracle are checked against
  independently hand-built matrices.
- [DERIVED] completions are re-validated through the full relation
  checker, and certificates through the complex-level homotopy checker.
- [DERIVED] the relation checkers, which go through the complex layer over
  Graded, agree with the levelwise convolution sums kept here verbatim.
- [TRIVIAL] shape/constructor errors.
"""

import random
from typing import Dict, Tuple

import pytest

from etacomplex.complexes import (
    Complex,
    PostconditionError,
    compose_chain_maps,
    eta_chain_map,
    id_chain_map,
    null_homotopic,
    validate_chain_map,
    validate_complex,
)
from etacomplex.generators import (
    columnwise_null_delta_map,
    inductive_delta_complex,
    obstructed_delta_complex,
    random_delta_complex,
    random_delta_map,
    random_gmorphism,
    random_gsystem,
    random_strip_delta_complex,
)
from etacomplex.gsystems import (
    CGRA,
    GA,
    DeltaComplex,
    DeltaMap,
    GMorphism,
    GSystem,
    MatrixProblem,
    Obstruction,
    chain_map_to_gmorphism,
    complex_to_gsystem,
    cone_delta,
    corollary_equations_hold,
    eta_null_complete,
    find_seed,
    gmorphism_to_chain_map,
    graded_complex_instance,
    gs_compose,
    gsystem_to_complex,
    phi,
    phi_mor,
    psi,
    psi_inv,
    psi_inv_mor,
    psi_mor,
    seed_equations_hold,
    shift_delta,
    shift_gsystem,
    theta_extend,
    theta_extend_mor,
    theta_triangle_check,
    totalize,
    totalize_chain_map,
    totalize_mor,
    validate_delta,
    validate_delta_map,
    validate_gmorphism,
    validate_gsystem,
    xi_cone_identity,
    xi_mor,
)
from etacomplex.base import GradedMorphism, GradedObject, ScalarEta
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, ZZ, Zmod

RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), GF(5)]
Z4 = Zmod(4)


def M(ring, rows):
    return RingMatrix.from_rows(ring, rows)


# -- construction and relation checking -------------------------------------


class TestGSystemBasics:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GSystem(Z4, {(0, 0): 1, (1, 0): 2}, {(0, 0, 0): M(Z4, [[1]])})

    def test_level_one_relation_hand_example(self):
        # d_0 = [2] on two column segments over Z/4; the level-1 relation
        # reads 2(a+b) = 0, so it holds iff a + b is even.
        ranks = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1}

        def system(a, b):
            diffs = {
                (0, 0, 0): M(Z4, [[2]]),
                (0, 1, 1): M(Z4, [[2]]),
                (1, 1, 0): M(Z4, [[a]]),
                (1, 0, 0): M(Z4, [[b]]),
            }
            return GSystem(Z4, ranks, diffs)

        assert validate_gsystem(system(1, 1))
        assert validate_gsystem(system(3, 1))
        assert not validate_gsystem(system(1, 2))
        assert not validate_gsystem(system(0, 1))

    def test_square_zero_failure_detected(self):
        bad = GSystem(
            Z4,
            {(0, 0): 1, (1, 0): 1, (2, 0): 1},
            {(0, 0, 0): M(Z4, [[1]]), (0, 1, 0): M(Z4, [[1]])},
        )
        assert not validate_gsystem(bad)

    def test_ga_convention_relation(self):
        # single GA differential of bidegree (1,0) squaring to zero
        ranks = {(0, 0): 1, (1, 0): 1}
        x = GSystem(ZZ, ranks, {(0, 0, 0): M(ZZ, [[3]])}, GA)
        assert validate_gsystem(x)

    def test_json_round_trip(self):
        rng = random.Random(11)
        x = random_gsystem(Z4, rng)
        assert GSystem.from_json(x.to_json()) == x

    def test_identity_and_composition(self):
        rng = random.Random(5)
        for trial in range(20):
            x = random_gsystem(Z4, random.Random(100 + trial))
            y = random_gsystem(Z4, random.Random(200 + trial))
            f = random_gmorphism(x, y, rng)
            assert validate_gmorphism(f)
            assert gs_compose(f, chain_map_to_gmorphism(id_chain_map(gsystem_to_complex(x)))) == f
            assert gs_compose(chain_map_to_gmorphism(id_chain_map(gsystem_to_complex(y))), f) == f

    def test_composition_is_valid_morphism(self):
        rng = random.Random(6)
        for trial in range(20):
            x = random_gsystem(GF(5), random.Random(300 + trial))
            y = random_gsystem(GF(5), random.Random(400 + trial))
            z = random_gsystem(GF(5), random.Random(500 + trial))
            f = random_gmorphism(x, y, rng)
            g = random_gmorphism(y, z, rng)
            assert validate_gmorphism(gs_compose(g, f))


class TestPsi:
    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)])
    def test_round_trip_and_validity(self, ring):
        for trial in range(30):
            x = random_gsystem(ring, random.Random(1000 + trial))
            ga = psi_inv(x)
            assert ga.convention == GA
            assert validate_gsystem(ga)
            assert psi(ga) == x

    def test_morphism_round_trip_and_composition(self):
        rng = random.Random(7)
        for trial in range(20):
            x = random_gsystem(Z4, random.Random(2000 + trial))
            y = random_gsystem(Z4, random.Random(3000 + trial))
            z = random_gsystem(Z4, random.Random(4000 + trial))
            f = random_gmorphism(x, y, rng)
            g = random_gmorphism(y, z, rng)
            fg = psi_inv_mor(f)
            gg = psi_inv_mor(g)
            assert validate_gmorphism(fg)
            assert psi_mor(fg) == f
            assert gs_compose(gg, fg) == psi_inv_mor(gs_compose(g, f))


class TestConverters:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(9), GF(5)])
    def test_complex_round_trip(self, ring):
        for trial in range(25):
            x = random_gsystem(ring, random.Random(5000 + trial))
            c = gsystem_to_complex(x)
            assert validate_complex(c)
            assert complex_to_gsystem(c) == x

    def test_chain_map_round_trip(self):
        rng = random.Random(8)
        for trial in range(20):
            x = random_gsystem(Z4, random.Random(6000 + trial))
            y = random_gsystem(Z4, random.Random(7000 + trial))
            f = random_gmorphism(x, y, rng)
            cm = gmorphism_to_chain_map(f)
            assert validate_chain_map(cm)
            assert chain_map_to_gmorphism(cm) == f


# -- totalization -----------------------------------------------------------


class TestTotalize:
    def test_block_display(self):
        # graded object degrees {0,1}; morphism components f_0, f_1 totalize
        # to the lower-triangular block [[f0^0, 0], [f1^0, f0^1]]
        src = GradedObject({0: 1, 1: 1})
        tgt = GradedObject({0: 1, 1: 1})
        f0a, f0b, f1 = M(Z4, [[1]]), M(Z4, [[3]]), M(Z4, [[2]])
        f = GradedMorphism(src, tgt, {(0, 0): f0a, (0, 1): f0b, (1, 0): f1})
        assert xi_mor(f, Z4) == M(Z4, [[1, 0], [2, 3]])

    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)])
    def test_totalize_is_complex(self, ring):
        for trial in range(30):
            x = random_gsystem(ring, random.Random(8000 + trial))
            t = totalize(x)
            assert validate_complex(t)

    def test_functoriality(self):
        rng = random.Random(9)
        for trial in range(20):
            x = random_gsystem(Z4, random.Random(9000 + trial))
            y = random_gsystem(Z4, random.Random(10000 + trial))
            z = random_gsystem(Z4, random.Random(11000 + trial))
            f = random_gmorphism(x, y, rng)
            g = random_gmorphism(y, z, rng)
            tf, tg = totalize_mor(f), totalize_mor(g)
            assert validate_chain_map(tf)
            assert totalize_mor(gs_compose(g, f)) == compose_chain_maps(tg, tf)
            ti = totalize_chain_map(id_chain_map(gsystem_to_complex(x)))
            for n in ti.source.objects:
                assert ti.component(n) == RingMatrix.identity(x.ring, ti.source.obj(n))

    def test_eta_totalizes_to_identity(self):
        for trial in range(30):
            x = random_gsystem(Z4, random.Random(12000 + trial))
            te = totalize_chain_map(eta_chain_map(gsystem_to_complex(x)))
            assert te.source == te.target
            for n in te.source.objects:
                assert te.component(n) == RingMatrix.identity(Z4, te.source.obj(n))

    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)])
    def test_cone_of_eta_totalizes_to_cone_of_identity(self, ring):
        for trial in range(25):
            v = random_gsystem(ring, random.Random(13000 + trial))
            assert xi_cone_identity(v)

    def test_sign_mutant_breaks_eta_identity(self, monkeypatch):
        import etacomplex.gsystems as gs

        x = None
        for trial in range(50):
            cand = random_gsystem(Z4, random.Random(14000 + trial))
            eta = eta_chain_map(gsystem_to_complex(cand))
            if any(n == 1 for g in eta.components.values() for (n, _) in g.components):
                x = cand
                break
        assert x is not None
        monkeypatch.setattr(gs, "_XI_SIGN", -1)
        te = totalize_chain_map(eta_chain_map(gsystem_to_complex(x)))
        assert any(
            te.component(n) != RingMatrix.identity(Z4, te.source.obj(n))
            for n in te.source.objects
        )


# -- DeltaComplex -----------------------------------------------------------


class TestDeltaComplex:
    @pytest.mark.parametrize("ring", RINGS)
    def test_random_instances_valid(self, ring):
        for trial in range(15):
            x = random_delta_complex(ring, random.Random(20000 + trial))
            assert validate_delta(x)

    def test_inductive_template_valid(self):
        x = inductive_delta_complex()
        assert validate_delta(x)
        # the column square is nonzero, so the homotopy is genuinely needed
        sq = compose_chain_maps(x.delta1_map(1), x.delta1_map(0))
        assert not sq.is_zero()

    def test_obstructed_template_valid_but_not_orthogonal(self):
        x = obstructed_delta_complex(Z4)
        assert validate_delta(x)
        assert not (x.d0(0, 1) @ x.d1(0, 0)).is_zero()

    def test_commutation_failure_detected(self):
        ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
        d0 = {(0, 0): M(Z4, [[2]]), (0, 1): M(Z4, [[2]])}
        d1 = {(0, 0): M(Z4, [[1]]), (1, 0): M(Z4, [[2]])}
        assert not validate_delta(DeltaComplex(Z4, ranks, d0, d1))

    def test_square_not_null_homotopic_detected(self):
        # three columns of stalks, delta1 = 1 twice: square is the identity,
        # never null-homotopic for a stalk column
        ranks = {(0, j): 1 for j in (0, 1, 2)}
        d1 = {(0, 0): M(Z4, [[1]]), (0, 1): M(Z4, [[1]])}
        assert not validate_delta(DeltaComplex(Z4, ranks, {}, d1))

    def test_json_round_trip(self):
        x = random_delta_complex(Z4, random.Random(42))
        assert DeltaComplex.from_json(x.to_json()) == x

    def test_random_delta_map_strict(self):
        rng = random.Random(10)
        for trial in range(15):
            x = random_delta_complex(Z4, random.Random(21000 + trial))
            y = random_delta_complex(Z4, random.Random(22000 + trial))
            f = random_delta_map(x, y, rng)
            assert validate_delta_map(f)

    def test_shift_and_cone_valid(self):
        rng = random.Random(12)
        for trial in range(10):
            x = random_strip_delta_complex(Z4, random.Random(23000 + trial))
            y = random_strip_delta_complex(Z4, random.Random(24000 + trial))
            assert validate_delta(shift_delta(x))
            f = random_delta_map(x, y, rng)
            assert validate_delta(cone_delta(f))


# -- theta: inductive completion --------------------------------------------


class TestThetaExtend:
    def test_single_column_is_plain_reindexing(self):
        x = DeltaComplex(
            Z4,
            {(0, 1): 1, (1, 1): 1},
            {(0, 1): M(Z4, [[2]])},
            {},
        )
        out = theta_extend(x)
        assert isinstance(out, GSystem)
        assert out.ranks == {(1, 1): 1, (2, 1): 1}
        assert out.diffs == {(0, 1, 1): M(Z4, [[2]])}

    def test_strip_gets_signed_level_one(self):
        # row i=0, columns 0..2 with j-maps 4 then 2 over Z/8 (2*4 = 0)
        ring = Zmod(8)
        x = DeltaComplex(
            ring,
            {(0, j): 1 for j in (0, 1, 2)},
            {},
            {(0, 0): M(ring, [[4]]), (0, 1): M(ring, [[2]])},
        )
        assert validate_delta(x)
        out = theta_extend(x)
        assert isinstance(out, GSystem)
        assert out.diff(1, 0, 0) == M(ring, [[4]])
        assert out.diff(1, 1, 1) == M(ring, [[-2]])  # (-1)^j twist at j = 1
        assert out.max_level() == 1

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_instances_complete_and_validate(self, ring):
        for trial in range(15):
            x = random_delta_complex(ring, random.Random(30000 + trial))
            out = theta_extend(x)
            assert isinstance(out, GSystem)
            assert validate_gsystem(out)
            # levels 0 and 1 are the reindexed input with the column twist
            for (r, j), m in x.delta0.items():
                assert out.diff(0, r + j, j) == m
            for (r, j), m in x.delta1.items():
                want = m if j % 2 == 0 else -m
                assert out.diff(1, r + j, j) == want

    def test_inductive_template_needs_level_two(self):
        out = theta_extend(inductive_delta_complex())
        assert isinstance(out, GSystem)
        assert validate_gsystem(out)
        assert any(n == 2 and not m.is_zero() for (n, _, _), m in out.diffs.items())

    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(9), GF(5)])
    def test_engineered_obstruction_reported(self, ring):
        out = theta_extend(obstructed_delta_complex(ring))
        assert isinstance(out, Obstruction)
        assert not out
        assert out.stage == "theta-extend"
        assert out.level == 1
        assert out.position is not None

    def test_total_parity_resolves_strict_commutation(self):
        # with the (-1)^i twist the level-1 relation is the commutator, so
        # the same instance completes
        out = theta_extend(obstructed_delta_complex(Z4), parity="total")
        assert isinstance(out, GSystem)
        assert validate_gsystem(out)

    def test_parity_knob_changes_default(self, monkeypatch):
        import etacomplex.gsystems as gs

        x = obstructed_delta_complex(Z4)
        assert isinstance(theta_extend(x), Obstruction)
        monkeypatch.setattr(gs, "_THETA_PARITY", "total")
        assert isinstance(theta_extend(x), GSystem)

    def test_obstruction_json(self):
        out = theta_extend(obstructed_delta_complex(Z4))
        d = out.to_json()
        assert d["obstruction"] == "theta-extend"
        assert d["level"] == 1


class TestThetaExtendMor:
    def test_identity_extends_to_identity(self):
        for trial in range(10):
            x = random_delta_complex(Z4, random.Random(40000 + trial))
            xhat = theta_extend(x)
            assert isinstance(xhat, GSystem)
            ident = DeltaMap(
                x, x,
                {pos: RingMatrix.identity(Z4, r) for pos, r in x.ranks.items()},
            )
            fhat = theta_extend_mor(ident, xhat, xhat)
            assert fhat == chain_map_to_gmorphism(id_chain_map(gsystem_to_complex(xhat)))

    def test_zero_extends_to_zero(self):
        x = random_delta_complex(Z4, random.Random(41000))
        y = random_delta_complex(Z4, random.Random(41001))
        xhat, yhat = theta_extend(x), theta_extend(y)
        assert isinstance(xhat, GSystem) and isinstance(yhat, GSystem)
        fhat = theta_extend_mor(DeltaMap(x, y, {}), xhat, yhat)
        assert isinstance(fhat, GMorphism)
        assert fhat.is_zero()
        assert validate_gmorphism(fhat)

    def test_first_inconsistent_level_below_top(self):
        # the level-2 equation at (0,0) reads 0 = d_2 f_0 = [1]; level 3
        # (the top) has no equation, so the joint system through level 3
        # fails but the reported level is 2
        xhat = GSystem(Z4, {(0, 0): 1}, {})
        yhat = GSystem(Z4, {(0, 0): 1, (1, 2): 1, (0, 3): 1}, {(2, 0, 0): M(Z4, [[1]])})
        assert validate_gsystem(yhat)
        x = DeltaComplex(Z4, {(0, 0): 1}, {}, {})
        y = DeltaComplex(Z4, {(0, 0): 1, (-1, 2): 1, (-3, 3): 1}, {}, {})
        out = theta_extend_mor(DeltaMap(x, y, {(0, 0): M(Z4, [[1]])}), xhat, yhat)
        assert isinstance(out, Obstruction)
        assert out.stage == "theta-extend-mor"
        assert out.level == 2

    @pytest.mark.parametrize("ring", [Z4, Zmod(9), GF(5)])
    def test_random_maps_extend(self, ring):
        rng = random.Random(13)
        for trial in range(10):
            x = random_delta_complex(ring, random.Random(42000 + trial))
            y = random_delta_complex(ring, random.Random(43000 + trial))
            xhat, yhat = theta_extend(x), theta_extend(y)
            assert isinstance(xhat, GSystem) and isinstance(yhat, GSystem)
            f = random_delta_map(x, y, rng)
            fhat = theta_extend_mor(f, xhat, yhat)
            assert isinstance(fhat, GMorphism)
            assert validate_gmorphism(fhat)
            for (r, j), m in f.components.items():
                assert fhat.comp(0, r + j, j) == m


class TestTriangle:
    @pytest.mark.parametrize("ring", [Z4, Zmod(8), GF(5)])
    def test_strip_regime(self, ring):
        rng = random.Random(14)
        for trial in range(10):
            x = random_strip_delta_complex(ring, random.Random(50000 + trial))
            y = random_strip_delta_complex(ring, random.Random(51000 + trial))
            f = random_delta_map(x, y, rng)
            assert theta_triangle_check(f) is True

    def test_general_solvable_regime(self):
        # a strict column-wise map need not extend against fixed completions
        # (that takes a hom-vanishing hypothesis); obstructions must be
        # reported, and whenever the extension exists the identities hold
        rng = random.Random(15)
        done = 0
        for trial in range(12):
            x = random_delta_complex(Z4, random.Random(52000 + trial))
            y = random_delta_complex(Z4, random.Random(53000 + trial))
            f = random_delta_map(x, y, rng)
            out = theta_triangle_check(f)
            if isinstance(out, Obstruction):
                assert out.stage == "theta-extend-mor"
                continue
            assert out is True
            done += 1
        assert done >= 6

    def test_obstructed_source_propagates(self):
        x = obstructed_delta_complex(Z4)
        f = DeltaMap(x, x, {pos: RingMatrix.identity(Z4, r) for pos, r in x.ranks.items()})
        out = theta_triangle_check(f)
        assert isinstance(out, Obstruction)

    def test_shift_gsystem_validates(self):
        for trial in range(10):
            x = random_delta_complex(Z4, random.Random(54000 + trial))
            xhat = theta_extend(x)
            assert isinstance(xhat, GSystem)
            assert validate_gsystem(shift_gsystem(xhat))


# -- eta-null completion ----------------------------------------------------


class TestEtaNullComplete:
    def test_zero_map_zero_seed(self):
        x = random_gsystem(Z4, random.Random(60000))
        y = random_gsystem(Z4, random.Random(60001))
        f = GMorphism(x, y, {})
        assert seed_equations_hold(f, {}, {})
        cert = eta_null_complete(f, {}, {})
        assert not isinstance(cert, Obstruction)

    def test_invalid_seed_rejected(self):
        x = GSystem(Z4, {(0, 0): 1}, {})
        f = GMorphism(x, x, {(0, 0, 0): M(Z4, [[1]])})
        with pytest.raises(ValueError):
            eta_null_complete(f, {}, {})

    def test_two_stalk_obstruction(self):
        # X a stalk at (0,0), Y a stalk at (0,1): the only nonzero component
        # sits in level 1 and can never be absorbed by a homotopy
        x = GSystem(Z4, {(0, 0): 1}, {})
        y = GSystem(Z4, {(0, 1): 1}, {})
        f = GMorphism(x, y, {(1, 0, 0): M(Z4, [[1]])})
        assert validate_gmorphism(f)
        assert seed_equations_hold(f, {}, {})
        out = eta_null_complete(f, {}, {})
        assert isinstance(out, Obstruction)
        assert out.stage == "eta-null-complete"
        assert out.level == 1

    def test_first_inconsistent_level_below_top(self):
        # X a stalk at (0,0), Y a stalk at (0,2): f_2 = [1] is the level-2
        # equation with no unknown; the top level is 3
        x = GSystem(Z4, {(0, 0): 1}, {})
        y = GSystem(Z4, {(0, 2): 1}, {})
        f = GMorphism(x, y, {(2, 0, 0): M(Z4, [[1]])})
        out = eta_null_complete(f, {}, {})
        assert isinstance(out, Obstruction)
        assert out.stage == "eta-null-complete"
        assert out.level == 2

    def test_failed_revalidation_raises_under_any_optimization(self, monkeypatch):
        import etacomplex.gsystems as gs

        x = GSystem(Z4, {(0, 0): 1}, {})
        f = GMorphism(x, x, {})
        monkeypatch.setattr(gs, "corollary_equations_hold", lambda f, s: False)
        with pytest.raises(PostconditionError):
            eta_null_complete(f, {}, {})

    @pytest.mark.parametrize("ring", [Z4, Zmod(8), GF(5)])
    def test_columnwise_null_maps_complete(self, ring):
        rng = random.Random(16)
        done = 0
        for trial in range(25):
            x = random_strip_delta_complex(ring, random.Random(61000 + trial))
            y = x  # endomorphisms guarantee overlapping columns
            alpha = columnwise_null_delta_map(x, y, rng)
            xhat, yhat = theta_extend(x), theta_extend(y)
            assert isinstance(xhat, GSystem) and isinstance(yhat, GSystem)
            fhat = theta_extend_mor(alpha, xhat, yhat)
            assert isinstance(fhat, GMorphism)
            if fhat.is_zero():
                continue
            seed = find_seed(fhat)
            assert seed is not None
            s0, s1 = seed
            assert seed_equations_hold(fhat, s0, s1)
            cert = eta_null_complete(fhat, s0, s1)
            assert not isinstance(cert, Obstruction)
            done += 1
        assert done >= 5

    def test_corollary_checker_rejects_bad_family(self):
        x = GSystem(Z4, {(0, 0): 1}, {})
        f = GMorphism(x, x, {(0, 0, 0): M(Z4, [[1]])})
        assert not corollary_equations_hold(f, {})


# -- phi --------------------------------------------------------------------


class TestPhi:
    def test_single_column_oracle(self):
        ring = Zmod(9)
        x = DeltaComplex(
            ring,
            {(0, 1): 2, (1, 1): 1},
            {(0, 1): M(ring, [[3, 3]])},
            {},
        )
        t = phi(x)
        assert isinstance(t, Complex)
        assert t.objects == {1: 2, 2: 1}
        assert t.diff(1) == M(ring, [[3, 3]])

    @pytest.mark.parametrize("ring", RINGS)
    def test_strip_total_complex_oracle(self, ring):
        # independent oracle: for zero i-differential the image is the
        # ordinary total complex with (-1)^j on the j-map
        for trial in range(15):
            x = random_strip_delta_complex(ring, random.Random(70000 + trial))
            t = phi(x)
            assert isinstance(t, Complex)
            expected = _strip_total_complex(x)
            assert t == expected

    def test_phi_mor_is_chain_map(self):
        rng = random.Random(17)
        for trial in range(10):
            x = random_delta_complex(Z4, random.Random(71000 + trial))
            y = random_delta_complex(Z4, random.Random(72000 + trial))
            f = random_delta_map(x, y, rng)
            t = phi_mor(f)
            assert validate_chain_map(t)

    @pytest.mark.parametrize("ring", [Z4, GF(5)])
    def test_columnwise_null_becomes_null_homotopic(self, ring):
        rng = random.Random(18)
        done = 0
        for trial in range(20):
            x = random_strip_delta_complex(ring, random.Random(73000 + trial))
            alpha = columnwise_null_delta_map(x, x, rng)
            t = phi_mor(alpha)
            assert null_homotopic(t) is not None
            if not t.is_zero():
                done += 1
        assert done >= 5

    def test_obstruction_propagates(self):
        assert isinstance(phi(obstructed_delta_complex(Z4)), Obstruction)


def _strip_total_complex(x: DeltaComplex) -> Complex:
    """Hand-built total complex of a zero-i-differential instance."""
    ring = x.ring
    inst = ScalarEta(ring, ring.one())
    degs = sorted({r + j for (r, j) in x.ranks})
    cols = {i: sorted(j for (r, j) in x.ranks if r + j == i) for i in degs}
    objects = {i: sum(x.rank(i - j, j) for j in cols[i]) for i in degs}
    diffs = {}
    for i in degs:
        if i + 1 not in cols:
            continue
        grid = []
        for t in cols[i + 1]:
            row = []
            for j in cols[i]:
                if t == j + 1:
                    m = x.d1(i - j, j)
                    row.append(m if j % 2 == 0 else -m)
                else:
                    row.append(None)
            grid.append(row)
        diffs[i] = RingMatrix.block(
            ring,
            grid,
            [x.rank(i + 1 - t, t) for t in cols[i + 1]],
            [x.rank(i - j, j) for j in cols[i]],
        )
    return Complex(inst, objects, diffs)


# -- MatrixProblem ----------------------------------------------------------


class TestMatrixProblem:
    def test_two_sided_equation(self):
        # solve L U + U R = B over Z
        L = M(ZZ, [[1, 1], [0, 1]])
        R = M(ZZ, [[2, 0], [1, 1]])
        w = M(ZZ, [[1, 2], [0, 1]])
        B = L @ w + w @ R  # consistent by construction
        prob = MatrixProblem(ZZ)
        prob.add_unknown("u", 2, 2)
        prob.add_equation((2, 2), [("u", L, None, 1), ("u", None, R, 1)], B)
        sol = prob.solve()
        assert sol is not None
        u = sol["u"]
        assert L @ u + u @ R == B

    def test_inconsistent_detected(self):
        prob = MatrixProblem(Z4)
        prob.add_unknown("u", 1, 1)
        two = M(Z4, [[2]])
        prob.add_equation((1, 1), [("u", two, None, 1)], M(Z4, [[1]]))
        assert prob.solve() is None

    def test_empty_equation_with_rhs(self):
        prob = MatrixProblem(ZZ)
        prob.add_equation((1, 1), [], M(ZZ, [[5]]))
        assert prob.solve() is None

    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)], ids=str)
    def test_coefficients_are_kronecker_products(self, ring):
        # coefficient of U[a, b] in equation entry (p, q) is sign * L[p, a] * R[b, q]
        rng = random.Random(43)
        for _ in range(20):
            ru, cu, er, ec = (rng.randint(1, 3) for _ in range(4))
            L = M(ring, [[rng.randint(-3, 3) for _ in range(ru)] for _ in range(er)])
            R = M(ring, [[rng.randint(-3, 3) for _ in range(ec)] for _ in range(cu)])
            sign = rng.choice([1, -1])
            rhs = M(ring, [[rng.randint(-3, 3) for _ in range(ec)] for _ in range(er)])
            prob = MatrixProblem(ring)
            prob.add_unknown("v", 1, 1)
            prob.add_unknown("u", ru, cu)
            prob.add_equation((er, ec), [("u", L, R, sign)], rhs)
            coeffs, rhs_col = prob._build()
            expected = [
                [ring.zero()]
                + [ring.canon(sign * L[(p, a)] * R[(b, q)]) for a in range(ru) for b in range(cu)]
                for p in range(er) for q in range(ec)
            ]
            assert coeffs == RingMatrix.from_rows(ring, expected)
            assert rhs_col.entries == rhs.entries


# -- oracle: the hand-written convolution checkers --------------------------
#
# The four checkers below are the levelwise convolution sums that the
# library used before its relations went through the complex layer over
# Graded; they are kept verbatim as an independent oracle.


def ref_validate_gsystem(x: GSystem) -> bool:
    """The convolution relations: sum_{p+q=n} d_p d_q = 0 at every position."""
    top = 2 * x.max_level()
    for n in range(top + 1):
        for (i, j) in x.positions:
            acc = None
            for q in range(n + 1):
                dq = x.diffs.get((q, i, j))
                if dq is None:
                    continue
                mi, mj = x.target_pos(q, i, j)
                dp = x.diffs.get((n - q, mi, mj))
                if dp is None:
                    continue
                term = dp @ dq
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                return False
    return True


def ref_validate_gmorphism(f: GMorphism) -> bool:
    """The intertwining relations: sum f_p d_{X,q} = sum d_{Y,p} f_q levelwise."""
    X, Y = f.source, f.target
    top = f.max_level() + max(X.max_level(), Y.max_level())
    for n in range(top + 1):
        for (i, j) in X.positions:
            acc = None
            for q in range(n + 1):
                dq = X.diffs.get((q, i, j))
                if dq is not None:
                    mi, mj = X.target_pos(q, i, j)
                    fp = f.components.get((n - q, mi, mj))
                    if fp is not None:
                        term = fp @ dq
                        acc = term if acc is None else acc + term
                fq = f.components.get((q, i, j))
                if fq is not None:
                    mi, mj = f.comp_target(q, i, j)
                    dp = Y.diffs.get((n - q, mi, mj))
                    if dp is not None:
                        term = -(dp @ fq)
                        acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                return False
    return True


def ref_seed_equations_hold(
    f: GMorphism,
    s0: Dict[Tuple[int, int], RingMatrix],
    s1: Dict[Tuple[int, int], RingMatrix],
) -> bool:
    X, Y = f.source, f.target
    ring = X.ring

    def sv(s, i, j, n):
        m = s.get((i, j))
        if m is None:
            return RingMatrix.zero(ring, Y.rank(i - 1, j + n - 1), X.rank(i, j))
        return m

    for (i, j) in X.positions:
        ra = Y.rank(i, j - 1)
        if ra or X.rank(i, j):
            res = Y.diff(0, i - 1, j - 1) @ sv(s0, i, j, 0) + sv(
                s0, i + 1, j, 0
            ) @ X.diff(0, i, j)
            if not res.is_zero():
                return False
        lhs = f.comp(0, i, j)
        rhs = (
            Y.diff(1, i - 1, j - 1) @ sv(s0, i, j, 0)
            + Y.diff(0, i - 1, j) @ sv(s1, i, j, 1)
            + sv(s0, i + 1, j + 1, 0) @ X.diff(1, i, j)
            + sv(s1, i + 1, j, 1) @ X.diff(0, i, j)
        )
        if lhs != rhs:
            return False
    return True


def ref_corollary_equations_hold(
    f: GMorphism, s: Dict[int, Dict[Tuple[int, int], RingMatrix]]
) -> bool:
    """The full eta-null-homotopy equation set for a family {s_n}."""
    X, Y = f.source, f.target
    ring = X.ring

    def sv(n, i, j):
        m = s.get(n, {}).get((i, j))
        if m is None:
            return RingMatrix.zero(ring, Y.rank(i - 1, j + n - 1), X.rank(i, j))
        return m

    yj = [j for (_, j) in Y.ranks]
    xj = [j for (_, j) in X.ranks]
    top = f.max_level() + 1
    if yj and xj:
        top = max(top, max(yj) - min(xj) + 2)
    for (i, j) in X.positions:
        if Y.rank(i, j - 1) or X.rank(i, j):
            res = Y.diff(0, i - 1, j - 1) @ sv(0, i, j) + sv(0, i + 1, j) @ X.diff(
                0, i, j
            )
            if not res.is_zero():
                return False
        for n in range(top + 1):
            er, ec = Y.rank(i, j + n), X.rank(i, j)
            if not ec:
                continue
            acc = RingMatrix.zero(ring, er, ec)
            for q in range(n + 2):
                p = n + 1 - q
                acc = acc + sv(p, i + 1, j + q) @ X.diff(q, i, j)
                acc = acc + Y.diff(p, i - 1, j + q - 1) @ sv(q, i, j)
            if f.comp(n, i, j) != acc:
                return False
    return True


def _perturb_entry(m: RingMatrix, rng) -> RingMatrix:
    """m with one entry raised by one."""
    entries = list(m.entries)
    k = rng.randrange(len(entries))
    entries[k] = m.ring.canon(entries[k] + 1)
    return RingMatrix(m.ring, m.rows, m.cols, entries)


def _perturb_dict(d, rng):
    """d with one matrix value perturbed, or None when d holds no matrix."""
    keys = sorted(k for k, m in d.items() if m.rows and m.cols)
    if not keys:
        return None
    key = rng.choice(keys)
    return {**d, key: _perturb_entry(d[key], rng)}


def _family(cert):
    """The family {s_n^{ij}} of an eta-null certificate over Graded."""
    s = {}
    for i, g in cert.s.items():
        for (n, j), m in g.components.items():
            s.setdefault(n, {})[(i, j + 1)] = m
    return s


class TestFoldedCheckersOracle:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(9), GF(5)], ids=str)
    def test_systems_and_morphisms(self, ring):
        rng = random.Random(91)
        seen = set()
        for trial in range(25):
            x = random_gsystem(ring, random.Random(90000 + trial))
            y = random_gsystem(ring, random.Random(90500 + trial))
            f = random_gmorphism(x, y, rng)
            xs = [x]
            fs = [f]
            diffs = _perturb_dict(x.diffs, rng)
            if diffs is not None:
                xs.append(GSystem(ring, x.ranks, diffs))
                fs.append(GMorphism(xs[-1], y, f.components))
            comps = _perturb_dict(f.components, rng)
            if comps is not None:
                fs.append(GMorphism(x, y, comps))
            for a in xs:
                for b in (a, psi_inv(a)):
                    got = validate_gsystem(b)
                    assert got == ref_validate_gsystem(b)
                    seen.add(("system", got))
            for g in fs:
                for h in (g, psi_inv_mor(g)):
                    got = validate_gmorphism(h)
                    assert got == ref_validate_gmorphism(h)
                    seen.add(("morphism", got))
        assert seen == {(k, v) for k in ("system", "morphism") for v in (True, False)}

    @pytest.mark.parametrize("ring", [Z4, Zmod(8), GF(5)], ids=str)
    def test_seeds_and_families(self, ring):
        rng = random.Random(92)
        seen = set()
        for trial in range(25):
            x = random_strip_delta_complex(ring, random.Random(92000 + trial))
            alpha = columnwise_null_delta_map(x, x, rng)
            xhat = theta_extend(x)
            fhat = theta_extend_mor(alpha, xhat, xhat)
            seed = find_seed(fhat)
            assert seed is not None
            s0, s1 = seed
            cert = eta_null_complete(fhat, s0, s1)
            assert not isinstance(cert, Obstruction)
            s = _family(cert)
            bad_f = _perturb_dict(fhat.components, rng)
            fs = [fhat] + ([] if bad_f is None else [GMorphism(xhat, xhat, bad_f)])
            seeds = [(s0, s1)]
            for k in (0, 1):
                bad = _perturb_dict(seed[k], rng)
                if bad is not None:
                    seeds.append((bad, s1) if k == 0 else (s0, bad))
            families = [s]
            for n in sorted(s):
                bad = _perturb_dict(s[n], rng)
                if bad is not None:
                    families.append({**s, n: bad})
            for f in fs:
                for a, b in seeds:
                    got = seed_equations_hold(f, a, b)
                    assert got == ref_seed_equations_hold(f, a, b)
                    seen.add(("seed", got))
                for fam in families:
                    got = corollary_equations_hold(f, fam)
                    assert got == ref_corollary_equations_hold(f, fam)
                    seen.add(("family", got))
        assert seen == {(k, v) for k in ("seed", "family") for v in (True, False)}
