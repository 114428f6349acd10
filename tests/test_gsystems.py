"""Tests for bigraded systems, completion, and totalization.

Oracle notes:
- [DERIVED] reindexing round trips, totalization functoriality and the
  zero-i-differential total-complex oracle are checked against
  independently hand-built matrices.
- [DERIVED] completions are re-validated through the full relation
  checker, and certificates through the complex-level homotopy checker.
- [DERIVED] the relation checkers, which go through the complex layer over
  Graded, agree with the levelwise convolution sums kept here verbatim.
- [DERIVED] the stored-complex GSystem and GMorphism agree with the flat-dict
  definitions kept here verbatim, and so do the maps between them; the level
  systems of the three constructions and of ``find_seed`` agree entry for
  entry with their hand-written registrations, also kept verbatim.
- [TRIVIAL] shape/constructor errors.
"""

import json
import random
import types
from typing import Dict, List, Optional, Tuple

import pytest

from etacomplex.complexes import (
    ChainMap,
    Complex,
    HomotopyCertificate,
    LinearProblem,
    PostconditionError,
    compose_chain_maps,
    eta_chain_map,
    id_chain_map,
    null_homotopic,
    validate_chain_map,
    validate_complex,
    verify,
)
from etacomplex.generators import (
    columnwise_null_delta_map,
    inductive_delta_complex,
    obstructed_delta_complex,
    random_delta_complex,
    random_chain_map,
    random_delta_map,
    random_gmorphism,
    random_graded_complex,
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
from etacomplex.base import Graded, GradedMorphism, GradedObject, ScalarEta, json_int, json_matrix, json_pos
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, ZZ, CoeffRing, Zmod
import etacomplex.gsystems as gs
import etacomplex.generators as gen

from dense_adapter import dense_build

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

    def test_mutants_break_cone_identity(self, monkeypatch):
        """xi_cone_identity answers False where the totalization's signs or the
        reordering are wrong, and never on the clean code."""
        import etacomplex.gsystems as gs

        draws = [random_gsystem(ring, random.Random(13000 + t)) for ring in (ZZ, Z4, GF(5)) for t in range(25)]

        def rejected():
            return sum(not xi_cone_identity(v) for v in draws)

        assert rejected() == 0
        with monkeypatch.context() as m:
            m.setattr(gs, "_XI_SIGN", -1)
            assert rejected() >= 1
        with monkeypatch.context() as m:
            m.setattr(gs, "xi_dsum_permutation",
                      lambda ring, parts: RingMatrix.identity(ring, sum(X.total_rank() for X in parts)))
            assert rejected() >= 1
        assert rejected() == 0


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
        r = _ref_delta(x)
        sq = compose_chain_maps(r.delta1_map(1), r.delta1_map(0))
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

    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)])
    def test_level_two_obstruction(self, ring):
        # a strip of rank 1 at j = 0, 1, 2 with delta0 = 0 and delta1 = Id:
        # delta1^2 = Id is not null-homotopic, so d_0 d_2 + d_2 d_0 = -d_1 d_1
        # has no solution (no d_2 can even be registered)
        x = DeltaComplex(
            ring,
            {(0, j): 1 for j in (0, 1, 2)},
            {},
            {(0, 0): M(ring, [[1]]), (0, 1): M(ring, [[1]])},
        )
        assert not validate_delta(x)
        out = theta_extend(x)
        assert isinstance(out, Obstruction)
        assert (out.stage, out.level, out.position) == ("theta-extend", 2, None)
        assert out.detail == "level-2 correction system is inconsistent"

    def test_total_parity_resolves_strict_commutation(self, monkeypatch):
        # with the (-1)^i twist the level-1 relation is the commutator, so
        # the same instance completes
        import etacomplex.gsystems as gs

        monkeypatch.setattr(gs, "_THETA_PARITY", "total")
        out = theta_extend(obstructed_delta_complex(Z4))
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

    def test_level_zero_obstruction(self):
        # Id at (0,0) and 0 at (1,0) between copies of the column Z --1--> Z:
        # f^1 delta0 - delta0 f^0 = -1 at the column's first position
        x = DeltaComplex(Z4, {(0, 0): 1, (1, 0): 1}, {(0, 0): M(Z4, [[1]])}, {})
        xhat = theta_extend(x)
        assert isinstance(xhat, GSystem)
        out = theta_extend_mor(DeltaMap(x, x, {(0, 0): M(Z4, [[1]])}), xhat, xhat)
        assert isinstance(out, Obstruction)
        assert (out.stage, out.level, out.position) == ("theta-extend-mor", 0, (0, 0))
        assert out.detail == "the column-wise map does not commute with the i-differential"

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

    def test_wrong_cone_sign_fails(self, monkeypatch):
        import etacomplex.complexes as cx

        def verdicts():
            out = []
            for seed in range(20):
                rng = random.Random(seed)
                x = random_strip_delta_complex(Z4, rng)
                y = random_strip_delta_complex(Z4, rng)
                out.append(theta_triangle_check(random_delta_map(x, y, rng)))
            return out

        assert all(v is True for v in verdicts())
        monkeypatch.setattr(cx, "_CONE_SIGN", 1)
        assert False in verdicts()

    def _patched_verdict(self, monkeypatch, **patches):
        """theta_triangle_check on one strip map that passes, first as is and
        then with the named gsystems helpers replaced."""
        import etacomplex.gsystems as gs

        rng = random.Random(0)
        x = random_strip_delta_complex(Z4, rng)
        y = random_strip_delta_complex(Z4, rng)
        alpha = random_delta_map(x, y, rng)
        assert theta_triangle_check(alpha) is True
        for name, make in patches.items():
            monkeypatch.setattr(gs, name, make(getattr(gs, name)))
        return theta_triangle_check(alpha)

    @staticmethod
    def _recording(seen):
        """Wrap a helper so that ``seen`` collects what it returns."""
        def wrap(real):
            def helper(*args):
                seen.append(real(*args))
                return seen[-1]
            return helper
        return wrap

    @staticmethod
    def _rejecting(seen):
        """Wrap validate_gsystem so that it rejects exactly the systems in
        ``seen``; theta_extend's own postcondition still passes."""
        return lambda real: lambda x: all(x is not s for s in seen) and real(x)

    def test_invalid_cone_system_fails(self, monkeypatch):
        seen = []
        assert self._patched_verdict(monkeypatch, theta_cone_system=self._recording(seen),
                                     validate_gsystem=self._rejecting(seen)) is False
        assert len(seen) == 1

    def test_cone_rank_mismatch_fails(self, monkeypatch):
        def extra_rank(real):
            def helper(f):
                cd = real(f)
                return DeltaComplex(cd.ring, {**cd.ranks, (9, 9): 1}, cd.delta0, cd.delta1)
            return helper

        assert self._patched_verdict(monkeypatch, cone_delta=extra_rank) is False

    def test_shifted_seed_mismatch_fails(self, monkeypatch):
        shifted = []

        def empty_seed_of_shift(real):
            # only the seed of the shifted input is replaced, not theta_extend's
            return lambda x: (GSystem(x.ring, {}, {}, CGRA) if any(x is s for s in shifted)
                              else real(x))

        assert self._patched_verdict(monkeypatch, shift_delta=self._recording(shifted),
                                     _theta_seed=empty_seed_of_shift) is False
        assert len(shifted) == 1

    def test_invalid_shifted_system_fails(self, monkeypatch):
        seen = []
        assert self._patched_verdict(monkeypatch, shift_gsystem=self._recording(seen),
                                     validate_gsystem=self._rejecting(seen)) is False
        assert len(seen) == 1

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

    def test_phi_mor_reports_target_obstruction(self):
        x = inductive_delta_complex()
        assert isinstance(theta_extend(x), GSystem)
        bad = obstructed_delta_complex(Z4)
        out = phi_mor(DeltaMap(x, bad, {}))
        assert isinstance(out, Obstruction)
        assert out == theta_extend(bad)
        assert (out.stage, out.level) == ("theta-extend", 1)


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
            coeffs, rhs_col = dense_build(prob)
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


def ref_target_pos(x: GSystem, n: int, i: int, j: int) -> Tuple[int, int]:
    """The position d_n of x maps (i, j) to, as `RefGSystem.target_pos`."""
    if x.convention == CGRA:
        return (i + 1, j + n)
    return (i + 1 - n, j + n)


def ref_comp_target(f: GMorphism, n: int, i: int, j: int) -> Tuple[int, int]:
    """The position f_n maps (i, j) to, as `RefGMorphism.comp_target`."""
    if f.source.convention == CGRA:
        return (i, j + n)
    return (i - n, j + n)


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
                mi, mj = ref_target_pos(x, q, i, j)
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
                    mi, mj = ref_target_pos(X, q, i, j)
                    fp = f.components.get((n - q, mi, mj))
                    if fp is not None:
                        term = fp @ dq
                        acc = term if acc is None else acc + term
                fq = f.components.get((q, i, j))
                if fq is not None:
                    mi, mj = ref_comp_target(f, q, i, j)
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


# -- oracle: the flat storage and the hand-written level systems -------------
#
# The definitions below are the library's before a GSystem stored one complex
# over Graded: flat (n, i, j) dicts, the reindexing maps, composition, shift
# and the converters.  They are kept verbatim, renamed, as the reference for
# the views and maps of the stored form.


class RefGSystem:
    """Bigraded object with higher differentials under a fixed convention."""

    __slots__ = ("ring", "convention", "ranks", "diffs")

    def __init__(
        self,
        ring: CoeffRing,
        ranks: Dict[Tuple[int, int], int],
        diffs: Dict[Tuple[int, int, int], RingMatrix],
        convention: str = CGRA,
    ):
        if convention not in (CGRA, GA):
            raise ValueError(f"unknown convention {convention!r}")
        self.ring = ring
        self.convention = convention
        self.ranks = {
            (int(i), int(j)): int(r) for (i, j), r in ranks.items() if r
        }
        clean: Dict[Tuple[int, int, int], RingMatrix] = {}
        for (n, i, j), m in diffs.items():
            if n < 0:
                raise ValueError("differential level must be >= 0")
            ti, tj = self.target_pos(n, i, j)
            if (m.rows, m.cols) != (self.rank(ti, tj), self.rank(i, j)):
                raise ValueError(
                    f"diff ({n},{i},{j}) has shape {m.rows}x{m.cols}, "
                    f"expected {self.rank(ti, tj)}x{self.rank(i, j)}"
                )
            if not m.is_zero():
                clean[(n, i, j)] = m
        self.diffs = clean

    def target_pos(self, n: int, i: int, j: int) -> Tuple[int, int]:
        if self.convention == CGRA:
            return (i + 1, j + n)
        return (i + 1 - n, j + n)

    def rank(self, i: int, j: int) -> int:
        return self.ranks.get((i, j), 0)

    def diff(self, n: int, i: int, j: int) -> RingMatrix:
        m = self.diffs.get((n, i, j))
        if m is None:
            ti, tj = self.target_pos(n, i, j)
            return RingMatrix.zero(self.ring, self.rank(ti, tj), self.rank(i, j))
        return m

    @property
    def positions(self) -> List[Tuple[int, int]]:
        return sorted(self.ranks)

    def max_level(self) -> int:
        return max((n for (n, _, _) in self.diffs), default=0)

    def is_zero(self) -> bool:
        return not self.ranks

    def __eq__(self, other):
        return (
            isinstance(other, RefGSystem)
            and self.ring == other.ring
            and self.convention == other.convention
            and self.ranks == other.ranks
            and self.diffs == other.diffs
        )

    def __repr__(self):
        return f"RefGSystem({self.convention}, positions={self.positions})"

    def to_json(self):
        return {
            "convention": self.convention,
            "ring": self.ring.to_json(),
            "ranks": [
                {"i": i, "j": j, "rank": r} for (i, j), r in sorted(self.ranks.items())
            ],
            "diffs": [
                {"n": n, "i": i, "j": j, "matrix": m.to_json()}
                for (n, i, j), m in sorted(self.diffs.items())
            ],
        }

    @staticmethod
    def from_json(d) -> "RefGSystem":
        ring = CoeffRing.from_json(d["ring"])
        ranks = {(e["i"], e["j"]): e["rank"] for e in d["ranks"]}
        diffs = {
            (e["n"], e["i"], e["j"]): RingMatrix.from_json(e["matrix"])
            for e in d["diffs"]
        }
        return RefGSystem(ring, ranks, diffs, d["convention"])


class RefGMorphism:
    """Morphism of GSystems: components f_n of degree (0,n) (CGRA) / (-n,n) (GA)."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: RefGSystem,
        target: RefGSystem,
        components: Dict[Tuple[int, int, int], RingMatrix],
    ):
        if source.ring != target.ring or source.convention != target.convention:
            raise ValueError("RefGMorphism endpoints disagree on ring or convention")
        self.source = source
        self.target = target
        clean: Dict[Tuple[int, int, int], RingMatrix] = {}
        for (n, i, j), m in components.items():
            if n < 0:
                raise ValueError("component level must be >= 0")
            ti, tj = self.comp_target(n, i, j)
            if (m.rows, m.cols) != (target.rank(ti, tj), source.rank(i, j)):
                raise ValueError(
                    f"component ({n},{i},{j}) has shape {m.rows}x{m.cols}, "
                    f"expected {target.rank(ti, tj)}x{source.rank(i, j)}"
                )
            if not m.is_zero():
                clean[(n, i, j)] = m
        self.components = clean

    def comp_target(self, n: int, i: int, j: int) -> Tuple[int, int]:
        if self.source.convention == CGRA:
            return (i, j + n)
        return (i - n, j + n)

    def comp(self, n: int, i: int, j: int) -> RingMatrix:
        m = self.components.get((n, i, j))
        if m is None:
            ti, tj = self.comp_target(n, i, j)
            return RingMatrix.zero(
                self.source.ring, self.target.rank(ti, tj), self.source.rank(i, j)
            )
        return m

    def max_level(self) -> int:
        return max((n for (n, _, _) in self.components), default=0)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, RefGMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"RefGMorphism(levels at {sorted(self.components)})"


def ref_gs_compose(g: RefGMorphism, f: RefGMorphism) -> RefGMorphism:
    if f.target != g.source:
        raise ValueError("GMorphisms not composable")
    comps: Dict[Tuple[int, int, int], RingMatrix] = {}
    for (q, i, j), fm in f.components.items():
        mi, mj = f.comp_target(q, i, j)
        for (p, gi, gj), gm in g.components.items():
            if (gi, gj) != (mi, mj):
                continue
            key = (p + q, i, j)
            prod = gm @ fm
            comps[key] = comps[key] + prod if key in comps else prod
    return RefGMorphism(f.source, g.target, comps)


def ref_shift_gsystem(x: RefGSystem) -> RefGSystem:
    """The composite [1](1): reindex by (i+1, j+1) and negate every level."""
    if x.convention != CGRA:
        raise ValueError("ref_shift_gsystem is defined in the CgrA convention")
    ranks = {(i - 1, j - 1): r for (i, j), r in x.ranks.items()}
    diffs = {(n, i - 1, j - 1): -m for (n, i, j), m in x.diffs.items()}
    return RefGSystem(x.ring, ranks, diffs, CGRA)


def ref_psi(x: RefGSystem) -> RefGSystem:
    """GA -> CgrA, position (a, j) lands at (a + j, j)."""
    if x.convention != GA:
        raise ValueError("ref_psi expects the GA convention")
    ranks = {(a + j, j): r for (a, j), r in x.ranks.items()}
    diffs = {(n, a + j, j): m for (n, a, j), m in x.diffs.items()}
    return RefGSystem(x.ring, ranks, diffs, CGRA)


def ref_psi_inv(x: RefGSystem) -> RefGSystem:
    """CgrA -> GA, position (i, j) lands at (i - j, j)."""
    if x.convention != CGRA:
        raise ValueError("ref_psi_inv expects the CgrA convention")
    ranks = {(i - j, j): r for (i, j), r in x.ranks.items()}
    diffs = {(n, i - j, j): m for (n, i, j), m in x.diffs.items()}
    return RefGSystem(x.ring, ranks, diffs, GA)


def ref_psi_mor(f: RefGMorphism) -> RefGMorphism:
    return RefGMorphism(
        ref_psi(f.source),
        ref_psi(f.target),
        {(n, a + j, j): m for (n, a, j), m in f.components.items()},
    )


def ref_psi_inv_mor(f: RefGMorphism) -> RefGMorphism:
    return RefGMorphism(
        ref_psi_inv(f.source),
        ref_psi_inv(f.target),
        {(n, i - j, j): m for (n, i, j), m in f.components.items()},
    )


def ref_gsystem_to_complex(x: RefGSystem) -> Complex:
    if x.convention != CGRA:
        raise ValueError("conversion expects the CgrA convention")
    inst = graded_complex_instance(x.ring)
    by_i: Dict[int, Dict[int, int]] = {}
    for (i, j), r in x.ranks.items():
        by_i.setdefault(i, {})[j] = r
    objects = {i: GradedObject(ranks) for i, ranks in by_i.items()}
    diffs: Dict[int, GradedMorphism] = {}
    comp_by_i: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {}
    for (n, i, j), m in x.diffs.items():
        comp_by_i.setdefault(i, {})[(n, j)] = m
    for i, comps in comp_by_i.items():
        src = objects.get(i, GradedObject({}))
        tgt = objects.get(i + 1, GradedObject({}))
        diffs[i] = GradedMorphism(src, tgt, comps)
    return Complex(inst, objects, diffs)


def ref_complex_to_gsystem(c: Complex) -> RefGSystem:
    inst = c.instance
    if not isinstance(inst, Graded):
        raise ValueError("conversion expects a complex over a Graded instance")
    ranks: Dict[Tuple[int, int], int] = {}
    for i, X in c.objects.items():
        for j, r in X.ranks.items():
            ranks[(i, j)] = r
    diffs: Dict[Tuple[int, int, int], RingMatrix] = {}
    for i, d in c.diffs.items():
        for (n, j), m in d.components.items():
            diffs[(n, i, j)] = m
    return RefGSystem(inst.ring, ranks, diffs, CGRA)


def ref_gmorphism_to_chain_map(f: RefGMorphism) -> ChainMap:
    cx = ref_gsystem_to_complex(f.source)
    cy = ref_gsystem_to_complex(f.target)
    comp_by_i: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {}
    for (n, i, j), m in f.components.items():
        comp_by_i.setdefault(i, {})[(n, j)] = m
    comps = {
        i: GradedMorphism(cx.obj(i), cy.obj(i), cs) for i, cs in comp_by_i.items()
    }
    return ChainMap(cx, cy, comps)


def ref_chain_map_to_gmorphism(f: ChainMap) -> RefGMorphism:
    src = ref_complex_to_gsystem(f.source)
    tgt = ref_complex_to_gsystem(f.target)
    comps: Dict[Tuple[int, int, int], RingMatrix] = {}
    for i, g in f.components.items():
        for (n, j), m in g.components.items():
            comps[(n, i, j)] = m
    return RefGMorphism(src, tgt, comps)


# The flat DeltaComplex, DeltaMap and validate_delta_map as they were before
# a DeltaComplex became the GA system at levels 0 and 1 on the one store, kept
# verbatim (renamed) as the reference for its views and the map check.


class RefDeltaComplex:
    """Bigraded family with a strict i-differential and a commuting j-map.

    delta0^{ij}: X^{ij} -> X^{i+1,j} squares to zero; delta1^{ij}:
    X^{ij} -> X^{i,j+1} commutes strictly with delta0 and its square is
    only required to be null-homotopic with respect to delta0.
    """

    __slots__ = ("ring", "ranks", "delta0", "delta1")

    def __init__(
        self,
        ring: CoeffRing,
        ranks: Dict[Tuple[int, int], int],
        delta0: Dict[Tuple[int, int], RingMatrix],
        delta1: Dict[Tuple[int, int], RingMatrix],
    ):
        if any(r < 0 for r in ranks.values()):
            raise ValueError("negative rank")
        self.ring = ring
        self.ranks = {(int(i), int(j)): int(r) for (i, j), r in ranks.items() if r}
        d0: Dict[Tuple[int, int], RingMatrix] = {}
        for (i, j), m in delta0.items():
            if (m.rows, m.cols) != (self.rank(i + 1, j), self.rank(i, j)):
                raise ValueError(f"delta0 at ({i},{j}) has the wrong shape")
            if not m.is_zero():
                d0[(i, j)] = m
        d1: Dict[Tuple[int, int], RingMatrix] = {}
        for (i, j), m in delta1.items():
            if (m.rows, m.cols) != (self.rank(i, j + 1), self.rank(i, j)):
                raise ValueError(f"delta1 at ({i},{j}) has the wrong shape")
            if not m.is_zero():
                d1[(i, j)] = m
        self.delta0 = d0
        self.delta1 = d1

    def rank(self, i: int, j: int) -> int:
        return self.ranks.get((i, j), 0)

    def d0(self, i: int, j: int) -> RingMatrix:
        m = self.delta0.get((i, j))
        if m is None:
            return RingMatrix.zero(self.ring, self.rank(i + 1, j), self.rank(i, j))
        return m

    def d1(self, i: int, j: int) -> RingMatrix:
        m = self.delta1.get((i, j))
        if m is None:
            return RingMatrix.zero(self.ring, self.rank(i, j + 1), self.rank(i, j))
        return m

    @property
    def columns(self) -> List[int]:
        return sorted({j for (_, j) in self.ranks})

    @property
    def positions(self) -> List[Tuple[int, int]]:
        return sorted(self.ranks)

    def is_zero(self) -> bool:
        return not self.ranks

    def column_complex(self, j: int) -> Complex:
        inst = ScalarEta(self.ring, self.ring.one())
        objects = {i: r for (i, jj), r in self.ranks.items() if jj == j}
        diffs = {i: m for (i, jj), m in self.delta0.items() if jj == j}
        return Complex(inst, objects, diffs)

    def delta1_map(self, j: int) -> ChainMap:
        comps = {i: m for (i, jj), m in self.delta1.items() if jj == j}
        return ChainMap(self.column_complex(j), self.column_complex(j + 1), comps)

    def __eq__(self, other):
        return (
            isinstance(other, RefDeltaComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.delta0 == other.delta0
            and self.delta1 == other.delta1
        )

    def __repr__(self):
        return f"RefDeltaComplex(positions={self.positions})"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "ranks": [
                {"i": i, "j": j, "rank": r} for (i, j), r in sorted(self.ranks.items())
            ],
            "delta0": [
                {"i": i, "j": j, "matrix": m.to_json()}
                for (i, j), m in sorted(self.delta0.items())
            ],
            "delta1": [
                {"i": i, "j": j, "matrix": m.to_json()}
                for (i, j), m in sorted(self.delta1.items())
            ],
        }

    @staticmethod
    def from_json(d) -> "RefDeltaComplex":
        ring = CoeffRing.from_json(d["ring"])
        ranks = {json_pos(e): json_int(e["rank"], "rank") for e in d["ranks"]}
        d0 = {json_pos(e): json_matrix(e["matrix"], ring) for e in d["delta0"]}
        d1 = {json_pos(e): json_matrix(e["matrix"], ring) for e in d["delta1"]}
        return RefDeltaComplex(ring, ranks, d0, d1)


def ref_validate_delta(x: RefDeltaComplex) -> bool:
    """``validate_delta`` verbatim from before delta1^2 was posed as one level-2 system."""
    for (i, j) in x.positions:
        if not (x.d0(i + 1, j) @ x.d0(i, j)).is_zero():
            return False
        lhs = x.d0(i, j + 1) @ x.d1(i, j)
        rhs = x.d1(i + 1, j) @ x.d0(i, j)
        if lhs != rhs:
            return False
    for j in x.columns:
        sq = compose_chain_maps(x.delta1_map(j + 1), x.delta1_map(j))
        if null_homotopic(sq) is None:
            return False
    return True


class RefDeltaMap:
    """Column-wise chain map between DeltaComplexes, strict in both directions."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: RefDeltaComplex,
        target: RefDeltaComplex,
        components: Dict[Tuple[int, int], RingMatrix],
    ):
        if source.ring != target.ring:
            raise ValueError("ring mismatch")
        self.source = source
        self.target = target
        clean: Dict[Tuple[int, int], RingMatrix] = {}
        for (i, j), m in components.items():
            if (m.rows, m.cols) != (target.rank(i, j), source.rank(i, j)):
                raise ValueError(f"component at ({i},{j}) has the wrong shape")
            if not m.is_zero():
                clean[(i, j)] = m
        self.components = clean

    def comp(self, i: int, j: int) -> RingMatrix:
        m = self.components.get((i, j))
        if m is None:
            return RingMatrix.zero(
                self.source.ring, self.target.rank(i, j), self.source.rank(i, j)
            )
        return m

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, RefDeltaMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )


def ref_validate_delta_map(f: RefDeltaMap) -> bool:
    X, Y = f.source, f.target
    keys = set(X.positions) | set(f.components)
    for (i, j) in sorted(keys):
        if Y.d0(i, j) @ f.comp(i, j) != f.comp(i + 1, j) @ X.d0(i, j):
            return False
        if Y.d1(i, j) @ f.comp(i, j) != f.comp(i, j + 1) @ X.d1(i, j):
            return False
    return True


# The three constructions as they were before their level systems shared one
# builder, kept verbatim (renamed) as the reference for every assembled system.


def ref_theta_sign(parity: str, i: int, j: int):
    if parity == "column":
        return -1 if j % 2 else 1
    if parity == "total":
        return -1 if i % 2 else 1
    raise ValueError(f"unknown parity {parity!r}")


def ref_theta_extend(x: DeltaComplex, parity: Optional[str] = None):
    """Complete (delta0, delta1) to a full system; Obstruction on failure.

    Level 0 and 1 are fixed by the convention (d_0 the reindexed delta0,
    d_1 the parity-signed reindexed delta1); each level n >= 2 is one
    joint linear solve of  d_0 d_n + d_n d_0 = -sum_{0<p<n} d_p d_{n-p}.
    """
    if parity is None:
        parity = gs._THETA_PARITY
    ring = x.ring
    ranks = {(r + j, j): rk for (r, j), rk in x.ranks.items()}
    sys = GSystem(ring, ranks, {}, CGRA)
    diffs: Dict[Tuple[int, int, int], RingMatrix] = {}
    for (r, j), m in x.delta0.items():
        diffs[(0, r + j, j)] = m
    for (r, j), m in x.delta1.items():
        s = ref_theta_sign(parity, r + j, j)
        diffs[(1, r + j, j)] = m if s == 1 else -m

    def dd(n, i, j):
        m = diffs.get((n, i, j))
        if m is None:
            return RingMatrix.zero(ring, sys.rank(i + 1, j + n), sys.rank(i, j))
        return m

    # level 1 is a check, not a solve: d_0 d_1 + d_1 d_0 must vanish
    for (i, j) in sorted(ranks):
        res = dd(0, i + 1, j + 1) @ dd(1, i, j) + dd(1, i + 1, j) @ dd(0, i, j)
        if not res.is_zero():
            return Obstruction(
                "theta-extend", 1, (i, j),
                "level-1 relation fails: the signed j-map does not "
                "anticommute with the i-differential",
            )
    cols = x.columns
    width = (max(cols) - min(cols)) if cols else 0
    for n in range(2, width + 1):
        prob = MatrixProblem(ring)
        slots = [
            (i, j) for (i, j) in sorted(ranks)
            if sys.rank(i, j) and sys.rank(i + 1, j + n)
        ]
        for (i, j) in slots:
            prob.add_unknown((i, j), sys.rank(i + 1, j + n), sys.rank(i, j))
        for (i, j) in sorted(ranks):
            er, ec = sys.rank(i + 2, j + n), sys.rank(i, j)
            if not er or not ec:
                continue
            rhs = RingMatrix.zero(ring, er, ec)
            for p in range(1, n):
                rhs = rhs + (-(dd(p, i + 1, j + n - p) @ dd(n - p, i, j)))
            terms = []
            if (i, j) in prob.unknowns:
                terms.append(((i, j), dd(0, i + 1, j + n), None, 1))
            if (i + 1, j) in prob.unknowns:
                terms.append(((i + 1, j), None, dd(0, i, j), 1))
            if not terms and rhs.is_zero():
                continue
            prob.add_equation((er, ec), terms, rhs)
        sol = prob.solve()
        if sol is None:
            return Obstruction(
                "theta-extend", n, None,
                f"level-{n} correction system is inconsistent",
            )
        for (i, j), m in sol.items():
            if not m.is_zero():
                diffs[(n, i, j)] = m
    out = GSystem(ring, ranks, diffs, CGRA)
    verify(validate_gsystem(out), "ref_theta_extend: the completion fails the convolution relations")
    return out


def ref_solve_levels(ring: CoeffRing, top: int, add_level):
    """Solve levels 1..top, each registered by ``add_level(prob, n)``, as one system.

    Returns (solution, None), or (None, n) for the first n whose system of
    levels 1..n is inconsistent.  The joint system is consistent iff every
    such prefix is, so the prefixes are solved only after it fails.
    """

    def through(n):
        prob = MatrixProblem(ring)
        for k in range(1, n + 1):
            add_level(prob, k)
        return prob.solve()

    sol = through(top) if top >= 1 else {}
    if sol is not None:
        return sol, None
    return None, next((n for n in range(1, top) if through(n) is None), top)


def ref_theta_extend_mor(alpha: DeltaMap, xhat: GSystem, yhat: GSystem):
    """Extend a column-wise chain map to a morphism of the extensions.

    Every intertwining equation is linear in the whole family {f_n}, so
    all levels are solved as one joint system.  The reported obstruction
    level is the first n whose system of levels <= n is inconsistent,
    which is independent of any choice made at lower levels.
    """
    ring = xhat.ring
    f0: Dict[Tuple[int, int], RingMatrix] = {}
    for (r, j), m in alpha.components.items():
        f0[(r + j, j)] = m

    def f0c(i, j):
        m = f0.get((i, j))
        if m is None:
            return RingMatrix.zero(ring, yhat.rank(i, j), xhat.rank(i, j))
        return m

    # level 0: f_0 must already intertwine the strict differentials
    for (i, j) in xhat.positions:
        res = f0c(i + 1, j) @ xhat.diff(0, i, j) - yhat.diff(0, i, j) @ f0c(i, j)
        if not res.is_zero():
            return Obstruction(
                "theta-extend-mor", 0, (i, j),
                "the column-wise map does not commute with the i-differential",
            )
    comps: Dict[Tuple[int, int, int], RingMatrix] = {
        (0, i, j): m for (i, j), m in f0.items()
    }
    xj = [j for (_, j) in xhat.ranks]
    yj = [j for (_, j) in yhat.ranks]
    if not xj or not yj:
        return GMorphism(xhat, yhat, comps)

    def add_level(prob, n):
        for (i, j) in xhat.positions:
            if yhat.rank(i, j + n):
                prob.add_unknown((n, i, j), yhat.rank(i, j + n), xhat.rank(i, j))
        for (i, j) in xhat.positions:
            er, ec = yhat.rank(i + 1, j + n), xhat.rank(i, j)
            if not er or not ec:
                continue
            # level-n equation: sum_q f_{n-q} dX_q - sum_q dY_{n-q} f_q = 0
            rhs = -(f0c(i + 1, j + n) @ xhat.diff(n, i, j)) + (
                yhat.diff(n, i, j) @ f0c(i, j)
            )
            terms = []
            for q in range(n):  # unknown f_{n-q}, level >= 1
                key = (n - q, i + 1, j + q)
                if key in prob.unknowns:
                    terms.append((key, None, xhat.diff(q, i, j), 1))
            for q in range(1, n + 1):  # unknown f_q on the target side
                key = (q, i, j)
                if key in prob.unknowns:
                    terms.append((key, yhat.diff(n - q, i, j + q), None, -1))
            if not terms and rhs.is_zero():
                continue
            prob.add_equation((er, ec), terms, rhs)

    sol, level = ref_solve_levels(ring, max(0, max(yj) - min(xj)), add_level)
    if sol is None:
        return Obstruction(
            "theta-extend-mor", level, None,
            f"the joint component system through level {level} is inconsistent",
        )
    for (n, i, j), m in sol.items():
        if not m.is_zero():
            comps[(n, i, j)] = m
    out = GMorphism(xhat, yhat, comps)
    verify(validate_gmorphism(out), "ref_theta_extend_mor: the extension is not a morphism")
    return out


def ref_eta_null_complete(
    f: GMorphism,
    s0: Dict[Tuple[int, int], RingMatrix],
    s1: Dict[Tuple[int, int], RingMatrix],
):
    """Grow a validated (s_0, s_1) seed to a full certificate.

    The level-k equations  d_{Y,0} s_{k+1} + s_{k+1} d_{X,0} = defect_k  are
    linear in the family {s_n} and are solved as one system; the first
    inconsistent level is reported as an Obstruction (the point where the
    relevant stable hom group fails to vanish).  The returned certificate
    is the eta-twisted homotopy on the corresponding complexes over the
    graded instance.
    """
    X, Y = f.source, f.target
    ring = X.ring
    seeds: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {0: dict(s0), 1: dict(s1)}
    # levels 0 and 1 of the seeds' residual are the seed equations (as in
    # seed_equations_hold); level k + 1 is f_k minus every term in s_0, s_1
    defect = gs._null_residuals(f, seeds)
    if any(n <= 1 for r in defect.values() for (n, _) in r.components):
        raise ValueError("seed pair does not satisfy the two seed equations")

    def defect_k(k, i, j):
        r = defect.get(i)
        if r is None:
            return RingMatrix.zero(ring, Y.rank(i, j + k), X.rank(i, j))
        return r.component(k + 1, j - 1, ring)

    yj = [j for (_, j) in Y.ranks]
    xj = [j for (_, j) in X.ranks]
    k_top = f.max_level()
    if yj and xj:
        k_top = max(k_top, max(yj) - min(xj) + 1)

    def add_level(prob, k):
        # the s_{k+1} unknowns, then the level-k equations
        for (i, j) in X.positions:
            if Y.rank(i - 1, j + k):
                prob.add_unknown((k + 1, i, j), Y.rank(i - 1, j + k), X.rank(i, j))
        for (i, j) in X.positions:
            er, ec = Y.rank(i, j + k), X.rank(i, j)
            if not er or not ec:
                continue
            # level-k equation: f_k = sum_{p+q=k+1} (s_p dX_q + dY_p s_q);
            # s_0, s_1 are the fixed seeds, s_p for p >= 2 are unknowns
            rhs = defect_k(k, i, j)
            terms = []
            for q in range(k):  # unknown s_{k+1-q}, level >= 2
                key = (k + 1 - q, i + 1, j + q)
                if key in prob.unknowns:
                    terms.append((key, None, X.diff(q, i, j), 1))
            for q in range(2, k + 2):  # unknown s_q on the target side
                key = (q, i, j)
                if key in prob.unknowns:
                    terms.append((key, Y.diff(k + 1 - q, i - 1, j + q - 1), None, 1))
            if not terms and rhs.is_zero():
                continue
            prob.add_equation((er, ec), terms, rhs)

    sol, level = ref_solve_levels(ring, k_top, add_level)
    if sol is None:
        return Obstruction(
            "eta-null-complete", level, None,
            f"the joint homotopy system through level {level} is inconsistent",
        )
    s: Dict[int, Dict[Tuple[int, int], RingMatrix]] = dict(seeds)
    for (p, i, j), m in sol.items():
        if not m.is_zero():
            s.setdefault(p, {})[(i, j)] = m
    verify(corollary_equations_hold(f, s), "ref_eta_null_complete: the family fails the equations")
    return gs._family_to_certificate(f, s)


def ref_find_seed(f: GMorphism):
    """Solve the two seed equations jointly; None when no seed exists."""
    X, Y = f.source, f.target
    ring = X.ring
    prob = MatrixProblem(ring)
    slots0 = [
        (i, j) for (i, j) in X.positions if X.rank(i, j) and Y.rank(i - 1, j - 1)
    ]
    slots1 = [
        (i, j) for (i, j) in X.positions if X.rank(i, j) and Y.rank(i - 1, j)
    ]
    for (i, j) in slots0:
        prob.add_unknown(("s0", i, j), Y.rank(i - 1, j - 1), X.rank(i, j))
    for (i, j) in slots1:
        prob.add_unknown(("s1", i, j), Y.rank(i - 1, j), X.rank(i, j))
    for (i, j) in X.positions:
        er, ec = Y.rank(i, j - 1), X.rank(i, j)
        if er and ec:
            terms = []
            if ("s0", i, j) in prob.unknowns:
                terms.append((("s0", i, j), Y.diff(0, i - 1, j - 1), None, 1))
            if ("s0", i + 1, j) in prob.unknowns:
                terms.append((("s0", i + 1, j), None, X.diff(0, i, j), 1))
            if terms:
                prob.add_equation((er, ec), terms, None)
        er = Y.rank(i, j)
        if not er or not ec:
            continue
        terms = []
        if ("s0", i, j) in prob.unknowns:
            terms.append((("s0", i, j), Y.diff(1, i - 1, j - 1), None, 1))
        if ("s1", i, j) in prob.unknowns:
            terms.append((("s1", i, j), Y.diff(0, i - 1, j), None, 1))
        if ("s0", i + 1, j + 1) in prob.unknowns:
            terms.append((("s0", i + 1, j + 1), None, X.diff(1, i, j), 1))
        if ("s1", i + 1, j) in prob.unknowns:
            terms.append((("s1", i + 1, j), None, X.diff(0, i, j), 1))
        prob.add_equation((er, ec), terms, f.comp(0, i, j))
    sol = prob.solve()
    if sol is None:
        return None
    s0 = {(i, j): sol[("s0", i, j)] for (i, j) in slots0}
    s1 = {(i, j): sol[("s1", i, j)] for (i, j) in slots1}
    return s0, s1


def _box(positions):
    """Every position within one step of the given ones."""
    return sorted({(i + a, j + b) for (i, j) in positions for a in (-1, 0, 1) for b in (-1, 0, 1)})


def _same_system(x: GSystem, r: RefGSystem):
    assert (x.ring, x.convention) == (r.ring, r.convention)
    assert x.ranks == r.ranks
    assert x.diffs == r.diffs
    assert x.positions == r.positions
    assert (x.max_level(), x.is_zero()) == (r.max_level(), r.is_zero())
    assert x.to_json() == r.to_json()
    for (i, j) in _box(r.positions):
        assert x.rank(i, j) == r.rank(i, j)
        for n in range(r.max_level() + 2):
            assert x.diff(n, i, j) == r.diff(n, i, j)
    assert x == GSystem(r.ring, r.ranks, r.diffs, r.convention)
    assert GSystem.from_json(r.to_json()) == x


def _same_morphism(f: GMorphism, r: RefGMorphism):
    _same_system(f.source, r.source)
    _same_system(f.target, r.target)
    assert f.components == r.components
    assert (f.max_level(), f.is_zero()) == (r.max_level(), r.is_zero())
    for (i, j) in _box(r.source.positions):
        for n in range(r.max_level() + 2):
            assert f.comp(n, i, j) == r.comp(n, i, j)
    assert f == GMorphism(f.source, f.target, r.components)


class TestStorageOracle:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(9), GF(5)], ids=str)
    def test_views_and_maps_match_flat_reference(self, ring):
        rng = random.Random(95)
        inst = graded_complex_instance(ring)
        seen = set()
        for trial in range(15):
            cs = [random_graded_complex(inst, random.Random(95000 + 3 * trial + k)) for k in range(3)]
            xs = [complex_to_gsystem(c) for c in cs]
            rs = [ref_complex_to_gsystem(c) for c in cs]
            maps = [random_chain_map(cs[0], cs[1], rng), random_chain_map(cs[1], cs[2], rng)]
            f, g = (chain_map_to_gmorphism(m) for m in maps)
            rf, rg = (ref_chain_map_to_gmorphism(m) for m in maps)
            for x, r in zip(xs, rs):
                assert gsystem_to_complex(x) is gsystem_to_complex(x)
                assert gsystem_to_complex(x) == ref_gsystem_to_complex(r)
                _same_system(x, r)
                _same_system(psi_inv(x), ref_psi_inv(r))
                _same_system(psi(psi_inv(x)), ref_psi(ref_psi_inv(r)))
                _same_system(shift_gsystem(x), ref_shift_gsystem(r))
                ga = ref_psi_inv(r)
                _same_system(GSystem(ring, ga.ranks, ga.diffs, GA), ga)
            systems = xs + [psi_inv(xs[0]), complex_to_gsystem(cs[0])]
            refs = rs + [ref_psi_inv(rs[0]), ref_complex_to_gsystem(cs[0])]
            for a in range(len(systems)):
                for b in range(len(systems)):
                    assert (systems[a] == systems[b]) == (refs[a] == refs[b])
                    seen.add(("system equal", refs[a] == refs[b]))
            assert gmorphism_to_chain_map(f) is gmorphism_to_chain_map(f)
            assert gmorphism_to_chain_map(f) == ref_gmorphism_to_chain_map(rf)
            for h, rh in ((f, rf), (g, rg)):
                _same_morphism(h, rh)
                _same_morphism(psi_inv_mor(h), ref_psi_inv_mor(rh))
                _same_morphism(psi_mor(psi_inv_mor(h)), ref_psi_mor(ref_psi_inv_mor(rh)))
            _same_morphism(gs_compose(g, f), ref_gs_compose(rg, rf))
            _same_morphism(
                gs_compose(psi_inv_mor(g), psi_inv_mor(f)),
                ref_gs_compose(ref_psi_inv_mor(rg), ref_psi_inv_mor(rf)),
            )
            mors = [f, g, psi_inv_mor(f), chain_map_to_gmorphism(maps[0])]
            rmors = [rf, rg, ref_psi_inv_mor(rf), ref_chain_map_to_gmorphism(maps[0])]
            for a in range(len(mors)):
                for b in range(len(mors)):
                    assert (mors[a] == mors[b]) == (rmors[a] == rmors[b])
                    seen.add(("morphism equal", rmors[a] == rmors[b]))
            seen.add(("nonzero morphism", not rf.is_zero()))
            seen.add(("GA system moved", ref_psi_inv(rs[0]).ranks != rs[0].ranks))
        assert {("system equal", False), ("morphism equal", False), ("nonzero morphism", True),
                ("GA system moved", True)} <= seen


def _same_delta(x: DeltaComplex, r: RefDeltaComplex):
    """Every view of x, in its iteration order, against the flat reference."""
    assert x.ring == r.ring
    for view in ("ranks", "delta0", "delta1"):
        assert list(getattr(x, view).items()) == list(getattr(r, view).items())
    assert (x.positions, x.columns, x.is_zero()) == (r.positions, r.columns, r.is_zero())
    assert json.dumps(x.to_json()) == json.dumps(r.to_json())
    for (i, j) in _box(r.positions):
        assert x.rank(i, j) == r.rank(i, j)
        assert (x.d0(i, j), x.d1(i, j)) == (r.d0(i, j), r.d1(i, j))
    # x keeps no column complexes; its verdict is checked against the reference's
    assert validate_delta(x) == ref_validate_delta(r)
    assert DeltaComplex.from_json(r.to_json()) == x


def _same_delta_map(f: DeltaMap, r: RefDeltaMap):
    _same_delta(f.source, r.source)
    _same_delta(f.target, r.target)
    assert list(f.components.items()) == list(r.components.items())
    for (i, j) in _box(r.source.positions + r.target.positions):
        assert f.comp(i, j) == r.comp(i, j)
    assert validate_delta_map(f) == ref_validate_delta_map(r)


def _ref_delta(x: DeltaComplex) -> RefDeltaComplex:
    return RefDeltaComplex(x.ring, x.ranks, x.delta0, x.delta1)


def _perturbed(x: DeltaComplex, rng: random.Random):
    """(ranks, delta0, delta1) of x with one change: an entry of one matrix
    moved, a zero matrix or a rank-0 position added, or a component dropped."""
    ranks, d0, d1 = dict(x.ranks), dict(x.delta0), dict(x.delta1)
    kind = rng.randrange(4)
    ds = [d for d in (d0, d1) if d]
    if kind == 0 and ds:
        d = rng.choice(ds)
        pos = rng.choice(sorted(d))
        m = d[pos]
        e = list(m.entries)
        e[rng.randrange(len(e))] += 1
        d[pos] = RingMatrix(x.ring, m.rows, m.cols, e)
    elif kind == 1 and ranks:
        i, j = rng.choice(sorted(ranks))
        d1[(i, j)] = RingMatrix.zero(x.ring, x.rank(i, j + 1), x.rank(i, j))
    elif kind == 2:
        ranks[(rng.randint(-3, 3), rng.randint(-3, 3))] = 0
    elif ds:
        d = rng.choice(ds)
        del d[rng.choice(sorted(d))]
    return ranks, d0, d1


def _perturbed_map(f: DeltaMap, rng: random.Random) -> Dict[Tuple[int, int], RingMatrix]:
    """The components of f with one entry moved, or with one position added."""
    comps = dict(f.components)
    X, Y = f.source, f.target
    shared = [pos for pos in X.positions if Y.rank(*pos)]
    if comps and rng.random() < 0.5:
        pos = rng.choice(sorted(comps))
    elif shared:
        pos = rng.choice(shared)
    else:
        return comps
    m = f.comp(*pos)
    e = list(m.entries)
    e[rng.randrange(len(e))] += rng.choice([1, 2])
    comps[pos] = RingMatrix(X.ring, m.rows, m.cols, e)
    return dict(sorted(comps.items()))


class TestDeltaStorageOracle:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(8), Zmod(9), GF(5)], ids=str)
    def test_views_and_map_check_match_flat_reference(self, ring):
        rng = random.Random(96)
        seen = set()
        for trial in range(12):
            xs = [random_delta_complex(ring, rng), random_delta_complex(ring, rng),
                  random_strip_delta_complex(ring, rng), random_strip_delta_complex(ring, rng)]
            if ring == Z4:
                xs.append(inductive_delta_complex(rng))
            xs.append(obstructed_delta_complex(ring))
            xs += [shift_delta(xs[0]), cone_delta(random_delta_map(xs[2], xs[3], rng))]
            xs += [DeltaComplex(ring, *_perturbed(x, rng)) for x in xs[:4]]
            refs = [_ref_delta(x) for x in xs]
            for x, r in zip(xs, refs):
                _same_delta(x, r)
                assert x != GSystem._of(x.complex, GA)
                seen.add(("GA order differs", list(x.complex.objects) != sorted(x.complex.objects)))
            for a in range(len(xs)):
                for b in range(len(xs)):
                    assert (xs[a] == xs[b]) == (refs[a] == refs[b])
                    seen.add(("equal", refs[a] == refs[b]))
            # positions given out of order: the views sort, the reference keeps insertion order
            x = xs[0]
            shuffled = [dict(rng.sample(list(v.items()), len(v))) for v in (x.ranks, x.delta0, x.delta1)]
            y, ry = DeltaComplex(ring, *shuffled), RefDeltaComplex(ring, *shuffled)
            assert y == x and ry == refs[0]
            for view in ("ranks", "delta0", "delta1"):
                assert list(getattr(y, view).items()) == sorted(getattr(ry, view).items())
            pairs = [(xs[0], xs[1]), (xs[2], xs[3]), (xs[1], xs[0]), (xs[0], xs[0])]
            for X, Y in pairs:
                maps = [random_delta_map(X, Y, rng)]
                maps.append(DeltaMap(X, Y, _perturbed_map(maps[0], rng)))
                if X is Y:
                    maps.append(DeltaMap(X, X, {pos: RingMatrix.identity(ring, r) for pos, r in X.ranks.items()}))
                if not X.delta0 and not Y.delta0:
                    maps.append(columnwise_null_delta_map(X, Y, rng))
                rmaps = [RefDeltaMap(_ref_delta(X), _ref_delta(Y), f.components) for f in maps]
                for f, r in zip(maps, rmaps):
                    _same_delta_map(f, r)
                    seen.add(("map valid", ref_validate_delta_map(r)))
                for a in range(len(maps)):
                    for b in range(len(maps)):
                        assert (maps[a] == maps[b]) == (rmaps[a] == rmaps[b])
        assert {("GA order differs", True), ("equal", False), ("map valid", True),
                ("map valid", False)} <= seen

    def test_bad_input_rejected_on_both(self):
        one, two = M(Z4, [[1]]), M(Z4, [[1, 0]])
        ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        bad = [
            ({(0, 0): -1}, {}, {}),
            ({(0, 0): 1, (1, 1): -2}, {}, {}),
            (ranks, {(0, 0): two}, {}),
            (ranks, {}, {(0, 0): two}),
            (ranks, {(0, 1): one}, {}),
            (ranks, {}, {(1, 0): one}),
        ]
        for args in bad:
            with pytest.raises(ValueError):
                DeltaComplex(Z4, *args)
            with pytest.raises(ValueError):
                RefDeltaComplex(Z4, *args)
        x, r = DeltaComplex(Z4, ranks, {(0, 0): one}, {}), RefDeltaComplex(Z4, ranks, {(0, 0): one}, {})
        for comps in ({(0, 0): two}, {(1, 1): one}, {(0, 0): RingMatrix.zero(Z4, 2, 1)}):
            with pytest.raises(ValueError):
                DeltaMap(x, x, comps)
            with pytest.raises(ValueError):
                RefDeltaMap(r, r, comps)


def _two_row_delta(ring: CoeffRing, rng: random.Random) -> DeltaComplex:
    """Rows 0 and 1 over 2 to 4 columns: delta0 = a in every column (or none),
    delta1 = c_j Id from column j in both rows.

    delta1 commutes with a, so the strict relations hold; delta1^2 = c_j c_(j+1) Id
    is null-homotopic iff some s has s a = c_j c_(j+1) Id = a s, which often fails."""
    r, w = rng.randint(1, 2), rng.randint(2, 4)
    ranks = {(i, j): r for i in (0, 1) for j in range(w)}
    d0 = {}
    if rng.random() < 0.7:
        a = RingMatrix.from_rows(ring, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
        d0 = {(0, j): a for j in range(w)}
    cs = [rng.randint(-3, 3) for _ in range(w - 1)]
    d1 = {(i, j): RingMatrix.scalar(ring, r, c) for i in (0, 1) for j, c in enumerate(cs)}
    return DeltaComplex(ring, ranks, d0, d1)


class TestValidateDeltaOracle:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(8), Zmod(9), Zmod(12), GF(5)], ids=str)
    def test_level_two_system_matches_columnwise_homotopies(self, ring, monkeypatch):
        """validate_delta's one level-2 system gives the column-wise verdicts, whatever the theta parity."""
        rng = random.Random(61)
        xs = [random_delta_complex(ring, rng) for _ in range(10)]
        xs += [random_strip_delta_complex(ring, rng) for _ in range(10)]
        if ring == Z4:
            xs += [inductive_delta_complex(), inductive_delta_complex(rng)]
        xs += [_two_row_delta(ring, rng) for _ in range(40)]
        verdicts = []
        seen = set()
        for x in xs:
            ok = validate_delta(x)
            assert ok == ref_validate_delta(_ref_delta(x))
            verdicts.append(ok)
            strict = all(
                (x.d0(i + 1, j) @ x.d0(i, j)).is_zero() and x.d0(i, j + 1) @ x.d1(i, j) == x.d1(i + 1, j) @ x.d0(i, j)
                for (i, j) in x.positions
            )
            seen.add((ok, strict))
        assert {(True, True), (False, True)} <= seen
        monkeypatch.setattr(gs, "_THETA_PARITY", "total")
        assert [validate_delta(x) for x in xs] == verdicts


class _Unknowns(dict):
    """An unknowns table that remembers every key it was asked about."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)


def _record_problems(monkeypatch):
    """Log (coeffs, rhs, problem) for every MatrixProblem solved from now on."""
    log = []
    init, solve = MatrixProblem.__init__, MatrixProblem.solve

    def recording_init(self, ring):
        init(self, ring)
        self.unknowns = _Unknowns()

    def recording_solve(self):
        coeffs, rhs = dense_build(self)
        log.append((coeffs, rhs, self))
        return solve(self)

    monkeypatch.setattr(MatrixProblem, "__init__", recording_init)
    monkeypatch.setattr(MatrixProblem, "solve", recording_solve)
    return log


def _homogeneous_dropped(old, new):
    """The reference systems of ``old`` that ``new`` poses, in order.

    A level system whose rhs is zero everywhere is homogeneous and is not
    posed; its solution is the zero family.  Only such reference systems
    may be missing from ``new``, and each is checked to solve to zero.
    """
    kept = []
    for ref_coeffs, ref_rhs, ref_prob in old:
        if any(ref_rhs.entries):
            kept.append((ref_coeffs, ref_rhs, ref_prob))
            continue
        sol = LinearProblem.solve(ref_prob)
        assert sol is not None and all(m.is_zero() for m in sol.values())
    assert len(new) == len(kept)
    return kept


def _same_problems(log, run, ref_run, seen):
    """run() and ref_run() solve entry-for-entry equal systems and give equal results.

    run() leaves out the reference's homogeneous systems (``_homogeneous_dropped``)."""
    start = len(log)
    out = run()
    mid = len(log)
    ref = ref_run()
    new, old = log[start:mid], log[mid:]
    old = _homogeneous_dropped(old, new)
    for (coeffs, rhs, prob), (ref_coeffs, ref_rhs, _) in zip(new, old):
        assert (coeffs.rows, coeffs.cols) == (ref_coeffs.rows, ref_coeffs.cols)
        assert coeffs.entries == ref_coeffs.entries
        assert rhs.entries == ref_rhs.entries
        if any(rhs.entries):
            seen.add("nonzero rhs")
        if set(prob.unknowns.asked) - set(prob.unknowns):
            seen.add("skipped unknown")
        for _, _, _, terms, _ in prob.equations:
            seen.update(f"sign {sign}" for _, _, _, sign in terms)
    del log[start:]
    if isinstance(out, HomotopyCertificate):
        assert out.s == ref.s
    else:
        assert out == ref
    return out


def _disks_and_strips(ring: CoeffRing, rng: random.Random) -> DeltaComplex:
    """Identity disks along i in five adjacent columns plus two strips, summed and
    conjugated: every theta level from 2 to 4 poses equations with stored d_0 factors."""
    one = RingMatrix.identity(ring, 1)
    disks = [DeltaComplex(ring, {(0, j): 1, (1, j): 1}, {(0, j): one}, {}) for j in range(-1, 4)]
    strips = [gen._delta_strip_piece(ring, rng) for _ in range(2)]
    return gen._delta_conjugate(gen._delta_direct_sum(ring, disks + strips), rng)


def _template_maps(ring: CoeffRing, rng: random.Random):
    """(x, y, alpha) for strict maps alpha: x -> y between the Z/4 inductive
    template and random DeltaComplexes, both ways; none over other rings.

    The template's completion carries a level-2 component, so level 2 of
    d_Y f_0 - f_0 d_X can be nonzero: about one map in ten poses a
    ``theta_extend_mor`` system that is not homogeneous."""
    if ring != Z4:
        return []
    out = []
    for t in range(30):
        x = inductive_delta_complex(random.Random(99500 + t))
        y = random_delta_complex(ring, random.Random(99600 + t))
        out += [(x, y, random_delta_map(x, y, rng)), (y, x, random_delta_map(y, x, rng))]
    return out


class TestLevelSystemOracle:
    def test_level_systems_match_hand_written(self, monkeypatch):
        log = _record_problems(monkeypatch)
        seen = set()
        outcomes = set()

        def compare(run, ref_run, what):
            found = set()
            out = _same_problems(log, run, ref_run, found)
            seen.update(found | {f"{what} {tag}" for tag in found})
            outcomes.add((what, type(out).__name__))
            if isinstance(out, HomotopyCertificate) and any(
                n >= 2 for g in out.s.values() for (n, _) in g.components
            ):
                seen.add("eta nonzero s_n, n >= 2")
            return out

        for ring in (ZZ, Z4, Zmod(9), GF(5)):
            rng = random.Random(96)
            inputs = [x for x in [inductive_delta_complex()] if x.ring == ring]
            for trial in range(8):
                inputs.append(random_delta_complex(ring, random.Random(96000 + trial)))
                inputs.append(random_strip_delta_complex(ring, random.Random(96500 + trial)))
            for k in range(0, len(inputs) - 1, 2):
                x, y = inputs[k], inputs[k + 1]
                xhat = compare(lambda: theta_extend(x), lambda: ref_theta_extend(x), "theta")
                yhat = compare(lambda: theta_extend(y), lambda: ref_theta_extend(y), "theta")
                ident = DeltaMap(x, x, {pos: RingMatrix.identity(ring, r) for pos, r in x.ranks.items()})
                for alpha, a, b in ((random_delta_map(x, y, rng), xhat, yhat), (ident, xhat, xhat)):
                    compare(
                        lambda: theta_extend_mor(alpha, a, b),
                        lambda: ref_theta_extend_mor(alpha, a, b),
                        "mor",
                    )
            strips = [random_strip_delta_complex(ring, random.Random(97000 + t)) for t in range(20)]
            for x in inputs + strips:
                if x.delta0:
                    continue
                xhat = theta_extend(x)
                fhat = theta_extend_mor(columnwise_null_delta_map(x, x, rng), xhat, xhat)
                s0, s1 = find_seed(fhat)
                compare(
                    lambda: eta_null_complete(fhat, s0, s1),
                    lambda: ref_eta_null_complete(fhat, s0, s1),
                    "eta",
                )
            # f_1 = [1] into a contractible target: the only homotopy has s_2 = [1]
            x1 = GSystem(ring, {(1, 0): 1}, {})
            y1 = GSystem(ring, {(0, 1): 1, (1, 1): 1}, {(0, 0, 1): M(ring, [[1]])})
            f = GMorphism(x1, y1, {(1, 1, 0): M(ring, [[1]])})
            compare(lambda: eta_null_complete(f, {}, {}), lambda: ref_eta_null_complete(f, {}, {}), "eta")
            # the hand-built obstructions at level 1 and below the top level
            stalk = GSystem(ring, {(0, 0): 1}, {})
            for t, n in (((0, 1), 1), ((0, 2), 2)):
                f = GMorphism(stalk, GSystem(ring, {t: 1}, {}), {(n, 0, 0): M(ring, [[1]])})
                compare(lambda: eta_null_complete(f, {}, {}), lambda: ref_eta_null_complete(f, {}, {}), "eta")
            yhat = GSystem(ring, {(0, 0): 1, (1, 2): 1, (0, 3): 1}, {(2, 0, 0): M(ring, [[1]])})
            x = DeltaComplex(ring, {(0, 0): 1}, {}, {})
            y = DeltaComplex(ring, {(0, 0): 1, (-1, 2): 1, (-3, 3): 1}, {}, {})
            alpha = DeltaMap(x, y, {(0, 0): M(ring, [[1]])})
            compare(
                lambda: theta_extend_mor(alpha, stalk, yhat),
                lambda: ref_theta_extend_mor(alpha, stalk, yhat),
                "mor",
            )
            for t in range(4):
                x = _disks_and_strips(ring, random.Random(99000 + t))
                xhat = compare(lambda: theta_extend(x), lambda: ref_theta_extend(x), "theta")
                ident = DeltaMap(x, x, {pos: RingMatrix.identity(ring, r) for pos, r in x.ranks.items()})
                compare(
                    lambda: theta_extend_mor(ident, xhat, xhat),
                    lambda: ref_theta_extend_mor(ident, xhat, xhat),
                    "mor",
                )
            for x, y, alpha in _template_maps(ring, rng):
                xhat = compare(lambda: theta_extend(x), lambda: ref_theta_extend(x), "theta")
                yhat = compare(lambda: theta_extend(y), lambda: ref_theta_extend(y), "theta")
                compare(
                    lambda: theta_extend_mor(alpha, xhat, yhat),
                    lambda: ref_theta_extend_mor(alpha, xhat, yhat),
                    "mor",
                )
        assert {"nonzero rhs", "skipped unknown", "sign 1", "sign -1"} <= seen
        assert {f"{what} {tag}" for what in ("theta", "mor", "eta")
                for tag in ("nonzero rhs", "skipped unknown")} <= seen
        assert {"theta sign 1", "mor sign -1", "eta sign 1", "eta nonzero s_n, n >= 2"} <= seen
        assert outcomes == {
            ("theta", "GSystem"), ("mor", "GMorphism"), ("mor", "Obstruction"),
            ("eta", "HomotopyCertificate"), ("eta", "Obstruction"),
        }


def _same_seed_problems(log, f, seen):
    """find_seed(f) gives ref_find_seed(f)'s seeds and poses its system, level by level.

    The reference writes each position's level -1 equation (no rhs) and then
    its level 0 equation, also when that holds no term and a zero rhs.
    find_seed poses the same equations without those empty ones, the level
    -1 rows before the level 0 rows, over the same columns, and nothing when
    the rhs is zero everywhere (``_homogeneous_dropped``).  When no seed
    exists it solves no prefix: the level -1 prefix has no rhs.
    """
    start = len(log)
    out = find_seed(f)
    mid = len(log)
    ref = ref_find_seed(f)
    new, old = log[start:mid], log[mid:]
    del log[start:]
    assert out == ref
    assert len(old) == 1
    if not _homogeneous_dropped(old, new):
        return out
    ref_coeffs, ref_rhs, ref_prob = old[0]
    inst = ref_prob.instance
    rows = {-1: [], 0: []}
    for A, B, row, terms, rhs in ref_prob.equations:
        block = list(range(row, row + inst.hom_dim(A, B)))
        if rhs is None:
            rows[-1] += block
        elif terms or not rhs.is_zero():
            rows[0] += block
        else:
            seen.add("empty equation dropped")
    m = ref_coeffs.cols
    want = rows[-1] + rows[0]
    coeffs, rhs, prob = new[0]
    assert (coeffs.rows, coeffs.cols) == (len(want), m)
    assert coeffs.entries == [ref_coeffs.entries[r * m + c] for r in want for c in range(m)]
    assert rhs.entries == [ref_rhs.entries[r] for r in want]
    if any(rhs.entries):
        seen.add("nonzero rhs")
    if set(prob.unknowns.asked) - set(prob.unknowns):
        seen.add("skipped unknown")
    if any(not terms for _, _, _, terms, _ in prob.equations):
        seen.add("equation without terms")
    return out


class TestFindSeedOracle:
    def test_seed_systems_match_hand_written(self, monkeypatch):
        log = _record_problems(monkeypatch)
        seen = set()
        outcomes = set()

        for ring in (ZZ, Z4, Zmod(9), GF(5)):
            rng = random.Random(98)
            inputs = [x for x in [inductive_delta_complex()] if x.ring == ring]
            for trial in range(8):
                inputs.append(random_delta_complex(ring, random.Random(96000 + trial)))
                inputs.append(random_strip_delta_complex(ring, random.Random(96500 + trial)))
            inputs += [random_strip_delta_complex(ring, random.Random(97000 + t)) for t in range(20)]
            hats = [theta_extend(x) for x in inputs]
            maps = []
            for k in range(len(inputs) - 1):
                x, y, xhat, yhat = inputs[k], inputs[k + 1], hats[k], hats[k + 1]
                maps.append(theta_extend_mor(random_delta_map(x, y, rng), xhat, yhat))
                if not x.delta0:
                    maps.append(theta_extend_mor(columnwise_null_delta_map(x, x, rng), xhat, xhat))
            for t in range(20):
                x = random_gsystem(ring, random.Random(98000 + 2 * t))
                y = random_gsystem(ring, random.Random(98001 + 2 * t))
                maps.append(random_gmorphism(x, y, rng))
            for f in maps:
                if isinstance(f, GMorphism):
                    outcomes.add(_same_seed_problems(log, f, seen) is None)
        assert outcomes == {True, False}
        assert {"equation without terms", "nonzero rhs", "skipped unknown", "empty equation dropped"} <= seen


class TestThetaRereadsTheSquare:
    def test_each_level_reads_the_current_square(self, monkeypatch):
        """theta_extend's level n reads level n of -d d of the system completed so far.

        Over Z/4 at seed 244, level 2 adds components that level 3 reads: an R
        left from before level 2 would pose 0 where -(d_1 d_2 + d_2 d_1) is not."""
        solve, nonzero = gs._solve_levels, set()

        def checking(X, Y, di, sign, rhs, lo=1, hi=None):
            if X is Y and di == 1:  # theta_extend's level lo = hi
                c = X.complex
                inst = c.instance
                square = {i: inst.hom_negate(inst.compose(c.diff(i + 1), d)) for i, d in c.diffs.items()}
                for (i, j) in X.positions:
                    assert gs._part(rhs, i, lo, j) == gs._part(square, i, lo, j)
                    if gs._part(rhs, i, lo, j) is not None:
                        nonzero.add(lo)
            return solve(X, Y, di, sign, rhs, lo, hi)

        monkeypatch.setattr(gs, "_solve_levels", checking)
        for x in (random_delta_complex(Z4, random.Random(244)), inductive_delta_complex()):
            theta_extend(x)
        assert {2, 3} <= nonzero


class TestCgrAOnly:
    def test_level_solvers_reject_ga_endpoints(self):
        # every level solver reads f_0's keys and the certificate in CgrA;
        # GA endpoints used to give a wrong answer (no seed) or a shape error
        for seed in (0, 4):
            x = random_strip_delta_complex(Z4, random.Random(seed))
            xhat = theta_extend(x)
            alpha = columnwise_null_delta_map(x, x, random.Random(seed))
            fhat = theta_extend_mor(alpha, xhat, xhat)
            seeds = find_seed(fhat)
            assert x.positions and seeds is not None
            with pytest.raises(ValueError, match="CgrA"):
                theta_extend_mor(alpha, psi_inv(xhat), psi_inv(xhat))
            with pytest.raises(ValueError, match="CgrA"):
                find_seed(psi_inv_mor(fhat))
            with pytest.raises(ValueError, match="CgrA"):
                eta_null_complete(psi_inv_mor(fhat), *seeds)


class TestNoZeroFactor:
    def test_level_solvers_pose_only_stored_factors(self, monkeypatch):
        """No term of a level equation carries a zero matrix as its factor."""
        factors = {what: [] for what in ("theta", "mor", "seed", "eta")}
        add, now = MatrixProblem.add_equation, []

        def recording_add(self, shape, terms, rhs=None):
            if now:  # the generators pose their own systems
                factors[now[-1]].extend(m for _, left, right, _ in terms for m in (left, right) if m is not None)
            return add(self, shape, terms, rhs)

        def run(what, solver, *args):
            now.append(what)
            try:
                return solver(*args)
            finally:
                now.pop()

        monkeypatch.setattr(MatrixProblem, "add_equation", recording_add)
        for ring in (ZZ, Z4, Zmod(9), GF(5)):
            rng = random.Random(96)
            inputs = [x for x in [inductive_delta_complex()] if x.ring == ring]
            for trial in range(8):
                inputs.append(random_delta_complex(ring, random.Random(96000 + trial)))
                inputs.append(random_strip_delta_complex(ring, random.Random(96500 + trial)))
            inputs += [random_strip_delta_complex(ring, random.Random(97000 + t)) for t in range(20)]
            hats = [run("theta", theta_extend, x) for x in inputs]
            maps = []
            for k in range(len(inputs) - 1):
                x, y, xhat, yhat = inputs[k], inputs[k + 1], hats[k], hats[k + 1]
                maps.append(run("mor", theta_extend_mor, random_delta_map(x, y, rng), xhat, yhat))
                if not x.delta0:
                    maps.append(run("mor", theta_extend_mor, columnwise_null_delta_map(x, x, rng), xhat, xhat))
            for t in range(20):
                x = random_gsystem(ring, random.Random(98000 + 2 * t))
                maps.append(random_gmorphism(x, random_gsystem(ring, random.Random(98001 + 2 * t)), rng))
            for f in maps:
                seeds = run("seed", find_seed, f) if isinstance(f, GMorphism) else None
                if seeds is not None:
                    run("eta", eta_null_complete, f, *seeds)
            for t in range(4):
                x = _disks_and_strips(ring, random.Random(99000 + t))
                xhat = run("theta", theta_extend, x)
                assert isinstance(xhat, GSystem)
                ident = DeltaMap(x, x, {pos: RingMatrix.identity(ring, r) for pos, r in x.ranks.items()})
                assert isinstance(run("mor", theta_extend_mor, ident, xhat, xhat), GMorphism)
        # inputs whose levels carry a rhs, drawn after the ones above
        for x, y, alpha in _template_maps(Z4, random.Random(96)):
            run("mor", theta_extend_mor, alpha, run("theta", theta_extend, x), run("theta", theta_extend, y))
        assert all(factors.values()), {what: len(ms) for what, ms in factors.items()}
        assert len(factors["theta"]) >= 50, len(factors["theta"])
        assert not [w for w, ms in factors.items() for m in ms if m.is_zero()]


class TestHomogeneousLevels:
    def test_homogeneous_ranges_pose_nothing(self, monkeypatch):
        """A level range whose rhs is None throughout poses no system and gives
        the dict a posed solve gives: the same keys, a zero matrix for each."""
        solves = []
        solve, levels = MatrixProblem.solve, gs._solve_levels

        def counting(self):
            solves.append(self)
            return solve(self)

        seen = set()

        def checking(X, Y, di, sign, rhs, lo=1, hi=None):
            start = len(solves)
            out = levels(X, Y, di, sign, rhs, lo, hi)
            posed = len(solves) - start
            # no rhs component lands above the grades of Y
            top = hi if hi is not None else lo + max([j for _, j in Y.positions], default=0) - min(
                [j for _, j in X.positions], default=0) + 1
            homogeneous = all(gs._part(rhs, i, n, j) is None for n in range(lo, top + 1) for (i, j) in X.positions)

            # a zero matrix is a rhs, so this range is posed: R with an explicit zero
            # block at every slot of lo..top whose two ends are nonzero, held in a
            # namespace because GradedMorphism drops zero components
            comps = {i: dict(r.components) for i, r in rhs.items()}
            for (i, j) in X.positions:
                for n in range(lo, top + 1):
                    rows = Y.rank(i + di + 1, j + n)
                    if rows:
                        comps.setdefault(i, {}).setdefault((n, j), RingMatrix.zero(X.ring, rows, X.rank(i, j)))
            forced = {i: types.SimpleNamespace(components=c) for i, c in comps.items()}

            start = len(solves)
            ref = levels(X, Y, di, sign, forced, lo, hi)
            if homogeneous:
                assert posed == 0 and out[1] is None
                if len(solves) > start:
                    seen.add("homogeneous, posed when forced")
            else:
                assert posed >= 1
                seen.add("posed")
            assert out[1] == ref[1]
            if out[0] is None:
                assert ref[0] is None
            else:
                assert list(out[0]) == list(ref[0])
                assert all(out[0][k] == ref[0][k] for k in out[0])
                if homogeneous:
                    assert all(m.is_zero() for m in out[0].values())
            return out

        monkeypatch.setattr(MatrixProblem, "solve", counting)
        monkeypatch.setattr(gs, "_solve_levels", checking)
        for ring in (ZZ, Z4, Zmod(9), GF(5)):
            rng = random.Random(31)
            inputs = [random_delta_complex(ring, random.Random(96000 + t)) for t in range(4)]
            inputs += [random_strip_delta_complex(ring, random.Random(97000 + t)) for t in range(6)]
            for x in inputs:
                validate_delta(x)
                xhat = theta_extend(x)
                if not x.delta0:
                    fhat = theta_extend_mor(columnwise_null_delta_map(x, x, rng), xhat, xhat)
                    seeds = find_seed(fhat)
                    eta_null_complete(fhat, *seeds)
                    find_seed(random_gmorphism(xhat, xhat, rng))
            for x, y, alpha in _template_maps(ring, rng)[:12]:
                theta_extend_mor(alpha, theta_extend(x), theta_extend(y))
        assert {"homogeneous, posed when forced", "posed"} <= seen


class TestAbsentMeansZero:
    @pytest.mark.parametrize("ring", [ZZ, Z4, GF(5)], ids=str)
    def test_constructions_read_no_zero_block(self, ring, monkeypatch):
        """The constructions read stored components, None where zero: with the
        zero-building accessors (GSystem.diff and GMorphism.comp, so also d0, d1
        and DeltaMap.comp) made to raise, each still answers, and every block
        ``_solve_levels`` returns is nonzero."""
        rng = random.Random(21)
        one = RingMatrix.identity(ring, 1)
        xs = [random_delta_complex(ring, random.Random(2100 + t)) for t in range(6)]
        xs += [random_strip_delta_complex(ring, random.Random(2200 + t)) for t in range(6)]
        xs += [_disks_and_strips(ring, random.Random(2300 + t)) for t in range(2)]
        xs += [x for x in [inductive_delta_complex()] if x.ring == ring]
        # the strict relations hold, but delta1^2 = [1] on a stalk column has no null-homotopy
        bad = DeltaComplex(ring, {(0, j): 1 for j in (0, 1, 2)}, {}, {(0, 0): one, (0, 1): one})
        maps = [random_delta_map(x, y, rng) for x, y in zip(xs, xs[1:])]
        maps += [columnwise_null_delta_map(x, x, rng) for x in xs if not x.delta0]
        gmaps = [random_gmorphism(y, y, rng) for y in (random_gsystem(ring, random.Random(2400 + t)) for t in range(4))]
        # the identity of a stalk has no seed; level 1 between two stalks has one but no completion
        stalk, above = GSystem(ring, {(0, 0): 1}, {}), GSystem(ring, {(0, 1): 1}, {})
        gmaps += [GMorphism(stalk, stalk, {(0, 0, 0): one}), GMorphism(stalk, above, {(1, 0, 0): one})]

        def refuse(*args):
            raise AssertionError("a construction read a zero-building accessor")

        levels, returned, seen = gs._solve_levels, [], set()

        def recording(*args):
            out = levels(*args)
            returned.extend((out[0] or {}).values())
            return out

        monkeypatch.setattr(GSystem, "diff", refuse)
        monkeypatch.setattr(GMorphism, "comp", refuse)
        monkeypatch.setattr(gs, "_solve_levels", recording)
        assert validate_delta(bad) is False
        hats = {}
        for x in xs:
            assert validate_delta(x)
            hats[id(x)] = theta_extend(x)
        for alpha in maps:
            cone_delta(alpha)
            out = theta_triangle_check(alpha)
            seen.add("triangle True" if out is True else f"triangle {type(out).__name__}")
            xhat, yhat = hats[id(alpha.source)], hats[id(alpha.target)]
            if isinstance(xhat, GSystem) and isinstance(yhat, GSystem):
                fhat = theta_extend_mor(alpha, xhat, yhat)
                if isinstance(fhat, GMorphism):
                    gs.theta_cone_system(fhat)
                    gmaps.append(fhat)
        for f in gmaps:
            seeds = find_seed(f)
            seen.add("seed" if seeds is not None else "no seed")
            if seeds is not None:
                seen.add(type(eta_null_complete(f, *seeds)).__name__)
        assert {"triangle True", "seed", "no seed", "HomotopyCertificate", "Obstruction"} <= seen, seen
        assert returned and not [m for m in returned if m.is_zero()]


def ref_level_one_check(sys: GSystem):
    """``theta_extend``'s level-1 loop, verbatim from before the check read R = -(d d)."""
    # level 1 is a check, not a solve: d_0 d_1 + d_1 d_0 must vanish
    for (i, j) in sys.positions:
        res = sys.diff(0, i + 1, j + 1) @ sys.diff(1, i, j) + sys.diff(1, i + 1, j) @ sys.diff(0, i, j)
        if not res.is_zero():
            return Obstruction(
                "theta-extend", 1, (i, j),
                "level-1 relation fails: the signed j-map does not "
                "anticommute with the i-differential",
            )
    return None


def ref_level_zero_check(alpha: DeltaMap, xhat: GSystem, yhat: GSystem):
    """``theta_extend_mor``'s level-0 loop, verbatim from before the check read R = d f_0 - f_0 d."""
    f0 = GMorphism(xhat, yhat, {(0, r + j, j): m for (r, j), m in alpha.components.items()})
    # level 0: f_0 must already intertwine the strict differentials
    for (i, j) in xhat.positions:
        res = f0.comp(0, i + 1, j) @ xhat.diff(0, i, j) - yhat.diff(0, i, j) @ f0.comp(0, i, j)
        if not res.is_zero():
            return Obstruction(
                "theta-extend-mor", 0, (i, j),
                "the column-wise map does not commute with the i-differential",
            )
    return None


def _moved(x: DeltaComplex, di: int, dj: int) -> DeltaComplex:
    """x with every position (i, j) moved to (i + di, j + dj)."""
    return DeltaComplex(x.ring, *({(i + di, j + dj): v for (i, j), v in view.items()}
                                  for view in (x.ranks, x.delta0, x.delta1)))


def _strip(ring: CoeffRing, i: int, rank: int) -> DeltaComplex:
    """A rank-`rank` strip in row i over columns 0 and 1, with delta1 the identity."""
    return DeltaComplex(ring, {(i, 0): rank, (i, 1): rank}, {}, {(i, 0): RingMatrix.identity(ring, rank)})


class TestObstructionPositionOracle:
    @pytest.mark.parametrize("ring", [ZZ, Z4, Zmod(9), GF(5)], ids=str)
    def test_first_failing_positions_match_the_loops(self, ring):
        rng = random.Random(99)
        seen = set()
        for trial in range(12):
            # the obstructed template from column 2 on, summed after strips in columns 0-1
            pieces = [_strip(ring, rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            pieces.append(_moved(obstructed_delta_complex(ring), rng.randint(-2, 1), 2))
            x = gen._delta_direct_sum(ring, pieces)
            for z in (x, gen._delta_conjugate(x, rng)):
                out, ref = theta_extend(z), ref_level_one_check(gs._theta_seed(z))
                assert ref is not None and (out.stage, out.level, out.position, out.detail) == (
                    ref.stage, ref.level, ref.position, ref.detail)
                seen.add(("theta", ref.position == min(psi(z).positions)))
        for trial in range(30):
            x = random_delta_complex(ring, random.Random(99000 + trial))
            y = random_delta_complex(ring, random.Random(99500 + trial))
            xhat, yhat = theta_extend(x), theta_extend(y)
            f = random_delta_map(x, y, rng)
            for alpha in (f, DeltaMap(x, y, _perturbed_map(f, rng))):
                out, ref = theta_extend_mor(alpha, xhat, yhat), ref_level_zero_check(alpha, xhat, yhat)
                if ref is None:
                    assert not isinstance(out, Obstruction) or out.level > 0
                    continue
                assert (out.stage, out.level, out.position, out.detail) == (
                    ref.stage, ref.level, ref.position, ref.detail)
                seen.add(("mor", ref.position == min(xhat.positions)))
        assert {("theta", False), ("mor", False)} <= seen
