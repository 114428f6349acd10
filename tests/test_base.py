import random
from collections import Counter
from fractions import Fraction

import pytest

from etacomplex import complexes
from etacomplex.base import (
    EtaPower,
    Graded,
    GradedMorphism,
    GradedObject,
    ScalarEta,
    check_eta_coherence,
    check_eta_natural,
    instance_from_json,
)
from etacomplex.cli import main
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, QQ, ZZ, Zmod
from etacomplex.suite import run_suite


def random_graded_obj(rng, max_deg=2, max_rank=2):
    ranks = {}
    for j in range(-max_deg, max_deg + 1):
        if rng.random() < 0.5:
            ranks[j] = rng.randint(1, max_rank)
    return GradedObject(ranks)


def random_graded_mor(inst, rng, X, Y):
    d = inst.hom_dim(X, Y)
    return inst.vec_to_mor([rng.randint(-4, 4) for _ in range(d)], X, Y)


class TestScalarEta:
    def test_eta_is_scalar(self):
        inst = ScalarEta(Zmod(4), 2)
        assert inst.eta(1) == RingMatrix.from_rows(Zmod(4), [[2]])

    def test_shift_identity(self):
        inst = ScalarEta(ZZ, 1)
        assert inst.shift_obj(3, 1) == 3
        m = RingMatrix.from_rows(ZZ, [[1, 2]])
        assert inst.shift_mor(m, 5) == m

    def test_eta_zero_object(self):
        inst = ScalarEta(Zmod(4), 2)
        assert inst.mor_is_zero(inst.eta(0))

    def test_coherence_and_naturality(self):
        inst = ScalarEta(Zmod(4), 2)
        assert check_eta_coherence(inst, 2)
        rng = random.Random(0)
        for _ in range(20):
            X, Y = rng.randint(0, 3), rng.randint(0, 3)
            f = inst.vec_to_mor([rng.randint(0, 3) for _ in range(X * Y)], X, Y)
            assert check_eta_natural(inst, f, X, Y)

    def test_hom_coordinates_round_trip(self):
        inst = ScalarEta(GF(5), 1)
        f = RingMatrix.from_rows(GF(5), [[1, 2, 3], [4, 0, 1]])
        assert inst.vec_to_mor(inst.mor_to_vec(f, 3, 2), 3, 2) == f


class TestGradedObjects:
    def test_shift_moves_support(self):
        X = GradedObject({0: 1})
        inst = Graded(ScalarEta(ZZ, 1))
        assert inst.shift_obj(X, 1) == GradedObject({-1: 1})
        assert inst.shift_obj(inst.shift_obj(X, 1), -1) == X

    def test_dsum(self):
        inst = Graded(ScalarEta(ZZ, 1))
        X = GradedObject({0: 1, 2: 2})
        Y = GradedObject({0: 1, 1: 3})
        assert inst.dsum([X, Y]) == GradedObject({0: 2, 1: 3, 2: 2})

    def test_json_round_trip(self):
        X = GradedObject({-1: 2, 3: 1})
        assert GradedObject.from_json(X.to_json()) == X


class TestGradedMorphisms:
    def setup_method(self):
        self.inst = Graded(ScalarEta(ZZ, 1))

    def test_identity_unit(self):
        rng = random.Random(1)
        for _ in range(30):
            X = random_graded_obj(rng)
            Y = random_graded_obj(rng)
            f = random_graded_mor(self.inst, rng, X, Y)
            assert self.inst.compose(self.inst.id_mor(Y), f) == f
            assert self.inst.compose(f, self.inst.id_mor(X)) == f

    def test_scale_by_zero_leaves_no_component(self):
        rng = random.Random(2)
        for _ in range(20):
            X, Y = random_graded_obj(rng), random_graded_obj(rng)
            f = random_graded_mor(self.inst, rng, X, Y)
            zero = self.inst.hom_scale(f, 0)
            assert zero.components == {} and zero == self.inst.zero_mor(X, Y)

    def test_scale_to_zero_mod_m_leaves_no_component(self):
        inst = Graded(ScalarEta(Zmod(4), 1))
        X = GradedObject({0: 1, 1: 1})
        f = inst.hom_scale(inst.id_mor(X), 2)
        assert set(f.components) == {(0, 0), (0, 1)}
        assert inst.hom_scale(f, 2).components == {}

    def test_convolution_hand_oracle(self):
        # rank-1 scalars, f = {f0=2, f1=3}, g = {g0=5, g1=7}:
        # (gf)_0 = 10, (gf)_1 = g1 f0 + g0 f1 = 7*2 + 5*3 = 29
        X = GradedObject({0: 1, 1: 1})
        one = lambda v: RingMatrix.from_rows(ZZ, [[v]])
        f = GradedMorphism(X, X, {(0, 0): one(2), (0, 1): one(2), (1, 0): one(3)})
        g = GradedMorphism(X, X, {(0, 0): one(5), (0, 1): one(5), (1, 0): one(7)})
        gf = self.inst.compose(g, f)
        assert gf.component(0, 0, ZZ) == one(10)
        assert gf.component(1, 0, ZZ) == one(29)

    def test_compose_zero(self):
        X = GradedObject({0: 2})
        f = self.inst.zero_mor(X, X)
        g = random_graded_mor(self.inst, random.Random(2), X, X)
        assert self.inst.mor_is_zero(self.inst.compose(g, f))

    def test_associativity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            W, X, Y, Z = (random_graded_obj(rng) for _ in range(4))
            f = random_graded_mor(self.inst, rng, W, X)
            g = random_graded_mor(self.inst, rng, X, Y)
            h = random_graded_mor(self.inst, rng, Y, Z)
            assert self.inst.compose(self.inst.compose(h, g), f) == self.inst.compose(
                h, self.inst.compose(g, f)
            )

    def test_eta_components(self):
        X = GradedObject({0: 1, 1: 1})
        e = self.inst.eta(X)
        assert e.source == self.inst.shift_obj(X, 1)
        assert e.target == X
        assert set(e.components) == {(1, -1), (1, 0)}
        for m in e.components.values():
            assert m == RingMatrix.identity(ZZ, 1)

    def test_eta_coherence_random(self):
        rng = random.Random(4)
        for _ in range(100):
            X = random_graded_obj(rng)
            assert check_eta_coherence(self.inst, X)

    def test_eta_naturality_random(self):
        rng = random.Random(5)
        for _ in range(100):
            X = random_graded_obj(rng)
            Y = random_graded_obj(rng)
            f = random_graded_mor(self.inst, rng, X, Y)
            assert check_eta_natural(self.inst, f, X, Y)

    def test_shift_respects_composition(self):
        rng = random.Random(6)
        for _ in range(40):
            X, Y, Z = (random_graded_obj(rng) for _ in range(3))
            f = random_graded_mor(self.inst, rng, X, Y)
            g = random_graded_mor(self.inst, rng, Y, Z)
            for k in (-2, 1, 3):
                lhs = self.inst.shift_mor(self.inst.compose(g, f), k)
                rhs = self.inst.compose(self.inst.shift_mor(g, k), self.inst.shift_mor(f, k))
                assert lhs == rhs
                assert self.inst.shift_mor(self.inst.id_mor(X), k) == self.inst.id_mor(
                    self.inst.shift_obj(X, k)
                )

    def test_hom_coordinates_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            X = random_graded_obj(rng)
            Y = random_graded_obj(rng)
            f = random_graded_mor(self.inst, rng, X, Y)
            v = self.inst.mor_to_vec(f, X, Y)
            assert len(v) == self.inst.hom_dim(X, Y)
            assert self.inst.vec_to_mor(v, X, Y) == f

    def test_block_split_round_trip(self):
        rng = random.Random(8)
        for _ in range(20):
            srcs = [random_graded_obj(rng), random_graded_obj(rng)]
            tgts = [random_graded_obj(rng), random_graded_obj(rng)]
            grid = [
                [random_graded_mor(self.inst, rng, srcs[bj], tgts[bi]) for bj in range(2)]
                for bi in range(2)
            ]
            f = self.inst.block_mor(grid, tgts, srcs)
            back = self.inst.split_mor(f, tgts, srcs)
            for bi in range(2):
                for bj in range(2):
                    assert back[bi][bj] == grid[bi][bj]

    def test_block_mor_builds_no_zero_block(self, monkeypatch):
        """An absent component is read as None, never built by ``component``,
        and a slot whose blocks are all absent is not assembled."""
        grids = []
        block = RingMatrix.block

        def recording(ring, grid, rows, cols):
            grids.append(grid)
            return block(ring, grid, rows, cols)

        def refuse(*args):
            raise AssertionError("block_mor built a zero block")

        monkeypatch.setattr(RingMatrix, "block", staticmethod(recording))
        monkeypatch.setattr(GradedMorphism, "component", refuse)
        rng = random.Random(81)
        for _ in range(20):
            srcs = [random_graded_obj(rng), random_graded_obj(rng)]
            tgts = [random_graded_obj(rng), random_graded_obj(rng)]
            grid = [
                [None if rng.random() < 0.3 else random_graded_mor(self.inst, rng, srcs[bj], tgts[bi])
                 for bj in range(2)]
                for bi in range(2)
            ]
            back = self.inst.split_mor(self.inst.block_mor(grid, tgts, srcs), tgts, srcs)
            for bi in range(2):
                for bj in range(2):
                    want = grid[bi][bj]
                    if want is None:
                        want = self.inst.zero_mor(srcs[bj], tgts[bi])
                    assert back[bi][bj] == want
        assert grids and all(any(b is not None for row in g for b in row) for g in grids)

    def test_bad_component_shape(self):
        X = GradedObject({0: 1})
        with pytest.raises(ValueError):
            GradedMorphism(X, X, {(0, 0): RingMatrix.zero(ZZ, 2, 2)})
        with pytest.raises(ValueError):
            GradedMorphism(X, X, {(-1, 0): RingMatrix.zero(ZZ, 0, 0)})

    def test_mor_json_round_trip(self):
        rng = random.Random(9)
        X = random_graded_obj(rng)
        Y = random_graded_obj(rng)
        f = random_graded_mor(self.inst, rng, X, Y)
        assert self.inst.mor_from_json(self.inst.mor_to_json(f), X, Y) == f


def all_pairs_compose(g, f):
    """(g f)_n^j = sum_{p+q=n} g_p^{j+q} f_q^j over every pair of components,
    sums that cancel included."""
    comps = {}
    for (q, j), fm in f.components.items():
        for (p, t), gm in g.components.items():
            if t == j + q:
                key = (p + q, j)
                comps[key] = comps[key] + gm @ fm if key in comps else gm @ fm
    return comps


class TestGradedComposeOracle:
    def test_hand_cancellation(self):
        # (g f)_1^0 = g_1^0 f_0^0 + g_0^1 f_1^0 = -1 + 1 = 0, so only degree 0 is stored
        inst = Graded(ScalarEta(ZZ, 1))
        X = GradedObject({0: 1, 1: 1})
        one = lambda v: RingMatrix.from_rows(ZZ, [[v]])
        f = GradedMorphism(X, X, {(0, 0): one(1), (0, 1): one(1), (1, 0): one(1)})
        g = GradedMorphism(X, X, {(0, 0): one(1), (0, 1): one(1), (1, 0): one(-1)})
        assert all_pairs_compose(g, f)[(1, 0)].is_zero()
        assert inst.compose(g, f).components == {(0, 0): one(1), (0, 1): one(1)}
        assert inst.compose(f, g).components == {(0, 0): one(1), (0, 1): one(1)}

    @pytest.mark.parametrize("ring, values", [(ZZ, (-1, 0, 1)), (Zmod(4), (0, 2)), (GF(5), (0, 1, 4))], ids=str)
    def test_compose_matches_all_pairs(self, ring, values):
        """``Graded.compose`` meets g's components by source grade; it equals
        the all-pairs sum with its zero sums dropped, and stores no zero."""
        inst = Graded(ScalarEta(ring, 1))
        rng = random.Random(41)
        cancelled = 0
        for _ in range(150):
            X, Y, Z = (random_graded_obj(rng, max_rank=1 + (ring != ZZ)) for _ in range(3))
            f = inst.vec_to_mor([rng.choice(values) for _ in range(inst.hom_dim(X, Y))], X, Y)
            g = inst.vec_to_mor([rng.choice(values) for _ in range(inst.hom_dim(Y, Z))], Y, Z)
            ref = all_pairs_compose(g, f)
            cancelled += sum(m.is_zero() for m in ref.values())
            gf = inst.compose(g, f)
            assert gf == GradedMorphism(X, Z, ref)
            assert (gf.source, gf.target) == (X, Z)
            assert not any(m.is_zero() for m in gf.components.values())
        assert cancelled > 10


class TestBoundaryChecks:
    """The public constructors and readers keep every check; only the
    package's own constructions skip them."""

    X, Y = GradedObject({0: 1, 1: 2}), GradedObject({0: 2, 1: 1})

    def test_graded_morphism_rejects_bad_shape_and_negative_degree(self):
        good = RingMatrix.from_rows(ZZ, [[1], [2]])  # Y^0 <- X^0 is 2 x 1
        assert GradedMorphism(self.X, self.Y, {(0, 0): good}).components == {(0, 0): good}
        for comps in ({(0, 0): RingMatrix.from_rows(ZZ, [[1, 2]])},  # 1 x 2
                      {(1, 0): good},  # Y^1 <- X^0 is 1 x 1
                      {(-1, 1): RingMatrix.from_rows(ZZ, [[1, 2], [3, 4]])}):  # the shape of Y^0 <- X^1
            with pytest.raises(ValueError):
                GradedMorphism(self.X, self.Y, comps)

    def test_validate_mor_rejects_bad_shape(self):
        inst = Graded(ScalarEta(ZZ, 1))
        good = GradedMorphism(self.X, self.Y, {(0, 0): RingMatrix.from_rows(ZZ, [[1], [2]])})
        assert inst.validate_mor(good, self.X, self.Y)
        assert not inst.validate_mor(good, self.Y, self.X)
        for comps in ({(0, 0): RingMatrix.from_rows(ZZ, [[1, 2]])},
                      {(-1, 1): RingMatrix.from_rows(ZZ, [[1, 2], [3, 4]])}):
            assert not inst.validate_mor(GradedMorphism._trusted(self.X, self.Y, comps), self.X, self.Y)

    @pytest.mark.parametrize("ring", [ZZ, Zmod(4), GF(5), QQ], ids=str)
    def test_matrix_reader_matches_the_per_entry_reader(self, ring):
        """``RingMatrix.from_json`` reads a list of integer strings in one
        match and anything else entry by entry: every list gets the answer
        of ``elem_from_str``, a rejection included."""
        rng = random.Random(31)
        odd = ["+3", " 3", "3 ", "1_0", "\u0663", "", "3\n", "1,2", "-", "--1", "0x1", "1/2", "-4/6", "2/0",
               3, 1.0, True, None]
        rejected = 0
        for _ in range(400):
            entries = [str(rng.randint(-30, 30)) for _ in range(rng.randint(0, 5))]
            if entries and rng.random() < 0.5:
                entries[rng.randrange(len(entries))] = rng.choice(odd)
            d = {"ring": ring.to_json(), "rows": 1, "cols": len(entries), "entries": entries}
            try:
                want = [ring.elem_from_str(s) for s in entries]
            except ValueError:
                rejected += 1
                for expected in (None, ring):
                    with pytest.raises(ValueError):
                        RingMatrix.from_json(d, expected)
                continue
            for expected in (None, ring, GF(7)):
                got = RingMatrix.from_json(d, expected)
                assert got.ring == ring
                assert got.entries == want and list(map(type, got.entries)) == list(map(type, want))
        assert rejected > 50

    def test_matrix_reader_checks_a_named_ring(self):
        """A matrix read where a ring is expected still has its own ring read
        and checked when it names another, or names it with a float modulus."""
        d = {"ring": Zmod(4).to_json(), "rows": 1, "cols": 1, "entries": ["3"]}
        assert RingMatrix.from_json(d, Zmod(8)).ring == Zmod(4)
        d["ring"] = {"kind": "Zmod", "modulus": 4.0}
        with pytest.raises(ValueError):
            RingMatrix.from_json(d, Zmod(4))


class TestEtaPower:
    def test_power_one_is_eta(self):
        inner = ScalarEta(Zmod(8), 2)
        inst = EtaPower(inner, 1)
        assert inst.eta(2) == inner.eta(2)

    def test_scalar_square(self):
        inst = EtaPower(ScalarEta(Zmod(8), 2), 2)
        assert inst.eta(1) == RingMatrix.from_rows(Zmod(8), [[4]])

    def test_graded_power_shifts(self):
        inner = Graded(ScalarEta(ZZ, 1))
        inst = EtaPower(inner, 2)
        X = GradedObject({0: 1, 1: 1, 2: 1})
        e = inst.eta(X)
        assert e.source == inner.shift_obj(X, 2)
        assert e.target == X
        # eta^2 has only degree-2 components, each the identity
        assert all(n == 2 for (n, _) in e.components)

    def test_coherence(self):
        inner = Graded(ScalarEta(ZZ, 1))
        inst = EtaPower(inner, 2)
        rng = random.Random(10)
        for _ in range(30):
            X = random_graded_obj(rng)
            assert check_eta_coherence(inst, X)
            Y = random_graded_obj(rng)
            f = random_graded_mor(inner, rng, X, Y)
            assert check_eta_natural(inst, f, X, Y)


class TestSerialization:
    def test_instance_round_trip(self):
        for inst in (ScalarEta(Zmod(4), 2), Graded(ScalarEta(GF(5), 0)), Graded(EtaPower(ScalarEta(ZZ, 2), 2))):
            assert instance_from_json(inst.to_json()) == inst

    def test_graded_does_not_nest_under_eta_power(self):
        """Graded's level-0 systems are posed over its inner instance, whose
        objects must be ranks; a graded inner is rejected, also under EtaPower."""
        graded = Graded(ScalarEta(GF(5), 1))
        for inner in (graded, EtaPower(graded, 2), EtaPower(EtaPower(graded, 1), 3)):
            with pytest.raises(ValueError, match="do not nest"):
                Graded(inner)
            with pytest.raises(ValueError, match="do not nest"):
                instance_from_json({"kind": "graded", "inner": inner.to_json()})


class TestTrustedConstruction:
    """Every matrix the package builds without canonicalizing already holds
    canonical entries: ints (not bools) in range, and over Q an int exactly
    when the value is integral and a reduced Fraction otherwise.  The
    trusted constructor is wrapped to check each entry it receives over the
    suite and over CLI checks of generated files, and so is the solver that
    every assembled system is handed to, as dict rows that hold no zero."""

    RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), Zmod(12), Zmod(27), GF(5), QQ, GF(2)]

    @pytest.fixture
    def trusted(self, monkeypatch):
        original = RingMatrix._trusted
        hits = Counter()
        bad = []

        def check(ring, entries):
            for x in entries:
                want = Fraction if ring.kind == "Q" and x.denominator != 1 else int
                if type(x) is not want or x != ring.canon(x):
                    bad.append((str(ring), repr(x)))
            hits[ring] += 1

        def checked(ring, rows, cols, entries):
            check(ring, entries)
            return original(ring, rows, cols, entries)

        solve = complexes._solve

        def checked_solve(ring, rows, m, want_kernel):
            for row in rows:
                check(ring, row.values())
                if not all(row.values()):
                    bad.append((str(ring), "a stored zero"))
            return solve(ring, rows, m, want_kernel)

        monkeypatch.setattr(RingMatrix, "_trusted", staticmethod(checked))
        monkeypatch.setattr(complexes, "_solve", checked_solve)
        return hits, bad

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_suite_builds_canonical_entries(self, trusted, ring):
        hits, bad = trusted
        ok, _ = run_suite(5, trials=2, rings=[ring])
        assert ok
        assert not bad, bad[:10]
        assert hits[ring] > 0

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_cli_check_builds_canonical_entries(self, trusted, ring, tmp_path, capsys):
        hits, bad = trusted
        p = tmp_path / "in.json"
        # at these seeds and sizes both profiles pose systems whose cells sum several products
        for seed in (5, 6):
            for profile, op in (("chain-maps", "eta-homotopic"), ("pair", "is-eta-conflation")):
                assert main(["gen", "--seed", str(seed), "--profile", profile, "--ring", str(ring),
                             "--max-len", "4", "--max-rank", "6", "-o", str(p)]) == 0
                hits.clear()
                assert main(["check", str(p), "--op", op]) in (0, 1)
                assert hits[ring] > 0
        capsys.readouterr()
        assert not bad, bad[:10]
