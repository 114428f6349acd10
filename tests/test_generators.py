"""Oracle for the random instance generators.

The reference functions below are the generators' bodies from before every
random complex went through one sum-and-conjugate helper, random maps
through one kernel draw, the axiom witnesses through one draw each,
random DeltaComplexes through the same block sum as random complexes, and
the nilpotent chains' factor of m through the rings' factoring helper.
They are kept verbatim, renamed, as the reference: on the same seed the
library must give the same serialized instance and leave the random
generator in the same state.
"""

import json
import random
from typing import Dict, List, Tuple

import pytest

from etacomplex import suite
from etacomplex.base import BaseInstance, EtaPower, Graded, GradedMorphism, GradedObject, ScalarEta
from etacomplex.complexes import (
    ChainMap,
    Complex,
    LinearProblem,
    apply_auto,
    chain_map_problem,
    shift_complex,
    solution_chain_map,
    zero_chain_map,
)
from etacomplex.generators import (
    _nilpotent_entries,
    conjugate_pair,
    inductive_delta_complex,
    random_chain_map,
    random_complex,
    random_delta_complex,
    random_delta_map,
    random_graded_automorphism,
    random_graded_complex,
    random_graded_object,
    random_scalar_complex,
    random_split_pair,
    random_std_conflation,
    random_strip_delta_complex,
    random_unimodular,
)
from etacomplex.gsystems import DeltaComplex, DeltaMap, MatrixProblem
from etacomplex.matrix import RingMatrix
from etacomplex.rings import GF, QQ, ZZ, CoeffRing, Zmod
from etacomplex.serialize import payload_to_json

RINGS = [ZZ, Zmod(4), Zmod(8), Zmod(9), GF(5), QQ]


def _instances():
    """ScalarEta, Graded and EtaPower instances over every ring."""
    out = []
    for ring in RINGS:
        for r in (0, 1, 2):
            base = ScalarEta(ring, ring.canon(r))
            out += [base, Graded(base), EtaPower(base, 2), EtaPower(Graded(base), 2)]
    return out


def _same(seed, kind, new, ref):
    """Run ``new`` and ``ref`` on generators seeded alike; assert that they give
    the same serialized payload and leave the generators in the same state."""
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    a, b = new(rng_new), ref(rng_ref)
    assert json.dumps(payload_to_json(kind, a), sort_keys=True) == json.dumps(
        payload_to_json(kind, b), sort_keys=True
    )
    assert rng_new.getstate() == rng_ref.getstate()
    return a


def _is_graded(inst):
    return isinstance(inst.inner if isinstance(inst, EtaPower) else inst, Graded)


class TestGeneratorOracle:
    def test_unimodular(self):
        for ring in RINGS:
            for seed in range(6):
                for n in range(6):
                    for ops in (4, 2 * n):
                        rng_new, rng_ref = random.Random(seed), random.Random(seed)
                        u, v = random_unimodular(ring, n, rng_new, ops)
                        ru, rv = ref_random_unimodular(ring, n, rng_ref, ops)
                        assert (u.entries, v.entries) == (ru.entries, rv.entries)
                        assert rng_new.getstate() == rng_ref.getstate()
                        assert u @ v == RingMatrix.identity(ring, n)

    def test_complexes(self):
        kinds = set()
        for k, inst in enumerate(_instances()):
            for seed in range(3 * k, 3 * k + 3):
                for size in ({}, {"max_len": 4, "max_rank": 3}):
                    if _is_graded(inst):
                        new, ref = random_graded_complex, ref_random_graded_complex
                    else:
                        new, ref = random_scalar_complex, ref_random_scalar_complex
                    c = _same(seed, "complex", lambda r: new(inst, r, **size),
                              lambda r: ref(inst, r, **size))
                    _same(seed, "complex", lambda r: random_complex(inst, r, **size),
                          lambda r: ref_random_complex(inst, r, **size))
                    kinds.add((type(inst).__name__, len(c.diffs) > 1))
        assert kinds == {(t, d) for t in ("ScalarEta", "Graded", "EtaPower") for d in (False, True)}

    def test_conjugate_pair(self):
        for k, inst in enumerate(_instances()):
            rng = random.Random(k)
            defl = random_std_conflation(inst, rng, max_len=3)
            pairs = [(defl.i, defl.p), random_split_pair(inst, rng, max_len=2)]
            for seed, (i, p) in enumerate(pairs):
                _same(seed, "pair", lambda r: conjugate_pair(i, p, r),
                      lambda r: ref_conjugate_pair(i, p, r))

    def test_chain_maps(self):
        drawn = 0
        for k, inst in enumerate(_instances()):
            rng = random.Random(100 + k)
            a = random_complex(inst, rng, max_len=3, max_rank=3)
            b = random_complex(inst, rng, max_len=3, max_rank=3)
            for seed in range(3):
                f = _same(seed, "chain-maps",
                          lambda r: (random_chain_map(a, b, r), random_chain_map(a, b, r)),
                          lambda r: (ref_random_chain_map(a, b, r), ref_random_chain_map(a, b, r)))
                drawn += not f[0].is_zero()
        assert drawn

    def test_nilpotent_entries(self):
        for ring in RINGS + [Zmod(m) for m in range(2, 400)]:
            for length in range(5):
                assert _nilpotent_entries(ring, length) == ref_nilpotent_entries(ring, length)
        p, q = 2 ** 31 - 1, 2 ** 31 - 19
        assert _nilpotent_entries(Zmod(2 ** 61 - 1), 3) is None
        assert _nilpotent_entries(Zmod(p * q), 4) == [q, p, q]

    def test_delta_complexes(self):
        seen = set()
        for ring in RINGS:
            for seed in range(16):
                for size in ({}, {"max_rank": 3}):
                    x = _same(seed, "delta-complex", lambda r: random_delta_complex(ring, r, **size),
                              lambda r: ref_random_delta_complex(ring, r, **size))
                    if not size:  # strips are drawn at rank 2 only
                        _same(seed, "delta-complex", lambda r: random_strip_delta_complex(ring, r),
                              lambda r: ref_random_strip_delta_complex(ring, r))
                    seen.add(("delta0 and delta1", bool(x.delta0) and bool(x.delta1)))
                    seen.add(("GA order differs", list(x.complex.objects) != sorted(x.complex.objects)))
                    seen.add(("level 2 template", ring == Zmod(4) and x.ranks.get((1, 2), 0) >= 2))
        assert {("delta0 and delta1", True), ("GA order differs", True), ("level 2 template", True)} <= seen

    def test_delta_maps(self):
        drawn = 0
        for ring in RINGS:
            for seed in range(8):
                rng = random.Random(200 + seed)
                draw = random_delta_complex if seed % 2 else random_strip_delta_complex
                x, y = draw(ring, rng), draw(ring, rng)
                m = _same(seed, "delta-map", lambda r: random_delta_map(x, y, r),
                          lambda r: ref_random_delta_map(x, y, r))
                drawn += bool(m.components)
        assert drawn

    @pytest.mark.parametrize("max_rank", [1, 2])
    def test_axiom_witnesses(self, max_rank):
        draws = [
            (suite.ex1_witness, ref_ex1_witness),
            (suite.ex1_op_witness, ref_ex1_op_witness),
            (suite.ex2_witness, ref_ex2_witness),
            (suite.ex2_op_witness, ref_ex2_op_witness),
        ]
        for k, inst in enumerate(_instances()):
            defl = random_std_conflation(inst, random.Random(300 + k), max_len=2, max_rank=1)
            for new, ref in draws:
                # two draws in a row, as chain-maps payloads hold two maps
                _same(k, "chain-maps",
                      lambda r: (new(defl, r, max_rank=max_rank), new(defl, r, max_rank=max_rank)),
                      lambda r: (ref(defl.instance, defl, r, max_rank), ref(defl.instance, defl, r, max_rank)))


# -- the reference bodies ---------------------------------------------------


def ref_ex1_witness(inst, defl1, rng, max_rank):
    V = ref_random_complex(inst, rng, max_len=2, max_rank=max_rank)
    beta = ref_random_chain_map(shift_complex(defl1.middle, -1), apply_auto(V, 1), rng)
    return beta


def ref_ex1_op_witness(inst, infl1, rng, max_rank):
    U = ref_random_complex(inst, rng, max_len=2, max_rank=max_rank)
    gamma = ref_random_chain_map(shift_complex(U, -1), apply_auto(infl1.middle, 1), rng)
    return gamma


def ref_ex2_witness(inst, defl, rng, max_rank):
    zp = ref_random_complex(inst, rng, max_len=2, max_rank=max_rank)
    h = ref_random_chain_map(zp, defl.Z, rng)
    return h


def ref_ex2_op_witness(inst, infl, rng, max_rank):
    xp = ref_random_complex(inst, rng, max_len=2, max_rank=max_rank)
    h = ref_random_chain_map(infl.X, xp, rng)
    return h


def ref_random_unimodular(ring: CoeffRing, n: int, rng: random.Random, ops: int = 4) -> Tuple[RingMatrix, RingMatrix]:
    """A random invertible matrix together with its exact inverse."""
    u = RingMatrix.identity(ring, n)
    v = RingMatrix.identity(ring, n)  # v = u^{-1}, updated in lockstep
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = ring.canon(rng.choice([-2, -1, 1, 2]))
        # row_i += c * row_j on u  <->  col_j -= c * col_i on v
        for t in range(n):
            u.entries[i * n + t] = ring.add(u.entries[i * n + t], ring.mul(c, u.entries[j * n + t]))
        for t in range(n):
            v.entries[t * n + j] = ring.sub(v.entries[t * n + j], ring.mul(c, v.entries[t * n + i]))
    if n and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        for t in range(n):
            u.entries[i * n + t], u.entries[j * n + t] = u.entries[j * n + t], u.entries[i * n + t]
        for t in range(n):
            v.entries[t * n + i], v.entries[t * n + j] = v.entries[t * n + j], v.entries[t * n + i]
    return u, v


def ref_random_automorphism(inst: BaseInstance, X, rng: random.Random):
    core = inst.inner if isinstance(inst, EtaPower) else inst
    if isinstance(core, Graded):
        return random_graded_automorphism(core, X, rng)
    return ref_random_unimodular(inst.ring, X, rng)


def ref_random_scalar_complex(
    inst: ScalarEta,
    rng: random.Random,
    max_len: int = 4,
    max_rank: int = 2,
    min_deg: int = -2,
) -> Complex:
    """Direct sum of stalks/disks/nilpotent chains, conjugated degreewise."""
    ring = inst.ring
    length = rng.randint(0, max_len)
    if length == 0:
        return Complex(inst, {}, {})
    base = rng.randint(min_deg, min_deg + 2)
    degs = list(range(base, base + length))
    ranks = {n: 0 for n in degs}
    diag: Dict[int, List] = {n: [] for n in degs[:-1]}  # diagonal entries of d^n
    pieces = rng.randint(1, 3)
    for _ in range(pieces):
        kind = rng.random()
        if kind < 0.45 or length == 1:
            n = rng.choice(degs)  # stalk
            r = rng.randint(1, max_rank)
            for _ in range(r):
                ranks[n] += 1
        elif kind < 0.8:
            n = rng.choice(degs[:-1])  # disk: Id from n to n+1
            ranks[n] += 1
            ranks[n + 1] += 1
            diag[n].append((ranks[n] - 1, ranks[n + 1] - 1, ring.one()))
        else:
            chain = _nilpotent_entries(ring, length)
            if not chain:
                n = rng.choice(degs)
                ranks[n] += 1
                continue
            ln = rng.randint(2, length)
            start = rng.choice(degs[: length - ln + 1])
            idx = {}
            for t in range(ln):
                ranks[start + t] += 1
                idx[t] = ranks[start + t] - 1
            for t in range(ln - 1):
                diag[start + t].append((idx[t], idx[t + 1], ring.canon(chain[t])))
    objects = {n: r for n, r in ranks.items() if r}
    diffs = {}
    for n in degs[:-1]:
        m = RingMatrix.zero(ring, ranks[n + 1], ranks[n])
        for src, tgt, val in diag[n]:
            m.entries[tgt * ranks[n] + src] = val
        diffs[n] = m
    # conjugate by random degreewise automorphisms: d' = u_{n+1} d u_n^{-1}
    autos = {n: ref_random_unimodular(ring, ranks[n], rng) for n in degs}
    new_diffs = {}
    for n in degs[:-1]:
        new_diffs[n] = autos[n + 1][0] @ diffs[n] @ autos[n][1]
    return Complex(inst, objects, new_diffs)


def ref_random_graded_complex(
    inst: Graded,
    rng: random.Random,
    max_len: int = 3,
    max_rank: int = 2,
) -> Complex:
    """Sum of stalks, identity disks and eta-disks, conjugated degreewise."""
    length = rng.randint(0, max_len)
    if length == 0:
        return Complex(inst, {}, {})
    base = rng.randint(-1, 1)
    degs = list(range(base, base + length))
    summands: List[Tuple[Complex, None]] = []
    parts: List[Complex] = []
    pieces = rng.randint(1, 3)
    for _ in range(pieces):
        kind = rng.random()
        if kind < 0.4 or length == 1:
            n = rng.choice(degs)
            V = random_graded_object(rng, max_rank)
            parts.append(Complex(inst, {n: V}, {}))
        elif kind < 0.7:
            n = rng.choice(degs[:-1])
            V = random_graded_object(rng, max_rank)
            if V.is_zero():
                continue
            parts.append(Complex(inst, {n: V, n + 1: V}, {n: inst.id_mor(V)}))
        else:
            n = rng.choice(degs[:-1])  # eta-disk: eta_V: V(1) -> V
            V = random_graded_object(rng, max_rank)
            if V.is_zero():
                continue
            parts.append(
                Complex(inst, {n: inst.shift_obj(V, 1), n + 1: V}, {n: inst.eta(V)})
            )
    if not parts:
        return Complex(inst, {}, {})
    total_objects: Dict[int, GradedObject] = {}
    total_diffs: Dict[int, GradedMorphism] = {}
    all_degs = sorted({n for p in parts for n in p.objects})
    for n in all_degs:
        total_objects[n] = inst.dsum([p.obj(n) for p in parts])
    for n in all_degs:
        tgt = [p.obj(n + 1) for p in parts]
        src = [p.obj(n) for p in parts]
        grid = [
            [p.diff(n) if bi == bj else None for bj, _ in enumerate(parts)]
            for bi, p in enumerate(parts)
        ]
        total_diffs[n] = inst.block_mor(grid, tgt, src)
    c = Complex(inst, total_objects, total_diffs)
    autos = {n: random_graded_automorphism(inst, c.obj(n), rng) for n in c.objects}
    new_diffs = {}
    for n in list(c.diffs):
        u_next = autos.get(n + 1)
        u_this = autos.get(n)
        d = c.diff(n)
        if u_this is not None:
            d = inst.compose(d, u_this[1])
        if u_next is not None:
            d = inst.compose(u_next[0], d)
        new_diffs[n] = d
    return Complex(inst, c.objects, new_diffs)


def ref_random_complex(inst: BaseInstance, rng: random.Random, max_len: int = 4, max_rank: int = 2) -> Complex:
    core = inst.inner if isinstance(inst, EtaPower) else inst
    if isinstance(core, Graded):
        return ref_random_graded_complex(inst, rng, max_len=min(max_len, 3), max_rank=max_rank)
    return ref_random_scalar_complex(inst, rng, max_len=max_len, max_rank=max_rank)


def ref_random_chain_map(A: Complex, B: Complex, rng: random.Random) -> ChainMap:
    """A random chain map A -> B: small combination of a kernel basis of the
    chain-map constraint system."""
    inst = A.instance
    prob = LinearProblem(inst)
    degs = chain_map_problem(prob, "f", A, B)
    if not degs:
        return zero_chain_map(A, B)
    _, gens = prob.solve_full()
    if not gens:
        return zero_chain_map(A, B)
    picks = rng.sample(gens, min(len(gens), 3))
    total = None
    for g in picks:
        c = inst.ring.canon(rng.randint(-2, 2))
        if c == inst.ring.zero():
            continue
        scaled = {k: v if c == inst.ring.one() else ref_scale_mor(v, c) for k, v in g.items()}
        if total is None:
            total = scaled
        else:
            total = {k: inst.hom_add(total[k], scaled[k]) for k in total}
    if total is None:
        return zero_chain_map(A, B)
    return solution_chain_map(total, "f", degs, A, B)


def ref_scale_mor(f, c):
    if isinstance(f, RingMatrix):
        return f.scale(c)
    return GradedMorphism(f.source, f.target, {k: m.scale(c) for k, m in f.components.items()})


def ref_conjugate_pair(i, p, rng: random.Random):
    """Disguise a pair by a random degreewise automorphism of the middle."""
    inst = i.instance
    Y = i.target
    autos = {n: ref_random_automorphism(inst, Y.obj(n), rng) for n in Y.objects}
    new_diffs = {}
    for n in range(min(Y.objects, default=0), max(Y.objects, default=-1) + 1):
        d = Y.diff(n)
        if n in autos:
            d = inst.compose(d, autos[n][1])
        if n + 1 in autos:
            d = inst.compose(autos[n + 1][0], d)
        new_diffs[n] = d
    Y2 = Complex(inst, dict(Y.objects), new_diffs)
    i2 = ChainMap(i.source, Y2, {
        n: inst.compose(autos[n][0], i.component(n)) if n in autos else i.component(n)
        for n in set(i.components) | set(autos)
    })
    p2 = ChainMap(Y2, p.target, {
        n: inst.compose(p.component(n), autos[n][1]) if n in autos else p.component(n)
        for n in set(p.components) | set(autos)
    })
    return i2, p2


def ref_random_delta_map(X, Y, rng: random.Random):
    """A random strict column-wise chain map X -> Y (kernel-basis combination
    of the joint commutation system)."""
    ring = X.ring
    prob = MatrixProblem(ring)
    slots = [pos for pos in X.positions if Y.rank(*pos)]
    for (i, j) in slots:
        prob.add_unknown((i, j), Y.rank(i, j), X.rank(i, j))
    have = set(slots)
    for (i, j) in sorted(set(X.positions) | set(Y.positions)):
        for (ti, tj, xd, yd) in (
            (i + 1, j, X.d0(i, j), Y.d0(i, j)),
            (i, j + 1, X.d1(i, j), Y.d1(i, j)),
        ):
            er, ec = Y.rank(ti, tj), X.rank(i, j)
            if not er or not ec:
                continue
            terms = []
            if (i, j) in have:
                terms.append(((i, j), yd, None, 1))
            if (ti, tj) in have:
                terms.append(((ti, tj), None, xd, -1))
            if terms:
                prob.add_equation((er, ec), terms, None)
    if not slots:
        return DeltaMap(X, Y, {})
    _, gens = prob.solve_full()
    if not gens:
        return DeltaMap(X, Y, {})
    comps = None
    for g in rng.sample(gens, min(len(gens), 3)):
        c = ring.canon(rng.randint(-2, 2))
        if c == ring.zero():
            continue
        scaled = {k: m.scale(c) for k, m in g.items()}
        comps = scaled if comps is None else {k: comps[k] + scaled[k] for k in comps}
    return DeltaMap(X, Y, comps or {})


def ref_delta_column_piece(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A single column: any strict complex in the i direction, no j-map."""
    inst = ScalarEta(ring, ring.one())
    c = random_scalar_complex(inst, rng, max_len=3, max_rank=max_rank, min_deg=-1)
    j0 = rng.randint(-1, 1)
    ranks = {(i, j0): r for i, r in c.objects.items()}
    delta0 = {(i, j0): m for i, m in c.diffs.items()}
    return ranks, delta0, {}


def ref_delta_strip_piece(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A single row laid out along j: zero i-differential, strict j-map."""
    inst = ScalarEta(ring, ring.one())
    c = random_scalar_complex(inst, rng, max_len=3, max_rank=max_rank, min_deg=-1)
    i0 = rng.randint(-1, 1)
    ranks = {(i0, j): r for j, r in c.objects.items()}
    delta1 = {(i0, j): m for j, m in c.diffs.items()}
    return ranks, {}, delta1


def ref_delta_direct_sum(ring: CoeffRing, pieces):
    keys = sorted({pos for rk, _, _ in pieces for pos in rk})
    ranks = {pos: sum(rk.get(pos, 0) for rk, _, _ in pieces) for pos in keys}

    def assemble(which):
        out = {}
        for (i, j) in keys:
            ti, tj = (i + 1, j) if which == 0 else (i, j + 1)
            rows = [rk.get((ti, tj), 0) for rk, _, _ in pieces]
            cols = [rk.get((i, j), 0) for rk, _, _ in pieces]
            if not sum(rows) or not sum(cols):
                continue
            grid = [
                [pieces[bi][1 + which].get((i, j)) if bi == bj else None
                 for bj in range(len(pieces))]
                for bi in range(len(pieces))
            ]
            out[(i, j)] = RingMatrix.block(ring, grid, rows, cols)
        return out

    return DeltaComplex(ring, ranks, assemble(0), assemble(1))


def ref_delta_conjugate(x, rng: random.Random):
    """Disguise by degreewise unimodular changes of basis."""
    autos = {pos: random_unimodular(x.ring, r, rng) for pos, r in x.ranks.items()}

    def u(i, j):
        a = autos.get((i, j))
        return a[0] if a else RingMatrix.identity(x.ring, 0)

    def uinv(i, j):
        a = autos.get((i, j))
        return a[1] if a else RingMatrix.identity(x.ring, 0)

    d0 = {(i, j): u(i + 1, j) @ m @ uinv(i, j) for (i, j), m in x.delta0.items()}
    d1 = {(i, j): u(i, j + 1) @ m @ uinv(i, j) for (i, j), m in x.delta1.items()}
    return DeltaComplex(x.ring, x.ranks, d0, d1)


def ref_random_delta_complex(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A random completable instance: columns, strips and (over Z/4) the
    inductive template, summed block-diagonally and conjugated degreewise.

    Every piece satisfies delta0 . delta1 = 0 = delta1 . delta0, which the
    sum and the conjugation preserve, so the level-1 relation of the
    completion always holds."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.45:
            pieces.append(ref_delta_column_piece(ring, rng, max_rank))
        elif kind < 0.85 or not (ring.kind == "Zmod" and ring.modulus == 4):
            pieces.append(ref_delta_strip_piece(ring, rng, max_rank))
        else:
            t = inductive_delta_complex(rng)
            pieces.append((t.ranks, t.delta0, t.delta1))
    return ref_delta_conjugate(ref_delta_direct_sum(ring, pieces), rng)


def ref_random_strip_delta_complex(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """Zero i-differential only: the regime where every strict column-wise
    map yields a completable cone."""
    pieces = [
        ref_delta_strip_piece(ring, rng, max_rank) for _ in range(rng.randint(1, 2))
    ]
    return ref_delta_conjugate(ref_delta_direct_sum(ring, pieces), rng)


def ref_nilpotent_entries(ring: CoeffRing, length: int):
    """A chain z_1, ..., z_{length-1} with z_{k+1} z_k = 0, for rank-1 chains."""
    if length < 2:
        return []
    if ring.kind == "Zmod":
        m = ring.modulus
        # factor m = a*b nontrivially and alternate: b*a = 0 mod m
        for a in range(2, m):
            if m % a == 0:
                b = m // a
                out = []
                for k in range(length - 1):
                    out.append(a if k % 2 == 0 else b)
                return out
    return None
