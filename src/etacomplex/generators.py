"""Seeded random instance generation.

All generators take an explicit ``random.Random`` so runs are reproducible
from a seed (the PRNG is Python's Mersenne Twister, fixed across builds).

Every random complex follows one recipe, the one of the paper's examples:
draw elementary pieces (stalks, disks, nilpotent chains, eta-disks
V(1) -> V) as small complexes, sum them block-diagonally in draw order with
``complexes.block_sum`` (a DeltaComplex's pieces too, as graded complexes),
and conjugate the sum by a random automorphism u^n of each object, drawn in
degree order, so that d^n becomes u^{n+1} d^n (u^n)^{-1}.  Every output is
valid by construction.  ``conjugate_pair`` disguises a pair by the same
conjugation of its middle complex.

Random maps are kernel draws: a small combination of the kernel generators
that the solver returns for the map's constraint system.  A solver change
that keeps every verdict but returns another kernel basis therefore still
changes every instance drawn after such a map.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .base import BaseInstance, EtaPower, Graded, GradedMorphism, GradedObject, ScalarEta
from .complexes import (
    ChainMap,
    Complex,
    LinearProblem,
    _graded_right_inverse,
    _sum_products,
    apply_auto,
    block_sum,
    chain_map_problem,
    cone,
    solution_chain_map,
    zero_chain_map,
)
from .frobenius import StandardConflation
from .gsystems import (
    GA,
    DeltaComplex,
    DeltaMap,
    MatrixProblem,
    chain_map_to_gmorphism,
    complex_to_gsystem,
    graded_complex_instance,
    gsystem_to_complex,
)
from .matrix import RingMatrix
from .rings import CoeffRing, Zmod, _prime_powers


def _is_graded(inst: BaseInstance) -> bool:
    """True for a graded instance, also under ``EtaPower``."""
    return isinstance(inst.inner if isinstance(inst, EtaPower) else inst, Graded)


# -- invertible ingredients -------------------------------------------------


def random_unimodular(ring: CoeffRing, n: int, rng: random.Random, ops: int = 4) -> Tuple[RingMatrix, RingMatrix]:
    """A random invertible matrix together with its exact inverse."""
    u = RingMatrix.identity(ring, n)
    v = RingMatrix.identity(ring, n)  # v = u^{-1}, updated in lockstep
    ue, ve, q = u.entries, v.entries, ring.modulus
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = ring.canon(rng.choice([-2, -1, 1, 2]))
        # row_i += c * row_j on u  <->  col_j -= c * col_i on v
        for t in range(n):
            a, b = i * n + t, t * n + j
            ue[a] += c * ue[j * n + t]
            ve[b] -= c * ve[t * n + i]
            if q:
                ue[a] %= q
                ve[b] %= q
    if n and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        for t in range(n):
            ue[i * n + t], ue[j * n + t] = ue[j * n + t], ue[i * n + t]
        for t in range(n):
            ve[t * n + i], ve[t * n + j] = ve[t * n + j], ve[t * n + i]
    return u, v


def random_graded_automorphism(inst: Graded, X: GradedObject, rng: random.Random) -> Tuple[GradedMorphism, GradedMorphism]:
    """Random automorphism u of X with its inverse (u_0 unimodular, u_n free)."""
    ring = inst.ring
    u0: Dict[int, Tuple[RingMatrix, RingMatrix]] = {}
    for j, r in X.ranks.items():
        u0[j] = random_unimodular(ring, r, rng)
    comps = {(0, j): u0[j][0] for j in X.ranks}
    for (n, j) in inst._slots(X, X):
        if n >= 1 and rng.random() < 0.5:
            r, c = X.rank(j + n), X.rank(j)
            comps[(n, j)] = RingMatrix(
                ring, r, c, [rng.randint(-2, 2) for _ in range(r * c)]
            )
    u = GradedMorphism(X, X, comps)
    return u, _graded_right_inverse(u, {j: u0[j][1] for j in X.ranks})


def random_automorphism(inst: BaseInstance, X, rng: random.Random):
    if _is_graded(inst):
        return random_graded_automorphism(inst, X, rng)
    return random_unimodular(inst.ring, X, rng)


def _conjugate(c: Complex, rng: random.Random):
    """c disguised by a random automorphism u^n of each object, drawn in
    degree order: d^n becomes u^{n+1} d^n (u^n)^{-1}.  Returns the new
    complex and the pairs (u^n, (u^n)^{-1})."""
    inst = c.instance
    autos = {n: random_automorphism(inst, X, rng) for n, X in sorted(c.objects.items())}
    diffs = {
        n: inst.compose(autos[n + 1][0], inst.compose(d, autos[n][1]))
        for n, d in sorted(c.diffs.items())
    }
    return Complex(inst, c.objects, diffs), autos


# -- elementary complexes ---------------------------------------------------


def _nilpotent_entries(ring: CoeffRing, length: int) -> Optional[List]:
    """A chain z_1, ..., z_{length-1} with z_{k+1} z_k = 0, for rank-1 chains."""
    if length < 2:
        return []
    if ring.kind == "Zmod":
        m = ring.modulus
        # m = a*b with a its least prime factor, alternated: b*a = 0 mod m
        a = _prime_powers(m)[0][0]
        if a < m:
            return [a if k % 2 == 0 else m // a for k in range(length - 1)]
    return None


def random_scalar_complex(
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
    parts: List[Complex] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.45 or length == 1:
            n = rng.choice(degs)  # stalk
            parts.append(Complex(inst, {n: rng.randint(1, max_rank)}, {}))
        elif kind < 0.8:
            n = rng.choice(degs[:-1])  # disk: Id from n to n+1
            parts.append(Complex(inst, {n: 1, n + 1: 1}, {n: inst.id_mor(1)}))
        else:
            chain = _nilpotent_entries(ring, length)
            if not chain:
                parts.append(Complex(inst, {rng.choice(degs): 1}, {}))
                continue
            ln = rng.randint(2, length)
            start = rng.choice(degs[: length - ln + 1])
            parts.append(Complex(
                inst,
                {start + t: 1 for t in range(ln)},
                {start + t: RingMatrix(ring, 1, 1, [chain[t]]) for t in range(ln - 1)},
            ))
    return _conjugate(block_sum(inst, parts), rng)[0]


def random_graded_object(rng: random.Random, max_rank: int = 2) -> GradedObject:
    base = rng.randint(-1, 1)
    ranks = {}
    for j in range(base, base + 3):
        if rng.random() < 0.6:
            ranks[j] = rng.randint(1, max_rank)
    return GradedObject(ranks)


def random_graded_complex(
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
    parts: List[Complex] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4 or length == 1:
            n = rng.choice(degs)
            parts.append(Complex(inst, {n: random_graded_object(rng, max_rank)}, {}))
        elif kind < 0.7:
            n = rng.choice(degs[:-1])
            V = random_graded_object(rng, max_rank)
            parts.append(Complex(inst, {n: V, n + 1: V}, {n: inst.id_mor(V)}))
        else:
            n = rng.choice(degs[:-1])  # eta-disk: eta_V: V(1) -> V
            V = random_graded_object(rng, max_rank)
            parts.append(Complex(inst, {n: inst.shift_obj(V, 1), n + 1: V}, {n: inst.eta(V)}))
    return _conjugate(block_sum(inst, parts), rng)[0]


def random_complex(inst: BaseInstance, rng: random.Random, max_len: int = 4, max_rank: int = 2) -> Complex:
    if _is_graded(inst):
        return random_graded_complex(inst, rng, max_len=min(max_len, 3), max_rank=max_rank)
    return random_scalar_complex(inst, rng, max_len=max_len, max_rank=max_rank)


# -- random chain maps ------------------------------------------------------


def _kernel_draw(prob: LinearProblem, rng: random.Random) -> Optional[Dict]:
    """A random combination of the kernel generators of ``prob``: up to three
    of them, each times a coefficient in -2..2, zero coefficients skipped.
    None when nothing is drawn."""
    inst = prob.instance
    gens = prob.solve_full()[1] if prob.unknowns else []
    total = None
    for g in rng.sample(gens, min(len(gens), 3)):
        c = inst.ring.canon(rng.randint(-2, 2))
        if c == inst.ring.zero():
            continue
        scaled = {k: inst.hom_scale(v, c) for k, v in g.items()}
        total = scaled if total is None else {k: inst.hom_add(total[k], scaled[k]) for k in total}
    return total


def random_chain_map(A: Complex, B: Complex, rng: random.Random) -> ChainMap:
    """A random chain map A -> B: a kernel draw from the chain-map constraint
    system."""
    prob = LinearProblem(A.instance)
    degs = chain_map_problem(prob, "f", A, B)
    total = _kernel_draw(prob, rng)
    if total is None:
        return zero_chain_map(A, B)
    return solution_chain_map(total, "f", degs, A, B)


# -- eta-conflations --------------------------------------------------------


def random_std_conflation(inst: BaseInstance, rng: random.Random, max_len: int = 3, max_rank: int = 2):
    """A random normalized eta-conflation X -> cone(eta_X alpha) -> Z."""
    X = random_complex(inst, rng, max_len=max_len, max_rank=max_rank)
    W = random_complex(inst, rng, max_len=max_len, max_rank=max_rank)  # Z[-1]
    alpha = random_chain_map(W, apply_auto(X, 1), rng)
    return StandardConflation(alpha)


def random_split_pair(inst: BaseInstance, rng: random.Random, max_len: int = 3):
    """A random chainwise-split pair: the standard pair of cone(f) for a
    random chain map f (its invariant is f, usually NOT factoring through
    eta)."""
    X = random_complex(inst, rng, max_len=max_len)
    W = random_complex(inst, rng, max_len=max_len)
    f = random_chain_map(W, X, rng)  # W plays Z[-1]
    c, i, p = cone(f)
    return i, p


def conjugate_pair(i, p, rng: random.Random):
    """Disguise a pair by a random degreewise automorphism of the middle."""
    inst = i.instance
    Y2, autos = _conjugate(i.target, rng)
    i2 = ChainMap(i.source, Y2, {n: inst.compose(autos[n][0], m) for n, m in i.components.items()})
    p2 = ChainMap(Y2, p.target, {n: inst.compose(m, autos[n][1]) for n, m in p.components.items()})
    return i2, p2


# -- bigraded instances -----------------------------------------------------


def random_gsystem(ring: CoeffRing, rng: random.Random, max_len: int = 3, max_rank: int = 2):
    """A random valid system in the complex-of-graded-objects convention."""
    inst = graded_complex_instance(ring)
    return complex_to_gsystem(random_graded_complex(inst, rng, max_len=max_len, max_rank=max_rank))


def random_gmorphism(x, y, rng: random.Random):
    """A random morphism between two systems (via the chain-map solver)."""
    f = random_chain_map(gsystem_to_complex(x), gsystem_to_complex(y), rng)
    return chain_map_to_gmorphism(f)


def _delta_column_piece(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A single column: any strict complex in the i direction, no j-map."""
    inst = ScalarEta(ring, ring.one())
    c = random_scalar_complex(inst, rng, max_len=3, max_rank=max_rank, min_deg=-1)
    j0 = rng.randint(-1, 1)
    return DeltaComplex(
        ring, {(i, j0): r for i, r in c.objects.items()}, {(i, j0): m for i, m in c.diffs.items()}, {}
    )


def _delta_strip_piece(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A single row laid out along j: zero i-differential, strict j-map."""
    inst = ScalarEta(ring, ring.one())
    c = random_scalar_complex(inst, rng, max_len=3, max_rank=max_rank, min_deg=-1)
    i0 = rng.randint(-1, 1)
    return DeltaComplex(
        ring, {(i0, j): r for j, r in c.objects.items()}, {}, {(i0, j): m for j, m in c.diffs.items()}
    )


def inductive_delta_complex(rng: Optional[random.Random] = None):
    """A Z/4 instance whose completion genuinely needs a level-2 solve.

    Three columns of the two-term complex N = [[0,1],[0,0]]; the j-maps
    commute with N, compose to zero with it, and square to 2-torsion that
    is only null-homotopic.  Any completion must carry a nonzero level-2
    component (the column-square homotopy)."""
    ring = Zmod(4)
    c12 = rng.choice([1, 3]) if rng else 1
    e12 = rng.choice([1, 3]) if rng else 1
    N = RingMatrix.from_rows(ring, [[0, 1], [0, 0]])
    c = RingMatrix.from_rows(ring, [[2, c12], [0, 0]])
    e = RingMatrix.from_rows(ring, [[0, e12], [0, 2]])
    ranks = {(i, j): 2 for i in (0, 1) for j in (0, 1, 2)}
    delta0 = {(0, j): N for j in (0, 1, 2)}
    delta1 = {}
    for j in (0, 1):
        delta1[(0, j)] = c
        delta1[(1, j)] = e
    return DeltaComplex(ring, ranks, delta0, delta1)


def obstructed_delta_complex(ring: CoeffRing):
    """Two columns with commuting but non-orthogonal differentials.

    The identity j-map commutes with N strictly, yet N . Id is nonzero, so
    the signed level-1 relation of the completion fails (in any
    characteristic other than 2)."""
    N = RingMatrix.from_rows(ring, [[0, 1], [0, 0]])
    I = RingMatrix.identity(ring, 2)
    ranks = {(i, j): 2 for i in (0, 1) for j in (0, 1)}
    delta0 = {(0, j): N for j in (0, 1)}
    delta1 = {(0, 0): I, (1, 0): I}
    return DeltaComplex(ring, ranks, delta0, delta1)


def _delta_direct_sum(ring: CoeffRing, pieces: List[DeltaComplex]) -> DeltaComplex:
    """The block-diagonal sum of ``pieces`` in draw order."""
    return DeltaComplex._of(block_sum(graded_complex_instance(ring), [p.complex for p in pieces]), GA)


def _delta_conjugate(x: DeltaComplex, rng: random.Random) -> DeltaComplex:
    """Disguise by degreewise unimodular changes of basis, drawn in (i, j) order."""
    autos = {pos: random_unimodular(x.ring, r, rng) for pos, r in x.ranks.items()}
    d0 = {(i, j): autos[(i + 1, j)][0] @ m @ autos[(i, j)][1] for (i, j), m in x.delta0.items()}
    d1 = {(i, j): autos[(i, j + 1)][0] @ m @ autos[(i, j)][1] for (i, j), m in x.delta1.items()}
    return DeltaComplex(x.ring, x.ranks, d0, d1)


def random_delta_complex(ring: CoeffRing, rng: random.Random, max_rank: int = 2):
    """A random instance that passes ``validate_delta``: columns, strips and
    (over Z/4) the inductive template, summed block-diagonally and
    conjugated degreewise.

    Every piece satisfies delta0 . delta1 = 0 = delta1 . delta0, which the
    sum and the conjugation preserve, so the level-1 relation of the
    completion always holds.  A higher level need not: over Z/4,
    ``random.Random(244)`` and ``random.Random(1066)`` give inputs that
    ``theta_extend`` obstructs at level 3, since the solution chosen at
    level 2 fixes level 3's rhs."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.45:
            pieces.append(_delta_column_piece(ring, rng, max_rank))
        elif kind < 0.85 or not (ring.kind == "Zmod" and ring.modulus == 4):
            pieces.append(_delta_strip_piece(ring, rng, max_rank))
        else:
            pieces.append(inductive_delta_complex(rng))
    return _delta_conjugate(_delta_direct_sum(ring, pieces), rng)


def random_strip_delta_complex(ring: CoeffRing, rng: random.Random):
    """Zero i-differential only: the regime where every strict column-wise
    map yields a completable cone."""
    pieces = [
        _delta_strip_piece(ring, rng) for _ in range(rng.randint(1, 2))
    ]
    return _delta_conjugate(_delta_direct_sum(ring, pieces), rng)


def random_delta_map(X, Y, rng: random.Random):
    """A random strict column-wise chain map X -> Y: a kernel draw from the
    joint commutation system."""
    prob = MatrixProblem(X.ring)
    for (i, j) in X.positions:
        if Y.rank(i, j):
            prob.add_unknown((i, j), Y.rank(i, j), X.rank(i, j))
    for (i, j) in sorted(set(X.positions) | set(Y.positions)):
        for (ti, tj, xd, yd) in (
            (i + 1, j, X.d0(i, j), Y.d0(i, j)),
            (i, j + 1, X.d1(i, j), Y.d1(i, j)),
        ):
            er, ec = Y.rank(ti, tj), X.rank(i, j)
            if not er or not ec:
                continue
            terms = []
            if (i, j) in prob.unknowns:
                terms.append(((i, j), yd, None, 1))
            if (ti, tj) in prob.unknowns:
                terms.append(((ti, tj), None, xd, -1))
            if terms:
                prob.add_equation((er, ec), terms, None)
    return DeltaMap(X, Y, _kernel_draw(prob, rng) or {})


def columnwise_null_delta_map(X, Y, rng: random.Random):
    """alpha = sigma . delta1 + delta1 . sigma for random degreewise sigma.

    Requires the zero-i-differential regime (strip complexes) so that the
    result is a strict column-wise map; its completion is always
    eta-null-homotopic."""
    if X.delta0 or Y.delta0:
        raise ValueError("columnwise_null_delta_map needs zero i-differentials")
    ring = X.ring
    sigma = {}
    for (i, j) in X.positions:
        r, c = Y.rank(i, j - 1), X.rank(i, j)
        if r and c:
            sigma[(i, j)] = RingMatrix(
                ring, r, c, [rng.randint(-2, 2) for _ in range(r * c)]
            )
    d1x, d1y = X.delta1, Y.delta1
    comps = {}
    for (i, j) in X.positions:
        if not Y.rank(i, j):
            continue
        m = _sum_products(((sigma.get((i, j + 1)), d1x.get((i, j))), (d1y.get((i, j - 1)), sigma.get((i, j)))))
        if m is not None and not m.is_zero():
            comps[(i, j)] = m
    return DeltaMap(X, Y, comps)
