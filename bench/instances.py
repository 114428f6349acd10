"""Sized, seeded benchmark instances whose verdicts are known by construction.

Every complex is a direct sum of elementary pieces (stalks, disks, torsion
disks, nilpotent chains over Z/m, eta-disks over the graded instance) with a
fixed degree range and a fixed rank per degree, conjugated degreewise by
random automorphisms from ``etacomplex.generators``.  Chain maps are built
from the pieces directly (scalar identities plus null-homotopic parts
s d + d s), never through a kernel solve, so the expected verdict of every
question follows from the construction:

* ``eta-homotopic``: g = f - (s d + d s) is always eta-homotopic to f.
  Adding the identity of a *witness stalk* (a stalk summand present in both
  complexes) makes the answer NONE whenever eta times that identity is
  nonzero, because stalk summands carry no differential for a homotopy to
  use.
* ``is-eta-conflation``: the cone of f = eta . alpha + (d t + t d) is an
  eta-conflation; adding the identity between witness stalks makes f
  induce the identity on a free homology summand, which no map through a
  non-invertible eta can reach (r alpha = 1 has no solution when r is not a
  unit; on graded objects eta . alpha has no level-0 component).

Bigraded inputs are sums of strips (strict complexes along j) and columns
(strict complexes along i), optionally with the obstructed input of
``etacomplex.generators``, disguised by a change of basis at every position.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

from etacomplex.base import Graded, GradedMorphism, GradedObject, ScalarEta
from etacomplex.complexes import ChainMap, Complex, apply_auto, cone
from etacomplex.generators import (
    conjugate_pair,
    obstructed_delta_complex,
    random_graded_automorphism,
    random_unimodular,
)
from etacomplex.gsystems import DeltaComplex, DeltaMap
from etacomplex.matrix import RingMatrix
from etacomplex.rings import CoeffRing

# Non-unit differential values for torsion disks; 0 means "no torsion disk".
_TORSION = {"Z": 2, "Zmod": 2, "GF": 0, "Q": 0}


def _small(ring: CoeffRing, rng: random.Random):
    return ring.canon(rng.choice((-2, -1, 1, 2)))


def _rand_mor(inst, X, Y, rng: random.Random):
    """A random morphism X -> Y with about half its coordinates nonzero."""
    ring = inst.ring
    vec = [
        _small(ring, rng) if rng.random() < 0.5 else ring.zero()
        for _ in range(inst.hom_dim(X, Y))
    ]
    return inst.vec_to_mor(vec, X, Y)


def _scale(inst, f, c):
    if isinstance(f, RingMatrix):
        return f.scale(c)
    return GradedMorphism(f.source, f.target, {k: m.scale(c) for k, m in f.components.items()})


# -- elementary pieces -------------------------------------------------------


def _scalar_pieces(inst: ScalarEta, degs: List[int], rank: int) -> List[Complex]:
    """Rank-1 pieces filling `rank` slots per degree in a fixed pattern, so
    every instance of one shape has the same homology; the first piece is
    the witness stalk."""
    ring = inst.ring
    free = {n: rank for n in degs}
    wit = degs[len(degs) // 2]
    pieces = [Complex(inst, {wit: 1}, {})]
    free[wit] -= 1
    tor = _TORSION[ring.kind]
    nil = None
    if ring.kind == "Zmod":
        a = next(x for x in range(2, ring.modulus + 1) if ring.modulus % x == 0)
        if a < ring.modulus:
            nil = (a, ring.modulus // a)
    kinds = itertools.cycle(("disk", "torsion", "chain", "stalk"))
    for n in degs:
        while free[n]:
            kind = next(kinds)
            if kind == "stalk" or not free.get(n + 1):
                vals = []
            elif kind == "chain" and nil:
                length = 2
                while free.get(n + length) and length < 3:
                    length += 1
                vals = [nil[t % 2] for t in range(length - 1)]
            else:
                vals = [tor if kind == "torsion" and tor else 1]
            objects = {n + t: 1 for t in range(len(vals) + 1)}
            diffs = {n + t: RingMatrix(ring, 1, 1, [v]) for t, v in enumerate(vals)}
            pieces.append(Complex(inst, objects, diffs))
            for m in objects:
                free[m] -= 1
    return pieces


def _graded_pieces(inst: Graded, degs: List[int], rank: int) -> List[Complex]:
    """Rank-1 graded pieces (identity disks, eta-disks, stalks) in a fixed
    pattern, gradings cycling through -1, 0, 1; the first is the witness
    stalk."""
    free = {n: rank for n in degs}
    grading = itertools.cycle((-1, 0, 1))
    wit = degs[len(degs) // 2]
    pieces = [Complex(inst, {wit: GradedObject({next(grading): 1})}, {})]
    free[wit] -= 1
    kinds = itertools.cycle(("disk", "eta", "stalk"))
    for n in degs:
        while free[n]:
            kind = next(kinds)
            v = GradedObject({next(grading): 1})
            if kind == "stalk" or not free.get(n + 1):
                pieces.append(Complex(inst, {n: v}, {}))
                free[n] -= 1
                continue
            if kind == "disk":
                pieces.append(Complex(inst, {n: v, n + 1: v}, {n: inst.id_mor(v)}))
            else:
                pieces.append(Complex(inst, {n: inst.shift_obj(v, 1), n + 1: v}, {n: inst.eta(v)}))
            free[n] -= 1
            free[n + 1] -= 1
    return pieces


def _direct_sum(inst, parts: List[Complex]) -> Complex:
    degs = sorted({n for p in parts for n in p.objects})
    objects = {n: inst.dsum([p.obj(n) for p in parts]) for n in degs}
    diffs = {}
    for n in degs:
        grid = [[p.diff(n) if a == b else None for b in range(len(parts))] for a, p in enumerate(parts)]
        diffs[n] = inst.block_mor(grid, [p.obj(n + 1) for p in parts], [p.obj(n) for p in parts])
    return Complex(inst, objects, diffs)


def _block_map(inst, src_parts, tgt_parts, blocks: Dict[int, object], src: Complex, tgt: Complex) -> ChainMap:
    """Chain map between direct sums that is `blocks[k]` (a chain map of
    parts) from source part k to target part k, zero elsewhere."""
    comps = {}
    for n in sorted(set(src.objects) | set(tgt.objects)):
        grid = [
            [blocks[b].component(n) if a == b and b in blocks else None for b in range(len(src_parts))]
            for a in range(len(tgt_parts))
        ]
        comps[n] = inst.block_mor(grid, [p.obj(n) for p in tgt_parts], [p.obj(n) for p in src_parts])
    return ChainMap(src, tgt, comps)


def _null_map(inst, X: Complex, Y: Complex, rng: random.Random) -> ChainMap:
    """s d + d s for a random family s^n: X^n -> Y^{n-1}."""
    s = {n: _rand_mor(inst, X.obj(n), Y.obj(n - 1), rng) for n in X.objects}

    def sv(n):
        return s.get(n) or inst.zero_mor(X.obj(n), Y.obj(n - 1))

    comps = {}
    for n in sorted(set(X.objects) | set(Y.objects)):
        comps[n] = inst.hom_add(
            inst.compose(sv(n + 1), X.diff(n)), inst.compose(Y.diff(n - 1), sv(n))
        )
    return ChainMap(X, Y, comps)


def _add(inst, f: ChainMap, g: ChainMap) -> ChainMap:
    keys = set(f.components) | set(g.components)
    return ChainMap(f.source, f.target, {n: inst.hom_add(f.component(n), g.component(n)) for n in keys})


def _autos(inst, c: Complex, rng: random.Random):
    if isinstance(inst, Graded):
        return {n: random_graded_automorphism(inst, X, rng) for n, X in c.objects.items()}
    return {n: random_unimodular(inst.ring, X, rng, ops=2 * X) for n, X in c.objects.items()}


def _conj_complex(inst, c: Complex, autos) -> Complex:
    diffs = {}
    for n, d in c.diffs.items():
        diffs[n] = inst.compose(autos[n + 1][0], inst.compose(d, autos[n][1]))
    return Complex(inst, c.objects, diffs)


def _conj_map(inst, f: ChainMap, src: Complex, tgt: Complex, a_src, a_tgt) -> ChainMap:
    comps = {
        n: inst.compose(a_tgt[n][0], inst.compose(m, a_src[n][1]))
        for n, m in f.components.items()
    }
    return ChainMap(src, tgt, comps)


# -- complexes and the two recognizer questions ---------------------------


def instance_for(ring: CoeffRing, graded: bool, r) -> object:
    inner = ScalarEta(ring, ring.canon(r))
    return Graded(inner) if graded else inner


def _pieces(inst, degs, rank):
    if isinstance(inst, Graded):
        return _graded_pieces(inst, degs, rank)
    return _scalar_pieces(inst, degs, rank)


def homotopy_pair(inst, degrees: int, rank: int, some: bool, rng: random.Random) -> Tuple[ChainMap, ChainMap]:
    """(f, g): X -> Y, eta-homotopic iff `some` (see the module docstring)."""
    degs = list(range(degrees))
    parts = _pieces(inst, degs, rank)
    N = _direct_sum(inst, parts)
    ring = inst.ring
    c = ring.canon(rng.choice((1, 2, 3)))
    scal = _block_map(inst, parts, parts, {k: _scaled_id(inst, p, c) for k, p in enumerate(parts)}, N, N)
    f = _add(inst, scal, _null_map(inst, N, N, rng))
    g = _add(inst, f, _neg(inst, _null_map(inst, N, N, rng)))
    if not some:
        g = _add(inst, g, _neg(inst, _block_map(inst, parts, parts, {0: _scaled_id(inst, parts[0], 1)}, N, N)))
    aX, aY = _autos(inst, N, rng), _autos(inst, N, rng)
    X, Y = _conj_complex(inst, N, aX), _conj_complex(inst, N, aY)
    return _conj_map(inst, f, X, Y, aX, aY), _conj_map(inst, g, X, Y, aX, aY)


def conflation_pair(inst, degrees: int, rank: int, some: bool, rng: random.Random) -> Tuple[ChainMap, ChainMap]:
    """A disguised cone pair X -> cone(f) -> W[1], an eta-conflation iff
    `some` (see the module docstring)."""
    degs = list(range(degrees))
    xparts = _pieces(inst, degs, rank)
    wparts = [xparts[0]] + [apply_auto(p, 1) for p in xparts[1:]]
    X, W = _direct_sum(inst, xparts), _direct_sum(inst, wparts)
    X1parts = [apply_auto(p, 1) for p in xparts]
    X1 = apply_auto(X, 1)
    c = inst.ring.canon(rng.choice((1, 2, 3)))
    # alpha: W -> X(1) is c.Id between matching pieces (not the witness) plus
    # a null-homotopic part
    ident = {k: _scaled_id(inst, wparts[k], c) for k in range(1, len(xparts))}
    alpha = _add(inst, _block_map(inst, wparts, X1parts, ident, W, X1), _null_map(inst, W, X1, rng))
    eta = ChainMap(X1, X, {n: inst.eta(Xn) for n, Xn in X.objects.items()})
    f = _compose(inst, eta, alpha)
    f = _add(inst, f, _null_map(inst, W, X, rng))
    if not some:
        f = _add(inst, f, _block_map(inst, wparts, xparts, {0: _scaled_id(inst, xparts[0], 1)}, W, X))
    aW, aX = _autos(inst, W, rng), _autos(inst, X, rng)
    Wc, Xc = _conj_complex(inst, W, aW), _conj_complex(inst, X, aX)
    fc = _conj_map(inst, f, Wc, Xc, aW, aX)
    _, i, p = cone(fc)
    return conjugate_pair(i, p, rng)


def _scaled_id(inst, part: Complex, c) -> ChainMap:
    return ChainMap(part, part, {n: _scale(inst, inst.id_mor(Xn), c) for n, Xn in part.objects.items()})


def _neg(inst, f: ChainMap) -> ChainMap:
    return ChainMap(f.source, f.target, {n: inst.hom_negate(m) for n, m in f.components.items()})


def _compose(inst, g: ChainMap, f: ChainMap) -> ChainMap:
    keys = set(f.components) | set(g.components)
    return ChainMap(f.source, g.target, {n: inst.compose(g.component(n), f.component(n)) for n in keys})


# -- wide bigraded inputs ---------------------------------------------------


def _line_piece(ring: CoeffRing, length: int, rank: int):
    """A strict complex of `length` positions, `rank` per position, as
    (ranks by offset, diffs by offset)."""
    inst = ScalarEta(ring, ring.one())
    c = _direct_sum(inst, _scalar_pieces(inst, list(range(length)), rank))
    return c.objects, c.diffs


def strip(ring: CoeffRing, i0: int, j0: int, width: int, rank: int):
    """Zero i-differential; a strict complex along j at row i0."""
    objs, diffs = _line_piece(ring, width, rank)
    return (
        {(i0, j0 + t): r for t, r in objs.items()},
        {},
        {(i0, j0 + t): m for t, m in diffs.items()},
    )


def column(ring: CoeffRing, i0: int, j0: int, height: int, rank: int):
    """No j-map; a strict complex along i in column j0."""
    objs, diffs = _line_piece(ring, height, rank)
    return (
        {(i0 + t, j0): r for t, r in objs.items()},
        {(i0 + t, j0): m for t, m in diffs.items()},
        {},
    )


def delta_sum(ring: CoeffRing, pieces) -> DeltaComplex:
    """Block-diagonal sum of (ranks, delta0, delta1) pieces."""
    keys = sorted({pos for rk, _, _ in pieces for pos in rk})
    ranks = {pos: sum(rk.get(pos, 0) for rk, _, _ in pieces) for pos in keys}

    def assemble(which):
        out = {}
        for (i, j) in keys:
            tgt = (i + 1, j) if which == 1 else (i, j + 1)
            rows = [p[0].get(tgt, 0) for p in pieces]
            cols = [p[0].get((i, j), 0) for p in pieces]
            if not sum(rows) or not sum(cols):
                continue
            grid = [[p[which].get((i, j)) if a == b else None for b in range(len(pieces))] for a, p in enumerate(pieces)]
            out[(i, j)] = RingMatrix.block(ring, grid, rows, cols)
        return out

    return DeltaComplex(ring, ranks, assemble(1), assemble(2))


def delta_autos(x: DeltaComplex, rng: random.Random):
    return {pos: random_unimodular(x.ring, r, rng, ops=2 * r) for pos, r in x.ranks.items()}


def delta_conjugate(x: DeltaComplex, autos) -> DeltaComplex:
    d0 = {(i, j): autos[(i + 1, j)][0] @ m @ autos[(i, j)][1] for (i, j), m in x.delta0.items()}
    d1 = {(i, j): autos[(i, j + 1)][0] @ m @ autos[(i, j)][1] for (i, j), m in x.delta1.items()}
    return DeltaComplex(x.ring, x.ranks, d0, d1)


def strips(ring: CoeffRing, rows: int, width: int, rank: int):
    return [strip(ring, i0, 0, width, rank) for i0 in range(rows)]


def wide_delta(ring: CoeffRing, rows: int, width: int, rank: int, rng: random.Random,
               obstructed: bool = False) -> DeltaComplex:
    """`rows` strips of `width` + 1 columns plus three short columns,
    optionally with the obstructed input summed in, disguised by a change of
    basis at every position."""
    pieces = strips(ring, rows, width, rank)
    for j0 in rng.sample(range(width + 1), 3):
        pieces.append(column(ring, -1, j0, 3, rank))
    if obstructed:
        t = obstructed_delta_complex(ring)
        pieces.append((t.ranks, t.delta0, t.delta1))
    x = delta_sum(ring, pieces)
    return delta_conjugate(x, delta_autos(x, rng))


def strip_map(ring: CoeffRing, rows: int, width: int, rank: int, rng: random.Random) -> DeltaMap:
    """c.Id + (sigma delta1 + delta1 sigma) between two disguised copies of
    one sum of strips: a strict column-wise map."""
    n = delta_sum(ring, strips(ring, rows, width, rank))
    c = ring.canon(rng.choice((1, 2, 3)))
    line = ScalarEta(ring, ring.one())
    sigma = {(i, j): _rand_mor(line, r, n.rank(i, j - 1), rng) for (i, j), r in n.ranks.items()}

    def sg(i, j):  # sigma^{ij}: X^{ij} -> Y^{i,j-1}
        return sigma.get((i, j)) or RingMatrix.zero(ring, n.rank(i, j - 1), n.rank(i, j))

    comps = {
        (i, j): RingMatrix.scalar(ring, r, c) + sg(i, j + 1) @ n.d1(i, j) + n.d1(i, j - 1) @ sg(i, j)
        for (i, j), r in n.ranks.items()
    }
    aX, aY = delta_autos(n, rng), delta_autos(n, rng)
    comps = {pos: aY[pos][0] @ m @ aX[pos][1] for pos, m in comps.items()}
    return DeltaMap(delta_conjugate(n, aX), delta_conjugate(n, aY), comps)
