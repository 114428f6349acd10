"""Bounded complexes over a base-category instance.

Complexes and chain maps are finite maps degree -> base object / morphism.
Everything downstream (homotopies, factorizations, lifts, and the bigraded
completions in ``gsystems``) is decided by posing a linear system over the
coefficient ring through the uniform hom-coordinate API of the base
instance; ``LinearProblem`` is that bridge and the only assembler of such
systems.  It writes each term sign * left . u . right as the Kronecker
blocks that the instance's ``hom_blocks`` returns, straight into the sparse
rows that the solver takes.

Chain maps, homotopies and the factorizations in ``frobenius`` pose their
systems through two writers: ``add_family`` registers a family
u^n: A^n -> B^{n+k}, and ``family_terms`` writes its terms
u^{n+1} d_A^n +- d_B^{n+k} u^n.  The eta-twist of a homotopy is the shifted
complex X(1) = ``apply_auto(X, 1)``: its unknowns start there, and its left
side is the chain map (f - g) eta_X: X(1) -> Y.

Direct sums and cones follow one recipe, written once here: ``block_sum``
(block-diagonal sums of complexes, the generators' draws among them),
``block_diag`` (diagonal maps between sums), ``_summand_inj`` and
``_summand_proj`` (a summand's identity-block inclusion and projection) and
``cone_complex``, the one mapping cone, which every conflation middle,
cone(eta_V) and axiom quotient in ``frobenius`` is.

A complex or chain map stores no zero morphism, and absent means zero: the
readers here (the validators, composition and sums of chain maps, homotopy
residuals, the family writers and the splitting) skip a product with an
absent factor rather than build a zero to multiply by.  Only the public
accessors ``Complex.diff`` and ``ChainMap.component`` build zeros.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .base import BaseInstance, Graded, GradedMorphism, GradedQuotient, ScalarEta
from .linalg import _solve

# Mutation knob (see the suite's sensitivity property): the sign on the
# shifted differential inside a mapping cone.  Correct value: -1.
_CONE_SIGN = -1


class PostconditionError(AssertionError):
    """A construction's result failed its own re-validation."""


def verify(ok: bool, what: str) -> None:
    """Raise ``PostconditionError(what)`` unless ok; runs under ``python -O`` too."""
    if not ok:
        raise PostconditionError(what)


class Complex:
    """Bounded complex: objects X^n and differentials d^n: X^n -> X^{n+1}."""

    __slots__ = ("instance", "objects", "diffs")

    def __init__(self, instance: BaseInstance, objects: Dict[int, object], diffs: Dict[int, object]):
        self.instance = instance
        self.objects = {
            int(n): X for n, X in objects.items() if not instance.obj_is_zero(X)
        }
        self.diffs = {
            int(n): d for n, d in diffs.items() if not instance.mor_is_zero(d)
        }

    def obj(self, n: int):
        X = self.objects.get(n)
        return self.instance.zero_obj() if X is None else X

    def diff(self, n: int):
        d = self.diffs.get(n)
        if d is None:
            return self.instance.zero_mor(self.obj(n), self.obj(n + 1))
        return d

    @property
    def support(self) -> List[int]:
        return sorted(self.objects)

    def is_zero(self) -> bool:
        return not self.objects

    def degree_range(self) -> List[int]:
        if not self.objects:
            return []
        lo, hi = min(self.objects), max(self.objects)
        return list(range(lo, hi + 1))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Complex)
            and self.instance == other.instance
            and self.objects == other.objects
            and set(self.diffs) == set(other.diffs)
            and all(self.instance.mor_eq(self.diffs[n], other.diffs[n]) for n in self.diffs)
        )

    def __repr__(self):
        return f"Complex(support={self.support})"


class ChainMap:
    """Chain map f: X -> Y with components f^n: X^n -> Y^n."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Complex, target: Complex, components: Dict[int, object]):
        if source.instance != target.instance:
            raise ValueError("instance mismatch")
        inst = source.instance
        self.source = source
        self.target = target
        self.components = {
            int(n): f for n, f in components.items() if not inst.mor_is_zero(f)
        }

    @property
    def instance(self) -> BaseInstance:
        return self.source.instance

    def component(self, n: int):
        f = self.components.get(n)
        if f is None:
            return self.instance.zero_mor(self.source.obj(n), self.target.obj(n))
        return f

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and set(self.components) == set(other.components)
            and all(
                self.instance.mor_eq(self.components[n], other.components[n])
                for n in self.components
            )
        )

    def __repr__(self):
        return f"ChainMap(degrees={sorted(self.components)})"


# -- morphisms that may be absent (None for zero) ---------------------------


def _compose(inst: BaseInstance, g, f):
    """g after f; None where either factor is None."""
    return None if g is None or f is None else inst.compose(g, f)


def _add(inst: BaseInstance, f, g):
    """f + g, either of them None for zero."""
    return g if f is None else f if g is None else inst.hom_add(f, g)


def _sub(inst: BaseInstance, f, g):
    """f - g, either of them None for zero."""
    return f if g is None else _add(inst, f, inst.hom_negate(g))


def _is_zero(inst: BaseInstance, f) -> bool:
    return f is None or inst.mor_is_zero(f)


def _mor_eq(inst: BaseInstance, f, g) -> bool:
    """f = g, either of them None for zero."""
    if f is None or g is None:
        return _is_zero(inst, f) and _is_zero(inst, g)
    return inst.mor_eq(f, g)


# -- basic constructions ----------------------------------------------------


def validate_complex(c: Complex) -> bool:
    inst = c.instance
    diffs = c.diffs
    for n, d in diffs.items():
        if not inst.validate_mor(d, c.obj(n), c.obj(n + 1)):
            return False
    # d^{n+1} d^n = 0 holds unless both are stored
    return all(_is_zero(inst, _compose(inst, diffs.get(n + 1), d)) for n, d in diffs.items())


def validate_chain_map(f: ChainMap) -> bool:
    inst = f.instance
    X, Y = f.source, f.target
    fs, dx, dy = f.components, X.diffs, Y.diffs
    for n, m in fs.items():
        if not inst.validate_mor(m, X.obj(n), Y.obj(n)):
            return False
    # f^{n+1} d_X^n = d_Y^n f^n holds (0 = 0) unless d_X^n or f^n is stored
    return all(_mor_eq(inst, _compose(inst, fs.get(n + 1), dx.get(n)),
                       _compose(inst, dy.get(n), fs.get(n)))
               for n in set(dx) | set(fs))


def id_chain_map(c: Complex) -> ChainMap:
    inst = c.instance
    return ChainMap(c, c, {n: inst.id_mor(X) for n, X in c.objects.items()})


def zero_chain_map(src: Complex, tgt: Complex) -> ChainMap:
    return ChainMap(src, tgt, {})


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if f.target != g.source:
        raise ValueError("chain maps not composable")
    inst = f.instance
    gs = g.components
    # a degree where either map is absent composes to zero
    comps = {n: inst.compose(gs[n], m) for n, m in f.components.items() if n in gs}
    return ChainMap(f.source, g.target, comps)


def add_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise ValueError("endpoint mismatch")
    inst = f.instance
    comps = dict(f.components)
    for n, m in g.components.items():
        comps[n] = inst.hom_add(comps[n], m) if n in comps else m
    return ChainMap(f.source, f.target, comps)


def negate_chain_map(f: ChainMap) -> ChainMap:
    inst = f.instance
    return ChainMap(f.source, f.target, {n: inst.hom_negate(m) for n, m in f.components.items()})


def sub_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    return add_chain_maps(f, negate_chain_map(g))


def shift_complex(c: Complex, k: int) -> Complex:
    """[k]: (X[k])^n = X^{n+k}, d_{X[k]}^n = (-1)^k d_X^{n+k}."""
    inst = c.instance
    objects = {n - k: X for n, X in c.objects.items()}
    if k % 2 == 0:
        diffs = {n - k: d for n, d in c.diffs.items()}
    else:
        diffs = {n - k: inst.hom_negate(d) for n, d in c.diffs.items()}
    return Complex(inst, objects, diffs)


def shift_chain_map(f: ChainMap, k: int) -> ChainMap:
    return ChainMap(
        shift_complex(f.source, k),
        shift_complex(f.target, k),
        {n - k: m for n, m in f.components.items()},
    )


def apply_auto(c: Complex, k: int) -> Complex:
    """The functor (k) applied degreewise."""
    inst = c.instance
    return Complex(
        inst,
        {n: inst.shift_obj(X, k) for n, X in c.objects.items()},
        {n: inst.shift_mor(d, k) for n, d in c.diffs.items()},
    )


def apply_auto_map(f: ChainMap, k: int) -> ChainMap:
    inst = f.instance
    return ChainMap(
        apply_auto(f.source, k),
        apply_auto(f.target, k),
        {n: inst.shift_mor(m, k) for n, m in f.components.items()},
    )


def eta_chain_map(c: Complex) -> ChainMap:
    """eta as a chain map X(1) -> X (naturality makes it commute with d)."""
    inst = c.instance
    return ChainMap(
        apply_auto(c, 1), c, {n: inst.eta(X) for n, X in c.objects.items()}
    )


def _times_eta(inst: BaseInstance, f, X, before: bool):
    """f . eta_X for f: X -> Y when before, else eta_X . f for f: W -> X(1),
    with no product by eta's identity blocks: c f over ``ScalarEta``, and
    over ``Graded`` f moved up one level."""
    if type(inst) is ScalarEta:
        return f.scale(inst.r)
    if type(inst) is Graded:
        if before:  # (f eta)_{n+1}^{j-1} = f_n^j
            return GradedMorphism._trusted(inst.shift_obj(X, 1), f.target,
                                           {(n + 1, j - 1): m for (n, j), m in f.components.items()})
        return GradedMorphism._trusted(f.source, X, {(n + 1, j): m for (n, j), m in f.components.items()})
    return inst.compose(f, inst.eta(X)) if before else inst.compose(inst.eta(X), f)


def eta_before(f: ChainMap) -> ChainMap:
    """f . eta_X: X(1) -> Y for f: X -> Y, the composite with
    ``eta_chain_map(X)`` formed without eta's identity products."""
    inst, X = f.instance, f.source
    return ChainMap(apply_auto(X, 1), f.target,
                    {n: _times_eta(inst, m, X.obj(n), True) for n, m in f.components.items()})


def eta_after(X: Complex, f: ChainMap) -> ChainMap:
    """eta_X . f: W -> X for f: W -> X(1), the composite with
    ``eta_chain_map(X)`` formed without eta's identity products."""
    inst = X.instance
    return ChainMap(f.source, X, {n: _times_eta(inst, m, X.obj(n), False) for n, m in f.components.items()})


# -- direct sums and mapping cones: the one recipe --------------------------


def block_diag(inst: BaseInstance, blocks: Sequence, tgt_objs: Sequence, src_objs: Sequence):
    """The diagonal morphism dsum(src_objs) -> dsum(tgt_objs) with blocks[k]:
    src_objs[k] -> tgt_objs[k] on the diagonal (None for zero) and zero off it."""
    return inst.block_mor(
        [[m if a == b else None for b in range(len(blocks))] for a, m in enumerate(blocks)],
        tgt_objs, src_objs,
    )


def block_sum(inst: BaseInstance, parts: Sequence[Complex]) -> Complex:
    """The block-diagonal sum of the complexes ``parts``, in their order."""
    degs = sorted({n for p in parts for n in p.objects})
    objects = {n: inst.dsum([p.obj(n) for p in parts]) for n in degs}
    diffs = {
        n: block_diag(inst, [p.diffs.get(n) for p in parts],
                      [p.obj(n + 1) for p in parts], [p.obj(n) for p in parts])
        for n in degs
    }
    return Complex(inst, objects, diffs)


def _summand_inj(inst: BaseInstance, objs: Sequence, k: int):
    """The inclusion objs[k] -> dsum(objs) of the k-th summand."""
    return inst.block_mor([[inst.id_mor(X) if a == k else None] for a, X in enumerate(objs)], objs, [objs[k]])


def _summand_proj(inst: BaseInstance, objs: Sequence, k: int):
    """The projection dsum(objs) -> objs[k] onto the k-th summand."""
    return inst.block_mor([[inst.id_mor(X) if b == k else None for b, X in enumerate(objs)]], [objs[k]], objs)


def dsum_complex(a: Complex, b: Complex) -> Tuple[Complex, ChainMap, ChainMap, ChainMap, ChainMap]:
    """a (+) b with the four structural maps (inj_a, inj_b, proj_a, proj_b)."""
    inst = a.instance
    s = block_sum(inst, [a, b])

    def structural(src, tgt, piece, k):
        return ChainMap(src, tgt, {n: piece(inst, [a.obj(n), b.obj(n)], k) for n in s.objects})

    return (s, structural(a, s, _summand_inj, 0), structural(b, s, _summand_inj, 1),
            structural(s, a, _summand_proj, 0), structural(s, b, _summand_proj, 1))


def cone_complex(f: ChainMap) -> Complex:
    """cone(f)^n = X^{n+1} (+) Y^n with d = [[-d_X^{n+1}, 0], [f^{n+1}, d_Y^n]]."""
    inst = f.instance
    X, Y = f.source, f.target
    degs = sorted({n - 1 for n in X.objects} | set(Y.objects))
    objects = {n: inst.dsum([X.obj(n + 1), Y.obj(n)]) for n in degs}
    diffs = {}
    for n in degs:
        dx = X.diffs.get(n + 1)
        if _CONE_SIGN == -1 and dx is not None:
            dx = inst.hom_negate(dx)
        diffs[n] = inst.block_mor(
            [[dx, None], [f.components.get(n + 1), Y.diffs.get(n)]],
            [X.obj(n + 2), Y.obj(n + 1)],
            [X.obj(n + 1), Y.obj(n)],
        )
    return Complex(inst, objects, diffs)


def cone(f: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """The cone complex of `cone_complex` with its maps: returns (cone,
    inj: Y -> cone, proj: cone -> X[1]).  Both maps are zero outside the
    cone's support, where X^{n+1} and Y^n are zero."""
    inst = f.instance
    X, Y = f.source, f.target
    c = cone_complex(f)
    inj = ChainMap(Y, c, {n: _summand_inj(inst, [X.obj(n + 1), Y.obj(n)], 1) for n in c.objects})
    proj = ChainMap(c, shift_complex(X, 1),
                    {n: _summand_proj(inst, [X.obj(n + 1), Y.obj(n)], 0) for n in c.objects})
    return c, inj, proj


def eta_on_cone(f: ChainMap) -> bool:
    """eta_{cone(f)} = [[eta_{X[1]}, 0], [0, eta_Y]] as a block identity."""
    inst = f.instance
    X, Y = f.source, f.target
    c = cone_complex(f)
    expected = ChainMap(apply_auto(c, 1), c, {
        n: block_diag(inst, [inst.eta(X.obj(n + 1)), inst.eta(Y.obj(n))], [X.obj(n + 1), Y.obj(n)],
                      [inst.shift_obj(X.obj(n + 1), 1), inst.shift_obj(Y.obj(n), 1)])
        for n in c.objects
    })
    return eta_chain_map(c) == expected


# -- linear problems over hom coordinates -----------------------------------


def _add_kron(rows, r0, c0, L, R, ru, cu, sign, ring):
    """Add sign * L (x) R^T into the dict rows {column: nonzero} of a system.

    Unknown entry (a, b) of the ru x cu block, at column c0 + a*cu + b, gets
    coefficient sign * L[p, a] * R[b, q] in equation entry (p, q), at row
    r0 + p*ec + q.  L or R None is the identity.  Only nonzero products are
    visited.  Over Z/m and GF(p) each sum written is reduced mod m, and over
    Q one with denominator 1 becomes its int, so the entries stay canonical;
    over Z sums of products of canonical entries already are.  A sum that
    cancels to 0 (mod m) is deleted, so the rows hold no stored zero.
    """
    mod, one, rat = ring.modulus, ring.one(), ring.kind == "Q"
    if R is None:
        ec, r_nz = cu, [[(q, one)] for q in range(cu)]
    else:  # the nonzeros of column q of R, as (b, R[b, q])
        ec, ent = R.cols, R.entries
        r_nz = [[(b, v) for b, v in enumerate(ent[q::ec]) if v] for q in range(ec)]
    l_nz = [[(p, sign)] if L is None else [(a, sign * v) for a, v in enumerate(L.row(p)) if v]
            for p in range(ru if L is None else L.rows)]
    for p, lrow in enumerate(l_nz):
        if not lrow:
            continue
        for q, rcol in enumerate(r_nz, r0 + p * ec):
            row = rows[q]
            for a, lv in lrow:
                col = c0 + a * cu
                for b, rv in rcol:
                    j = col + b
                    x = row.get(j, 0) + lv * rv
                    if mod:
                        x %= mod
                    elif rat and x.denominator == 1:
                        x = x.numerator
                    if x:
                        row[j] = x
                    elif j in row:
                        del row[j]


class LinearProblem:
    """A system of affine equations whose unknowns are base-instance morphisms.

    Each unknown u is a hom-slot (X, Y); each equation lives in a hom-slot
    (A, B) and is a sum of terms  sign * left . u . right  = rhs.
    """

    def __init__(self, instance: BaseInstance):
        self.instance = instance
        self.unknowns: Dict[object, Tuple[object, object, int]] = {}  # key -> (X, Y, column)
        self.equations: List[Tuple[object, object, int, list, object]] = []  # (A, B, row, terms, rhs)
        self.cols = 0
        self.rows = 0

    def add_unknown(self, key, X, Y):
        if key in self.unknowns:
            raise ValueError(f"duplicate unknown {key!r}")
        self.unknowns[key] = (X, Y, self.cols)
        self.cols += self.instance.hom_dim(X, Y)

    def add_equation(self, A, B, terms, rhs=None):
        """terms: list of (key, left, right, sign).

        The term contributes sign * left . u . right where u: X -> Y is the
        unknown; right: A -> X and left: Y -> B (None = identity); sign is
        +1 or -1.
        """
        for key, _, _, _ in terms:
            if key not in self.unknowns:
                raise ValueError(f"equation references unknown key {key!r}")
        self.equations.append((A, B, self.rows, list(terms), rhs))
        self.rows += self.instance.hom_dim(A, B)

    def _build(self) -> List[Dict[int, object]]:
        """The rows of [a | b] as dicts {column: nonzero}, the rhs in column
        ``self.cols``: the form ``linalg._solve`` takes, written straight
        from the Kronecker blocks, with no dense coefficient matrix."""
        inst = self.instance
        ring = inst.ring
        rows: List[Dict[int, object]] = [{} for _ in range(self.rows)]
        for A, B, row, terms, rhs in self.equations:
            for key, left, right, sign in terms:
                X, Y, col = self.unknowns[key]
                for r, c, L, R, ru, cu in inst.hom_blocks(left, right, X, Y, A, B):
                    _add_kron(rows, row + r, col + c, L, R, ru, cu, sign, ring)
            if rhs is not None:
                for i, b in enumerate(inst.mor_to_vec(rhs, A, B), row):
                    if b:
                        rows[i][self.cols] = b
        return rows

    def _unpack(self, vec: Sequence) -> Dict[object, object]:
        inst = self.instance
        return {
            key: inst.vec_to_mor(list(vec[col : col + inst.hom_dim(X, Y)]), X, Y)
            for key, (X, Y, col) in self.unknowns.items()
        }

    def solve(self) -> Optional[Dict[object, object]]:
        x, _ = _solve(self.instance.ring, self._build(), self.cols, want_kernel=False)
        return None if x is None else self._unpack(x)

    def solve_full(self):
        """(particular solution dict or None, list of kernel dicts)."""
        x, kern = _solve(self.instance.ring, self._build(), self.cols, want_kernel=True)
        sol = None if x is None else self._unpack(x)
        return sol, [self._unpack(g) for g in kern]


# -- degree-shifted families ------------------------------------------------


def add_family(prob: LinearProblem, key, A: Complex, B: Complex, k: int) -> List[int]:
    """Register u^n: A^n -> B^{n+k} as the unknown (key, n) wherever both ends
    are nonzero; return those degrees n."""
    inst = prob.instance
    degs = [n for n in A.support if not inst.obj_is_zero(B.obj(n + k))]
    for n in degs:
        prob.add_unknown((key, n), A.obj(n), B.obj(n + k))
    return degs


def family_terms(prob: LinearProblem, key, A: Complex, B: Complex, k: int, n: int, signs=(1, 1)) -> list:
    """The terms signs[0] u^{n+1} d_A^n + signs[1] d_B^{n+k} u^n of an equation
    in the slot (A^n, B^{n+k+1}), for those of (key, n+1), (key, n) that prob
    holds and whose d is stored: an absent d is zero, and so is its term."""
    terms = []
    d = A.diffs.get(n)
    if d is not None and (key, n + 1) in prob.unknowns:
        terms.append(((key, n + 1), None, d, signs[0]))
    d = B.diffs.get(n + k)
    if d is not None and (key, n) in prob.unknowns:
        terms.append(((key, n), d, None, signs[1]))
    return terms


# -- homotopy ---------------------------------------------------------------


def _homotopy_lhs(f: ChainMap, g: ChainMap, eta_twisted: bool) -> ChainMap:
    """f - g, or (f - g) eta_X: X(1) -> Y when twisted; its source is where the
    homotopy's unknowns start."""
    diff = sub_chain_maps(f, g)
    return eta_before(diff) if eta_twisted else diff


class HomotopyCertificate:
    """Family {s^n} witnessing (eta-)null-homotopy of f - g.

    Classical: s^n: X^n -> Y^{n-1} with f - g = s^{n+1} d_X^n + d_Y^{n-1} s^n.
    Eta: the same over X(1): s^n: X^n(1) -> Y^{n-1} with
    (f-g) eta = s^{n+1} d_{X(1)}^n + d_Y^{n-1} s^n.
    """

    __slots__ = ("s", "eta_twisted")

    def __init__(self, s: Dict[int, object], eta_twisted: bool = False):
        self.s = dict(s)
        self.eta_twisted = eta_twisted

    def _sides(self, f: ChainMap, g: ChainMap, clear: bool = False):
        """(n, c lhs^n, rhs^n) of the equation for the witness scaled to c s,
        None for a zero side: c = 1, or with ``clear`` the lcm of the
        denominators in s."""
        inst = f.instance
        lhs = _homotopy_lhs(f, g, self.eta_twisted)
        A, Y = lhs.source, lhs.target
        s, c = self.s, 1
        if clear:
            c = lcm(1, *(x.denominator for n, m in s.items()
                         for x in inst.mor_to_vec(m, A.obj(n), Y.obj(n - 1))))
        if c != 1:
            s = {n: inst.hom_scale(m, c) for n, m in s.items()}
        for n in sorted(set(A.objects) | set(f.components) | set(g.components)):
            rhs = _add(inst, _compose(inst, s.get(n + 1), A.diffs.get(n)),
                       _compose(inst, Y.diffs.get(n - 1), s.get(n)))
            left = lhs.components.get(n)
            yield n, left if c == 1 or left is None else inst.hom_scale(left, c), rhs

    def residuals(self, f: ChainMap, g: ChainMap) -> Dict[int, object]:
        """Degree n -> lhs^n - rhs^n of the homotopy equation, where nonzero."""
        inst = f.instance
        return {n: _sub(inst, left, rhs) for n, left, rhs in self._sides(f, g)
                if not _mor_eq(inst, left, rhs)}

    def validate(self, f: ChainMap, g: ChainMap) -> bool:
        """The homotopy equation holds.  Over Q it is checked times c, the lcm
        of the denominators in the witness: c lhs = (c s) d + d (c s) holds
        iff the equation does, and c s is integral, so its products stay off
        ``Fraction`` where the complexes are integral."""
        inst = f.instance
        return all(_mor_eq(inst, left, rhs) for _, left, rhs in self._sides(f, g, inst.ring.kind == "Q"))


def _homotopy(f: ChainMap, g: ChainMap, eta_twisted: bool, what: str) -> Optional[HomotopyCertificate]:
    """SOME s solving the (eta-)homotopy equation of ``HomotopyCertificate``, else NONE."""
    lhs = _homotopy_lhs(f, g, eta_twisted)
    A, Y = lhs.source, lhs.target
    prob = LinearProblem(f.instance)
    degs = add_family(prob, "s", A, Y, -1)
    for n in A.support:
        prob.add_equation(A.obj(n), Y.obj(n), family_terms(prob, "s", A, Y, -1, n), lhs.components.get(n))
    sol = prob.solve()
    if sol is None:
        return None
    cert = HomotopyCertificate({n: sol[("s", n)] for n in degs}, eta_twisted)
    verify(cert.validate(f, g), what)
    return cert


def homotopic(f: ChainMap, g: ChainMap) -> Optional[HomotopyCertificate]:
    """Classical homotopy: SOME s with f - g = s d + d s, else NONE."""
    return _homotopy(f, g, False, "homotopic: the certificate fails the homotopy equation")


def null_homotopic(f: ChainMap) -> Optional[HomotopyCertificate]:
    return homotopic(f, zero_chain_map(f.source, f.target))


def chain_map_problem(prob: LinearProblem, key_prefix, A: Complex, B: Complex):
    """Register unknowns and equations describing a chain map A -> B.

    Returns the list of degrees that carry an unknown component.
    """
    degs = add_family(prob, key_prefix, A, B, 0)
    for n in A.support:
        prob.add_equation(A.obj(n), B.obj(n + 1), family_terms(prob, key_prefix, A, B, 0, n, (1, -1)))
    return degs


def solution_chain_map(sol: Dict, key_prefix, degs, A: Complex, B: Complex) -> ChainMap:
    return ChainMap(A, B, {n: sol[(key_prefix, n)] for n in degs})


# -- chainwise split exact pairs --------------------------------------------


class NotChainwiseSplit(Exception):
    def __init__(self, degree):
        super().__init__(f"no degreewise splitting at degree {degree}")
        self.degree = degree


class ExactPair:
    """A chainwise-split pair X -> Y -> Z with splitting data and invariant h.

    r^n: Y^n -> X^n retracts i, q^n: Z^n -> Y^n sections p, r q = 0 and
    i r + q p = Id_Y, so [r; p]: Y^n -> X^n (+) Z^n is an isomorphism with
    inverse [i q]; h: Z[-1] -> X is the homotopy invariant
    h^n = r^n d_Y^{n-1} q^{n-1}.  ``normalize_exact_pair`` finds the
    splitting from the two one-sided inverses alone; see there.
    """

    __slots__ = ("i", "p", "r", "q", "h")

    def __init__(self, i: ChainMap, p: ChainMap, r: Dict[int, object], q: Dict[int, object], h: ChainMap):
        self.i = i
        self.p = p
        self.r = r
        self.q = q
        self.h = h

    @property
    def instance(self):
        return self.i.instance

    @property
    def sub(self) -> Complex:
        return self.i.source

    @property
    def middle(self) -> Complex:
        return self.i.target

    @property
    def quotient(self) -> Complex:
        return self.p.target


def _one_sided_inverses(i: ChainMap, p: ChainMap, degs: List[int]) -> Optional[Dict]:
    """SOME {("r", n): r^n, ("q", n): q0^n} with r^n i^n = Id and p^n q0^n = Id
    at every degree n of degs, posed as one system on the degree-0 blocks
    r_0^j i_0^j = Id and p_0^j q_0^j = Id of ``inst.degree_zero()`` and
    lifted; else NONE.  Over ``Graded`` the levels above 0 follow from
    ``_graded_right_inverse``: q0 directly, r by ``_graded_left_inverse``."""
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
    level0: Dict[Tuple[str, int], Dict[int, object]] = {}  # (key, n) -> {j: r_0^j or q_0^j}
    for (key, n, j), m in sol.items():
        level0.setdefault((key, n), {})[j] = m
    graded = isinstance(view, GradedQuotient)
    out = {}
    for n in degs:
        r0, q0 = level0.get(("r", n), {}), level0.get(("q", n), {})
        # r0 (q0) is empty only where X^n (Z^n) is 0, and then so is r (q)
        out[("r", n)] = (_graded_left_inverse(i.components[n], r0) if graded and r0
                         else view.lift(r0, Y.obj(n), X.obj(n)))
        out[("q", n)] = (_graded_right_inverse(p.components[n], q0) if graded and q0
                         else view.lift(q0, Z.obj(n), Y.obj(n)))
    return out


# -- the levels above 0 over Graded -----------------------------------------


def _sum_products(pairs):
    """The sum of the products a b over pairs (a, b) of matrices, skipping a
    pair with an absent (None) factor; None if no product is left."""
    s = None
    for a, b in pairs:
        if a is not None and b is not None:
            s = a @ b if s is None else s + a @ b
    return s


def _graded_right_inverse(f, q0: Optional[Dict[int, object]]):
    """The right inverse q of the graded f: Y -> Z with level 0 q0 = {j: q_0^j},
    f_0^j q_0^j = Id.  Level by level, q_k^j = -q_0^{j+k} sum_{b<k} f_{k-b}^{j+b} q_b^j.
    q0 None stands for f_0 = q_0 = Id, with Y = Z: f's level 0 is not read,
    and no product by an identity block is formed."""
    Y, Z, fc = f.source, f.target, f.components
    unit = q0 is None
    q = {} if unit else {(0, j): m for j, m in q0.items()}
    top = Y.support[-1] - Z.support[0] if Y.support and Z.support else 0  # the highest level of Hom(Z, Y)
    for k in range(1, top + 1):
        for j in Z.support:
            if unit:
                if not Y.rank(j + k):
                    continue
                s = _sum_products((fc.get((k - b, j + b)), q.get((b, j))) for b in range(1, k))
                fk = fc.get((k, j))  # the b = 0 term, times q_0^j = Id
                s = fk if s is None else s if fk is None else fk + s
            else:
                m0 = q0.get(j + k)
                s = None if m0 is None else _sum_products((fc.get((k - b, j + b)), q.get((b, j))) for b in range(k))
                if s is not None:
                    s = m0 @ s
            if s is not None and not s.is_zero():
                q[(k, j)] = -s
    return GradedMorphism._trusted(Z, Y, q)


def _graded_left_inverse(f, r0: Dict[int, object]):
    """The left inverse r of the graded f: X -> Y with level 0 r0 = {j: r_0^j},
    r_0^j f_0^j = Id: r = (r_0 f)^{-1} r_0, as r_0 f is Id on level 0.  So r_0 f
    is formed and inverted above level 0 only, and r is r_0 on level 0 and
    S_k^j r_0^j above, for that inverse S."""
    X = f.source
    above = ((k, j, r0[j + k] @ m) for (k, j), m in f.components.items() if k and j + k in r0)
    r0f = GradedMorphism._trusted(X, X, {(k, j): m for k, j, m in above if not m.is_zero()})
    r = {(0, j): m for j, m in r0.items()}
    for (k, j), m in _graded_right_inverse(r0f, None).components.items():
        m = m @ r0[j]
        if not m.is_zero():
            r[(k, j)] = m
    return GradedMorphism._trusted(f.target, X, r)


def normalize_exact_pair(i: ChainMap, p: ChainMap) -> ExactPair:
    """Find degreewise splittings of X ->i Y ->p Z and the invariant h.

    A degree n splits, with some (r, q) such that r i = Id, p q = Id and
    i r + q p = Id, iff p i = 0, Y^n = X^n (+) Z^n and both one-sided
    inverses r i = Id, p q0 = Id exist.  For then q = q0 - i r q0 has
    r q = 0 and p q = Id, so [r; p][i q] = Id, and a one-sided inverse of a
    square matrix over a commutative ring is two-sided: i r + q p = Id.
    Over ``Graded`` the rank check compares grade by grade, as an
    isomorphism forces through its degree-0 part; the matrices above are
    then square in total coordinates.  So r and q0 are found for all degrees
    in one system, with no Y x Y equation, on the degree-0 blocks alone, as
    a morphism has a one-sided inverse iff its degree-0 part does
    (``inst.degree_zero()``; see ``_one_sided_inverses``).

    Raises NotChainwiseSplit at the least degree where p i != 0, else at the
    least degree where the rank check or an inverse fails.
    """
    if i.target != p.source:
        raise ValueError("pair legs do not share the middle complex")
    inst = i.instance
    X, Y, Z = i.source, i.target, p.target
    pi = compose_chain_maps(p, i)
    if not pi.is_zero():
        raise NotChainwiseSplit(min(pi.components))
    degs = sorted(set(Y.objects) | set(X.objects) | set(Z.objects))
    bad = next((n for n in degs if inst.dsum([X.obj(n), Z.obj(n)]) != Y.obj(n)), None)
    sol = None if bad is not None else _one_sided_inverses(i, p, degs)
    if sol is None:  # the joint system fails iff one degree's does
        raise NotChainwiseSplit(next(
            (n for n in degs if (bad is None or n < bad) and _one_sided_inverses(i, p, [n]) is None), bad))
    r = {n: sol[("r", n)] for n in degs}
    q = {}
    for n in degs:
        q0 = sol[("q", n)]
        q[n] = _sub(inst, q0, _compose(inst, i.components.get(n), inst.compose(r[n], q0)))
    zm1 = shift_complex(Z, -1)
    h_comps = {}
    for n in sorted(set(X.objects)):
        d = Y.diffs.get(n - 1)
        if d is None or inst.obj_is_zero(Z.obj(n - 1)):
            continue
        h_comps[n] = inst.compose(r[n], inst.compose(d, q[n - 1]))
    h = ChainMap(zm1, X, h_comps)
    return ExactPair(i, p, r, q, h)
