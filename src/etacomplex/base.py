"""Base-category instances: an additive category with an automorphism (1)
and a natural transformation eta: (1) -> Id satisfying eta_{X(1)} = eta_X(1).

Two concrete instances are provided:

* ``ScalarEta(ring, r)``: objects are finite free modules (plain ranks),
  the automorphism (1) is the identity and eta_X = r * Id.
* ``Graded(inner)``: finitely supported Z-graded objects over an inner
  instance; morphisms are families {f_0, f_1, ...} of degree-raising
  components composed by convolution; (1) is the degree shift and
  eta_X = {0, Id, 0, ...}.

``EtaPower(inner, m)`` derives a new instance from an existing one with
(1) replaced by (m) and eta by the m-fold composite eta^m; everything else,
the hom-coordinate API included, is the inner instance's, by delegation.

``eta_quotient()`` describes the quotient by eta where a map factors through
eta exactly when it vanishes there (``ScalarQuotient``, ``GradedQuotient``),
and is None where eta is a zero-divisor other than 0; ``degree_zero()``, a
like view of the degree-0 part, decides which maps have one-sided inverses.

Every instance exposes a uniform hom-coordinate API (hom_dim, mor_to_vec,
vec_to_mor, hom_blocks) so higher layers can pose morphism-finding questions
as plain linear systems over the coefficient ring.  ``hom_blocks`` gives the
matrix of u -> left . u . right in hom coordinates as Kronecker factors: a
single block for ``ScalarEta``, one block per term of the convolution for
``Graded``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .matrix import RingMatrix
from .rings import _MR_BOUND, GF, ZZ, CoeffRing, Zmod, _is_prime, json_int


def json_pos(e) -> Tuple[int, int]:
    """The position (i, j) of an instance-file entry."""
    return json_int(e["i"], "i"), json_int(e["j"], "j")


def json_unique(pairs, what: str) -> dict:
    """The dict of an instance file's (key, value) entries; a repeated key is
    rejected, not overwritten by the last entry."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated {what} {key}")
        out[key] = value
    return out


def json_matrix(d, ring: CoeffRing) -> RingMatrix:
    """A matrix read from an instance file over ``ring``; one over another ring is rejected."""
    m = RingMatrix.from_json(d, ring)
    if m.ring != ring:
        raise ValueError(f"ring mismatch: a matrix over {m.ring} in an instance over {ring}")
    return m


class BaseInstance:
    """Abstract contract; see module docstring.  All operations are pure."""

    kind: str
    ring: CoeffRing

    # objects ---------------------------------------------------------------
    def zero_obj(self):
        raise NotImplementedError

    def obj_is_zero(self, X) -> bool:
        raise NotImplementedError

    def dsum(self, objs: Sequence):
        raise NotImplementedError

    def shift_obj(self, X, k: int):
        raise NotImplementedError

    # morphisms -------------------------------------------------------------
    def id_mor(self, X):
        raise NotImplementedError

    def zero_mor(self, X, Y):
        raise NotImplementedError

    def compose(self, g, f):
        """g after f."""
        raise NotImplementedError

    def hom_add(self, f, g):
        raise NotImplementedError

    def hom_negate(self, f):
        raise NotImplementedError

    def hom_scale(self, f, a):
        """a f for a ring element a."""
        raise NotImplementedError

    def mor_eq(self, f, g) -> bool:
        raise NotImplementedError

    def mor_is_zero(self, f) -> bool:
        raise NotImplementedError

    def shift_mor(self, f, k: int):
        raise NotImplementedError

    def eta(self, X):
        """The component eta_X: X(1) -> X."""
        raise NotImplementedError

    def eta_quotient(self):
        """The quotient by eta, as a ``ScalarQuotient`` or ``GradedQuotient``,
        or None where eta is a zero-divisor other than 0."""
        return None

    def degree_zero(self):
        """The degree-0 view, as a ``ScalarQuotient`` or ``GradedQuotient``."""
        raise NotImplementedError

    def validate_mor(self, f, X, Y) -> bool:
        """True iff f is a well-formed morphism X -> Y of this instance."""
        raise NotImplementedError

    # block assembly --------------------------------------------------------
    def block_mor(self, grid, tgt_objs: Sequence, src_objs: Sequence):
        """Assemble a morphism dsum(src) -> dsum(tgt) from a grid of blocks.

        grid[bi][bj] is a morphism src_objs[bj] -> tgt_objs[bi], or None.
        """
        raise NotImplementedError

    def split_mor(self, f, tgt_objs: Sequence, src_objs: Sequence):
        """Inverse of block_mor: cut f into the grid of blocks."""
        raise NotImplementedError

    # hom coordinates -------------------------------------------------------
    def hom_dim(self, X, Y) -> int:
        raise NotImplementedError

    def mor_to_vec(self, f, X, Y) -> List:
        raise NotImplementedError

    def vec_to_mor(self, vec: Sequence, X, Y):
        """The morphism with hom coordinates ``vec``, canonical ring elements
        as ``mor_to_vec`` and the solvers give them."""
        raise NotImplementedError

    def hom_blocks(self, left, right, X, Y, A, B) -> List[Tuple]:
        """Kronecker factors of u -> left . u . right, Hom(X, Y) -> Hom(A, B).

        right: A -> X and left: Y -> B, None meaning the identity.  The map
        is the sum of the blocks (row, col, L, R, ru, cu): the ru x cu matrix
        M at hom coordinate col of u goes to L M R at coordinate row.
        """
        raise NotImplementedError

    # serialization ---------------------------------------------------------
    def obj_to_json(self, X):
        raise NotImplementedError

    def obj_from_json(self, d):
        raise NotImplementedError

    def mor_to_json(self, f):
        raise NotImplementedError

    def mor_from_json(self, d, X, Y):
        raise NotImplementedError


def check_eta_coherence(instance: BaseInstance, X) -> bool:
    """eta_{X(1)} = eta_X(1), exactly."""
    lhs = instance.eta(instance.shift_obj(X, 1))
    rhs = instance.shift_mor(instance.eta(X), 1)
    return instance.mor_eq(lhs, rhs)


def check_eta_natural(instance: BaseInstance, f, X, Y) -> bool:
    """eta_Y . f(1) = f . eta_X for f: X -> Y."""
    lhs = instance.compose(instance.eta(Y), instance.shift_mor(f, 1))
    rhs = instance.compose(f, instance.eta(X))
    return instance.mor_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# ScalarEta: free modules, (1) = Id, eta = r * Id
# ---------------------------------------------------------------------------


class ScalarEta(BaseInstance):
    kind = "scalar-eta"

    def __init__(self, ring: CoeffRing, r):
        self.ring = ring
        self.r = ring.canon(r)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarEta) and self.ring == other.ring and self.r == other.r
        )

    def __hash__(self):
        return hash(("scalar-eta", self.ring, self.r))

    def __repr__(self):
        return f"ScalarEta({self.ring}, r={self.ring.elem_to_str(self.r)})"

    # objects: nonnegative ranks
    def zero_obj(self):
        return 0

    def obj_is_zero(self, X):
        return X == 0

    def dsum(self, objs):
        return sum(objs)

    def shift_obj(self, X, k):
        return X

    # morphisms: RingMatrix with rows = target rank, cols = source rank
    def id_mor(self, X):
        return RingMatrix.identity(self.ring, X)

    def zero_mor(self, X, Y):
        return RingMatrix.zero(self.ring, Y, X)

    def compose(self, g, f):
        return g @ f

    def hom_add(self, f, g):
        return f + g

    def hom_negate(self, f):
        return -f

    def hom_scale(self, f, a):
        return f.scale(a)

    def mor_eq(self, f, g):
        return f == g

    def mor_is_zero(self, f):
        return f.is_zero()

    def shift_mor(self, f, k):
        return f

    def eta(self, X):
        return RingMatrix.scalar(self.ring, X, self.r)

    def eta_quotient(self):
        return ScalarQuotient.of(self.ring, self.r)

    def degree_zero(self):
        return ScalarQuotient.of(self.ring, 0)

    def validate_mor(self, f, X, Y):
        return isinstance(f, RingMatrix) and f.ring == self.ring and (f.rows, f.cols) == (Y, X)

    def block_mor(self, grid, tgt_objs, src_objs):
        return RingMatrix.block(self.ring, grid, list(tgt_objs), list(src_objs))

    def split_mor(self, f, tgt_objs, src_objs):
        out = []
        r0 = 0
        for rs in tgt_objs:
            row = []
            c0 = 0
            for cs in src_objs:
                row.append(f.submatrix(r0, r0 + rs, c0, c0 + cs))
                c0 += cs
            out.append(row)
            r0 += rs
        return out

    def hom_dim(self, X, Y):
        return X * Y

    def mor_to_vec(self, f, X, Y):
        return list(f.entries)

    def vec_to_mor(self, vec, X, Y):
        return RingMatrix._trusted(self.ring, Y, X, list(vec))

    def hom_blocks(self, left, right, X, Y, A, B):
        left_shape = (Y, Y) if left is None else (left.rows, left.cols)
        right_shape = (X, X) if right is None else (right.rows, right.cols)
        if left_shape != (B, Y) or right_shape != (X, A):
            raise ValueError("term does not map Hom(X, Y) into Hom(A, B)")
        return [(0, 0, left, right, Y, X)]

    def obj_to_json(self, X):
        return X

    def obj_from_json(self, d):
        r = json_int(d, "rank")
        if r < 0:
            raise ValueError("negative rank")
        return r

    def mor_to_json(self, f):
        return f.to_json()

    def mor_from_json(self, d, X, Y):
        m = json_matrix(d, self.ring)
        if (m.rows, m.cols) != (Y, X):
            raise ValueError(f"a {m.rows}x{m.cols} matrix where a {Y}x{X} morphism belongs")
        return m

    def to_json(self):
        return {"kind": self.kind, "ring": self.ring.to_json(), "r": self.ring.elem_to_str(self.r)}


# ---------------------------------------------------------------------------
# Graded: finitely supported Z-graded objects, (1) = degree shift
# ---------------------------------------------------------------------------


class GradedObject:
    """Finitely supported map degree -> positive rank; ``support`` is the
    sorted tuple of its grades, computed once, as the object is immutable."""

    __slots__ = ("ranks", "support")

    def __init__(self, ranks: Dict[int, int]):
        clean = {}
        for j, r in ranks.items():
            if r < 0:
                raise ValueError("negative rank")
            if r:
                clean[int(j)] = int(r)
        self.ranks = clean
        self.support = tuple(sorted(clean))

    def rank(self, j: int) -> int:
        return self.ranks.get(j, 0)

    def is_zero(self) -> bool:
        return not self.ranks

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def __eq__(self, other):
        return isinstance(other, GradedObject) and self.ranks == other.ranks

    def __hash__(self):
        return hash(tuple(sorted(self.ranks.items())))

    def __repr__(self):
        return f"GradedObject({dict(sorted(self.ranks.items()))})"

    def to_json(self):
        return {"ranks": {str(j): r for j, r in sorted(self.ranks.items())}}

    @staticmethod
    def from_json(d) -> "GradedObject":
        """Read ``to_json``'s form: an object of ranks keyed by grades written
        as ``str(j)``, so "1_0" or " 2" is rejected, not read as 10 or 2."""
        ranks = d["ranks"]
        if type(ranks) is not dict:
            raise ValueError(f"graded ranks must be an object, got {ranks!r}")
        for k in ranks:
            if str(int(k)) != k:
                raise ValueError(f"a grade must be written as an integer, got {k!r}")
        return GradedObject({int(j): json_int(r, "rank") for j, r in ranks.items()})


class GradedMorphism:
    """Family {f_n^j: X^j -> Y^{j+n}, n >= 0}; only nonzero components stored.

    The public constructor is the boundary: it checks n >= 0 and the shape
    of every component, and drops the zero ones.  ``_trusted`` is for the
    package's own constructions, whose components already meet that.
    """

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: GradedObject,
        target: GradedObject,
        components: Dict[Tuple[int, int], RingMatrix],
    ):
        self.source = source
        self.target = target
        clean = {}
        rows, cols = target.ranks, source.ranks
        for (n, j), m in components.items():
            if n < 0:
                raise ValueError("component degree must be >= 0")
            if (m.rows, m.cols) != (rows.get(j + n, 0), cols.get(j, 0)):
                raise ValueError(
                    f"component ({n},{j}) has shape {m.rows}x{m.cols}, "
                    f"expected {target.rank(j + n)}x{source.rank(j)}"
                )
            if not m.is_zero():
                clean[(n, j)] = m
        self.components = clean

    @staticmethod
    def _trusted(
        source: GradedObject, target: GradedObject, comps: Dict[Tuple[int, int], RingMatrix]
    ) -> "GradedMorphism":
        """The morphism with components ``comps`` as given, without checks: a
        fresh dict of nonzero matrices, each (n, j) with n >= 0 of shape
        target.rank(j + n) x source.rank(j)."""
        f = object.__new__(GradedMorphism)
        f.source = source
        f.target = target
        f.components = comps
        return f

    def component(self, n: int, j: int, ring: CoeffRing) -> RingMatrix:
        m = self.components.get((n, j))
        if m is None:
            return RingMatrix.zero(ring, self.target.rank(j + n), self.source.rank(j))
        return m

    def __eq__(self, other):
        return (
            isinstance(other, GradedMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        keys = sorted(self.components)
        return f"GradedMorphism({self.source}->{self.target}, components at {keys})"


class Graded(BaseInstance):
    kind = "graded"

    def __init__(self, inner: BaseInstance):
        base = inner
        while isinstance(base, EtaPower):
            base = base.inner
        if isinstance(base, Graded):  # also not under an EtaPower
            raise ValueError("graded instances do not nest")
        self.inner = inner
        self.ring = inner.ring

    def __eq__(self, other):
        return isinstance(other, Graded) and self.inner == other.inner

    def __hash__(self):
        return hash(("graded", self.inner))

    def __repr__(self):
        return f"Graded({self.inner!r})"

    # objects
    def zero_obj(self):
        return GradedObject({})

    def obj_is_zero(self, X):
        return X.is_zero()

    def dsum(self, objs):
        ranks: Dict[int, int] = {}
        for X in objs:
            for j, r in X.ranks.items():
                ranks[j] = ranks.get(j, 0) + r
        return GradedObject(ranks)

    def shift_obj(self, X, k):
        # (X(k))^j = X^{j+k}
        return GradedObject({j - k: r for j, r in X.ranks.items()})

    # morphisms
    def id_mor(self, X):
        comps = {(0, j): RingMatrix.identity(self.ring, r) for j, r in X.ranks.items()}
        return GradedMorphism._trusted(X, X, comps)

    def zero_mor(self, X, Y):
        return GradedMorphism._trusted(X, Y, {})

    def _slots(self, X: GradedObject, Y: GradedObject) -> List[Tuple[int, int]]:
        """All (n, j) with X^j and Y^{j+n} both nonzero, n >= 0, sorted."""
        ys = Y.support
        out = [(t - j, j) for j in X.support for t in ys if t >= j]
        out.sort()
        return out

    def compose(self, g, f):
        if f.target is not g.source and f.target != g.source:
            raise ValueError("object mismatch in graded composition")
        # (g f)_n^j = sum_{p+q=n} g_p^{j+q} f_q^j: g's components by source grade
        g_at: Dict[int, List[Tuple[int, RingMatrix]]] = {}
        for (p, t), gm in g.components.items():
            g_at.setdefault(t, []).append((p, gm))
        comps: Dict[Tuple[int, int], RingMatrix] = {}
        for (q, j), fm in f.components.items():
            for p, gm in g_at.get(j + q, ()):
                key = (p + q, j)
                prod = gm @ fm
                comps[key] = comps[key] + prod if key in comps else prod
        # a product or a sum of them can vanish, and no zero is stored
        return GradedMorphism._trusted(
            f.source, g.target, {key: m for key, m in comps.items() if not m.is_zero()})

    def hom_add(self, f, g):
        if f.source != g.source or f.target != g.target:
            raise ValueError("object mismatch in graded addition")
        comps = dict(f.components)
        for key, m in g.components.items():
            if key not in comps:
                comps[key] = m
                continue
            m = comps[key] + m
            if m.is_zero():  # the two cancel
                del comps[key]
            else:
                comps[key] = m
        return GradedMorphism._trusted(f.source, f.target, comps)

    def hom_negate(self, f):
        return GradedMorphism._trusted(f.source, f.target, {k: -m for k, m in f.components.items()})

    def hom_scale(self, f, a):
        comps = {k: m.scale(a) for k, m in f.components.items()}
        return GradedMorphism._trusted(f.source, f.target, {k: m for k, m in comps.items() if not m.is_zero()})

    def mor_eq(self, f, g):
        return f == g

    def mor_is_zero(self, f):
        return not f.components

    def shift_mor(self, f, k):
        # (f(k))_n^j = f_n^{j+k}
        return GradedMorphism._trusted(
            self.shift_obj(f.source, k),
            self.shift_obj(f.target, k),
            {(n, j - k): m for (n, j), m in f.components.items()},
        )

    def eta(self, X):
        # eta_X: X(1) -> X with eta_1^j = Id: (X(1))^j = X^{j+1} -> X^{j+1}
        src = self.shift_obj(X, 1)
        comps = {
            (1, j - 1): RingMatrix.identity(self.ring, r) for j, r in X.ranks.items()
        }
        return GradedMorphism._trusted(src, X, comps)

    def degree_zero(self):
        return GradedQuotient(self.inner)

    eta_quotient = degree_zero  # eta = t, and the quotient by t is level 0

    def validate_mor(self, f, X, Y):
        if not isinstance(f, GradedMorphism) or f.source != X or f.target != Y:
            return False
        try:
            GradedMorphism(X, Y, f.components)
        except ValueError:
            return False
        return True

    def block_mor(self, grid, tgt_objs, src_objs):
        src = self.dsum(src_objs)
        tgt = self.dsum(tgt_objs)
        comps: Dict[Tuple[int, int], RingMatrix] = {}
        for n, j in self._slots(src, tgt):
            # an absent component is a zero block, passed as None; a slot with
            # no block present is left out, and one with a block is nonzero
            g = [[None if f is None else f.components.get((n, j)) for f in row] for row in grid]
            if any(b is not None for row in g for b in row):
                rows = [Y.rank(j + n) for Y in tgt_objs]
                cols = [X.rank(j) for X in src_objs]
                comps[(n, j)] = RingMatrix.block(self.ring, g, rows, cols)
        return GradedMorphism._trusted(src, tgt, comps)

    def split_mor(self, f, tgt_objs, src_objs):
        grid = [
            [dict() for _ in src_objs] for _ in tgt_objs
        ]  # type: List[List[Dict[Tuple[int,int], RingMatrix]]]
        for (n, j), m in f.components.items():
            r0 = 0
            for bi, Y in enumerate(tgt_objs):
                rs = Y.rank(j + n)
                c0 = 0
                for bj, X in enumerate(src_objs):
                    cs = X.rank(j)
                    if rs and cs:
                        blk = m.submatrix(r0, r0 + rs, c0, c0 + cs)
                        if not blk.is_zero():
                            grid[bi][bj][(n, j)] = blk
                    c0 += cs
                r0 += rs
        return [
            [
                GradedMorphism._trusted(src_objs[bj], tgt_objs[bi], grid[bi][bj])
                for bj in range(len(src_objs))
            ]
            for bi in range(len(tgt_objs))
        ]

    def hom_dim(self, X, Y):
        return sum(X.rank(j) * Y.rank(j + n) for n, j in self._slots(X, Y))

    def mor_to_vec(self, f, X, Y):
        vec: List = []
        comps = f.components
        for n, j in self._slots(X, Y):
            m = comps.get((n, j))
            vec.extend([0] * (Y.rank(j + n) * X.rank(j)) if m is None else m.entries)
        return vec

    def vec_to_mor(self, vec, X, Y):
        comps = {}
        pos = 0
        for n, j in self._slots(X, Y):
            r, c = Y.rank(j + n), X.rank(j)
            entries = list(vec[pos : pos + r * c])
            if any(entries):
                comps[(n, j)] = RingMatrix._trusted(self.ring, r, c, entries)
            pos += r * c
        if pos != len(vec):
            raise ValueError("coordinate vector has wrong length")
        return GradedMorphism._trusted(X, Y, comps)

    def _offsets(self, X, Y) -> Dict[Tuple[int, int], int]:
        """Hom coordinate at which each slot (n, j) of Hom(X, Y) starts."""
        out, pos = {}, 0
        for n, j in self._slots(X, Y):
            out[(n, j)] = pos
            pos += Y.rank(j + n) * X.rank(j)
        return out

    def hom_blocks(self, left, right, X, Y, A, B):
        left_ends = (Y, Y) if left is None else (left.source, left.target)
        right_ends = (X, X) if right is None else (right.source, right.target)
        if left_ends != (Y, B) or right_ends != (A, X):
            raise ValueError("term does not map Hom(X, Y) into Hom(A, B)")
        # (left u right)_{p+q+r}^J = sum left_p^{J+q+r} u_q^{J+r} right_r^J
        if right is None:
            rights = [((0, j), None) for j in X.support]
        else:
            rights = right.components.items()
        if left is None:
            lefts = [((0, t), None) for t in Y.support]
        else:
            lefts = left.components.items()
        u_off, e_off = self._offsets(X, Y), self._offsets(A, B)
        blocks = []
        for (r, J), R in rights:
            for (p, t), L in lefts:
                if t >= J + r:
                    blocks.append((e_off[(p + t - J, J)], u_off[(t - J - r, J + r)],
                                   L, R, Y.rank(t), X.rank(J + r)))
        return blocks

    def obj_to_json(self, X):
        return X.to_json()

    def obj_from_json(self, d):
        return GradedObject.from_json(d)

    def mor_to_json(self, f):
        return {
            "components": [
                {"n": n, "j": j, "matrix": m.to_json()}
                for (n, j), m in sorted(f.components.items())
            ]
        }

    def mor_from_json(self, d, X, Y):
        comps = json_unique([
            ((json_int(c["n"], "n"), json_int(c["j"], "j")), json_matrix(c["matrix"], self.ring))
            for c in d["components"]
        ], "component (n, j)")
        return GradedMorphism(X, Y, comps)

    def to_json(self):
        return {"kind": self.kind, "inner": self.inner.to_json()}


# ---------------------------------------------------------------------------
# EtaPower: same category, (1) replaced by (m), eta by eta^m
# ---------------------------------------------------------------------------


class EtaPower:
    """Derived instance with shift (m) and eta^m_X = eta_X eta_{X(1)} ... eta_{X(m-1)}.

    Every attribute it does not define itself is the inner instance's,
    ``degree_zero()`` among them, as the degree-0 part does not involve eta.
    """

    kind = "eta-power"

    def __init__(self, inner: BaseInstance, m: int):
        if m < 1:
            raise ValueError("eta power must be >= 1")
        self.inner = inner
        self.m = m
        self.ring = inner.ring

    def __eq__(self, other):
        return isinstance(other, EtaPower) and self.inner == other.inner and self.m == other.m

    def __hash__(self):
        return hash(("eta-power", self.inner, self.m))

    def __repr__(self):
        return f"EtaPower({self.inner!r}, m={self.m})"

    def shift_obj(self, X, k):
        return self.inner.shift_obj(X, self.m * k)

    def shift_mor(self, f, k):
        return self.inner.shift_mor(f, self.m * k)

    def eta(self, X):
        inner = self.inner
        f = inner.eta(inner.shift_obj(X, self.m - 1))
        for i in range(self.m - 2, -1, -1):
            f = inner.compose(inner.eta(inner.shift_obj(X, i)), f)
        return f

    def eta_quotient(self):
        """eta^m = c^m Id over ``ScalarEta(R, c)``; None over ``Graded``."""
        inner = self.inner
        if isinstance(inner, EtaPower):
            return EtaPower(inner.inner, inner.m * self.m).eta_quotient()
        if isinstance(inner, ScalarEta):
            return ScalarQuotient.of(self.ring, self.ring.canon(inner.r ** self.m))
        return None

    def to_json(self):
        return {"kind": self.kind, "m": self.m, "inner": self.inner.to_json()}

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "inner"), name)


# ---------------------------------------------------------------------------
# Quotients by eta: where eta is mono, phi = eta a for some a iff phi vanishes
# in the quotient, and a = phi / eta is then unique
# ---------------------------------------------------------------------------
#
# Both quotients cut an object into pieces keyed by grade (one piece, grade
# 0, for a free module), and a morphism into blocks between pieces of one
# grade: ``pieces(X)`` and ``reduce(f)`` give the nonzero ones, in order.
# ``instance`` is the instance the blocks live in, None where the quotient is
# 0; ``lift(blocks, X, Y)`` is a morphism X -> Y with those blocks, an absent
# one zero, and ``divide(phi, X, Y)`` the a: X -> Y with eta a = phi, for a
# phi that vanishes in the quotient (None for a = 0).  ``degree_zero()`` is
# the quotient by 0 over ``ScalarEta`` and by t over ``Graded``: a morphism
# has a one-sided inverse iff its blocks there do.


class ScalarQuotient:
    """eta = c Id over R, for c = 0 or c a non-zero-divisor.

    A unit c has R/cR = 0 and a = c^-1 phi.  Over Z with |c| >= 2 the blocks
    are the entries mod c, over GF(|c|) when |c| is prime and Z/|c| else; a
    block lifts to its entries in [0, |c|), and phi divides by c exactly.
    eta = 0 is not mono, but eta a = 0 for every a: the quotient is R itself
    and a = 0 works."""

    def __init__(self, ring: CoeffRing, c, instance):
        self.ring, self.c, self.instance = ring, c, instance

    @staticmethod
    def of(ring: CoeffRing, c) -> "ScalarQuotient":
        """The quotient by c Id, or None where c is a zero-divisor other than 0
        (a non-unit c != 0 of Z/m) or |c| is too large to decide primality."""
        if c == 0:
            return ScalarQuotient(ring, c, ScalarEta(ring, 0))
        if ring.is_unit(c):
            return ScalarQuotient(ring, c, None)
        if ring != ZZ or abs(c) >= _MR_BOUND:
            return None
        q = abs(c)
        return ScalarQuotient(ring, c, ScalarEta(GF(q) if _is_prime(q) else Zmod(q), 0))

    def pieces(self, X) -> Dict[int, int]:
        return {0: X} if X else {}

    def reduce(self, f) -> Dict[int, RingMatrix]:
        if f is None:
            return {}
        if self.c:
            ring = self.instance.ring
            f = RingMatrix._trusted(ring, f.rows, f.cols, [x % ring.modulus for x in f.entries])
        return {} if f.is_zero() else {0: f}

    def lift(self, blocks, X, Y) -> RingMatrix:
        m = blocks.get(0)
        if m is None:
            return RingMatrix.zero(self.ring, Y, X)
        return RingMatrix._trusted(self.ring, m.rows, m.cols, m.entries)

    def divide(self, phi: RingMatrix, X, Y):
        c = self.c
        if not c:
            return None
        if self.instance is None:
            return phi if c == 1 else phi.scale(self.ring.inv(c))
        return RingMatrix._trusted(self.ring, phi.rows, phi.cols, [x // c for x in phi.entries])


class GradedQuotient:
    """eta = t over ``Graded(inner)``: the quotient by t is level 0, whose
    blocks f_0^j: X^j -> Y^j live in the inner instance, grade by grade; phi
    with phi_0 = 0 divides by t by moving down one level."""

    def __init__(self, inner):
        self.instance = inner

    def pieces(self, X: GradedObject) -> Dict[int, int]:
        return {j: X.ranks[j] for j in X.support}

    def reduce(self, f) -> Dict[int, RingMatrix]:
        return {} if f is None else {j: m for (k, j), m in f.components.items() if not k}

    def lift(self, blocks, X, Y) -> GradedMorphism:
        return GradedMorphism._trusted(X, Y, {(0, j): m for j, m in blocks.items()})

    def divide(self, phi: GradedMorphism, X, Y) -> GradedMorphism:
        return GradedMorphism._trusted(X, Y, {(k - 1, j): m for (k, j), m in phi.components.items()})


def instance_from_json(d) -> BaseInstance:
    kind = d["kind"]
    if kind == "scalar-eta":
        ring = CoeffRing.from_json(d["ring"])
        return ScalarEta(ring, ring.elem_from_str(d["r"]))
    if kind == "graded":
        return Graded(instance_from_json(d["inner"]))
    if kind == "eta-power":
        return EtaPower(instance_from_json(d["inner"]), json_int(d["m"], "eta power"))
    raise ValueError(f"unknown instance kind {kind!r}")
