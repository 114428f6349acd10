"""Bigraded systems with higher differentials and the totalization pipeline.

A ``GSystem`` is a bigraded family of free modules X^{ij} with higher
differentials d_n subject to convolution relations.  It stores one complex
over the ``Graded`` instance: X^{ij} is degree j of its object in degree i,
and d_n^{ij} is component (n, j) of its differential in degree i.  A
``GMorphism`` stores one chain map between its endpoints' complexes.  The
convolution relations are d^2 = 0 and f d = d f over Graded, so the complex
layer checks them.  Two index conventions read the stored form:

* ``CGRA``: d_n: X^{ij} -> X^{i+1,j+n} -- the complex's own indices, the
  unfolding of a complex of graded objects (degree i is the complex
  direction, j the grading).
* ``GA``: d_n has bidegree (1-n, n); position (a, j) is complex degree a + j.

``psi``/``psi_inv`` exchange the conventions by relabelling, without copying,
and ``gsystem_to_complex``/``gmorphism_to_chain_map`` return the stored
objects.

``DeltaComplex`` is the weaker input datum: the GA system at levels 0 and 1
only, with a strict differential delta0 = d_0 in the i direction and a
strictly commuting delta1 = d_1 in the j direction whose square is only
null-homotopic.  Its relations are ``validate_delta``'s, not the convolution
relations.  A ``DeltaMap`` stores one level-0 GMorphism, whose chain-map
relations are the two strict squares.  ``theta_extend`` completes a
DeltaComplex to a full GSystem by solving the level-n relations inductively;
``totalize`` collapses a GSystem to an ordinary complex by summing the
grading; ``phi`` is the composite, and ``xi_cone_identity`` checks
Xi(cone(eta_V)) = cone(Id_{Xi(V)}) as a chain map.  ``theta_extend_mor``
extends a column-wise map, and ``eta_null_complete`` grows a two-term homotopy
seed, found by ``find_seed``, into a full eta-homotopy certificate; each
solves all levels of its family as one system and re-solves level prefixes
only to locate an obstruction.  All four bigraded solves work in CgrA and pose
their level-n equations u d_X +- d_Y u = R through one level builder,
``_solve_levels``, over a range of levels: ``theta_extend`` one level n >= 2
at a time, ``theta_extend_mor`` and ``eta_null_complete`` levels 1 to the top,
and ``find_seed`` levels -1 and 0 of ``eta_null_complete``'s family.  R is one
``Graded.compose`` composite by degree (-d d, d f_0 - f_0 d, the seeds'
reindexed residual or f itself).  ``_solve_levels`` registers the unknowns,
and ``_add_equation`` writes each equation, whose rhs is a component of R and
whose factors are stored components.  A zero component is absent: the store
drops it, ``_solve_levels`` returns only nonzero blocks ({} for a range where
R has no component, which it does not pose), and the readers here take None
for it; only the public accessors build zeros.  ``validate_delta`` reads its
relations off one composite, -d d with d_1 signed, and poses delta1^2's
null-homotopy as one level-2 system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .base import Graded, GradedMorphism, GradedObject, ScalarEta, json_int, json_matrix, json_pos, json_unique
from .complexes import (
    ChainMap,
    Complex,
    HomotopyCertificate,
    LinearProblem,
    _compose,
    _sub,
    apply_auto,
    compose_chain_maps,
    cone_complex,
    eta_before,
    eta_chain_map,
    id_chain_map,
    shift_complex,
    validate_chain_map,
    validate_complex,
    verify,
    zero_chain_map,
)
from .matrix import RingMatrix
from .rings import CoeffRing

CGRA = "CgrA"
GA = "GA"

# Mutation knobs (see the suite's sensitivity properties).
# _XI_SIGN scales the degree-n block of a totalized morphism by sign**n;
# the correct value is +1.  _THETA_PARITY selects the sign twist on the
# j-direction differential: "column" means (-1)**j (the implemented
# convention), "total" means (-1)**i (exposed for comparison only).
_XI_SIGN = 1
_THETA_PARITY = "column"


@dataclass
class Obstruction:
    """A failed construction step; falsy so callers can branch on it."""

    stage: str
    level: int
    position: Optional[Tuple[int, int]] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return False

    def to_json(self):
        return {
            "obstruction": self.stage,
            "level": self.level,
            "position": list(self.position) if self.position else None,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# GSystem / GMorphism
# ---------------------------------------------------------------------------


class GSystem:
    """Bigraded object with higher differentials, stored as one complex over Graded.

    ``complex`` lives over ``graded_complex_instance(ring)``: X^{ij} is
    degree j of its object in degree i, and d_n^{ij} is component (n, j) of
    its differential in degree i (the CgrA reading).  A GA system is the
    same complex read through ``psi``: its position (a, j) is complex degree
    a + j.  ``ranks`` and ``diffs`` are views: dicts computed from the
    complex on each read, keyed in the system's own convention and in
    sorted key order.
    """

    __slots__ = ("convention", "complex")

    def __init__(
        self,
        ring: CoeffRing,
        ranks: Dict[Tuple[int, int], int],
        diffs: Dict[Tuple[int, int, int], RingMatrix],
        convention: str = CGRA,
    ):
        self._fill(ring, ranks, diffs, convention, GradedMorphism)

    @classmethod
    def _trusted(cls, ring: CoeffRing, ranks, diffs, convention: str = CGRA) -> "GSystem":
        """The system of ``GSystem(...)`` without its component checks: each
        matrix in ``diffs`` is nonzero and of its position's shape."""
        x = object.__new__(cls)
        x._fill(ring, ranks, diffs, convention, GradedMorphism._trusted)
        return x

    def _fill(self, ring: CoeffRing, ranks, diffs, convention: str, morphism) -> None:
        if convention not in (CGRA, GA):
            raise ValueError(f"unknown convention {convention!r}")
        self.convention = convention
        ga = convention == GA
        by_i: Dict[int, Dict[int, int]] = {}
        for (i, j), r in ranks.items():
            by_i.setdefault(i + j if ga else i, {})[j] = r
        objects = {i: GradedObject(rs) for i, rs in by_i.items()}
        comps: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {}
        for (n, i, j), m in diffs.items():
            comps.setdefault(i + j if ga else i, {})[(n, j)] = m
        zero = GradedObject({})
        self.complex = Complex(graded_complex_instance(ring), objects, {
            i: morphism(objects.get(i, zero), objects.get(i + 1, zero), cs)
            for i, cs in comps.items()
        })

    @classmethod
    def _of(cls, c: Complex, convention: str) -> "GSystem":
        """The system whose stored complex is c, read in ``convention``."""
        x = object.__new__(cls)
        x.convention = convention
        x.complex = c
        return x

    @property
    def ring(self) -> CoeffRing:
        return self.complex.instance.ring

    @property
    def ranks(self) -> Dict[Tuple[int, int], int]:
        ga = self.convention == GA
        return dict(sorted([
            ((i - j if ga else i, j), r)
            for i, X in self.complex.objects.items() for j, r in X.ranks.items()
        ]))

    @property
    def diffs(self) -> Dict[Tuple[int, int, int], RingMatrix]:
        ga = self.convention == GA
        return dict(sorted([
            ((n, i - j if ga else i, j), m)
            for i, d in self.complex.diffs.items() for (n, j), m in d.components.items()
        ]))

    def rank(self, i: int, j: int) -> int:
        X = self.complex.objects.get(i + j if self.convention == GA else i)
        return 0 if X is None else X.ranks.get(j, 0)

    def diff(self, n: int, i: int, j: int) -> RingMatrix:
        return self.complex.diff(i + j if self.convention == GA else i).component(n, j, self.ring)

    @property
    def positions(self) -> List[Tuple[int, int]]:
        ga = self.convention == GA
        return sorted([(i - j if ga else i, j) for i, X in self.complex.objects.items() for j in X.ranks])

    def max_level(self) -> int:
        return max((n for d in self.complex.diffs.values() for (n, _) in d.components), default=0)

    def is_zero(self) -> bool:
        return self.complex.is_zero()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.convention == other.convention
            and self.complex == other.complex
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.convention}, positions={self.positions})"

    def to_json(self):
        return {
            "convention": self.convention,
            "ring": self.ring.to_json(),
            "ranks": [
                {"i": i, "j": j, "rank": r} for (i, j), r in self.ranks.items()
            ],
            "diffs": [
                {"n": n, "i": i, "j": j, "matrix": m.to_json()}
                for (n, i, j), m in self.diffs.items()
            ],
        }

    @staticmethod
    def from_json(d) -> "GSystem":
        ring = CoeffRing.from_json(d["ring"])
        ranks = json_unique([(json_pos(e), json_int(e["rank"], "rank")) for e in d["ranks"]], "rank position")
        diffs = json_unique([
            ((json_int(e["n"], "n"), *json_pos(e)), json_matrix(e["matrix"], ring)) for e in d["diffs"]
        ], "diff (n, i, j)")
        return GSystem(ring, ranks, diffs, d["convention"])


class GMorphism:
    """Morphism of GSystems: components f_n of degree (0,n) (CGRA) / (-n,n) (GA).

    Stored as one ``chain_map`` between the endpoints' complexes: f_n^{ij}
    is component (n, j) of its graded morphism in the complex degree of
    (i, j).  ``components`` is a view in the same way, keyed in the
    endpoints' convention and in sorted key order.
    """

    __slots__ = ("source", "target", "chain_map")

    def __init__(
        self,
        source: GSystem,
        target: GSystem,
        components: Dict[Tuple[int, int, int], RingMatrix],
    ):
        if source.ring != target.ring or source.convention != target.convention:
            raise ValueError("GMorphism endpoints disagree on ring or convention")
        self.source = source
        self.target = target
        ga = source.convention == GA
        by_i: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {}
        for (n, i, j), m in components.items():
            by_i.setdefault(i + j if ga else i, {})[(n, j)] = m
        cx, cy = source.complex, target.complex
        self.chain_map = ChainMap(cx, cy, {
            i: GradedMorphism(cx.obj(i), cy.obj(i), cs) for i, cs in by_i.items()
        })

    @staticmethod
    def _of(source: GSystem, target: GSystem, f: ChainMap) -> "GMorphism":
        """The morphism whose stored chain map is f, between source and target."""
        g = object.__new__(GMorphism)
        g.source = source
        g.target = target
        g.chain_map = f
        return g

    @property
    def components(self) -> Dict[Tuple[int, int, int], RingMatrix]:
        ga = self.source.convention == GA
        return dict(sorted([
            ((n, i - j if ga else i, j), m)
            for i, g in self.chain_map.components.items() for (n, j), m in g.components.items()
        ]))

    def comp(self, n: int, i: int, j: int) -> RingMatrix:
        g = self.chain_map.component(i + j if self.source.convention == GA else i)
        return g.component(n, j, self.source.ring)

    def max_level(self) -> int:
        return max(
            (n for g in self.chain_map.components.values() for (n, _) in g.components),
            default=0,
        )

    def is_zero(self) -> bool:
        return self.chain_map.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, GMorphism)
            and self.source.convention == other.source.convention
            and self.chain_map == other.chain_map
        )

    def __repr__(self):
        return f"GMorphism(levels at {sorted(self.components)})"


def validate_gsystem(x: GSystem) -> bool:
    """The convolution relations sum_{p+q=n} d_p d_q = 0: d^2 = 0 over Graded."""
    return validate_complex(x.complex)


def validate_gmorphism(f: GMorphism) -> bool:
    """The intertwining relations sum f_p d_{X,q} = sum d_{Y,p} f_q: a chain map over Graded."""
    return validate_chain_map(f.chain_map)


def gs_compose(g: GMorphism, f: GMorphism) -> GMorphism:
    if f.target != g.source:
        raise ValueError("GMorphisms not composable")
    return GMorphism._of(f.source, g.target, compose_chain_maps(g.chain_map, f.chain_map))


def shift_gsystem(x: GSystem) -> GSystem:
    """The composite [1](1): reindex by (i+1, j+1) and negate every level."""
    if x.convention != CGRA:
        raise ValueError("shift_gsystem is defined in the CgrA convention")
    return GSystem._of(apply_auto(shift_complex(x.complex, 1), 1), CGRA)


# ---------------------------------------------------------------------------
# psi / psi_inv: reindexing between the two conventions
# ---------------------------------------------------------------------------


def psi(x: GSystem) -> GSystem:
    """GA -> CgrA, position (a, j) lands at (a + j, j)."""
    if x.convention != GA:
        raise ValueError("psi expects the GA convention")
    return GSystem._of(x.complex, CGRA)


def psi_inv(x: GSystem) -> GSystem:
    """CgrA -> GA, position (i, j) lands at (i - j, j)."""
    if x.convention != CGRA:
        raise ValueError("psi_inv expects the CgrA convention")
    return GSystem._of(x.complex, GA)


def psi_mor(f: GMorphism) -> GMorphism:
    return GMorphism._of(psi(f.source), psi(f.target), f.chain_map)


def psi_inv_mor(f: GMorphism) -> GMorphism:
    return GMorphism._of(psi_inv(f.source), psi_inv(f.target), f.chain_map)


# ---------------------------------------------------------------------------
# GSystem[CgrA] <-> complex over the Graded instance
# ---------------------------------------------------------------------------


def graded_complex_instance(ring: CoeffRing) -> Graded:
    return Graded(ScalarEta(ring, ring.one()))


def gsystem_to_complex(x: GSystem) -> Complex:
    if x.convention != CGRA:
        raise ValueError("conversion expects the CgrA convention")
    return x.complex


def complex_to_gsystem(c: Complex) -> GSystem:
    inst = c.instance
    if not isinstance(inst, Graded):
        raise ValueError("conversion expects a complex over a Graded instance")
    return GSystem._of(Complex(graded_complex_instance(inst.ring), c.objects, c.diffs), CGRA)


def gmorphism_to_chain_map(f: GMorphism) -> ChainMap:
    if f.source.convention != CGRA:
        raise ValueError("conversion expects the CgrA convention")
    return f.chain_map


def chain_map_to_gmorphism(f: ChainMap) -> GMorphism:
    src = complex_to_gsystem(f.source)
    tgt = complex_to_gsystem(f.target)
    return GMorphism._of(src, tgt, ChainMap(src.complex, tgt.complex, f.components))


# ---------------------------------------------------------------------------
# totalization (Xi)
# ---------------------------------------------------------------------------


def xi_mor(f: GradedMorphism, ring: CoeffRing) -> RingMatrix:
    """Collapse a graded morphism to the lower-triangular block matrix."""
    src = f.source.support
    tgt = f.target.support
    rows = [f.target.rank(t) for t in tgt]
    cols = [f.source.rank(j) for j in src]
    grid: List[List[Optional[RingMatrix]]] = []
    for t in tgt:
        row: List[Optional[RingMatrix]] = []
        for j in src:
            m = f.components.get((t - j, j))  # None where t < j: no component has n < 0
            if m is not None and _XI_SIGN != 1 and (t - j) % 2 == 1:
                m = m.scale(_XI_SIGN)
            row.append(m)
        grid.append(row)
    return RingMatrix.block(ring, grid, rows, cols)


def totalize_complex(c: Complex) -> Complex:
    """Xi applied degreewise to a complex over a Graded instance."""
    inst = c.instance
    if not isinstance(inst, Graded):
        raise ValueError("totalization expects a complex over a Graded instance")
    ring = inst.ring
    tot = ScalarEta(ring, ring.one())
    objects = {i: X.total_rank() for i, X in c.objects.items()}
    return Complex(tot, objects, {i: xi_mor(d, ring) for i, d in c.diffs.items()})


def totalize_chain_map(f: ChainMap) -> ChainMap:
    ring = f.instance.ring
    return ChainMap(
        totalize_complex(f.source),
        totalize_complex(f.target),
        {i: xi_mor(g, ring) for i, g in f.components.items()},
    )


def totalize(x: GSystem) -> Complex:
    if x.convention != CGRA:
        raise ValueError("totalize expects the CgrA convention")
    return totalize_complex(x.complex)


def totalize_mor(f: GMorphism) -> ChainMap:
    return totalize_chain_map(gmorphism_to_chain_map(f))


def xi_dsum_permutation(
    ring: CoeffRing, parts: List[GradedObject]
) -> RingMatrix:
    """Matrix of the canonical iso  (+)_k Xi(parts[k]) -> Xi((+)_k parts[k]).

    One block matrix of identity blocks (part k, degree j): the source
    concatenates them part by part, the target sorts them by (j, k).
    """
    src = [(k, j) for k, X in enumerate(parts) for j in X.support]
    tgt = sorted(src, key=lambda kj: (kj[1], kj[0]))
    size = {(k, j): parts[k].rank(j) for k, j in src}
    grid = [[RingMatrix.identity(ring, size[t]) if t == s else None for s in src] for t in tgt]
    return RingMatrix.block(ring, grid, [size[t] for t in tgt], [size[s] for s in src])


def xi_cone_identity(v: GSystem) -> bool:
    """Xi(cone(eta_V)) equals cone(Id_{Xi(V)}) after the canonical reordering.

    The cone interleaves the two graded summands degree by degree before
    totalizing, so the permutations that separate them again must form a
    chain map cone(Id_{Xi(V)}) -> Xi(cone(eta_V)) between equal objects.
    """
    cv = gsystem_to_complex(v)
    eta = eta_chain_map(cv)
    lhs = totalize_complex(cone_complex(eta))
    rhs = cone_complex(id_chain_map(totalize_complex(cv)))
    # degree i of either cone is V^{i+1}(1) then V^i before reordering
    perms = {i: xi_dsum_permutation(v.ring, [eta.source.obj(i + 1), cv.obj(i)]) for i in lhs.objects}
    return lhs.objects == rhs.objects and validate_chain_map(ChainMap(rhs, lhs, perms))


# ---------------------------------------------------------------------------
# linear systems whose unknowns are plain matrices
# ---------------------------------------------------------------------------


class MatrixProblem(LinearProblem):
    """Affine equations  sum_k sign_k * L_k U_{key_k} R_k = rhs  in matrix unknowns.

    The ``LinearProblem`` of ``ScalarEta(ring, 1)``: a rows x cols unknown
    is a morphism cols -> rows, a rows x cols equation lives in Hom(cols, rows).
    """

    def __init__(self, ring: CoeffRing):
        super().__init__(ScalarEta(ring, 1))

    def add_unknown(self, key, rows: int, cols: int):
        super().add_unknown(key, cols, rows)

    def add_equation(self, shape: Tuple[int, int], terms, rhs: Optional[RingMatrix] = None):
        """terms: list of (key, left, right, sign); left/right None = identity."""
        super().add_equation(shape[1], shape[0], terms, rhs)

    # bound here too, so that a tracer wrapping these methods on this class
    # tells matrix-unknown solves apart from LinearProblem's
    solve = LinearProblem.solve
    solve_full = LinearProblem.solve_full


# ---------------------------------------------------------------------------
# DeltaComplex and column-wise chain maps
# ---------------------------------------------------------------------------


class DeltaComplex(GSystem):
    """Bigraded family with a strict i-differential and a commuting j-map.

    The GA system with levels 0 and 1 only: delta0^{ij} = d_0^{ij}:
    X^{ij} -> X^{i+1,j} squares to zero; delta1^{ij} = d_1^{ij}:
    X^{ij} -> X^{i,j+1} commutes strictly with delta0 and its square is
    only required to be null-homotopic with respect to delta0, column by
    column (a level-2 system of ``psi``).  Those are ``validate_delta``'s
    relations, not the convolution relations.
    ``ranks``, ``delta0`` and ``delta1`` are views in sorted (i, j) order.
    """

    __slots__ = ()

    def __init__(
        self,
        ring: CoeffRing,
        ranks: Dict[Tuple[int, int], int],
        delta0: Dict[Tuple[int, int], RingMatrix],
        delta1: Dict[Tuple[int, int], RingMatrix],
    ):
        super().__init__(ring, ranks, _delta_diffs(delta0, delta1), GA)

    def _level(self, n: int) -> Dict[Tuple[int, int], RingMatrix]:
        return {(i, j): m for (k, i, j), m in self.diffs.items() if k == n}

    @property
    def delta0(self) -> Dict[Tuple[int, int], RingMatrix]:
        return self._level(0)

    @property
    def delta1(self) -> Dict[Tuple[int, int], RingMatrix]:
        return self._level(1)

    def d0(self, i: int, j: int) -> RingMatrix:
        return self.diff(0, i, j)

    def d1(self, i: int, j: int) -> RingMatrix:
        return self.diff(1, i, j)

    @property
    def columns(self) -> List[int]:
        return sorted({j for X in self.complex.objects.values() for j in X.ranks})

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "ranks": [{"i": i, "j": j, "rank": r} for (i, j), r in self.ranks.items()],
            "delta0": [{"i": i, "j": j, "matrix": m.to_json()} for (i, j), m in self.delta0.items()],
            "delta1": [{"i": i, "j": j, "matrix": m.to_json()} for (i, j), m in self.delta1.items()],
        }

    @staticmethod
    def from_json(d) -> "DeltaComplex":
        ring = CoeffRing.from_json(d["ring"])
        ranks = json_unique([(json_pos(e), json_int(e["rank"], "rank")) for e in d["ranks"]], "rank position")
        d0, d1 = (
            json_unique([(json_pos(e), json_matrix(e["matrix"], ring)) for e in d[key]], f"{key} position")
            for key in ("delta0", "delta1")
        )
        return DeltaComplex(ring, ranks, d0, d1)


def _delta_diffs(delta0, delta1) -> Dict[Tuple[int, int, int], RingMatrix]:
    """The GA diffs of levels 0 and 1, keyed (n, i, j)."""
    return {(n, i, j): m for n, d in enumerate((delta0, delta1)) for (i, j), m in d.items()}


def validate_delta(x: DeltaComplex) -> bool:
    """delta0^2 = 0, strict commutation, delta1^2 null-homotopic columnwise.

    All three read off -d d over Graded for psi(x) with d_1 signed by
    (-1)^i, i the CgrA degree.  Its level 0 is -delta0^2, its level 1 is
    +-(delta0 delta1 - delta1 delta0), and its level 2 is delta1^2, the rhs
    of u_2 d_0 + d_0 u_2 = delta1^2 (u_2 maps column j to column j + 2, one
    null-homotopy per column), which poses nothing when delta1^2 = 0.
    """
    y = _sign_level1(psi(x), lambda i, j: -1 if i % 2 else 1)
    R = _minus_square(y.complex)
    if any(n < 2 for r in R.values() for (n, _) in r.components):
        return False
    sol, _ = _solve_levels(y, y, 1, 1, R, 2, 2)
    return sol is not None


class DeltaMap:
    """Column-wise chain map between DeltaComplexes, strict in both directions.

    Stored as one level-0 ``morphism`` between the endpoints; ``components``
    is a view in sorted (i, j) order.
    """

    __slots__ = ("morphism",)

    def __init__(
        self,
        source: DeltaComplex,
        target: DeltaComplex,
        components: Dict[Tuple[int, int], RingMatrix],
    ):
        self.morphism = GMorphism(source, target, {(0, i, j): m for (i, j), m in components.items()})

    @property
    def source(self) -> DeltaComplex:
        return self.morphism.source

    @property
    def target(self) -> DeltaComplex:
        return self.morphism.target

    @property
    def components(self) -> Dict[Tuple[int, int], RingMatrix]:
        return {(i, j): m for (_, i, j), m in self.morphism.components.items()}

    def comp(self, i: int, j: int) -> RingMatrix:
        return self.morphism.comp(0, i, j)

    def __eq__(self, other):
        return isinstance(other, DeltaMap) and self.morphism == other.morphism


def validate_delta_map(f: DeltaMap) -> bool:
    """f d = d f over Graded: its levels 0 and 1 are the strict squares with delta0 and delta1."""
    return validate_gmorphism(f.morphism)


def shift_delta(x: DeltaComplex) -> DeltaComplex:
    """[1] in the j direction: ranks (i,j) -> X^{i,j+1}, delta0 negated."""
    ranks = {(i, j - 1): r for (i, j), r in x.ranks.items()}
    d0 = {(i, j - 1): -m for (i, j), m in x.delta0.items()}
    d1 = {(i, j - 1): m for (i, j), m in x.delta1.items()}
    return DeltaComplex._trusted(x.ring, ranks, _delta_diffs(d0, d1), GA)


def cone_delta(f: DeltaMap) -> DeltaComplex:
    """Mapping cone in the j direction: X^{i,j+1} (+) Y^{ij} columnwise.

    delta0 stays block-diagonal (keeping the strict-commutation invariant);
    the sign and the glue component f sit inside delta1.
    """
    X, Y = f.source, f.target
    ring = X.ring
    keys = sorted(
        {(i, j - 1) for (i, j) in X.ranks} | set(Y.ranks)
    )
    ranks = {(i, j): X.rank(i, j + 1) + Y.rank(i, j) for (i, j) in keys}
    xd, yd, fs = X.complex.diffs, Y.complex.diffs, f.morphism.chain_map.components
    d0: Dict[Tuple[int, int], RingMatrix] = {}
    d1: Dict[Tuple[int, int], RingMatrix] = {}
    for (i, j) in keys:
        k = i + j  # the complex degree of GA position (i, j)
        cols = [X.rank(i, j + 1), Y.rank(i, j)]
        x0, x1 = _part(xd, k + 1, 0, j + 1), _part(xd, k + 1, 1, j + 1)
        _put_block(d0, (i, j), ring, [[x0, None], [None, _part(yd, k, 0, j)]],
                   [X.rank(i + 1, j + 1), Y.rank(i + 1, j)], cols)
        grid = [[None if x1 is None else -x1, None], [_part(fs, k + 1, 0, j + 1), _part(yd, k, 1, j)]]
        _put_block(d1, (i, j), ring, grid, [X.rank(i, j + 2), Y.rank(i, j + 1)], cols)
    return DeltaComplex._trusted(ring, ranks, _delta_diffs(d0, d1), GA)


# ---------------------------------------------------------------------------
# theta: inductive extension of a DeltaComplex to a GSystem
# ---------------------------------------------------------------------------


def _theta_sign(i: int, j: int):
    if _THETA_PARITY == "column":
        return -1 if j % 2 else 1
    if _THETA_PARITY == "total":
        return -1 if i % 2 else 1
    raise ValueError(f"unknown parity {_THETA_PARITY!r}")


def _sign_level1(y: GSystem, sign) -> GSystem:
    """The CgrA system y with its level-1 component at (i, j) scaled by sign(i, j)."""
    c = y.complex
    diffs = {i: GradedMorphism._trusted(d.source, d.target, {
        (n, j): -m if n == 1 and sign(i, j) == -1 else m for (n, j), m in d.components.items()
    }) for i, d in c.diffs.items()}
    return GSystem._of(Complex(c.instance, c.objects, diffs), CGRA)


def _theta_seed(x: DeltaComplex) -> GSystem:
    """Levels 0 and 1 of the extension: psi of x, with level 1 signed by ``_theta_sign``."""
    return _sign_level1(psi(x), _theta_sign)


def _minus_square(c: Complex) -> Dict[int, GradedMorphism]:
    """-(d d) over Graded, by degree i where d^i and d^{i+1} are both stored
    (elsewhere it is zero); its level n is -sum_{p+q=n} d_p d_q."""
    inst, diffs = c.instance, c.diffs
    return {i: inst.hom_negate(inst.compose(diffs[i + 1], d)) for i, d in diffs.items() if i + 1 in diffs}


def _with_blocks(maps: Dict[int, GradedMorphism], blocks, X: Complex, Y: Complex, di: int):
    """``maps``, degree i -> a graded morphism X^i -> Y^{i+di}, with each
    solved block {(n, i, j): m} of ``_solve_levels`` added as its component
    (n, j) in degree i; a block is nonzero and of the slot's shape."""
    comps = {i: dict(f.components) for i, f in maps.items()}
    for (n, i, j), m in blocks.items():
        comps.setdefault(i, {})[(n, j)] = m
    return {i: GradedMorphism._trusted(X.obj(i), Y.obj(i + di), cs) for i, cs in comps.items()}


def _part(maps: Dict[int, GradedMorphism], i: int, n: int, j: int) -> Optional[RingMatrix]:
    """Component (n, j) of the degree-i morphism in ``maps``; None where it is zero."""
    return maps[i].components.get((n, j)) if i in maps else None


def _put_block(out: dict, key, ring: CoeffRing, grid, rows: List[int], cols: List[int]) -> None:
    """out[key] = the block matrix of grid, whose None blocks are zero; nothing if all of them are."""
    if any(b is not None for row in grid for b in row):
        out[key] = RingMatrix.block(ring, grid, rows, cols)


def _add_equation(
    prob: MatrixProblem, X: GSystem, Y: GSystem, n: int, i: int, j: int, di: int, sign: int, R,
):
    """Write the level-n equation of  u d_X + sign * d_Y u = R  at (i, j).

    X and Y are CgrA systems; R maps degree i to a Graded composite X^i ->
    Y^{i+di+1}, whose component (n, j) is the rhs, None where it is zero.
    A u_k (-1 <= k <= n) that ``prob`` does not hold is known, and its terms
    belong in R; one that it holds poses a term where its factor d_X or d_Y
    is stored.  An equation with no u_k and no rhs says 0 = 0 and is left out.
    """
    er, ec = Y.rank(i + di + 1, j + n), X.rank(i, j)
    if not er or not ec:
        return
    b = _part(R, i, n, j)
    # u_k d_{X,n-k}, then d_{Y,n-k} u_k, for the u_k that prob holds
    terms = [((k, i + 1, j + n - k), None, _part(X.complex.diffs, i, n - k, j), 1) for k in range(n, -2, -1)]
    terms += [((k, i, j), _part(Y.complex.diffs, i + di, n - k, j + k), None, sign) for k in range(-1, n + 1)]
    terms = [t for t in terms if t[0] in prob.unknowns]
    if terms or b is not None:
        prob.add_equation((er, ec), [t for t in terms if t[1] is not None or t[2] is not None], b)


def _solve_levels(X: GSystem, Y: GSystem, di: int, sign: int, R, lo: int = 1, hi: Optional[int] = None):
    """Solve the level-n equations of ``_add_equation`` for n = lo..hi as one system.

    The unknowns are u_n: X^{ij} -> Y^{i+di, j+n}, keyed (n, i, j), for
    lo <= n <= hi; the u_k below lo are known and sit in the composite R
    of ``_add_equation``.  hi defaults to the top level, the largest grade
    of Y less the smallest grade of X less di, above which no u_n has both
    ends nonzero.  Returns
    (solution, None), or (None, n) for the first n whose system of levels
    lo..n is inconsistent.  The joint system is consistent iff every such
    prefix is, so the prefixes are solved only after it fails.  The
    solution holds the nonzero u_n only: an absent one is zero.

    A range where R has no component is homogeneous: the solver sets
    free variables to 0, so it is not posed and its solution is {}.
    Likewise the prefixes below R's first level are consistent and are
    not re-solved.
    """
    pos = X.positions
    if hi is None:
        yj = [j for _, j in Y.positions]
        hi = max(0, max(yj) - min(j for _, j in pos) - di) if pos and yj else 0
    first = min((n for r in R.values() for (n, _) in r.components if lo <= n <= hi), default=None)
    if first is None:
        return {}, None

    def through(n):
        prob = MatrixProblem(X.ring)
        for k in range(lo, n + 1):
            for (i, j) in pos:
                if Y.rank(i + di, j + k):
                    prob.add_unknown((k, i, j), Y.rank(i + di, j + k), X.rank(i, j))
            for (i, j) in pos:
                _add_equation(prob, X, Y, k, i, j, di, sign, R)
        return prob.solve()

    sol = through(hi)
    if sol is not None:
        return {key: m for key, m in sol.items() if not m.is_zero()}, None
    return None, next((n for n in range(first, hi) if through(n) is None), hi)


def theta_extend(x: DeltaComplex):
    """Complete (delta0, delta1) to a full system; Obstruction on failure.

    Level 0 and 1 are fixed by the convention (d_0 the reindexed delta0,
    d_1 the reindexed delta1 signed by ``_THETA_PARITY``); each level
    n >= 2 is one joint linear solve of
    d_0 d_n + d_n d_0 = -sum_{0<p<n} d_p d_{n-p}.
    """
    sys = _theta_seed(x)
    # R = -(d d) over Graded; level 1 is a check: d_0 d_1 + d_1 d_0 must vanish
    R = _minus_square(sys.complex)
    bad = [(i, j) for i, r in R.items() for (n, j) in r.components if n == 1]
    if bad:
        return Obstruction(
            "theta-extend", 1, min(bad),
            "level-1 relation fails: the signed j-map does not "
            "anticommute with the i-differential",
        )
    cols = x.columns
    width = (max(cols) - min(cols)) if cols else 0
    for n in range(2, width + 1):
        # the levels from n up are still 0, so R's level n is -sum_{0<p<n} d_p d_{n-p};
        # R is stale only after a level that added components
        if R is None:
            R = _minus_square(sys.complex)
        sol, _ = _solve_levels(sys, sys, 1, 1, R, n, n)
        if sol is None:
            return Obstruction(
                "theta-extend", n, None,
                f"level-{n} correction system is inconsistent",
            )
        if sol:
            c = sys.complex
            diffs = _with_blocks(c.diffs, sol, c, c, 1)
            sys, R = GSystem._of(Complex(c.instance, c.objects, diffs), CGRA), None
    verify(validate_gsystem(sys), "theta_extend: the completion fails the convolution relations")
    return sys


def theta_extend_mor(alpha: DeltaMap, xhat: GSystem, yhat: GSystem):
    """Extend a column-wise chain map to a morphism of the extensions.

    Every intertwining equation is linear in the whole family {f_n}, so
    all levels are solved as one joint system.  The reported obstruction
    level is the first n whose system of levels <= n is inconsistent,
    which is independent of any choice made at lower levels.
    """
    if xhat.convention != CGRA or yhat.convention != CGRA:
        raise ValueError("theta_extend_mor expects the CgrA convention")
    f0 = GMorphism(xhat, yhat, {(0, r + j, j): m for (r, j), m in alpha.components.items()})
    inst, f, X, Y = xhat.complex.instance, f0.chain_map, xhat.complex, yhat.complex
    # R = d_Y f_0 - f_0 d_X over Graded; level 0 is a check: f_0 must
    # already intertwine the strict differentials
    fs = f.components
    R = {}
    for i in X.objects:
        r = _sub(inst, _compose(inst, Y.diffs.get(i), fs.get(i)),
                 _compose(inst, fs.get(i + 1), X.diffs.get(i)))
        if r is not None:
            R[i] = r
    bad = [(i, j) for i, r in R.items() for (n, j) in r.components if n == 0]
    if bad:
        return Obstruction(
            "theta-extend-mor", 0, min(bad),
            "the column-wise map does not commute with the i-differential",
        )
    # level-n equation: sum_{q<n} f_{n-q} dX_q - sum_{q>0} dY_{n-q} f_q = R_n
    sol, level = _solve_levels(xhat, yhat, 0, -1, R)
    if sol is None:
        return Obstruction(
            "theta-extend-mor", level, None,
            f"the joint component system through level {level} is inconsistent",
        )
    out = GMorphism._of(xhat, yhat, ChainMap(X, Y, _with_blocks(fs, sol, X, Y, 0)))
    verify(validate_gmorphism(out), "theta_extend_mor: the extension is not a morphism")
    return out


def theta_cone_system(fhat: GMorphism) -> GSystem:
    """The extension of the cone, given by the block display.

    d_0 is block-diagonal with the shifted source part negated; each
    level n >= 1 carries f_{n-1} in the lower-left corner.  No strict
    sign convention on the cone of DeltaComplexes reproduces this
    system through theta_extend, so the cone extension is defined by
    this display and compared against the honest mapping cone.
    """
    X, Y = fhat.source, fhat.target
    ring = X.ring
    keys = sorted(
        {(i - 1, j - 1) for (i, j) in X.ranks} | set(Y.ranks)
    )
    ranks = {(i, j): X.rank(i + 1, j + 1) + Y.rank(i, j) for (i, j) in keys}
    levels = max(X.max_level(), Y.max_level(), fhat.max_level() + 1)
    diffs: Dict[Tuple[int, int, int], RingMatrix] = {}
    xd, yd, fs = X.complex.diffs, Y.complex.diffs, fhat.chain_map.components
    for n in range(levels + 1):
        for (i, j) in keys:
            x = _part(xd, i + 1, n, j + 1)
            grid = [[None if x is None else -x, None], [_part(fs, i + 1, n - 1, j + 1), _part(yd, i, n, j)]]
            _put_block(diffs, (n, i, j), ring, grid,
                       [X.rank(i + 2, j + n + 1), Y.rank(i + 1, j + n)], [X.rank(i + 1, j + 1), Y.rank(i, j)])
    return GSystem._trusted(ring, ranks, diffs, CGRA)


def _extend_map(alpha: DeltaMap):
    """theta_extend_mor of alpha between the extensions of its ends; the first Obstruction on failure."""
    xhat = theta_extend(alpha.source)
    if isinstance(xhat, Obstruction):
        return xhat
    yhat = theta_extend(alpha.target)
    if isinstance(yhat, Obstruction):
        return yhat
    return theta_extend_mor(alpha, xhat, yhat)


def theta_triangle_check(alpha: DeltaMap):
    """Verify the cone and shift identities for the constructed extensions.

    Returns True, or an Obstruction from a failed extension, or False if
    an identity fails.  The cone identity compares the block display with
    the honest mapping cone of (extension of alpha) . eta; the shift
    identity checks that reindex-and-negate is a valid extension of the
    shifted input.
    """
    fhat = _extend_map(alpha)
    if isinstance(fhat, Obstruction):
        return fhat
    # cone identity: the display equals the honest cone of fhat . eta
    cone_sys = theta_cone_system(fhat)
    fc = gmorphism_to_chain_map(fhat)
    g = eta_before(fc)
    if cone_complex(g) != cone_sys.complex:
        return False
    if not validate_gsystem(cone_sys):
        return False
    # the cone system's underlying ranks agree with the cone of the inputs
    if psi(cone_delta(alpha)).ranks != cone_sys.ranks:
        return False
    # shift identity: reindex-and-negate extends the shifted DeltaComplex
    shifted = shift_gsystem(fhat.source)
    low = {key: m for key, m in shifted.diffs.items() if key[0] <= 1}
    if GSystem._trusted(shifted.ring, shifted.ranks, low, CGRA) != _theta_seed(shift_delta(alpha.source)):
        return False
    if not validate_gsystem(shifted):
        return False
    return True


def phi(x: DeltaComplex):
    """totalize . theta_extend; propagates the Obstruction on failure."""
    xhat = theta_extend(x)
    if isinstance(xhat, Obstruction):
        return xhat
    return totalize(xhat)


def phi_mor(alpha: DeltaMap):
    fhat = _extend_map(alpha)
    if isinstance(fhat, Obstruction):
        return fhat
    return totalize_mor(fhat)


# ---------------------------------------------------------------------------
# homotopy completion from a two-term seed
# ---------------------------------------------------------------------------


def _null_residuals(
    f: GMorphism, s: Dict[int, Dict[Tuple[int, int], RingMatrix]]
) -> Dict[int, GradedMorphism]:
    """Residuals of f eta = s d + d s over Graded; level n holds the equation of f_{n-1}."""
    fc = gmorphism_to_chain_map(f)
    return _family_to_certificate(f, s).residuals(fc, zero_chain_map(fc.source, fc.target))


def seed_equations_hold(
    f: GMorphism,
    s0: Dict[Tuple[int, int], RingMatrix],
    s1: Dict[Tuple[int, int], RingMatrix],
) -> bool:
    """The two seed equations: every residual of (s_0, s_1) in levels 0 and 1 vanishes."""
    res = _null_residuals(f, {0: s0, 1: s1})
    return all(n > 1 for r in res.values() for (n, _) in r.components)


def find_seed(f: GMorphism):
    """Solve the two seed equations jointly; None when no seed exists.

    s_0 and s_1 are the unknowns u_{-1} and u_0 of ``eta_null_complete``'s
    levels, and the seed equations are its levels -1 and 0.
    """
    if f.source.convention != CGRA:
        raise ValueError("find_seed expects the CgrA convention")
    X, Y = f.source, f.target
    # the rhs of level n is f_n, so None at level -1
    sol, _ = _solve_levels(X, Y, -1, 1, f.chain_map.components, -1, 0)
    if sol is None:
        return None
    # the public seeds hold a block wherever both ends are nonzero, zero blocks included
    s0, s1 = ({(i, j): sol.get((k, i, j)) or RingMatrix.zero(X.ring, Y.rank(i - 1, j + k), r)
               for (i, j), r in X.ranks.items() if Y.rank(i - 1, j + k)} for k in (-1, 0))
    return s0, s1


def corollary_equations_hold(
    f: GMorphism, s: Dict[int, Dict[Tuple[int, int], RingMatrix]]
) -> bool:
    """The full eta-null-homotopy equation set for a family {s_n}."""
    return not _null_residuals(f, s)


def eta_null_complete(
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
    if f.source.convention != CGRA:
        raise ValueError("eta_null_complete expects the CgrA convention")
    X, Y = f.source, f.target
    seeds: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {0: dict(s0), 1: dict(s1)}
    # levels 0 and 1 of the seeds' residual are the seed equations (as in
    # seed_equations_hold); level k + 1 is f_k minus every term in s_0, s_1
    defect = _null_residuals(f, seeds)
    if any(n <= 1 for r in defect.values() for (n, _) in r.components):
        raise ValueError("seed pair does not satisfy the two seed equations")
    # u_k: X^{ij} -> Y^{i-1,j+k} is s_{k+1}: component (n, j) of the defect becomes (n-1, j+1)
    R = {i: GradedMorphism._trusted(X.complex.obj(i), Y.complex.obj(i), {
        (n - 1, j + 1): m for (n, j), m in r.components.items()}) for i, r in defect.items()}
    sol, level = _solve_levels(X, Y, -1, 1, R)
    if sol is None:
        return Obstruction(
            "eta-null-complete", level, None,
            f"the joint homotopy system through level {level} is inconsistent",
        )
    s: Dict[int, Dict[Tuple[int, int], RingMatrix]] = dict(seeds)
    for (k, i, j), m in sol.items():
        s.setdefault(k + 1, {})[(i, j)] = m
    verify(corollary_equations_hold(f, s), "eta_null_complete: the family fails the equations")
    return _family_to_certificate(f, s)


def _family_to_certificate(
    f: GMorphism, s: Dict[int, Dict[Tuple[int, int], RingMatrix]]
) -> HomotopyCertificate:
    """Repackage {s_n^{ij}} as the graded-complex homotopy {s^i}."""
    cx, cy = f.chain_map.source, f.chain_map.target
    inst = cx.instance
    out: Dict[int, GradedMorphism] = {}
    by_i: Dict[int, Dict[Tuple[int, int], RingMatrix]] = {}
    for n, fam in s.items():
        for (i, j), m in fam.items():
            # s_n^{ij}: X^{ij} -> Y^{i-1,j+n-1} reads as component (n, j-1)
            # of a graded morphism X^i(1) -> Y^{i-1}
            by_i.setdefault(i, {})[(n, j - 1)] = m
    for i, comps in by_i.items():
        src = inst.shift_obj(cx.obj(i), 1)
        out[i] = GradedMorphism(src, cy.obj(i - 1), comps)
    return HomotopyCertificate(out, eta_twisted=True)
