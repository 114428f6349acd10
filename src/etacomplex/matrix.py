"""Dense exact matrices over a coefficient ring.

Row-major, immutable by convention (operations return fresh matrices). These
carry every component morphism in the package; all sparsity is handled by
block assembly in the higher layers.

Every entry is in its ring's canonical form (see ``rings``): an int in
[0, m) over Z/m and GF(p), an int over Z, over Q an int when integral and
otherwise a reduced ``Fraction`` with denominator > 1.  The invariant holds
by construction, not by a check on every cell.

Input is checked once, where it enters, and only there.  The public
constructor ``RingMatrix(...)`` and ``from_rows`` canonicalize each entry,
and ``from_json`` parses each into canonical form once: a list of integer
strings is checked by one match of an ASCII grammar, anything else entry by
entry with ``CoeffRing.elem_from_str``, so every rejection of the per-entry
reader stays.  With the public ``GradedMorphism(...)`` (in ``base``) and the
readers of ``serialize``, they are the boundary for input from users, files
and generators.  Every other construction (``zero``, ``identity``,
``scalar``, ``block``, ``submatrix``, ``+``, ``-``, negation, ``scale``,
``mat_mul``, and in the other layers the solver's results, hom-coordinate
vectors and assembled linear systems) goes through ``RingMatrix._trusted``
on entries computed from canonical ones, and the package's own graded
morphisms (``Graded.compose``, ``hom_add``, ``hom_negate``, ``shift_mor``,
``eta``, ``id_mor``, ``zero_mor``, ``block_mor``, ``split_mor``,
``vec_to_mor`` and the bigraded rebuilds) through
``GradedMorphism._trusted``, with no shape check and no zero scan beyond
dropping what their own arithmetic can make zero.  Each reduces only where
its own arithmetic can leave the canonical form: one ``% m`` per computed
value over Z/m and GF(p), nothing over Z, and over Q a computed value with
denominator 1 becomes its int (a sum or product of ``Fraction``s is reduced
but stays a ``Fraction``).  Negation keeps every form.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from .rings import _INT, CoeffRing, json_int, q_canon


class RingMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: CoeffRing, rows: int, cols: int, entries: Sequence):
        _check_shape(rows, cols, entries)
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = [ring.canon(x) for x in entries]

    @staticmethod
    def _trusted(ring: CoeffRing, rows: int, cols: int, entries: List) -> "RingMatrix":
        """A matrix over ``entries`` as given, without checks: a fresh list of
        rows * cols elements already in the ring's canonical form."""
        m = object.__new__(RingMatrix)
        m.ring = ring
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(ring: CoeffRing, rows: Sequence[Sequence]) -> "RingMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: List = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return RingMatrix(ring, r, c, flat)

    @staticmethod
    def zero(ring: CoeffRing, rows: int, cols: int) -> "RingMatrix":
        return RingMatrix._trusted(ring, rows, cols, [ring.zero()] * (rows * cols))

    @staticmethod
    def identity(ring: CoeffRing, n: int) -> "RingMatrix":
        return RingMatrix.scalar(ring, n, ring.one())

    @staticmethod
    def scalar(ring: CoeffRing, n: int, a) -> "RingMatrix":
        entries = [ring.zero()] * (n * n)
        entries[:: n + 1] = [ring.canon(a)] * n
        return RingMatrix._trusted(ring, n, n, entries)

    # -- access -------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i) -> List:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> List[List]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j) -> List:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def _check_same_ring(self, other: "RingMatrix"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in addition")
        q = self.ring.modulus
        pairs = zip(self.entries, other.entries)
        if q:
            out = [(a + b) % q for a, b in pairs]
        elif self.ring.kind == "Q":
            out = [q_canon(a + b) for a, b in pairs]
        else:
            out = [a + b for a, b in pairs]
        return RingMatrix._trusted(self.ring, self.rows, self.cols, out)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        q = self.ring.modulus
        out = [-a % q for a in self.entries] if q else [-a for a in self.entries]
        return RingMatrix._trusted(self.ring, self.rows, self.cols, out)

    def scale(self, a) -> "RingMatrix":
        a = self.ring.canon(a)
        q = self.ring.modulus
        if q:
            out = [a * x % q for x in self.entries]
        elif self.ring.kind == "Q":
            out = [q_canon(a * x) for x in self.entries]
        else:
            out = [a * x for x in self.entries]
        return RingMatrix._trusted(self.ring, self.rows, self.cols, out)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        return mat_mul(self, other)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"RingMatrix({self.ring}, {self.rows}x{self.cols}, {self.to_rows()})"

    # -- block assembly -----------------------------------------------------

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "RingMatrix":
        flat: List = []
        for i in range(r0, r1):
            base = i * self.cols
            flat.extend(self.entries[base + c0 : base + c1])
        return RingMatrix._trusted(self.ring, r1 - r0, c1 - c0, flat)

    @staticmethod
    def block(ring: CoeffRing, grid, row_sizes: Sequence[int], col_sizes: Sequence[int]) -> "RingMatrix":
        """Assemble from a 2D grid of optional blocks; None means zero."""
        R, C = sum(row_sizes), sum(col_sizes)
        out = RingMatrix.zero(ring, R, C)
        r_off = 0
        for bi, rs in enumerate(row_sizes):
            c_off = 0
            for bj, cs in enumerate(col_sizes):
                blk = grid[bi][bj]
                if blk is not None:
                    if (blk.rows, blk.cols) != (rs, cs):
                        raise ValueError(f"block ({bi},{bj}) has wrong shape")
                    for i in range(rs):
                        base = (r_off + i) * C + c_off
                        out.entries[base : base + cs] = blk.row(i)
                c_off += cs
            r_off += rs
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [self.ring.elem_to_str(x) for x in self.entries],
        }

    @staticmethod
    def from_json(d: dict, ring: Optional[CoeffRing] = None) -> "RingMatrix":
        """The matrix of ``to_json``'s form.  ``ring``, when given, is the ring
        the matrix is expected over; a matrix that names it is read over it
        without parsing its ring again."""
        if ring is None or not ring.reads_as(d["ring"]):
            ring = CoeffRing.from_json(d["ring"])
        strs = d["entries"]
        if type(strs) is not list:
            raise ValueError(f"matrix entries must be a list, got {strs!r}")
        if _all_int_strs(strs):
            # elem_from_str's integer case for every entry at once
            m = ring.modulus
            entries = [int(s) % m for s in strs] if m else list(map(int, strs))
        else:
            entries = [ring.elem_from_str(s) for s in strs]  # canonical already
        rows, cols = json_int(d["rows"], "rows"), json_int(d["cols"], "cols")
        _check_shape(rows, cols, entries)
        return RingMatrix._trusted(ring, rows, cols, entries)


_INT_STRS = re.compile(f"{_INT}(?:,{_INT})*")


def _all_int_strs(strs: list) -> bool:
    """Every item is an integer string of ``rings._is_int_str``: one match over
    the items joined by commas, where the comma count also rules out a comma
    inside an item."""
    if set(map(type, strs)) != {str}:
        return False
    text = ",".join(strs)
    return _INT_STRS.fullmatch(text) is not None and text.count(",") == len(strs) - 1


def _check_shape(rows: int, cols: int, entries: Sequence):
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")


def mat_mul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact matrix product; each row of it is summed in a fresh list, over
    the nonzero entries of a's row only."""
    ring = a.ring
    if b.ring is not ring and b.ring != ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    n, bc = a.cols, b.cols
    if n != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{n} times {b.rows}x{bc}")
    q = ring.modulus
    rat = ring.kind == "Q"
    ae, be = a.entries, b.entries
    cols = range(bc)
    out: List = []
    start = 0
    for _ in range(a.rows):
        acc = [0] * bc
        kb = 0  # where row k of b starts
        for aik in ae[start:start + n]:
            if aik:
                for j in cols:
                    acc[j] += aik * be[kb + j]
            kb += bc
        if q:
            acc = [x % q for x in acc]
        elif rat:
            acc = [x if type(x) is int else q_canon(x) for x in acc]
        out += acc
        start += n
    return RingMatrix._trusted(ring, a.rows, bc, out)
