"""Dense exact matrices over a coefficient ring.

Row-major, immutable by convention (operations return fresh matrices). These
carry every component morphism in the package; all sparsity is handled by
block assembly in the higher layers.

Every entry is in its ring's canonical form (see ``rings``): an int in
[0, m) over Z/m and GF(p), an int over Z, over Q an int when integral and
otherwise a reduced ``Fraction`` with denominator > 1.  The invariant holds
by construction, not by a check on every cell.  The public constructor
``RingMatrix(...)`` and ``from_rows`` canonicalize each entry, and
``from_json`` parses each into canonical form once; they are the boundary
for input from users, files and generators.  Every other construction
(``zero``, ``identity``, ``scalar``, ``block``, ``submatrix``, ``+``,
``-``, negation, ``scale``, ``mat_mul``, and in the other layers the
solver's results, hom-coordinate vectors and assembled linear systems) goes
through ``RingMatrix._trusted`` on entries computed from canonical ones.
Each reduces only where its own arithmetic can leave the canonical form:
one ``% m`` per computed value over Z/m and GF(p), nothing over Z, and over
Q a computed value with denominator 1 becomes its int (a sum or product of
``Fraction``s is reduced but stays a ``Fraction``).  Negation keeps every
form.
"""

from __future__ import annotations

from typing import List, Sequence

from .rings import CoeffRing, json_int, q_canon


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
        m = RingMatrix.zero(ring, n, n)
        for i in range(n):
            m.entries[i * n + i] = ring.one()
        return m

    @staticmethod
    def scalar(ring: CoeffRing, n: int, a) -> "RingMatrix":
        m = RingMatrix.zero(ring, n, n)
        a = ring.canon(a)
        for i in range(n):
            m.entries[i * n + i] = a
        return m

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
        if self.ring != other.ring:
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
            and self.ring == other.ring
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
    def from_json(d: dict) -> "RingMatrix":
        ring = CoeffRing.from_json(d["ring"])
        if type(d["entries"]) is not list:
            raise ValueError(f"matrix entries must be a list, got {d['entries']!r}")
        entries = [ring.elem_from_str(s) for s in d["entries"]]  # canonical already
        rows, cols = json_int(d["rows"], "rows"), json_int(d["cols"], "cols")
        _check_shape(rows, cols, entries)
        return RingMatrix._trusted(ring, rows, cols, entries)


def _check_shape(rows: int, cols: int, entries: Sequence):
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")


def mat_mul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact matrix product."""
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    ring = a.ring
    q = ring.modulus
    rat = ring.kind == "Q"
    out = RingMatrix.zero(ring, a.rows, b.cols)
    entries = out.entries
    for i in range(a.rows):
        arow = a.row(i)
        base = i * b.cols
        for k, aik in enumerate(arow):
            if aik == 0:
                continue
            brow = b.row(k)
            for j in range(b.cols):
                entries[base + j] += aik * brow[j]
        if q:
            for j in range(b.cols):
                entries[base + j] %= q
        elif rat:
            entries[base:base + b.cols] = map(q_canon, entries[base:base + b.cols])
    return out
