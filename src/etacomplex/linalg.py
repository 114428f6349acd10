"""Exact linear-system solving over the supported rings.

One sparse solver serves every ring: rows are stored as dicts and
eliminated forward on unit pivots, pivot columns taken left to right, then
back-substituted.  Over GF(p) and Q every nonzero is a unit and nothing is
left over.  Over Z and Z/m the columns without a unit pivot and the rows
left over form a small dense residual, solved by Smith normal form over Z
and by direct diagonalization mod m, every entry kept in [0, m), over Z/m.
The solver returns one arbitrary solution of a consistent system, never
"the" solution.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Tuple

from .matrix import RingMatrix, mat_mul
from .rings import ZZ, CoeffRing


# -- Smith normal form over Z ----------------------------------------------


def smith_normal_form(a: RingMatrix) -> Tuple[RingMatrix, RingMatrix, RingMatrix]:
    """Return (U, D, V) with U*a*V = D diagonal, d1 | d2 | ..., U,V unimodular."""
    if a.ring != ZZ:
        raise ValueError(f"Smith normal form requires ring Z, got {a.ring}")
    n, m = a.rows, a.cols
    A = [a.row(i) for i in range(n)]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, k, c):  # row_i -= c * row_k  (on A and U)
        Ai, Ak = A[i], A[k]
        for j in range(m):
            Ai[j] -= c * Ak[j]
        Ui, Uk = U[i], U[k]
        for j in range(n):
            Ui[j] -= c * Uk[j]

    def col_op(j, k, c):  # col_j -= c * col_k  (on A and V)
        for i in range(n):
            A[i][j] -= c * A[i][k]
        for i in range(m):
            V[i][j] -= c * V[i][k]

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(n, m):
        while True:
            # bring the entry of least magnitude to the pivot; re-selecting on
            # every pass keeps intermediate entries from exploding
            piv = None
            for i in range(t, n):
                for j in range(t, m):
                    x = A[i][j]
                    if x and (piv is None or abs(x) < abs(A[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
                    if A[i][t]:  # nonzero remainder: smaller pivot next pass
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the trailing block for the chain d_k | d_{k+1}
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if A[i][j] % A[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # fold the offending row in; next pass shrinks the pivot
        if A[t][t] == 0:
            break
        if A[t][t] < 0:
            for j in range(m):
                A[t][j] = -A[t][j]
            for j in range(n):
                U[t][j] = -U[t][j]
        t += 1

    Um = RingMatrix.from_rows(ZZ, U) if n else RingMatrix(ZZ, 0, 0, [])
    Vm = RingMatrix.from_rows(ZZ, V) if m else RingMatrix(ZZ, 0, 0, [])
    Dm = RingMatrix(ZZ, n, m, [A[i][j] for i in range(n) for j in range(m)])
    return Um, Dm, Vm


# -- system solving --------------------------------------------------------


def _solve(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """Sparse elimination on unit pivots, then a dense solve of what is left.

    Each row is a dict {column: nonzero}, the rhs columns appended after
    column m-1.  Pivot columns are taken left to right; within a column the
    pivot row is the shortest active row whose entry there is a unit
    (Markowitz): any nonzero over a field, +-1 over Z, prime to m over Z/m.
    It is scaled to 1 at its pivot and the column is cleared from the other
    active rows, forward only.  A column with no unit candidate is skipped.

    The skipped columns and the rows left over form the residual; it has
    entries in skipped columns only.  Over a field it is always empty.  Where
    it has a nonzero coefficient it goes to the dense Z or Z/m solver
    (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001); otherwise the
    system is consistent exactly when no rhs entry is left in it.  Back
    substitution through the pivot rows, every free variable 0, completes
    each residual solution, and with rhs 0 each residual kernel generator and
    each unit vector of a free column; as every pivot variable is a
    unit-coefficient function of the others, these span the kernel.  Over a
    field the pivot columns do not depend on which rows are chosen, so
    neither do the solution and the generators.
    """
    ring = a.ring
    p = ring.modulus  # 0 for Z and Q, whose entries are not reduced
    if ring.is_field:
        unit = None
    elif p:
        unit = lambda x: gcd(x, p) == 1
    else:
        unit = lambda x: x == 1 or x == -1
    n, m = a.rows, a.cols
    rows = []
    col_rows = [set() for _ in range(m)]  # the active rows nonzero in each column
    for i in range(n):
        row = {j: x for j, x in enumerate(a.entries[i * m:(i + 1) * m]) if x}
        for j in row:
            col_rows[j].add(i)
        for t, col in enumerate(rhs_cols):
            if col[i]:
                row[m + t] = col[i]
        rows.append(row)
    pivots = []  # (column, pivot row), columns increasing
    skipped = []  # columns with active rows but no unit among them
    for c in range(m):
        below = col_rows[c]
        if not below:
            continue
        cands = below if unit is None else [i for i in below if unit(rows[i][c])]
        if not cands:
            skipped.append(c)
            continue
        r = min(cands, key=lambda i: (len(rows[i]), i))
        R, rows[r] = rows[r], None
        for j in R:
            if j < m:
                col_rows[j].discard(r)
        if p:
            inv = pow(R[c], -1, p)
            R = {j: x * inv % p for j, x in R.items()}
        elif R[c] != 1:
            inv = ring.inv(R[c])
            R = {j: x * inv for j, x in R.items()}
        items = list(R.items())
        for i in tuple(below):
            row = rows[i]
            f = row[c]
            for j, y in items:
                x = row.get(j, 0) - f * y
                if p:
                    x %= p
                if x:
                    if j < m and j not in row:
                        col_rows[j].add(i)
                    row[j] = x
                elif j in row:  # over Z/m, f * y may vanish where row had 0
                    del row[j]
                    if j < m:
                        col_rows[j].discard(i)
        pivots.append((c, R))
    pivots.reverse()
    zero = ring.zero()
    one = ring.one()

    def back_substitute(x, b):
        """Complete x, which holds the free and residual variables, so that
        every pivot row sums to its entry in column b (no column if b is None)."""
        for c, R in pivots:
            s = R.get(b, 0)
            for j, y in R.items():
                if j < m and j != c and j in x:
                    s -= y * x[j]
            if p:
                s %= p
            if s:
                x[c] = s
        return [x.get(j, zero) for j in range(m)]

    # every pivot and free column is cleared from the rows left over
    rest = [row for row in rows if row is not None]
    if any(j < m for row in rest for j in row):
        solve_dense = _solve_integer if ring.kind == "Z" else _solve_zmod
        res = RingMatrix(ring, len(rest), len(skipped),
                         [row.get(j, 0) for row in rest for j in skipped])
        res_sols, res_kern = solve_dense(
            res, [[row.get(m + t, 0) for row in rest] for t in range(len(rhs_cols))],
            want_kernel)
    else:  # no coefficient is left, so the skipped columns are free too
        skipped = []
        res_sols = [None if any(m + t in row for row in rest) else []
                    for t in range(len(rhs_cols))]
        res_kern = []
    sols = [None if y is None else back_substitute(dict(zip(skipped, y)), m + t)
            for t, y in enumerate(res_sols)]
    kern = []
    if want_kernel:
        bound = {c for c, _ in pivots}.union(skipped)
        kern = [back_substitute({f: one}, None) for f in range(m) if f not in bound]
        kern += [back_substitute(dict(zip(skipped, g)), None) for g in res_kern]
    return sols, kern


def _solve_integer(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """Solve over Z via Smith normal form.  rhs entries are ints."""
    n, m = a.rows, a.cols
    U, D, V = smith_normal_form(a)
    diag = [D[(i, i)] for i in range(min(n, m))]
    rank = sum(1 for d in diag if d != 0)
    sols = []
    for rhs in rhs_cols:
        ub = [sum(U[(i, j)] * rhs[j] for j in range(n)) for i in range(n)]
        y = [0] * m
        ok = True
        for i in range(n):
            if i < rank:
                if ub[i] % diag[i] != 0:
                    ok = False
                    break
                y[i] = ub[i] // diag[i]
            elif ub[i] != 0:
                ok = False
                break
        if not ok:
            sols.append(None)
            continue
        x = [sum(V[(i, j)] * y[j] for j in range(m)) for i in range(m)]
        sols.append(x)
    kern = []
    if want_kernel:
        for j in range(rank, m):
            kern.append(V.column(j))
    return sols, kern


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _divide(p: int, b: int, mod: int) -> Optional[int]:
    """The least c >= 0 with p*c = b (mod mod), or None if there is none."""
    g = gcd(p, mod)
    if b % g:
        return None
    mg = mod // g
    return ((b // g) * pow(p // g, -1, mg)) % mg


def _pair_op(p: int, b: int, mod: int) -> Tuple[int, int, int, int]:
    """A determinant-1 transform (s, u, v, w) with v p + w b = 0 (mod mod).

    It is (x, y) -> (x, y - c x) where p c = b has a solution c, and the
    extended-gcd step (x, y) -> (s x + u y, (p y - b x) / g), where
    g = s p + u b = gcd(p, b), otherwise; the pivot then becomes g < p.
    """
    c = _divide(p, b, mod)
    if c is not None:
        return 1, 0, -c, 1
    g, s, u = _xgcd(p, b)
    return s, u, -(b // g), p // g


def _apply(op: Tuple[int, int, int, int], xs: List[int], ys: List[int], mod: int):
    """Return (s x + u y, v x + w y) mod mod, entrywise, for op = (s, u, v, w)."""
    s, u, v, w = op
    ys2 = [(v * x + w * y) % mod for x, y in zip(xs, ys)]
    if (s, u) == (1, 0):
        return xs, ys2
    return [(s * x + u * y) % mod for x, y in zip(xs, ys)], ys2


def _solve_zmod(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """Solve over Z/m by diagonalizing a directly, every entry kept in [0, m).

    Row operations act on the rows of [a | rhs], so U is never formed;
    column operations are accumulated into V.  The pivot is the trailing
    entry x of least gcd(x, m); each entry of its column, then of its row, is
    cleared by a `_pair_op`, which replaces the pivot by a proper divisor
    where it does not divide the entry (only when m has two or more prime
    factors).  With U a V = D diagonal (no divisibility chain is needed),
    a x = b (mod m) becomes D y = U b for y = V^{-1} x; each congruence
    d_i y_i = c_i (mod m) is solved by gcd.
    """
    mod = a.ring.modulus
    n, m = a.rows, a.cols
    A = [a.row(i) + [col[i] for col in rhs_cols] for i in range(n)]
    VT = [[int(i == j) for i in range(m)] for j in range(m)]  # VT[j] = column j of V
    t = 0
    while t < min(n, m):
        best, pi, pj = mod, -1, -1
        for i in range(t, n):
            Ai = A[i]
            for j in range(t, m):
                x = Ai[j]
                if x and gcd(x, mod) < best:
                    best, pi, pj = gcd(x, mod), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A[t:]:  # rows above t vanish in columns >= t
                row[t], row[pj] = row[pj], row[t]
            VT[t], VT[pj] = VT[pj], VT[t]
        At = A[t]
        rows = A[t:]
        while True:
            for Ai in A[t + 1:]:
                if Ai[t]:
                    op = _pair_op(At[t], Ai[t], mod)
                    At[t:], Ai[t:] = _apply(op, At[t:], Ai[t:], mod)
            for j in range(t + 1, m):
                if At[j]:
                    op = _pair_op(At[t], At[j], mod)
                    col_t, col_j = _apply(op, [r[t] for r in rows], [r[j] for r in rows], mod)
                    for r, x, y in zip(rows, col_t, col_j):
                        r[t], r[j] = x, y
                    VT[t], VT[j] = _apply(op, VT[t], VT[j], mod)
            # an extended-gcd column step may have refilled column t
            if not any(Ai[t] for Ai in A[t + 1:]):
                break
        t += 1
    diag = [A[i][i] for i in range(t)]
    sols = []
    for k in range(len(rhs_cols)):
        y = [0] * m
        ok = True
        for i in range(n):
            c = A[i][m + k]
            if i >= t:
                if c:
                    ok = False
                    break
                continue
            y[i] = _divide(diag[i], c, mod)
            if y[i] is None:
                ok = False
                break
        if not ok:
            sols.append(None)
            continue
        x = [0] * m
        for j, yj in enumerate(y):
            if yj:
                x = [(xi + yj * v) % mod for xi, v in zip(x, VT[j])]
        sols.append(x)
    kern = []
    if want_kernel:
        # y_j ranges over (m / gcd(d_j, m)) Z/m; V is invertible, so these
        # generators are nonzero (unless d_j is a unit) and pairwise distinct
        for j in range(m):
            step = mod // gcd(diag[j] if j < t else 0, mod)
            if step < mod:
                kern.append([(x * step) % mod for x in VT[j]])
    return sols, kern


def _check_rhs(coeffs: RingMatrix, rhs: RingMatrix):
    if coeffs.ring != rhs.ring:
        raise ValueError(f"ring mismatch: {coeffs.ring} vs {rhs.ring}")
    if rhs.cols != 1 or rhs.rows != coeffs.rows:
        raise ValueError("rhs must be a column matching coeffs.rows")


def solve_linear_system(coeffs: RingMatrix, rhs: RingMatrix) -> Optional[RingMatrix]:
    """Return some x with coeffs*x = rhs over the ring, or None if inconsistent."""
    _check_rhs(coeffs, rhs)
    sols, _ = _solve(coeffs, [rhs.column(0)], want_kernel=False)
    if sols[0] is None:
        return None
    return RingMatrix(coeffs.ring, coeffs.cols, 1, sols[0])


def solve_with_kernel(
    coeffs: RingMatrix, rhs: RingMatrix
) -> Tuple[Optional[RingMatrix], List[RingMatrix]]:
    """Like solve_linear_system, but also return generators of the kernel."""
    _check_rhs(coeffs, rhs)
    sols, kern = _solve(coeffs, [rhs.column(0)], want_kernel=True)
    part = None if sols[0] is None else RingMatrix(coeffs.ring, coeffs.cols, 1, sols[0])
    gens = [RingMatrix(coeffs.ring, coeffs.cols, 1, v) for v in kern]
    return part, gens


def kernel_generators(coeffs: RingMatrix) -> List[RingMatrix]:
    zero = RingMatrix.zero(coeffs.ring, coeffs.rows, 1)
    _, gens = solve_with_kernel(coeffs, zero)
    return gens


def verify_snf(a: RingMatrix, U: RingMatrix, D: RingMatrix, V: RingMatrix) -> bool:
    """Check U*a*V = D, diagonality, divisibility chain and unimodularity."""
    if mat_mul(mat_mul(U, a), V) != D:
        return False
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j and D[(i, j)] != 0:
                return False
    diag = [D[(i, i)] for i in range(min(D.rows, D.cols))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            return False
        if x != 0 and y % x != 0:
            return False
    return abs(_det(U)) == 1 and abs(_det(V)) == 1


def _det(m: RingMatrix) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
