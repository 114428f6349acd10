"""Exact linear-system solving over the supported rings.

A system is solved in one form: the rows of [a | B] as dicts {column:
nonzero}, the t rhs columns of B in columns m, ..., m+t-1, and ``_solve``
answers a x = b for every column b of B from one elimination.
``complexes.LinearProblem`` writes rows with one rhs column straight from
its Kronecker blocks and hands them to ``_solve``; the public entry points
``solve_linear_system`` and ``solve_with_kernel`` build them once from the
RingMatrices their callers pass (``_system``); the split of an exact pair
(``complexes._one_sided_inverses``) writes the rows of [i_0^T | I] and
[p_0 | I], one rhs column per row of r_0 and column of q_0.
One sparse solver serves every ring: the rows are eliminated forward, pivot
columns taken left to right, then back-substituted.  Over GF(p) and Q every
nonzero is a pivot candidate.  Over Q the elimination is fraction-free
(Bareiss, Math. Comp. 22, 1968): each row is made integral once, by the
lcm of its denominators, and stays integral, so a ``Fraction`` is made only
where back substitution divides by a pivot.  Over Z/p^k the pivots are
taken in valuation tiers, p^0 first, and nothing is left over; Z/m with
several primes is split by CRT into such parts, each solving the rows
reduced mod its p^k.  Over Z the pivots are +-1.  After each pass every
row left over is divided by the gcd of its coefficients (its content): the
system is NONE where that gcd does not divide one of the row's rhs
entries, and a division that makes a +-1 starts another pass.  The columns
without a pivot, with the rows left over, form a small residual: the same
sparse rows [residual | B], re-keyed to the residual's columns.  A
left-over row with no coefficient but an rhs entry decides NONE first;
otherwise the residual is diagonalized on those rows by Smith's pivot
steps with the rhs columns carried, so U is never formed.  A solve needs a
diagonal form, not the canonical one (Storjohann, Algorithms for Matrix
Canonical Forms, ETH Zurich 2000), so the divisibility fold d_t | d_t+1
runs only for ``smith_normal_form``.  The solver returns one arbitrary
solution per column of a consistent system, never "the" solution, and
NONE as soon as one column has none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .matrix import RingMatrix
from .rings import ZZ, Zmod, _prime_powers, q_canon


# -- Smith normal form over Z ----------------------------------------------


def _smith(A: List[Dict[int, int]], C: List[Dict[int, int]], m: int,
           fold: bool) -> Tuple[int, List[int], List[Dict[int, int]]]:
    """Diagonalize the sparse integer rows A {column: nonzero}, columns
    0..m-1, in place; return the rank r, the column order and V.

    Each row step acts on A[i] and on its carried row C[i] alike: the
    identity carried becomes U of U*a*V = D, an rhs becomes U*rhs.  Column
    swaps only permute positions: position t holds column order[t], so d_t
    is A[t][order[t]].  V[j] is column j of the product of the column steps,
    as a sparse dict {row: nonzero}.  Each pass pivots on the trailing entry
    of least magnitude, first in row-major order of positions, and clears
    its column and row by division with remainder; a nonzero remainder means
    another pass, with a smaller pivot.  With `fold`, a pivot that does not
    divide the trailing block gets the first row holding an entry it does
    not divide added in, so that d_t | d_t+1; a solve needs only a diagonal.
    """
    n = len(A)
    V = [{j: 1} for j in range(m)]
    order, at = list(range(m)), list(range(m))  # position -> column, column -> position
    t = 0
    while t < min(n, m):
        while True:
            piv, best = None, 0
            for i in range(t, n):
                row = A[i]
                if row:  # the columns at positions < t are cleared
                    b = min(map(abs, row.values()))
                    if piv is None or b < best:
                        piv, best = i, b
                        if b == 1:  # nothing later is smaller
                            break
            if piv is None:
                return t, order, V
            s = min(at[j] for j, x in A[piv].items() if x in (best, -best))
            A[t], A[piv], C[t], C[piv] = A[piv], A[t], C[piv], C[t]
            if s != t:
                order[t], order[s] = order[s], order[t]
                at[order[t]], at[order[s]] = t, s
            c = order[t]
            At, Ct = A[t], C[t]
            p = At[c]
            held = [At]  # the rows of A[t:] still nonzero in column c
            for i in range(t + 1, n):
                x = A[i].get(c)
                if x:
                    f = x // p
                    _sub(A[i], f, At)
                    _sub(C[i], f, Ct)
                    if c in A[i]:  # a smaller pivot next pass
                        held.append(A[i])
            dirty = len(held) > 1
            Vc = V[c]
            for j, x in list(At.items()):
                if j != c:
                    f = x // p
                    for row in held:
                        y = row.get(j, 0) - f * row[c]
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                    _sub(V[j], f, Vc)
                    dirty = dirty or j in At
            if dirty:
                continue
            if not fold or p in (1, -1):
                break
            bad = next((i for i in range(t + 1, n) if any(x % p for x in A[i].values())), None)
            if bad is None:
                break
            _sub(At, -1, A[bad])  # the next pass shrinks the pivot
            _sub(Ct, -1, C[bad])
        if A[t][order[t]] < 0:
            A[t] = {j: -x for j, x in A[t].items()}
            C[t] = {j: -x for j, x in C[t].items()}
        t += 1
    return t, order, V


def _sub(row: Dict[int, int], f: int, other: Dict[int, int]) -> None:
    """row -= f * other, on sparse integer rows."""
    for j, y in other.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def smith_normal_form(a: RingMatrix) -> Tuple[RingMatrix, RingMatrix, RingMatrix]:
    """Return (U, D, V) with U*a*V = D diagonal, d1 | d2 | ..., U,V unimodular.

    `_smith` diagonalizes the sparse rows of a with the identity carried, as
    U, and with the divisibility fold, which only this normal form needs."""
    if a.ring != ZZ:
        raise ValueError(f"Smith normal form requires ring Z, got {a.ring}")
    n, m = a.rows, a.cols
    A = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(n)]
    C = [{i: 1} for i in range(n)]
    rank, order, V = _smith(A, C, m, fold=True)
    d = [0] * (n * m)
    for t in range(rank):
        d[t * m + t] = A[t][order[t]]
    Um = RingMatrix._trusted(ZZ, n, n, [row.get(j, 0) for row in C for j in range(n)])
    Dm = RingMatrix._trusted(ZZ, n, m, d)
    Vm = RingMatrix._trusted(ZZ, m, m, [V[c].get(i, 0) for i in range(m) for c in order])
    return Um, Dm, Vm


# -- system solving --------------------------------------------------------


def _solve(ring, rows: List[Dict[int, object]], m: int, want_kernel: bool, t: int = 1):
    """Solve the system whose rows are the dicts {column: nonzero} of
    [a | B], the t rhs columns of B in columns m, ..., m+t-1: a x = b for
    each column b of B.  Return (x or None, kernel generators of a): x lists
    the t solutions one after another, x[s*m:(s+1)*m] solving column m+s,
    and is None if any column has no solution.  The rows are consumed.

    One elimination serves every column: `_eliminate` carries the rhs
    columns through each row step as it carries one, and back-substitutes
    them together; Z/m with two or more primes goes to `_solve_crt`.
    """
    factors = _prime_powers(ring.modulus) if ring.kind == "Zmod" else ()
    if len(factors) > 1:
        X, kern = _solve_crt(ring, rows, m, want_kernel, t, factors)
    else:
        X, kern = _eliminate(ring, rows, m, want_kernel, t)
    if X is None:
        return None, kern
    x = [ring.zero()] * (m * t)
    for j, xj in X.items():
        for b, v in xj.items():
            x[(b - m) * m + j] = v
    return x, kern


def _eliminate(ring, rows: List[Dict[int, object]], m: int, want_kernel: bool, t: int):
    """Solve the rows {column: nonzero} of [a | B], the t rhs columns from m
    on, over a field, Z or Z/p^k: sparse forward elimination in valuation
    tiers, then back substitution; return (X or None, kernel generators),
    X the solutions as {column j < m: {rhs column b: x_j of b}}, nonzeros
    only.  The rows are consumed.

    Every row step acts on the whole row, rhs entries included, so the rhs
    columns ride along with one elimination.  Pivots are taken in tiers
    v = 0, ..., k-1 over Z/p^k (Storjohann, Algorithms for Matrix Canonical
    Forms, ETH Zurich 2000), in one tier otherwise; in each, pivot columns
    go left to right over the columns still without a pivot.  A candidate
    is an active row whose entry is any nonzero over a field, +-1 over Z,
    of valuation exactly v over Z/p^k; the shortest (Markowitz, its rhs
    entries counted) is scaled so its pivot is p^v and clears its column
    from the other active rows, forward only, with the factor entry / p^v.  Over Q the rows are
    integral instead, each multiplied once by the lcm of its denominators:
    the pivot row R keeps its pivot P > 0 (negated if need be), and an
    active row with entry a becomes (P/g) row - (a/g) R, g = gcd(P, a), and
    is then divided by the gcd of its entries if P/g is not 1.  Each row is
    a nonzero multiple of the row that scaling R to pivot 1 would give, so
    the pivots chosen and the answers are the same.  Over Z the pivot is
    then 1 and the update is row - a R.  Z/p^k is local, so
    after tier v every active entry has valuation above v, and after tier
    k-1 no coefficient is left.  Over Z each pass ends with
    `_divide_content`: a row whose content does not divide one of its rhs
    entries makes the system inconsistent (without a kernel to find, NONE
    at once), and a +-1 made by a division appends another pass.  Then the
    columns without a +-1 pivot and the rows left over form a residual.  A
    left-over row with no coefficient but an rhs entry makes the system
    inconsistent; without a kernel to find, the residual is then never
    built.  If the residual has a
    coefficient, `_solve_integer` diagonalizes it with the rhs columns
    carried (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001).
    Otherwise the system is consistent exactly when no rhs entry is left,
    and every column without a pivot is free.

    Back substitution, every free variable 0, completes the solutions in
    one sweep over the pivot rows, every rhs column at once: the other
    coefficients of a tier-v pivot row are divisible by p^v, so it is
    met iff p^v divides its reduced rhs s, and then x_c = s / p^v; over Q,
    x_c = s / P, the one place a ``Fraction`` is made.  With
    rhs 0 it extends each kernel generator: e_f for a free column f,
    p^(k-v) e_c for a tier-v pivot column c with v >= 1, and each residual
    kernel generator.  Over a field the pivot columns do not depend on which
    rows are chosen, so neither do the solutions and the generators.
    """
    q = ring.modulus  # 0 for Z and Q, whose entries are not reduced
    rat = ring.kind == "Q"
    tiers = [1]  # p^v for each tier v
    if ring.kind == "Zmod":
        [(p, k)] = _prime_powers(q)
        tiers = [p ** v for v in range(k)]
    if rat:  # each row times the lcm of its denominators: integral from here on
        for row in rows:
            dens = [x.denominator for x in row.values() if type(x) is not int]
            if dens:
                d = lcm(*dens)
                for j, x in row.items():
                    row[j] = x * d if type(x) is int else x.numerator * (d // x.denominator)
    col_rows = [set() for _ in range(m)]  # the active rows nonzero in each column
    for i, row in enumerate(rows):
        for j in row:
            if j < m:
                col_rows[j].add(i)
    pivots = []  # (column, pivot row, p^v), in elimination order
    skipped = range(m)  # columns with active rows but no pivot so far
    integer, inconsistent = not q and not rat, False
    for pv in tiers:  # over Z a content division that makes a +-1 appends a pass
        open_cols, skipped = skipped, []
        for c in open_cols:
            below = col_rows[c]
            if not below:
                continue
            if ring.is_field:
                cands = below
            elif q:  # valuation exactly v
                cands = [i for i in below if rows[i][c] % (pv * p)]
            else:
                cands = [i for i in below if rows[i][c] in (1, -1)]
            if not cands:
                skipped.append(c)
                continue
            r = min(cands, key=lambda i: (len(rows[i]), i))
            R, rows[r] = rows[r], None
            for j in R:
                if j < m:
                    col_rows[j].discard(r)
            if q:
                inv = pow(R[c] // pv, -1, q)
                R = {j: x * inv % q for j, x in R.items()}
            elif R[c] < 0:  # a positive pivot; over Z it is then 1
                R = {j: -x for j, x in R.items()}
            pc = R[c]
            items = list(R.items())
            for i in tuple(below):
                row = rows[i]
                f, s = row[c], 1
                if pv > 1:
                    f //= pv
                elif pc != 1:  # Q: row <- (pc/g) row - (f/g) R, kept integral
                    g = gcd(pc, f)
                    s, f = pc // g, f // g
                    if s != 1:
                        for j in row:
                            row[j] *= s
                for j, y in items:
                    x = row.get(j, 0) - f * y
                    if q:
                        x %= q
                    if x:
                        if j < m and j not in row:
                            col_rows[j].add(i)
                        row[j] = x
                    elif j in row:  # over Z/m, f * y may vanish where row had 0
                        del row[j]
                        if j < m:
                            col_rows[j].discard(i)
                if s != 1 and row:
                    g = gcd(*row.values())
                    if g > 1:
                        for j in row:
                            row[j] //= g
            pivots.append((c, R, pv))
        if integer:
            unit, bad = _divide_content(rows, m)
            if bad and not want_kernel:
                return None, []
            inconsistent = inconsistent or bad
            if unit:
                tiers.append(1)
    pivots.reverse()

    def back_substitute(x, rhs):
        """Complete x {column: {key: value}}, which holds the free and residual
        variables and, for a kernel generator, one pivot variable, so that for
        each key every other pivot row sums to its entry in column key (to 0
        unless rhs).  None if a pivot row cannot be met."""
        for c, R, pv in pivots:
            if c in x:
                continue
            s = {}
            for j, y in R.items():
                if j < m:
                    xj = x.get(j)
                    if xj:
                        for b, z in xj.items():
                            s[b] = s.get(b, 0) - y * z
                elif rhs:
                    s[j] = s.get(j, 0) + y
            xc = {}
            for b, v in s.items():
                if q:
                    v %= q
                    if v % pv:
                        return None
                    v //= pv
                elif rat:  # divide by the pivot: the one place a Fraction is made
                    d = R[c]
                    if type(v) is not int:
                        v = q_canon(v / d)
                    elif v % d:
                        v = Fraction(v, d)
                    else:
                        v //= d
                if v:
                    xc[b] = v
            if xc:
                x[c] = xc
        return x

    def generator(x):
        """The kernel generator that x, one key m for each variable set, extends to."""
        x = back_substitute(x, False)
        return [x[j][m] if j in x else 0 for j in range(m)]

    # every pivot and free column is cleared from the rows left over
    rest = [row for row in rows if row is not None]
    if any(j < m for row in rest for j in row):
        # a row with no coefficient but an rhs entry makes the system inconsistent
        if not want_kernel and any(row and min(row) >= m for row in rest):
            return None, []
        # the residual's columns: the skipped ones in order, then the rhs columns
        width, at = len(skipped), {c: i for i, c in enumerate(skipped)}
        y, res_kern = _solve_integer([{at[j] if j < m else j - m + width: x for j, x in row.items()}
                                      for row in rest], width, want_kernel, t)
        if y is not None:  # variable i of the residual, column by column
            y = {c: {m + s: v for s, v in enumerate(y[i::width]) if v} for i, c in enumerate(skipped)}
    else:  # no coefficient is left, so the skipped columns are free too
        skipped, res_kern = [], []
        y = None if any(rest) else {}
    x = None if y is None or inconsistent else back_substitute(y, True)
    kern = []
    if want_kernel:
        bound = {c for c, _, _ in pivots}.union(skipped)
        kern = [generator({f: {m: ring.one()}}) for f in range(m) if f not in bound]
        kern += [generator({c: {m: q // pv}}) for c, _, pv in pivots if pv > 1]
        kern += [generator({c: {m: z} for c, z in zip(skipped, g) if z}) for g in res_kern]
    return x, kern


def _divide_content(rows: List[Optional[Dict[int, int]]], m: int) -> Tuple[bool, bool]:
    """Divide each active integer row {column: nonzero} of [a | B], the rhs
    columns from m on, by the gcd g of its coefficients, which leaves its
    integer solutions as they are.  Where g does not divide an rhs entry
    that column has none: the entry is dropped, so that the row still holds
    the kernel.  Return (whether a coefficient +-1 was made, whether an rhs
    entry was dropped)."""
    unit = bad = False
    for row in filter(None, rows):
        g = 0  # 0 for a row with no coefficient left
        for j, x in row.items():
            if j < m:
                g = gcd(g, x)
                if g == 1:
                    break
        if g < 2:
            continue
        drop = []
        for j, x in row.items():
            if j < m:
                row[j] = x = x // g
                unit = unit or x in (1, -1)
            elif x % g:
                drop.append(j)
            else:
                row[j] = x // g
        for j in drop:
            del row[j]
        bad = bad or bool(drop)
    return unit, bad


def _solve_crt(ring, rows: List[Dict[int, object]], m: int, want_kernel: bool, t: int, factors):
    """Solve the rows of [a | B] over Z/m, m = prod p^k with two or more
    primes, part by part, as `_eliminate` does: X or None, and the kernel.

    Z/m is the product of the rings Z/p^k, so `_eliminate` solves the rows
    reduced mod each p^k; the part's solutions, column by column, and its
    kernel generators come back to Z/m through the CRT idempotent
    e = 1 (mod p^k), e = 0 (mod m / p^k).
    """
    mod = ring.modulus
    X, kern = {}, []
    for p, k in factors:
        q = p ** k
        e = (mod // q) * pow(mod // q, -1, q)
        part = [{j: z % q for j, z in row.items() if z % q} for row in rows]
        Y, part_kern = _eliminate(Zmod(q), part, m, want_kernel, t)
        if Y is None:
            X = None
        elif X is not None:
            for j, yj in Y.items():
                xj = X.setdefault(j, {})
                for b, z in yj.items():
                    xj[b] = (xj.get(b, 0) + e * z) % mod
        kern += [[e * z % mod for z in g] for g in part_kern]
    return X, kern


def _solve_integer(rows: List[Dict[int, int]], m: int, want_kernel: bool, t: int = 1):
    """Solve over Z by diagonalizing the sparse integer rows {column:
    nonzero} of [a | B], the t rhs columns from m on, with `_smith` and no
    fold: column b is solvable iff d_i divides its carried entry c_i for
    i < rank and c_i = 0 below; then y_i = c_i / d_i and x = V y.  U is
    never formed.  Return (x or None, kernel generators), x as `_solve`
    gives it.  The rows are consumed."""
    rhs = [{j: row.pop(j) for j in [j for j in row if j >= m]} for row in rows]
    rank, order, V = _smith(rows, rhs, m, fold=False)
    kern = [[V[j].get(i, 0) for i in range(m)] for j in order[rank:]] if want_kernel else []
    d = [rows[i][order[i]] for i in range(rank)]
    if any(rhs[rank:]) or any(c % di for di, row in zip(d, rhs) for c in row.values()):
        return None, kern
    x = [0] * (m * t)
    for j, di, row in zip(order, d, rhs):
        for b, c in row.items():
            y, at = c // di, (b - m) * m
            for i, v in V[j].items():
                x[at + i] += v * y
    return x, kern


def _system(coeffs: RingMatrix, rhs: RingMatrix) -> List[Dict[int, object]]:
    """The dict rows of [coeffs | rhs], the rhs in column coeffs.cols."""
    if coeffs.ring != rhs.ring:
        raise ValueError(f"ring mismatch: {coeffs.ring} vs {rhs.ring}")
    if rhs.cols != 1 or rhs.rows != coeffs.rows:
        raise ValueError("rhs must be a column matching coeffs.rows")
    m, entries = coeffs.cols, coeffs.entries
    rows = []
    for i, b in enumerate(rhs.entries):
        row = {j: x for j, x in enumerate(entries[i * m:(i + 1) * m]) if x}
        if b:
            row[m] = b
        rows.append(row)
    return rows


def solve_linear_system(coeffs: RingMatrix, rhs: RingMatrix) -> Optional[RingMatrix]:
    """Return some x with coeffs*x = rhs over the ring, or None if inconsistent."""
    x, _ = _solve(coeffs.ring, _system(coeffs, rhs), coeffs.cols, want_kernel=False)
    return None if x is None else RingMatrix._trusted(coeffs.ring, coeffs.cols, 1, x)


def solve_with_kernel(
    coeffs: RingMatrix, rhs: RingMatrix
) -> Tuple[Optional[RingMatrix], List[RingMatrix]]:
    """Like solve_linear_system, but also return generators of the kernel."""
    x, kern = _solve(coeffs.ring, _system(coeffs, rhs), coeffs.cols, want_kernel=True)
    part = None if x is None else RingMatrix._trusted(coeffs.ring, coeffs.cols, 1, x)
    return part, [RingMatrix._trusted(coeffs.ring, coeffs.cols, 1, v) for v in kern]
