import itertools
import math
import random
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

import pytest

from etacomplex import linalg, rings
from etacomplex.linalg import (
    _solve,
    _solve_integer,
    smith_normal_form,
    solve_linear_system,
    solve_with_kernel,
)
from etacomplex.matrix import RingMatrix, mat_mul
from etacomplex.rings import _MR_BOUND, GF, QQ, ZZ, CoeffRing, Zmod, _is_prime, _prime_powers, ring_from_name


def M(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def _random_system(rng, ring, r, c):
    """a x = b over Z/m; half the time a has only zero divisors, so pivots
    are non-units, and half the time b = a x0 is consistent by construction."""
    m = ring.modulus
    pool = range(m)
    if rng.random() < 0.5:
        pool = [x for x in range(m) if math.gcd(x, m) > 1]
    a = RingMatrix(ring, r, c, [rng.choice(pool) for _ in range(r * c)])
    if rng.random() < 0.5:
        return a, mat_mul(a, RingMatrix(ring, c, 1, [rng.randrange(m) for _ in range(c)]))
    return a, RingMatrix(ring, r, 1, [rng.randrange(m) for _ in range(r)])


def _all_solutions(a, b):
    """Every x with a x = b over Z/m, by enumerating all m^cols vectors."""
    m = a.ring.modulus
    rows = [a.row(i) for i in range(a.rows)]
    return {
        v for v in itertools.product(range(m), repeat=a.cols)
        if all(sum(x * y for x, y in zip(row, v)) % m == b[(i, 0)] for i, row in enumerate(rows))
    }


def _reached(part, gens, m):
    """part + span(gens) over Z/m, as a set of tuples."""
    reached = {tuple(part.entries)}
    frontier = list(reached)
    while frontier:
        frontier = [
            w for w in {
                tuple((x + y) % m for x, y in zip(v, g.entries))
                for v in frontier for g in gens
            }
            if w not in reached
        ]
        reached.update(frontier)
    return reached


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


def _rows(a: RingMatrix, col: List) -> List[dict]:
    """The dict rows of [a | col], col in column a.cols, as `_solve` takes them."""
    return [{j: x for j, x in enumerate(a.row(i) + [col[i]]) if x} for i in range(a.rows)]


def _solve_cols(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """`_solve` run on one rhs column at a time, in the references' shape:
    (a solution or None per column, the kernel generators of a x = 0)."""
    sols = [_solve(a.ring, _rows(a, col), a.cols, want_kernel)[0] for col in rhs_cols]
    kern = _solve(a.ring, _rows(a, [0] * a.rows), a.cols, True)[1] if want_kernel else []
    return sols, kern


def _solve_integer_cols(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """`_solve_integer` on the dict rows of [a | col], one rhs column at a
    time, in the references' shape."""
    sols = [_solve_integer(_rows(a, col), a.cols, False)[0] for col in rhs_cols]
    kern = _solve_integer(_rows(a, [0] * a.rows), a.cols, True)[1] if want_kernel else []
    return sols, kern


def _dense_gauss_jordan(a, rhs_cols, want_kernel):
    """Reference: full Gauss-Jordan over GF(p) or Q on dense rows, pivot
    columns left to right, the first row with a nonzero as pivot row."""
    ring = a.ring
    n, m = a.rows, a.cols
    M = [a.row(i) + [col[i] for col in rhs_cols] for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if M[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = ring.inv(M[r][c])
        M[r] = [ring.mul(inv, x) for x in M[r]]
        for i in range(n):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    sols = []
    for t in range(len(rhs_cols)):
        col = m + t
        if any(M[i][col] != 0 for i in range(r, n)):
            sols.append(None)
            continue
        x = [ring.zero()] * m
        for i, c in enumerate(pivots):
            x[c] = M[i][col]
        sols.append(x)
    kern = []
    if want_kernel:
        pivset = set(pivots)
        for free in range(m):
            if free in pivset:
                continue
            v = [ring.zero()] * m
            v[free] = ring.one()
            for i, c in enumerate(pivots):
                v[c] = ring.neg(M[i][free])
            kern.append(v)
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


def _dense_zmod(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """Reference: solve over Z/m by diagonalizing a directly, every entry
    kept in [0, m).

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


def _random_field_entry(rng, ring):
    if ring == QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return rng.randrange(ring.modulus)


class TestMatMul:
    def test_identity(self):
        m = M(ZZ, [[1, 2], [3, 4]])
        assert mat_mul(RingMatrix.identity(ZZ, 2), m) == m

    def test_mod4_annihilation(self):
        r = Zmod(4)
        assert mat_mul(M(r, [[2]]), M(r, [[2]])) == M(r, [[0]])

    def test_hand_expansion(self):
        a = M(ZZ, [[1, 2], [0, 1]])
        b = M(ZZ, [[1, 0], [3, 1]])
        assert mat_mul(a, b) == M(ZZ, [[7, 2], [3, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(M(ZZ, [[1, 2]]), M(ZZ, [[1, 2]]))

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(M(ZZ, [[1]]), M(Zmod(4), [[1]]))

    def test_associative_and_bilinear_random(self):
        rng = random.Random(7)
        for ring in (ZZ, Zmod(6), GF(5), QQ):
            for _ in range(30):
                dims = [rng.randint(0, 3) for _ in range(4)]
                mats = []
                for r, c in zip(dims, dims[1:]):
                    mats.append(
                        RingMatrix(ring, r, c, [rng.randint(-9, 9) for _ in range(r * c)])
                    )
                a, b, c = mats
                assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
                b2 = RingMatrix(
                    ring, b.rows, b.cols, [rng.randint(-9, 9) for _ in range(b.rows * b.cols)]
                )
                assert mat_mul(a, b + b2) == mat_mul(a, b) + mat_mul(a, b2)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        a = RingMatrix.zero(ZZ, 2, 3)
        U, D, V = smith_normal_form(a)
        assert D.is_zero()
        assert verify_snf(a, U, D, V)

    def test_one_by_one(self):
        a = M(ZZ, [[2]])
        _, D, _ = smith_normal_form(a)
        assert D == M(ZZ, [[2]])

    def test_diag_2_4(self):
        a = M(ZZ, [[2, 4], [6, 8]])
        U, D, V = smith_normal_form(a)
        assert [D[(0, 0)], D[(1, 1)]] == [2, 4]
        assert D[(0, 1)] == 0 and D[(1, 0)] == 0
        assert verify_snf(a, U, D, V)

    def test_unsupported_ring(self):
        with pytest.raises(ValueError):
            smith_normal_form(M(Zmod(4), [[2]]))

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            a = RingMatrix(ZZ, r, c, [rng.randint(-20, 20) for _ in range(r * c)])
            U, D, V = smith_normal_form(a)
            assert verify_snf(a, U, D, V)


class TestSolve:
    def test_integer_simple(self):
        x = solve_linear_system(M(ZZ, [[2]]), M(ZZ, [[4]]))
        assert x == M(ZZ, [[2]])

    def test_integer_parity(self):
        assert solve_linear_system(M(ZZ, [[2]]), M(ZZ, [[3]])) is None

    def test_mod4(self):
        x = solve_linear_system(M(Zmod(4), [[2]]), M(Zmod(4), [[2]]))
        assert x is not None
        assert x[(0, 0)] in (1, 3)

    def test_field(self):
        a = M(GF(5), [[2, 1], [1, 1]])
        b = M(GF(5), [[1], [2]])
        x = solve_linear_system(a, b)
        assert mat_mul(a, x) == b

    def test_rationals(self):
        a = M(QQ, [[2, 0], [0, 3]])
        b = M(QQ, [[1], [1]])
        x = solve_linear_system(a, b)
        assert mat_mul(a, x) == b

    def test_solution_exactness_random(self):
        rng = random.Random(3)
        for ring in (ZZ, Zmod(4), Zmod(9), GF(5), QQ):
            for _ in range(40):
                r = rng.randint(1, 4)
                c = rng.randint(1, 4)
                a = RingMatrix(ring, r, c, [rng.randint(-6, 6) for _ in range(r * c)])
                b = RingMatrix(ring, r, 1, [rng.randint(-6, 6) for _ in range(r)])
                x = solve_linear_system(a, b)
                if x is not None:
                    assert mat_mul(a, x) == b

    @pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Zmod(9), GF(2), GF(3)])
    def test_brute_force_agreement(self, ring):
        """Solvability agrees with full enumeration for dims <= 3 over small rings."""
        rng = random.Random(ring.modulus)
        m = ring.modulus
        for _ in range(25):
            r = rng.randint(1, 3)
            c = rng.randint(1, 2)
            a = RingMatrix(ring, r, c, [rng.randrange(m) for _ in range(r * c)])
            b = RingMatrix(ring, r, 1, [rng.randrange(m) for _ in range(r)])
            solvable = any(
                mat_mul(a, RingMatrix(ring, c, 1, list(v))) == b
                for v in itertools.product(range(m), repeat=c)
            )
            x = solve_linear_system(a, b)
            assert (x is not None) == solvable
            if x is not None:
                assert mat_mul(a, x) == b

    @pytest.mark.parametrize("ring", [Zmod(8), Zmod(12), Zmod(36)])
    def test_brute_force_agreement_zmod(self, ring):
        """Solvability agrees with enumeration over Z/8 and over Z/12, Z/36,
        where the pivot need not divide its row and column (two primes)."""
        rng = random.Random(ring.modulus)
        m = ring.modulus
        max_c = 3 if m**3 <= 10**4 else 2
        for _ in range(25):
            a, b = _random_system(rng, ring, rng.randint(1, 3), rng.randint(1, max_c))
            x = solve_linear_system(a, b)
            assert (x is not None) == bool(_all_solutions(a, b))
            if x is not None:
                assert mat_mul(a, x) == b

    @pytest.mark.parametrize("ring", [Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12),
                                      Zmod(16), Zmod(27)])
    def test_kernel_completeness_zmod(self, ring):
        """part + span(gens) is exactly the solution set, by enumeration."""
        rng = random.Random(100 + ring.modulus)
        m = ring.modulus
        max_c = 3 if m**3 <= 5000 else 2
        for _ in range(25):
            a, b = _random_system(rng, ring, rng.randint(1, 3), rng.randint(1, max_c))
            sols = _all_solutions(a, b)
            part, gens = solve_with_kernel(a, b)
            assert (part is not None) == bool(sols)
            if part is None:
                continue
            for g in gens:
                assert mat_mul(a, g).is_zero()
            assert _reached(part, gens, m) == sols

    def test_zmod12_column_refilled_by_gcd_step(self):
        """A fixed Z/12 system that the old dense mod-m solver got wrong: an
        extended-gcd column step refilled the pivot column below the pivot,
        and a later column step acted on the pivot row only.  Kept as a
        regression case for the CRT split (Z/4 x Z/3)."""
        ring = Zmod(12)
        a = M(ring, [[2, 3, 4], [0, 2, 10]])
        b = RingMatrix(ring, 2, 1, [0, 2])
        assert mat_mul(a, RingMatrix(ring, 3, 1, [1, 2, 1])) == b
        part, gens = solve_with_kernel(a, b)
        assert part is not None
        assert mat_mul(a, part) == b
        for g in gens:
            assert mat_mul(a, g).is_zero()

    @pytest.mark.parametrize("ring", [Zmod(12), Zmod(16), Zmod(27), Zmod(30), Zmod(36),
                                      Zmod(72)])
    def test_zmod_against_integer_oracle(self, ring):
        """Up to 6x6 over prime powers and over two- and three-prime moduli:
        a x = b (mod m) is solvable iff [a | m I] (x, k) = b is over Z, and
        every returned solution and kernel generator checks."""
        rng = random.Random(200 + ring.modulus)
        m = ring.modulus
        for _ in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            a, b = _random_system(rng, ring, r, c)
            lifted = M(ZZ, [a.row(i) + [m * (k == i) for k in range(r)] for i in range(r)])
            solvable = solve_linear_system(lifted, RingMatrix(ZZ, r, 1, b.entries)) is not None
            part, gens = solve_with_kernel(a, b)
            assert (part is not None) == solvable
            if part is not None:
                assert mat_mul(a, part) == b
            for g in gens:
                assert mat_mul(a, g).is_zero()

    def test_large_zmod8_consistent(self):
        """A seeded 80x80 system over Z/8, consistent by construction."""
        ring = Zmod(8)
        rng = random.Random(80)
        n = 80
        a = RingMatrix(ring, n, n, [rng.randrange(8) if rng.random() < 0.3 else 0 for _ in range(n * n)])
        b = mat_mul(a, RingMatrix(ring, n, 1, [rng.randrange(8) for _ in range(n)]))
        x = solve_linear_system(a, b)
        assert x is not None
        assert mat_mul(a, x) == b

    @pytest.mark.parametrize("ring", [GF(5), Zmod(8), ZZ, QQ])
    def test_rhs_rows_must_match(self, ring):
        """An rhs with the wrong number of rows is rejected, not truncated."""
        a = M(ring, [[1]])
        b = M(ring, [[1], [3]])
        for solve in (solve_linear_system, solve_with_kernel):
            with pytest.raises(ValueError, match="rhs must be a column matching coeffs.rows"):
                solve(a, b)

    def test_large_gf5_consistent(self):
        """A seeded 80x80 system over GF(5), consistent by construction."""
        ring = GF(5)
        rng = random.Random(80)
        n = 80
        a = RingMatrix(ring, n, n, [rng.randrange(5) if rng.random() < 0.3 else 0 for _ in range(n * n)])
        b = mat_mul(a, RingMatrix(ring, n, 1, [rng.randrange(5) for _ in range(n)]))
        x = solve_linear_system(a, b)
        assert x is not None
        assert mat_mul(a, x) == b

    def test_rational_30_consistent(self):
        """A seeded 30x30 system over Q with fractional entries."""
        rng = random.Random(30)
        n = 30
        a = RingMatrix(QQ, n, n, [_random_field_entry(rng, QQ) if rng.random() < 0.3 else 0
                                  for _ in range(n * n)])
        b = mat_mul(a, RingMatrix(QQ, n, 1, [_random_field_entry(rng, QQ) for _ in range(n)]))
        part, gens = solve_with_kernel(a, b)
        assert part is not None
        assert mat_mul(a, part) == b
        for g in gens:
            assert mat_mul(a, g).is_zero()

    def test_kernel_generators(self):
        a = M(ZZ, [[2, 4]])
        gens = kernel_generators(a)
        assert gens
        for g in gens:
            assert mat_mul(a, g).is_zero()

    def test_kernel_mod4(self):
        a = M(Zmod(4), [[2]])
        gens = kernel_generators(a)
        vals = {g[(0, 0)] for g in gens}
        assert 2 in vals

    def test_solve_with_kernel_covers_solutions(self):
        ring = Zmod(4)
        a = M(ring, [[2]])
        b = M(ring, [[2]])
        part, gens = solve_with_kernel(a, b)
        assert part is not None
        reachable = {part[(0, 0)]}
        for g in gens:
            for t in range(4):
                reachable.add((part[(0, 0)] + t * g[(0, 0)]) % 4)
        assert reachable == {1, 3}


class TestFieldOracle:
    """The sparse field solver against dense Gauss-Jordan, entry for entry:
    both fix the pivot columns left to right and set free variables to 0."""

    @pytest.mark.parametrize("ring", [GF(2), GF(5), QQ], ids=str)
    def test_matches_dense_reference(self, ring):
        rng = random.Random(500 + ring.modulus)
        seen = {k: 0 for k in ("0xn", "nx0", "zero row", "zero column", "density 0",
                               "density 1", "several rhs", "inconsistent", "kernel")}
        for _ in range(300):
            n, m = rng.randint(0, 8), rng.randint(0, 8)
            density = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0, rng.random()])
            rows = [[_random_field_entry(rng, ring) if rng.random() < density else 0
                     for _ in range(m)] for _ in range(n)]
            if n and rng.random() < 0.3:
                rows[rng.randrange(n)] = [0] * m
            if m and rng.random() < 0.3:
                j = rng.randrange(m)
                for row in rows:
                    row[j] = 0
            a = RingMatrix(ring, n, m, [x for row in rows for x in row])
            rhs_cols = [[ring.canon(_random_field_entry(rng, ring)) if rng.random() < density else
                         ring.zero() for _ in range(n)] for _ in range(rng.randint(0, 3))]
            if rhs_cols and rng.random() < 0.5:
                x = RingMatrix(ring, m, 1, [_random_field_entry(rng, ring) for _ in range(m)])
                rhs_cols[0] = mat_mul(a, x).column(0)
            sols, kern = _solve_cols(a, rhs_cols, True)
            assert (sols, kern) == _dense_gauss_jordan(a, rhs_cols, True)
            assert _solve_cols(a, rhs_cols, False) == (sols, [])
            seen["0xn"] += n == 0 and m > 0
            seen["nx0"] += m == 0 and n > 0
            seen["zero row"] += n > 0 and m > 0 and any(not any(a.row(i)) for i in range(n))
            seen["zero column"] += n > 0 and m > 0 and any(not any(a.column(j)) for j in range(m))
            seen["density 0"] += density == 0.0 and n * m > 0
            seen["density 1"] += density == 1.0 and n * m > 0
            seen["several rhs"] += len(rhs_cols) > 1
            seen["inconsistent"] += None in sols
            seen["kernel"] += len(kern) > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("ring", [GF(2), GF(3)], ids=str)
    def test_kernel_completeness_field(self, ring):
        """part + span(gens) is exactly the solution set, by enumeration."""
        rng = random.Random(600 + ring.modulus)
        p = ring.modulus
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = RingMatrix(ring, r, c, [rng.randrange(p) for _ in range(r * c)])
            if rng.random() < 0.5:
                b = mat_mul(a, RingMatrix(ring, c, 1, [rng.randrange(p) for _ in range(c)]))
            else:
                b = RingMatrix(ring, r, 1, [rng.randrange(p) for _ in range(r)])
            sols = _all_solutions(a, b)
            part, gens = solve_with_kernel(a, b)
            assert (part is not None) == bool(sols)
            if part is not None:
                assert _reached(part, gens, p) == sols


def _integral(row: dict) -> dict:
    """A dict row of Q entries times the lcm of its denominators."""
    d = math.lcm(*(Fraction(x).denominator for x in row.values()))
    return {j: int(x * d) for j, x in row.items()}


class TestIntegralRationalElimination:
    """Over Q, `_solve` keeps each row integral and makes a Fraction only at
    back substitution; its answers stay those of dense Gauss-Jordan."""

    def test_matches_dense_reference(self):
        rng = random.Random(700)
        nums = [2, -2, 3, -3, 5, 6, -7, 10, -14, 15]  # no +-1, few divisors of one another
        seen = {k: 0 for k in ("non-dividing pivot", "rank-deficient", "inconsistent",
                               "kernel", "no kernel", "fractional solution")}
        for _ in range(300):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.choice([0.4, 0.7, 1.0])
            rows = [[Fraction(rng.choice(nums), rng.randint(1, 12)) if rng.random() < density else 0
                     for _ in range(m)] for _ in range(n)]
            for _ in range(rng.randint(0, 2)):  # a dependent row
                u, v = rng.choice(rows), rng.choice(rows)
                c = Fraction(rng.choice(nums), rng.randint(1, 12))
                rows.append([x + c * y for x, y in zip(u, v)])
            n = len(rows)
            a = RingMatrix(QQ, n, m, [x for row in rows for x in row])
            if rng.random() < 0.5:
                x0 = RingMatrix(QQ, m, 1, [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                                           for _ in range(m)])
                b = mat_mul(a, x0).column(0)
            else:
                b = [QQ.canon(Fraction(rng.choice(nums), rng.randint(1, 12))) for _ in range(n)]
            sols, kern = _solve_cols(a, [b], True)
            assert (sols, kern) == _dense_gauss_jordan(a, [b], True)
            assert _solve_cols(a, [b], False) == (sols, [])
            cols = [[x for x in col if x] for col in zip(*(_integral(r).values() for r in
                                                           _rows(a, [0] * n) if r))]
            seen["non-dividing pivot"] += any(
                len(col) > 1 and all(x % y for i, x in enumerate(col)
                                     for k, y in enumerate(col) if i != k) for col in cols)
            seen["rank-deficient"] += m - len(kern) < min(n, m)
            seen["inconsistent"] += sols[0] is None
            seen["kernel"] += bool(kern)
            seen["no kernel"] += not kern
            seen["fractional solution"] += sols[0] is not None and any(
                type(x) is Fraction for x in sols[0])
        assert all(seen.values()), seen

    def test_integral_system_builds_no_fraction(self, monkeypatch):
        """An integral system whose solution is integral, or that has none,
        is eliminated and back-substituted without a single Fraction."""
        rng = random.Random(701)
        cases = []
        while len(cases) < 60:
            m = rng.randint(1, 6)
            n = m + rng.randint(0, 3)
            a = RingMatrix(QQ, n, m, [rng.choice([0, 2, -3, 4, 5, -6, 7, 9, -10, 12])
                                      for _ in range(n * m)])
            if _dense_gauss_jordan(a, [], True)[1]:
                continue  # a kernel: free variables 0 need not give an integral solution
            x0 = [rng.randint(-5, 5) for _ in range(m)]
            b = mat_mul(a, RingMatrix(QQ, m, 1, x0)).column(0)
            if n > m and rng.random() < 0.5:
                b[rng.randrange(n)] += 1
            want = _dense_gauss_jordan(a, [b], False)[0][0]
            assert want is None or want == x0
            cases.append((_rows(a, b), m, want))
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        got = [_solve(QQ, rows, m, False)[0] for rows, m, _ in cases]
        monkeypatch.undo()
        assert made == []
        assert got == [want for _, _, want in cases]
        assert any(w is None for _, _, w in cases) and any(w is not None for _, _, w in cases)
        assert all(type(x) is int for x0 in got if x0 is not None for x in x0)


def _in_span(ring, gens, v):
    """Whether v is a combination of gens, by the dense Z or Z/m solver."""
    m = len(v)
    g = RingMatrix(ring, m, len(gens), [x for j in range(m) for x in (h[j] for h in gens)])
    dense = _solve_integer_cols if ring == ZZ else _dense_zmod
    return dense(g, [v], False)[0][0] is not None


def _random_unit_mix(rng, ring, n, m):
    """An n x m system over Z or Z/m whose entries are units with a chance
    drawn per system, 0 to 1, and otherwise non-units (0 included); a zero
    row or column now and then; b = a x0 half the time."""
    if ring == ZZ:
        units, others = [1, -1], [0, 0, 2, -2, 3, -4, 6]
    else:
        units = [x for x in range(ring.modulus) if math.gcd(x, ring.modulus) == 1]
        others = [x for x in range(ring.modulus) if math.gcd(x, ring.modulus) > 1]
    p_unit = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0])
    density = rng.choice([0.2, 0.5, 1.0])
    rows = [[(rng.choice(units) if rng.random() < p_unit else rng.choice(others))
             if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    if n and rng.random() < 0.3:
        rows[rng.randrange(n)] = [0] * m
    if m and rng.random() < 0.3:
        j = rng.randrange(m)
        for row in rows:
            row[j] = 0
    a = RingMatrix(ring, n, m, [x for row in rows for x in row])
    if rng.random() < 0.5:
        x0 = RingMatrix(ring, m, 1, [rng.randint(-3, 3) for _ in range(m)])
        return a, mat_mul(a, x0)
    return a, RingMatrix(ring, n, 1, [rng.randint(-3, 3) for _ in range(n)])


def _forces_tier_pivot(a):
    """Whether a prime-power part Z/p^k (k >= 2) of a's ring sees a nonzero
    matrix with no entry prime to p, so that the part pivots at a tier >= 1."""
    for p, k in _prime_powers(a.ring.modulus):
        part = [x % p**k for x in a.entries]
        if k >= 2 and any(part) and all(x % p == 0 for x in part):
            return True
    return False


class TestUnitPivotOracle:
    """The sparse solver over Z and Z/m against the dense Z and Z/m solvers
    run on the whole system: the same solvability, solutions and kernel
    generators that check, and kernels spanning the same module."""

    @pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(12), Zmod(16),
                                      Zmod(27), Zmod(36), Zmod(72)], ids=str)
    def test_matches_dense_solver(self, ring, monkeypatch):
        dense = _solve_integer_cols if ring == ZZ else _dense_zmod
        residuals = []

        def recording(A, m, want_kernel):
            residuals.append(RingMatrix(ZZ, len(A), m, [row.get(j, 0) for row in A for j in range(m)]))
            return _solve_integer(A, m, want_kernel)

        monkeypatch.setattr(linalg, "_solve_integer", recording)
        rng = random.Random(700 + ring.modulus)
        if ring == ZZ:
            seen = {"no residual": 0, "nonzero residual": 0}
        else:
            factors = _prime_powers(ring.modulus)
            seen = {}
            if any(k >= 2 for _, k in factors):
                seen["tier >= 1 pivot"] = 0
            if len(factors) > 1:
                seen["CRT split"] = 0
        seen.update({"no unit pivot": 0, "inconsistent": 0, "kernel": 0})
        for _ in range(200):
            n, m = rng.randint(0, 7), rng.randint(0, 7)
            a, b = _random_unit_mix(rng, ring, n, m)
            before = len(residuals)
            part, gens = solve_with_kernel(a, b)
            went_dense = len(residuals) > before
            if went_dense:
                assert ring == ZZ
                assert any(residuals[-1].entries)
            whole_sols, whole_kern = dense(a, [b.column(0)], True)
            assert (part is None) == (whole_sols[0] is None)
            if part is not None:
                assert mat_mul(a, part) == b
            for g in gens:
                assert mat_mul(a, g).is_zero()
            kern = [g.column(0) for g in gens]
            assert all(_in_span(ring, kern, v) for v in whole_kern)
            assert all(_in_span(ring, whole_kern, v) for v in kern)
            if ring != ZZ and part is not None and ring.modulus ** m <= 5000:
                assert _reached(part, gens, ring.modulus) == _all_solutions(a, b)
            nonzero = any(a.entries)
            if ring == ZZ:
                seen["no residual"] += nonzero and not went_dense
                seen["nonzero residual"] += went_dense
            else:
                if "tier >= 1 pivot" in seen:
                    seen["tier >= 1 pivot"] += _forces_tier_pivot(a)
                if "CRT split" in seen:
                    seen["CRT split"] += nonzero
            seen["no unit pivot"] += nonzero and not any(ring.is_unit(x) for x in a.entries)
            seen["inconsistent"] += part is None
            seen["kernel"] += len(gens) > 1
        assert all(seen.values()), seen

    def test_large_integer_consistent(self):
        """A seeded 80x80 system over Z, 30% nonzeros in -2..2, consistent
        by construction."""
        rng = random.Random(80)
        n = 80
        a = RingMatrix(ZZ, n, n, [rng.randint(-2, 2) if rng.random() < 0.3 else 0
                                  for _ in range(n * n)])
        b = mat_mul(a, RingMatrix(ZZ, n, 1, [rng.randint(-2, 2) for _ in range(n)]))
        x = solve_linear_system(a, b)
        assert x is not None
        assert mat_mul(a, x) == b

    @pytest.mark.parametrize("ring", [ZZ, Zmod(8)], ids=str)
    def test_rhs_left_in_residual_row(self, ring):
        """After the unit pivot in column 0, row 1 keeps only its rhs: no
        solution, whether or not another residual row has a coefficient."""
        for rows in ([[1, 1], [1, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 2]]):
            a = M(ring, rows)
            good = mat_mul(a, RingMatrix(ring, a.cols, 1, [1] * a.cols))
            assert mat_mul(a, solve_linear_system(a, good)) == good
            bad = RingMatrix(ring, a.rows, 1, [good[(0, 0)], good[(1, 0)] + 1] + good.entries[2:])
            assert solve_linear_system(a, bad) is None
            assert solve_with_kernel(a, bad)[0] is None


def _reference_snf(a: RingMatrix) -> Tuple[RingMatrix, RingMatrix, RingMatrix]:
    """Reference: the Smith pivot loop that forms U and V alongside A, as
    `smith_normal_form` ran it before the rhs was carried."""
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

    Um = RingMatrix._trusted(ZZ, n, n, [x for row in U for x in row])
    Vm = RingMatrix._trusted(ZZ, m, m, [x for row in V for x in row])
    Dm = RingMatrix._trusted(ZZ, n, m, [x for row in A for x in row])
    return Um, Dm, Vm


def _reference_solve_integer(a: RingMatrix, rhs_cols: List[List], want_kernel: bool):
    """Reference: solve over Z through the formed U, D, V of `_reference_snf`."""
    n, m = a.rows, a.cols
    U, D, V = _reference_snf(a)
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


def _reference_rows(A: List[Dict[int, int]], m: int, want_kernel: bool):
    """`_reference_solve_integer` on the dict rows A of [a | b], b in
    column m, taken and answered in `_solve_integer`'s shape."""
    a = RingMatrix(ZZ, len(A), m, [row.get(j, 0) for row in A for j in range(m)])
    sols, kern = _reference_solve_integer(a, [[row.get(m, 0) for row in A]], want_kernel)
    return sols[0], kern


def _hermite(vectors: List[List[int]]) -> List[List[int]]:
    """The Hermite normal form of the lattice the integer vectors span: its
    nonzero rows, pivots positive and left to right, every entry above a
    pivot in [0, pivot)."""
    rows, hnf = [list(v) for v in vectors], []
    for j in range(len(rows[0]) if rows else 0):
        while sum(1 for r in rows if r[j]) > 1:  # Euclid down column j
            p = min((r for r in rows if r[j]), key=lambda r: abs(r[j]))
            for r in rows:
                if r is not p and r[j]:
                    c = r[j] // p[j]
                    r[:] = [x - c * y for x, y in zip(r, p)]
        i = next((i for i, r in enumerate(rows) if r[j]), None)
        if i is None:
            continue
        p = rows.pop(i)
        if p[j] < 0:
            p = [-x for x in p]
        for r in hnf:
            c = r[j] // p[j]
            r[:] = [x - c * y for x, y in zip(r, p)]
        hnf.append(p)
    return hnf


def _random_residual(rng, m):
    """A system shaped like a Z residual: 3-5 times as many rows as columns,
    entries in -20..20, one or two rhs columns (the first a x0 half the
    time), a few rows with no coefficient, their rhs kept or cleared, and
    now and then a zero column, so that the kernel is not zero."""
    n = m * rng.randint(3, 5)
    density = rng.choice([0.3, 0.6, 1.0])
    rows = [[rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(m)]
            for _ in range(n)]
    if rng.random() < 0.3:
        j = rng.randrange(m)
        for row in rows:
            row[j] = 0
    rhs_cols = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        x0 = [rng.randint(-3, 3) for _ in range(m)]
        rhs_cols[0] = [sum(x * y for x, y in zip(row, x0)) for row in rows]
    for i in rng.sample(range(n), rng.randint(0, 3)):
        rows[i] = [0] * m
        keep = rng.random() < 0.5
        for col in rhs_cols:
            col[i] = rng.choice([-3, 5, 7]) if keep else 0
    return RingMatrix(ZZ, n, m, [x for row in rows for x in row]), rhs_cols


def _residual_with_factors(rng, m, pair=None):
    """a = L D R over Z, n x m, L and R products of elementary steps and D
    diagonal of rank r with entries in {1, 2, 3, 4, 6}, one of them >= 2, or,
    given a pair such as (2, 3) and m >= 2, two of them that pair, so that D
    is no divisibility chain; rhs columns b = L c with c_i = 0 for i >= r,
    and a x0.  Returns (a, rhs columns, the verdict each column must get)."""
    n, r = m * rng.randint(2, 4), rng.randint(2 if pair else 1, m)
    diag = [rng.choice([1, 2, 3, 4, 6]) for _ in range(r)]
    if pair:
        for i, d in zip(rng.sample(range(r), 2), pair):
            diag[i] = d
    else:
        diag[rng.randrange(r)] = rng.choice([2, 3, 4, 6])
    cs, verdicts = [], []
    for _ in range(rng.randint(1, 3)):
        c = [rng.randint(-6, 6) for _ in range(r)]
        if rng.random() < 0.5:
            c = [d * rng.randint(-2, 2) for d in diag]
        cs.append(c + [0] * (n - r))
        verdicts.append("indivisible NONE" if any(x % d for x, d in zip(c, diag)) else "divisible SOME")
    # the rows of [D | c ...]: row steps act on whole rows (L), column steps on a only (R)
    A = [[diag[i] if i == j and i < r else 0 for j in range(m)] + [c[i] for c in cs] for i in range(n)]
    for _ in range(3 * n):  # n >= 2
        i, k = rng.sample(range(n), 2)
        f = rng.choice([-2, -1, 1, 2])
        A[i] = [x + f * y for x, y in zip(A[i], A[k])]
        if m > 1:
            j, l = rng.sample(range(m), 2)
            f = rng.choice([-1, 1])
            for row in A:
                row[j] += f * row[l]
        rng.shuffle(A)
    a = RingMatrix(ZZ, n, m, [x for row in A for x in row[:m]])
    rhs_cols = [[row[m + t] for row in A] for t in range(len(cs))]
    x0 = [rng.randint(-3, 3) for _ in range(m)]
    rhs_cols.append([sum(x * y for x, y in zip(row, x0)) for row in A])
    return a, rhs_cols, verdicts + ["x0 SOME"]


class TestResidualSolveOracle:
    """The Z residual solve, which carries the rhs through the Smith pivot
    loop on sparse rows, against the reference that forms U.  Where every
    invariant factor is a unit no fold is ever taken, so the solutions and
    kernel generators agree entry for entry; with non-unit factors the
    solve, which does not fold, agrees in its verdicts and in the lattice
    its generators span.  `smith_normal_form`, which folds, gives the same
    (U, D, V)."""

    def test_matches_formed_u(self, monkeypatch):
        rng = random.Random(1201)
        calls = []

        def recording(solver):
            def solve(A, m, want_kernel):
                calls.append(solver)
                return solver(A, m, want_kernel)
            return solve

        seen = {"early NONE": 0, "dense": 0, "NONE": 0, "SOME": 0, "kernel": 0}
        for _ in range(150):
            a, rhs_cols = _random_residual(rng, rng.randint(1, 8))
            want_kernel = rng.random() < 0.5
            ref = _reference_solve_integer(a, rhs_cols, want_kernel)
            assert _solve_integer_cols(a, rhs_cols, want_kernel) == ref
            assert smith_normal_form(a) == _reference_snf(a)

            # the reference _solve: the formed-U residual solve, with a kernel
            # asked for, so that it never returns before building the residual
            calls.clear()
            monkeypatch.setattr(linalg, "_solve_integer", recording(_reference_rows))
            ref_sols, ref_kern = _solve_cols(a, rhs_cols, True)
            monkeypatch.setattr(linalg, "_solve_integer", recording(_solve_integer))
            sols, kern = _solve_cols(a, rhs_cols, want_kernel)
            assert sols == ref_sols
            assert kern == (ref_kern if want_kernel else [])
            if set(calls) == {_reference_rows}:  # the residual was never built
                assert not want_kernel and all(s is None for s in sols)
                seen["early NONE"] += 1
            seen["dense"] += _solve_integer in calls
            seen["NONE"] += None in sols
            seen["SOME"] += any(s is not None for s in sols)
            seen["kernel"] += len(kern) > 0
        assert all(seen.values()), seen

    def test_non_unit_invariant_factors(self, monkeypatch):
        """Residuals L D R with L, R unimodular and D holding a factor d >= 2,
        or two factors neither of which divides the other, (2, 3) or (4, 6),
        which only the divisibility fold of `smith_normal_form` orders into
        d_t | d_t+1: with b = L c, c_i = 0 below the rank, the system is
        solvable over Q, and over Z iff d_i | c_i, so a solver that skips
        that test answers the NONE cases wrongly.  The solve does not fold,
        so its V may differ from the reference's: the verdicts agree, every
        solution and kernel generator checks exactly, and the generators are
        as many as the reference's and span the same lattice."""
        rng = random.Random(1203)
        seen = {"divisible SOME": 0, "indivisible NONE": 0, "x0 SOME": 0, "no chain": 0}
        for k in range(120):
            pair = None if k < 80 else [(2, 3), (4, 6)][k % 2]
            m = rng.randint(2 if pair else 1, 6)
            a, rhs_cols, verdicts = _residual_with_factors(rng, m, pair)
            want_kernel = rng.random() < 0.5
            ref = _reference_solve_integer(a, rhs_cols, want_kernel)
            monkeypatch.setattr(linalg, "_solve_integer", _reference_rows)
            ref_solve = _solve_cols(a, rhs_cols, want_kernel)
            monkeypatch.setattr(linalg, "_solve_integer", _solve_integer)
            got_solve = _solve_cols(a, rhs_cols, want_kernel)
            for (sols, kern), (ref_sols, ref_kern) in (
                    (_solve_integer_cols(a, rhs_cols, want_kernel), ref), (got_solve, ref_solve)):
                assert [s is None for s in sols] == [s is None for s in ref_sols]
                for sol, b in zip(sols, rhs_cols):
                    if sol is not None:
                        assert mat_mul(a, RingMatrix(ZZ, m, 1, sol)).entries == b
                for g in kern:
                    assert mat_mul(a, RingMatrix(ZZ, m, 1, g)).is_zero()
                assert len(kern) == len(ref_kern)
                assert _hermite(kern) == _hermite(ref_kern)
            for sol, verdict in zip(got_solve[0], verdicts):
                assert (sol is not None) == (verdict != "indivisible NONE")
                seen[verdict] += 1
            assert smith_normal_form(a) == _reference_snf(a)
            seen["no chain"] += pair is not None
        assert all(seen.values()), seen

    def test_snf_matches_reference(self):
        rng = random.Random(1202)
        for _ in range(60):
            r, c = rng.randint(0, 7), rng.randint(0, 7)
            a = RingMatrix(ZZ, r, c, [rng.randint(-20, 20) for _ in range(r * c)])
            assert smith_normal_form(a) == _reference_snf(a)


class TestContentDivisionOracle:
    """The Z solver divides each row left over after a +-1 pass by its
    content (`_divide_content`).  Against `_solve_integer` on the whole
    system, which divides nothing: the same verdicts, solutions that check,
    and kernels spanning the same lattice."""

    def test_verdicts_match_the_whole_system(self, monkeypatch):
        rng = random.Random(1301)
        outcomes = []
        divide = linalg._divide_content

        def recording(rows, m):
            outcomes.append(divide(rows, m))
            return outcomes[-1]

        monkeypatch.setattr(linalg, "_divide_content", recording)
        seen = {"content NONE": 0, "content NONE, kernel": 0, "another pass": 0,
                "another pass, SOME": 0, "kernel": 0}
        for _ in range(300):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            a, b = _random_unit_mix(rng, ZZ, n, m)
            rows = [a.row(i) + [b[(i, 0)]] for i in range(n)]
            for row in rows:  # rows with a content, whose rhs stays divisible or not
                if rng.random() < 0.5:
                    c = rng.choice([2, 3, 6])
                    row[:] = [c * x for x in row]
                    if rng.random() < 0.3:
                        row[-1] += rng.choice([1, -1])
            a = RingMatrix(ZZ, n, m, [x for row in rows for x in row[:m]])
            col = [row[m] for row in rows]
            want_kernel = rng.random() < 0.5
            outcomes.clear()
            x, kern = _solve(ZZ, _rows(a, col), m, want_kernel)
            ref_sols, ref_kern = _solve_integer_cols(a, [col], True)
            assert (x is None) == (ref_sols[0] is None)
            if x is not None:
                assert mat_mul(a, RingMatrix(ZZ, m, 1, x)).column(0) == col
            if want_kernel:
                for g in kern:
                    assert mat_mul(a, RingMatrix(ZZ, m, 1, g)).is_zero()
                assert _hermite(kern) == _hermite(ref_kern)
            else:
                assert kern == []
            bad = any(d for _, d in outcomes)
            assert not bad or x is None
            seen["content NONE"] += bad
            seen["content NONE, kernel"] += bad and want_kernel and len(kern) > 0
            another = any(u for u, _ in outcomes)
            seen["another pass"] += another
            seen["another pass, SOME"] += another and x is not None
            seen["kernel"] += len(kern) > 0
        assert all(seen.values()), seen

    def test_content_decides_without_a_residual(self, monkeypatch):
        """2 x + 4 y = b divides by 2: for odd b there is no integer solution,
        and for even b the row becomes x + 2 y = b/2, on which a second +-1
        pass pivots, so no residual is built; the kernel is found either way."""
        monkeypatch.setattr(linalg, "_solve_integer", lambda *args: pytest.fail("a residual was built"))
        a = M(ZZ, [[2, 4]])
        assert _solve(ZZ, _rows(a, [1]), 2, False) == (None, [])
        x, kern = _solve(ZZ, _rows(a, [1]), 2, True)
        assert x is None and _hermite(kern) == _hermite([[-2, 1]])
        x, kern = _solve(ZZ, _rows(a, [6]), 2, True)
        assert x == [3, 0] and _hermite(kern) == _hermite([[-2, 1]])


class TestRings:
    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Zmod(1)

    def test_nonprime_field(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_canon(self):
        assert Zmod(4).canon(-1) == 3
        assert ZZ.canon(-1) == -1

    def test_integer_units_are_their_own_inverses(self):
        assert ZZ.inv(1) == 1 and ZZ.inv(-1) == -1
        with pytest.raises(ZeroDivisionError):
            ZZ.inv(2)

    def test_reads_as_rejects_a_non_dict(self):
        assert Zmod(4).reads_as({"kind": "Zmod", "modulus": 4})
        for d in ("Z/4", ["Zmod", 4], None, {"kind": "Zmod", "modulus": 4.0}):
            assert not Zmod(4).reads_as(d)

    def test_rational_canonical_form(self):
        """Over Q an integral value is an int, any other a Fraction."""
        for x, want in ((Fraction(4, 2), 2), (Fraction(-3), -3), (True, 1), (0, 0),
                        ("6/3", 2), (Fraction(1, 2), Fraction(1, 2))):
            got = QQ.canon(x)
            assert got == want and type(got) is type(want)
        assert type(QQ.zero()) is int and type(QQ.one()) is int
        assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
        assert QQ.inv(2) == Fraction(1, 2)
        for s, want in (("4/2", 2), ("-7", -7), ("3/-6", Fraction(-1, 2))):
            got = QQ.elem_from_str(s)
            assert got == want and type(got) is type(want)
        assert [QQ.elem_to_str(x) for x in (2, -7, Fraction(-1, 2))] == ["2", "-7", "-1/2"]

    def test_rational_arithmetic_returns_ints(self):
        """Sums, scalings, products and solutions that come out integral are
        ints over Q, as a canonical entry must be."""
        half = M(QQ, [[Fraction(1, 2), Fraction(3, 2)]])
        for m in (half + half, half.scale(2), mat_mul(M(QQ, [[2]]), half),
                  solve_linear_system(M(QQ, [[Fraction(1, 3)]]), M(QQ, [[1]]))):
            assert all(type(x) is int for x in m.entries), m

    def test_is_prime_matches_sieve(self):
        n_max = 10 ** 5
        sieve = bytearray([1]) * n_max
        sieve[0] = sieve[1] = 0
        for p in range(2, int(n_max ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytearray(len(range(p * p, n_max, p)))
        assert all(_is_prime(n) == bool(sieve[n]) for n in range(n_max))

    def test_is_prime_strong_pseudoprimes(self):
        # 3215031751 fools the bases 2, 3, 5, 7; 3825123056546413051 the primes to 23
        for n in (3215031751, 3825123056546413051, 2 ** 61 + 1, (2 ** 61 - 1) * (2 ** 19 - 1)):
            assert not _is_prime(n)
        for n in (2 ** 61 - 1, 2 ** 31 - 1, 1000000007):
            assert _is_prime(n)
        with pytest.raises(ValueError, match="must be below"):
            _is_prime(_MR_BOUND)  # composite, a strong pseudoprime to all 13 bases

    def test_prime_powers_match_trial_division(self):
        def trial(m):
            out, p = [], 2
            while p * p <= m:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                if k:
                    out.append((p, k))
                p += 1
            return out + [(m, 1)] if m > 1 else out

        assert all(_prime_powers(m) == trial(m) for m in range(2, 10 ** 4))

    def test_prime_powers_of_large_factors(self):
        p, q = 2 ** 31 - 1, 2 ** 31 - 19
        cases = {
            2 ** 61 - 1: [(2 ** 61 - 1, 1)],
            p * p: [(p, 2)],
            p * q: [(q, 1), (p, 1)],
            2 ** 3 * 1009 ** 2 * p: [(2, 3), (1009, 2), (p, 1)],
            _MR_BOUND - 1: [(2, 2), (3, 4), (5, 1), (127, 1), (18778597, 1), (858557454841, 1)],
        }
        for m, factors in cases.items():
            assert _prime_powers(m) == factors

    def test_modulus_factored_once(self, monkeypatch):
        """A second solve over Z/(2^31-1)(2^31-19) runs no Pollard rho: the
        factorization of a modulus is kept."""
        calls = []
        rho = rings._rho
        monkeypatch.setattr(rings, "_rho", lambda n: calls.append(n) or rho(n))
        _prime_powers.cache_clear()
        ring = Zmod((2 ** 31 - 1) * (2 ** 31 - 19))
        a, b = M(ring, [[2, 3], [5, 7]]), M(ring, [[1], [1]])
        assert mat_mul(a, solve_linear_system(a, b)) == b
        first = len(calls)
        assert first > 0
        assert mat_mul(a, solve_linear_system(a, b)) == b
        assert len(calls) == first

    def test_zmod_modulus_bound(self):
        assert Zmod(_MR_BOUND - 1).modulus == _MR_BOUND - 1
        for m in (_MR_BOUND, 2 ** 89 - 1, 1):
            with pytest.raises(ValueError, match="IntegersMod modulus"):
                Zmod(m)
        with pytest.raises(ValueError, match="below"):
            ring_from_name(f"Z/{_MR_BOUND}")

    def test_large_prime_field(self):
        ring = ring_from_name("F2305843009213693951")
        assert ring == GF(2 ** 61 - 1)
        a = M(ring, [[2, 3], [5, 7]])
        x = solve_linear_system(a, M(ring, [[1], [1]]))
        assert mat_mul(a, x) == M(ring, [[1], [1]])
        with pytest.raises(ValueError, match="must be below"):
            GF(2 ** 89 - 1)  # prime, but above the bound

    def test_serialization_round_trip(self):
        for ring in (ZZ, QQ, Zmod(8), GF(5)):
            m = RingMatrix(ring, 2, 2, [ring.canon(x) for x in [1, -2, 3, 0]])
            assert RingMatrix.from_json(m.to_json()) == m
