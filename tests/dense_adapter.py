"""Test-side adapter from a LinearProblem's sparse rows to dense matrices.

``LinearProblem._build`` writes the dict rows {column: nonzero} of [a | b],
the rhs in column ``prob.cols``.  The assembly oracles compare systems as
the dense pair (coeffs, rhs) of RingMatrices; ``dense_build`` gives that
pair, and checks the row form on the way.
"""

from etacomplex.matrix import RingMatrix


def dense_build(prob, rows=None):
    """The rows of ``prob`` (``prob._build()`` unless given) as (coeffs, rhs).

    Raises AssertionError, explicitly so that ``python -O`` keeps the check,
    if the row count is not ``prob.rows``, a column lies outside
    0..``prob.cols`` or a row holds a stored zero.  The entries are wrapped
    as they are, not canonicalized, so a non-canonical entry shows as a
    mismatch against a reference.
    """
    ring = prob.instance.ring
    if rows is None:
        rows = prob._build()
    m = prob.cols
    if len(rows) != prob.rows:
        raise AssertionError(f"{len(rows)} rows for a problem of {prob.rows}")
    coeffs = [ring.zero()] * (len(rows) * m)
    rhs = [ring.zero()] * len(rows)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if not 0 <= j <= m:
                raise AssertionError(f"row {i} has column {j} outside 0..{m}")
            if not x:
                raise AssertionError(f"row {i} stores a zero in column {j}")
            if j == m:
                rhs[i] = x
            else:
                coeffs[i * m + j] = x
    return (RingMatrix._trusted(ring, len(rows), m, coeffs),
            RingMatrix._trusted(ring, len(rows), 1, rhs))
