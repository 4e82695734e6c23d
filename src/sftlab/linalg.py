"""Exact linear algebra over Q and over Q[z1..zk].

A polynomial is a sparse dict from exponent tuples of a fixed width to
nonzero Fractions; width 0 is Q itself ({(): c}, the empty dict is 0).
A matrix is a list of rows of such polynomials.

Every routine below runs the same fraction-free Gauss-Jordan elimination
(Bareiss 1968): each update divides by the previous pivot, and that
division is exact because every entry stays a minor of the input.  Ranks,
kernels and span tests are therefore taken over the fraction field
without ever forming a rational function.
"""

from __future__ import annotations

from fractions import Fraction


# -- sparse polynomials -----------------------------------------------------------


def _zp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, v in b.items():
        s = out.get(d, 0) + v
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _zp_mul(a: dict, b: dict) -> dict:
    out = {}
    for d1, v1 in a.items():
        for d2, v2 in b.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            s = out.get(d, 0) + v1 * v2
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def _zp_scale(a: dict, c: Fraction) -> dict:
    return {d: c * v for d, v in a.items()} if c else {}


def _poly_divexact(num: dict, den: dict) -> dict:
    """num / den, raising ArithmeticError unless den divides num."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead = max(den)
    lead_c = den[lead]
    rem = dict(num)
    out = {}
    while rem:
        top = max(rem)
        q = tuple(a - b for a, b in zip(top, lead))
        if any(x < 0 for x in q):
            raise ArithmeticError("inexact polynomial division")
        c = rem[top] / lead_c
        out[q] = c
        rem = _zp_add(rem, _zp_mul({q: -c}, den))
    return out


# -- the elimination ----------------------------------------------------------------


def _eliminate(matrix):
    """Fraction-free Gauss-Jordan on a copy of ``matrix``.

    Returns (rows, pivot columns, last pivot).  Row i < rank has the last
    pivot at its pivot column and zeros at every other pivot column; the
    rows from the rank on are zero.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = None  # previous pivot; None stands for 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        piv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            # zero rows stay zero; so does a row without f once the pivot
            # repeats, as (piv * x - 0) / prev = x
            if i == r or not any(row) or (not f and piv == prev):
                continue
            neg_f = _zp_scale(f, Fraction(-1))
            m[i] = [_zp_add(_zp_mul(piv, x), _zp_mul(neg_f, y))
                    for x, y in zip(row, prow)]
            if prev is not None:
                m[i] = [_poly_divexact(x, prev) for x in m[i]]
        prev = piv
        pivots.append(c)
    return m, pivots, prev


def rank(matrix) -> int:
    """Rank over the fraction field."""
    return len(_eliminate(matrix)[1])


def kernel(matrix, width: int) -> list:
    """Basis of the right kernel as polynomial vectors, one per free column
    in column order.

    The vector of free column f carries the last pivot at f; it is divided
    by that pivot when the division is exact (always over Q, giving the
    reduced-echelon basis with entry 1 at f).
    """
    m, pivots, last = _eliminate(matrix)
    ncols = len(matrix[0]) if matrix else 0
    last = last or {(0,) * width: Fraction(1)}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [{} for _ in range(ncols)]
        vec[f] = last
        for i, c in enumerate(pivots):
            vec[c] = _zp_scale(m[i][f], Fraction(-1))
        try:
            vec = [_poly_divexact(x, last) for x in vec]
        except ArithmeticError:
            pass
        basis.append(vec)
    return basis


def in_span(matrix, vec) -> bool:
    """Is ``vec`` in the column span of ``matrix`` over the fraction field?

    Appending vec as a column raises the rank exactly when that column
    becomes a pivot.
    """
    aug = [list(row) + [v] for row, v in zip(matrix, vec)]
    ncols = len(matrix[0]) if matrix else 0
    return ncols not in _eliminate(aug)[1]


def _lift(matrix):
    return [[{(): Fraction(x)} if x else {} for x in row] for row in matrix]


def _lower(poly, last) -> Fraction:
    return poly.get((), Fraction(0)) / last[()]


def solve(matrix, rhs):
    """A solution x of matrix * x = rhs over Q (free unknowns 0), or None.

    Rows may outnumber unknowns; the system is inconsistent when rhs adds
    to the rank.
    """
    ncols = len(matrix[0]) if matrix else 0
    m, pivots, last = _eliminate(_lift([list(row) + [v]
                                        for row, v in zip(matrix, rhs)]))
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = _lower(m[i][ncols], last)
    return tuple(sol)


def inverse(matrix) -> tuple:
    """Inverse of a square matrix over Q; ZeroDivisionError if singular."""
    n = len(matrix)
    m, pivots, last = _eliminate(_lift(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]))
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(_lower(x, last) for x in row[n:]) for row in m)
