"""Differential test of the exact elimination against sympy's DomainMatrix.

sympy serves only as an oracle here; the module is skipped without it.
"""

import random
from fractions import Fraction

import pytest

from sftlab import linalg

sympy = pytest.importorskip("sympy")
from sympy import QQ, symbols  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _domain(width):
    return QQ if width == 0 else QQ[symbols(f"z1:{width + 1}")]


def _to_sympy(poly, dom, width):
    if width == 0:
        c = poly.get((), Fraction(0))
        return QQ(c.numerator, c.denominator)
    return dom.ring.from_dict({d: QQ(c.numerator, c.denominator)
                               for d, c in poly.items()})


def _dm(matrix, dom, width, ncols):
    rows = [[_to_sympy(x, dom, width) for x in row] for row in matrix]
    return DomainMatrix(rows, (len(rows), ncols), dom)


def _random_poly(rng, width):
    poly = {}
    for _ in range(rng.randint(0, 2)):
        d = tuple(rng.randint(0, 2) for _ in range(width))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            poly[d] = poly.get(d, 0) + c
    return {d: c for d, c in poly.items() if c}


def _combine(rng, rows, width):
    """A row dependent on the given ones (so ranks fall short)."""
    out = [{} for _ in rows[0]]
    for row in rows:
        f = _random_poly(rng, width) or {(0,) * width: Fraction(1)}
        out = [linalg._zp_add(a, linalg._zp_mul(f, b)) for a, b in zip(out, row)]
    return out


def _random_matrix(rng, width, nrows, ncols):
    m = [[_random_poly(rng, width) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        m[-1] = _combine(rng, m[:-1], width)
    return m


@pytest.mark.parametrize("width", [0, 1, 2])
def test_rank_kernel_span_against_sympy(width):
    rng = random.Random(100 + width)
    dom = _domain(width)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, width, nrows, ncols)
        field = _dm(m, dom, width, ncols).to_field()
        r = linalg.rank(m)
        assert r == field.rank()
        basis = linalg.kernel(m, width)
        assert len(basis) == ncols - r
        for vec in basis:
            col = _dm([[x] for x in vec], dom, width, 1)
            assert (_dm(m, dom, width, ncols) * col).is_zero_matrix
        if basis:
            kmat = _dm(basis, dom, width, ncols).to_field()
            assert kmat.rank() == len(basis)
        vec = [_random_poly(rng, width) for _ in range(nrows)]
        if rng.random() < 0.5:
            vec = [row[0] for row in m]
        aug = [row + [v] for row, v in zip(m, vec)]
        want = _dm(aug, dom, width, ncols + 1).to_field().rank() == r
        assert linalg.in_span(m, vec) == want


def _fractions(rng, n):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]


def test_solve_and_inverse_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        a = [_fractions(rng, ncols) for _ in range(nrows)]
        if nrows > 2:
            a[-1] = [x + y for x, y in zip(a[0], a[1])]
        b = _fractions(rng, nrows)
        if rng.random() < 0.5:
            b = [sum(x * w for x, w in zip(row, _fractions(rng, ncols)))
                 for row in a]
        aug = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row + [v]]
                            for row, v in zip(a, b)], (nrows, ncols + 1), QQ)
        ref, pivots = aug.rref()
        x = linalg.solve(a, b)
        if ncols in pivots:
            assert x is None
            continue
        assert all(sum(c * w for c, w in zip(row, x)) == v
                   for row, v in zip(a, b))
        want = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            e = ref.to_Matrix()[i, ncols]
            want[c] = Fraction(int(e.p), int(e.q))
        assert list(x) == want
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [_fractions(rng, n) for _ in range(n)]
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                           for row in a], (n, n), QQ)
        if dm.rank() < n:
            with pytest.raises(ZeroDivisionError):
                linalg.inverse(a)
            continue
        inv = dm.inv().to_Matrix()
        got = linalg.inverse(a)
        assert [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)]
                for i in range(n)] == [list(row) for row in got]
    with pytest.raises(ZeroDivisionError):
        linalg.inverse([[1, 2], [2, 4]])
