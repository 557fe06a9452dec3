"""Factorization layer: univariate, bivariate, absolute irreducibility."""

import random

import pytest

from conic2 import _dense
from conic2.gf2k import field_new, section_bits
from conic2.poly import Poly, dehomogenize, plane_poly, poly_parse, poly_print, to_dense
from conic2.factor import (
    UnluckySpecializationExhausted,
    bivariate_factor,
    gcd_bivariate,
    gcd_homogeneous,
    is_absolutely_irreducible,
    squarefree_homogeneous,
    univariate_factor,
)

from _helpers import abs_irred_every_extension

F2 = field_new(1)
F4 = field_new(2)
T = ("t",)
XY = ("x", "y")


def reexpand(factors, ctx, vars):
    prod = Poly.const(ctx, vars, 1)
    for g, m in factors:
        prod = prod * g ** m
    return prod


def test_cyclotomic_t15_plus_1():
    f = poly_parse("t^15 + 1", F2, T)
    fac = univariate_factor(f)
    degrees = sorted(g.total_degree() for g, _ in fac)
    assert degrees == [1, 2, 4, 4, 4]  # irreducibles of degree dividing 4, except t
    assert all(m == 1 for _, m in fac)
    assert all(g != poly_parse("t", F2, T) for g, _ in fac)
    assert reexpand(fac, F2, T) == f


def test_t_squared():
    fac = univariate_factor(poly_parse("t^2", F2, T))
    assert fac == [(poly_parse("t", F2, T), 2)]


def test_quadratic_splits_over_f4():
    f = poly_parse("t^2 + t + 1", F4, T)
    fac = univariate_factor(f)
    assert [g.total_degree() for g, _ in fac] == [1, 1]
    roots = _dense.roots(F4, to_dense(f, "t"))
    assert roots == [2, 3]  # j and j^2 = j + 1


def test_univariate_factor_rejects_multivariate():
    with pytest.raises(ValueError):
        univariate_factor(plane_poly("x*y"))


def test_bivariate_factor_example_chart():
    delta = plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4")
    chart = dehomogenize(delta, "z")
    fac = bivariate_factor(chart)
    polys = sorted(poly_print(g) for g, _ in fac)
    assert polys == ["x^3*y + 1", "y^4 + x^3"]
    assert all(m == 1 for _, m in fac)


def test_bivariate_factor_squares():
    f = poly_parse("x^2 + y^2", F2, XY)
    assert bivariate_factor(f) == [(poly_parse("x + y", F2, XY), 2)]
    g = poly_parse("x + y", F2, XY) ** 2
    assert bivariate_factor(g) == [(poly_parse("x + y", F2, XY), 2)]


def test_bivariate_factor_needs_extension_specialization():
    # x^2 + x*y + y^2 is irreducible over F2 but splits over F4: the
    # specialization of y at F2 points is never squarefree with full degree,
    # so the algorithm must extend the field and then merge Frobenius orbits.
    f = poly_parse("x^2 + x*y + y^2", F2, XY)
    fac = bivariate_factor(f)
    assert fac == [(f, 1)]
    f4 = f.embed_to(F4)
    fac4 = bivariate_factor(f4)
    assert sorted(g.total_degree() for g, _ in fac4) == [1, 1]
    assert reexpand(fac4, F4, XY) == f4


def test_bivariate_factor_reexpands_exhaustively_small_degrees():
    monos = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    for bits in range(1, 1 << len(monos)):
        f = Poly.from_terms(F2, XY, [(monos[i], 1) for i in range(len(monos)) if (bits >> i) & 1])
        fac = bivariate_factor(f)
        _, lc = f.leading()
        assert reexpand(fac, F2, XY).scale(lc) == f


def test_bivariate_factor_random_products_over_f4():
    rng = random.Random(13)
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 3)):
            items = [
                ((rng.randint(0, 2), rng.randint(0, 2)), rng.randrange(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            p = Poly.from_terms(F4, XY, items)
            if not p.is_zero() and not p.is_constant():
                parts.append(p)
        if not parts:
            continue
        f = Poly.const(F4, XY, 1)
        for p in parts:
            f = f * p
        fac = bivariate_factor(f)
        _, lc = f.leading()
        assert reexpand(fac, F4, XY).scale(lc) == f
        for g, _ in fac:
            assert len(bivariate_factor(g)) == 1


def test_specialization_budget_error(monkeypatch):
    import conic2.factor as fa

    monkeypatch.setattr(fa, "_SPECIALIZATION_BUDGET", 0)
    with pytest.raises(UnluckySpecializationExhausted):
        bivariate_factor(poly_parse("x^3 + x*y + y^4 + 1", F2, XY))


def test_absolute_irreducibility_examples():
    assert is_absolutely_irreducible(plane_poly("x^3*z + y^4"))
    assert is_absolutely_irreducible(plane_poly("y^2 + x*z"))  # smooth conic
    assert not is_absolutely_irreducible(plane_poly("x^2 + y^2"))
    assert is_absolutely_irreducible(plane_poly("x"))
    assert not is_absolutely_irreducible(plane_poly("x^2 + x*y + y^2"))  # splits over F4
    assert not is_absolutely_irreducible(plane_poly("x*y + z^2") * plane_poly("x"))


def _conjugate_product(g, ctx):
    """The product of g (over an extension of ctx) and its Frobenius
    conjugates over ctx, pulled back to ctx: irreducible over ctx when g is
    absolutely irreducible and not defined over a smaller field, but never
    absolutely irreducible."""
    ext = g.ctx
    prod, h = g, g.map_coefficients(lambda c: ext.pow(c, ctx.q))
    while h != g:
        prod = prod * h
        h = h.map_coefficients(lambda c: ext.pow(c, ctx.q))
    return prod.map_coefficients(lambda c: section_bits(ctx, ext, c), ctx)


@pytest.mark.parametrize("ctx", [F2, F4], ids=["F2", "F4"])
def test_absolute_irreducibility_matches_every_extension_oracle(ctx):
    rng = random.Random(60 + ctx.k)
    cases = []
    while len(cases) < 16:
        d = rng.randint(2, 8)
        items = [((i, j), rng.randrange(1, ctx.q)) for i in range(d + 1) for j in range(d + 1 - i)]
        f = Poly.from_terms(ctx, XY, [m for m in items if rng.random() < 0.4] + [((d, 0), 1)])
        if len(f.variables_used()) == 2:
            cases.append(f)
    for e, gdeg in ((2, 4), (2, 3), (3, 2), (2, 2), (4, 2), (3, 1)):
        ext = field_new(ctx.k * e)
        while True:
            items = [((i, j), rng.randrange(ext.q)) for i in range(gdeg + 1) for j in range(gdeg + 1 - i)]
            g = Poly.from_terms(ext, XY, items + [((gdeg, 0), 1), ((0, gdeg), 1)])
            f = _conjugate_product(g, ctx)
            if f.total_degree() == e * gdeg and len(bivariate_factor(f)) == 1:
                cases.append(f)
                break
    verdicts = []
    for f in cases:
        want = abs_irred_every_extension(f)
        assert is_absolutely_irreducible(f) == want, f
        verdicts.append(want)
    assert verdicts.count(False) >= 6 and verdicts.count(True) >= 4


def test_absolute_irreducibility_rejects_bad_inputs():
    with pytest.raises(ValueError):
        is_absolutely_irreducible(plane_poly("1"))
    with pytest.raises(ValueError):
        is_absolutely_irreducible(plane_poly("x*y + z"))  # three variables, inhomogeneous
    # two active variables need not be homogeneous
    assert is_absolutely_irreducible(plane_poly("x + y^2"))


def test_gcd_bivariate_basics():
    a = poly_parse("x^2*y + x*y^2", F2, XY)  # xy(x+y)
    b = poly_parse("x^3 + x*y^2", F2, XY)  # x(x+y)^2
    assert gcd_bivariate(a, b) == poly_parse("x^2 + x*y", F2, XY)
    assert gcd_bivariate(a, Poly.zero(F2, XY)) == a.monic()


def test_gcd_homogeneous_and_squarefree():
    f = plane_poly("x^3*z + y^4") * plane_poly("x")
    g = plane_poly("x^2*y")
    assert gcd_homogeneous(f, g) == plane_poly("x")
    assert squarefree_homogeneous(plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4"))
    assert not squarefree_homogeneous(plane_poly("x^2*y"))
    assert not squarefree_homogeneous(plane_poly("x^2 + y^2"))
