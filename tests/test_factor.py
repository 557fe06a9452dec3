"""Factorization layer: univariate, bivariate, absolute irreducibility."""

import random
from collections import Counter

import pytest

from conic2 import _dense, factor
from conic2.gf2k import field_new, section_bits
from conic2.poly import Poly, dehomogenize, plane_poly, poly_parse, poly_print, to_columns, to_dense
from conic2.factor import (
    UnluckySpecializationExhausted,
    _find_specialization,
    _orbit_primes,
    _simple_root_degrees,
    bivariate_factor,
    gcd_bivariate,
    gcd_homogeneous,
    is_absolutely_irreducible,
    univariate_factor,
)

from conic2.geom import NotSquarefree, singular_points

from _helpers import abs_irred_every_extension, is_irreducible

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


def _reducible_up_to_degree_four():
    """Every product of two nonconstant F_2[x, y] polynomials whose degrees
    sum to at most 4: the reducible polynomials of degree at most 4."""
    by_degree = {1: [], 2: [], 3: []}
    monos = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    for bits in range(2, 1 << len(monos)):
        g = Poly.from_terms(F2, XY, [(monos[i], 1) for i in range(len(monos)) if (bits >> i) & 1])
        if not g.is_constant():
            by_degree[g.total_degree()].append(g)
    products = set()
    for da, db in ((1, 1), (1, 2), (1, 3), (2, 2)):
        for a in by_degree[da]:
            products.update(a * b for b in by_degree[db])
    return products


def test_bivariate_factor_reexpands_exhaustively_small_degrees():
    reducible = _reducible_up_to_degree_four()
    monos = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    for bits in range(1, 1 << len(monos)):
        f = Poly.from_terms(F2, XY, [(monos[i], 1) for i in range(len(monos)) if (bits >> i) & 1])
        fac = bivariate_factor(f)
        _, lc = f.leading()
        assert reexpand(fac, F2, XY).scale(lc) == f
        assert not any(g in reducible for g, _ in fac), poly_print(f)


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


def _irreducible_at_zero(rng, ctx, dx, dtot, irreducible):
    """A random f monic in x, of x-degree dx and total degree at most dtot,
    whose f(x, 0) is irreducible of degree dx.  Such an f is irreducible: a
    factorization into factors monic in x would specialize to one of f(x, 0)
    with the same x-degrees."""
    while True:
        u = [rng.randrange(ctx.q) for _ in range(dx)] + [1]
        if irreducible(u):
            break
    terms = [((i, 0), c) for i, c in enumerate(u) if c]
    terms += [((i, j), rng.randrange(1, ctx.q)) for i in range(dx)
              for j in range(1, dtot - i + 1) if rng.random() < 0.4]
    return Poly.from_terms(ctx, XY, terms)


@pytest.mark.parametrize("k", [1, 2], ids=["F2", "F4"])
def test_bivariate_factor_finds_the_planted_irreducible_factors(k):
    """Products of 2-4 factors, each proved irreducible by its
    specialization at y = 0, of total degree 6-12, whose specialization has
    at least three local factors: bivariate_factor returns exactly the
    planted factors.  Some factors share their specialization at y = 0, so
    the chosen value or field differs and local factors must recombine."""
    ctx = field_new(k)
    if k == 1:
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        def irreducible(u):
            return galoistools.gf_irreducible_p([ZZ(c) for c in reversed(u)], 2, ZZ)
    else:
        def irreducible(u):
            return is_irreducible(ctx, u)

    rng = random.Random(31 + k)
    cases = recombined = 0
    while cases < 12:
        gs = []
        for _ in range(rng.randint(2, 4)):
            if gs and rng.random() < 0.4:  # shares its value at y = 0 with an earlier factor
                h = rng.choice(gs)
                term = ((rng.randrange(h.degree_in("x")), rng.randint(1, 2)), rng.randrange(1, ctx.q))
                g = h + Poly.from_terms(ctx, XY, [term])
            else:
                dx = rng.randint(1, 3)
                g = _irreducible_at_zero(rng, ctx, dx, rng.randint(dx, 4), irreducible)
            gs.append(g.monic())
        f = Poly.const(ctx, XY, 1)
        for g in gs:
            f = f * g
        if len(set(gs)) < len(gs) or not 6 <= f.total_degree() <= 12:
            continue
        ctx_e, _, _, _, u = _find_specialization(f, "x", "y")
        local = len(_dense.factor(ctx_e, u)[1])
        if local < 3:
            continue
        cases += 1
        recombined += local > len(gs) or ctx_e is not ctx
        assert dict(bivariate_factor(f)) == Counter(gs), poly_print(f)
    assert recombined >= 3


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


def _oracle_cases(ctx):
    """Random curves over ctx of degree 2..8, and products (f, e) of the
    Frobenius conjugates of a random curve over F_{q^e}, irreducible over ctx."""
    rng = random.Random(60 + ctx.k)
    cases = []
    while len(cases) < 16:
        d = rng.randint(2, 8)
        items = [((i, j), rng.randrange(1, ctx.q)) for i in range(d + 1) for j in range(d + 1 - i)]
        f = Poly.from_terms(ctx, XY, [m for m in items if rng.random() < 0.4] + [((d, 0), 1)])
        if len(f.variables_used()) == 2:
            cases.append(f)
    conjugates = []
    for e, gdeg in ((2, 4), (2, 3), (3, 2), (2, 2), (4, 2), (3, 1)):
        ext = field_new(ctx.k * e)
        while True:
            items = [((i, j), rng.randrange(ext.q)) for i in range(gdeg + 1) for j in range(gdeg + 1 - i)]
            g = Poly.from_terms(ext, XY, items + [((gdeg, 0), 1), ((0, gdeg), 1)])
            f = _conjugate_product(g, ctx)
            if f.total_degree() == e * gdeg and len(bivariate_factor(f)) == 1:
                conjugates.append((f, e))
                break
    return cases, conjugates


@pytest.mark.parametrize("ctx", [F2, F4], ids=["F2", "F4"])
def test_absolute_irreducibility_matches_every_extension_oracle(ctx):
    cases, conjugates = _oracle_cases(ctx)
    verdicts = []
    for f in cases + [f for f, _ in conjugates]:
        want = abs_irred_every_extension(f)
        assert is_absolutely_irreducible(f) == want, f
        verdicts.append(want)
    assert verdicts.count(False) >= 6 and verdicts.count(True) >= 4


def _primes(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}


@pytest.mark.parametrize("ctx", [F2, F4], ids=["F2", "F4"])
def test_line_scan_keeps_every_prime_of_the_orbit_size(ctx):
    # over F_{q^n}, n = deg f, an F_q-irreducible f splits into gcd(n, r) = r
    # absolute factors; the e conjugates of the construction make e divide r
    for f, e in _oracle_cases(ctx)[1]:
        n = f.total_degree()
        r = len(bivariate_factor(f.embed_to(field_new(ctx.k * n))))
        assert r % e == 0 and n % r == 0
        assert _primes(r) <= set(_orbit_primes(f)), poly_print(f)


def _extension_factorizations(monkeypatch, f):
    """abs_irred_bivariate's verdict on f, uncached, and the number of
    factorizations over a proper extension it ran."""
    calls = []

    def counted(g):
        if g.ctx is not f.ctx:
            calls.append(g.ctx.k)
        return bivariate_factor(g)

    monkeypatch.setattr(factor, "bivariate_factor", counted)
    try:
        return factor._abs_irred_bivariate.__wrapped__(f, False), len(calls)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("ctx", [F2, F4], ids=["F2", "F4"])
def test_line_scan_decides_most_absolutely_irreducible_curves(monkeypatch, ctx):
    cases, conjugates = _oracle_cases(ctx)
    runs = [_extension_factorizations(monkeypatch, f) for f in cases + [f for f, _ in conjugates]]
    irreducible = [n for verdict, n in runs if verdict]
    assert irreducible and irreducible.count(0) >= 0.75 * len(irreducible)


@pytest.mark.parametrize(
    "text, primes, want",
    [
        ("x^6 + x^3*y^2 + y^5 + x^4 + x^3*y + x^2*y^2 + x^2*y", [2, 3], True),
        ("x^4 + x^2*y^2 + y^4 + x^2*y + x*y^2 + x^2 + x*y + y^2", [2], False),
    ],
)
def test_curve_with_no_simple_root_on_a_rational_line_falls_back(monkeypatch, text, primes, want):
    f = poly_parse(text, F2, XY)
    for main, co in (XY, XY[::-1]):
        cols = to_columns(f, main, co)
        for c in range(F2.q):
            u = _dense.trim([_dense.eval_at(F2, col, c) for col in cols])
            assert not _simple_root_degrees(F2, u)
    assert _orbit_primes(f) == primes
    verdict, extensions = _extension_factorizations(monkeypatch, f)
    assert extensions >= 1
    assert verdict == abs_irred_every_extension(f) == is_absolutely_irreducible(f) == want


def _count_scanned_lines(monkeypatch):
    """Count the lines _orbit_primes scans; fail at once past 64, far below
    the 2q lines of the fields these tests use."""
    calls = []

    def counted(ctx, u):
        calls.append(ctx.k)
        assert len(calls) <= 64, "the line scan grows with the field"
        return _simple_root_degrees(ctx, u)

    monkeypatch.setattr(factor, "_simple_root_degrees", counted)
    return calls


@pytest.mark.parametrize("k, gdeg", [(16, 1), (16, 2)])
def test_line_scan_cost_does_not_grow_with_the_field(monkeypatch, k, gdeg):
    # a conjugate pair over F_{2^k}: the scan never reaches gcd 1, so it
    # would try all 2q lines if nothing capped it
    ctx, ext = field_new(k), field_new(2 * k)
    rng = random.Random(k + gdeg)
    while True:
        items = [((i, j), rng.randrange(ext.q)) for i in range(gdeg + 1) for j in range(gdeg + 1 - i)]
        g = Poly.from_terms(ext, XY, items + [((gdeg, 0), 1), ((0, gdeg), 1)])
        f = _conjugate_product(g, ctx)
        if f.total_degree() == 2 * gdeg and len(bivariate_factor(f)) == 1:
            break
    lines = _count_scanned_lines(monkeypatch)
    assert _orbit_primes(f) == [2]
    assert 0 < len(lines) <= 2 * factor._SCAN_VALUES
    assert not is_absolutely_irreducible(f)


def _trace(ctx, a):
    t, power = 0, a
    for _ in range(ctx.k):
        t ^= power
        power = ctx.mul(power, power)
    return t


def test_orbit_beyond_the_word_bound_raises_after_a_short_scan(monkeypatch):
    # (x + b y + 1)(x + b' y + 1) for conjugates b, b' over F_{2^80}:
    # irreducible over F_{2^40}, and every simple root on a rational line
    # has degree 2, so deciding it needs F_{2^80}
    ctx = field_new(40)
    a = next(1 << i for i in range(ctx.k) if _trace(ctx, 1 << i))  # the trace is linear
    f = Poly.from_terms(ctx, XY, [((2, 0), 1), ((1, 1), 1), ((0, 2), a), ((0, 1), 1), ((0, 0), 1)])
    assert len(bivariate_factor(f)) == 1
    lines = _count_scanned_lines(monkeypatch)
    with pytest.raises(UnluckySpecializationExhausted, match="F_\\{2\\^80\\}"):
        is_absolutely_irreducible(f)
    assert len(lines) == 2 * factor._SCAN_VALUES
    # an absolutely irreducible curve over the same field is decided by the scan
    assert is_absolutely_irreducible(poly_parse("x^3 + y^2 + x*y + 1", ctx, XY))


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
    # squarefreeness is read from the singular-locus solve
    singular_points(plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4"))
    for square in ("x^2*y", "x^2 + y^2"):
        with pytest.raises(NotSquarefree):
            singular_points(plane_poly(square))
