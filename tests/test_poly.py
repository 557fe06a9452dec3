"""Polynomial layer: parsing, arithmetic, char-2 calculus, gcd, resultants."""

import ast
import itertools
import pathlib
import random

import pytest

import conic2
from conic2.factor import gcd_bivariate
from conic2.gf2k import field_new
from conic2.poly import (
    NotDivisible,
    ParseError,
    Poly,
    UnknownVariable,
    binary_from_dense,
    binary_gcd,
    binary_to_dense,
    dehomogenize,
    exact_div,
    from_columns,
    from_dense,
    is_homogeneous,
    is_square,
    partial_derivative,
    plane_poly,
    poly_parse,
    poly_print,
    poly_sqrt,
    poly_square,
    resultant,
    specialize,
    strip_monomial,
    substitute,
    to_columns,
    to_dense,
)

from _helpers import sylvester_resultant

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)
V = ("x", "y", "z")


def rand_poly(rng, ctx, vars, max_terms=5, max_deg=4):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in vars)
        items.append((mono, rng.randrange(1, ctx.q)))
    return Poly.from_terms(ctx, vars, items)


def rand_homogeneous(rng, ctx, vars, degree, max_terms=5):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        cuts = sorted(rng.randint(0, degree) for _ in range(len(vars) - 1))
        mono = []
        prev = 0
        for c in cuts:
            mono.append(c - prev)
            prev = c
        mono.append(degree - prev)
        items.append((tuple(mono), rng.randrange(1, ctx.q)))
    return Poly.from_terms(ctx, vars, items)


# -- parsing -------------------------------------------------------------------


def test_parse_examples():
    p = poly_parse("x^3*z + y^4", F2, V)
    assert dict(p.items()) == {(3, 0, 1): 1, (0, 4, 0): 1}
    assert poly_parse("0", F2, V).is_zero()
    q = poly_parse("j*x^2 + y*z", F4, V)
    assert dict(q.items()) == {(2, 0, 0): 2, (0, 1, 1): 1}


def test_parse_round_trips_through_print():
    rng = random.Random(3)
    for ctx in (F2, F4):
        for _ in range(100):
            p = rand_poly(rng, ctx, V)
            assert poly_parse(poly_print(p), ctx, V) == p


def test_parse_j_plus_one_as_sum_of_terms():
    p = poly_parse("j + 1", F4, V)
    assert dict(p.items()) == {(0, 0, 0): 3}
    assert dict(poly_parse("j^2*x", F4, V).items()) == {(1, 0, 0): 3}
    assert poly_parse("F4:3*x", F4, V) == poly_parse("j^2*x", F4, V)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        poly_parse("x + ", F2, V)
    assert err.value.position >= 3
    with pytest.raises(UnknownVariable):
        poly_parse("x + w^2", F2, V)
    with pytest.raises(ParseError):
        poly_parse("x ^ * y", F2, V)
    with pytest.raises(ParseError):
        poly_parse("3*x", F2, V)


def test_repeated_monomials_merge():
    assert poly_parse("x + x", F2, V).is_zero()
    assert dict(poly_parse("j*x^2 + x^2", F4, V).items()) == {(2, 0, 0): 3}


# -- arithmetic ----------------------------------------------------------------


def test_product_of_example_components():
    p = plane_poly("x^3*z + y^4")
    q = plane_poly("x^3*y + z^4")
    assert p * q == plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4")


def test_characteristic_two_addition():
    rng = random.Random(4)
    for _ in range(50):
        p = rand_poly(rng, F2, V)
        assert (p + p).is_zero()


def test_exact_div():
    p = plane_poly("x^2*y^6 + x^2*z^6")
    assert exact_div(p, plane_poly("x^2")) == plane_poly("y^6 + z^6")
    with pytest.raises(NotDivisible):
        exact_div(plane_poly("x^2 + y"), plane_poly("x"))
    prod = plane_poly("x^3*z + y^4") * plane_poly("x^3*y + z^4")
    assert exact_div(prod, plane_poly("x^3*z + y^4")) == plane_poly("x^3*y + z^4")


def test_mul_agrees_with_naive_oracle():
    rng = random.Random(5)
    for ctx in (F2, F4):
        for _ in range(60):
            p = rand_poly(rng, ctx, V, max_terms=4, max_deg=3)
            q = rand_poly(rng, ctx, V, max_terms=4, max_deg=3)
            naive = {}
            for ma, ca in p.items():
                for mb, cb in q.items():
                    mono = tuple(a + b for a, b in zip(ma, mb))
                    naive[mono] = naive.get(mono, 0) ^ ctx.mul(ca, cb)
            naive = {m: c for m, c in naive.items() if c}
            assert dict((p * q).items()) == naive


def test_ring_laws_random():
    rng = random.Random(6)
    for _ in range(60):
        p, q, r = (rand_poly(rng, F4, V, 3, 3) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


# -- squares -----------------------------------------------------------------


def test_square_examples():
    beta = plane_poly("x*y^3 + x*z^3 + y^2*z^2")
    assert poly_square(beta) == plane_poly("x^2*y^6 + x^2*z^6 + y^4*z^4")
    assert poly_square(plane_poly("x + y")) == plane_poly("x^2 + y^2")


def test_square_round_trip_and_detection():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng, F4, V)
        s = poly_square(p)
        assert is_square(s)
        assert poly_sqrt(s) == p
        assert s == p * p


def test_square_is_ring_homomorphism():
    rng = random.Random(8)
    for _ in range(60):
        p = rand_poly(rng, F4, V, 4, 3)
        q = rand_poly(rng, F4, V, 4, 3)
        assert poly_square(p + q) == poly_square(p) + poly_square(q)
        assert poly_square(p * q) == poly_square(p) * poly_square(q)


# -- calculus -----------------------------------------------------------------


def test_partial_derivative_examples():
    p = plane_poly("x^3*z + y^4")
    assert partial_derivative(p, "x") == plane_poly("x^2*z")
    assert partial_derivative(p, "y").is_zero()
    assert partial_derivative(plane_poly("x^2"), "x").is_zero()


def test_second_derivatives_vanish():
    rng = random.Random(9)
    for _ in range(100):
        p = rand_poly(rng, F4, V)
        for v in V:
            assert partial_derivative(partial_derivative(p, v), v).is_zero()


def test_euler_identity_on_example_discriminant():
    delta = plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4")  # degree 8
    acc = Poly.zero(F2, V)
    for v in V:
        acc = acc + Poly.var(F2, V, v) * partial_derivative(delta, v)
    assert acc.is_zero()  # 8 mod 2 = 0


def test_substitute_examples():
    s_bc = plane_poly("x*y^3 + x*z^3 + y^2*z^2")
    assert substitute(s_bc, {"x": 0}) == plane_poly("y^2*z^2")
    assert substitute(s_bc, {}) == s_bc
    ring = ("t", "a", "b")
    p = poly_parse("b*a", F2, ring)
    ta = poly_parse("t*a", F2, ring)
    assert substitute(p, {"a": ta}) == poly_parse("t*b*a", F2, ring)


def test_is_homogeneous():
    assert is_homogeneous(plane_poly("y^6 + z^6 + x^4*y*z + x*z^5 + x*y^5")) == 6
    assert is_homogeneous(plane_poly("x + y^2")) is None
    assert is_homogeneous(plane_poly("0")) == "zero"


# -- binary forms -------------------------------------------------------------


def test_binary_gcd_examples():
    ST = ("s", "t")
    f = poly_parse("s^2*t", F2, ST)
    g = poly_parse("s*t^3", F2, ST)
    assert binary_gcd(f, g) == poly_parse("s*t", F2, ST)
    h = poly_parse("s^2 + s*t", F2, ST)
    assert binary_gcd(h, Poly.zero(F2, ST)) == h.monic()


def test_binary_gcd_stable_under_extension():
    rng = random.Random(10)
    ST = ("s", "t")
    F16 = field_new(4)
    for _ in range(200):
        d1, d2, d3 = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
        a = rand_homogeneous(rng, F2, ST, d1)
        b = rand_homogeneous(rng, F2, ST, d2)
        c = rand_homogeneous(rng, F2, ST, d3)
        f, g = a * c, b * c
        if f.is_zero() or g.is_zero():
            continue
        over_f2 = binary_gcd(f, g)
        over_f16 = binary_gcd(f.embed_to(F16), g.embed_to(F16))
        assert over_f2.embed_to(F16) == over_f16


def test_gcd_divides_and_is_greatest():
    rng = random.Random(11)
    ST = ("s", "t")
    for _ in range(50):
        a = rand_homogeneous(rng, F4, ST, rng.randint(0, 2))
        b = rand_homogeneous(rng, F4, ST, rng.randint(0, 2))
        c = rand_homogeneous(rng, F4, ST, rng.randint(1, 2))
        f, g = a * c, b * c
        if f.is_zero() or g.is_zero():
            continue
        d = binary_gcd(f, g)
        exact_div(f, d)
        exact_div(g, d)
        exact_div(d, binary_gcd(d, c.monic()))  # the common divisor c divides d
        assert binary_gcd(d, c).monic() == c.monic()


# -- resultants ----------------------------------------------------------------


def test_resultant_of_example_components():
    p = plane_poly("x^3*z + y^4")
    q = plane_poly("x^3*y + z^4")
    assert resultant(p, q, "z") == plane_poly("x^15*y + y^16")


def test_resultant_degenerate_cases():
    f = plane_poly("x*z + y^2")
    assert resultant(f, f, "z").is_zero()
    assert resultant(plane_poly("z"), plane_poly("z + 1"), "z") == Poly.const(F2, V, 1)


def test_resultant_detects_common_factors():
    rng = random.Random(12)
    XY = ("x", "y")
    for _ in range(40):
        a = rand_poly(rng, F2, XY, 3, 2)
        b = rand_poly(rng, F2, XY, 3, 2)
        c = rand_poly(rng, F2, XY, 2, 2)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        f, g = a * c, b * c
        res = resultant(f, g, "y")
        shared = gcd_bivariate(f, g)
        if shared.degree_in("y") > 0:
            assert res.is_zero()
        elif not res.is_zero():
            assert shared.degree_in("y") <= 0


def _resultant_pairs(rng, ctx):
    """Forms of degree <= 5 in x, y, z (random; with a planted common factor;
    without the pure z-power, so the leading z-coefficient is a form that
    vanishes somewhere), then inhomogeneous pairs in x, y and in z alone."""
    for i in range(60):
        df, dg = rng.randint(1, 5), rng.randint(1, 5)
        f, g = rand_homogeneous(rng, ctx, V, df), rand_homogeneous(rng, ctx, V, dg)
        if i % 3 == 1:
            dc = rng.randint(1, 2)
            c = rand_homogeneous(rng, ctx, V, dc)
            f = rand_homogeneous(rng, ctx, V, max(df - dc, 1)) * c
            g = rand_homogeneous(rng, ctx, V, max(dg - dc, 1)) * c
        elif i % 3 == 2:
            f = Poly.from_terms(ctx, V, [(m, c) for m, c in f.items() if m[2] < df])
            g = Poly.from_terms(ctx, V, [(m, c) for m, c in g.items() if m[2] < dg])
        yield f, g, "z"
    for i in range(40):
        f, g = rand_poly(rng, ctx, ("x", "y"), max_deg=4), rand_poly(rng, ctx, ("x", "y"), max_deg=4)
        yield f, g, ("x", "y")[i % 2]
    for _ in range(5):
        yield rand_poly(rng, ctx, ("z",), max_deg=5), rand_poly(rng, ctx, ("z",), max_deg=5), "z"


@pytest.mark.parametrize("ctx", [F2, F4], ids=["F2", "F4"])
def test_resultant_matches_sylvester_oracle(ctx):
    rng = random.Random(40 + ctx.k)
    checked = zero = 0
    for f, g, name in _resultant_pairs(rng, ctx):
        if f.is_zero() or g.is_zero():
            continue
        r = resultant(f, g, name)
        assert r == sylvester_resultant(f, g, name), (f, g, name)
        checked += 1
        zero += r.is_zero()
    assert checked >= 70 and zero >= 10


def test_resultant_needs_homogeneous_inputs_in_three_variables():
    with pytest.raises(ValueError):
        resultant(plane_poly("x*z + y"), plane_poly("z^2 + x"), "z")


def test_resultant_and_gcd_match_sympy_over_f2():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x y z")

    def lift(p):
        return sum(sympy.Mul(*[s ** e for s, e in zip(syms, m)]) for m, _ in p.items())

    def reduce(expr, vars):
        terms = sympy.Poly(expr, *syms[: len(vars)], modulus=2).terms()
        return Poly.from_terms(F2, vars, [(m, int(c) % 2) for m, c in terms])

    rng = random.Random(44)
    checked = 0
    for f, g, name in _resultant_pairs(rng, F2):
        if f.is_zero() or g.is_zero() or len(f.vars) == 1:
            continue
        want = reduce(sympy.resultant(lift(f), lift(g), syms[f.vars.index(name)]), f.vars)
        assert resultant(f, g, name) == want, (f, g, name)
        if len(f.vars) == 2:
            assert gcd_bivariate(f, g) == reduce(sympy.gcd(lift(f), lift(g), modulus=2), f.vars).monic()
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("ctx", [F4, F16], ids=["F4", "F16"])
def test_column_view_round_trip(ctx):
    rng = random.Random(50 + ctx.k)
    for _ in range(30):
        p = dehomogenize(rand_poly(rng, ctx, V, max_deg=4), "y").with_vars(V)
        cols = to_columns(p, "z", "x")
        assert from_columns(ctx, V, cols, "z", "x") == p
        assert not cols or cols[-1]
        for i, col in enumerate(cols):
            assert col == [p.coefficient((j, 0, i)).bits for j in range(len(col))]
            assert not col or col[-1]
    with pytest.raises(ValueError):
        to_columns(plane_poly("x*y*z"), "z", "x")  # y is in use


def test_dense_round_trip():
    p = poly_parse("t^3 + t + 1", F2, ("t",))
    assert to_dense(p, "t") == [1, 1, 0, 1]
    assert from_dense(F2, ("t",), "t", [1, 1, 0, 1]) == p


def test_dehomogenize_drops_the_variable():
    delta = plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4")
    d = dehomogenize(delta, "z")
    assert d.vars == ("x", "y")
    assert d == poly_parse("x^6*y + x^3 + x^3*y^5 + y^4", F2, ("x", "y"))


# -- the term layout and the operations written once over it -------------------


def test_only_poly_reads_the_term_layout():
    """No module but poly touches Poly's term dict or calls the raw constructor."""
    offenders = []
    for path in sorted(pathlib.Path(conic2.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("terms", "_terms"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "Poly":
                    offenders.append(f"{path.name}:{node.lineno} Poly(...)")
    assert offenders == []


@pytest.mark.parametrize("ctx_e", [F4, F16], ids=["F4", "F16"])
def test_specialize_agrees_with_eval_bits(ctx_e):
    rng = random.Random(11 + ctx_e.k)
    subfields = [field_new(k) for k in range(1, ctx_e.k + 1) if ctx_e.k % k == 0]
    names = ("u", "v", "a", "b", "c")
    for _ in range(150):
        src = rng.choice(subfields)
        p = rand_poly(rng, src, names, max_terms=6, max_deg=3)
        n = rng.randint(0, len(names))
        values = tuple(rng.randrange(ctx_e.q) for _ in range(n))
        rest = tuple(rng.randrange(ctx_e.q) for _ in range(len(names) - n))
        sp = specialize(p, ctx_e, values)
        assert sp.ctx is ctx_e and sp.vars == names[n:]
        assert all(c for _, c in sp.items())  # cancelled terms are dropped
        assert sp.eval_bits(ctx_e, rest) == p.eval_bits(ctx_e, values + rest)
        if n == 0:
            assert sp == p.embed_to(ctx_e)
    with pytest.raises(ValueError):
        specialize(plane_poly("x"), F4, (1, 1, 1, 1))


@pytest.mark.parametrize("ctx", [F4, F16], ids=["F4", "F16"])
def test_low_degree_and_strip_monomial_match_brute_force(ctx):
    rng = random.Random(21 + ctx.k)
    box = range(6)
    for _ in range(150):
        p = rand_poly(rng, ctx, V, max_terms=4, max_deg=5)
        if p.is_zero():
            assert all(p.low_degree_in(v) == -1 for v in V)
            with pytest.raises(ValueError):
                strip_monomial(p)
            continue
        support = [m for m in itertools.product(box, repeat=3) if p.coefficient(m).bits]
        ords = tuple(min(m[i] for m in support) for i in range(3))
        assert tuple(p.low_degree_in(v) for v in V) == ords
        q, got = strip_monomial(p)
        assert got == ords
        monomial = Poly.const(ctx, V, 1)
        for v, e in zip(V, ords):
            monomial = monomial * Poly.var(ctx, V, v, e)
        assert q * monomial == p
        for v in V:
            with pytest.raises(NotDivisible):
                exact_div(q, Poly.var(ctx, V, v))


@pytest.mark.parametrize("ctx", [F4, F16], ids=["F4", "F16"])
def test_binary_form_dense_round_trip(ctx):
    rng = random.Random(31 + ctx.k)
    ST = ("s", "t")
    for _ in range(150):
        dense = [rng.randrange(ctx.q) for _ in range(rng.randint(1, 6))]
        dense[-1] = rng.randrange(1, ctx.q)
        e = rng.randint(0, 3)
        f = binary_from_dense(ctx, ST, dense, e)
        d = len(dense) - 1
        assert is_homogeneous(f) == d + e
        assert binary_to_dense(f) == (e, dense)
        assert binary_from_dense(ctx, ST, dense + [0, 0], e) == f
        for s0, t0 in itertools.product(range(ctx.q), repeat=2):
            want = 0
            for i, c in enumerate(dense):
                want ^= ctx.mul(c, ctx.mul(ctx.pow(s0, i), ctx.pow(t0, d - i + e)))
            assert f.eval_bits(ctx, (s0, t0)) == want
        deg = rng.randint(0, 6)
        g = Poly.from_terms(ctx, ST, [((i, deg - i), rng.randrange(ctx.q)) for i in range(deg + 1)])
        if not g.is_zero():
            e, dense = binary_to_dense(g)
            assert binary_from_dense(ctx, ST, dense, e) == g
