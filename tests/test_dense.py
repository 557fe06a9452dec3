"""Direct tests of the dense univariate engine underlying factorization."""

import random

from conic2 import _dense as d
from conic2.gf2k import field_new

from _helpers import is_irreducible

F2 = field_new(1)
F4 = field_new(2)
F8 = field_new(3)


def rand_coeffs(rng, ctx, max_deg):
    return d.trim([rng.randrange(ctx.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_divmod_round_trip():
    rng = random.Random(21)
    for ctx in (F2, F4, F8):
        for _ in range(200):
            a = rand_coeffs(rng, ctx, 8)
            b = rand_coeffs(rng, ctx, 5)
            if not b:
                continue
            q, r = d.divmod_(ctx, a, b)
            assert d.add(d.mul(ctx, q, b), r) == a
            assert d.deg(r) < d.deg(b) or not r


def test_gcd_is_common_divisor():
    rng = random.Random(22)
    for _ in range(100):
        a = rand_coeffs(rng, F4, 4)
        b = rand_coeffs(rng, F4, 4)
        c = rand_coeffs(rng, F4, 3)
        if not c:
            continue
        f, g = d.mul(F4, a, c), d.mul(F4, b, c)
        if not f or not g:
            continue
        h = d.gcd(F4, f, g)
        assert not d.divmod_(F4, f, h)[1]
        assert not d.divmod_(F4, g, h)[1]
        assert not d.divmod_(F4, h, d.monic(F4, c))[1] or d.deg(h) >= d.deg(c)


def test_factor_reexpands_random():
    rng = random.Random(23)
    for ctx in (F2, F4, F8):
        for _ in range(120):
            f = rand_coeffs(rng, ctx, 9)
            if d.deg(f) < 1:
                continue
            lc, fac = d.factor(ctx, f)
            prod = [lc]
            for g, m in fac:
                for _ in range(m):
                    prod = d.mul(ctx, prod, g)
            assert prod == f
            for g, _ in fac:
                assert is_irreducible(ctx, g)
                assert g[-1] == 1


def test_roots_match_exhaustive_evaluation():
    rng = random.Random(24)
    for ctx in (F2, F4, F8):
        for _ in range(80):
            f = rand_coeffs(rng, ctx, 6)
            if d.deg(f) < 1:
                continue
            roots = d.roots(ctx, f)
            truth = [x for x in range(ctx.q) if d.eval_at(ctx, f, x) == 0]
            assert roots == truth


def test_irreducibility_examples():
    assert is_irreducible(F2, [1, 1, 1])  # t^2+t+1
    assert not is_irreducible(F4, [1, 1, 1])  # splits over F4
    assert is_irreducible(F2, [1, 1, 0, 0, 1])  # t^4+t+1
    assert not is_irreducible(F2, [1, 0, 1])  # (t+1)^2


def test_squarefree_decomposition_multiplicities():
    # (t)^3 (t+1)^2 over F2
    f = [0, 0, 0, 1]
    f = d.mul(F2, f, d.mul(F2, [1, 1], [1, 1]))
    parts = d.squarefree_decomposition(F2, f)
    assert sorted((d.deg(g), m) for g, m in parts) == [(1, 2), (1, 3)]


def test_series_inverse():
    rng = random.Random(25)
    for _ in range(50):
        l = [rng.randrange(1, F4.q)] + [rng.randrange(F4.q) for _ in range(4)]
        inv = d.series_inverse(F4, l, 6)
        prod = d.mul(F4, l, inv)
        assert d.trim(prod[:6]) == [1]


def test_compose_and_inv_mod():
    # f(g(x)) at sample points equals f evaluated at g's value
    rng = random.Random(26)
    for _ in range(40):
        f = rand_coeffs(rng, F8, 4)
        g = rand_coeffs(rng, F8, 3)
        comp = d.compose(F8, f, g)
        for x in range(F8.q):
            assert d.eval_at(F8, comp, x) == d.eval_at(F8, f, d.eval_at(F8, g, x))
    m = [1, 1, 1]  # t^2+t+1, irreducible over F2
    a = [0, 1]
    inv = d.inv_mod(F2, a, m)
    assert d.mod(F2, d.mul(F2, a, inv), m) == [1]


def test_subresultant_sequence_ends_in_resultant_or_gcd_multiple():
    from conic2.poly import Poly, exact_div, from_columns, to_columns

    from _helpers import sylvester_resultant

    rng = random.Random(27)
    zt = ("z", "t")

    def rand_zt(zdeg, tdeg):
        items = [((i, j), rng.randrange(F4.q)) for i in range(zdeg + 1) for j in range(tdeg + 1)]
        return Poly.from_terms(F4, zt, [ic for ic in items if rng.random() < 0.6])

    planted_seen = zero_seen = 0
    for i in range(80):
        fa, fb = rand_zt(rng.randint(0, 4), 3), rand_zt(rng.randint(0, 4), 3)
        c = rand_zt(rng.randint(1, 2), 1) if i % 2 else Poly.const(F4, zt, 1)
        fa, fb = fa * c, fb * c
        if fa.is_zero() or fb.is_zero() or max(fa.degree_in("z"), fb.degree_in("z")) == 0:
            continue
        seq = d.subresultants(F4, to_columns(fa, "z", "t"), to_columns(fb, "z", "t"))
        lens = [len(m) for m in seq]
        assert lens[0] >= lens[1] and all(x > y for x, y in zip(lens[1:], lens[2:]))
        assert all(m and m[-1] for m in seq)
        last = from_columns(F4, zt, seq[-1], "z", "t")
        res = sylvester_resultant(fa, fb, "z")
        if len(seq[-1]) == 1:
            assert last == res
        else:
            assert res.is_zero()
            zero_seen += 1
        if c.degree_in("z") > 0:
            exact_div(last, c)  # the common factor divides the last subresultant
            planted_seen += 1
    assert planted_seen >= 20 and zero_seen >= 20
