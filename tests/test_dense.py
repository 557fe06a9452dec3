"""Direct tests of the dense univariate engine underlying factorization."""

import random

import pytest

from conic2 import _dense as d
from conic2.gf2k import field_new

from _helpers import is_irreducible, naive_divmod, naive_mul

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


def test_the_generator_is_seeded_at_its_first_draw_with_the_same_draws(monkeypatch):
    lazy, eager = d._SeededDraws(), random.Random(0x5EED)
    assert [lazy.randrange(n) for n in (2, 4, 256, 2**16) * 5] == [
        eager.randrange(n) for n in (2, 4, 256, 2**16) * 5]

    seeded, Random = [], random.Random
    monkeypatch.setattr(d.random, "Random", lambda seed: seeded.append(seed) or Random(seed))
    f = d.mul(F4, [1, 1], [2, 1])  # (z + 1)(z + 2): a split draws
    assert d.roots(F4, f) == [1, 2] and seeded == [0x5EED]
    # one root, one linear factor, an irreducible quadratic, factors of
    # distinct degrees: nothing to split, nothing seeded
    assert d.roots(F2, d.mul(F2, [1, 1], [1, 1, 1])) == [1] and d.one_root(F4, [2, 1]) == 2
    assert d.factor(F2, [1, 1, 1]) == (1, [([1, 1, 1], 1)])
    assert d.factor(F2, d.mul(F2, [0, 1], d.mul(F2, [1, 1], [1, 1, 1])))[1] == [
        ([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 1)]
    assert seeded == [0x5EED]


def test_high_degree_mul_and_divmod_match_the_schoolbook():
    rng = random.Random(28)
    for ctx in (F2, F4):
        for _ in range(6):
            a = rand_coeffs(rng, ctx, rng.randint(100, 300))
            b = rand_coeffs(rng, ctx, rng.randint(100, 300))
            assert d.mul(ctx, a, b) == naive_mul(ctx, a, b)
            if b:
                big = d.add(d.mul(ctx, a, b), rand_coeffs(rng, ctx, 99))
                assert d.divmod_(ctx, big, b) == naive_divmod(ctx, big, b)
                assert d.divmod_(ctx, a, b) == naive_divmod(ctx, a, b)


def test_f2_factor_matches_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(29)
    for n in range(1, 41):
        for _ in range(3):
            f = [rng.randrange(2) for _ in range(n)] + [1]
            lc, fac = d.factor(F2, f)
            want_lc, want = galoistools.gf_factor([ZZ(c) for c in reversed(f)], 2, ZZ)
            assert lc == want_lc == 1
            assert sorted((tuple(g), m) for g, m in fac) == sorted(
                (tuple(int(c) for c in reversed(g)), m) for g, m in want), f


class _RecordedDraws(d._SeededDraws):
    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def randrange(self, n):
        self.seen.append((n, super().randrange(n)))
        return self.seen[-1][1]


def test_packed_and_list_rings_agree_over_f2():
    """The F_2 algorithms give the same results on packed ints as on lists,
    and the equal-degree split draws the same randrange(2) sequence."""
    packed, lists = d._ring(F2), d._Lists(F2)
    assert isinstance(packed, d._Packed)
    rng = random.Random(30)
    for _ in range(150):
        f = rand_coeffs(rng, F2, 40)
        if d.deg(f) < 1:
            continue
        g = rand_coeffs(rng, F2, 12) or [1]
        out = []
        for R in (packed, lists):
            pf, pg = R.pack(f), R.pack(g)
            lc, fac = R.factor(pf)
            sqf = [(R.unpack(h), m) for h, m in R.squarefree(pf)]
            out.append((
                lc, sorted((R.unpack(h), m) for h, m in fac), sqf,
                [(R.unpack(h), e) for h, m in R.squarefree(pf) for h, e in R.distinct_degree(h)],
                R.roots(pf), R.is_squarefree(pf), R.unpack(R.gcd(pf, pg)),
                R.unpack(R.compose(pf, pg)), R.unpack(R.deriv(pf)),
            ))
        assert out[0] == out[1], f
    for deg_each, count in ((1, 2), (3, 2), (4, 3), (5, 4)):
        irrs = set()
        while len(irrs) < count:
            h = [rng.randrange(2) for _ in range(deg_each)] + [1]
            if is_irreducible(F2, h):
                irrs.add(tuple(h))
        prod = [1]
        for h in irrs:
            prod = d.mul(F2, prod, list(h))
        runs = []
        for R in (packed, lists):
            draws = _RecordedDraws()
            split = sorted(R.unpack(h) for h in R.equal_degree(R.pack(prod), deg_each, draws))
            runs.append((split, draws.seen))
        assert runs[0] == runs[1] and runs[0][0] == sorted(map(list, irrs))
