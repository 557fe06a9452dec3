"""Direct tests of the dense univariate engine underlying factorization."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conic2 import _dense as d
from conic2.gf2k import field_new

from _helpers import (
    is_irreducible,
    list_add,
    list_compose,
    list_equal_degree,
    list_gcd,
    list_inv_mod,
    list_series_inverse,
    naive_divmod,
    naive_mul,
)

F2 = field_new(1)
F4 = field_new(2)
F8 = field_new(3)


def rand_coeffs(rng, ctx, max_deg):
    return d.trim([rng.randrange(ctx.q) for _ in range(rng.randint(0, max_deg + 1))])


def in_ring(ctx, op, *polys):
    """The ring method op of ctx's F[t] on coefficient lists, its result unpacked."""
    R = d._ring(ctx)
    out = getattr(R, op)(*map(R.pack, polys))
    return tuple(map(R.unpack, out)) if isinstance(out, tuple) else R.unpack(out)


def test_divmod_round_trip():
    rng = random.Random(21)
    for ctx in (F2, F4, F8):
        R = d._ring(ctx)
        for _ in range(200):
            a = rand_coeffs(rng, ctx, 8)
            b = rand_coeffs(rng, ctx, 5)
            if not b:
                continue
            q, r = in_ring(ctx, "divmod", a, b)
            assert R.unpack(R.pack(in_ring(ctx, "mul", q, b)) ^ R.pack(r)) == a
            assert d.deg(r) < d.deg(b) or not r


def test_gcd_is_common_divisor():
    rng = random.Random(22)
    for _ in range(100):
        a = rand_coeffs(rng, F4, 4)
        b = rand_coeffs(rng, F4, 4)
        c = rand_coeffs(rng, F4, 3)
        if not c:
            continue
        f, g = in_ring(F4, "mul", a, c), in_ring(F4, "mul", b, c)
        if not f or not g:
            continue
        h = d.gcd(F4, f, g)
        assert not in_ring(F4, "mod", f, h)
        assert not in_ring(F4, "mod", g, h)
        assert not in_ring(F4, "mod", h, in_ring(F4, "monic", c)) or d.deg(h) >= d.deg(c)


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
                    prod = naive_mul(ctx, prod, g)
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
    f = naive_mul(F2, [0, 0, 0, 1], naive_mul(F2, [1, 1], [1, 1]))
    parts = d.distinct_degree_parts(F2, f)
    assert sorted((d.deg(g), m) for g, _, m in parts) == [(1, 2), (1, 3)]


def test_series_inverse():
    rng = random.Random(25)
    for ctx in (F2, F4):
        R = d._ring(ctx)
        for _ in range(50):
            l = [rng.randrange(1, ctx.q)] + [rng.randrange(ctx.q) for _ in range(rng.randint(0, 6))]
            prec = rng.randint(1, 12)
            inv = R.unpack(R.series_inverse(R.pack(l), prec))
            assert inv == list_series_inverse(ctx, l, prec)
            assert d.trim(naive_mul(ctx, l, inv)[:prec]) == [1]
    R = d._ring(F4)
    with pytest.raises(ZeroDivisionError):
        R.series_inverse(R.pack([0, 1]), 3)


def test_compose_and_inv_mod():
    # f(g(x)) at sample points equals f evaluated at g's value
    rng = random.Random(26)
    for _ in range(40):
        f = rand_coeffs(rng, F8, 4)
        g = rand_coeffs(rng, F8, 3)
        comp = in_ring(F8, "compose", f, g)
        for x in range(F8.q):
            assert d.eval_at(F8, comp, x) == d.eval_at(F8, f, d.eval_at(F8, g, x))
    m = [1, 1, 1]  # t^2+t+1, irreducible over F2
    a = [0, 1]
    inv = in_ring(F2, "inv_mod", a, m)
    assert naive_divmod(F2, naive_mul(F2, a, inv), m)[1] == [1]


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
        R = d._ring(F4)
        packed = R.subresultants(*([R.pack(c) for c in to_columns(f, "z", "t")] for f in (fa, fb)))
        seq = [[R.unpack(c) for c in m] for m in packed]
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
    f = naive_mul(F4, [1, 1], [2, 1])  # (z + 1)(z + 2): a split draws
    assert d.roots(F4, f) == [1, 2] and seeded == [0x5EED]
    # one root, one linear factor, an irreducible quadratic, factors of
    # distinct degrees: nothing to split, nothing seeded
    assert d.roots(F2, naive_mul(F2, [1, 1], [1, 1, 1])) == [1] and d.one_root(F4, [2, 1]) == 2
    assert d.factor(F2, [1, 1, 1]) == (1, [([1, 1, 1], 1)])
    assert d.factor(F2, naive_mul(F2, [0, 1], naive_mul(F2, [1, 1], [1, 1, 1])))[1] == [
        ([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 1)]
    assert seeded == [0x5EED]


def test_high_degree_mul_and_divmod_match_the_schoolbook():
    rng = random.Random(28)
    for ctx in (F2, F4):
        R = d._ring(ctx)
        for _ in range(6):
            a = rand_coeffs(rng, ctx, rng.randint(100, 300))
            b = rand_coeffs(rng, ctx, rng.randint(100, 300))
            assert in_ring(ctx, "mul", a, b) == naive_mul(ctx, a, b)
            if b:
                big = R.unpack(R.pack(naive_mul(ctx, a, b)) ^ R.pack(rand_coeffs(rng, ctx, 99)))
                assert in_ring(ctx, "divmod", big, b) == naive_divmod(ctx, big, b)
                assert in_ring(ctx, "divmod", a, b) == naive_divmod(ctx, a, b)


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


ORACLE_FIELDS = [field_new(k) for k in (1, 2, 3, 8, 13, 64)]  # F_{2^13} is past the table cap


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=lambda ctx: f"F2^{ctx.k}")
def test_the_packed_ring_matches_the_list_oracles(ctx):
    """Every primitive and algorithm of the packed F[t] equals its
    schoolbook list counterpart, with zero, constant and non-monic
    operands, and the equal-degree split draws what the list split draws."""
    R = d._ring(ctx)
    rng = random.Random(30 + ctx.k)

    def nonzero():
        return rng.randrange(1, ctx.q)

    def rand_poly(n):
        return d.trim([rng.randrange(ctx.q) for _ in range(n)] + [nonzero()])

    # F_{2^64} multiplies bit-serially and inverts by 127 of those products
    sizes, splits = ((1, 10, 12), ((1, 2), (3, 2), (4, 3))) if ctx.k < 64 else ((1, 5, 6), ((1, 2), (2, 2)))
    operands = [[], [1], [nonzero()]] + [rand_poly(rng.randint(*sizes[:2])) for _ in range(sizes[2])]
    assert ctx.k == 1 or any(len(f) > 1 and f[-1] != 1 for f in operands)
    for f in operands:
        pf = R.pack(f)
        assert R.unpack(pf) == f and R.deg(pf) == d.deg(f)
        assert R.unpack(R.deriv(pf)) == d.trim([c if i & 1 else 0 for i, c in enumerate(f)][1:])
        assert R.unpack(R.truncate(pf, 3)) == d.trim(f[:3])
        assert [R.coeff(pf, i) for i in range(len(f) + 1)] == f + [0]
        assert R.const(pf) == (f[0] if f else 0)
        x = rng.randrange(ctx.q)
        assert R.value_at(pf, x) == d.eval_at(ctx, f, x)
        assert R.value_at(pf, 0) == R.const(pf)
        assert R.unpack(R.sqrt(R.pack(naive_mul(ctx, f, f)))) == f
        if not f:
            assert R.strip_t(pf) == (0, 0)
        else:
            assert R.lc(pf) == f[-1]
            unit_at_0 = f if f[0] else [nonzero()] + f
            s = rng.randint(0, 3)
            assert R.strip_t(R.pack([0] * s + unit_at_0)) == (s, R.pack(unit_at_0))
            c = nonzero()
            assert R.unpack(R.scale(pf, c)) == [ctx.mul(c, y) for y in f]
            assert R.unpack(R.monic(pf)) == [ctx.mul(ctx.inv(f[-1]), y) for y in f]
            shift_by = rng.randrange(ctx.q)
            assert R.unpack(R.shift(pf, shift_by)) == list_compose(ctx, f, [shift_by, 1])
            head = [nonzero()] + f
            assert R.unpack(R.series_inverse(R.pack(head), 7)) == list_series_inverse(ctx, head, 7)
        for g in operands:
            pg = R.pack(g)
            assert R.unpack(R.mul(pf, pg)) == naive_mul(ctx, f, g)
            assert R.unpack(pf ^ pg) == list_add(f, g)
            assert R.unpack(R.gcd(pf, pg)) == list_gcd(ctx, f, g)
            assert R.unpack(R.compose(pf, pg)) == list_compose(ctx, f, g)
            if g:
                want = naive_divmod(ctx, f, g)
                assert tuple(map(R.unpack, R.divmod(pf, pg))) == want
                assert R.unpack(R.mod(pf, pg)) == want[1]
                if d.deg(g) > 0 and list_gcd(ctx, f, g) == [1]:
                    assert R.unpack(R.inv_mod(pf, pg)) == list_inv_mod(ctx, f, g)
            else:
                with pytest.raises(ZeroDivisionError):
                    R.divmod(pf, pg)
                with pytest.raises(ZeroDivisionError):
                    R.mod(pf, pg)

    # one randrange(q) per coefficient drawn, trailing zeros trimmed
    draws = _RecordedDraws()
    u = R.draw(draws, 9)
    assert [n for n, _ in draws.seen] == [ctx.q] * 9
    assert R.unpack(u) == d.trim([v for _, v in draws.seen])

    # the equal-degree split: same factors in the same order from the same draws
    for deg_each, count in splits:  # F_2 has 2 linear, 2 cubic and 3 quartic irreducibles
        irrs = []
        while len(irrs) < count:
            h = [rng.randrange(ctx.q) for _ in range(deg_each)] + [1]
            if h not in irrs and is_irreducible(ctx, h):
                irrs.append(h)
        prod = [1]
        for h in irrs:
            prod = naive_mul(ctx, prod, h)
        packed_draws, list_draws = _RecordedDraws(), _RecordedDraws()
        split = [R.unpack(h) for h in R.equal_degree(R.pack(prod), deg_each, packed_draws)]
        assert split == list_equal_degree(ctx, prod, deg_each, list_draws)
        assert packed_draws.seen == list_draws.seen and sorted(split) == sorted(irrs)
        if deg_each == 1:
            assert d.roots(ctx, prod) == sorted(h[0] for h in irrs)
        # a non-monic product with a repeated factor factors back into it
        c = nonzero()
        f = [ctx.mul(c, y) for y in naive_mul(ctx, prod, irrs[0])]
        assert d.factor(ctx, f) == (c, sorted(
            [(irrs[0], 2)] + [(h, 1) for h in irrs[1:]], key=lambda hm: (len(hm[0]), hm[0][::-1])))


def test_a_division_ends_on_a_wrong_product():
    # With bit 0 of the modulus dropped from the fold, the products of
    # F_4[t] are wrong: the multiple c b / lc(b) does not lead with c.  The
    # division clears each leading slot as such, so it still ends (with a
    # wrong answer), instead of meeting the same leading slot for ever.
    script = textwrap.dedent("""
        from conic2 import _dense
        from conic2.gf2k import field_new
        ring = _dense._ring(field_new(2))
        ring._folds = [j for j in ring._folds if j != 0]
        for a, b in [([0, 0, 0, 1], [1, 2]), ([1, 2, 3, 1], [2, 3]), ([3, 3, 3, 3, 3], [1, 1, 2])]:
            ring.divmod(ring.pack(a), ring.pack(b))
        print("ended")
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0 and done.stdout.split() == ["ended"], done.stderr
