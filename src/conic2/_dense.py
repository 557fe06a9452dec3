"""Dense univariate polynomial arithmetic over F_{2^k}.

At its public functions a polynomial is a Python list of raw element bits,
index = exponent, with no trailing zeros (the zero polynomial is the empty
list).  The field is passed in as a context object exposing the raw int
operations ``mul``, ``inv``, ``sqrt``, ``pow`` and the attributes ``k``, ``q``
(addition is xor).  This module has no package dependencies so the field
layer can use its root finder for embeddings.

Inside, the context's ring (:func:`_ring`) chooses one of two
representations from ``ctx.k``.  Over F_2 a polynomial is packed into a
Python int, bit i the coefficient of t^i (:class:`_Packed`): a sum is one
xor, a product one shifted copy per set bit, and a remainder one shifted xor
per quotient bit (the shift-and-xor arithmetic of Brent, Gaudry, Thomé &
Zimmermann, "Faster multiplication in GF(2)[x]", ANTS-VIII, 2008).  Over
F_{2^k}, k > 1, it stays a coefficient list (:class:`_Lists`).  Each
algorithm is written once, as a method of :class:`_Ring`, against the
primitive operations the two representations supply.  A public function
packs its input once, runs the whole algorithm, a factorization or a
subresultant sequence, in the ring, and unpacks its output once.  Packing
each primitive call instead does not pay: most operands have degree below 8,
where converting costs as much as the list loop it replaces.

Factorization is the classical squarefree / distinct-degree / equal-degree
chain; the equal-degree split uses the additive trace map
T(h) = h + h^2 + h^4 + ... , since the odd-characteristic power trick
degenerates in characteristic 2.  All random choices come from a fixed-seed
generator so results are reproducible; it is seeded at its first draw
(:class:`_SeededDraws`), since most calls split nothing.  Both
representations draw the same sequence.

A column polynomial is a polynomial in z over F[t], stored as the list over
the z-exponent of dense t-polynomials ("columns"), with no trailing zero
column.  Its arithmetic (``col_*``) and :func:`subresultants` are the one
bivariate elimination engine: the subresultant sequence (Collins 1967;
Brown & Traub 1971) ends in the subresultant of least degree, which is the
resultant when the inputs are coprime and a multiple of their gcd otherwise.
"""

from __future__ import annotations

import operator
import random

Coeffs = list  # list[int]


def trim(c: list) -> list:
    """Drop trailing zeros (of a coefficient list, or zero columns of a column polynomial)."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n] if n != len(c) else c


def deg(c: Coeffs) -> int:
    return len(c) - 1


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] ^= x
    return trim(out)


def eval_at(ctx, c: Coeffs, x: int) -> int:
    acc = 0
    fmul = ctx.mul
    for coeff in reversed(c):
        acc = fmul(acc, x) ^ coeff
    return acc


def series_inverse(ctx, l: Coeffs, prec: int) -> Coeffs:
    """Inverse of l(t) in F[[t]]/(t^prec); requires l(0) != 0."""
    if not l or l[0] == 0:
        raise ZeroDivisionError("series inverse needs a unit constant term")
    inv0 = ctx.inv(l[0])
    out = [inv0] + [0] * (prec - 1)
    fmul = ctx.mul
    for i in range(1, prec):
        acc = 0
        for j in range(1, min(i, len(l) - 1) + 1):
            if j < len(l) and l[j]:
                acc ^= fmul(l[j], out[i - j])
        out[i] = fmul(inv0, acc)
    return trim(out)


class _SeededDraws:
    """random.Random(0x5EED), seeded at its first draw: the draws are the
    same, and a call that draws nothing seeds nothing."""

    __slots__ = ("_rng",)

    def __init__(self) -> None:
        self._rng: random.Random | None = None

    def randrange(self, n: int) -> int:
        if self._rng is None:
            self._rng = random.Random(0x5EED)
        return self._rng.randrange(n)


# -- the algorithms, once over both representations ------------------------------


class _Ring:
    """F[t] for the field of ``ctx``.  The methods here are the algorithms;
    a subclass supplies the representation: the constants ``zero``, ``one``
    and ``t``, and the primitives ``pack`` (from a list) and ``unpack`` (to
    one), ``key`` (hashable), ``deg``, ``lc``, ``const`` (the value at 0),
    ``add``, ``mul``, ``divmod``, ``mod``, ``monic``, ``scale`` (by a field
    element), ``deriv``, ``sqrt`` (of a square), ``strip_t`` (split off the
    largest power of t) and ``draw`` (n random coefficients)."""

    def __init__(self, ctx) -> None:
        self.ctx, self.k, self.q = ctx, ctx.k, ctx.q

    def gcd(self, a, b):
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def pow_mod(self, base, e: int, m):
        r = self.one
        base = self.mod(base, m)
        while e:
            if e & 1:
                r = self.mod(self.mul(r, base), m)
            base = self.mod(self.mul(base, base), m)
            e >>= 1
        return r

    def is_squarefree(self, f) -> bool:
        df = self.deriv(f)
        return self.deg(self.gcd(f, df) if df else f) == 0

    def squarefree(self, f) -> list:
        """Monic squarefree decomposition [(g, mult)], f of degree >= 1."""
        out: list = []
        deg, divmod_, gcd = self.deg, self.divmod, self.gcd

        def rec(g, outer: int) -> None:
            if deg(g) < 1:
                return
            gp = self.deriv(g)
            if not gp:
                rec(self.sqrt(g), 2 * outer)
                return
            c = gcd(g, gp)
            w = divmod_(g, c)[0]
            i = 1
            while deg(w) > 0:
                y = gcd(w, c)
                z = divmod_(w, y)[0]
                if deg(z) > 0:
                    out.append((self.monic(z), i * outer))
                w = y
                c = divmod_(c, y)[0]
                i += 1
            if deg(c) > 0:
                rec(self.sqrt(c), 2 * outer)

        rec(self.monic(f), 1)
        return out

    def distinct_degree(self, f) -> list:
        """Split monic squarefree f into [(product of irreducibles of degree d, d)]."""
        out: list = []
        h = self.t
        d = 0
        while self.deg(f) >= 2 * (d + 1):
            d += 1
            h = self.pow_mod(h, self.q, f)
            g = self.gcd(f, self.add(h, self.t))
            if self.deg(g) > 0:
                out.append((g, d))
                f = self.divmod(f, g)[0]
                h = self.mod(h, f)
        if self.deg(f) > 0:
            out.append((f, self.deg(f)))
        return out

    def trace_split(self, f, d: int, rng: _SeededDraws) -> tuple:
        """A proper monic factorization (g, f / g) of monic squarefree f, all
        of whose irreducible factors have degree d and which has at least two."""
        n = self.deg(f)
        while True:
            u = self.draw(rng, n)
            if self.deg(u) < 1:
                continue
            # Additive trace from F_{2^(k d)} down to F_2, evaluated on u mod f.
            t = p = u
            for _ in range(self.k * d - 1):
                p = self.mod(self.mul(p, p), f)
                t = self.add(t, p)
            g = self.gcd(f, t)
            if 0 < self.deg(g) < n:
                return g, self.divmod(f, g)[0]

    def equal_degree(self, f, d: int, rng: _SeededDraws) -> list:
        """Split monic squarefree f, all of whose irreducible factors have degree d."""
        if self.deg(f) == d:
            return [f]
        g, rest = self.trace_split(f, d, rng)
        return self.equal_degree(g, d, rng) + self.equal_degree(rest, d, rng)

    def split_roots(self, f) -> list[int]:
        """The roots of monic f, a product of distinct linear factors."""
        return [self.const(lin) for lin in self.equal_degree(f, 1, _SeededDraws())]

    def one_root(self, f) -> int:
        """One root of f, a product of distinct linear factors (keeps the smaller split)."""
        f = self.monic(f)
        rng = _SeededDraws()
        while self.deg(f) > 1:
            f = min(self.trace_split(f, 1, rng), key=self.deg)
        return self.const(f)

    def factor(self, f) -> tuple[int, list]:
        """(leading coefficient, [(monic irreducible, mult)]) of nonzero f, unsorted."""
        lc = self.lc(f)
        f = self.monic(f)
        if self.deg(f) < 2:
            return lc, [(f, 1)] if self.deg(f) == 1 else []
        found: dict = {}  # key -> (irreducible, multiplicity)
        # Powers of t are split off first so every remaining factor has f(0) != 0.
        shift, f = self.strip_t(f)
        if shift:
            found[self.key(self.t)] = (self.t, shift)
        rng = _SeededDraws()
        if self.deg(f) >= 1:
            for g, m in self.squarefree(f):
                for h, d in self.distinct_degree(g):
                    for irr in self.equal_degree(h, d, rng):
                        key = self.key(irr)
                        found[key] = (irr, found[key][1] + m if key in found else m)
        return lc, list(found.values())

    def roots(self, f) -> list[int]:
        """All roots of nonzero f lying in the field, sorted, without multiplicity."""
        shift, f = self.strip_t(f)
        out = [0] if shift else []
        if self.deg(f) >= 1:
            g = self.gcd(f, self.add(self.pow_mod(self.t, self.q, f), self.t))
            if self.deg(g) >= 1:
                out += self.split_roots(g)
        out.sort()
        return out

    def compose(self, f, g):
        """f(g(t)) by Horner's rule."""
        acc = self.zero
        for c in reversed(self.unpack(f)):
            acc = self.mul(acc, g)
            if c:
                acc = self.add(acc, self.pack([c]))
        return acc

    def inv_mod(self, a, m):
        """Inverse of a modulo m (extended Euclid); requires gcd(a, m) = 1."""
        r0, r1 = m, self.mod(a, m)
        s0, s1 = self.zero, self.one
        while r1:
            q, r2 = self.divmod(r0, r1)
            r0, r1 = r1, r2
            s0, s1 = s1, self.add(s0, self.mul(q, s1))
        if self.deg(r0) != 0:
            raise ZeroDivisionError("element not invertible modulo the given polynomial")
        return self.scale(self.mod(s0, m), self.ctx.inv(self.lc(r0)))

    # -- column polynomials: polynomials in z over F[t] --------------------------

    @classmethod
    def col_add(cls, a: list, b: list) -> list:
        if len(a) < len(b):
            a, b = b, a
        return trim([cls.add(c, b[i]) if i < len(b) else c for i, c in enumerate(a)])

    def col_scale(self, cols: list, s) -> list:
        return [self.mul(c, s) for c in cols]

    def col_primitive(self, cols: list) -> tuple:
        """(content, primitive part) of a nonzero column polynomial; the
        content is the monic gcd of the columns."""
        cont = self.zero
        for c in cols:
            if c:
                cont = self.gcd(cont, c) if cont else self.monic(c)
                if self.deg(cont) == 0:
                    break
        return cont, self.col_divide(cols, cont)

    def col_divide(self, cols: list, d) -> list:
        """Exact quotient of every column by the nonzero t-polynomial d."""
        return [self.exact_quo(c, d) for c in cols]

    def col_gcd(self, a: list, b: list) -> list:
        """A gcd of nonzero column polynomials: the primitive part of the last
        subresultant times the gcd of the contents."""
        (ca, a), (cb, b) = self.col_primitive(a), self.col_primitive(b)
        _, last = self.col_primitive(self.subresultants(a, b)[-1])
        return self.col_scale(last, self.gcd(ca, cb))

    def exact_quo(self, a, b):
        if b == self.one:
            return a
        q, r = self.divmod(a, b)
        if r:  # pragma: no cover - defensive
            raise AssertionError("inexact division in F[t]")
        return q

    def power(self, a, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def prem(self, a: list, b: list) -> list:
        """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (signs are free)."""
        lb = b[-1]
        left = len(a) - len(b) + 1
        while len(a) >= len(b):
            killer = [self.zero] * (len(a) - len(b)) + self.col_scale(b, a[-1])
            a = self.col_add(self.col_scale(a, lb), killer)
            left -= 1
        return self.col_scale(a, self.power(lb, left)) if left and a else a

    def subresultants(self, a: list, b: list) -> list:
        """The subresultant sequence of nonzero column polynomials a, b; see
        :func:`subresultants`."""
        if len(a) < len(b):
            a, b = b, a
        seq = [a, b]
        g = h = self.one
        while True:
            delta = len(a) - len(b)
            hb = self.exact_quo(self.power(b[-1], delta), self.power(h, delta - 1))
            r = self.prem(a, b) if len(b) > 1 else []
            if not r:
                break
            a, b = b, self.col_divide(r, self.mul(g, self.power(h, delta)))
            g, h = a[-1], hb
            seq.append(b)
        if delta > 1:
            seq[-1] = self.col_divide(self.col_scale(b, hb), b[-1])
        return seq


_BITS = bytes.maketrans(b"\x00\x01", b"01")  # coefficient bytes to binary digits
_UNBITS = bytes.maketrans(b"01", b"\x00\x01")


class _Packed(_Ring):
    """F_2[t] on ints: bit i is the coefficient of t^i, and 0 is the zero polynomial."""

    zero, one, t = 0, 1, 2
    add = staticmethod(operator.xor)
    key = monic = staticmethod(lambda a: a)
    deg = staticmethod(lambda a: a.bit_length() - 1)
    lc = staticmethod(lambda a: 1)
    const = staticmethod(lambda a: a & 1)
    scale = staticmethod(lambda a, s: a if s else 0)

    @staticmethod
    def pack(c: Coeffs) -> int:
        return int(bytes(c[::-1]).translate(_BITS), 2) if c else 0

    @staticmethod
    def unpack(a: int) -> Coeffs:
        return list(bin(a)[:1:-1].encode().translate(_UNBITS)) if a else []

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        while a:  # one shifted copy of b per set bit of a
            low = a & -a
            out ^= b * low
            a ^= low
        return out

    @staticmethod
    def divmod(a: int, b: int) -> tuple[int, int]:
        db = b.bit_length()
        if not db:
            raise ZeroDivisionError("univariate division by zero polynomial")
        q = 0
        while (s := a.bit_length() - db) >= 0:
            a ^= b << s
            q |= 1 << s
        return q, a

    @staticmethod
    def mod(a: int, b: int) -> int:
        db = b.bit_length()
        if not db:
            raise ZeroDivisionError("univariate division by zero polynomial")
        while (s := a.bit_length() - db) >= 0:
            a ^= b << s
        return a

    @staticmethod
    def deriv(a: int) -> int:
        # Formal derivative: the odd-exponent terms, each moved down one place.
        n = a.bit_length()
        return (a >> 1) & ((1 << (n + (n & 1))) - 1) // 3  # mask 0b0101...01

    @staticmethod
    def sqrt(a: int) -> int:
        return int(bin(a)[:1:-1][::2][::-1], 2)  # the even-exponent bits, halved

    @staticmethod
    def strip_t(a: int) -> tuple[int, int]:
        s = (a & -a).bit_length() - 1 if a else 0
        return s, a >> s

    @staticmethod
    def draw(rng: _SeededDraws, n: int) -> int:
        u = 0
        for i in range(n):
            if rng.randrange(2):
                u |= 1 << i
        return u


class _Lists(_Ring):
    """F_{2^k}[t] on coefficient lists (the public representation)."""

    zero: Coeffs = []
    one: Coeffs = [1]
    t: Coeffs = [0, 1]
    add = staticmethod(add)
    pack = staticmethod(trim)
    unpack = staticmethod(lambda a: a)
    key = staticmethod(tuple)
    deg = staticmethod(deg)
    lc = staticmethod(lambda a: a[-1])
    const = staticmethod(lambda a: a[0] if a else 0)

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.fmul = ctx.mul

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        if not a or not b:
            return []
        fmul = self.fmul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            if x == 1:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] ^= y
            else:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] ^= fmul(x, y)
        return trim(out)

    def divmod(self, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
        if not b:
            raise ZeroDivisionError("univariate division by zero polynomial")
        r = list(a)
        db, da = len(b) - 1, len(a) - 1
        if da < db:
            return [], trim(r)
        inv_lb = self.ctx.inv(b[-1])
        fmul = self.fmul
        q = [0] * (da - db + 1)
        for i in range(da - db, -1, -1):
            top = r[i + db]
            if top == 0:
                continue
            c = fmul(top, inv_lb)
            q[i] = c
            for j, y in enumerate(b):
                if y:
                    r[i + j] ^= fmul(c, y)
        return trim(q), trim(r)

    def mod(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return self.divmod(a, b)[1]

    def monic(self, a: Coeffs) -> Coeffs:
        if not a or a[-1] == 1:
            return a
        return self.scale(a, self.ctx.inv(a[-1]))

    def scale(self, a: Coeffs, s: int) -> Coeffs:
        if s == 0:
            return []
        if s == 1:
            return a
        fmul = self.fmul
        return [fmul(x, s) for x in a]

    @staticmethod
    def deriv(a: Coeffs) -> Coeffs:
        # Formal derivative; in characteristic 2 only odd-exponent terms survive.
        return trim([a[i] if i & 1 else 0 for i in range(1, len(a))])

    def sqrt(self, a: Coeffs) -> Coeffs:
        out = [0] * ((len(a) + 1) // 2)
        for i in range(0, len(a), 2):
            out[i // 2] = self.ctx.sqrt(a[i])
        return trim(out)

    @staticmethod
    def strip_t(a: Coeffs) -> tuple[int, Coeffs]:
        s = 0
        while s < len(a) and a[s] == 0:
            s += 1
        return s, a[s:] if s else a

    def draw(self, rng: _SeededDraws, n: int) -> Coeffs:
        return trim([rng.randrange(self.q) for _ in range(n)])


_RINGS: dict = {}  # id(ctx) -> ring


def _ring(ctx) -> _Ring:
    """The ring F[t] of the context, packed over F_2; one per context."""
    ring = _RINGS.get(id(ctx))
    if ring is None or ring.ctx is not ctx:
        ring = _RINGS[id(ctx)] = (_Packed if ctx.k == 1 else _Lists)(ctx)
    return ring


# -- the public list functions: pack once, run the algorithm, unpack once ---------


def smul(ctx, c: Coeffs, s: int) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.scale(R.pack(c), s))


def mul(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.mul(R.pack(a), R.pack(b)))


def divmod_(ctx, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    R = _ring(ctx)
    q, r = R.divmod(R.pack(a), R.pack(b))
    return R.unpack(q), R.unpack(r)


def mod(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.mod(R.pack(a), R.pack(b)))


def monic(ctx, c: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.monic(R.pack(c)))


def gcd(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.gcd(R.pack(a), R.pack(b)))


def pow_mod(ctx, base: Coeffs, e: int, m: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.pow_mod(R.pack(base), e, R.pack(m)))


def is_squarefree(ctx, f: Coeffs) -> bool:
    """Whether the nonzero f has no repeated factor."""
    R = _ring(ctx)
    return R.is_squarefree(R.pack(f))


def squarefree_decomposition(ctx, f: Coeffs) -> list[tuple[Coeffs, int]]:
    """Monic squarefree decomposition [(g, mult)], f of degree >= 1."""
    R = _ring(ctx)
    return [(R.unpack(g), m) for g, m in R.squarefree(R.pack(f))]


def distinct_degree(ctx, f: Coeffs) -> list[tuple[Coeffs, int]]:
    """Split monic squarefree f into [(product of irreducibles of degree d, d)]."""
    R = _ring(ctx)
    return [(R.unpack(g), d) for g, d in R.distinct_degree(R.pack(f))]


def split_roots(ctx, f: Coeffs) -> list[int]:
    """The roots of monic f, a product of distinct linear factors over ctx, sorted."""
    R = _ring(ctx)
    return sorted(R.split_roots(R.pack(f)))


def one_root(ctx, f: Coeffs) -> int:
    """One root of f, a product of distinct linear factors over ctx (keeps the smaller split)."""
    R = _ring(ctx)
    return R.one_root(R.pack(f))


def factor(ctx, f: Coeffs) -> tuple[int, list[tuple[Coeffs, int]]]:
    """Full factorization: (leading coefficient, [(monic irreducible, mult)]).

    Factors are sorted by (degree, coefficient tuple) so output is canonical.
    """
    R = _ring(ctx)
    f = R.pack(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc, fac = R.factor(f)
    out = [(R.unpack(g), m) for g, m in fac]
    out.sort(key=lambda km: (len(km[0]), km[0][::-1]))
    return lc, out


def roots(ctx, f: Coeffs) -> list[int]:
    """All roots of f lying in ctx's own field, sorted, without multiplicity."""
    R = _ring(ctx)
    f = R.pack(f)
    if not f:
        raise ValueError("the zero polynomial has every root")
    return R.roots(f)


def compose(ctx, f: Coeffs, g: Coeffs) -> Coeffs:
    """f(g(x)) by Horner's rule."""
    R = _ring(ctx)
    return R.unpack(R.compose(R.pack(f), R.pack(g)))


def inv_mod(ctx, a: Coeffs, m: Coeffs) -> Coeffs:
    """Inverse of a modulo m (extended Euclid); requires gcd(a, m) = 1."""
    R = _ring(ctx)
    return R.unpack(R.inv_mod(R.pack(a), R.pack(m)))


col_add = _Lists.col_add  # addition needs no field


def _pack_cols(R: _Ring, cols: list) -> list:
    return [R.pack(c) for c in cols]


def _unpack_cols(R: _Ring, cols: list) -> list:
    return [R.unpack(c) for c in cols]


def col_primitive(ctx, cols: list) -> tuple[Coeffs, list]:
    """(content, primitive part) of a nonzero column polynomial; the content
    is the monic gcd of the columns."""
    R = _ring(ctx)
    cont, prim = R.col_primitive(_pack_cols(R, cols))
    return R.unpack(cont), _unpack_cols(R, prim)


def col_gcd(ctx, a: list, b: list) -> list:
    """A gcd in F[t][z] of nonzero column polynomials, up to a unit."""
    R = _ring(ctx)
    return _unpack_cols(R, R.col_gcd(_pack_cols(R, a), _pack_cols(R, b)))


def subresultants(ctx, a: list, b: list) -> list:
    """The subresultant sequence of nonzero column polynomials a, b.

    Members fall in z-degree, from the input of larger degree down to the
    subresultant S_d of least degree d = deg gcd(a, b): an F[t]-multiple of
    the gcd, and the resultant when d = 0.  Each pseudo-remainder is divided
    exactly by g h^delta (Brown & Traub), where h is the leading coefficient
    of the previous block's last subresultant, so degrees in t grow only
    linearly; a last member whose degree gap exceeds one is rescaled to S_d.
    """
    R = _ring(ctx)
    seq = R.subresultants(_pack_cols(R, a), _pack_cols(R, b))
    return [_unpack_cols(R, member) for member in seq]


def last_subresultant(ctx, a: list, b: list) -> list:
    """The last member of :func:`subresultants`, the only one unpacked."""
    R = _ring(ctx)
    return _unpack_cols(R, R.subresultants(_pack_cols(R, a), _pack_cols(R, b))[-1])
