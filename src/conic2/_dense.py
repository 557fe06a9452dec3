"""Dense arithmetic on F[t] and on column polynomials over F_{2^k}.

This module is the only one that does arithmetic on univariate polynomials
and on column polynomials; :mod:`conic2.factor` and :mod:`conic2.poly` work
on :class:`~conic2.poly.Poly` and call it.  Of factorization it owns
univariate factorization, the search for a squarefree specialization at the
values it is given, Hensel lifting and the construction of each
recombination candidate; :mod:`conic2.factor` chooses the field and the
precision, enumerates the subsets, divides exactly and merges Frobenius
orbits.

At its public functions a polynomial is a Python list of raw element bits,
index = exponent, with no trailing zeros (the zero polynomial is the empty
list).  The field is passed in as a context object exposing the raw int
operations ``mul``, ``inv``, ``sqrt``, ``pow`` and the attributes ``k``, ``q``
(addition is xor).  This module has no package dependencies so the field
layer can use it to check its moduli and to find embeddings.

Inside, a polynomial over F_{2^k} is packed into one Python int
(:class:`_Ring`; Kronecker substitution, von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 8): coefficient i sits in the slot of bits
[w i, w i + k), w = 2k - 1, so over F_2 bit i is the coefficient of t^i.
A sum is one xor.  A product is one shifted copy per set bit (the
shift-and-xor arithmetic of Brent, Gaudry, Thomé & Zimmermann, "Faster
multiplication in GF(2)[x]", ANTS-VIII, 2008): a slot of the result holds a
field polynomial of degree at most 2k - 2 < w, so no slot spills into the
next; then the bits of every slot from k up are folded back by the
modulus m, since t^k is m(t) - t^k in the field, a few whole-int shifts
per pass.  Long division makes the divisor monic, keeps c b for each
leading coefficient c it meets, its leading slot set to c as such rather
than taken from the product, so that it ends even on a wrong product, and
scales the quotient once.  Over F_2 nothing is folded and every leading
coefficient is 1, so the ring binds the plain F_2 product and division.
The ring is one class, its algorithms written on these ints: a public
function packs its input once, runs the whole algorithm, a factorization, a
lift or a subresultant sequence, in the ring, and unpacks its output once.

Factorization is the classical squarefree / distinct-degree / equal-degree
chain; the equal-degree split uses the additive trace map
T(h) = h + h^2 + h^4 + ... , since the odd-characteristic power trick
degenerates in characteristic 2.  All random choices come from a fixed-seed
generator so results are reproducible; it is seeded at its first draw
(:class:`_SeededDraws`), since most calls split nothing.  A draw is one
``randrange(q)`` per coefficient.

A column polynomial is a polynomial in z over F[t], stored as the list over
the z-exponent of dense t-polynomials ("columns"), with no trailing zero
column.  Bivariate elimination has one engine, the subresultant sequence
(``col_*`` and :meth:`_Ring.subresultants`; Collins 1967, Brown & Traub
1971).  It ends in the subresultant of least degree, which is the resultant
when the inputs are coprime and a multiple of their gcd otherwise:
:func:`last_subresultant` is what ``poly.resultant`` reads, and
:func:`col_gcd`, the primitive part of that member times the gcd of the
contents, is ``factor.gcd_bivariate``.

Hensel lifting (:func:`hensel_lift`) shifts t to t + r, so that the
specialization point is 0, makes the column polynomial monic by a power
series inverse of its leading column, and lifts the factors of its
specialization digit by digit in t.  Each lifted factor and each prefix
product of the factors is kept as its t-adic digits, so each step computes
one new digit of the product instead of the whole truncated product.

A recombination candidate (:func:`recombination_candidate`) is the
truncated product of a subset of the lifted factors times the shifted
leading coefficient of what remains, h.  For a true factor g of h, that is
lc(h / g) g, whose co-variable degree is at most that of h and so below the
precision; a product with a column of larger degree is refused before it is
shifted back and made primitive (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 15).  The one digit of precision beyond the degree bound is
what lets that filter see a false subset.
"""

from __future__ import annotations

import functools
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


def eval_at(ctx, c: Coeffs, x: int) -> int:
    acc = 0
    fmul = ctx.mul
    for coeff in reversed(c):
        acc = fmul(acc, x) ^ coeff
    return acc


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


def _clmul(a: int, b: int) -> int:
    """The carry-less product of a and b: one shifted copy of b per set bit of a."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b * low
        a ^= low
    return out


def _repeat(pattern: int, width: int, n: int) -> int:
    """pattern in each of n slots of width bits."""
    return ((1 << (width * n)) - 1) // ((1 << width) - 1) * pattern


# -- F_2[t], where a slot is one bit ------------------------------------------------

_BITS = bytes.maketrans(b"\x00\x01", b"01")  # coefficient bytes to binary digits
_UNBITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack2(c: Coeffs) -> int:
    return int(bytes(c[::-1]).translate(_BITS), 2) if c else 0


def _unpack2(a: int) -> Coeffs:
    return list(bin(a)[:1:-1].encode().translate(_UNBITS)) if a else []


def _divmod2(a: int, b: int) -> tuple[int, int]:
    """divmod in F_2[t], one shifted xor per quotient bit."""
    db = b.bit_length()
    if not db:
        raise ZeroDivisionError("univariate division by zero polynomial")
    q = 0
    while (s := a.bit_length() - db) >= 0:
        a ^= b << s
        q |= 1 << s
    return q, a


def _mod2(a: int, b: int) -> int:
    db = b.bit_length()
    if not db:
        raise ZeroDivisionError("univariate division by zero polynomial")
    while (s := a.bit_length() - db) >= 0:
        a ^= b << s
    return a


# -- the ring ----------------------------------------------------------------------


class _Ring:
    """F[t] for the field of ``ctx``, on ints: coefficient i sits in bits
    [w i, w i + k), w = 2k - 1, and 0 is the zero polynomial.  Over F_2,
    w = 1 and bit i is the coefficient of t^i."""

    def __init__(self, ctx) -> None:
        self.ctx, self.k, self.q = ctx, ctx.k, ctx.q
        k = self.k
        self.w = w = 2 * k - 1
        self.t = 1 << w
        self.slot = (1 << k) - 1
        # The exponents of the modulus m: xoring h m into a slot whose bits
        # from k up are h t^k clears them and keeps its residue mod m.
        self._folds = [j for j in range(k + 1) if ctx.modulus >> j & 1]
        self._high = 0  # bits [0, k - 1) of each slot, over twice the longest product yet
        if k == 1:
            # Over F_2 a slot is one bit: no product needs reducing, every
            # nonzero polynomial is monic, and a value is a parity.
            self.pack, self.unpack, self.mul, self.divmod, self.mod = _pack2, _unpack2, _clmul, _divmod2, _mod2
            self.monic = lambda a: a
            self.value_at = lambda a, x: (a.bit_count() if x else a) & 1

    def gcd(self, a, b):
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def pow_mod(self, base, e: int, m):
        r = 1
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
            g = self.gcd(f, h ^ self.t)
            if self.deg(g) > 0:
                out.append((g, d))
                f = self.divmod(f, g)[0]
                h = self.mod(h, f)
        if self.deg(f) > 0:
            out.append((f, self.deg(f)))
        return out

    def distinct_degree_parts(self, f) -> list:
        """[(h, d, mult)]: each part of multiplicity mult in the squarefree
        decomposition of f, split into h, the product of its irreducible
        factors of degree d."""
        return [(h, d, m) for g, m in self.squarefree(f) for h, d in self.distinct_degree(g)]

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
                t ^= p
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
        found: dict = {}  # irreducible -> multiplicity
        # Powers of t are split off first so every remaining factor has f(0) != 0.
        shift, f = self.strip_t(f)
        if shift:
            found[self.t] = shift
        rng = _SeededDraws()
        if self.deg(f) >= 1:
            for h, d, m in self.distinct_degree_parts(f):
                for irr in self.equal_degree(h, d, rng):
                    found[irr] = found.get(irr, 0) + m
        return lc, list(found.items())

    def roots(self, f) -> list[int]:
        """All roots of nonzero f lying in the field, sorted, without multiplicity."""
        shift, f = self.strip_t(f)
        out = [0] if shift else []
        if self.deg(f) >= 1:
            g = self.gcd(f, self.pow_mod(self.t, self.q, f) ^ self.t)
            if self.deg(g) >= 1:
                out += self.split_roots(g)
        out.sort()
        return out

    def compose(self, f, g):
        """f(g(t)) by Horner's rule."""
        acc = 0
        for c in reversed(self.unpack(f)):
            acc = self.mul(acc, g) ^ c  # a constant is its own low slot
        return acc

    def inv_mod(self, a, m):
        """Inverse of a modulo m (extended Euclid); requires gcd(a, m) = 1."""
        r0, r1 = m, self.mod(a, m)
        s0, s1 = 0, 1
        while r1:
            q, r2 = self.divmod(r0, r1)
            r0, r1 = r1, r2
            s0, s1 = s1, s0 ^ self.mul(q, s1)
        if self.deg(r0) != 0:
            raise ZeroDivisionError("element not invertible modulo the given polynomial")
        return self.scale(self.mod(s0, m), self.ctx.inv(self.lc(r0)))

    def series_inverse(self, a, prec: int):
        """Inverse of a mod t^prec; requires a(0) != 0.  Newton's step
        g -> g (2 - a g) is g -> a g^2 in characteristic 2: if a g = 1 + e,
        then a (a g^2) = 1 + e^2, so each step doubles the precision."""
        g = self.ctx.inv(self.const(a))
        n = 1
        while n < prec:
            n = min(2 * n, prec)
            g = self.truncate(self.mul(self.truncate(a, n), self.mul(g, g)), n)
        return g

    def shift(self, a, r: int):
        """a(t + r): its own inverse in characteristic 2, the identity for r = 0."""
        return self.compose(a, self.t ^ r) if r else a

    # -- column polynomials: polynomials in z over F[t] --------------------------

    @staticmethod
    def col_add(a: list, b: list) -> list:
        if len(a) < len(b):
            a, b = b, a
        return trim([c ^ b[i] if i < len(b) else c for i, c in enumerate(a)])

    def col_scale(self, cols: list, s) -> list:
        return [self.mul(c, s) for c in cols]

    def col_primitive(self, cols: list) -> tuple:
        """(content, primitive part) of a nonzero column polynomial; the
        content is the monic gcd of the columns."""
        cont = 0
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

    def col_eval(self, cols: list, x: int) -> Coeffs:
        """The polynomial in z, as a list, that cols gives at t = x."""
        return trim([self.value_at(c, x) for c in cols])

    def col_mul_trunc(self, a: list, b: list, prec: int) -> list:
        """The product of column polynomials, each column truncated mod t^prec."""
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] ^= self.mul(ca, cb)
        return trim([self.truncate(c, prec) for c in out])

    def squarefree_specialization(self, cols: list, values) -> tuple | None:
        """(r, u) for the first r among values at which the leading column
        is nonzero and u = cols at t = r is squarefree; None if none is."""
        lead = cols[-1]
        for r in values:
            if self.value_at(lead, r):
                u = self.col_eval(cols, r)
                if self.is_squarefree(self.pack(u)):
                    return r, u
        return None

    def hensel_lift(self, cols: list, base: list, r: int, prec: int) -> list:
        """Lift base, the monic pairwise coprime factors of cols at t = r,
        to factors mod t^prec of cols(t + r) made monic by a series inverse
        of its leading column.

        Each lifted factor and each prefix product of the factors is kept as
        its t-adic digits, polynomials in z.  Step j needs only the t^j digit
        of the product, one convolution per prefix; the new digits delta_i of
        the factors then add sum over i <= l of delta_i times the product of
        the other base factors up to l to the t^j digit of prefix l.
        """
        mul, truncate, coeff, pack = self.mul, self.truncate, self.coeff, self.pack
        shifted = [self.shift(c, r) for c in cols]
        linv = self.series_inverse(shifted[-1], prec)
        monic = [truncate(mul(c, linv), prec) for c in shifted]
        s = len(base)
        bezout = []
        for i in range(s):
            g = 1
            for j in range(s):
                if j != i:
                    g = mul(g, base[j])
            bezout.append(self.inv_mod(g, base[i]))
        f_digits = [pack([coeff(c, j) for c in monic]) for j in range(prec)]
        digits = [[g] for g in base]  # digits[i][j]: t^j digit of factor i
        prefix = [digits[0]]  # prefix[l][j]: t^j digit of the product of factors 0..l, l < s - 1
        for g in base[1:-1]:
            prefix.append([mul(prefix[-1][0], g)])
        for j in range(1, prec):
            # t^j digit of each prefix product while the factors' t^j digits are 0
            partial = [0]
            for i in range(1, s):
                acc = mul(partial[-1], base[i])
                for a in range(1, j):
                    acc ^= mul(prefix[i - 1][a], digits[i][j - a])
                partial.append(acc)
            e = f_digits[j] ^ partial[-1]
            deltas = [self.mod(mul(e, b), g) for b, g in zip(bezout, base)]
            for i in range(s):
                digits[i].append(deltas[i])
            correction = deltas[0]
            for i in range(1, s - 1):
                correction = mul(correction, base[i]) ^ mul(prefix[i - 1][0], deltas[i])
                prefix[i].append(partial[i] ^ correction)
        return [  # back to columns: entry idx is the t-polynomial of z^idx
            [pack([coeff(d, idx) for d in fd]) for idx in range(self.deg(fd[0]) + 1)]
            for fd in digits
        ]

    def recombination_candidate(self, factors: list, target: list, r: int, prec: int):
        """The primitive part of lc(target) times the product of the lifted
        factors, shifted back to t - r; None when the degree bound refuses
        it, that is when a column of the product times the shifted lc(target)
        mod t^prec has larger degree than target."""
        prod = factors[0]
        for g in factors[1:]:
            prod = self.col_mul_trunc(prod, g, prec)
        lead = self.shift(target[-1], r)
        bound = max(map(self.deg, target))
        scaled = [self.truncate(self.mul(c, lead), prec) for c in prod]
        if any(self.deg(c) > bound for c in scaled):
            return None
        return self.col_primitive([self.shift(c, r) for c in scaled])[1]

    def exact_quo(self, a, b):
        if b == 1:
            return a
        q, r = self.divmod(a, b)
        if r:  # pragma: no cover - defensive
            raise AssertionError("inexact division in F[t]")
        return q

    def power(self, a, e: int):
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def prem(self, a: list, b: list) -> list:
        """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (signs are free)."""
        lb = b[-1]
        left = len(a) - len(b) + 1
        while len(a) >= len(b):
            killer = [0] * (len(a) - len(b)) + self.col_scale(b, a[-1])
            a = self.col_add(self.col_scale(a, lb), killer)
            left -= 1
        return self.col_scale(a, self.power(lb, left)) if left and a else a

    def subresultants(self, a: list, b: list) -> list:
        """The subresultant sequence of nonzero column polynomials a, b; see
        :func:`last_subresultant`."""
        if len(a) < len(b):
            a, b = b, a
        seq = [a, b]
        g = h = 1
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

    # -- the representation ------------------------------------------------------

    def pack(self, c: Coeffs) -> int:
        a, w = 0, self.w
        for x in reversed(c):
            a = a << w | x
        return a

    def unpack(self, a: int) -> Coeffs:
        out, w, slot = [], self.w, self.slot
        while a:
            out.append(a & slot)
            a >>= w
        return out

    def deg(self, a: int) -> int:
        return (a.bit_length() - 1) // self.w

    def lc(self, a: int) -> int:
        return a >> (a.bit_length() - 1) // self.w * self.w

    def const(self, a: int) -> int:
        return a & self.slot

    def coeff(self, a: int, i: int) -> int:
        return (a >> (self.w * i)) & self.slot

    def value_at(self, a: int, x: int) -> int:
        return eval_at(self.ctx, self.unpack(a), x)

    def truncate(self, a: int, n: int) -> int:
        return a & ((1 << (self.w * n)) - 1)

    def mul(self, a: int, b: int) -> int:
        """The carry-less product, each slot then reduced by the modulus:
        its bits from k up are folded back until none is left."""
        out, k, high = _clmul(a, b), self.k, self._high
        if out.bit_length() > high.bit_length():
            high = self._high = _repeat(self.slot >> 1, self.w, 2 * out.bit_length() // self.w + 1)
        while h := (out >> k) & high:
            for j in self._folds:
                out ^= h << j
        return out

    def scale(self, a: int, s: int) -> int:
        return a if s == 1 else self.mul(a, s)

    def monic(self, a: int) -> int:
        c = self.lc(a) if a else 1
        return a if c == 1 else self.mul(a, self.ctx.inv(c))

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Long division by b made monic, with one multiple c b / lc(b) for
        each leading coefficient c met, and the quotient scaled once."""
        return self._divide(a, b, True)

    def mod(self, a: int, b: int) -> int:
        return self._divide(a, b, False)[1]

    def _divide(self, a: int, b: int, quotient: bool) -> tuple[int, int]:
        w = self.w
        top_b = (b.bit_length() - 1) // w * w
        if top_b < 0:
            raise ZeroDivisionError("univariate division by zero polynomial")
        if a.bit_length() <= top_b:
            return 0, a
        lead = b >> top_b
        inv = self.ctx.inv(lead) if lead != 1 else 1
        below = (1 << top_b) - 1
        low = self.scale(b, inv) & below  # b / lc(b) without its leading slot
        multiples = {1: low | 1 << top_b}  # c -> c b / lc(b)
        q = 0
        while (n := a.bit_length()) > top_b:
            top = (n - 1) // w * w
            c = a >> top
            m = multiples.get(c)
            if m is None:
                # the leading slot is set to c as such, not taken from the
                # product, so every pass clears a's and the division ends
                m = multiples[c] = self.mul(low, c) & below | c << top_b
            a ^= m << (top - top_b)
            if quotient:
                q ^= c << (top - top_b)
        return self.scale(q, inv), a

    def deriv(self, a: int) -> int:
        # Formal derivative: the odd-exponent slots, each moved down one slot.
        w = self.w
        return (a >> w) & _repeat(self.slot, 2 * w, a.bit_length() // (2 * w) + 1)

    def sqrt(self, a: int) -> int:
        return self.pack([self.ctx.sqrt(c) for c in self.unpack(a)[::2]])

    def strip_t(self, a: int) -> tuple[int, int]:
        s = ((a & -a).bit_length() - 1) // self.w if a else 0
        return s, a >> (self.w * s)

    def draw(self, rng: _SeededDraws, n: int) -> int:
        return self.pack([rng.randrange(self.q) for _ in range(n)])


_ring = functools.cache(_Ring)  # the ring F[t] of a context, one per (interned) context


# -- the public list functions: pack once, run the algorithm, unpack once ---------


def gcd(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    R = _ring(ctx)
    return R.unpack(R.gcd(R.pack(a), R.pack(b)))


def distinct_degree_parts(ctx, f: Coeffs) -> list[tuple[Coeffs, int, int]]:
    """[(part, d, mult)]: each monic part of multiplicity mult in the
    squarefree decomposition of f, split by the degree d of its irreducible
    factors (:meth:`_Ring.distinct_degree_parts`); empty for a constant f."""
    R = _ring(ctx)
    return [(R.unpack(h), d, m) for h, d, m in R.distinct_degree_parts(R.pack(f))]


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


def last_subresultant(ctx, a: list, b: list) -> list:
    """The last member of the subresultant sequence of nonzero column
    polynomials a, b, the only one unpacked.

    Members fall in z-degree, from the input of larger degree down to the
    subresultant S_d of least degree d = deg gcd(a, b): an F[t]-multiple of
    the gcd, and the resultant when d = 0.  Each pseudo-remainder is divided
    exactly by g h^delta (Brown & Traub), where h is the leading coefficient
    of the previous block's last subresultant, so degrees in t grow only
    linearly; a last member whose degree gap exceeds one is rescaled to S_d.
    """
    R = _ring(ctx)
    return _unpack_cols(R, R.subresultants(_pack_cols(R, a), _pack_cols(R, b))[-1])


def col_eval(ctx, cols: list, x: int) -> Coeffs:
    """The polynomial in z that the column polynomial cols gives at t = x."""
    R = _ring(ctx)
    return R.col_eval(_pack_cols(R, cols), x)


def squarefree_specialization(ctx, cols: list, values) -> tuple[int, Coeffs] | None:
    """(r, u) for the first r among values with lc_z(cols)(r) != 0 and u, the
    column polynomial cols at t = r, squarefree; None if there is none."""
    R = _ring(ctx)
    return R.squarefree_specialization(_pack_cols(R, cols), values)


def hensel_lift(ctx, cols: list, base: list, r: int, prec: int) -> list:
    """:meth:`_Ring.hensel_lift` on lists.  The lifted factors stay in the
    ring's representation: they are only passed back to
    :func:`recombination_candidate`."""
    R = _ring(ctx)
    return R.hensel_lift(_pack_cols(R, cols), [R.pack(g) for g in base], r, prec)


def recombination_candidate(ctx, factors: list, target: list, r: int, prec: int) -> list | None:
    """The columns of the candidate factor of the column polynomial target
    that a subset of :func:`hensel_lift`'s factors gives, or None when the
    degree bound refuses the subset (:meth:`_Ring.recombination_candidate`)."""
    R = _ring(ctx)
    cand = R.recombination_candidate(factors, _pack_cols(R, target), r, prec)
    return None if cand is None else _unpack_cols(R, cand)
