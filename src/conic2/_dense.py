"""Dense univariate polynomial arithmetic over F_{2^k}.

Polynomials are Python lists of raw element bits, index = exponent, with no
trailing zeros (the zero polynomial is the empty list).  The field is passed
in as a context object exposing the raw int operations ``mul``, ``inv``,
``sqrt``, ``pow`` and the attributes ``k``, ``q`` (addition is xor).  This
module has no package dependencies so the field layer can use its root
finder for embeddings.

Factorization is the classical squarefree / distinct-degree / equal-degree
chain; the equal-degree split uses the additive trace map
T(h) = h + h^2 + h^4 + ... , since the odd-characteristic power trick
degenerates in characteristic 2.  All random choices come from a fixed-seed
generator so results are reproducible.

A column polynomial is a polynomial in z over F[t], stored as the list over
the z-exponent of dense t-lists ("columns"), with no trailing empty column.
Its arithmetic (``col_*``) and :func:`subresultants` are the one bivariate
elimination engine: the subresultant sequence (Collins 1967; Brown & Traub
1971) ends in the subresultant of least degree, which is the resultant when
the inputs are coprime and a multiple of their gcd otherwise.
"""

from __future__ import annotations

import random

Coeffs = list  # list[int]


def trim(c: list) -> list:
    """Drop trailing zeros (of a coefficient list, or empty columns of a column polynomial)."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n] if n != len(c) else c


def deg(c: Coeffs) -> int:
    return len(c) - 1


def is_zero(c: Coeffs) -> bool:
    return not c


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] ^= x
    return trim(out)


def smul(ctx, c: Coeffs, s: int) -> Coeffs:
    if s == 0:
        return []
    if s == 1:
        return list(c)
    mul = ctx.mul
    return [mul(x, s) for x in c]


def mul(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return []
    fmul = ctx.mul
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


def divmod_(ctx, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    r = list(a)
    db, lb = deg(b), b[-1]
    if deg(a) < db:
        return [], trim(r)
    inv_lb = ctx.inv(lb)
    fmul = ctx.mul
    q = [0] * (deg(a) - db + 1)
    for i in range(deg(a) - db, -1, -1):
        top = r[i + db]
        if top == 0:
            continue
        c = fmul(top, inv_lb)
        q[i] = c
        for j, y in enumerate(b):
            if y:
                r[i + j] ^= fmul(c, y)
    return trim(q), trim(r)


def mod(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    return divmod_(ctx, a, b)[1]


def monic(ctx, c: Coeffs) -> Coeffs:
    if not c or c[-1] == 1:
        return list(c)
    return smul(ctx, c, ctx.inv(c[-1]))


def gcd(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, mod(ctx, a, b)
    return monic(ctx, a)


def pow_mod(ctx, base: Coeffs, e: int, m: Coeffs) -> Coeffs:
    r: Coeffs = [1]
    base = mod(ctx, base, m)
    while e:
        if e & 1:
            r = mod(ctx, mul(ctx, r, base), m)
        base = mod(ctx, mul(ctx, base, base), m)
        e >>= 1
    return r


def eval_at(ctx, c: Coeffs, x: int) -> int:
    acc = 0
    fmul = ctx.mul
    for coeff in reversed(c):
        acc = fmul(acc, x) ^ coeff
    return acc


def deriv(c: Coeffs) -> Coeffs:
    # Formal derivative; in characteristic 2 only odd-exponent terms survive.
    return trim([c[i] if i & 1 else 0 for i in range(1, len(c))])


def poly_sqrt(ctx, c: Coeffs) -> Coeffs:
    # Defined when all exponents are even (the derivative vanishes).
    out = [0] * ((len(c) + 1) // 2)
    for i in range(0, len(c), 2):
        out[i // 2] = ctx.sqrt(c[i])
    return trim(out)


def squarefree_decomposition(ctx, f: Coeffs) -> list[tuple[Coeffs, int]]:
    """Monic squarefree decomposition [(g, mult)], f monic of degree >= 1."""
    out: list[tuple[Coeffs, int]] = []

    def rec(g: Coeffs, outer: int) -> None:
        if deg(g) < 1:
            return
        gp = deriv(g)
        if is_zero(gp):
            rec(poly_sqrt(ctx, g), 2 * outer)
            return
        c = gcd(ctx, g, gp)
        w = divmod_(ctx, g, c)[0]
        i = 1
        while deg(w) > 0:
            y = gcd(ctx, w, c)
            z = divmod_(ctx, w, y)[0]
            if deg(z) > 0:
                out.append((monic(ctx, z), i * outer))
            w = y
            c = divmod_(ctx, c, y)[0]
            i += 1
        if deg(c) > 0:
            rec(poly_sqrt(ctx, c), 2 * outer)

    rec(monic(ctx, f), 1)
    return out


def distinct_degree(ctx, f: Coeffs) -> list[tuple[Coeffs, int]]:
    """Split monic squarefree f into [(product of irreducibles of degree d, d)]."""
    out: list[tuple[Coeffs, int]] = []
    fs = list(f)
    h: Coeffs = [0, 1]
    d = 0
    while deg(fs) >= 2 * (d + 1):
        d += 1
        h = pow_mod(ctx, h, ctx.q, fs)
        g = gcd(ctx, fs, add(h, [0, 1]))
        if deg(g) > 0:
            out.append((g, d))
            fs = divmod_(ctx, fs, g)[0]
            h = mod(ctx, h, fs)
    if deg(fs) > 0:
        out.append((fs, deg(fs)))
    return out


def _trace_split(ctx, f: Coeffs, d: int, rng: random.Random) -> tuple[Coeffs, Coeffs]:
    """A proper monic factorization (g, f / g) of monic squarefree f, all of
    whose irreducible factors have degree d and which has at least two."""
    n = deg(f)
    while True:
        u = trim([rng.randrange(ctx.q) for _ in range(n)])
        if deg(u) < 1:
            continue
        # Additive trace from F_{2^(k d)} down to F_2, evaluated on u mod f.
        t, p = list(u), list(u)
        for _ in range(ctx.k * d - 1):
            p = mod(ctx, mul(ctx, p, p), f)
            t = add(t, p)
        g = gcd(ctx, f, t)
        if 0 < deg(g) < n:
            return g, divmod_(ctx, f, g)[0]


def equal_degree(ctx, f: Coeffs, d: int, rng: random.Random) -> list[Coeffs]:
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    if deg(f) == d:
        return [f]
    g, rest = _trace_split(ctx, f, d, rng)
    return equal_degree(ctx, g, d, rng) + equal_degree(ctx, rest, d, rng)


def one_root(ctx, f: Coeffs) -> int:
    """One root of f, a product of distinct linear factors over ctx (keeps the smaller split)."""
    f = monic(ctx, trim(list(f)))
    rng = random.Random(0x5EED)
    while deg(f) > 1:
        f = min(_trace_split(ctx, f, 1, rng), key=len)
    return f[0]


def factor(ctx, f: Coeffs) -> tuple[int, list[tuple[Coeffs, int]]]:
    """Full factorization: (leading coefficient, [(monic irreducible, mult)]).

    Factors are sorted by (degree, coefficient tuple) so output is canonical.
    """
    f = trim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc = f[-1]
    if deg(f) == 0:
        return lc, []
    f = monic(ctx, f)
    found: dict[tuple[int, ...], int] = {}
    # Powers of x are split off first so every remaining factor has f(0) != 0.
    shift = 0
    while f[0] == 0:
        shift += 1
        f = f[1:]
    if shift:
        found[(0, 1)] = shift
    rng = random.Random(0x5EED)
    if deg(f) >= 1:
        for g, m in squarefree_decomposition(ctx, f):
            for h, d in distinct_degree(ctx, g):
                for irr in equal_degree(ctx, h, d, rng):
                    key = tuple(irr)
                    found[key] = found.get(key, 0) + m
    out = [(list(k), m) for k, m in found.items()]
    out.sort(key=lambda km: (len(km[0]), km[0][::-1]))
    return lc, out


def roots(ctx, f: Coeffs) -> list[int]:
    """All roots of f lying in ctx's own field, sorted, without multiplicity."""
    f = trim(list(f))
    if not f:
        raise ValueError("the zero polynomial has every root")
    out = []
    if deg(f) >= 1 and f[0] == 0:
        out.append(0)
        while f[0] == 0:
            f = f[1:]
    if deg(f) >= 1:
        xq = pow_mod(ctx, [0, 1], ctx.q, f)
        g = gcd(ctx, f, add(xq, [0, 1]))
        if deg(g) >= 1:
            rng = random.Random(0x5EED)
            for lin in equal_degree(ctx, g, 1, rng):
                out.append(lin[0])
    out.sort()
    return out


def compose(ctx, f: Coeffs, g: Coeffs) -> Coeffs:
    """f(g(x)) by Horner's rule."""
    acc: Coeffs = []
    for c in reversed(f):
        acc = mul(ctx, acc, g)
        if c:
            acc = add(acc, [c])
    return acc


def inv_mod(ctx, a: Coeffs, m: Coeffs) -> Coeffs:
    """Inverse of a modulo m (extended Euclid); requires gcd(a, m) = 1."""
    r0, r1 = trim(list(m)), mod(ctx, a, m)
    s0: Coeffs = []
    s1: Coeffs = [1]
    while r1:
        q, r2 = divmod_(ctx, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, add(s0, mul(ctx, q, s1))
    if deg(r0) != 0:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return smul(ctx, mod(ctx, s0, m), ctx.inv(r0[0]))


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


# -- column polynomials: polynomials in z over F[t] ------------------------------


def col_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return trim([add(c, b[i]) if i < len(b) else list(c) for i, c in enumerate(a)])


def col_scale(ctx, cols: list, s: Coeffs) -> list:
    return [mul(ctx, c, s) for c in cols]


def col_primitive(ctx, cols: list) -> tuple[Coeffs, list]:
    """(content, primitive part) of a nonzero column polynomial; the content
    is the monic gcd of the columns."""
    cont: Coeffs = []
    for c in cols:
        if c:
            cont = gcd(ctx, cont, c) if cont else monic(ctx, c)
            if deg(cont) == 0:
                break
    return cont, col_divide(ctx, cols, cont)


def col_divide(ctx, cols: list, d: Coeffs) -> list:
    """Exact quotient of every column by the nonzero t-polynomial d."""
    return [_exact_quo(ctx, c, d) for c in cols]


def _exact_quo(ctx, a: Coeffs, b: Coeffs) -> Coeffs:
    if b == [1]:
        return list(a)
    q, r = divmod_(ctx, a, b)
    if r:  # pragma: no cover - defensive
        raise AssertionError("inexact division in F[t]")
    return q


def _power(ctx, a: Coeffs, e: int) -> Coeffs:
    out: Coeffs = [1]
    for _ in range(e):
        out = mul(ctx, out, a)
    return out


def _prem(ctx, a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (signs are free)."""
    lb = b[-1]
    left = len(a) - len(b) + 1
    while len(a) >= len(b):
        shift = len(a) - len(b)
        killer = [[]] * shift + col_scale(ctx, b, a[-1])
        a = col_add(col_scale(ctx, a, lb), killer)
        left -= 1
    return col_scale(ctx, a, _power(ctx, lb, left)) if left and a else a


def subresultants(ctx, a: list, b: list) -> list:
    """The subresultant sequence of nonzero column polynomials a, b.

    Members fall in z-degree, from the input of larger degree down to the
    subresultant S_d of least degree d = deg gcd(a, b): an F[t]-multiple of
    the gcd, and the resultant when d = 0.  Each pseudo-remainder is divided
    exactly by g h^delta (Brown & Traub), where h is the leading coefficient
    of the previous block's last subresultant, so degrees in t grow only
    linearly; a last member whose degree gap exceeds one is rescaled to S_d.
    """
    if len(a) < len(b):
        a, b = b, a
    seq = [a, b]
    g = h = [1]
    while True:
        delta = len(a) - len(b)
        hb = _exact_quo(ctx, _power(ctx, b[-1], delta), _power(ctx, h, delta - 1))
        r = _prem(ctx, a, b) if len(b) > 1 else []
        if not r:
            break
        a, b = b, col_divide(ctx, r, mul(ctx, g, _power(ctx, h, delta)))
        g, h = a[-1], hb
        seq.append(b)
    if delta > 1:
        seq[-1] = col_divide(ctx, col_scale(ctx, b, hb), b[-1])
    return seq
