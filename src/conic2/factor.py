"""Polynomial gcds and factorization over F_{2^k}.

Univariate factorization is the squarefree / distinct-degree / equal-degree
chain from :mod:`conic2._dense`.  Bivariate factorization specializes the
co-variable at a point keeping the leading coefficient nonzero and the
specialized polynomial squarefree (extending the field when the base is too
small), Hensel-lifts the univariate factors to precision two beyond the
co-variable degree, recombines factor subsets by exact division, and merges
factors found over an auxiliary extension along Frobenius orbits back to the
coefficient field.  Before that, a polynomial primitive in both variables
is squarefree when some such specialization over its own field is: a
repeated factor keeps its degree in the main variable there, so it stays
repeated.  Only when the first few values give none is its gcd with a
derivative computed.

Recombination is degree-bounded (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 15).  For a true factor g of what remains, h, the lifted
product of g's local factors times lc(h) is lc(h / g) g, whose co-variable
degree is at most that of h and so below the precision.  A candidate that
divides h is such a product, since its content is a unit at the
specialization point.  So a subset whose truncated product times lc(h) has a
column of larger degree is skipped before it is shifted back and divided,
and the same factors come out in the same order; the one digit of precision
beyond the degree bound is what lets that filter see a false subset.  A
subset gives a factor exactly when its complement does, so subsets of at
most half the remaining local factors are tried.

The bivariate gcd is :func:`conic2._dense.col_gcd`: the primitive part of
the last member of the subresultant sequence, times the gcd of the contents.

Hensel lifting keeps each lifted factor, and the prefix products of the
factors, as co-variable-adic digits, so each step computes one new digit of
the product instead of the whole truncated product.

Absolute irreducibility of an F_{2^k}-irreducible polynomial: its absolute
irreducible factors form one Frobenius orbit, whose size r divides the
degree, and over F_{2^(k e)} the orbit falls into gcd(e, r) groups, so the
polynomial splits there for every prime e dividing r.  A smooth point over
F_{2^(k m)} also bounds r: Frobenius^m fixes the point and so the one
absolute factor through it, and r divides m.  Simple roots on the rational
lines x = c and y = c, for at most eight values c, give such points, so the
scan costs the same over every field; the polynomial is factored
again over F_{2^(k e)} only for the primes e dividing the degree that no such
m rules out.  A factor that bivariate_factor returned is known irreducible
over F_{2^k}, so for the discriminant's computed components only this
absolute part runs; a polynomial of unknown origin, such as a claimed
factor, is factored over F_{2^k} first.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import _dense
from .gf2k import FieldCtx, field_new, section_bits
from .poly import (
    NotDivisible,
    Poly,
    binary_from_dense,
    binary_to_dense,
    dehomogenize,
    exact_div,
    from_columns,
    from_dense,
    homogenize,
    is_homogeneous,
    is_square,
    partial_derivative,
    poly_sqrt,
    strip_monomial,
    to_columns,
    to_dense,
)


class UnluckySpecializationExhausted(RuntimeError):
    """No valid specialization found within the configured budget."""


_SPECIALIZATION_BUDGET = 4096
_SQUAREFREE_PROBES = 16  # values r that _split_bivariate tries before a gcd


# -- canonical ordering --------------------------------------------------------


def _factor_sort_key(p: Poly):
    return (p.total_degree(), sorted(p.items(), reverse=True))


def sort_factors(items: list[tuple[Poly, int]]) -> list[tuple[Poly, int]]:
    return sorted(items, key=lambda fm: _factor_sort_key(fm[0]))


# -- univariate ------------------------------------------------------------------


def univariate_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a polynomial using at most one variable into monic irreducibles."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    active = f.variables_used()
    if len(active) > 1:
        raise ValueError(f"univariate_factor got a polynomial in {active}")
    if not active:
        return []
    name = active[0]
    _, fac = _dense.factor(f.ctx, to_dense(f, name))
    return sort_factors([(from_dense(f.ctx, f.vars, name, coeffs), m) for coeffs, m in fac])


# -- binary forms ------------------------------------------------------------------


def binary_form_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a nonzero binary form into irreducible forms over its own field."""
    if len(f.vars) != 2:
        raise ValueError("binary_form_factor expects a two-variable polynomial")
    d = is_homogeneous(f)
    if d is None or d == "zero":
        raise ValueError("binary_form_factor expects a nonzero homogeneous form")
    g, ords = strip_monomial(f)
    out = {Poly.var(f.ctx, f.vars, v): e for v, e in zip(f.vars, ords) if e}
    if g.total_degree() > 0:
        _, dense = binary_to_dense(g)
        _, fac = _dense.factor(f.ctx, dense)
        for coeffs, m in fac:
            form = binary_from_dense(f.ctx, f.vars, coeffs)
            out[form] = out.get(form, 0) + m
    return sort_factors(list(out.items()))


# -- bivariate gcd (subresultant sequence) -------------------------------------


def gcd_bivariate(f: Poly, g: Poly) -> Poly:
    """Gcd of polynomials using at most two variables, normalized monic."""
    if f.ctx is not g.ctx or f.vars != g.vars:
        raise ValueError("gcd_bivariate expects polynomials over one ring")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ctx = f.ctx
    active = sorted(set(f.variables_used()) | set(g.variables_used()))
    if not active:
        return Poly.const(ctx, f.vars, 1)
    if len(active) == 1:
        d = _dense.gcd(ctx, to_dense(f, active[0]), to_dense(g, active[0]))
        return from_dense(ctx, f.vars, active[0], d).monic()
    if len(active) > 2:
        raise ValueError(f"gcd_bivariate got more than two variables: {active}")
    xn, yn = active
    last = _dense.col_gcd(ctx, to_columns(f, xn, yn), to_columns(g, xn, yn))
    return from_columns(ctx, f.vars, last, xn, yn).monic()


# -- homogeneous trivariate gcd and squarefreeness -----------------------------


def gcd_homogeneous(f: Poly, g: Poly) -> Poly:
    """Gcd of nonzero homogeneous trivariate polynomials, normalized monic."""
    if is_homogeneous(f) in (None, "zero") or is_homogeneous(g) in (None, "zero"):
        raise ValueError("gcd_homogeneous expects nonzero homogeneous inputs")
    fs, of = strip_monomial(f)
    gs, og = strip_monomial(g)
    last = f.vars[-1]
    h = gcd_bivariate(dehomogenize(fs, last), dehomogenize(gs, last))
    d = h.total_degree()
    hh = homogenize(h, last) if d >= 0 else Poly.const(f.ctx, f.vars, 1)
    hh = hh.with_vars(f.vars)
    for name, ef, eg in zip(f.vars, of, og):
        e = min(ef, eg)
        if e:
            hh = hh * Poly.var(f.ctx, f.vars, name, e)
    return hh.monic()


def gcd_homogeneous_many(polys: list[Poly]) -> Poly:
    acc: Poly | None = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p.monic() if acc is None else gcd_homogeneous(acc, p)
        if acc.is_constant():
            return acc
    if acc is None:
        raise ValueError("gcd of an all-zero family")
    return acc


# -- bivariate factorization ----------------------------------------------------


def _specialize(ctx, cols, values):
    """(r, u) for the first r among values with lc(r) != 0 and u, the column
    polynomial cols evaluated at r, squarefree; None if there is none."""
    lead = cols[-1]
    for r in values:
        if _dense.eval_at(ctx, lead, r) == 0:
            continue
        u = _dense.trim([_dense.eval_at(ctx, c, r) for c in cols])
        if _dense.is_squarefree(ctx, u):
            return r, u
    return None


def _find_specialization(f: Poly, xn: str, yn: str):
    """(field, embedded poly, columns, r, f(x, r)) with lc_x(f)(r) != 0 and
    f(x, r) squarefree, over the smallest field that has such an r."""
    ctx = f.ctx
    tried = 0
    ext = 1
    while ctx.k * ext <= 64:
        ctx_e = field_new(ctx.k * ext)
        fe = f.embed_to(ctx_e)
        cols = to_columns(fe, xn, yn)
        n = min(ctx_e.q, _SPECIALIZATION_BUDGET - tried)
        found = _specialize(ctx_e, cols, range(n))
        if found is not None:
            return (ctx_e, fe, cols, *found)
        if n < ctx_e.q:
            raise UnluckySpecializationExhausted(
                f"no good specialization of {yn} within {_SPECIALIZATION_BUDGET} tries"
            )
        tried += n
        ext += 1
    raise UnluckySpecializationExhausted("field tower exhausted while specializing")


def _sp_mul(ctx, a, b, prec: int):
    """Product of column polynomials, co-variable truncated below prec."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if not cb:
                continue
            prod = _dense.mul(ctx, ca, cb)
            out[i + j] = _dense.add(out[i + j], prod[:prec])
    return _dense.trim([_dense.trim(c[:prec]) for c in out])


def _hensel_lift(ctx, f_monic_cols, base_factors, prec: int):
    """Lift pairwise-coprime monic base factors to a factorization mod t^prec.

    Each lifted factor and each prefix product of the factors is kept as its
    t-adic digits, dense polynomials in the main variable.  Step j needs only
    the t^j digit of the product, one convolution per prefix; the new digits
    delta_i of the factors then add sum over i <= l of delta_i times the
    product of the other base factors up to l to the t^j digit of prefix l.
    """
    s = len(base_factors)
    bezout = []
    for i in range(s):
        g = [1]
        for j in range(s):
            if j != i:
                g = _dense.mul(ctx, g, base_factors[j])
        bezout.append(_dense.inv_mod(ctx, g, base_factors[i]))
    f_digits = [
        _dense.trim([col[j] if len(col) > j else 0 for col in f_monic_cols]) for j in range(prec)
    ]
    digits = [[list(g)] for g in base_factors]  # digits[i][j]: t^j digit of factor i
    prefix = [digits[0]]  # prefix[l][j]: t^j digit of the product of factors 0..l, l < s - 1
    for g in base_factors[1:-1]:
        prefix.append([_dense.mul(ctx, prefix[-1][0], g)])
    for j in range(1, prec):
        # t^j digit of each prefix product while the factors' t^j digits are 0
        partial = [[]]
        for i in range(1, s):
            acc = _dense.mul(ctx, partial[-1], base_factors[i])
            for a in range(1, j):
                acc = _dense.add(acc, _dense.mul(ctx, prefix[i - 1][a], digits[i][j - a]))
            partial.append(acc)
        e = _dense.add(f_digits[j], partial[-1])
        deltas = [_dense.mod(ctx, _dense.mul(ctx, e, b), g) for b, g in zip(bezout, base_factors)]
        for i in range(s):
            digits[i].append(deltas[i])
        correction = deltas[0]
        for i in range(1, s - 1):
            correction = _dense.add(
                _dense.mul(ctx, correction, base_factors[i]),
                _dense.mul(ctx, prefix[i - 1][0], deltas[i]),
            )
            prefix[i].append(_dense.add(partial[i], correction))
    return [  # back to columns: entry idx is the t-list of x^idx
        [_dense.trim([d[idx] if len(d) > idx else 0 for d in fd]) for idx in range(len(fd[0]))]
        for fd in digits
    ]


def _factor_squarefree_primitive(f: Poly, xn: str, yn: str, spec=None) -> list[Poly]:
    """Irreducible factors of f: squarefree, primitive in xn, specializing yn
    at spec, a result of _find_specialization, or at the one it finds."""
    ctx = f.ctx
    ctx_e, fe, cols, r, u = spec or _find_specialization(f, xn, yn)
    lc_u, base = _dense.factor(ctx_e, u)
    base_factors = [g for g, _ in base]
    if len(base_factors) == 1:
        return [f.monic()]
    prec = fe.degree_in(yn) + 2

    def shift(c):
        # y -> y + r; its own inverse in characteristic 2, the identity for r = 0
        return _dense.compose(ctx_e, c, [r, 1]) if r else c

    tcols = [shift(c) for c in cols]
    linv = _dense.series_inverse(ctx_e, tcols[-1], prec)
    monic_cols = [_dense.trim(_dense.mul(ctx_e, c, linv)[:prec]) if c else [] for c in tcols]
    lifted = _hensel_lift(ctx_e, monic_cols, base_factors, prec)
    order = sorted(range(len(lifted)), key=lambda i: (len(base_factors[i]), base_factors[i][::-1]))
    pool = [lifted[i] for i in order]

    remaining = fe
    found: list[Poly] = []
    while pool:
        if remaining.is_constant():  # pragma: no cover - defensive
            break
        lshift = shift(to_columns(remaining, xn, yn)[-1])
        bound = remaining.degree_in(yn)
        extracted = False
        # a subset gives a factor exactly when its complement does
        for size in range(1, len(pool) // 2 + 1):
            for combo in itertools.combinations(range(len(pool)), size):
                prod = pool[combo[0]]
                for i in combo[1:]:
                    prod = _sp_mul(ctx_e, prod, pool[i], prec)
                scaled = [_dense.trim(_dense.mul(ctx_e, c, lshift)[:prec]) for c in prod]
                if any(len(c) > bound + 1 for c in scaled):
                    continue  # not lc(remaining) times a factor: the degree bound
                _, cand_cols = _dense.col_primitive(ctx_e, [shift(c) for c in scaled])
                cand = from_columns(ctx_e, fe.vars, cand_cols, xn, yn)
                if cand.is_constant():
                    continue
                try:
                    quo = exact_div(remaining, cand)
                except NotDivisible:
                    continue
                found.append(cand.monic())
                remaining = quo
                pool = [p for i, p in enumerate(pool) if i not in combo]
                extracted = True
                break
            if extracted:
                break
        if not extracted:
            found.append(remaining.monic())
            remaining = Poly.const(ctx_e, fe.vars, 1)
            pool = []
    if not remaining.is_constant():
        found.append(remaining.monic())

    if ctx_e is ctx:
        return found
    return _merge_frobenius_orbits(ctx, ctx_e, found)


def _merge_frobenius_orbits(ctx: FieldCtx, ctx_e: FieldCtx, factors: list[Poly]) -> list[Poly]:
    """Group factors over an extension into base-field irreducible products."""
    pw = ctx_e.pow

    def frobenius(c: int) -> int:
        return pw(c, ctx.q)

    def pull_back(c: int) -> int:
        back = section_bits(ctx, ctx_e, c)
        if back is None:  # pragma: no cover - defensive
            raise AssertionError("orbit product has coefficients outside the base field")
        return back

    pending = sorted(factors, key=_factor_sort_key)
    out: list[Poly] = []
    while pending:
        h = pending.pop(0)
        orbit = [h]
        nxt = h.map_coefficients(frobenius).monic()
        while nxt != h:
            if nxt not in pending:  # pragma: no cover - defensive
                raise AssertionError("Frobenius conjugate missing from factor list")
            pending.remove(nxt)
            orbit.append(nxt)
            nxt = nxt.map_coefficients(frobenius).monic()
        prod = orbit[0]
        for o in orbit[1:]:
            prod = prod * o
        out.append(prod.monic().map_coefficients(pull_back, ctx).monic())
    return out


def bivariate_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Complete factorization of a polynomial in at most two variables.

    Returns monic irreducible factors with multiplicities, sorted canonically;
    the product times the leading coefficient re-expands to the input.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    active = f.variables_used()
    if len(active) > 2:
        raise ValueError(f"bivariate_factor got a polynomial in {active}")
    if len(active) <= 1:
        return univariate_factor(f)
    acc: dict[Poly, int] = {}
    _split_bivariate(f.monic(), active[0], active[1], 1, acc)
    return sort_factors(list(acc.items()))


def _split_bivariate(f: Poly, xn: str, yn: str, mult: int, acc: dict) -> None:
    if f.is_constant():
        return
    active = f.variables_used()
    if len(active) <= 1:
        for g, m in univariate_factor(f):
            acc[g] = acc.get(g, 0) + m * mult
        return
    # contents with respect to both variables
    for main, co in ((xn, yn), (yn, xn)):
        cont, pp = _dense.col_primitive(f.ctx, to_columns(f, main, co))
        if _dense.deg(cont) > 0:
            _split_bivariate(from_dense(f.ctx, f.vars, co, cont), xn, yn, mult, acc)
            _split_bivariate(from_columns(f.ctx, f.vars, pp, main, co).monic(), xn, yn, mult, acc)
            return
    if is_square(f):
        _split_bivariate(poly_sqrt(f).monic(), xn, yn, 2 * mult, acc)
        return
    fx = partial_derivative(f, xn)
    main, co = (xn, yn) if not fx.is_zero() else (yn, xn)
    # f is primitive in both variables, so a squarefree f(main, r) of full
    # degree proves f squarefree: a repeated factor would stay repeated in it
    cols = to_columns(f, main, co)
    probes = min(f.ctx.q, _SQUAREFREE_PROBES, _SPECIALIZATION_BUDGET)
    found = _specialize(f.ctx, cols, range(probes))
    if found is None:
        g = gcd_bivariate(f, fx if main == xn else partial_derivative(f, yn))
        if not g.is_constant():
            _split_bivariate(g, xn, yn, mult, acc)
            _split_bivariate(exact_div(f, g).monic(), xn, yn, mult, acc)
            return
    spec = None if found is None else (f.ctx, f, cols, *found)
    for irr in _factor_squarefree_primitive(f, main, co, spec):
        acc[irr] = acc.get(irr, 0) + mult


# -- absolute irreducibility ------------------------------------------------------


def _simple_root_degrees(ctx, u: list) -> set[int]:
    """Degrees over ctx of the simple roots of the dense polynomial u."""
    if _dense.deg(u) < 1:
        return set()
    simple = [g for g, m in _dense.squarefree_decomposition(ctx, u) if m == 1]
    return {d for g in simple for _, d in _dense.distinct_degree(ctx, g)}


_SCAN_VALUES = 8  # values c per direction that _orbit_primes tries


def _orbit_primes(f: Poly) -> list[int]:
    """The primes that may still divide the Frobenius orbit size r of the
    absolute factors of f, a bivariate polynomial irreducible over F_q.

    r divides deg f.  A simple root of degree m of f(x, c) or f(c, y), c in
    F_q, is a smooth point of f over F_{q^m}; it lies on exactly one absolute
    factor, which Frobenius^m maps to a factor through the same point, i.e.
    to itself, so r divides m.  The lines with c among the first
    _SCAN_VALUES elements of F_q are scanned until the gcd of deg f and the m
    found is 1; over F_2, F_4 and F_8 that is every rational line.  The cap
    keeps the scan at most 2 * _SCAN_VALUES univariate factorizations
    whatever q is: when f is not absolutely irreducible the gcd never reaches
    1, and a scan of all 2q lines would not end for large q.
    """
    ctx = f.ctx
    bound = f.total_degree()
    for main, co in (f.vars, f.vars[::-1]):
        cols = to_columns(f, main, co)
        for c in range(min(ctx.q, _SCAN_VALUES)):
            u = _dense.trim([_dense.eval_at(ctx, col, c) for col in cols])
            for m in _simple_root_degrees(ctx, u):
                bound = math.gcd(bound, m)
            if bound == 1:
                return []
    return [p for p in range(2, bound + 1) if bound % p == 0 and all(p % d for d in range(2, p))]


def _splits_over_an_extension(f: Poly) -> bool:
    """True iff f, bivariate and irreducible over F_q, splits over some
    F_{q^e}: the absolute part of absolute irreducibility."""
    ctx = f.ctx
    # The absolute factors of an F_q-irreducible f form one Frobenius orbit,
    # whose size r divides deg f; f splits over F_{q^e} for each prime e | r.
    for e in _orbit_primes(f):
        if ctx.k * e > 64:
            raise UnluckySpecializationExhausted(
                f"absolute irreducibility needs F_{{2^{ctx.k * e}}}, beyond the word bound"
            )
        fe = f.embed_to(field_new(ctx.k * e))
        if sum(m for _, m in bivariate_factor(fe)) != 1:
            return True
    return False


@lru_cache(maxsize=4096)
def _abs_irred_bivariate(f: Poly, irreducible: bool) -> bool:
    """Absolute irreducibility of a bivariate f; ``irreducible`` says f is
    already known irreducible over F_q, so it is not factored over F_q."""
    if not irreducible and sum(m for _, m in bivariate_factor(f)) != 1:
        return False
    return not _splits_over_an_extension(f)


def is_absolutely_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over the algebraic closure.

    Accepts a polynomial in at most two variables, or a homogeneous one in
    three; trivariate input is dehomogenized on a chart not dividing it.
    """
    return _is_absolutely_irreducible(f, False)


def _is_absolutely_irreducible(f: Poly, irreducible: bool) -> bool:
    """is_absolutely_irreducible; with ``irreducible`` true, f is known to be
    irreducible over F_q, as each factor bivariate_factor returns is, and only
    the absolute part is proved.  Dehomogenizing f on a chart it is not
    divisible by keeps it irreducible."""
    if f.is_zero() or f.is_constant():
        raise ValueError("absolute irreducibility needs a nonzero non-constant input")
    active = f.variables_used()
    if len(active) == 3:
        if is_homogeneous(f) is None:
            raise ValueError("trivariate input must be homogeneous")
        g, ords = strip_monomial(f)
        if g.is_constant():
            # monomial: irreducible only when it is a single variable
            return sum(ords) == 1
        if any(ords):
            return False
        work = dehomogenize(f, f.vars[-1])
    else:
        work = f
    if work.total_degree() == 1:
        return True
    wactive = work.variables_used()
    if len(wactive) == 1:
        return work.total_degree() == 1
    if len(wactive) == 0:
        raise ValueError("constant after dehomogenization")
    # canonicalize variable tuple for caching
    wa = tuple(sorted(wactive))
    return _abs_irred_bivariate(work.with_vars(wa), irreducible)
