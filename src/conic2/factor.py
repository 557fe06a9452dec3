"""Polynomial gcds and factorization over F_{2^k}, on :class:`Poly`.

This module decides what to factor and where; every operation on F[t] and
on column polynomials is :mod:`conic2._dense`'s.  Univariate factorization
is :func:`conic2._dense.factor`, and the bivariate gcd is
:func:`conic2._dense.col_gcd`.

Bivariate factorization specializes the co-variable at a point keeping the
leading coefficient nonzero and the specialized polynomial squarefree.
This module chooses the field, extending it when the base is too small,
and counts the tries against a budget; ``_dense`` evaluates and tests each
value.  ``_dense`` then Hensel-lifts the univariate factors to precision two
beyond the co-variable degree.  Here the subsets of lifted factors are
enumerated, smallest first, and ``_dense`` builds each subset's candidate,
refusing those its degree bound excludes; a candidate is kept when it
divides what remains exactly.  A candidate that divides it is a true
factor's lifted product scaled by a leading coefficient, since its content
is a unit at the specialization point, so the degree bound refuses no true
factor and the same factors come out in the same order.  A subset gives a
factor exactly when its complement does, so subsets of at most half the
remaining local factors are tried.  Factors found over an auxiliary
extension are merged along Frobenius orbits back to the coefficient field.

Before that, a polynomial primitive in both variables is squarefree when
some such specialization over its own field is: a repeated factor keeps its
degree in the main variable there, so it stays repeated.  Only when the
first few values give none is its gcd with a derivative computed; when that
gcd shows it squarefree, the specialization search resumes after the values
already tried.

Absolute irreducibility of an F_{2^k}-irreducible polynomial of degree d:
its absolute irreducible factors form one Frobenius orbit, whose size r
divides d, and over F_{2^(k e)} the orbit falls into gcd(e, r) groups, so the
polynomial splits there for every prime e dividing r.  A smooth point over
F_{2^(k m)} also bounds r: Frobenius^m fixes the point and so the one
absolute factor through it, and r divides m.  Simple roots on the rational
lines x = c and y = c, for at most eight values c (every line over F_2,
F_4 and F_8), give such points, so the scan costs the same over every
field; the polynomial is factored again over F_{2^(k e)} only for the
primes e dividing d that no such m rules out.  A factor that
bivariate_factor returned is known irreducible over F_{2^k}, so for the
discriminant's computed components only this absolute part runs; a
polynomial of unknown origin, such as a claimed factor, is factored over
F_{2^k} first.
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


def _find_specialization(f: Poly, xn: str, yn: str, skip: int = 0):
    """(field, embedded poly, columns, r, f(x, r)) with lc_x(f)(r) != 0 and
    f(x, r) squarefree, over the smallest field that has such an r.  The
    first ``skip`` values of F_q are known to fail: they are not evaluated
    again, but the budget counts them."""
    ctx = f.ctx
    tried = 0
    ext = 1
    while ctx.k * ext <= 64:
        ctx_e = field_new(ctx.k * ext)
        fe = f.embed_to(ctx_e)
        cols = to_columns(fe, xn, yn)
        n = min(ctx_e.q, _SPECIALIZATION_BUDGET - tried)
        found = _dense.squarefree_specialization(ctx_e, cols, range(skip, n))
        if found is not None:
            return (ctx_e, fe, cols, *found)
        if n < ctx_e.q:
            raise UnluckySpecializationExhausted(
                f"no good specialization of {yn} within {_SPECIALIZATION_BUDGET} tries"
            )
        tried += n
        skip = 0
        ext += 1
    raise UnluckySpecializationExhausted("field tower exhausted while specializing")


def _factor_squarefree_primitive(f: Poly, xn: str, yn: str, spec=None) -> list[Poly]:
    """Irreducible factors of f: squarefree, primitive in xn, specializing yn
    at spec, a result of _find_specialization, or at the one it finds."""
    ctx = f.ctx
    ctx_e, fe, cols, r, u = spec or _find_specialization(f, xn, yn)
    base = [g for g, _ in _dense.factor(ctx_e, u)[1]]
    if len(base) == 1:
        return [f.monic()]
    prec = fe.degree_in(yn) + 2
    pool = _dense.hensel_lift(ctx_e, cols, base, r, prec)

    remaining = fe
    found: list[Poly] = []
    while pool:
        if remaining.is_constant():  # pragma: no cover - defensive
            break
        target = to_columns(remaining, xn, yn)
        extracted = False
        # a subset gives a factor exactly when its complement does
        for size in range(1, len(pool) // 2 + 1):
            for combo in itertools.combinations(range(len(pool)), size):
                cand_cols = _dense.recombination_candidate(
                    ctx_e, [pool[i] for i in combo], target, r, prec)
                if cand_cols is None:
                    continue  # not lc(remaining) times a factor: the degree bound
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
    found = _dense.squarefree_specialization(f.ctx, cols, range(probes))
    if found is None:
        g = gcd_bivariate(f, fx if main == xn else partial_derivative(f, yn))
        if not g.is_constant():
            _split_bivariate(g, xn, yn, mult, acc)
            _split_bivariate(exact_div(f, g).monic(), xn, yn, mult, acc)
            return
    spec = (f.ctx, f, cols, *found) if found else _find_specialization(f, main, co, probes)
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
            u = _dense.col_eval(ctx, cols, c)
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
