"""Sparse multivariate polynomials over F_{2^k}.

A :class:`Poly` is a context, an ordered tuple of variable names, and a map
from exponent vectors to nonzero coefficient bits.  Terms are kept in no
particular order (:meth:`Poly.items` yields them so); printing uses graded
lexicographic order, so the printed form is canonical and equality is
structural.  The characteristic-2 calculus lives here as well: the formal
derivative keeps exactly the odd-exponent terms, and squaring doubles
exponents and squares coefficients (Frobenius).

This module is the only one that knows how terms are stored (a dict from
exponent tuples to coefficient bits, in the private slot ``_terms``).
Exponent vectors enter through :meth:`Poly.from_terms`, :meth:`Poly.var`,
:meth:`Poly.const` and :func:`poly_parse`, and leave through
:meth:`Poly.items`, :meth:`Poly.coefficient`, :meth:`Poly.degree_in`,
:meth:`Poly.low_degree_in` and the dense views (:func:`to_dense`,
:func:`binary_to_dense`, and :func:`to_columns`, the column layout on which
:func:`resultant` and the bivariate gcd run).  The layout operations other
modules need are written once here: the monomial strip
(:func:`strip_monomial`), partial evaluation into an extension field
(:func:`specialize`) and the coefficient map (:meth:`Poly.map_coefficients`).

Grammar for :func:`poly_parse` / :func:`poly_print`: terms joined by ``+``;
a term is an optional coefficient literal (``0``, ``1``, ``j``, or
``F<2^k>:<hex>``) and ``*``-joined variable powers like ``x^3``; whitespace
is insignificant and there is no ``-`` in characteristic 2.
"""

from __future__ import annotations

import re
from operator import mul as _mul, sub as _sub
from typing import Iterable, Mapping

from . import _dense
from .gf2k import ContextMismatch, FieldCtx, FieldElem, elem_parse, embed_bits, field_new


class ParseError(ValueError):
    """Malformed polynomial text; carries the character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """Identifier in polynomial text that is not a declared variable."""


class NotDivisible(ArithmeticError):
    """exact_div was called with a non-divisor."""


Monomial = tuple  # tuple[int, ...]


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


class Poly:
    """Sparse polynomial over a fixed F_{2^k} in named variables."""

    __slots__ = ("ctx", "vars", "_terms", "_hash", "_text", "_degree")

    def __init__(self, ctx: FieldCtx, vars: tuple[str, ...], terms: dict) -> None:
        self.ctx = ctx
        self.vars = vars
        self._terms = terms
        self._hash: int | None = None
        self._text: str | None = None  # poly_print's rendering, once made
        self._degree: int | str | None = -1  # is_homogeneous's answer once made; -1 before

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx, vars: Iterable[str]) -> "Poly":
        return Poly(ctx, tuple(vars), {})

    @staticmethod
    def const(ctx: FieldCtx, vars: Iterable[str], bits: int) -> "Poly":
        vars = tuple(vars)
        if bits == 0:
            return Poly(ctx, vars, {})
        return Poly(ctx, vars, {(0,) * len(vars): bits})

    @staticmethod
    def var(ctx: FieldCtx, vars: Iterable[str], name: str, exp: int = 1) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        mono = tuple(exp if j == i else 0 for j in range(len(vars)))
        return Poly(ctx, vars, {mono: 1})

    @staticmethod
    def from_terms(ctx: FieldCtx, vars: Iterable[str], items: Iterable[tuple[Monomial, int]]) -> "Poly":
        vars = tuple(vars)
        terms: dict = {}
        n = len(vars)
        for mono, bits in items:
            mono = tuple(mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for variables {vars}")
            if not 0 <= bits < ctx.q:
                raise ValueError(f"bit-vector {bits:#x} out of range for F_{{2^{ctx.k}}}")
            if bits:
                cur = terms.get(mono, 0) ^ bits
                if cur:
                    terms[mono] = cur
                else:
                    terms.pop(mono, None)
        return Poly(ctx, vars, terms)

    # -- predicates and degrees ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self._terms), default=-1)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((m[i] for m in self._terms), default=-1)

    def low_degree_in(self, name: str) -> int:
        """Order of vanishing along name = 0: the least exponent of name; -1 for zero."""
        i = self.vars.index(name)
        return min((m[i] for m in self._terms), default=-1)

    def items(self):
        """Read-only view of the (exponent tuple, coefficient bits) pairs, in no order."""
        return self._terms.items()

    def leading(self) -> tuple[Monomial, int]:
        """Graded-lex leading (monomial, coefficient bits); error if zero."""
        mono = max(self._terms, key=_grlex_key)
        return mono, self._terms[mono]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        if lc == 1:
            return self
        return self.scale(self.ctx.inv(lc))

    def coefficient(self, mono: Monomial) -> FieldElem:
        return FieldElem(self.ctx, self._terms.get(tuple(mono), 0))

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for m in self._terms:
            for i, e in enumerate(m):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise ContextMismatch("polynomials over different field contexts")
        if other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            cur = terms.get(m, 0) ^ c
            if cur:
                terms[m] = cur
            else:
                terms.pop(m, None)
        return Poly(self.ctx, self.vars, terms)

    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self._terms or not other._terms:
            return Poly(self.ctx, self.vars, {})
        fmul = self.ctx.mul
        terms: dict = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                c = cb if ca == 1 else (ca if cb == 1 else fmul(ca, cb))
                cur = terms.get(m, 0) ^ c
                if cur:
                    terms[m] = cur
                else:
                    terms.pop(m, None)
        return Poly(self.ctx, self.vars, terms)

    def map_coefficients(self, fn, ctx: FieldCtx | None = None) -> "Poly":
        """The polynomial over ctx (default: this field) with each coefficient
        c replaced by fn(c); fn must send nonzero bits to nonzero bits, as a
        scaling, an embedding, a Frobenius power or a section of one does."""
        return Poly(self.ctx if ctx is None else ctx, self.vars,
                    {m: fn(c) for m, c in self._terms.items()})

    def scale(self, bits: int) -> "Poly":
        if bits == 0:
            return Poly(self.ctx, self.vars, {})
        if bits == 1:
            return self
        fmul = self.ctx.mul
        return self.map_coefficients(lambda c: fmul(c, bits))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.ctx, self.vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and other.ctx is self.ctx
            and other.vars == self.vars
            and other._terms == self._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx.k, self.vars, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return poly_print(self)

    # -- variable plumbing -----------------------------------------------------

    def with_vars(self, vars_out: Iterable[str]) -> "Poly":
        """Re-express over a different variable tuple (a superset/reorder)."""
        vars_out = tuple(vars_out)
        idx = []
        for i, v in enumerate(self.vars):
            if v in vars_out:
                idx.append((i, vars_out.index(v)))
            elif any(m[i] for m in self._terms):
                raise ValueError(f"variable {v} in use but absent from {vars_out}")
        n = len(vars_out)
        terms = {}
        for m, c in self._terms.items():
            mono = [0] * n
            for i, j in idx:
                mono[j] = m[i]
            terms[tuple(mono)] = c
        return Poly(self.ctx, vars_out, terms)

    def embed_to(self, target: FieldCtx) -> "Poly":
        if target is self.ctx:
            return self
        src = self.ctx
        return self.map_coefficients(lambda c: embed_bits(src, target, c), target)

    # -- evaluation --------------------------------------------------------------

    def eval_bits(self, ctx_eval: FieldCtx, coords: tuple) -> int:
        """Evaluate at raw coordinates in ctx_eval (coefficients embed there).

        Over a field with log tables (:meth:`FieldCtx.log_tables`) each term
        c * prod x_i^e_i is one lookup, exp[(log c + sum e_i log x_i) mod
        (q - 1)], and a zero coordinate under a positive exponent zeroes its
        term; a larger field reads the constant of :func:`specialize` at all
        the coordinates.
        """
        if len(coords) != len(self.vars):
            raise ValueError("coordinate count does not match variables")
        src = self.ctx
        tables = ctx_eval.log_tables()
        if tables is not None:
            log, exp = tables
            order = ctx_eval.q - 1
            logs = [log[x] if x else 0 for x in coords]
            zero = [i for i, x in enumerate(coords) if not x]
            acc = 0
            for m, c in self._terms.items():
                if zero and any(m[i] for i in zero):
                    continue
                if src is not ctx_eval:
                    c = embed_bits(src, ctx_eval, c)
                acc ^= exp[(log[c] + sum(map(_mul, logs, m))) % order]
            return acc
        return specialize(self, ctx_eval, coords)._terms.get((), 0)

    def __call__(self, *coords: FieldElem) -> FieldElem:
        if not coords:
            raise ValueError("evaluation needs coordinates")
        ctx_eval = coords[0].ctx
        for c in coords:
            if c.ctx is not ctx_eval:
                raise ContextMismatch("evaluation coordinates over mixed contexts")
        return FieldElem(ctx_eval, self.eval_bits(ctx_eval, tuple(c.bits for c in coords)))


# -- spec operations ---------------------------------------------------------


def exact_div(p: Poly, q: Poly) -> Poly:
    """Exact quotient p/q; raises NotDivisible when q does not divide p.

    A monomial q divides termwise: each exponent vector drops by q's and
    each coefficient is scaled by q's inverse coefficient.  Any other q
    runs the leading-term loop, each step cancelling the remainder's
    graded-lex leading term.
    """
    p._check(q)
    if q.is_zero():
        raise NotDivisible("division by the zero polynomial")
    ctx = p.ctx
    lm, lc = q.leading()
    inv_lc = ctx.inv(lc)
    if len(q._terms) == 1:
        terms = {}
        for m, c in p._terms.items():
            mono = tuple(map(_sub, m, lm))
            if min(mono, default=0) < 0:
                raise NotDivisible("leading term not divisible; remainder nonzero")
            terms[mono] = c if inv_lc == 1 else ctx.mul(c, inv_lc)
        return Poly(ctx, p.vars, terms)
    quot_terms: dict = {}
    r = p
    while not r.is_zero():
        rm, rc = r.leading()
        mono = tuple(a - b for a, b in zip(rm, lm))
        if any(e < 0 for e in mono):
            raise NotDivisible("leading term not divisible; remainder nonzero")
        c = ctx.mul(rc, inv_lc)
        quot_terms[mono] = c
        r = r + Poly(ctx, p.vars, {mono: c}) * q
    return Poly(ctx, p.vars, quot_terms)


def poly_square(p: Poly) -> Poly:
    """Frobenius square: exponents double, coefficients square."""
    sq = p.ctx.sq
    return Poly(p.ctx, p.vars, {tuple(2 * e for e in m): sq(c) for m, c in p._terms.items()})


def is_square(p: Poly) -> bool:
    return all(all(e % 2 == 0 for e in m) for m in p._terms)


def poly_sqrt(p: Poly) -> Poly:
    """Inverse of poly_square; defined exactly on polynomials with even exponents."""
    if not is_square(p):
        raise ValueError("polynomial is not a square")
    sqrt = p.ctx.sqrt
    return Poly(p.ctx, p.vars, {tuple(e // 2 for e in m): sqrt(c) for m, c in p._terms.items()})


def partial_derivative(p: Poly, name: str) -> Poly:
    """Formal derivative; modulo 2 only odd exponents contribute."""
    i = p.vars.index(name)
    terms: dict = {}
    for m, c in p._terms.items():
        if m[i] & 1:
            mono = m[:i] + (m[i] - 1,) + m[i + 1:]
            cur = terms.get(mono, 0) ^ c
            if cur:
                terms[mono] = cur
            else:
                terms.pop(mono, None)
    return Poly(p.ctx, p.vars, terms)


def substitute(p: Poly, assignment: Mapping[str, "Poly | FieldElem | int"],
               vars_out: Iterable[str] | None = None) -> Poly:
    """Ring-homomorphic image; unassigned variables map to themselves."""
    ctx = p.ctx
    vars_out = tuple(vars_out) if vars_out is not None else p.vars
    images: list[Poly] = []
    for v in p.vars:
        val = assignment.get(v)
        if val is None:
            images.append(Poly.var(ctx, vars_out, v) if v in vars_out else None)  # type: ignore[arg-type]
        elif isinstance(val, Poly):
            if val.ctx is not ctx:
                raise ContextMismatch("substitution value over a different context")
            images.append(val.with_vars(vars_out))
        elif isinstance(val, FieldElem):
            if val.ctx is not ctx:
                raise ContextMismatch("substitution value over a different context")
            images.append(Poly.const(ctx, vars_out, val.bits))
        elif val in (0, 1):
            images.append(Poly.const(ctx, vars_out, val))
        else:
            raise TypeError(f"cannot substitute {val!r}")
    acc = Poly.zero(ctx, vars_out)
    for m, c in p._terms.items():
        term = Poly.const(ctx, vars_out, c)
        for img, e in zip(images, m):
            if e:
                if img is None:
                    raise ValueError("variable in use is missing from the output variables")
                term = term * img ** e
        acc = acc + term
    return acc


def specialize(p: Poly, ctx_e: FieldCtx, values: tuple) -> Poly:
    """p with its leading variables set to values (raw bits in ctx_e).

    The result lies over ctx_e, whose subfield p's coefficients embed into,
    in the variables after the specialized ones.  Full evaluation is
    :meth:`Poly.eval_bits`, which specializes every variable over a field
    without log tables.
    """
    n = len(values)
    if n > len(p.vars):
        raise ValueError("more values than variables")
    src = p.ctx
    fmul, fpow = ctx_e.mul, ctx_e.pow
    terms: dict = {}
    for m, c in p._terms.items():
        t = c if src is ctx_e else embed_bits(src, ctx_e, c)
        for base, e in zip(values, m):
            if e:
                t = fmul(t, fpow(base, e))
                if not t:
                    break
        if t:
            rest = m[n:]
            cur = terms.get(rest, 0) ^ t
            if cur:
                terms[rest] = cur
            else:
                del terms[rest]
    return Poly(ctx_e, p.vars[n:], terms)


def is_homogeneous(p: Poly):
    """Common total degree, or None if inhomogeneous.

    The zero polynomial is homogeneous of every degree: it returns the string
    ``"zero"`` so callers can branch on it explicitly.  A polynomial is
    immutable, so the answer is kept on it, as :func:`poly_print` keeps its
    text.
    """
    if p._degree == -1:
        degs = {sum(m) for m in p._terms}
        p._degree = "zero" if not degs else degs.pop() if len(degs) == 1 else None
    return p._degree


def dehomogenize(p: Poly, name: str) -> Poly:
    """Set one variable to 1 and drop it from the variable tuple."""
    i = p.vars.index(name)
    rest = p.vars[:i] + p.vars[i + 1:]
    terms: dict = {}
    for m, c in p._terms.items():
        mono = m[:i] + m[i + 1:]
        cur = terms.get(mono, 0) ^ c
        if cur:
            terms[mono] = cur
        else:
            terms.pop(mono, None)
    return Poly(p.ctx, rest, terms)


def homogenize(p: Poly, name: str) -> Poly:
    """Introduce a last variable making p homogeneous of its total degree."""
    if name in p.vars:
        raise ValueError(f"variable {name} already present")
    d = p.total_degree()
    terms = {(*m, d - sum(m)): c for m, c in p._terms.items()}
    return Poly(p.ctx, (*p.vars, name), terms)


def strip_monomial(p: Poly) -> tuple[Poly, tuple[int, ...]]:
    """(q, ords) with p = q * prod(v^ords[i]) and q divisible by no variable."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no monomial part")
    ords = tuple(p.low_degree_in(v) for v in p.vars)
    if not any(ords):
        return p, ords
    terms = {tuple(e - o for e, o in zip(m, ords)): c for m, c in p._terms.items()}
    return Poly(p.ctx, p.vars, terms), ords


# -- univariate and binary-form views ----------------------------------------


def to_dense(p: Poly, name: str) -> list:
    """Dense coefficient list of a polynomial using only the one variable."""
    i = p.vars.index(name)
    out = [0] * (p.degree_in(name) + 1) if p._terms else []
    for m, c in p._terms.items():
        if any(e and j != i for j, e in enumerate(m)):
            raise ValueError(f"polynomial uses more than the variable {name}")
        out[m[i]] = c
    return out


def from_dense(ctx: FieldCtx, vars: Iterable[str], name: str, coeffs: list) -> Poly:
    vars = tuple(vars)
    i = vars.index(name)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            mono = tuple(e if j == i else 0 for j in range(len(vars)))
            terms[mono] = c
    return Poly(ctx, vars, terms)


def binary_to_dense(f: Poly) -> tuple[int, list]:
    """(e, dense) with the nonzero binary form f in (u, v) equal to
    v^e * sum(dense[i] * u^i * v^(deg(dense) - i)); inverse of binary_from_dense."""
    u, v = f.vars
    dense = [0] * (f.degree_in(u) + 1)
    for m, c in f._terms.items():
        dense[m[0]] = c
    return f.low_degree_in(v), dense


def binary_from_dense(ctx: FieldCtx, vars: Iterable[str], dense: list, e: int = 0) -> Poly:
    """The binary form v^e * sum(dense[i] * u^i * v^(deg(dense) - i)) in vars = (u, v)."""
    d = _dense.deg(_dense.trim(dense))
    return Poly(ctx, tuple(vars), {(i, d - i + e): c for i, c in enumerate(dense) if c})


def to_columns(p: Poly, main: str, co: str) -> list:
    """Column polynomial of p in main over F[co] (see :mod:`conic2._dense`):
    entry i is the dense co-list of the coefficient of main^i.  p may use no
    other variable; inverse of from_columns."""
    im, ic = p.vars.index(main), p.vars.index(co)
    height = p.degree_in(co) + 1
    cols = [[0] * height for _ in range(p.degree_in(main) + 1)]
    for m, c in p._terms.items():
        if m[im] + m[ic] != sum(m):
            raise ValueError(f"polynomial uses more than the variables {main}, {co}")
        cols[m[im]][m[ic]] = c
    return [_dense.trim(c) for c in cols]


def from_columns(ctx: FieldCtx, vars: Iterable[str], cols: list, main: str, co: str) -> Poly:
    vars = tuple(vars)
    im, ic = vars.index(main), vars.index(co)
    terms = {}
    for e, col in enumerate(cols):
        for ec, c in enumerate(col):
            if c:
                terms[tuple(e if j == im else ec if j == ic else 0 for j in range(len(vars)))] = c
    return Poly(ctx, vars, terms)


def binary_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd of two binary forms (homogeneous, same two variables).

    The gcd of forms over F_{2^k} is unchanged by extending the field, so
    computing over the coefficient field is enough.
    """
    if len(f.vars) != 2 or f.vars != g.vars:
        raise ValueError("binary_gcd expects two forms in the same two variables")
    for h in (f, g):
        if is_homogeneous(h) is None:
            raise ValueError("binary_gcd expects homogeneous forms")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ef, df = binary_to_dense(f)
    eg, dg = binary_to_dense(g)
    return binary_from_dense(f.ctx, f.vars, _dense.gcd(f.ctx, df, dg), min(ef, eg)).monic()


# -- resultants ----------------------------------------------------------------


def resultant(f: Poly, g: Poly, name: str) -> Poly:
    """Res_name(f, g), the last member of the subresultant sequence of
    :mod:`conic2._dense` (char 2: signs vanish).

    Besides name, f and g may use one variable t, or two (t, w) when both
    are homogeneous: then w is set to 1 and restored by homogeneity, since
    the resultant of forms of degrees m, n and name-degrees p, q is a form
    of degree D = m q + n p - p q.
    """
    f._check(g)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    p, q = f.degree_in(name), g.degree_in(name)
    if p <= 0 and q <= 0:
        return Poly.const(f.ctx, f.vars, 1)
    if p <= 0:
        return f ** q
    if q <= 0:
        return g ** p
    ctx = f.ctx
    others = [v for v in f.vars if v != name and max(f.degree_in(v), g.degree_in(v)) > 0]
    if len(others) > 2:
        raise ValueError(f"resultant in more than three variables: {[name] + others}")
    pair = (f, g)
    if len(others) == 2:
        if is_homogeneous(f) is None or is_homogeneous(g) is None:
            raise ValueError("a resultant in three variables needs homogeneous inputs")
        pair = (dehomogenize(f, others[1]), dehomogenize(g, others[1]))
    if others:
        cols = [to_columns(h, name, others[0]) for h in pair]
    else:
        cols = [[[c] if c else [] for c in to_dense(h, name)] for h in pair]
    last = _dense.last_subresultant(ctx, *cols)
    r = last[0] if len(last) == 1 else []
    if not others:
        return Poly.const(ctx, f.vars, r[0] if r else 0)
    if len(others) == 2 and r:
        d = f.total_degree() * q + g.total_degree() * p - p * q
        return binary_from_dense(ctx, others, r, d - _dense.deg(r)).with_vars(f.vars)
    return from_dense(ctx, f.vars, others[0], r)


# -- parsing and printing ---------------------------------------------------

_COEFF_RE = re.compile(r"F\d+:[0-9A-Fa-f]+")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT_RE = re.compile(r"\d+")


def poly_parse(text: str, ctx: FieldCtx, vars: Iterable[str]) -> Poly:
    """Parse the grammar described in the module docstring.

    Each term is read into one coefficient and one exponent vector, and
    the terms are XOR-combined into a single dict, so ``x + x`` is 0.
    """
    vars = tuple(vars)
    terms: dict = {}
    pos = 0
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def exponent(i: int) -> tuple[int, int]:
        """The power after a factor ending at i, and the position after it."""
        if i < n and text[i] == "^":
            mi = _INT_RE.match(text, i + 1)
            if not mi:
                raise ParseError("expected an integer exponent after '^'", i + 1)
            return int(mi.group(0)), mi.end()
        return 1, i

    pos = skip_ws(pos)
    if pos >= n:
        raise ParseError("empty polynomial text", pos)
    expect_term = True
    while pos < n:
        if not expect_term:
            if text[pos] != "+":
                raise ParseError(f"expected '+', found {text[pos]!r}", pos)
            pos = skip_ws(pos + 1)
            expect_term = True
            continue
        coeff = 1
        mono = [0] * len(vars)
        while True:
            pos = skip_ws(pos)
            if pos >= n:
                raise ParseError("unexpected end of text inside a term", pos)
            mco = _COEFF_RE.match(text, pos)
            if mco:
                coeff = ctx.mul(coeff, elem_parse(mco.group(0), ctx).bits)
                pos = mco.end()
            elif text[pos].isdigit():
                mi = _INT_RE.match(text, pos)
                lit = mi.group(0)
                if lit == "0":
                    coeff = 0
                elif lit != "1":
                    raise ParseError(
                        f"coefficient literal {lit!r} is not valid in characteristic 2", pos
                    )
                pos = mi.end()
            else:
                mid = _IDENT_RE.match(text, pos)
                if not mid:
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                name = mid.group(0)
                if name == "j":
                    j = elem_parse("j", ctx).bits
                    exp, pos = exponent(mid.end())
                    coeff = ctx.mul(coeff, ctx.pow(j, exp))
                elif name in vars:
                    exp, pos = exponent(mid.end())
                    mono[vars.index(name)] += exp
                else:
                    raise UnknownVariable(f"unknown variable {name!r}", mid.start())
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            break
        if coeff:
            key = tuple(mono)
            cur = terms.get(key, 0) ^ coeff
            if cur:
                terms[key] = cur
            else:
                del terms[key]
        expect_term = False
    if expect_term:
        raise ParseError("dangling '+'", pos)
    return Poly(ctx, vars, terms)


def _coeff_str(ctx: FieldCtx, bits: int) -> str:
    if bits == 1:
        return "1"
    if ctx.k == 2 and bits == 2:
        return "j"
    return f"F{ctx.q}:{bits:X}"


def poly_print(p: Poly) -> str:
    """Canonical graded-lex (descending) rendering; round-trips with parse.
    A polynomial is immutable, so it is rendered once and the text kept."""
    if p._text is None:
        p._text = _render(p)
    return p._text


def _render(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p._terms, key=_grlex_key, reverse=True):
        c = p._terms[mono]
        factors = []
        for name, e in zip(p.vars, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors or c != 1:
            factors.insert(0, _coeff_str(p.ctx, c))
        parts.append("*".join(factors))
    return " + ".join(parts)


# Convenience parser bound to the base-plane variables used throughout.
PLANE_VARS = ("x", "y", "z")


def plane_poly(text: str, ctx: FieldCtx | None = None) -> Poly:
    return poly_parse(text, ctx if ctx is not None else field_new(1), PLANE_VARS)
