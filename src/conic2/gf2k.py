"""Arithmetic for the binary fields F_{2^k}, k = 1..64.

Elements are bit-vectors packed into Python ints: bit i is the coefficient
of t^i in the polynomial-basis representation.  Each extension degree k has
one fixed irreducible defining modulus (the table ``_MODULI``), so
serialized elements are reproducible across runs and machines.  Contexts are
interned: ``field_new(k)`` always returns the same object, and elements of
distinct contexts never mix except through :func:`embed`.

Embeddings are canonical per (source, target) pair: the source generator is
sent to the smallest root (as an integer) of the source modulus inside the
target field.  Chains of embeddings are not guaranteed to compose into the
direct embedding, so higher layers always embed in a single hop from the
field a computation is based on.

The serialized form of an element is ``F<2^k>:<hex>`` with the
most-significant basis coefficient first, e.g. ``F4:2`` for the generator j
of F_4 (which satisfies j^2 + j + 1 = 0).

Fields with k <= 12 (``_TABLE_MAX_K``) compute through log/antilog tables
over their smallest primitive element (Greenan, Miller & Schwarz, MASCOTS
2008), built when the context is created: a product is one lookup at the
sum of two logarithms, a power one at a product of indices.
:meth:`FieldCtx.log_tables` hands the tables to the polynomial layers,
which evaluate a whole term with one lookup.  Larger fields multiply
bit-serially (``FieldCtx._mul_serial``) and invert by an extended Euclid
in F_2[t].  A context checks that its modulus
is irreducible by a distinct-degree split in :mod:`conic2._dense`'s packed
F_2[t] before it builds its tables, and the table build checks that one
power cycle visits every nonzero element.
"""

from __future__ import annotations

from typing import Iterator

from . import _dense  # the one F[t]; it has no package dependencies


class UnsupportedDegree(ValueError):
    """Extension degree outside the supported range 1..64."""


class ContextMismatch(TypeError):
    """Operands belong to different field contexts."""


class NoEmbedding(ValueError):
    """No field embedding exists (source degree does not divide target degree)."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or division by the zero element."""


# One irreducible polynomial of each degree k over F_2, as a bit-vector (bit i
# = coefficient of t^i): the numerically smallest irreducible of degree k,
# except for k = 26, 28, 30, 33, 36, 37 and 49, whose entries are other
# irreducibles.  Entries never change, because they fix the serialized
# F<2^k>: literals.  Degree 1 uses t itself, so F_2 elements are literally
# 0 and 1.
_MODULI = {
    1: 0x2,  # t
    2: 0x7,  # t^2+t+1
    3: 0xB,  # t^3+t+1
    4: 0x13,  # t^4+t+1
    5: 0x25,  # t^5+t^2+1
    6: 0x43,  # t^6+t+1
    7: 0x83,  # t^7+t+1
    8: 0x11B,  # t^8+t^4+t^3+t+1
    9: 0x203,  # t^9+t+1
    10: 0x409,  # t^10+t^3+1
    11: 0x805,  # t^11+t^2+1
    12: 0x1009,  # t^12+t^3+1
    13: 0x201B,  # t^13+t^4+t^3+t+1
    14: 0x4021,  # t^14+t^5+1
    15: 0x8003,  # t^15+t+1
    16: 0x1002B,  # t^16+t^5+t^3+t+1
    17: 0x20009,  # t^17+t^3+1
    18: 0x40009,  # t^18+t^3+1
    19: 0x80027,  # t^19+t^5+t^2+t+1
    20: 0x100009,  # t^20+t^3+1
    21: 0x200005,  # t^21+t^2+1
    22: 0x400003,  # t^22+t+1
    23: 0x800021,  # t^23+t^5+1
    24: 0x100001B,  # t^24+t^4+t^3+t+1
    25: 0x2000009,  # t^25+t^3+1
    26: 0x4000047,  # t^26+t^6+t^2+t+1
    27: 0x8000027,  # t^27+t^5+t^2+t+1
    28: 0x10000009,  # t^28+t^3+1
    29: 0x20000005,  # t^29+t^2+1
    30: 0x40000053,  # t^30+t^6+t^4+t+1
    31: 0x80000009,  # t^31+t^3+1
    32: 0x10000008D,  # t^32+t^7+t^3+t^2+1
    33: 0x200000401,  # t^33+t^10+1
    34: 0x40000001B,  # t^34+t^4+t^3+t+1
    35: 0x800000005,  # t^35+t^2+1
    36: 0x1000000201,  # t^36+t^9+1
    37: 0x2000000053,  # t^37+t^6+t^4+t+1
    38: 0x4000000063,  # t^38+t^6+t^5+t+1
    39: 0x8000000011,  # t^39+t^4+1
    40: 0x10000000039,  # t^40+t^5+t^4+t^3+1
    41: 0x20000000009,  # t^41+t^3+1
    42: 0x40000000027,  # t^42+t^5+t^2+t+1
    43: 0x80000000059,  # t^43+t^6+t^4+t^3+1
    44: 0x100000000021,  # t^44+t^5+1
    45: 0x20000000001B,  # t^45+t^4+t^3+t+1
    46: 0x400000000003,  # t^46+t+1
    47: 0x800000000021,  # t^47+t^5+1
    48: 0x100000000002D,  # t^48+t^5+t^3+t^2+1
    49: 0x2000000000201,  # t^49+t^9+1
    50: 0x400000000001D,  # t^50+t^4+t^3+t^2+1
    51: 0x800000000004B,  # t^51+t^6+t^3+t+1
    52: 0x10000000000009,  # t^52+t^3+1
    53: 0x20000000000047,  # t^53+t^6+t^2+t+1
    54: 0x4000000000007D,  # t^54+t^6+t^5+t^4+t^3+t^2+1
    55: 0x80000000000047,  # t^55+t^6+t^2+t+1
    56: 0x100000000000095,  # t^56+t^7+t^4+t^2+1
    57: 0x200000000000011,  # t^57+t^4+1
    58: 0x400000000000063,  # t^58+t^6+t^5+t+1
    59: 0x80000000000007B,  # t^59+t^6+t^5+t^4+t^3+t+1
    60: 0x1000000000000003,  # t^60+t+1
    61: 0x2000000000000027,  # t^61+t^5+t^2+t+1
    62: 0x4000000000000069,  # t^62+t^6+t^5+t^3+1
    63: 0x8000000000000003,  # t^63+t+1
    64: 0x1000000000000001B,  # t^64+t^4+t^3+t+1
}

# Fields with k <= _TABLE_MAX_K multiply through log/antilog tables.  As
# Python lists the tables hold about 0.31 MB at k = 12 and 5.2 MB at k = 16,
# a fifth of the whole process's resident memory on the benchmark, so larger
# fields keep the bit-serial product.
_TABLE_MAX_K = 12


def _coeff_list(m: int) -> list[int]:
    """The polynomial m over F_2 (bit i the coefficient of t^i) as a list."""
    return [(m >> i) & 1 for i in range(m.bit_length())]


class FieldCtx:
    """The field F_{2^k} with its fixed defining modulus.

    Raw operations (``mul``, ``inv``, ...) act on the int bit-vectors and are
    the fast path used by the polynomial layers; :class:`FieldElem` wraps
    them for convenient operator syntax.  Instances are immutable and
    interned by :func:`field_new`; a context has log/antilog tables exactly
    when k <= ``_TABLE_MAX_K``, built as it is created.
    """

    __slots__ = ("k", "q", "modulus", "_log", "_exp")

    def __init__(self, k: int, _token: object = None) -> None:
        if _token is not _CTX_TOKEN:
            raise TypeError("use field_new(k); contexts are interned")
        if not isinstance(k, int) or k < 1 or k > 64:
            raise UnsupportedDegree(f"extension degree {k!r} outside 1..64")
        self.k = k
        self.q = 1 << k
        self.modulus = _MODULI[k]
        # The squarefree and distinct-degree split over F_2 of the modulus m,
        # of degree k, is [(m, k, 1)] exactly when m is squarefree with no
        # irreducible factor of degree <= k / 2, that is when it is
        # irreducible.  It runs on _dense's packed F_2[t], whose one-bit slots
        # need no modulus (F_{2^k}[t] reduces by this one), before the log
        # tables, which assume a field, are built.
        m = _coeff_list(self.modulus)
        if k > 1 and _dense.distinct_degree_parts(field_new(1), m) != [(m, k, 1)]:
            raise AssertionError(f"modulus table entry for k={k} is not irreducible")
        self._log, self._exp = self._tables() if k <= _TABLE_MAX_K else (None, None)

    def _tables(self) -> tuple[list[int], list[int]]:
        """The log and exp tables of F_q^*, by bit-serial products.

        ``log[a]`` is the discrete logarithm of a != 0 to the smallest
        primitive element g, and ``exp[i] = g^i`` for 0 <= i < 2(q - 1), so
        the sum of two logarithms indexes ``exp`` without a reduction.
        """
        q = self.q
        for g in range(1 if q == 2 else 2, q):
            log = [-1] * q
            exp = []
            x = 1
            while x and log[x] < 0:
                log[x] = len(exp)
                exp.append(x)
                x = self._mul_serial(x, g)
            if x == 1 and len(exp) == q - 1:
                return log, exp + exp
        raise AssertionError(
            f"no power cycle of F_{{2^{self.k}}} visits all {q - 1} nonzero elements"
        )

    def log_tables(self) -> tuple[list[int], list[int]] | None:
        """The (log, exp) tables of :meth:`_tables`; None when k >
        _TABLE_MAX_K.  A product of powers of nonzero elements is one
        lookup, ``exp[(log a * e + log b * f) % (q - 1)]``; the tables are
        shared and must not be written."""
        return None if self._log is None else (self._log, self._exp)

    # -- raw int operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        log = self._log
        if log is None:
            return self._mul_serial(a, b)
        return self._exp[log[a] + log[b]]

    def _mul_serial(self, a: int, b: int) -> int:
        m, k, r = self.modulus, self.k, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> k) & 1:
                a ^= m
        return r

    def sq(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        log = self._log
        if log is None:
            if e < 0:
                return self.pow(self.inv(a), -e)
            r = 1
            while e:
                if e & 1:
                    r = self.mul(r, a)
                a = self.mul(a, a)
                e >>= 1
            return r
        if not a:
            if e < 0:
                raise DivisionByZero("inverse of 0 in F_{2^%d}" % self.k)
            return 0 if e else 1
        return self._exp[log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0 in F_{2^%d}" % self.k)
        log = self._log
        if log is not None:
            return self._exp[self.q - 1 - log[a]]
        # Extended Euclid in F_2[t] against the modulus m: u = g1 a and
        # v = g2 a (mod m) throughout, and deg u + deg v falls until u = 1
        # (at once for a = 1).
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def sqrt(self, a: int) -> int:
        # Squaring is a bijection in characteristic 2: sqrt(a) = a^(2^(k-1)),
        # whose logarithm is half of log a modulo the odd q - 1.
        log = self._log
        if log is None:
            for _ in range(self.k - 1):
                a = self.mul(a, a)
            return a
        if not a:
            return 0
        e = log[a]
        return self._exp[(e + (e & 1) * (self.q - 1)) >> 1]

    def trace(self, a: int) -> int:
        # Absolute trace to F_2; always lands in {0, 1}.
        acc, p = 0, a
        for _ in range(self.k):
            acc ^= p
            p = self.mul(p, p)
        if acc not in (0, 1):  # pragma: no cover - defensive
            _trace_error(self, a)
        return acc

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    # -- element constructors ----------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        if self.k == 1:
            return FieldElem(self, 1)
        return FieldElem(self, 2)

    def elem(self, bits: int) -> "FieldElem":
        if not 0 <= bits < self.q:
            raise ValueError(f"bit-vector {bits:#x} out of range for F_{{2^{self.k}}}")
        return FieldElem(self, bits)

    def __repr__(self) -> str:
        return f"FieldCtx(F_{{2^{self.k}}})"

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.k))

    def __eq__(self, other: object) -> bool:
        return self is other


def _trace_error(ctx: FieldCtx, a: int):  # pragma: no cover - defensive
    raise AssertionError(f"trace of {a:#x} in F_{{2^{ctx.k}}} not in F_2")


_CTX_TOKEN = object()
_CTX_CACHE: dict[int, FieldCtx] = {}


def field_new(k: int) -> FieldCtx:
    """Return the interned context for F_{2^k}, 1 <= k <= 64."""
    ctx = _CTX_CACHE.get(k)
    if ctx is None:
        # threads that race here each build a context; all keep the first stored
        ctx = _CTX_CACHE.setdefault(k, FieldCtx(k, _CTX_TOKEN))
    return ctx


class FieldElem:
    """An element of a fixed F_{2^k}, as bits plus its context."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx: FieldCtx, bits: int) -> None:
        self.ctx = ctx
        self.bits = bits

    def _coerce(self, other: "FieldElem | int") -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise ContextMismatch(
                    f"elements of F_{{2^{self.ctx.k}}} and F_{{2^{other.ctx.k}}} cannot mix"
                )
            return other
        if other in (0, 1):
            return FieldElem(self.ctx, other)
        raise ContextMismatch(f"cannot coerce {other!r} into F_{{2^{self.ctx.k}}}")

    def __add__(self, other: "FieldElem | int") -> "FieldElem":
        o = self._coerce(other)
        return FieldElem(self.ctx, self.bits ^ o.bits)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other: "FieldElem | int") -> "FieldElem":
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.bits, o.bits))

    __rmul__ = __mul__

    def __truediv__(self, other: "FieldElem | int") -> "FieldElem":
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.bits, self.ctx.inv(o.bits)))

    def __pow__(self, e: int) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.pow(self.bits, e))

    def inv(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv(self.bits))

    def sqrt(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.sqrt(self.bits))

    def trace(self) -> int:
        return self.ctx.trace(self.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return other in (0, 1) and self.bits == other
        return (
            isinstance(other, FieldElem)
            and other.ctx is self.ctx
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.ctx.k, self.bits))

    def __repr__(self) -> str:
        return elem_str(self)


def frobenius_sqrt(a: FieldElem) -> FieldElem:
    """The unique square root of ``a``: squaring is a bijection in char 2."""
    return a.sqrt()


# -- canonical embeddings ------------------------------------------------

_EMBED_CACHE: dict[tuple[int, int], list[int]] = {}


def _embedding_powers(src: FieldCtx, dst: FieldCtx) -> list[int]:
    """Powers r^0..r^(k_src - 1) of the canonical generator image in dst."""
    key = (src.k, dst.k)
    powers = _EMBED_CACHE.get(key)
    if powers is not None:
        return powers
    roots = _dense.roots(dst, _coeff_list(src.modulus))
    if len(roots) != src.k:  # pragma: no cover - defensive
        raise AssertionError("defining modulus did not split in the target field")
    r = min(roots)
    powers = [1]
    for _ in range(src.k - 1):
        powers.append(dst.mul(powers[-1], r))
    _EMBED_CACHE[key] = powers
    return powers


def embed_bits(src: FieldCtx, dst: FieldCtx, bits: int) -> int:
    """Raw-int version of :func:`embed` (fast path for the polynomial layer)."""
    if src is dst:
        return bits
    if dst.k % src.k != 0:
        raise NoEmbedding(f"F_{{2^{src.k}}} does not embed into F_{{2^{dst.k}}}")
    if bits in (0, 1):
        return bits
    powers = _embedding_powers(src, dst)
    acc = 0
    i = 0
    while bits:
        if bits & 1:
            acc ^= powers[i]
        bits >>= 1
        i += 1
    return acc


def embed(a: FieldElem, target: FieldCtx) -> FieldElem:
    """Image of ``a`` under the canonical embedding into ``target``."""
    return FieldElem(target, embed_bits(a.ctx, target, a.bits))


_SECTION_CACHE: dict[tuple[int, int], list[tuple[int, int]]] = {}


def section_bits(src: FieldCtx, dst: FieldCtx, bits: int) -> int | None:
    """Preimage of ``bits`` under the canonical embedding, or None.

    Inverts the F_2-linear embedding by Gaussian elimination over the basis
    images; used to pull Frobenius-orbit products back to the base field.
    """
    if src is dst:
        return bits
    key = (src.k, dst.k)
    basis = _SECTION_CACHE.get(key)
    if basis is None:
        rows = [(p, 1 << i) for i, p in enumerate(_embedding_powers(src, dst))]
        basis = []
        for v, mask in rows:
            for bv, bm in basis:
                if v.bit_length() == bv.bit_length():
                    v ^= bv
                    mask ^= bm
            if v:
                basis.append((v, mask))
                basis.sort(key=lambda r: -r[0].bit_length())
        _SECTION_CACHE[key] = basis
    acc = 0
    w = bits
    for bv, bm in basis:
        if w.bit_length() == bv.bit_length():
            w ^= bv
            acc ^= bm
    return acc if w == 0 else None


# -- serialization --------------------------------------------------------

def elem_str(a: FieldElem) -> str:
    """Serialize as ``F<2^k>:<hex>`` (degree-prefixed, MSB coefficient first)."""
    return bits_str(a.ctx, a.bits)


def bits_str(ctx: FieldCtx, bits: int) -> str:
    """Raw-int version of :func:`elem_str`: the literal of ``bits`` in ctx."""
    return f"F{ctx.q}:{bits:X}"


def elem_parse(text: str, ctx: FieldCtx | None = None) -> FieldElem:
    """Parse ``F<2^k>:<hex>``, or the literals ``0``, ``1``, ``j``.

    ``j`` denotes the generator of F_4.  When ``ctx`` is given the parsed
    element is embedded into it (erroring when no embedding exists).
    """
    text = text.strip()
    if text in ("0", "1"):
        base = field_new(1)
        e = FieldElem(base, int(text))
    elif text == "j":
        e = field_new(2).gen()
    elif text.startswith("F") and ":" in text:
        size_s, _, hex_s = text.partition(":")
        try:
            q = int(size_s[1:])
            bits = int(hex_s, 16)
        except ValueError as exc:
            raise ValueError(f"malformed field element literal {text!r}") from exc
        k = q.bit_length() - 1
        if q != 1 << k or not 1 <= k <= 64:
            raise ValueError(f"field size {q} in {text!r} is not a power of two in range")
        e = field_new(k).elem(bits)
    else:
        raise ValueError(f"malformed field element literal {text!r}")
    if ctx is not None and e.ctx is not ctx:
        e = embed(e, ctx)
    return e
