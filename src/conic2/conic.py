"""Conic bundles over the projective plane in characteristic two.

A bundle is recorded as its "half matrix": six homogeneous sections
s_aa, s_ab, s_ac, s_bb, s_bc, s_cc on P^2 (base coordinates x, y, z) cutting
the conic

    s_aa a^2 + s_bb b^2 + s_cc c^2 + s_ab ab + s_ac ac + s_bc bc = 0

in fiber coordinates a, b, c.  Twist degrees (e_a, e_b, e_c) and the value
degree m force deg s_ij = e_i + e_j + m for nonzero sections; zero sections
are legal entries.

In characteristic two the discriminant simplifies to

    Delta = s_ab s_bc s_ac + s_ab^2 s_cc + s_ac^2 s_bb + s_bc^2 s_aa

and the double-line locus Sigma is cut by s_ab = s_ac = s_bc = 0.  Fibers
classify as Smooth / Cross / DoubleLine / NotConic from the values of the
sections at a point; NotConic (all six sections vanish) is a classification
outcome rather than an error so that search workflows can observe and
discard such candidates cheaply.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .gf2k import FieldCtx, bits_str, elem_parse, embed_bits, field_new, section_bits
from .poly import (
    Poly,
    dehomogenize,
    is_homogeneous,
    partial_derivative,
    poly_parse,
    poly_print,
    poly_square,
)

BASE_VARS = ("x", "y", "z")
FIBER_VARS = ("a", "b", "c")
SECTION_KEYS = ("aa", "ab", "ac", "bb", "bc", "cc")
OFF_DIAGONAL = ("ab", "ac", "bc")


class DegreeMismatch(ValueError):
    """A section's degree disagrees with the degree vector."""


class AllZero(ValueError):
    """All six sections vanish identically."""


class MalformedInput(ValueError):
    """An input file cannot be read, or its JSON does not have the expected shape."""


class FiberType(enum.Enum):
    SMOOTH = "Smooth"
    CROSS = "Cross"
    DOUBLE_LINE = "DoubleLine"
    NOT_CONIC = "NotConic"

    def __str__(self) -> str:
        return self.value


class ProjPoint:
    """A point of P^2 over some F_{2^k}, in normalized homogeneous coordinates.

    Coordinates are scaled so the first nonzero one equals 1; equality is
    equality of normalized coordinates in the common subfield.
    """

    __slots__ = ("ctx", "coords", "_text")

    def __init__(self, ctx: FieldCtx, coords: tuple) -> None:
        coords = tuple(coords)
        if len(coords) != 3 or all(c == 0 for c in coords):
            raise ValueError("a projective point needs three not-all-zero coordinates")
        lead = next(c for c in coords if c != 0)
        if lead != 1:
            s = ctx.inv(lead)
            coords = tuple(ctx.mul(c, s) for c in coords)
        self.ctx = ctx
        self.coords = coords
        self._text: tuple[str, ...] | None = None  # serialize's rendering, once made

    @staticmethod
    def parse(text: str, ctx: FieldCtx | None = None) -> "ProjPoint":
        raw = text.split(":")
        # hex literals like F4:2 contain a colon of their own: rejoin them
        parts: list[str] = []
        i = 0
        while i < len(raw):
            tok = raw[i].strip()
            if tok.startswith("F") and tok[1:].isdigit() and i + 1 < len(raw):
                parts.append(tok + ":" + raw[i + 1].strip())
                i += 2
            else:
                parts.append(tok)
                i += 1
        if len(parts) != 3:
            raise ValueError(f"a point literal needs three ':'-separated parts: {text!r}")
        elems = [elem_parse(p) for p in parts]
        target = ctx if ctx is not None else field_new(math.lcm(*(e.ctx.k for e in elems)))
        bits = tuple(embed_bits(e.ctx, target, e.bits) for e in elems)
        return ProjPoint(target, bits)

    def embed_to(self, target: FieldCtx) -> "ProjPoint":
        if target is self.ctx:
            return self
        return ProjPoint(target, tuple(embed_bits(self.ctx, target, c) for c in self.coords))

    def frobenius(self, q: int) -> "ProjPoint":
        """The conjugate [x^q : y^q : z^q] of the point, in the same field.

        For F_q the field of a curve or a spec, this map sends its points to
        its points, and any fact computed from the point by F_q-arithmetic to
        the same fact at the image.  The image is normalized as it stands,
        since x -> x^q fixes 0 and 1, so it is built without normalizing.
        """
        power = self.ctx.pow
        x, y, z = self.coords
        image = object.__new__(ProjPoint)
        image.ctx, image.coords = self.ctx, (power(x, q), power(y, q), power(z, q))
        image._text = None
        return image

    def serialize(self) -> list[str]:
        """The coordinates as element literals, in a new list; a point is
        immutable, so they are rendered once and kept."""
        if self._text is None:
            self._text = tuple(bits_str(self.ctx, c) for c in self.coords)
        return list(self._text)

    def sort_key(self):
        return (self.ctx.k, self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if other.ctx is self.ctx:
            return other.coords == self.coords
        # Equal normalized points have all coordinates in the common subfield.
        common = field_new(math.gcd(self.ctx.k, other.ctx.k))
        mine = [section_bits(common, self.ctx, c) for c in self.coords]
        theirs = [section_bits(common, other.ctx, c) for c in other.coords]
        return None not in mine and mine == theirs

    def __hash__(self) -> int:
        # Hash by rational data only; cross-field equality stays consistent.
        return hash(tuple(c if c in (0, 1) else -1 for c in self.coords))

    def __repr__(self) -> str:
        return "[" + ":".join(self.serialize()) + "]"


@dataclass(frozen=True)
class ConicBundleSpec:
    """The half matrix: twist degrees, value degree, and six sections."""

    ctx: FieldCtx
    degree_vector: tuple[int, int, int]
    value_degree: int
    sections: dict

    def section(self, key: str) -> Poly:
        return self.sections[key]

    def forced_degree(self, key: str) -> int:
        i, j = FIBER_VARS.index(key[0]), FIBER_VARS.index(key[1])
        return self.degree_vector[i] + self.degree_vector[j] + self.value_degree


@dataclass(frozen=True)
class SpecReport:
    section_degrees: dict
    delta_degree: int


def spec_validate(spec: ConicBundleSpec) -> SpecReport:
    """Check homogeneity degrees and nonzeroness; report the forced deg(Delta).

    A spec is checked once: the first report is kept on the frozen spec,
    as :func:`discriminant` keeps Delta, and later calls return it.  An
    invalid spec keeps nothing, so it raises on every call.
    """
    report = spec.__dict__.get("_report")
    if report is None:
        report = _validate(spec)
        object.__setattr__(spec, "_report", report)
    return report


def _validate(spec: ConicBundleSpec) -> SpecReport:
    degrees = {}
    any_nonzero = False
    for key in SECTION_KEYS:
        s = spec.sections.get(key)
        if s is None:
            raise DegreeMismatch(f"missing section {key}")
        if s.ctx is not spec.ctx or s.vars != BASE_VARS:
            raise DegreeMismatch(f"section {key} is not a polynomial in x, y, z over the spec field")
        d = is_homogeneous(s)
        if d == "zero":
            degrees[key] = None
            continue
        any_nonzero = True
        forced = spec.forced_degree(key)
        if d != forced:
            raise DegreeMismatch(
                f"section {key} = {poly_print(s)} has degree {d}, but the degree vector forces {forced}"
            )
        degrees[key] = forced
    if not any_nonzero:
        raise AllZero("all six sections are zero")
    ea, eb, ec = spec.degree_vector
    return SpecReport(degrees, 2 * (ea + eb + ec) + 3 * spec.value_degree)


def discriminant(spec: ConicBundleSpec) -> Poly:
    """Delta = s_ab s_bc s_ac + s_ab^2 s_cc + s_ac^2 s_bb + s_bc^2 s_aa.

    The squares are Frobenius squares (:func:`poly.poly_square`): in
    characteristic 2 the cross terms of s * s cancel.

    Computed once per spec: the first call keeps Delta on the frozen spec as
    an attribute that is not a dataclass field, so it takes no part in
    equality or repr, and later calls return that same polynomial.
    """
    delta = spec.__dict__.get("_discriminant")
    if delta is None:
        s = spec.sections
        delta = (
            s["ab"] * s["bc"] * s["ac"]
            + poly_square(s["ab"]) * s["cc"]
            + poly_square(s["ac"]) * s["bb"]
            + poly_square(s["bc"]) * s["aa"]
        )
        object.__setattr__(spec, "_discriminant", delta)
    return delta


# The sections each term of Delta multiplies (:func:`discriminant`); a term
# holds each of its sections once or squared.
DELTA_TERMS = (
    frozenset(("ab", "bc", "ac")), frozenset(("ab", "cc")), frozenset(("ac", "bb")), frozenset(("bc", "aa")),
)


def keep_discriminant(spec: ConicBundleSpec, delta: Poly) -> None:
    """Keep delta as the spec's Delta, for a caller that has it without the
    product formula (amcert's search sums it over other candidates'); call
    it before the spec's first :func:`discriminant`, which then returns it."""
    object.__setattr__(spec, "_discriminant", delta)


def sigma_generators(spec: ConicBundleSpec) -> tuple[Poly, Poly, Poly]:
    """The three off-diagonal sections; Sigma is their common zero locus."""
    return (spec.sections["ab"], spec.sections["ac"], spec.sections["bc"])


def section_values(spec: ConicBundleSpec, p: ProjPoint) -> tuple:
    """Raw values of the six sections at p, in p's field, as a 6-tuple in
    SECTION_KEYS order."""
    return tuple(spec.sections[key].eval_bits(p.ctx, p.coords) for key in SECTION_KEYS)


@dataclass(frozen=True)
class SectionJet:
    """The six sections' values, first partials and mixed partial at a
    point, from which the certifier reads every point fact (amcert._certify).

    ``chart`` is the index w of the point's first nonzero coordinate, and
    ``d1``, ``d2``, ``d12`` are the partials in the two other base variables
    u1, u2 (in x, y, z order) and their mixed partial.  Since p_w = 1 they
    are the partials of the sections dehomogenized at w = 1, i.e. on the
    base chart of w.  ``value``, ``d1``, ``d2`` and ``d12`` are 6-tuples of
    raw bits in the point's field, entry i belonging to section
    SECTION_KEYS[i] (aa, ab, ac, bb, bc, cc), as in :func:`section_values`;
    readers take fixed positions.  The jet at the conjugate p^q
    (:meth:`ProjPoint.frobenius`) is the jet at p with every entry raised to
    the q-th power, so one jet decides a whole Frobenius orbit (geom).
    """

    point: ProjPoint
    chart: int
    value: tuple
    d1: tuple
    d2: tuple
    d12: tuple


def section_jet(spec: ConicBundleSpec, p: ProjPoint) -> SectionJet:
    """The :class:`SectionJet` of the spec at p, its four 6-tuples built
    from each section's entries (:func:`_section_entries`)."""
    key, sections, c = p.sort_key(), spec.sections, p.coords
    value, d1, d2, d12 = zip(*[_section_entries(sections[k], key) for k in SECTION_KEYS])
    return SectionJet(p, 0 if c[0] else 1 if c[1] else 2, value, d1, d2, d12)


def section_entries(s: Poly, p: ProjPoint) -> tuple[int, int, int, int]:
    """The section s's entries of a :class:`SectionJet` at p, computed and
    not kept: for sections a caller reads at a few points and keeps itself."""
    return _section_entries.__wrapped__(s, p.sort_key())


# A section's entries are evaluated once per point per process: the
# zero-corner search's 48 (its 4 fixed sections and the first candidate's 2
# others at 8 points) stay.  An entry and the section it keeps take about 0.33 kB.
@lru_cache(maxsize=128)
def _section_entries(s: Poly, point: tuple) -> tuple[int, int, int, int]:
    """The section s's value, partials in u1, u2 and mixed partial (the
    entries of a :class:`SectionJet`) at the point whose
    :meth:`ProjPoint.sort_key` is ``point``; keyed on that key, since a
    ProjPoint hashes every non-rational point alike.

    In characteristic 2 a term c*u1^e1*u2^e2 reaches d/du_i only when e_i
    is odd, and then its derivative differs from it only in the power of
    u_i; the mixed partial needs both exponents odd.  Over a field with log
    tables (:meth:`FieldCtx.log_tables`) each of these is one lookup at
    log c + e1 log u1 + e2 log u2, less log u_i per derivative, and a zero
    coordinate zeroes every power of it above the zeroth.  A larger field
    evaluates the section and its partials (:func:`poly.partial_derivative`)
    with :meth:`Poly.eval_bits`.
    """
    ctx, src = field_new(point[0]), s.ctx
    coords = point[1]
    # u1, u2: the coordinates other than the first nonzero one, the chart's
    i1, i2 = ((1, 2), (0, 2), (0, 1))[0 if coords[0] else 1 if coords[1] else 2]
    tables = ctx.log_tables()
    if tables is None:
        s1, s2 = partial_derivative(s, s.vars[i1]), partial_derivative(s, s.vars[i2])
        return tuple(f.eval_bits(ctx, coords) for f in (s, s1, s2, partial_derivative(s1, s.vars[i2])))
    log, exp = tables
    order = ctx.q - 1
    u1, u2 = coords[i1], coords[i2]
    l1, l2 = log[u1] if u1 else 0, log[u2] if u2 else 0
    # u^e is nonzero iff e < cap: every power of a nonzero u, u^0 of a zero u
    cap1, cap2 = math.inf if u1 else 1, math.inf if u2 else 1
    v = v1 = v2 = v12 = 0
    for m, c in s.items():
        if src is not ctx:
            c = embed_bits(src, ctx, c)
        e1, e2 = m[i1], m[i2]
        t = log[c] + e1 * l1 + e2 * l2
        if e1 < cap1 and e2 < cap2:
            v ^= exp[t % order]
        if e1 & 1 and e1 <= cap1 and e2 < cap2:
            v1 ^= exp[(t - l1) % order]
        if e2 & 1 and e2 <= cap2 and e1 < cap1:
            v2 ^= exp[(t - l2) % order]
        if e1 & e2 & 1 and e1 <= cap1 and e2 <= cap2:
            v12 ^= exp[(t - l1 - l2) % order]
    return v, v1, v2, v12


def _delta_value(v: tuple, ctx: FieldCtx) -> int:
    aa, ab, ac, bb, bc, cc = v
    mul = ctx.mul
    return mul(mul(ab, bc), ac) ^ mul(mul(ab, ab), cc) ^ mul(mul(ac, ac), bb) ^ mul(mul(bc, bc), aa)


def classify_fiber(spec: ConicBundleSpec, p: ProjPoint) -> FiberType:
    return fiber_type(section_values(spec, p), p.ctx)


def fiber_type(v: tuple, ctx: FieldCtx) -> FiberType:
    """The fiber type of the conic with section values v (a 6-tuple in
    SECTION_KEYS order) in ctx."""
    aa, ab, ac, bb, bc, cc = v
    if not (ab or ac or bc):
        return FiberType.DOUBLE_LINE if aa or bb or cc else FiberType.NOT_CONIC
    if _delta_value(v, ctx) == 0:
        return FiberType.CROSS
    return FiberType.SMOOTH


_OTHER_TWO = ((1, 2), (0, 2), (0, 1))  # _OTHER_TWO[ell]: the indices in range(3) but ell


def cross_splitting_form(v: tuple):
    """Radical and line splitting form of the conic with section values v
    (a 6-tuple in SECTION_KEYS order).

    The radical of the conic's bilinear form is spanned by
    n = (s_bc, s_ac, s_ab), which lies on the conic exactly when Delta = 0.
    With ell the first index where n is nonzero and (i, j) the other two,
    the conic restricted to w_ell = 0 is q_i w_i^2 + n_ell w_i w_j + q_j w_j^2,
    so the lines of a cross are spanned by n and the roots [w_i : w_j] of
    the splitting form q_i T^2 + n_ell T + q_j.  Returns
    (n, (i, j), (q_i, n_ell, q_j)), or None when n = 0 (a double line).
    """
    aa, ab, ac, bb, bc, cc = v
    n = (bc, ac, ab)
    ell = 0 if bc else 1 if ac else 2 if ab else None
    if ell is None:
        return None
    i, j = others = _OTHER_TWO[ell]
    diagonal = (aa, bb, cc)
    return n, others, (diagonal[i], n[ell], diagonal[j])


def cross_singular_point(spec: ConicBundleSpec, p: ProjPoint) -> ProjPoint:
    """The unique singular point of a cross fiber, in fiber coordinates."""
    return radical_point(section_values(spec, p), p.ctx)


def radical_point(v: tuple, ctx: FieldCtx) -> ProjPoint:
    """The point n = (s_bc, s_ac, s_ab) of :func:`cross_splitting_form` for
    section values v in ctx: the singular point of a cross fiber,
    normalized."""
    _, ab, ac, _, bc, _ = v
    if not (ab or ac or bc):
        raise ValueError("fiber is a double line; the singular locus is a whole line")
    return ProjPoint(ctx, (bc, ac, ab))


_FIBER_MONO = {
    "aa": (2, 0, 0),
    "ab": (1, 1, 0),
    "ac": (1, 0, 1),
    "bb": (0, 2, 0),
    "bc": (0, 1, 1),
    "cc": (0, 0, 2),
}


def fiber_form_on_chart(spec: ConicBundleSpec, base_var: str) -> Poly:
    """The conic form over the base chart base_var = 1.

    The result lives in the two remaining base variables plus all three fiber
    variables, and is homogeneous of degree 2 in the fiber variables.
    """
    rest = tuple(v for v in BASE_VARS if v != base_var)
    vars_out = rest + FIBER_VARS
    ctx = spec.ctx
    acc = Poly.zero(ctx, vars_out)
    for key in SECTION_KEYS:
        s = dehomogenize(spec.sections[key], base_var).with_vars(vars_out)
        mono = Poly.from_terms(ctx, vars_out, [((0, 0) + _FIBER_MONO[key], 1)])
        acc = acc + s * mono
    return acc


@dataclass(frozen=True)
class ChartEquation:
    """Affine equation of the total space on one of the 9 charts."""

    base_var: str
    fiber_var: str
    equation: Poly  # in the 2 remaining base and 2 remaining fiber variables


def chart_equation(spec: ConicBundleSpec, base_var: str, fiber_var: str) -> ChartEquation:
    """The total space on the chart base_var = 1, fiber_var = 1; the
    certifier builds none (see :class:`SectionJet`)."""
    if base_var not in BASE_VARS or fiber_var not in FIBER_VARS:
        raise ValueError(f"no chart ({base_var}, {fiber_var})")
    form = fiber_form_on_chart(spec, base_var)
    rest_base = tuple(v for v in BASE_VARS if v != base_var)
    rest_fiber = tuple(v for v in FIBER_VARS if v != fiber_var)
    eq = dehomogenize(form.with_vars(rest_base + FIBER_VARS), fiber_var)
    return ChartEquation(base_var, fiber_var, eq.with_vars(rest_base + rest_fiber))


def total_space_charts(spec: ConicBundleSpec) -> list[ChartEquation]:
    """The 9 affine chart equations covering the total space."""
    return [chart_equation(spec, w, v) for w in BASE_VARS for v in FIBER_VARS]


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    witness: ProjPoint | None
    generically_smooth: bool


def flatness_check(
    spec: ConicBundleSpec, k_max: int = 24, within: "geom.AlgebraicPointSet | None" = None
) -> FlatnessReport:
    """Flat iff the six sections share no projective zero; smooth iff Delta != 0.

    Flatness failures surface as data (a witness point with NotConic fiber),
    not as exceptions, so search loops can discard candidates cheaply.
    Common zeros of the six sections lie on Sigma, the zeros of the three
    off-diagonal ones, so ``within``, a finite Sigma solved with the same
    k_max, gives them as the points of Sigma where the diagonal sections
    vanish (:func:`geom.read_off`); the witness is the same.
    """
    from . import geom  # deferred: geom depends on this module

    spec_validate(spec)
    nonzero = [spec.sections[k] for k in SECTION_KEYS if not spec.sections[k].is_zero()]
    gen_smooth = not discriminant(spec).is_zero()
    if any(s.is_constant() for s in nonzero):
        return FlatnessReport(True, None, gen_smooth)
    try:
        common = (geom.solve_system(nonzero, k_max) if within is None else
                  geom.read_off(within, nonzero, [spec.sections[k] for k in ("aa", "bb", "cc")], k_max))
        witness = common.points[0] if common.points else None
    except geom.PositiveDimensional as exc:
        witness = geom.point_on_curve(exc.common_factor, k_max)
    return FlatnessReport(witness is None, witness, gen_smooth)


# -- spec files -------------------------------------------------------------


def spec_to_dict(spec: ConicBundleSpec) -> dict:
    return {
        "field_degree": spec.ctx.k,
        "degree_vector": list(spec.degree_vector),
        "value_degree": spec.value_degree,
        "sections": {k: poly_print(spec.sections[k]) for k in SECTION_KEYS},
    }


_SPEC_FIELDS = ("field_degree", "degree_vector", "value_degree", "sections")


def spec_from_dict(data: dict) -> ConicBundleSpec:
    if not isinstance(data, dict):
        raise MalformedInput(f"a spec is a JSON object, not {type(data).__name__}")
    missing = [key for key in _SPEC_FIELDS if key not in data]
    if missing:
        raise MalformedInput("the spec lacks " + ", ".join(missing))
    if not isinstance(data["degree_vector"], (list, tuple)):
        raise MalformedInput("degree_vector must be a list of three integers")
    if not isinstance(data["sections"], dict):
        raise MalformedInput("sections must be an object mapping section keys to polynomials")
    unknown = [str(key) for key in data["sections"] if key not in SECTION_KEYS]
    if unknown:
        raise MalformedInput("unknown section keys: " + ", ".join(unknown))
    texts = {key: data["sections"].get(key, "0") for key in SECTION_KEYS}
    bad = [key for key, text in texts.items() if not isinstance(text, str)]
    if bad:
        raise MalformedInput("sections must be polynomial strings; not " + ", ".join(bad))
    k, m, dv = data["field_degree"], data["value_degree"], tuple(data["degree_vector"])
    bad = [e for e in (k, m, *dv) if type(e) is not int]  # no bool, float or str
    if bad:
        raise MalformedInput(f"degrees must be integers, not {bad[0]!r}")
    ctx = field_new(k)
    if len(dv) != 3:
        raise DegreeMismatch("degree_vector needs exactly three entries")
    sections = {key: poly_parse(text, ctx, BASE_VARS) for key, text in texts.items()}
    spec = ConicBundleSpec(ctx, dv, m, sections)
    spec_validate(spec)
    return spec


def read_json(path: str):
    """The JSON document in the file at path; an unreadable file raises
    MalformedInput, malformed JSON json.JSONDecodeError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_spec(path: str) -> ConicBundleSpec:
    return spec_from_dict(read_json(path))
