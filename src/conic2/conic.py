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

from .gf2k import FieldCtx, FieldElem, elem_parse, elem_str, embed_bits, field_new, section_bits
from .poly import (
    Poly,
    dehomogenize,
    is_homogeneous,
    poly_parse,
    poly_print,
)

BASE_VARS = ("x", "y", "z")
FIBER_VARS = ("a", "b", "c")
SECTION_KEYS = ("aa", "ab", "ac", "bb", "bc", "cc")
OFF_DIAGONAL = ("ab", "ac", "bc")
DIAGONAL = ("aa", "bb", "cc")


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

    __slots__ = ("ctx", "coords")

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
        return image

    def serialize(self) -> list[str]:
        return [elem_str(FieldElem(self.ctx, c)) for c in self.coords]

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
    """Check homogeneity degrees and nonzeroness; report the forced deg(Delta)."""
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

    Computed once per spec: the first call keeps Delta on the frozen spec as
    an attribute that is not a dataclass field, so it takes no part in
    equality or repr, and later calls return that same polynomial.
    """
    delta = spec.__dict__.get("_discriminant")
    if delta is None:
        s = spec.sections
        delta = (
            s["ab"] * s["bc"] * s["ac"]
            + s["ab"] * s["ab"] * s["cc"]
            + s["ac"] * s["ac"] * s["bb"]
            + s["bc"] * s["bc"] * s["aa"]
        )
        object.__setattr__(spec, "_discriminant", delta)
    return delta


def sigma_generators(spec: ConicBundleSpec) -> tuple[Poly, Poly, Poly]:
    """The three off-diagonal sections; Sigma is their common zero locus."""
    return (spec.sections["ab"], spec.sections["ac"], spec.sections["bc"])


def section_values(spec: ConicBundleSpec, p: ProjPoint) -> dict:
    """Raw values of the six sections at p, in p's field."""
    return {key: spec.sections[key].eval_bits(p.ctx, p.coords) for key in SECTION_KEYS}


@dataclass(frozen=True)
class SectionJet:
    """The six sections' values, first partials and mixed partial at a point.

    ``chart`` is the index w of the point's first nonzero coordinate, and
    ``d1``, ``d2``, ``d12`` are the partials in the two other base variables
    u1, u2 (in x, y, z order) and their mixed partial.  Since p_w = 1 they
    are the partials of the sections dehomogenized at w = 1, i.e. on the
    base chart of w.  Each field maps a section key to raw bits in the
    point's field.
    """

    point: ProjPoint
    chart: int
    value: dict
    d1: dict
    d2: dict
    d12: dict


def section_jet(spec: ConicBundleSpec, p: ProjPoint) -> SectionJet:
    """The :class:`SectionJet` of the spec at p, in one pass over each
    section's terms with one list of coordinate powers for all six.

    In characteristic 2 a term c*u1^e1*u2^e2 reaches d/du_i only when e_i
    is odd, and then its derivative differs from it only in the power of
    u_i; the mixed partial needs both exponents odd.
    """
    ctx, src = p.ctx, spec.ctx
    mul = ctx.mul
    w = next(k for k, c in enumerate(p.coords) if c)
    i1, i2 = (k for k in range(3) if k != w)
    pw1, pw2 = [1, p.coords[i1]], [1, p.coords[i2]]
    value, d1, d2, d12 = {}, {}, {}, {}
    for key in SECTION_KEYS:
        v = v1 = v2 = v12 = 0
        for m, c in spec.sections[key].items():
            if src is not ctx:
                c = embed_bits(src, ctx, c)
            e1, e2 = m[i1], m[i2]
            while len(pw1) <= e1:
                pw1.append(mul(pw1[-1], pw1[1]))
            while len(pw2) <= e2:
                pw2.append(mul(pw2[-1], pw2[1]))
            c2 = mul(c, pw2[e2])
            v ^= mul(c2, pw1[e1])
            if e1 & 1:
                v1 ^= mul(c2, pw1[e1 - 1])
            if e2 & 1:
                c2 = mul(c, pw2[e2 - 1])
                v2 ^= mul(c2, pw1[e1])
                if e1 & 1:
                    v12 ^= mul(c2, pw1[e1 - 1])
        value[key], d1[key], d2[key], d12[key] = v, v1, v2, v12
    return SectionJet(p, w, value, d1, d2, d12)


def _delta_value(v: dict, ctx: FieldCtx) -> int:
    mul = ctx.mul
    return (
        mul(mul(v["ab"], v["bc"]), v["ac"])
        ^ mul(mul(v["ab"], v["ab"]), v["cc"])
        ^ mul(mul(v["ac"], v["ac"]), v["bb"])
        ^ mul(mul(v["bc"], v["bc"]), v["aa"])
    )


def classify_fiber(spec: ConicBundleSpec, p: ProjPoint) -> FiberType:
    return fiber_type(section_values(spec, p), p.ctx)


def fiber_type(v: dict, ctx: FieldCtx) -> FiberType:
    """The fiber type of the conic with section values v in ctx."""
    if all(v[k] == 0 for k in SECTION_KEYS):
        return FiberType.NOT_CONIC
    if all(v[k] == 0 for k in OFF_DIAGONAL):
        return FiberType.DOUBLE_LINE
    if _delta_value(v, ctx) == 0:
        return FiberType.CROSS
    return FiberType.SMOOTH


def cross_splitting_form(v: dict):
    """Radical and line splitting form of the conic with section values v.

    The radical of the conic's bilinear form is spanned by
    n = (s_bc, s_ac, s_ab), which lies on the conic exactly when Delta = 0.
    With ell the first index where n is nonzero and (i, j) the other two,
    the conic restricted to w_ell = 0 is q_i w_i^2 + n_ell w_i w_j + q_j w_j^2,
    so the lines of a cross are spanned by n and the roots [w_i : w_j] of
    the splitting form q_i T^2 + n_ell T + q_j.  Returns
    (n, (i, j), (q_i, n_ell, q_j)), or None when n = 0 (a double line).
    """
    n = (v["bc"], v["ac"], v["ab"])
    ell = next((k for k, c in enumerate(n) if c), None)
    if ell is None:
        return None
    i, j = [k for k in range(3) if k != ell]
    return n, (i, j), (v[DIAGONAL[i]], n[ell], v[DIAGONAL[j]])


def cross_singular_point(spec: ConicBundleSpec, p: ProjPoint) -> ProjPoint:
    """The unique singular point of a cross fiber, in fiber coordinates."""
    return radical_point(section_values(spec, p), p.ctx)


def radical_point(v: dict, ctx: FieldCtx) -> ProjPoint:
    """The point n of :func:`cross_splitting_form` for section values v in
    ctx: the singular point of a cross fiber, normalized."""
    split = cross_splitting_form(v)
    if split is None:
        raise ValueError("fiber is a double line; the singular locus is a whole line")
    return ProjPoint(ctx, split[0])


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
    k_max, confines the solve to Sigma's direction forms
    (geom.solve_system's restricted solve); the witness is the same.
    """
    from . import geom  # deferred: geom depends on this module

    spec_validate(spec)
    nonzero = [spec.sections[k] for k in SECTION_KEYS if not spec.sections[k].is_zero()]
    gen_smooth = not discriminant(spec).is_zero()
    if any(s.is_constant() for s in nonzero):
        return FlatnessReport(True, None, gen_smooth)
    try:
        common = geom.solve_system(nonzero, k_max, within=within)
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
