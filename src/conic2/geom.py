"""Exact geometry of plane curves and of the conic-bundle total space.

The workhorse is :func:`solve_system`: all common projective zeros, over the
algebraic closure, of homogeneous polynomials in x, y, z with finite common
zero locus.  Elimination produces a binary form whose roots are the
candidate [x:y] directions.  Each irreducible direction factor, of degree d
over F_q, is solved at one root, inside the one extension its z-roots need
(one embedding hop from F_q, never a tower); the other d - 1 directions carry
the Frobenius images (x, y, z) -> (x^q, y^q, z^q).  The recorded eliminant
factor degrees certify that no root was missed (EliminationClosure).  A solved
set keeps the direction forms that carry its points, so a system containing
its inputs is solved on those forms alone.  Transversal intersections carry
an independent Bezout count certificate instead.

Explicit rational points of a curve, over the fields F_{q^e} up to a bound,
come from :func:`small_field_points`: the points on a line are the roots of
the curve restricted to it, so a field costs one root finding per line.

Smoothness of the total space along a degenerate fiber, and the ordinary
nodes above component intersections, are read from the six sections' jet
(value, first partials and mixed partial) at one base point per Frobenius
orbit (:func:`frobenius_orbits`): the sections have coefficients in F_q, so
the jet at p^q is the jet at p with each entry raised to the q-th power, and
the zero tests that decide the fiber type, the chart, the node and
smoothness come out the same at p^q as at p.  The five partials of the conic
form, restricted to the fiber, are pulled back along each line of the
reduced fiber to binary forms whose gcd is constant exactly when no
singular point lies on that line.  The gcd is computed over the coefficient
field; gcds of forms are stable under field extension.
:func:`ordinary_node_check` takes the node verdict from a chart equation's
derivative polynomials instead; the certifier never calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import _dense
from .conic import (
    BASE_VARS,
    FIBER_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    cross_splitting_form,
    fiber_type,
    radical_point,
    section_jet,
)
from .factor import binary_form_factor, gcd_homogeneous_many
from .gf2k import FieldCtx, embed_bits, field_new
from .poly import (
    Poly,
    binary_gcd,
    dehomogenize,
    is_homogeneous,
    partial_derivative,
    poly_print,
    resultant,
    specialize,
    to_columns,
    to_dense,
)


class PositiveDimensional(RuntimeError):
    """The common zero locus contains a curve."""

    def __init__(self, common_factor: Poly) -> None:
        super().__init__(f"positive-dimensional common zero locus: {poly_print(common_factor)}")
        self.common_factor = common_factor


class ExtensionBound(RuntimeError):
    """A root lives in an extension beyond the configured degree bound."""


class EliminationDegenerate(RuntimeError):
    """No combination of the inputs gave a nonzero eliminant."""


class CommonComponent(RuntimeError):
    """Two curves share a component; their intersection is not finite."""


class BezoutMismatch(RuntimeError):
    """Intersection count disagrees with Bezout (a tangency or a missed point)."""

    def __init__(self, message: str, witness: ProjPoint | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class NotOnCurve(ValueError):
    """The point does not lie on both curves."""


class NotSquarefree(ValueError):
    """The curve has a repeated component; pass the reduced polynomial."""


class FiberNotDegenerate(ValueError):
    """smooth_along_fiber needs a Cross or DoubleLine fiber."""


class UnreducedParametrization(RuntimeError):
    """The reduced line of a double-line fiber could not be extracted."""


class NotSingularHere(ValueError):
    """ordinary_node_check needs a point with vanishing value and gradient."""


@dataclass(frozen=True)
class BezoutCount:
    expected: int
    found: int


@dataclass(frozen=True)
class EliminationClosure:
    factor_degrees: tuple[int, ...]


@dataclass(frozen=True)
class AlgebraicPointSet:
    points: tuple[ProjPoint, ...]
    certificate: "BezoutCount | EliminationClosure"
    # solve_system's irreducible direction forms in (x, y) that carry points
    directions: tuple[Poly, ...] = field(default=(), compare=False, repr=False)

    def serialize(self, point=ProjPoint.serialize) -> dict:
        """The set as certificate data; ``point`` serializes each point."""
        cert: dict
        if isinstance(self.certificate, BezoutCount):
            cert = {
                "kind": "bezout_count",
                "expected": self.certificate.expected,
                "found": self.certificate.found,
            }
        else:
            cert = {
                "kind": "elimination_closure",
                "factor_degrees": list(self.certificate.factor_degrees),
            }
        return {"points": [point(p) for p in self.points], "certificate": cert}


# -- rational points of a plane curve, line by line ------------------------------


def small_field_points(curve: Poly, bound: int):
    """The points of the curve in P^2(F_{2^(k e)}) for e = 1, 2, ... while
    k e <= min(bound, 64), where F_{2^k} is the curve's field; field by
    field, each in canonical order.

    A field costs one root finding per line, not one evaluation per point:
    the points on a line are the roots of the curve restricted to it
    (:func:`_dense.roots`, sorted without repeats).  The lines are x = 1,
    y = c for c = 0, 1, ..., then x = 0, y = 1, and last comes [0:0:1].  The
    restrictions are formed once, and their coefficients embedded once per
    field.  A line on the curve restricts to 0 and yields all its points; a
    chart restriction f(1, y, z) that is a nonzero constant (f = c x^d)
    leaves the chart x = 1 without points, so it is skipped whole.
    """
    base = curve.ctx
    chart = to_columns(dehomogenize(curve, "x"), "z", "y")  # f(1, y, z): z-columns over F[y]
    chart_empty = len(chart) == 1 and _dense.deg(chart[0]) == 0
    line = to_dense(specialize(curve, base, (0, 1)), "z")  # f(0, 1, z)
    corner = curve.eval_bits(base, (0, 0, 1)) == 0
    e = 1
    while base.k * e <= min(bound, 64):
        ctx = field_new(base.k * e)
        if not chart_empty:
            cols = [[embed_bits(base, ctx, c) for c in col] for col in chart]
            for y in range(ctx.q):
                yield from _line_points(ctx, (1, y), [_dense.eval_at(ctx, col, y) for col in cols])
        yield from _line_points(ctx, (0, 1), [embed_bits(base, ctx, c) for c in line])
        if corner:
            yield ProjPoint(ctx, (0, 0, 1))
        e += 1


def _line_points(ctx: FieldCtx, head: tuple[int, int], restriction: list[int]):
    """The points head + (z,) of P^2(ctx), for z a root of the curve's
    restriction to the line (every z when the restriction is 0)."""
    restriction = _dense.trim(restriction)
    for z in _dense.roots(ctx, restriction) if restriction else range(ctx.q):
        yield ProjPoint(ctx, (*head, z))


def point_on_curve(curve: Poly, k_max: int = 24) -> ProjPoint:
    """Some point of a nonconstant plane curve, over a small extension."""
    for p in small_field_points(curve, k_max):
        return p
    raise ExtensionBound(f"no point on {poly_print(curve)} within degree {k_max}")


# -- solve_system ---------------------------------------------------------------


def _direction_root(form: Poly, fld: FieldCtx) -> tuple[int, int]:
    """One root [x:y] in fld of an irreducible binary form in (x, y) that
    splits into linear factors over fld."""
    if form == Poly.var(form.ctx, form.vars, "y"):
        return (1, 0)
    dense = to_dense(dehomogenize(form, "y"), "x")
    return (_dense.one_root(fld, [embed_bits(form.ctx, fld, c) for c in dense]), 1)


def _z_gcd(polys: list[Poly], x0: int, y0: int, fld: FieldCtx) -> list[int]:
    """Dense gcd over fld of the g(x0, y0, z) that do not vanish identically."""
    h: list[int] = []
    for g in polys:
        s = to_dense(specialize(g, fld, (x0, y0)), "z")
        if s:
            h = _dense.gcd(fld, h, s) if h else s
    if not h:  # pragma: no cover - excluded by finiteness
        raise AssertionError("all inputs vanish along a whole line")
    return h


def _resultant_forms(polys: list[Poly]) -> list[Poly]:
    """The z-free inputs and the nonzero pairwise z-resultants of the others,
    as binary forms in (x, y); each vanishes on every solution direction.

    Res_z(f, g) vanishes exactly when f and g share a factor of positive
    z-degree, so a nonempty list proves that no common factor of the inputs
    has positive z-degree.
    """
    xy = ("x", "y")
    collected = [p.with_vars(xy) for p in polys if p.degree_in("z") <= 0]
    zpos = [p for p in polys if p.degree_in("z") > 0]
    for f, g in itertools.combinations(zpos, 2):
        r = resultant(f, g, "z")
        if not r.is_zero():
            collected.append(r.with_vars(xy))
    return collected


def _coefficient_forms_coprime(polys: list[Poly]) -> bool:
    """Whether no nonconstant binary form in (x, y) divides every input: a
    form divides a polynomial exactly when it divides each of its
    z-coefficients, so this asks whether the gcd of all inputs'
    z-coefficients is constant."""
    acc = None
    for p in polys:
        forms: dict[int, list] = {}
        for (ex, ey, ez), c in p.items():
            forms.setdefault(ez, []).append(((ex, ey), c))
        for terms in forms.values():
            form = Poly.from_terms(p.ctx, ("x", "y"), terms)
            acc = form if acc is None else binary_gcd(acc, form)
            if acc.is_constant():
                return True
    return False


def _direction_eliminant(polys: list[Poly], collected: list[Poly]) -> Poly:
    """A nonzero binary form in (x, y) vanishing on all solution directions,
    for a system with finite zero locus, from its :func:`_resultant_forms`."""
    if not collected:
        # Every pair of z-positive inputs shares a z-positive factor.  Adding
        # ideal elements g_i + monomial * g_j preserves the zero set and
        # breaks the shared factors.
        xy = ("x", "y")
        zpos = [p for p in polys if p.degree_in("z") > 0]
        for f, g in itertools.combinations(zpos, 2):
            df, dg = f.total_degree(), g.total_degree()
            if df < dg:
                f, g = g, f
                df, dg = dg, df
            gap = df - dg
            for mono in plane_monomials(gap):
                h = f + g * Poly.from_terms(f.ctx, f.vars, [(mono, 1)])
                if h.is_zero():
                    continue
                for other in zpos:
                    if other in (f, g):
                        continue
                    r = resultant(h, other, "z")
                    if not r.is_zero():
                        collected.append(r.with_vars(xy))
                if not collected and h.degree_in("z") > 0:
                    r = resultant(h, g, "z")
                    if not r.is_zero():
                        collected.append(r.with_vars(xy))
                if collected:
                    break
            if collected:
                break
        if not collected:
            raise EliminationDegenerate("elimination degenerated; could not build an eliminant")
    acc = collected[0]
    for item in collected[1:]:
        acc = binary_gcd(acc, item)
        if acc.is_constant():
            break
    return acc


def plane_monomials(d: int):
    """Exponent vectors of the degree-d monomials in x, y, z, x-heaviest first."""
    for ex in range(d, -1, -1):
        for ey in range(d - ex, -1, -1):
            yield (ex, ey, d - ex - ey)


def solve_system(
    polys: list[Poly], k_max: int = 24, within: AlgebraicPointSet | None = None
) -> AlgebraicPointSet:
    """All common projective zeros over the algebraic closure.

    Requires a finite zero locus (the gcd of the inputs must be constant) and
    extensions of degree at most k_max; certifies completeness by listing the
    degrees of the eliminant factors every coordinate is a root of.

    Finiteness is proved from the eliminant's own inputs: a z-free input or a
    nonzero pairwise z-resultant excludes common factors of positive
    z-degree, and coprime z-coefficient forms exclude z-free ones.  Only when
    this proof fails is the gcd of the inputs computed; a nonconstant gcd
    raises PositiveDimensional, before any ExtensionBound.  With ``within``,
    its result for a subsystem, the subsystem's direction forms stand in for
    the eliminant's factors and finiteness follows from its.
    """
    nonzero: list[Poly] = []
    ctx = None
    for p in polys:
        if p.is_zero():
            continue
        if ctx is None:
            ctx = p.ctx
        if p.ctx is not ctx or p.vars != BASE_VARS:
            raise ValueError("solve_system expects plane polynomials over one field")
        if is_homogeneous(p) is None:
            raise ValueError(f"inhomogeneous input: {poly_print(p)}")
        if p not in nonzero:
            nonzero.append(p)
    if ctx is None:
        raise PositiveDimensional(Poly.zero(field_new(1), BASE_VARS))
    if any(p.is_constant() for p in nonzero):
        return AlgebraicPointSet((), EliminationClosure(()))
    if within is None:
        collected = _resultant_forms(nonzero)
        if not (collected and _coefficient_forms_coprime(nonzero)):
            common = gcd_homogeneous_many(nonzero)
            if not common.is_constant():
                raise PositiveDimensional(common)
        eliminant = _direction_eliminant(nonzero, collected)
        forms = [] if eliminant.is_constant() else [f for f, _ in binary_form_factor(eliminant)]
    else:
        forms = within.directions

    bound = min(k_max, 64)
    degrees: list[int] = []
    points: list[ProjPoint] = []
    dirs: list[Poly] = []
    for form in forms:
        d = form.total_degree()
        degrees.append(d)
        if form == Poly.var(ctx, form.vars, "y"):
            dir_field = ctx
        elif ctx.k * d > bound:
            raise ExtensionBound(
                f"direction factor of degree {d} needs F_{{2^{ctx.k * d}}} > bound {bound}"
            )
        else:
            dir_field = field_new(ctx.k * d)
        # z-factor degree pattern at one root, shared by its conjugates
        x0, y0 = _direction_root(form, dir_field)
        h = _z_gcd(nonzero, x0, y0, dir_field)
        if _dense.deg(h) < 1:
            continue
        _, hfac = _dense.factor(dir_field, h)
        e_star = 1
        for coeffs, _m in hfac:
            e = _dense.deg(coeffs)
            degrees.append(e)
            e_star = math.lcm(e_star, e)
        K = ctx.k * d * e_star
        if K > bound:
            raise ExtensionBound(
                f"a z-root over the degree-{d} direction needs F_{{2^{K}}} > bound {bound}"
            )
        final = field_new(K)
        if final is not dir_field:  # embeddings do not compose: no tower, root again
            x0, y0 = _direction_root(form, final)
            h = _z_gcd(nonzero, x0, y0, final)
        dirs.append(form)
        for z0 in _dense.roots(final, h):
            p = ProjPoint(final, (x0, y0, z0))
            for _ in range(d):  # the d conjugate directions
                points.append(p)
                p = p.frobenius(ctx.q)

    if all(g.eval_bits(ctx, (0, 0, 1)) == 0 for g in nonzero):
        points.append(ProjPoint(ctx, (0, 0, 1)))

    for p in points:  # completeness sanity: every reported point solves the system
        if any(g.eval_bits(p.ctx, p.coords) != 0 for g in nonzero):  # pragma: no cover
            raise AssertionError("solver produced a non-solution")
    points.sort(key=lambda p: p.sort_key())
    return AlgebraicPointSet(tuple(points), EliminationClosure(tuple(sorted(degrees))), tuple(dirs))


def frobenius_orbits(points, q: int) -> list[list[ProjPoint]]:
    """The points grouped into orbits of the Frobenius p -> p^q
    (:meth:`ProjPoint.frobenius`), for F_q the field the points' equations
    are defined over.

    The points are visited in their order, a repeated point (same field,
    same coordinates) once; the first point of an orbit met is its
    representative and comes first.  From it the walk follows the
    Frobenius while the image is a point of the set not yet grouped, so
    member i of an orbit is the i-th Frobenius image of its representative.
    The walk ends at an image the set lacks: a result carried along an
    orbit reaches only conjugates the set contains.
    """
    index = {p.sort_key(): p for p in points}
    grouped: set = set()
    orbits = []
    for p in points:
        key = p.sort_key()
        if key in grouped:
            continue
        grouped.add(key)
        orbit = [p]
        image = p.frobenius(q).sort_key()
        while image in index and image not in grouped:
            grouped.add(image)
            orbit.append(index[image])
            image = index[image].frobenius(q).sort_key()
        orbits.append(orbit)
    return orbits


# -- plane-curve geometry -----------------------------------------------------


def singular_points(curve: Poly, k_max: int = 24) -> AlgebraicPointSet:
    """Singular locus over the closure, by the Jacobian criterion.

    In characteristic 2 the Euler relation only ties the curve to its
    partials in even degree, so the curve itself always joins the system.
    The system has a positive-dimensional zero locus exactly when the curve
    has a repeated factor (g^2 divides g^2 h and each of its partials, and
    an irreducible factor dividing its own partials would be a square), so
    solve_system's finiteness test is the squarefreeness test: its
    PositiveDimensional becomes NotSquarefree.
    """
    if curve.is_zero() or is_homogeneous(curve) in (None, "zero"):
        raise ValueError("singular_points expects a nonzero homogeneous curve")
    system = [curve] + [partial_derivative(curve, v) for v in BASE_VARS]
    try:
        return solve_system([p for p in system if not p.is_zero()], k_max)
    except PositiveDimensional:
        raise NotSquarefree(f"{poly_print(curve)} has a repeated factor; pass the reduced curve") from None


def _independent(d1: list[Poly], d2: list[Poly], p: ProjPoint) -> bool:
    """The gradients at p, from the partials d1 and d2, are nonzero and independent."""
    g1, g2 = ([d.eval_bits(p.ctx, p.coords) for d in ds] for ds in (d1, d2))
    if not any(g1) or not any(g2):
        return False
    mul = p.ctx.mul
    return any(mul(g1[i], g2[j]) ^ mul(g1[j], g2[i]) for i, j in ((0, 1), (0, 2), (1, 2)))


def transversal_at(c1: Poly, c2: Poly, p: ProjPoint) -> bool:
    """Rank-2 gradient pair at p, with each curve individually smooth there."""
    for c in (c1, c2):
        if c.eval_bits(p.ctx, p.coords) != 0:
            raise NotOnCurve(f"{poly_print(c)} does not vanish at {p!r}")
    return _independent(*([partial_derivative(c, v) for v in BASE_VARS] for c in (c1, c2)), p)


def intersection_points(c1: Poly, c2: Poly, k_max: int = 24) -> AlgebraicPointSet:
    """Finite intersection with a Bezout certificate.

    Every point must be transversal; then the count of points equals the
    product of the degrees, and the certificate records it.  A tangency or a
    count mismatch raises BezoutMismatch.
    """
    for c in (c1, c2):
        if c.is_zero() or is_homogeneous(c) in (None, "zero"):
            raise ValueError("intersection_points expects nonzero homogeneous curves")
    try:
        found = solve_system([c1, c2], k_max)
    except PositiveDimensional as exc:
        raise CommonComponent(f"common component {poly_print(exc.common_factor)}") from None
    d1, d2 = ([partial_derivative(c, v) for v in BASE_VARS] for c in (c1, c2))
    for p in found.points:
        if not _independent(d1, d2, p):
            raise BezoutMismatch(f"non-transversal intersection at {p!r}", witness=p)
    expected = c1.total_degree() * c2.total_degree()
    if len(found.points) != expected:
        raise BezoutMismatch(
            f"transversal everywhere but found {len(found.points)} of {expected} points"
        )
    return AlgebraicPointSet(found.points, BezoutCount(expected, len(found.points)))


# -- total-space smoothness along degenerate fibers ------------------------------


def _fiber_lines(v: dict, ctx: FieldCtx, ftype: FiberType):
    """Lines of the reduced fiber of the conic with section values v in ctx,
    as (field, w1, w2) with [s:t] -> s*w1 + t*w2."""
    if ftype is FiberType.DOUBLE_LINE:
        lam = (ctx.sqrt(v["aa"]), ctx.sqrt(v["bb"]), ctx.sqrt(v["cc"]))
        if all(c == 0 for c in lam):
            raise UnreducedParametrization("double line with no reduced line; internal bug")
        i = next(k for k, c in enumerate(lam) if c)
        inv = ctx.inv(lam[i])
        basis = []
        for j in range(3):
            if j == i:
                continue
            w = [0, 0, 0]
            w[j] = 1
            w[i] = ctx.mul(lam[j], inv)
            basis.append(tuple(w))
        return [(ctx, basis[0], basis[1])]
    n, (i, j), (qi, bij, qj) = cross_splitting_form(v)
    # line directions through n: roots of the splitting form qi*T^2 + bij*T + qj
    lines = []
    root_data: list[tuple[FieldCtx, tuple[int, int]]] = []
    roots = _dense.roots(ctx, _dense.trim([qj, bij, qi]))
    if qi == 0:
        root_data.append((ctx, (1, 0)))
    for r in roots:
        root_data.append((ctx, (r, 1)))
    if len(root_data) < 2:
        if 2 * ctx.k > 64:
            raise ExtensionBound("cross lines need a quadratic extension beyond the word bound")
        ext = field_new(2 * ctx.k)
        roots2 = _dense.roots(ext, [embed_bits(ctx, ext, qj), embed_bits(ctx, ext, bij), embed_bits(ctx, ext, qi)])
        root_data = [(ext, (r, 1)) for r in roots2]
    if len(root_data) != 2:  # pragma: no cover - defensive
        raise AssertionError("a cross fiber must have exactly two line directions")
    for fld, (al, be) in root_data:
        w = [0, 0, 0]
        w[i] = al
        w[j] = be
        nf = tuple(embed_bits(ctx, fld, c) for c in n)
        lines.append((fld, nf, tuple(w)))
    return lines


# (i, j, key): the fiber monomial w_i*w_j that section `key` multiplies
_FIBER_PAIRS = tuple((FIBER_VARS.index(k[0]), FIBER_VARS.index(k[1]), k) for k in SECTION_KEYS)


def smooth_along_fiber(spec: ConicBundleSpec, p: ProjPoint) -> bool:
    """No singular point of the total space on the (degenerate) fiber over p.

    Singularity does not depend on the chart, so the base chart where p's
    first nonzero coordinate is 1 suffices; there the fiber coordinates need
    no twist.  On it the conic form F = sum_k S_k(u) m_k(a, b, c) has five
    partials, read off the section jet at p (:func:`conic.section_jet`):
    the two quadratic forms sum_k dS_k/du_i(p) m_k and the three linear
    forms dF/da = s_ab b + s_ac c, dF/db = s_ab a + s_bc c and
    dF/dc = s_ac a + s_bc b.  Along each line s*w1 + t*w2 of the reduced
    fiber a quadratic form Q becomes Q(w1) s^2 + B(w1, w2) st + Q(w2) t^2,
    with B its polar form, and a linear form L becomes L(w1) s + L(w2) t;
    the gcd of these binary forms is constant exactly when the line carries
    no singular point.  Both lines of a cross, and with them the
    intersection point, are covered.
    """
    jet = section_jet(spec, p)
    v = jet.value
    ftype = fiber_type(v, p.ctx)
    if ftype not in (FiberType.CROSS, FiberType.DOUBLE_LINE):
        raise FiberNotDegenerate(f"fiber over {p!r} is {ftype}")
    ab, ac, bc = v["ab"], v["ac"], v["bc"]
    linear = ((0, ab, ac), (ab, 0, bc), (ac, bc, 0))
    st = ("s", "t")
    for fld, w1, w2 in _fiber_lines(v, p.ctx, ftype):
        mul = fld.mul
        binaries = []
        for q in (jet.d1, jet.d2):
            q = {key: embed_bits(p.ctx, fld, c) for key, c in q.items()}
            q1 = q2 = polar = 0
            for i, j, key in _FIBER_PAIRS:
                q1 ^= mul(q[key], mul(w1[i], w1[j]))
                q2 ^= mul(q[key], mul(w2[i], w2[j]))
                if i != j:
                    polar ^= mul(q[key], mul(w1[i], w2[j]) ^ mul(w1[j], w2[i]))
            binaries.append(Poly.from_terms(fld, st, [((2, 0), q1), ((1, 1), polar), ((0, 2), q2)]))
        for coeffs in linear:
            lin = [embed_bits(p.ctx, fld, c) for c in coeffs]
            l1 = l2 = 0
            for c, x1, x2 in zip(lin, w1, w2):
                l1 ^= mul(c, x1)
                l2 ^= mul(c, x2)
            binaries.append(Poly.from_terms(fld, st, [((1, 0), l1), ((0, 1), l2)]))
        binaries = [b for b in binaries if not b.is_zero()]
        if not binaries:
            return False
        acc = binaries[0]
        for b in binaries[1:]:
            acc = binary_gcd(acc, b)
            if acc.is_constant():
                break
        if not acc.is_constant():
            return False
    return True


def cross_node(jet) -> tuple[tuple[str, str], ProjPoint, bool]:
    """Chart, fiber singular point n and ordinary-node verdict above a
    point, given its section jet (:func:`conic.section_jet`).

    n = (s_bc, s_ac, s_ab) is the radical of the conic's bilinear form
    (:func:`conic.radical_point`), and the chart is the one where
    the first nonzero coordinates of p and of n are 1.  On it the total
    space is f(u, t) = sum_k S_k(u) M_k(t), with M_k the fiber monomial of
    section k with n's first nonzero coordinate set to 1.  The value,
    gradient and mixed partials of f at (p, n) follow from the jet by the
    product rule, so no chart equation is built; the verdict is then
    :func:`ordinary_node_check`'s, with the same NotSingularHere errors.
    A point whose fiber is a double line raises ValueError.
    """
    ctx = jet.point.ctx
    n = radical_point(jet.value, ctx)
    vi = next(k for k, c in enumerate(n.coords) if c)
    t = [k for k in range(3) if k != vi]
    mul, nc = ctx.mul, n.coords
    value, grad = 0, [0, 0, 0, 0]
    b = dict.fromkeys(itertools.combinations(range(4), 2), 0)
    for i, j, key in _FIBER_PAIRS:
        s, s1, s2 = jet.value[key], jet.d1[key], jet.d2[key]
        m = mul(nc[i], nc[j])
        value ^= mul(s, m)
        grad[0] ^= mul(s1, m)
        grad[1] ^= mul(s2, m)
        b[0, 1] ^= mul(jet.d12[key], m)
        if i == j:
            continue  # d(w_i^2) = 2 w_i = 0
        for a, ta in enumerate(t, start=2):
            dm = nc[j] if ta == i else nc[i] if ta == j else 0
            grad[a] ^= mul(s, dm)
            b[0, a] ^= mul(s1, dm)
            b[1, a] ^= mul(s2, dm)
        if vi not in (i, j):
            b[2, 3] ^= s
    chart = (BASE_VARS[jet.chart], FIBER_VARS[vi])
    return chart, n, _node_verdict(value, grad, b, ctx)


def ordinary_node_check(chart_eq: Poly, point: tuple, ctx_q: FieldCtx) -> bool:
    """Nondegenerate quadratic part at a singular chart point.

    In characteristic 2 nondegeneracy of a 4-variable quadratic form is full
    rank of its alternating bilinear form B(u, w) = Q(u+w) + Q(u) + Q(w): any
    nonzero radical of B carries a zero of Q over a perfect field, i.e. a
    singular point of the projectivized tangent cone.  For i != j the entry
    B_ij is the coefficient of u_i*u_j in f(p + u), which is the mixed partial
    d_i d_j f(p) in every characteristic; a 4x4 alternating matrix has full
    rank exactly when its Pfaffian B01*B23 + B02*B13 + B03*B12 is nonzero.

    f(p), the gradient and the mixed partials are read from derivative
    polynomials (:func:`poly.partial_derivative`) evaluated at p.  The
    certifier takes the same verdict from the section jet
    (:func:`cross_node`) and never calls this check.
    """
    if len(chart_eq.vars) != 4:
        raise ValueError("ordinary_node_check expects a 4-variable chart equation")
    firsts = [partial_derivative(chart_eq, v) for v in chart_eq.vars]
    mixed = {
        (i, j): partial_derivative(firsts[i], chart_eq.vars[j]).eval_bits(ctx_q, point)
        for i, j in itertools.combinations(range(4), 2)
    }
    grad = [d.eval_bits(ctx_q, point) for d in firsts]
    return _node_verdict(chart_eq.eval_bits(ctx_q, point), grad, mixed, ctx_q)


def _node_verdict(value: int, grad: list[int], b: dict, ctx: FieldCtx) -> bool:
    """ordinary_node_check's verdict from f(p), the gradient and the mixed
    partials {(i, j): d_i d_j f(p)}: f(p) must vanish, then the gradient,
    then the Pfaffian of the mixed partials decides."""
    if value != 0:
        raise NotSingularHere("the equation does not vanish at the point")
    if any(grad):
        raise NotSingularHere("the gradient does not vanish at the point")
    mul = ctx.mul
    return (mul(b[0, 1], b[2, 3]) ^ mul(b[0, 2], b[1, 3]) ^ mul(b[0, 3], b[1, 2])) != 0
