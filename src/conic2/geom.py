"""Exact geometry of plane curves and of the conic-bundle total space.

The workhorse is :func:`solve_system`: all common projective zeros, over the
algebraic closure, of homogeneous polynomials in x, y, z with finite common
zero locus.  Elimination produces a binary form whose roots are the
candidate [x:y] directions.  Each irreducible direction factor, of degree d
over F_q, is solved at one root, inside the one extension its z-roots need
(one embedding hop from F_q, never a tower); the other d - 1 directions carry
the Frobenius images (x, y, z) -> (x^q, y^q, z^q).  The recorded eliminant
factor degrees certify that no root was missed (EliminationClosure).  A system
containing the inputs of a solved set vanishes only at its points, so it is
solved by keeping the points where its other inputs vanish; where a kept
point lies in a smaller field than the one it is written over, the system is
solved again on the direction forms the set keeps, which carry its points.
Transversal intersections carry an independent Bezout count certificate
instead.

Explicit rational points of a curve, over the fields F_{q^e} up to a bound,
come from :func:`small_field_points`: the points on a line are the roots of
the curve restricted to it, so a field costs one root finding per line.

Smoothness of the total space along a degenerate fiber, and the ordinary
nodes above component intersections, are read from the six sections' jet
(value, first partials and mixed partial) at one base point per Frobenius
orbit (:func:`frobenius_orbits`): the sections have coefficients in F_q, so
the jet at p^q is the jet at p with each entry raised to the q-th power, and
the zero tests that decide the fiber type, the chart, the node and
smoothness come out the same at p^q as at p.  In characteristic 2 the
fiber conic's bilinear form is alternating, so a cross can be singular only
at its radical and a double line only where two binary quadratics on its
reduced line meet: :func:`fiber_smooth` and :func:`cross_node` decide both
in closed form from the jet, in the point's field.
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
    DIAGONAL,
    FIBER_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
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
    """fiber_smooth and smooth_along_fiber need a Cross or DoubleLine fiber."""


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
    # solve_system's irreducible direction forms in (x, y); its points lie on them
    directions: tuple[Poly, ...] = field(default=(), compare=False, repr=False)

    def serialize(self) -> dict:
        """The set as certificate data."""
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
        return {"points": [p.serialize() for p in self.points], "certificate": cert}


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
    raises PositiveDimensional, before any ExtensionBound.

    ``within`` is this function's result for a subsystem, solved with the same
    k_max, so every zero is one of its points: the points of ``within`` at
    which every input vanishes are returned, in its order, with its closure
    as their certificate.  A kept point written over F_{2^K} whose
    coordinates all lie in a proper subfield containing F_q would be written
    over that subfield by a solve of this system, so then the system is
    solved on ``within``'s direction forms instead, its finiteness following
    from that of ``within``.
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
    if within is not None:
        kept = tuple(p for p in within.points
                     if all(g.eval_bits(p.ctx, p.coords) == 0 for g in nonzero))
        if not any(_in_proper_subfield(p, ctx.k) for p in kept):
            return AlgebraicPointSet(kept, within.certificate, within.directions)
        return _solve_on_directions(nonzero, within.directions, k_max)
    collected = _resultant_forms(nonzero)
    if not (collected and _coefficient_forms_coprime(nonzero)):
        common = gcd_homogeneous_many(nonzero)
        if not common.is_constant():
            raise PositiveDimensional(common)
    eliminant = _direction_eliminant(nonzero, collected)
    forms = [] if eliminant.is_constant() else [f for f, _ in binary_form_factor(eliminant)]
    return _solve_on_directions(nonzero, forms, k_max)


def _in_proper_subfield(p: ProjPoint, k: int) -> bool:
    """Whether p's coordinates, over F_{2^K}, all lie in a proper subfield
    that contains F_{2^k}: in F_{2^(K/r)}, where c^(2^(K/r)) = c, for some
    prime r dividing K/k."""
    fld = p.ctx
    n, r = fld.k // k, 2
    while n > 1:  # r runs through the primes dividing K/k, each removed whole
        if n % r == 0:
            e = 1 << (fld.k // r)
            if all(fld.pow(c, e) == c for c in p.coords):
                return True
            while n % r == 0:
                n //= r
        r += 1
    return False


def _solve_on_directions(nonzero: list[Poly], forms, k_max: int) -> AlgebraicPointSet:
    """The common zeros of the nonzero inputs, over one field F_q, whose [x:y]
    is a root of one of the irreducible binary forms, and [0:0:1] if it is
    one; the forms must carry every other zero."""
    ctx = nonzero[0].ctx
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


# (i, j, key): the fiber monomial w_i*w_j that section `key` multiplies
_FIBER_PAIRS = tuple((FIBER_VARS.index(k[0]), FIBER_VARS.index(k[1]), k) for k in SECTION_KEYS)
# d/dw_t of sum_k q_k m_k is q_k1 w_o1 + q_k2 w_o2, for ((k1, o1), (k2, o2)) = _POLAR[t]
_POLAR = ((("ab", 1), ("ac", 2)), (("ab", 0), ("bc", 2)), (("ac", 0), ("bc", 1)))


def _monomials(w: tuple, mul) -> list[int]:
    """The six fiber monomials w_i*w_j at w, in section-key order."""
    return [mul(w[i], w[j]) for i, j, _ in _FIBER_PAIRS]


def _form_at(q: dict, monos: list[int], mul) -> int:
    """sum_k q_k m_k(w), for the :func:`_monomials` of w."""
    acc = 0
    for key, m in zip(SECTION_KEYS, monos):
        acc ^= mul(q[key], m)
    return acc


def fiber_smooth(jet) -> bool:
    """No singular point of the total space on the degenerate fiber above a
    point, given its section jet (:func:`conic.section_jet`).

    On the jet's base chart the total space F = sum_k S_k(u) m_k(w) has, on
    the fiber, the partials Q_i = sum_k dS_k/du_i(p) m_k and the rows dF/dw
    of the fiber conic's bilinear form, alternating in characteristic 2.
    A cross is smooth iff Q_1 or Q_2 is nonzero at the radical
    n = (s_bc, s_ac, s_ab), the one fiber point where the rows vanish.  On a
    double line the rows vanish; on its reduced line lambda . w = 0,
    lambda = sqrt(s_aa, s_bb, s_cc), with basis w1, w2, Q_i is the binary
    quadratic (a, b, c) = (Q_i(w1), B_i(w1, w2), Q_i(w2)), and the fiber is
    smooth iff both are nonzero with resultant
    (a c' + a' c)^2 + (a b' + a' b)(b c' + b' c) != 0.  No extension field
    is needed.  Any other fiber raises FiberNotDegenerate.
    """
    ctx, v = jet.point.ctx, jet.value
    mul = ctx.mul
    ftype = fiber_type(v, ctx)
    if ftype is FiberType.CROSS:
        monos = _monomials((v["bc"], v["ac"], v["ab"]), mul)
        return _form_at(jet.d1, monos, mul) != 0 or _form_at(jet.d2, monos, mul) != 0
    if ftype is not FiberType.DOUBLE_LINE:
        raise FiberNotDegenerate(f"fiber over {jet.point!r} is {ftype}")
    lam = [ctx.sqrt(v[k]) for k in DIAGONAL]
    i = next(k for k, c in enumerate(lam) if c)
    inv = ctx.inv(lam[i])
    w1, w2 = (tuple(mul(lam[j], inv) if k == i else int(k == j) for k in range(3))
              for j in range(3) if j != i)
    monos = [_monomials(w, mul) for w in (w1, w2, tuple(x ^ y for x, y in zip(w1, w2)))]
    (a, c, s), (a2, c2, s2) = ([_form_at(q, m, mul) for m in monos] for q in (jet.d1, jet.d2))
    b, b2 = s ^ a ^ c, s2 ^ a2 ^ c2  # B(w1, w2) = Q(w1 + w2) + Q(w1) + Q(w2)
    if not (a or b or c) or not (a2 or b2 or c2):
        return False  # one restriction vanishes on the line, the other has a root there
    res = ctx.sq(mul(a, c2) ^ mul(a2, c)) ^ mul(mul(a, b2) ^ mul(a2, b), mul(b, c2) ^ mul(b2, c))
    return res != 0


def smooth_along_fiber(spec: ConicBundleSpec, p: ProjPoint) -> bool:
    """No singular point of the total space on the (degenerate) fiber over p:
    :func:`fiber_smooth` of the section jet at p, with its FiberNotDegenerate.
    Singularity does not depend on the chart, so the jet's chart, where p's
    first nonzero coordinate is 1 and the fiber coordinates need no twist,
    suffices."""
    return fiber_smooth(section_jet(spec, p))


def cross_node(jet) -> tuple[tuple[str, str], ProjPoint, bool]:
    """Chart, fiber singular point n and ordinary-node verdict above a
    point, given its section jet (:func:`conic.section_jet`).

    n = (s_bc, s_ac, s_ab) is the radical of the conic's bilinear form
    (:func:`conic.radical_point`), and the chart is the one where the first
    nonzero coordinates of p and of n are 1; t_a, t_b are the other fiber
    coordinates.  With Q_1, Q_2, Q_12 the forms with the jet's partials as
    coefficients, the total space f(u, t) = sum_k S_k(u) M_k(t) has at
    (p, n) the value F(n) and the gradient (Q_1(n), Q_2(n), 0, 0), since the
    t-partials are rows of the bilinear form at its radical; its mixed
    partials are b01 = Q_12(n), the polar forms dQ_i/dw_t(n) for t = t_a,
    t_b, and b23 = s_{t_a t_b}.  n's six monomials are formed once.  The
    verdict is :func:`ordinary_node_check`'s, with the same NotSingularHere
    errors.  A point whose fiber is a double line raises ValueError.
    """
    ctx = jet.point.ctx
    mul = ctx.mul
    n = radical_point(jet.value, ctx)
    nc = n.coords
    vi = next(k for k, c in enumerate(nc) if c)
    ta, tb = (k for k in range(3) if k != vi)
    monos = _monomials(nc, mul)
    b = {(0, 1): _form_at(jet.d12, monos, mul), (2, 3): jet.value[FIBER_VARS[ta] + FIBER_VARS[tb]]}
    for i, q in enumerate((jet.d1, jet.d2)):
        for a, t in ((2, ta), (3, tb)):
            (k1, o1), (k2, o2) = _POLAR[t]
            b[i, a] = mul(q[k1], nc[o1]) ^ mul(q[k2], nc[o2])
    grad = [_form_at(jet.d1, monos, mul), _form_at(jet.d2, monos, mul)]
    chart = (BASE_VARS[jet.chart], FIBER_VARS[vi])
    return chart, n, _node_verdict(_form_at(jet.value, monos, mul), grad, b, ctx)


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
