"""Closed-form fiber facts against the line-walking and chart oracles.

``geom.fiber_smooth`` decides smoothness of the total space along a cross
from the radical n of the fiber's bilinear form, and along a double line
from the resultant of two binary quadratics on its reduced line;
``geom.cross_node`` reads the node verdict off n's monomials.  Neither
needs the fiber's lines or an extension field.  The oracles are
``_helpers.chart_smooth_along_fiber``, which walks the lines of the reduced
fiber on every base chart containing the point (over F_{q^2} when a cross's
lines are conjugate), and ``ordinary_node_check`` on the chart equation.
"""

import random
from collections import Counter
from itertools import islice

import pytest

from conic2.conic import (
    BASE_VARS,
    FIBER_VARS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    chart_equation,
    discriminant,
    fiber_type,
    radical_point,
    section_jet,
    sigma_generators,
    spec_validate,
)
from conic2.geom import (
    EliminationDegenerate,
    ExtensionBound,
    FiberNotDegenerate,
    NotSingularHere,
    NotSquarefree,
    PositiveDimensional,
    cross_node,
    ordinary_node_check,
    singular_points,
    small_field_points,
    smooth_along_fiber,
    solve_system,
)
from conic2.gf2k import field_new
from conic2.poly import Poly

from _helpers import chart_smooth_along_fiber, rand_homogeneous, rand_spec, vanish_at

F2, F4, F16 = field_new(1), field_new(2), field_new(4)


def _points(rng, spec):
    """Sigma's points, points of Delta and of its singular locus over small
    extensions, and random points over the spec's field and its square."""
    out = []
    for solve in (lambda: solve_system(list(sigma_generators(spec)), 8),
                  lambda: singular_points(discriminant(spec), 8)):
        try:
            out += solve().points
        except (PositiveDimensional, NotSquarefree, ExtensionBound, EliminationDegenerate):
            pass
    on_delta = list(islice(small_field_points(discriminant(spec), 2 * spec.ctx.k), 400))
    out += rng.sample(on_delta, min(12, len(on_delta)))
    for k in (spec.ctx.k, 2 * spec.ctx.k):
        ctx = field_new(k)
        for _ in range(3):
            coords = [rng.randrange(ctx.q) for _ in range(3)]
            if any(coords):
                out.append(ProjPoint(ctx, coords))
    return out


def _spec(rng, ctx):
    """A random spec over ctx, half the time with its off-diagonal sections
    planted to vanish at a point of ctx, so that Sigma is not empty."""
    spec = rand_spec(rng, ctx, max_entry_degree=rng.choice((1, 2)))
    if rng.random() < 0.5:
        p = [rng.randrange(ctx.q) for _ in range(3)]
        if any(p):
            sections = dict(spec.sections)
            for key in ("ab", "ac", "bc"):
                sections[key] = vanish_at(rng, ctx, spec.forced_degree(key), tuple(p))
            spec = ConicBundleSpec(ctx, spec.degree_vector, spec.value_degree, sections)
    return spec


def _chart_node(spec, p, charts):
    """ordinary_node_check's outcome at (p, n) on the chart where the first
    nonzero coordinates of p and n are 1, or its NotSingularHere message."""
    n = radical_point(section_jet(spec, p).value, p.ctx)
    wi = next(k for k, c in enumerate(p.coords) if c)
    vi = next(k for k, c in enumerate(n.coords) if c)
    chart = (BASE_VARS[wi], FIBER_VARS[vi])
    if chart not in charts:
        charts[chart] = chart_equation(spec, *chart).equation
    point = p.coords[:wi] + p.coords[wi + 1:] + n.coords[:vi] + n.coords[vi + 1:]
    try:
        return chart, n, ordinary_node_check(charts[chart], point, p.ctx)
    except NotSingularHere as exc:
        return chart, n, str(exc)


def test_closed_forms_match_the_line_walk_and_the_chart_node_check():
    rng = random.Random(1717)
    fibers, nodes = Counter(), Counter()
    for ctx, count in ((F2, 30), (F4, 24), (F16, 10)):
        done = 0
        while done < count:
            spec = _spec(rng, ctx)
            try:
                spec_validate(spec)
            except ValueError:
                continue
            if discriminant(spec).is_zero():
                continue
            done += 1
            charts: dict = {}
            for p in _points(rng, spec):
                jet = section_jet(spec, p)
                ftype = fiber_type(jet.value, p.ctx)
                if ftype in (FiberType.CROSS, FiberType.DOUBLE_LINE):
                    verdict = smooth_along_fiber(spec, p)
                    assert verdict == chart_smooth_along_fiber(spec, p), (spec.sections, p)
                    fibers[ftype, verdict] += 1
                else:
                    with pytest.raises(FiberNotDegenerate):
                        smooth_along_fiber(spec, p)
                if ftype in (FiberType.DOUBLE_LINE, FiberType.NOT_CONIC):
                    with pytest.raises(ValueError):
                        cross_node(jet)
                    continue
                chart, n, expected = _chart_node(spec, p, charts)
                try:
                    got = cross_node(jet)
                except NotSingularHere as exc:
                    got = (chart, n, str(exc))
                assert got == (chart, n, expected), (spec.sections, p)
                nodes[expected] += 1
    assert all(fibers[t, v] >= 10 for t in (FiberType.CROSS, FiberType.DOUBLE_LINE) for v in (True, False))
    assert nodes[True] >= 10 and nodes[False] >= 10
    assert nodes["the equation does not vanish at the point"] >= 10
    assert nodes["the gradient does not vanish at the point"] >= 10


def test_cross_with_conjugate_lines_over_f_2_40_gets_a_verdict():
    # Over F_{2^40} a cross whose lines are conjugate needs F_{2^80} to walk
    # its lines, beyond the word bound; the closed form stays in F_{2^40}.
    # Sections of degree vector (0, 0, 1): constants aa, bb, ab with
    # Tr(aa bb / ab^2) = 1, so the splitting form aa T^2 + ab T + bb is
    # irreducible; ac and bc vanish at p, so n = (0, 0, ab(p)); cc vanishes
    # at p, so Delta(p) = ab^2 cc(p) = 0.  The total space is singular at
    # (p, n) exactly when cc's gradient vanishes at p, as it does for a
    # square cc = l^2.  ordinary_node_check at (p, n) on the chart equation
    # raises NotSingularHere exactly when the fiber is smooth.
    ctx = field_new(40)
    rng = random.Random(4040)
    verdicts = []
    for square in (False, True, False):
        p = ProjPoint(ctx, (1, rng.randrange(ctx.q), rng.randrange(ctx.q)))
        while True:
            aa, bb, ab = (rng.randrange(1, ctx.q) for _ in range(3))
            if ctx.trace(ctx.mul(ctx.mul(aa, bb), ctx.inv(ctx.sq(ab)))) == 1:
                break
        line = Poly.zero(ctx, BASE_VARS)
        while line.is_zero():
            line = vanish_at(rng, ctx, 1, p.coords)
        other = rand_homogeneous(rng, ctx, 1)
        if other.eval_bits(ctx, p.coords) == 0:  # p_x = 1, so other + x does not vanish at p
            other = other + Poly.var(ctx, BASE_VARS, "x")
        aa, bb, ab = (Poly.const(ctx, BASE_VARS, c) for c in (aa, bb, ab))
        spec = ConicBundleSpec(ctx, (0, 0, 1), 0, {
            "aa": aa, "bb": bb, "ab": ab,
            "ac": vanish_at(rng, ctx, 1, p.coords), "bc": vanish_at(rng, ctx, 1, p.coords),
            "cc": line * (line if square else other),
        })
        spec_validate(spec)
        jet = section_jet(spec, p)
        assert fiber_type(jet.value, ctx) is FiberType.CROSS
        with pytest.raises(ExtensionBound):
            chart_smooth_along_fiber(spec, p)  # the line walk cannot decide it
        verdict = smooth_along_fiber(spec, p)
        _, _, node = _chart_node(spec, p, {})
        assert isinstance(node, str) == verdict
        assert verdict is not square
        try:
            assert cross_node(jet)[2] == node
        except NotSingularHere as exc:
            assert str(exc) == node
        verdicts.append(verdict)
    assert verdicts == [True, False, True]
