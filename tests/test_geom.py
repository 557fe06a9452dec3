"""Geometry layer: solve_system, singular loci, intersections, smoothness."""

import random
from collections import Counter

import pytest

from conic2.cli import load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    FIBER_VARS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    chart_equation,
    classify_fiber,
    cross_singular_point,
    discriminant,
    section_jet,
    spec_validate,
)
from conic2.geom import (
    BezoutCount,
    BezoutMismatch,
    CommonComponent,
    EliminationClosure,
    ExtensionBound,
    FiberNotDegenerate,
    NotOnCurve,
    NotSquarefree,
    NotSingularHere,
    PositiveDimensional,
    cross_node,
    intersection_points,
    ordinary_node_check,
    point_on_curve,
    singular_points,
    small_field_points,
    smooth_along_fiber,
    solve_system,
    transversal_at,
)
from conic2.gf2k import field_new
from conic2.poly import Poly, partial_derivative, plane_poly, poly_parse, poly_print, substitute

from _helpers import (
    brute_fiber_singular_points,
    brute_ordinary_node,
    brute_small_field_points,
    brute_solutions,
    chart_smooth_along_fiber,
    enumerate_plane_points,
    rand_homogeneous,
    rand_spec,
    vanish_at,
)

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)


# -- solve_system -----------------------------------------------------------------


def test_solve_system_sigma_of_example_81():
    pts = solve_system([plane_poly("x"), plane_poly("y^2*z^2")])
    assert [p.serialize() for p in pts.points] == [
        ["F2:0", "F2:0", "F2:1"],
        ["F2:0", "F2:1", "F2:0"],
    ]
    assert isinstance(pts.certificate, EliminationClosure)


def test_solve_system_empty():
    pts = solve_system([plane_poly("x"), plane_poly("y"), plane_poly("z")])
    assert pts.points == ()


def test_solve_system_sixteen_points_structure():
    d1, d2 = plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")
    pts = solve_system([d1, d2])
    assert len(pts.points) == 16
    assert ProjPoint.parse("1:0:0", F2) in list(pts.points)
    # the other fifteen are [1 : w : w^4] with w^15 = 1
    for p in pts.points:
        q = p.embed_to(F16)
        x0, y0, z0 = q.coords
        assert x0 == 1
        if y0 == 0:
            assert z0 == 0
        else:
            assert F16.pow(y0, 15) == 1 and z0 == F16.pow(y0, 4)


def test_solve_system_matches_brute_force_on_corpus():
    from conic2.conic import sigma_generators

    systems = []
    for name in ("ex1", "ex3", "ex4", "ex5"):
        spec = load_corpus_spec(name)
        systems.append([s for s in sigma_generators(spec) if not s.is_zero()])
    systems.append([plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")])
    for system in systems:
        big = field_new(system[0].ctx.k * (4 // system[0].ctx.k))
        solved = solve_system(system)
        rational = sorted(
            p.embed_to(big).coords for p in solved.points if big.k % p.ctx.k == 0
        )
        brute = sorted(p.coords for p in brute_solutions([g.embed_to(big) for g in system], big))
        assert rational == brute


def test_solve_system_positive_dimensional():
    with pytest.raises(PositiveDimensional) as err:
        solve_system([plane_poly("x*y")])
    assert not err.value.common_factor.is_constant()
    with pytest.raises(PositiveDimensional):
        solve_system([plane_poly("x*y"), plane_poly("x*z")])


def test_solve_system_extension_bound():
    # directions of x^4 + x*y^3 + y^4 live in F_16: k_max = 2 is too small
    f = plane_poly("x^4 + x*y^3 + y^4")
    with pytest.raises(ExtensionBound):
        solve_system([f, plane_poly("z")], k_max=2)
    assert len(solve_system([f, plane_poly("z")], k_max=4).points) == 4


def test_solve_system_constant_input_gives_empty():
    pts = solve_system([plane_poly("1"), plane_poly("x")])
    assert pts.points == ()


def test_solve_system_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        solve_system([plane_poly("x + y^2"), plane_poly("z^2")])


# -- singular loci ------------------------------------------------------------------


def test_singular_points_examples():
    pts = singular_points(plane_poly("x^3*z + y^4"))
    assert [p.serialize() for p in pts.points] == [["F2:0", "F2:0", "F2:1"]]
    assert singular_points(plane_poly("y^2 + x*z")).points == ()
    with pytest.raises(NotSquarefree):
        singular_points(plane_poly("x^2*y"))


def test_singular_points_against_brute_force():
    from conic2.poly import partial_derivative

    for text in ("x^3*z + y^4", "x^2*y*z + x^2*z^2 + y^4 + y^2*z^2 + z^4",
                 "x*y^2 + x^2*y + x*y*z + x*z^2 + y^3"):
        f = plane_poly(text)
        system = [f] + [partial_derivative(f, v) for v in ("x", "y", "z")]
        system = [g.embed_to(F16) for g in system if not g.is_zero()]
        brute = sorted(p.coords for p in brute_solutions(system, F16))
        solved = singular_points(f)
        got = sorted(p.embed_to(F16).coords for p in solved.points if 4 % p.ctx.k == 0)
        assert got == brute


# -- intersections -----------------------------------------------------------------


def test_intersection_of_example_components():
    inter = intersection_points(plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4"))
    assert inter.certificate == BezoutCount(16, 16)


def test_intersection_of_lines():
    inter = intersection_points(plane_poly("x"), plane_poly("y"))
    assert inter.certificate == BezoutCount(1, 1)
    assert inter.points[0] == ProjPoint.parse("0:0:1", F2)


def test_tangential_intersection_raises():
    # x and x + y^2 on the z = 1 chart, i.e. the curves x and x*z + y^2
    with pytest.raises(BezoutMismatch) as err:
        intersection_points(plane_poly("x"), plane_poly("x*z + y^2"))
    assert err.value.witness == ProjPoint.parse("0:0:1", F2)


def test_common_component_raises():
    with pytest.raises(CommonComponent):
        intersection_points(plane_poly("x*y"), plane_poly("x*z"))


def test_bezout_counts_on_random_transversal_pairs():
    rng = random.Random(18)
    seen_certified = 0
    for _ in range(300):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        c1 = rand_homogeneous(rng, F2, d1, max_terms=4, nonzero=True)
        c2 = rand_homogeneous(rng, F2, d2, max_terms=4, nonzero=True)
        if c1.is_constant() or c2.is_constant():
            continue
        try:
            inter = intersection_points(c1, c2, k_max=24)
        except (BezoutMismatch, CommonComponent, ExtensionBound):
            continue
        assert inter.certificate.found == c1.total_degree() * c2.total_degree()
        for p in inter.points:
            assert transversal_at(c1, c2, p)
        seen_certified += 1
    assert seen_certified > 30


# -- transversality ------------------------------------------------------------------


def test_transversal_at_examples():
    d1, d2 = plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")
    assert transversal_at(d1, d2, ProjPoint.parse("1:0:0", F2))
    assert transversal_at(plane_poly("x"), plane_poly("y"), ProjPoint.parse("0:0:1", F2))
    assert not transversal_at(plane_poly("x"), plane_poly("x + y^2"), ProjPoint.parse("0:0:1", F2))
    with pytest.raises(NotOnCurve):
        transversal_at(d1, d2, ProjPoint.parse("0:1:1", F2))


# -- smoothness along degenerate fibers ------------------------------------------------


def test_smooth_along_fiber_example_81():
    spec = load_corpus_spec("ex1")
    assert smooth_along_fiber(spec, ProjPoint.parse("0:1:0", F2))
    assert smooth_along_fiber(spec, ProjPoint.parse("0:0:1", F2))
    with pytest.raises(FiberNotDegenerate):
        smooth_along_fiber(spec, ProjPoint.parse("0:1:1", F2))


def test_local_model_cross_is_singular_at_the_node():
    # conic y z a^2 + b c over the base chart x = 1: the total space is the
    # model node t1 t2 a^2 + bc, singular exactly above the origin.
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (1, 0, 0), 0,
        {"aa": plane_poly("y*z"), "ab": z, "ac": z, "bb": z, "bc": plane_poly("1"), "cc": z},
    )
    p = ProjPoint.parse("1:0:0", F2)
    assert classify_fiber(spec, p) is FiberType.CROSS
    assert not smooth_along_fiber(spec, p)
    # away from the intersection of the two discriminant branches it is smooth
    q = ProjPoint.parse("1:1:0", F2)
    assert classify_fiber(spec, q) is FiberType.CROSS
    assert smooth_along_fiber(spec, q)


def test_smooth_along_fiber_agrees_with_brute_force_on_corpus():
    cases = [
        ("ex1", "0:1:0", 4), ("ex1", "0:0:1", 4),
        ("ex3", "0:0:1", 4), ("ex3", "0:1:F4:2", 4), ("ex3", "0:1:F4:3", 4),
        ("ex4", "0:1:0", 4), ("ex4", "0:0:1", 4),
        ("ex5", "0:1:0", 4),
        ("rem_double_line", "0:0:1", 4), ("rem_double_line", "0:1:1", 4),
    ]
    for name, point, bigk in cases:
        spec = load_corpus_spec(name)
        p = ProjPoint.parse(point)
        if p.ctx.k % spec.ctx.k:
            p = p.embed_to(field_new(spec.ctx.k * p.ctx.k))
        big = field_new(bigk if bigk % spec.ctx.k == 0 else spec.ctx.k * bigk)
        verdict = smooth_along_fiber(spec, p)
        brute = brute_fiber_singular_points(spec, p, big)
        if brute:
            assert not verdict, (name, point)
        else:
            # no singular point rational over the sample field; the exact
            # verdict must then be smooth for these corpus cases
            assert verdict, (name, point)


def test_smooth_along_fiber_matches_chart_oracle_and_brute_force():
    # degenerate fibers over F4-points with two or three nonzero coordinates,
    # where the multi-chart oracle checks every chart with its twists.  Half
    # of the specs get off-diagonals forced to vanish at such a point, so
    # that double lines whose sections have nonzero partials there (the only
    # fibers where the polar term decides) are common.
    rng = random.Random(53)
    multi = [p for p in enumerate_plane_points(F4) if sum(1 for c in p.coords if c) >= 2]
    verdicts = Counter()
    while sum(verdicts.values()) < 100:
        forced = rng.random() < 0.5
        spec = rand_spec(rng, rng.choice((F2, F4)), max_entry_degree=1 + forced)
        if forced:
            p = rng.choice(multi)
            sections = dict(spec.sections)
            for key in ("ab", "ac", "bc"):
                sections[key] = vanish_at(rng, F4, spec.forced_degree(key), p.coords)
            spec = ConicBundleSpec(F4, spec.degree_vector, spec.value_degree, sections)
            points = [p]
        else:
            points = multi
        try:
            spec_validate(spec)
        except ValueError:
            continue
        points = [
            p for p in points
            if classify_fiber(spec, p) in (FiberType.CROSS, FiberType.DOUBLE_LINE)
        ]
        for p in points[:2]:
            verdict = smooth_along_fiber(spec, p)
            assert verdict == chart_smooth_along_fiber(spec, p), (spec.sections, p)
            brute = brute_fiber_singular_points(spec, p, F16)
            # on these inputs every singular fiber has an F16-rational singular point
            assert verdict == (not brute), (spec.sections, p)
            verdicts[verdict, classify_fiber(spec, p)] += 1
    assert all(verdicts[v, t] >= 3 for v in (True, False) for t in (FiberType.CROSS, FiberType.DOUBLE_LINE))


# -- ordinary nodes ---------------------------------------------------------------------


V4 = ("t1", "t2", "b", "c")


def test_ordinary_node_models():
    assert ordinary_node_check(poly_parse("t1*t2 + b*c", F2, V4), (0, 0, 0, 0), F2)
    assert not ordinary_node_check(poly_parse("t1^2 + b*c", F2, V4), (0, 0, 0, 0), F2)
    assert ordinary_node_check(poly_parse("t1*t2 + b^2 + b*c", F2, V4), (0, 0, 0, 0), F2)


def test_ordinary_node_requires_singular_point():
    with pytest.raises(NotSingularHere):
        ordinary_node_check(poly_parse("t1 + b*c", F2, V4), (0, 0, 0, 0), F2)
    with pytest.raises(NotSingularHere):
        ordinary_node_check(poly_parse("t1*t2 + b*c + 1", F2, V4), (0, 0, 0, 0), F2)
    # a chart equation has four variables, whatever the fields
    for base, ctx in ((F2, F4), (F4, F16)):
        with pytest.raises(ValueError):
            ordinary_node_check(poly_parse("x*y", base, ("x", "y", "z")), (0, 0, 0), ctx)


def test_ordinary_node_after_translation():
    # node moved to (1, 1, 0, 0)
    eq = poly_parse("t1*t2 + t1 + t2 + 1 + b*c", F2, V4)
    assert ordinary_node_check(eq, (1, 1, 0, 0), F2)


@pytest.mark.parametrize("ctx", [F2, F4])
def test_ordinary_node_matches_brute_force_radical(ctx):
    # random charts singular at a random point, in the shifted coordinates
    # u = t - p: a sparse quadratic part, half the time on top of a
    # nondegenerate pairing u_i*u_j + u_k*u_l, plus cubic and quartic terms;
    # degenerate tangent cones are common, unlike in corpus traffic
    rng = random.Random(31 + ctx.k)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    verdicts = []
    for _ in range(40):
        point = tuple(rng.randrange(ctx.q) for _ in V4)
        local = Poly.zero(ctx, V4)
        if rng.random() < 0.5:
            for pair in rng.choice(pairings):
                mono = tuple(int(i in pair) for i in range(4))
                local = local + Poly.from_terms(ctx, V4, [(mono, rng.randrange(1, ctx.q))])
        for d, terms in ((2, rng.randint(0, 4)), (3, 2), (4, 1)):
            local = local + rand_homogeneous(rng, ctx, d, max_terms=terms, vars=V4)
        shift = {v: Poly.var(ctx, V4, v) + Poly.const(ctx, V4, c) for v, c in zip(V4, point)}
        eq = substitute(local, shift)
        verdict = ordinary_node_check(eq, point, ctx)
        assert verdict == brute_ordinary_node(eq, point, ctx), (eq, point)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


def _node_outcome(check, eq, point, ctx):
    try:
        return check(eq, point, ctx)
    except NotSingularHere as exc:
        return str(exc)


def test_cross_nodes_match_the_chart_equation_node_check():
    # random specs over F2 and F4, at F16-points with a cross-shaped fiber
    # radical n != 0: every singular point of Delta, where the total space
    # may be singular, and a sample of the rest, where f or its gradient
    # does not vanish at (p, n)
    rng = random.Random(59)
    outcomes = Counter()
    for _ in range(40):
        spec = rand_spec(rng, rng.choice((F2, F4)), max_entry_degree=1)
        delta = discriminant(spec)
        if delta.is_zero():
            continue
        grads = [partial_derivative(delta, v) for v in BASE_VARS]
        for p in enumerate_plane_points(F16):
            jet = section_jet(spec, p)
            if not any(jet.value[k] for k in ("ab", "ac", "bc")):
                with pytest.raises(ValueError):
                    cross_node(jet)
                continue
            singular = all(g.eval_bits(F16, p.coords) == 0 for g in [delta] + grads)
            if not singular and rng.random() > 0.05:
                continue
            n = cross_singular_point(spec, p)
            wi = next(k for k, c in enumerate(p.coords) if c)
            vi = next(k for k, c in enumerate(n.coords) if c)
            chart = (BASE_VARS[wi], FIBER_VARS[vi])
            point = p.coords[:wi] + p.coords[wi + 1:] + n.coords[:vi] + n.coords[vi + 1:]
            eq = chart_equation(spec, *chart).equation
            expected = _node_outcome(ordinary_node_check, eq, point, F16)
            try:
                got_chart, got_n, got = cross_node(jet)
                assert (got_chart, got_n) == (chart, n)
            except NotSingularHere as exc:
                got = str(exc)
            assert got == expected, (spec.sections, p)
            outcomes[expected] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 5
    assert outcomes["the equation does not vanish at the point"] >= 5
    assert outcomes["the gradient does not vanish at the point"] >= 5


# -- gcd-based emptiness vs explicit enumeration ------------------------------------------


def test_binary_form_common_roots_match_enumeration_over_f4096():
    from conic2.poly import binary_gcd

    rng = random.Random(19)
    big = field_new(12)
    ST = ("s", "t")
    for _ in range(60):
        f = rand_homogeneous(rng, F2, rng.randint(1, 3), max_terms=3, vars=ST, nonzero=True)
        g = rand_homogeneous(rng, F2, rng.randint(1, 3), max_terms=3, vars=ST, nonzero=True)
        gcd_const = binary_gcd(f, g).is_constant()
        fe, ge = f.embed_to(big), g.embed_to(big)
        common = []
        for t0 in range(big.q):
            if fe.eval_bits(big, (t0, 1)) == 0 and ge.eval_bits(big, (t0, 1)) == 0:
                common.append((t0, 1))
        if fe.eval_bits(big, (1, 0)) == 0 and ge.eval_bits(big, (1, 0)) == 0:
            common.append((1, 0))
        # all roots live in degree <= 3, hence inside F_{2^12}'s subfield lattice
        assert gcd_const == (not common)


def test_point_on_curve():
    p = point_on_curve(plane_poly("x^2 + x*y + y^2"))
    assert plane_poly("x^2 + x*y + y^2").eval_bits(p.ctx, p.coords) == 0


# -- small_field_points: root finding on lines against the plane scan ----------


@pytest.mark.parametrize("k, bound, count", [(1, 4, 40), (2, 6, 24), (4, 8, 4)], ids=["F2", "F4", "F16"])
def test_small_field_points_equal_the_plane_scan(k, bound, count):
    # Same points, same order, as evaluating the curve at every point of
    # P^2(F_{2^(k e)}) over each field the bound covers (four, three and
    # two fields).  The curves cycle through four shapes: a random curve, a
    # curve with the line y = c x as a component (a scanned chart line lies
    # on it), c x^d (no point on the chart x = 1), and x g (the line x = 0
    # lies on it).
    ctx = field_new(k)
    rng = random.Random(1100 + k)
    x = Poly.var(ctx, BASE_VARS, "x")
    for i in range(count):
        d = rng.randint(1, 3)
        g = rand_homogeneous(rng, ctx, d, nonzero=True)
        shape = i % 4
        if shape == 1:
            g = g * Poly.from_terms(ctx, BASE_VARS, [((1, 0, 0), rng.randrange(ctx.q)), ((0, 1, 0), 1)])
        elif shape == 2:
            g = Poly.from_terms(ctx, BASE_VARS, [((d, 0, 0), rng.randrange(1, ctx.q))])
        elif shape == 3:
            g = x * g
        found = [(p.ctx.k, p.coords) for p in small_field_points(g, bound)]
        brute = [(p.ctx.k, p.coords) for p in brute_small_field_points(g, bound)]
        assert found == brute, poly_print(g)
        if shape == 2:
            assert all(c[0] == 0 for _, c in found)
        elif shape in (1, 3):  # a rational line: at least q^e points per field
            assert len(found) >= sum(ctx.q ** e for e in range(1, bound // k + 1))
