"""Bundle model: validation, discriminant, Sigma, fibers, charts, flatness."""

import json
import random

import pytest

from conic2.cli import load_corpus_spec
from conic2.conic import (
    AllZero,
    BASE_VARS,
    ConicBundleSpec,
    DegreeMismatch,
    FiberType,
    MalformedInput,
    ProjPoint,
    SECTION_KEYS,
    chart_equation,
    classify_fiber,
    cross_singular_point,
    discriminant,
    fiber_form_on_chart,
    flatness_check,
    load_spec,
    section_jet,
    section_values,
    sigma_generators,
    spec_from_dict,
    spec_to_dict,
    spec_validate,
    total_space_charts,
)
from conic2.gf2k import FieldElem, elem_str, field_new
from conic2.poly import Poly, dehomogenize, partial_derivative, plane_poly, poly_parse, substitute

from _helpers import rand_homogeneous, rand_spec, vanish_at
from conftest import DATA

F2 = field_new(1)
F4 = field_new(2)


def unit_spec():
    """s_aa = 1, s_bc = 1: the conic a^2 + bc everywhere (nowhere singular)."""
    z = Poly.zero(F2, BASE_VARS)
    one = plane_poly("1")
    return ConicBundleSpec(
        F2, (0, 0, 0), 0, {"aa": one, "ab": z, "ac": z, "bb": z, "bc": one, "cc": z}
    )


def test_validate_corpus_degrees():
    ex1 = load_corpus_spec("ex1")
    rep = spec_validate(ex1)
    assert ex1.degree_vector == (0, 1, 3) and ex1.value_degree == 0
    assert rep.delta_degree == 8
    ex3 = load_corpus_spec("ex3")
    rep3 = spec_validate(ex3)
    assert ex3.degree_vector == (0, 0, 2) and ex3.value_degree == 1
    assert rep3.delta_degree == 7


def test_validate_degree_mismatch():
    bad = dict(spec_to_dict(load_corpus_spec("ex1")))
    bad["sections"] = dict(bad["sections"])
    bad["sections"]["ab"] = "x^2"  # forced degree is 1
    with pytest.raises(DegreeMismatch):
        spec_from_dict(bad)


def test_validate_all_zero():
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(F2, (0, 0, 0), 0, {k: z for k in ("aa", "ab", "ac", "bb", "bc", "cc")})
    with pytest.raises(AllZero):
        spec_validate(spec)


def test_discriminant_of_example_81():
    spec = load_corpus_spec("ex1")
    delta = discriminant(spec)
    assert delta == plane_poly("x^6*y*z + x^3*z^5 + x^3*y^5 + y^4*z^4")
    assert delta == plane_poly("x^3*z + y^4") * plane_poly("x^3*y + z^4")


def test_discriminant_of_unit_spec():
    assert discriminant(unit_spec()) == plane_poly("1")


def test_discriminant_of_double_line_family():
    spec = load_corpus_spec("rem_double_line")
    d = spec.sections["cc"]
    assert discriminant(spec) == plane_poly("x^2*y^2") * d  # (ab)^2 * d


def test_diagonal_spec_has_zero_discriminant():
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (0, 0, 0), 2,
        {"aa": plane_poly("x^2"), "bb": plane_poly("y^2"), "cc": plane_poly("z^2"),
         "ab": z, "ac": z, "bc": z},
    )
    assert discriminant(spec).is_zero()
    rep = flatness_check(spec)
    assert not rep.generically_smooth


def test_sigma_generators_order_and_values():
    spec = load_corpus_spec("ex1")
    ab, ac, bc = sigma_generators(spec)
    assert ab == plane_poly("x")
    assert ac.is_zero()
    assert bc == plane_poly("x*y^3 + x*z^3 + y^2*z^2")
    u_ab, u_ac, u_bc = sigma_generators(unit_spec())
    assert u_ab.is_zero() and u_ac.is_zero() and u_bc == plane_poly("1")


def test_classify_fiber_examples():
    spec = load_corpus_spec("ex1")
    assert classify_fiber(spec, ProjPoint.parse("0:1:0", F2)) is FiberType.DOUBLE_LINE
    assert classify_fiber(spec, ProjPoint.parse("1:0:0", F2)) is FiberType.CROSS
    assert classify_fiber(spec, ProjPoint.parse("0:1:1", F2)) is FiberType.SMOOTH


def test_not_conic_is_a_classification_outcome():
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (0, 0, 0), 1,
        {"aa": plane_poly("x"), "ab": z, "ac": z, "bb": plane_poly("x"), "bc": z,
         "cc": plane_poly("y")},
    )
    assert classify_fiber(spec, ProjPoint.parse("0:0:1", F2)) is FiberType.NOT_CONIC


@pytest.mark.parametrize("base, ext", [(F2, field_new(4)), (F4, field_new(6))], ids=["F2-F16", "F4-F64"])
def test_section_jet_matches_partial_derivatives(base, ext):
    # random specs over the base field, points over an extension whose first
    # nonzero coordinate is x, y and z in turn, zero coordinates included
    rng = random.Random(47 + ext.k)
    for _ in range(30):
        spec = rand_spec(rng, base)
        for lead in range(3):
            coords = [0] * lead + [1] + [rng.choice((0, rng.randrange(ext.q))) for _ in range(2 - lead)]
            p = ProjPoint(ext, tuple(coords))
            jet = section_jet(spec, p)
            assert jet.point is p and jet.chart == lead
            u1, u2 = (v for i, v in enumerate(BASE_VARS) if i != lead)
            for i, key in enumerate(SECTION_KEYS):
                s = spec.sections[key]
                d1, d2 = partial_derivative(s, u1), partial_derivative(s, u2)
                expected = [g.eval_bits(ext, p.coords) for g in (s, d1, d2, partial_derivative(d1, u2))]
                got = [jet.value[i], jet.d1[i], jet.d2[i], jet.d12[i]]
                assert got == expected, (key, s, p)


@pytest.mark.parametrize("ctx", [F2, field_new(4), field_new(20)], ids=["F2", "F16", "F2^20"])
def test_jets_are_six_tuples_in_section_key_order(ctx):
    # A spec with one nonzero section f puts f's value, partials and mixed
    # partial at that section's position and zeros at the other five.  Over
    # F_{2^20}, a field without log tables, the jet comes from the partial
    # derivatives' evaluations.
    assert (ctx.log_tables() is None) == (ctx.k > 12)
    base = F4 if ctx.k % 2 == 0 else F2
    zero = Poly.zero(base, BASE_VARS)
    rng = random.Random(3300 + ctx.k)
    nonzero = [0] * 5
    for _ in range(12):
        coords = (0, 0, 0)
        while not any(coords):
            coords = tuple(rng.choice((0, rng.randrange(ctx.q))) for _ in range(3))
        p = ProjPoint(ctx, coords)
        u1, u2 = (v for i, v in enumerate(BASE_VARS) if i != next(i for i, c in enumerate(p.coords) if c))
        for i, key in enumerate(SECTION_KEYS):
            f = rand_homogeneous(rng, base, 3, max_terms=6, nonzero=True)
            spec = ConicBundleSpec(base, (1, 1, 1), 1, {k: f if k == key else zero for k in SECTION_KEYS})
            jet = section_jet(spec, p)
            f1 = partial_derivative(f, u1)
            fields = (section_values(spec, p), jet.value, jet.d1, jet.d2, jet.d12)
            polys = (f, f, f1, partial_derivative(f, u2), partial_derivative(f1, u2))
            for slot, (got, g) in enumerate(zip(fields, polys)):
                expected = [0] * 6
                expected[i] = g.eval_bits(ctx, p.coords)
                assert type(got) is tuple and list(got) == expected, (key, slot, f, p)
                nonzero[slot] += expected[i] != 0
    assert min(nonzero) >= 10


@pytest.mark.parametrize("ctx", [F2, F4, field_new(4)], ids=["F2", "F4", "F16"])
def test_discriminant_equals_the_product_formula(ctx):
    # discriminant squares by Frobenius; the products give the same polynomial
    rng = random.Random(3400 + ctx.k)
    for _ in range(40):
        spec = rand_spec(rng, ctx, max_entry_degree=3)
        s = spec.sections
        product = (s["ab"] * s["bc"] * s["ac"] + s["ab"] * s["ab"] * s["cc"]
                   + s["ac"] * s["ac"] * s["bb"] + s["bc"] * s["bc"] * s["aa"])
        assert discriminant(spec) == product


@pytest.mark.parametrize("k", [1, 2, 4, 13, 40, 64])
def test_point_literals_are_the_element_literals(k):
    ctx = field_new(k)
    rng = random.Random(3500 + k)
    for _ in range(10):
        p = ProjPoint(ctx, (rng.randrange(ctx.q), rng.randrange(ctx.q), rng.randrange(1, ctx.q)))
        assert p.serialize() == [elem_str(FieldElem(ctx, c)) for c in p.coords]
        assert ProjPoint.parse(":".join(p.serialize())) == p


def test_cross_singular_point():
    spec = load_corpus_spec("ex1")
    p = ProjPoint.parse("1:0:0", F2)
    n = cross_singular_point(spec, p)
    assert n.coords == (0, 0, 1)  # [s_bc : s_ac : s_ab](p) = [0 : 0 : 1]
    with pytest.raises(ValueError):
        cross_singular_point(spec, ProjPoint.parse("0:1:0", F2))


def test_chart_count_and_shape():
    spec = load_corpus_spec("ex1")
    charts = total_space_charts(spec)
    assert len(charts) == 9
    assert {(c.base_var, c.fiber_var) for c in charts} == {
        (w, v) for w in "xyz" for v in "abc"
    }


def test_chart_equation_is_dehomogenized_conic():
    spec = load_corpus_spec("ex1")
    ce = chart_equation(spec, "z", "a")
    # independent construction: sum s_ij(x, y, 1) * fiber monomial at a = 1
    vars4 = ("x", "y", "b", "c")
    expected = Poly.zero(F2, vars4)
    monos = {"aa": "1", "ab": "b", "ac": "c", "bb": "b^2", "bc": "b*c", "cc": "c^2"}
    for key, mono in monos.items():
        s = dehomogenize(spec.sections[key], "z").with_vars(vars4)
        expected = expected + s * poly_parse(mono, F2, vars4)
    assert ce.equation == expected


def test_local_model_chart_reproduces_t1t2_plus_bc():
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (1, 0, 0), 0,
        {"aa": plane_poly("y*z"), "ab": z, "ac": z, "bb": z, "bc": plane_poly("1"), "cc": z},
    )
    spec_validate(spec)
    ce = chart_equation(spec, "x", "a")
    assert ce.equation == poly_parse("y*z + b*c", F2, ("y", "z", "b", "c"))


def test_charts_glue_on_overlaps():
    # Sample chart (z, a) points with x != 0; transport to chart (x, a) with
    # the line-bundle twists and check the equation still vanishes.
    rng = random.Random(14)
    F16 = field_new(4)
    for name in ("ex1", "ex4", "ex5"):
        spec = load_corpus_spec(name)
        if spec.ctx.k == 2:
            big = F16
        else:
            big = F16
        eq_za = chart_equation(spec, "z", "a").equation.embed_to(big)
        eq_xa = chart_equation(spec, "x", "a").equation.embed_to(big)
        ea, eb, ec = spec.degree_vector
        checked = 0
        for _ in range(600):
            x0 = rng.randrange(1, big.q)
            y0, b0, c0 = (rng.randrange(big.q) for _ in range(3))
            if eq_za.eval_bits(big, (x0, y0, b0, c0)) != 0:
                continue
            inv_x = big.inv(x0)
            # base: [x0 : y0 : 1] -> (y, z) chart coords (y0/x0, 1/x0)
            # fiber: a_i multiplies by x0^(e_i); renormalize at a
            scale_b = big.pow(x0, eb - ea)
            scale_c = big.pow(x0, ec - ea)
            pt = (
                big.mul(y0, inv_x),
                inv_x,
                big.mul(b0, scale_b),
                big.mul(c0, scale_c),
            )
            assert eq_xa.eval_bits(big, pt) == 0
            checked += 1
        assert checked > 20


def test_flatness_examples():
    assert flatness_check(load_corpus_spec("ex1")).flat
    rep = flatness_check(unit_spec())
    assert rep.flat and rep.generically_smooth
    # constructed non-flat: diagonal sections sharing the zero [0:0:1]
    z = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (0, 0, 0), 1,
        {"aa": plane_poly("x"), "ab": z, "ac": z, "bb": plane_poly("y"), "bc": z,
         "cc": plane_poly("x + y")},
    )
    rep = flatness_check(spec)
    assert not rep.flat
    assert rep.witness == ProjPoint.parse("0:0:1", F2)
    assert classify_fiber(spec, rep.witness) is FiberType.NOT_CONIC


def test_flatness_witness_on_a_common_line_over_f65536():
    # The six sections share the factor x, and the chart x = 1 holds no
    # point of x: the witness [0:1:0] on the line x = 0 is found without
    # visiting the 2^32 points of that chart.
    spec = load_spec(str(DATA / "nonflat_f65536.json"))
    rep = flatness_check(spec)
    assert not rep.flat
    assert rep.witness == ProjPoint.parse("0:1:0", spec.ctx)
    assert classify_fiber(spec, rep.witness) is FiberType.NOT_CONIC


def test_proj_point_normalization_and_equality():
    p = ProjPoint(F4, (2, 3, 0))  # leading coordinate scaled to 1
    assert p.coords[0] == 1
    q = ProjPoint.parse("0:1:0", F2)
    assert q == ProjPoint(F4, (0, 2, 0))  # cross-field equality via embedding
    assert q != ProjPoint.parse("0:0:1", F2)
    r = ProjPoint.parse("F4:2:1:0")
    assert r.ctx is F4 and r.coords[0] == 1


def test_proj_point_equality_across_fields_compares_in_common_subfield():
    # lcm(33, 2) = 66 exceeds the largest field: compare inside F_2
    F2_33 = field_new(33)
    p33, p4 = ProjPoint.parse("1:0:0", F2_33), ProjPoint.parse("1:0:0", F4)
    assert p33 == p4 and p4 == p33 and hash(p33) == hash(p4)
    assert p33 != ProjPoint.parse("1:1:0", F4)
    assert p33 != ProjPoint.parse("1:j:0", F4)  # j has no preimage in F_2
    # nested fields: [0:1:j] over F_4 and over F_16
    F16 = field_new(4)
    w = ProjPoint.parse("0:1:j")
    assert w.embed_to(F16) == w and w == w.embed_to(F16)
    assert w != ProjPoint.parse("0:1:F4:3").embed_to(F16)


def test_spec_file_round_trip(tmp_path):
    spec = load_corpus_spec("ex4")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True))
    again = load_spec(str(path))
    assert again == spec


# -- module invariants (randomized) ---------------------------------------------


PERMS = [
    ("a", "b", "c"), ("a", "c", "b"), ("b", "a", "c"),
    ("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a"),
]


def permute_spec(spec, perm):
    """Relabel fiber roles (a,b,c) -> perm with the induced section relabeling."""
    names = ("a", "b", "c")
    where = {n: i for i, n in enumerate(names)}
    ev = [0, 0, 0]
    for i, n in enumerate(names):
        ev[i] = spec.degree_vector[where[perm[i]]]
    sections = {}
    for key in ("aa", "ab", "ac", "bb", "bc", "cc"):
        i, j = where[key[0]], where[key[1]]
        src = "".join(sorted(perm[i] + perm[j]))
        sections[key] = spec.sections[src]
    return ConicBundleSpec(spec.ctx, tuple(ev), spec.value_degree, sections)


def test_discriminant_permutation_equivariance():
    rng = random.Random(15)
    for _ in range(150):
        spec = rand_spec(rng)
        delta = discriminant(spec)
        for perm in PERMS:
            assert discriminant(permute_spec(spec, perm)) == delta


def test_discriminant_naturality_under_linear_change():
    rng = random.Random(16)
    checked = 0
    while checked < 100:
        spec = rand_spec(rng)
        ctx = spec.ctx
        rows = [[rng.randrange(ctx.q) for _ in range(3)] for _ in range(3)]
        det = 0
        for s_, (i, j, k) in (
            (1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
            (1, (2, 1, 0)), (1, (0, 2, 1)), (1, (1, 0, 2)),
        ):
            det ^= ctx.mul(ctx.mul(rows[0][i], rows[1][j]), rows[2][k])
        if det == 0:
            continue
        images = {
            v: Poly.from_terms(ctx, BASE_VARS, [((1, 0, 0), rows[i][0]),
                                                ((0, 1, 0), rows[i][1]),
                                                ((0, 0, 1), rows[i][2])])
            for i, v in enumerate(BASE_VARS)
        }
        pulled = ConicBundleSpec(
            ctx, spec.degree_vector, spec.value_degree,
            {k_: substitute(s_, images) for k_, s_ in spec.sections.items()},
        )
        assert discriminant(pulled) == substitute(discriminant(spec), images)
        checked += 1


def test_sigma_inside_discriminant_pointwise():
    rng = random.Random(17)
    hits = 0
    for _ in range(300):
        ctx = field_new(rng.choice((1, 2)))
        pt = None
        while pt is None:
            coords = tuple(rng.randrange(ctx.q) for _ in range(3))
            if any(coords):
                pt = ProjPoint(ctx, coords)
        spec = rand_spec(rng, ctx)
        # force the off-diagonals to vanish at pt, keeping the shape legal
        sections = dict(spec.sections)
        for key in ("ab", "ac", "bc"):
            d = spec.forced_degree(key)
            sections[key] = vanish_at(rng, ctx, d, pt.coords)
        spec = ConicBundleSpec(ctx, spec.degree_vector, spec.value_degree, sections)
        v = section_values(spec, pt)
        assert all(v[SECTION_KEYS.index(k)] == 0 for k in ("ab", "ac", "bc"))
        delta = discriminant(spec)
        assert delta.eval_bits(pt.ctx, pt.coords) == 0
        if classify_fiber(spec, pt) is FiberType.DOUBLE_LINE:
            hits += 1
    assert hits > 50  # the construction produced genuine double-line points


def test_fiber_form_on_chart_matches_section_values():
    spec = load_corpus_spec("ex1")
    form = fiber_form_on_chart(spec, "z")
    p = ProjPoint.parse("0:1:1", F2)  # z-coordinate 1
    v = section_values(spec, p)
    # restrict the form at (x, y) = (0, 1): coefficients must be the values
    restricted = substitute(form, {"x": 0, "y": 1})
    for key, mono in (("aa", (0, 0, 2, 0, 0)), ("bb", (0, 0, 0, 2, 0)), ("cc", (0, 0, 0, 0, 2))):
        assert restricted.coefficient(mono).bits == v[SECTION_KEYS.index(key)]


@pytest.mark.parametrize("key, value", [("field_degree", 1.9), ("degree_vector", [0.5, 1, 3]),
                                        ("value_degree", True)])
def test_spec_from_dict_rejects_non_integer_degrees(key, value):
    data = {**spec_to_dict(load_corpus_spec("ex1")), key: value}
    with pytest.raises(MalformedInput, match="integers"):
        spec_from_dict(data)
