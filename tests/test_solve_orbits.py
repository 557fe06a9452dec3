"""solve_system solves each Frobenius orbit of directions once.

The oracle is the per-root solver (``_helpers.per_root_solve_system``),
which finds every root of every direction factor in the final field.  The
one-root solver must give the same points, fields, order and closure.  A
finite Sigma's direction forms must give the same component-meets-Sigma
points as a fresh solve, and so must a solve confined to Sigma, which reads
its points off Sigma's: same fields, coordinates and order.  The Sigma a
search's candidates share must give each candidate's Sigma as its own solve
does, and be solved once per search.
``geom.frobenius_orbits`` must partition a solved set into whole Frobenius
orbits.
"""

import dataclasses
import random

import pytest

from conic2 import _dense, amcert, geom
from conic2.amcert import example81_template, search_spieghiamolo, surface_criterion
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    ProjPoint,
    discriminant,
    flatness_check,
    sigma_generators,
    spec_from_dict,
    spec_to_dict,
)
from conic2.factor import form_factor
from conic2.geom import (
    ExtensionBound,
    PositiveDimensional,
    _direction_root,
    _eliminant,
    _in_proper_subfield,
    _z_gcd,
    frobenius_orbits,
    plane_monomials,
    read_off,
    solve_system,
)
from conic2.gf2k import embed_bits, field_new
from conic2.poly import Poly, plane_poly, poly_parse

from _helpers import clear_caches, moved_module, moved_stream, per_root_solve_system, rand_homogeneous, rand_spec

F2 = field_new(1)
F4 = field_new(2)


def _exact(found):
    """Points with their fields and coordinates, in order, and the closure."""
    return [(p.ctx.k, p.coords) for p in found.points], found.certificate


def _outcome(solve, system):
    try:
        return _exact(solve(system))
    except (PositiveDimensional, ExtensionBound) as exc:
        return type(exc).__name__


# -- one root per direction -------------------------------------------------------


@pytest.mark.parametrize("k", [*range(1, 13), 16, 24])
def test_one_root_lies_in_the_field_and_its_orbit_is_every_root(k):
    ctx = field_new(k)
    modulus = [(ctx.modulus >> i) & 1 for i in range(k + 1)]  # irreducible over F_2
    r = _dense.one_root(ctx, modulus)
    assert _dense.eval_at(ctx, modulus, r) == 0
    orbit = {r}
    for _ in range(k - 1):
        r = ctx.sq(r)
        orbit.add(r)
    assert orbit == set(_dense.roots(ctx, modulus))


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 24])
def test_one_root_of_a_product_of_distinct_linear_factors(k):
    ctx = field_new(k)
    rng = random.Random(k)
    for n in range(1, min(ctx.q, 6) + 1):
        roots = set()
        while len(roots) < n:
            roots.add(rng.randrange(ctx.q))
        R = _dense._ring(ctx)
        f = 1
        for a in roots:
            f = R.mul(f, R.pack([a, 1]))
        f = R.scale(f, rng.randrange(1, ctx.q))  # not monic
        assert _dense.one_root(ctx, R.unpack(f)) in roots


# -- random systems against the per-root oracle --------------------------------------


def _binary_form(rng, ctx, d):
    items = [((i, d - i, 0), rng.randrange(ctx.q)) for i in range(d + 1)]
    form = Poly.from_terms(ctx, BASE_VARS, items)
    return form if not form.is_zero() else Poly.var(ctx, BASE_VARS, "x", d)


def _random_system(rng, ctx):
    """A z-free product of binary forms (the directions, with y among them a
    third of the time) and a form of degree 2 or 3 that is either random or
    a linear times a quadratic polynomial in z; sometimes a third member of
    the ideal they generate."""
    a = Poly.const(ctx, BASE_VARS, 1)
    for _ in range(rng.randint(1, 2)):
        a = a * _binary_form(rng, ctx, rng.randint(1, 4))
    if rng.random() < 1 / 3:
        a = a * Poly.var(ctx, BASE_VARS, "y")
    if rng.random() < 0.5:
        b = rand_homogeneous(rng, ctx, rng.randint(2, 3), max_terms=5, nonzero=True)
    else:  # z-gcd (z + L)(z^2 + M z + Q): often factors of degrees one and two
        z = Poly.var(ctx, BASE_VARS, "z")
        b = (z + _binary_form(rng, ctx, 1)) * (
            z * z + z * _binary_form(rng, ctx, 1) + _binary_form(rng, ctx, 2))
    system = [a, b]
    if rng.random() < 0.25:
        m = max(a.total_degree(), b.total_degree()) + 1
        system.append(a * Poly.var(ctx, BASE_VARS, "z", m - a.total_degree())
                      + b * Poly.var(ctx, BASE_VARS, "x", m - b.total_degree()))
    return system


def _z_patterns(system):
    """The factor degrees of the z-gcd at one root of each direction factor."""
    nonzero = [p for p in system if not p.is_zero()]
    ctx = nonzero[0].ctx
    out = []
    eliminant = _eliminant(nonzero)
    if eliminant.is_constant():
        return out
    for form, _ in form_factor(eliminant):
        fld = field_new(ctx.k * form.total_degree())
        h = _z_gcd(nonzero, *_direction_root(form, fld), fld)
        if _dense.deg(h) >= 1:
            out.append({_dense.deg(c) for c, _ in _dense.factor(fld, h)[1]})
    return out


def _direction_degree(p, base):
    """Degree over the base field of the point's direction [x:y]."""
    x, y = p.coords[0], p.coords[1]
    a = y if x == 1 else 0  # normalized: [1 : y] or [0 : 1]
    d, b = 1, p.ctx.pow(a, base.q)
    while b != a:
        d, b = d + 1, p.ctx.pow(b, base.q)
    return d


@pytest.mark.parametrize("ctx, count", [(F2, 120), (F4, 80)], ids=["F2", "F4"])
def test_random_systems_match_the_per_root_oracle(ctx, count):
    rng = random.Random(9000 + ctx.k)
    seen = set()
    for _ in range(count):
        system = _random_system(rng, ctx)
        got = _outcome(solve_system, system)
        assert got == _outcome(per_root_solve_system, system), [str(p) for p in system]
        if isinstance(got, str):
            continue
        found = solve_system(system)
        for p in found.points:
            if p.coords[:2] == (1, 0):
                seen.add("[1:0:*]")
            if p.coords == (0, 0, 1):
                seen.add("(0:0:1)")
            if _direction_degree(p, ctx) >= 2:
                seen.add("direction degree >= 2")
            if ctx is F4 and p.ctx.k == 16:
                seen.add("F_4 direction of degree 4 with z-roots in F_{4^8}")
        if any(len(pattern) >= 2 for pattern in _z_patterns(system)):
            seen.add("z-gcd factors of two degrees")
    wanted = {"[1:0:*]", "(0:0:1)", "direction degree >= 2", "z-gcd factors of two degrees"}
    if ctx is F4:
        wanted.add("F_4 direction of degree 4 with z-roots in F_{4^8}")
    assert wanted <= seen


def test_direction_of_degree_two_with_z_factors_of_degrees_one_and_three():
    # x^2 + xy + y^2 has its roots in F_4; at [j:1] the z-gcd is
    # (z + j)(z^3 + j^2 z + 1), so the points live in F_{4^3} = F_64
    x, y, z = (Poly.var(F2, BASE_VARS, v) for v in BASE_VARS)
    system = [x * x + x * y + y * y, (z + x) * (z ** 3 + z * x * x + x ** 3)]
    found = solve_system(system)
    assert _exact(found) == _exact(per_root_solve_system(system))
    assert {p.ctx.k for p in found.points} == {6} and len(found.points) == 8
    assert found.certificate.factor_degrees == (1, 2, 3)


# -- component meets Sigma, on Sigma's directions ----------------------------------------


def _flatness(report):
    """A flatness report with its witness's field and coordinates."""
    w = report.witness
    return report.flat, report.generically_smooth, w and (w.ctx.k, w.coords)


def _restricted_matches_fresh(spec, k_max=24):
    """Solve [C] + off-diagonals for each component C three ways: fresh,
    read off Sigma evaluating every equation, and read off Sigma evaluating
    C alone; and decide flatness fresh and read off Sigma.  Return the
    number of points and, where Sigma has two or more direction forms, the
    indices of the forms each component meets Sigma on."""
    off = [s for s in sigma_generators(spec) if not s.is_zero()]
    delta = discriminant(spec)
    if not off or delta.is_zero():
        return 0, set()
    try:
        sig = solve_system(off, k_max)
    except (PositiveDimensional, ExtensionBound):
        return 0, set()
    total, used = 0, set()
    try:
        flat = flatness_check(spec, k_max)
    except ExtensionBound:
        flat = None
    if flat is not None:  # the flatness read off Sigma is the flatness of a fresh solve
        assert _flatness(flatness_check(spec, k_max, within=sig)) == _flatness(flat)
    for c, _ in form_factor(delta):
        system = [c] + off
        restricted = read_off(sig, system, system, k_max)  # never raises where sig did not
        read = read_off(sig, system, [c], k_max)
        try:
            fresh = solve_system(system, k_max)
        except ExtensionBound:
            continue
        assert _exact(restricted)[0] == _exact(read)[0] == _exact(fresh)[0], str(c)
        total += len(fresh.points)
        if len(sig.directions) >= 2:
            used.add(tuple(i for i, form in enumerate(sig.directions)
                           if any(form.eval_bits(p.ctx, p.coords[:2]) == 0 for p in fresh.points)))
    return total, used


def test_restricted_solve_matches_fresh_on_the_corpus():
    results = [_restricted_matches_fresh(load_corpus_spec(e["name"]))
               for e in corpus_manifest()["examples"]]
    assert sum(n for n, _ in results) > 0


def test_restricted_solve_matches_fresh_on_twenty_moved_passes():
    stream = moved_stream("21.0")
    total, used = 0, set()
    for _ in range(20):
        for _, _, data in stream.next_pass():
            n, u = _restricted_matches_fresh(spec_from_dict(data))
            total, used = total + n, used | u
    # components meet Sigma on its first form only and on its second form
    # only: no single form of Sigma would do
    assert total > 0 and {(0,), (1,)} <= used


@pytest.mark.parametrize("k_max", [24, 6])
def test_restricted_solve_matches_fresh_on_random_specs(k_max):
    rng = random.Random(4242)
    total = 0
    for _ in range(40):
        spec = rand_spec(rng, max_entry_degree=1)
        total += _restricted_matches_fresh(spec, k_max)[0]
    assert total > 0


# -- solves confined to Sigma read its points -------------------------------------------


def _confined_solves(monkeypatch):
    """Count the read-offs of a solved set (geom.read_off), through geom
    and amcert, and those of them that fall back to a solve on the set's
    direction forms."""
    counts = {"read_offs": 0, "fallbacks": 0}
    inside = []
    on_directions, read = geom._solve_on_directions, geom.read_off

    def counted_read(*args):
        counts["read_offs"] += 1
        inside.append(True)
        try:
            return read(*args)
        finally:
            inside.pop()

    def counted(*args):
        counts["fallbacks"] += bool(inside)
        return on_directions(*args)

    for module in (geom, amcert):
        monkeypatch.setattr(module, "read_off", counted_read)
    monkeypatch.setattr(geom, "_solve_on_directions", counted)
    return counts


def test_a_confined_solve_writes_a_point_over_the_field_a_fresh_solve_uses(monkeypatch):
    # over the direction x = 0 the z-gcd is z(z^2 + yz + y^2), so Sigma's
    # three points are written over F_4; the cubic meets it at [0:1:0] only,
    # which a fresh solve writes over F_2
    sigma_eqs = [plane_poly("x"), plane_poly("z^3 + z^2*y + z*y^2")]
    sig = solve_system(sigma_eqs)
    assert _exact(sig)[0] == [(2, (0, 1, 0)), (2, (0, 1, 2)), (2, (0, 1, 3))]
    system = [plane_poly("x^3 + x^2*y + z^3")] + sigma_eqs
    counts = _confined_solves(monkeypatch)
    assert _exact(geom.read_off(sig, system, system))[0] == [(1, (0, 1, 0))]
    assert _exact(geom.solve_system(system))[0] == [(1, (0, 1, 0))]
    assert counts == {"read_offs": 1, "fallbacks": 1}
    # a read-off evaluating the cubic alone falls back too
    assert _exact(geom.read_off(sig, system, system[:1]))[0] == [(1, (0, 1, 0))]
    assert counts == {"read_offs": 2, "fallbacks": 2}


def test_the_subfield_test_tries_each_prime_dividing_the_degree():
    f4, f8, f16, f64 = (field_new(k) for k in (2, 3, 4, 6))

    def point(sub, ctx, coords):
        return ProjPoint(ctx, tuple(embed_bits(sub, ctx, c) for c in coords))

    # over F_64, K/k = 6 has the primes 2 (F_8) and 3 (F_4)
    assert _in_proper_subfield(point(f8, f64, (1, 5, 3)), 1)
    assert _in_proper_subfield(point(f4, f64, (1, 2, 0)), 1)
    assert not _in_proper_subfield(ProjPoint(f64, (1, 5, 33)), 1)
    # a subfield must contain F_q: F_4 in F_64 is one for q = 4, F_8 is not
    assert _in_proper_subfield(point(f4, f64, (1, 2, 3)), 2)
    assert not _in_proper_subfield(point(f8, f64, (1, 5, 3)), 2)
    assert not _in_proper_subfield(ProjPoint(f4, (1, 2, 3)), 2)
    assert _in_proper_subfield(point(f4, f16, (0, 1, 3)), 1)


def test_a_confined_solve_matches_fresh_on_a_moved_ex3_that_falls_back(monkeypatch):
    # a move of ex3 (one the benchmark's moved stream draws) where a component
    # meets Sigma at a point that Sigma writes over a larger field than the
    # one its coordinates lie in
    matrix = ((1, 1, 0), (0, 1, 1), (0, 1, 0))
    spec = spec_from_dict(moved_module().move_spec(spec_to_dict(load_corpus_spec("ex3")), matrix))
    off = [s for s in sigma_generators(spec) if not s.is_zero()]
    sig = solve_system(off)
    counts = _confined_solves(monkeypatch)
    components = form_factor(discriminant(spec))
    fell_back = []
    for c, _ in components:
        system = [c] + off
        fresh = _exact(geom.solve_system(system))[0]
        for added in (system, [c]):
            fallbacks = counts["fallbacks"]
            assert _exact(geom.read_off(sig, system, added))[0] == fresh
            fell_back.append(counts["fallbacks"] > fallbacks)
    # a read-off evaluating every equation and one evaluating the component
    # alone fall back for the same components
    assert counts["read_offs"] == len(fell_back) == 2 * len(components)
    assert any(fell_back) and fell_back[0::2] == fell_back[1::2]


def test_no_confined_solve_falls_back_on_the_corpus_or_the_search(monkeypatch):
    counts = _confined_solves(monkeypatch)
    clear_caches()
    for entry in corpus_manifest()["examples"]:
        spec = load_corpus_spec(entry["name"])
        claimed = [poly_parse(t, spec.ctx, BASE_VARS) for t in entry.get("claimed_factors") or []]
        surface_criterion(spec, claimed or None)
    # flatness of the three bundles with no constant section, and each
    # component's meeting with a finite Sigma, read off Sigma's points; ex2
    # reads ex1's meetings from amcert._sigma_meets
    assert counts == {"read_offs": 3 + 10, "fallbacks": 0}
    clear_caches()
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    # the two components' meetings with the Sigma the candidates share, read
    # off once and kept by amcert._sigma_meets (its constant section aa makes
    # the bundle flat without a solve); the candidate's Sigma is the shared
    # one itself
    assert counts == {"read_offs": 13 + 2, "fallbacks": 0}


# -- one Sigma per search -------------------------------------------------------------


def _amcert_solves(monkeypatch):
    """Record True for each solve amcert makes, from empty process-wide
    caches, so each Sigma is solved here and not read from amcert._solved."""
    clear_caches()
    calls = []
    solve = amcert.solve_system

    def counted(polys, k_max=24):
        calls.append(True)
        return solve(polys, k_max)

    monkeypatch.setattr(amcert, "solve_system", counted)
    return calls


def test_sigma_is_shared_only_when_the_template_fixes_it():
    template = example81_template()
    x, residue = template.fixed["ab"], template.congruence_residue
    # ab = x divides the modulus x, so bc is the residue on Sigma
    assert amcert._shared_sigma_system(template) == [x, residue]
    # a diagonal free entry leaves the fixed off-diagonals
    fixed = {"aa": template.fixed["aa"], "ab": x, "ac": plane_poly("0"), "bc": residue}
    diagonal = dataclasses.replace(template, fixed=fixed, free_key="bb")
    assert amcert._shared_sigma_system(diagonal) == [x, residue]
    # an off-diagonal determined entry varies Sigma with the candidate
    fixed = {**template.fixed, "cc": plane_poly("z^6")}
    assert amcert._shared_sigma_system(dataclasses.replace(diagonal, fixed=fixed, quotient_key="bc")) is None
    assert amcert._shared_sigma_system(dataclasses.replace(template, fixed=fixed, quotient_key="ac")) is None


def test_the_shared_sigma_gives_each_zero_corner_candidate_its_own_sigma():
    template = example81_template()
    shared = solve_system(amcert._shared_sigma_system(template))
    monos = list(plane_monomials(template.free_degree - 1))
    assert len(monos) == 10
    ab = template.fixed["ab"]
    for bits in range(1 << len(monos)):
        q = Poly.from_terms(F2, BASE_VARS, [(m, 1) for i, m in enumerate(monos) if bits >> i & 1])
        off = [ab, template.congruence_residue + template.congruence_modulus * q]
        confined, fresh = read_off(shared, off, off), solve_system(off)
        # the search certifies each candidate with the shared Sigma itself
        assert confined.serialize() == fresh.serialize() == shared.serialize()
        assert confined.directions == fresh.directions == shared.directions


def test_a_zero_corner_search_solves_sigma_once(monkeypatch):
    calls = _amcert_solves(monkeypatch)
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    # the shared Sigma, compared with the expected points once; each
    # candidate is certified with it, and the two components' meetings with
    # it are read off its points (geom.read_off), with no solve
    assert calls == [True]
    # a second search reads it from amcert._solved
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    assert calls == [True]


def test_a_template_whose_fixed_sections_miss_the_modulus_solves_each_sigma(monkeypatch):
    # ab = y does not divide the modulus x, so bc on Sigma, and Sigma, vary
    # with the candidate
    template = example81_template()
    template = dataclasses.replace(template, fixed={**template.fixed, "ab": plane_poly("y")})
    assert amcert._shared_sigma_system(template) is None
    calls = _amcert_solves(monkeypatch)
    assert search_spieghiamolo(template, budget=56).hits == []
    assert calls == [True] * 56


def test_an_infinite_shared_sigma_is_solved_once_and_skips_every_candidate(monkeypatch):
    # bc = x*y^3 + x*q: Sigma is the line x = 0 for every candidate
    template = dataclasses.replace(
        example81_template(), congruence_residue=plane_poly("x*y^3"), quotient_divisor=plane_poly("1")
    )
    calls = _amcert_solves(monkeypatch)
    result = search_spieghiamolo(template, budget=56)
    assert result.hits == [] and result.tried == 56 and result.exhausted_budget
    assert calls == [True]


def test_a_search_with_no_candidate_past_the_divisibility_filter_solves_nothing(monkeypatch):
    d1 = plane_poly("x^3*z + y^4")
    template = dataclasses.replace(example81_template(), target_components=(d1, d1))
    calls = _amcert_solves(monkeypatch)
    result = search_spieghiamolo(template, budget=2048)
    assert result.hits == [] and not result.exhausted_budget
    assert calls == []


# -- Frobenius orbits of a solved set ----------------------------------------------------


def _orbit_sizes(found, q):
    """frobenius_orbits of a solved set, checked: the orbits partition it,
    each representative comes before its conjugates in the set's order, the
    members are the successive Frobenius images of the representative, the
    last one's image is the representative, and the orbit has the period of
    its representative under coordinatewise q-th powers."""
    points = list(found.points)
    orbits = frobenius_orbits(points, q)
    members = [p for orbit in orbits for p in orbit]
    assert sorted(p.sort_key() for p in members) == [p.sort_key() for p in points]
    assert len(members) == len(points)
    position = {p.sort_key(): i for i, p in enumerate(points)}
    reps = [position[orbit[0].sort_key()] for orbit in orbits]
    assert reps == sorted(reps)
    for orbit in orbits:
        assert all(position[orbit[0].sort_key()] <= position[p.sort_key()] for p in orbit)
        for a, b in zip(orbit, orbit[1:] + orbit[:1]):
            assert a.frobenius(q).sort_key() == b.sort_key()
        ctx, start = orbit[0].ctx, orbit[0].coords
        period, coords = 1, tuple(ctx.pow(c, q) for c in start)
        while coords != start:
            period, coords = period + 1, tuple(ctx.pow(c, q) for c in coords)
        assert period == len(orbit)
    return [len(orbit) for orbit in orbits]


@pytest.mark.parametrize("ctx, count", [(F2, 60), (F4, 40)], ids=["F2", "F4"])
def test_frobenius_orbits_partition_solved_sets(ctx, count):
    rng = random.Random(9100 + ctx.k)
    sizes = set()
    for _ in range(count):
        try:
            found = solve_system(_random_system(rng, ctx))
        except (PositiveDimensional, ExtensionBound):
            continue
        sizes.update(_orbit_sizes(found, ctx.q))
    assert {1, 2, 3} <= sizes


def test_search_template_meets_in_six_orbits():
    d1, d2 = example81_template().target_components
    found = solve_system([d1, d2])
    assert len(found.points) == 16
    assert _orbit_sizes(found, F2.q) == [1, 1, 2, 4, 4, 4]
