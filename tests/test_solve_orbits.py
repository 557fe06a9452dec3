"""solve_system solves each Frobenius orbit of directions once.

The oracle is the per-root solver (``_helpers.per_root_solve_system``),
which finds every root of every direction factor in the final field.  The
one-root solver must give the same points, fields, order and closure.  A
finite Sigma's direction forms must give the same component-meets-Sigma
points as a fresh solve.  ``geom.frobenius_orbits`` must partition a solved
set into whole Frobenius orbits.
"""

import random

import pytest

from conic2 import _dense
from conic2.amcert import _factor_homogeneous, example81_template
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import BASE_VARS, discriminant, sigma_generators, spec_from_dict
from conic2.factor import binary_form_factor
from conic2.geom import (
    ExtensionBound,
    PositiveDimensional,
    _direction_eliminant,
    _direction_root,
    _resultant_forms,
    _z_gcd,
    frobenius_orbits,
    solve_system,
)
from conic2.gf2k import field_new
from conic2.poly import Poly

from _helpers import moved_stream, per_root_solve_system, rand_homogeneous, rand_spec

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
        f = [1]
        for a in roots:
            f = _dense.mul(ctx, f, [a, 1])
        f = _dense.smul(ctx, f, rng.randrange(1, ctx.q))  # not monic
        assert _dense.one_root(ctx, f) in roots


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
    eliminant = _direction_eliminant(nonzero, _resultant_forms(nonzero))
    if eliminant.is_constant():
        return out
    for form, _ in binary_form_factor(eliminant):
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


def _restricted_matches_fresh(spec, k_max=24):
    """Solve [C] + off-diagonals for each component C both ways.  Return the
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
    for c, _ in _factor_homogeneous(delta):
        system = [c] + off
        restricted = solve_system(system, k_max, within=sig)  # never raises where sig did not
        try:
            fresh = solve_system(system, k_max)
        except ExtensionBound:
            continue
        assert _exact(restricted)[0] == _exact(fresh)[0], str(c)
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
