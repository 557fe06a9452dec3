"""Randomized cross-validation of the geometry core against brute oracles,
plus the degenerate-elimination fallback and a concurrency smoke test."""

import dataclasses
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conic2.cli import load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    classify_fiber,
    discriminant,
    sigma_generators,
)
from conic2.amcert import component_factorization, surface_criterion
from conic2.geom import (
    BezoutMismatch,
    CommonComponent,
    ExtensionBound,
    PositiveDimensional,
    intersection_points,
    smooth_along_fiber,
    solve_system,
)
from conic2.gf2k import embed_bits, field_new, section_bits
from conic2.poly import Poly, partial_derivative, plane_poly, poly_parse

from _helpers import (
    brute_fiber_singular_points,
    brute_solutions,
    clear_caches,
    enumerate_plane_points,
    rand_homogeneous,
    rand_spec,
)

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)


def test_solver_matches_brute_force_on_random_systems():
    rng = random.Random(27)
    compared = 0
    for _ in range(250):
        ctx = field_new(rng.choice((1, 1, 2)))
        polys = [
            rand_homogeneous(rng, ctx, rng.randint(1, 3), max_terms=4, nonzero=True)
            for _ in range(rng.randint(2, 3))
        ]
        try:
            solved = solve_system(polys, k_max=24)
        except PositiveDimensional:
            continue
        except ExtensionBound:
            continue
        big = field_new(4) if ctx.k == 1 else field_new(4)
        embedded = [g.embed_to(big) for g in polys]
        brute = sorted(p.coords for p in brute_solutions(embedded, big))
        rational = sorted(
            p.embed_to(big).coords for p in solved.points if big.k % p.ctx.k == 0
        )
        assert rational == brute, [str(g) for g in polys]
        compared += 1
    assert compared > 100


def test_elimination_fallback_when_all_pair_resultants_vanish():
    # {AB, AC, BC} with three pairwise-distinct lines: every pair of inputs
    # shares a line, so every pairwise resultant vanishes identically, yet
    # the locus is the three pairwise intersection points.
    A = plane_poly("x + z")
    B = plane_poly("y + z")
    C = plane_poly("x + y + z")
    pts = solve_system([A * B, A * C, B * C])
    expected = {
        ProjPoint.parse("1:1:1", F2),  # A and B
        ProjPoint.parse("1:0:1", F2),  # A and C
        ProjPoint.parse("0:1:1", F2),  # B and C
    }
    assert set(pts.points) == expected
    brute = set(brute_solutions([(A * B).embed_to(F16), (A * C).embed_to(F16), (B * C).embed_to(F16)], F16))
    assert {p.embed_to(F16) for p in pts.points} == brute


def test_solver_deduplicates_inputs():
    f = plane_poly("x^3*z + y^4")
    g = plane_poly("x^3*y + z^4")
    assert solve_system([f, f, g, g]).points == solve_system([f, g]).points


def test_smooth_along_fiber_matches_brute_on_random_specs():
    rng = random.Random(28)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 4000:
        attempts += 1
        ctx = field_new(rng.choice((1, 1, 2)))
        spec = rand_spec(rng, ctx, max_entry_degree=1)
        try:
            from conic2.conic import spec_validate

            spec_validate(spec)
        except Exception:
            continue
        # find a degenerate rational fiber
        found = None
        for p in enumerate_plane_points(ctx):
            t = classify_fiber(spec, p)
            if t in (FiberType.CROSS, FiberType.DOUBLE_LINE):
                found = p
                break
        if found is None:
            continue
        big = field_new(4 if ctx.k == 1 else 4)
        verdict = smooth_along_fiber(spec, found)
        brute = brute_fiber_singular_points(spec, found, big)
        if brute:
            assert not verdict, (spec.sections, found)
        # no rational singular point does not force smoothness over the
        # closure, so only the one-sided implication is asserted here
        checked += 1
    assert checked == 40


def test_smooth_verdicts_exact_on_f2_specs_with_closure_sample():
    # over F2-coefficient specs, sample the closure side as well: if the
    # verdict says smooth, no singular point may show up over F16 either
    rng = random.Random(29)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 4000:
        attempts += 1
        spec = rand_spec(rng, F2, max_entry_degree=1)
        try:
            from conic2.conic import spec_validate

            spec_validate(spec)
        except Exception:
            continue
        found = None
        for p in enumerate_plane_points(F2):
            if classify_fiber(spec, p) in (FiberType.CROSS, FiberType.DOUBLE_LINE):
                found = p
                break
        if found is None:
            continue
        if smooth_along_fiber(spec, found):
            assert not brute_fiber_singular_points(spec, found, F16)
        checked += 1
    assert checked == 25


# -- the total space off Sigma ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 4], ids=["F2", "F4", "F16"])
def test_discriminant_is_the_conic_form_at_the_radical(k):
    """Delta = Q(n) and dDelta/dx_i = (dQ/dx_i)(n), with n = (s_bc, s_ac, s_ab)
    and Q = sum of s_uv * u * v: the fiber partials of Q vanish at n in
    characteristic 2, so off Sigma the total space is singular over p exactly
    when Delta is."""
    ctx = field_new(k)
    rng = random.Random(40 + k)
    for _ in range(40):
        spec = rand_spec(rng, ctx)
        s = spec.sections
        n = {"a": s["bc"], "b": s["ac"], "c": s["ab"]}

        def q_at_n(coefficient):
            out = Poly.zero(ctx, BASE_VARS)
            for key in s:
                out = out + coefficient(key) * n[key[0]] * n[key[1]]
            return out

        delta = discriminant(spec)
        assert q_at_n(lambda key: s[key]) == delta
        for v in BASE_VARS:
            assert q_at_n(lambda key: partial_derivative(s[key], v)) == partial_derivative(delta, v)


def _over_f16(p):
    """The coordinates of p in F_16, or None when p is not rational over F_16."""
    sub = field_new(math.gcd(4, p.ctx.k))
    coords = [section_bits(sub, p.ctx, c) for c in p.coords]
    return None if None in coords else tuple(embed_bits(sub, F16, c) for c in coords)


# indices of rand_spec(random.Random(7), max_entry_degree=1) draws: two whose
# Delta is a double line outside Sigma, then ten whose certificates pass H2,
# H3 and H5, with Delta of degree 3 to 5
_GLOBAL_SMOOTHNESS_DRAWS = (7, 21, 121, 187, 223, 226, 279, 350, 532, 660, 689, 893)


def test_total_space_is_singular_only_above_the_h3_meetings():
    """Where H2, H3 and H5 pass, the F_16 points of the base over which
    brute_fiber_singular_points finds a singular point of X are exactly the
    meetings of two components rational over F_16; a repeated component
    outside Sigma, along which X is singular, fails H2."""
    cubic = rand_spec(random.Random(1), F2)  # Delta = (x^2*z + x*y^2 + z^3)^2
    h2 = surface_criterion(cubic).hypotheses["h2_reducible_sing_in_sigma"]
    assert not h2.passed and h2.detail == "repeated component x^2*z + x*y^2 + z^3 is not inside Sigma"
    rng = random.Random(7)
    draws = [rand_spec(rng, max_entry_degree=1) for _ in range(_GLOBAL_SMOOTHNESS_DRAWS[-1] + 1)]
    checked = 0
    for spec in [cubic] + [draws[i] for i in _GLOBAL_SMOOTHNESS_DRAWS]:
        hyps = surface_criterion(spec).hypotheses
        if not all(hyps[name].passed for name in (
                "h2_reducible_sing_in_sigma", "h3_transversal_crosses_nodes", "h5_smooth_along_double_lines")):
            continue
        checked += 1
        delta = discriminant(spec).embed_to(F16)
        # off Delta the fiber is a smooth conic, and X is smooth along it
        singular = {p.coords for p in enumerate_plane_points(F16)
                    if delta.eval_bits(F16, p.coords) == 0 and brute_fiber_singular_points(spec, p, F16)}
        comps = [f for f, _ in component_factorization(spec)]
        meetings = {_over_f16(p) for i, c1 in enumerate(comps) for c2 in comps[i + 1:]
                    for p in intersection_points(c1, c2).points} - {None}
        assert singular == meetings
    assert checked == 10


@pytest.mark.fresh_interpreter
def test_certificates_are_threadsafe_and_deterministic():
    names = ["ex1", "ex3", "ex4", "ex5", "rem_double_line"]

    def run(name):
        spec = load_corpus_spec(name)
        return surface_criterion(spec, None).to_json()

    serial = {name: run(name) for name in names}
    # the serial pass warmed the process-wide caches; clear them so the
    # threads fill them at the same time, then run a round that reads them
    clear_caches()
    rounds = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave inside the cache fills
    try:
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=5) as pool:
                rounds.append(dict(zip(names, pool.map(run, names, timeout=300))))
    finally:
        sys.setswitchinterval(switch)
    assert rounds == [serial, serial]


def test_search_with_wrong_target_returns_empty():
    from conic2.amcert import example81_template, search_spieghiamolo

    d1 = plane_poly("x^3*z + y^4")
    template = dataclasses.replace(example81_template(), target_components=(d1, d1))
    result = search_spieghiamolo(template, budget=2048)
    assert result.hits == []
    assert not result.exhausted_budget  # enumeration completed, nothing survived
