"""Randomized cross-validation of the geometry core against brute oracles,
plus the degenerate-elimination fallback and a concurrency smoke test."""

import dataclasses
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
from conic2.amcert import surface_criterion
from conic2.geom import (
    BezoutMismatch,
    CommonComponent,
    ExtensionBound,
    PositiveDimensional,
    smooth_along_fiber,
    solve_system,
)
from conic2.gf2k import field_new
from conic2.poly import Poly, plane_poly, poly_parse

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
