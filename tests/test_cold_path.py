"""The cold path proves each fact once, from data it already has.

Each change keeps its former body as the oracle: ``solve_system`` proves
finiteness from its eliminant's inputs (oracle: the gcd-first solver
``_helpers.gcd_first_solve_system``), Hensel lifting computes one digit of
the product per step (oracle: ``_helpers.sp_mul_hensel_lift``), and the
certifier decides flatness on Sigma's direction forms (oracle: a fresh
flatness solve).  Absolute irreducibility is tested in ``test_factor.py``.
A seeded family of random specs, and the first 20 passes of the benchmark's
moved stream for two seeds, certified without claimed factors, pin the cold
path's certificates.
"""

import hashlib
import random
from itertools import combinations

import pytest

from conic2 import _dense, amcert, factor, geom
from conic2.amcert import surface_criterion
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    discriminant,
    flatness_check,
    sigma_generators,
    spec_from_dict,
)
from conic2.factor import _hensel_lift, _sp_mul, gcd_homogeneous_many
from conic2.geom import (
    ExtensionBound,
    PositiveDimensional,
    _resultant_forms,
    solve_system,
)
from conic2.gf2k import field_new
from conic2.poly import Poly

from _helpers import (
    enumerate_plane_points,
    gcd_first_solve_system,
    moved_stream,
    rand_homogeneous,
    rand_spec,
    sp_mul_hensel_lift,
    vanish_at,
)

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)


# -- finiteness from the eliminant -------------------------------------------------


def _binary_form(rng, ctx, d):
    form = Poly.from_terms(ctx, BASE_VARS, [((i, d - i, 0), rng.randrange(ctx.q)) for i in range(d + 1)])
    return form if not form.is_zero() else Poly.var(ctx, BASE_VARS, "y", d)


def _z_positive(rng, ctx, d):
    """A form of degree d with a z^d term, so of positive z-degree."""
    while True:
        form = Poly.var(ctx, BASE_VARS, "z", d) + rand_homogeneous(rng, ctx, d, max_terms=3)
        if form.degree_in("z") == d:
            return form


def _planted_system(rng, ctx, kind):
    """Two or three inputs: with a common z-free binary form, with a common
    factor of positive z-degree, pairwise sharing factors of positive
    z-degree but with no common factor, or random."""
    def cofactor():
        return rand_homogeneous(rng, ctx, rng.randint(0, 2), max_terms=4, nonzero=True)

    if kind == "z-free":
        h = _binary_form(rng, ctx, rng.randint(1, 2))
        return [h * cofactor() for _ in range(rng.randint(2, 3))]
    if kind == "z-positive":
        h = _z_positive(rng, ctx, rng.randint(1, 2))
        return [h * cofactor() for _ in range(rng.randint(2, 3))]
    if kind == "pairwise":
        a, b, c = (_z_positive(rng, ctx, 1) for _ in range(3))
        return [a * b, a * c, b * c]
    return [rand_homogeneous(rng, ctx, rng.randint(1, 3), max_terms=5, nonzero=True)
            for _ in range(rng.randint(2, 3))]


def _outcome(solve, system):
    """Points with their fields, in order, and the closure; or the error's
    type and, for PositiveDimensional, its common factor."""
    try:
        found = solve(system)
    except RuntimeError as exc:
        return type(exc).__name__, getattr(exc, "common_factor", None)
    return [(p.ctx.k, p.coords) for p in found.points], found.certificate


@pytest.mark.parametrize("ctx, count", [(F2, 40), (F4, 30)], ids=["F2", "F4"])
def test_solve_system_matches_the_gcd_first_oracle(ctx, count):
    rng = random.Random(1000 + ctx.k)
    seen = set()
    for kind in ("z-free", "z-positive", "pairwise", "random") * count:
        system = _planted_system(rng, ctx, kind)
        got = _outcome(solve_system, system)
        assert got == _outcome(gcd_first_solve_system, system), [str(p) for p in system]
        nonzero = [p for p in system if not p.is_zero()]
        if got[0] == "PositiveDimensional":
            seen.add(f"{kind}: positive-dimensional")
        elif isinstance(got[0], list):
            seen.add(f"{kind}: finite")
            if not _resultant_forms(nonzero):
                seen.add(f"{kind}: finite through the ideal-element fallback")
    assert {
        "z-free: positive-dimensional",
        "z-positive: positive-dimensional",
        "pairwise: finite through the ideal-element fallback",
        "random: finite",
    } <= seen


def _counting_gcd(monkeypatch):
    """The gcds geom takes, as a list that fills with their results."""
    calls = []

    def counted(polys):
        calls.append(gcd_homogeneous_many(polys))
        return calls[-1]

    monkeypatch.setattr(geom, "gcd_homogeneous_many", counted)
    return calls


def test_gcd_runs_only_where_the_finiteness_proof_fails(monkeypatch):
    calls = _counting_gcd(monkeypatch)
    for name in ("ex1", "ex3", "ex4", "ex5"):  # flat, finite Sigma
        surface_criterion(load_corpus_spec(name))
    assert calls == []
    # rem_double_line's Sigma xy = 0 is a pair of lines, and its components
    # x and y lie inside it: each of these solves takes the gcd and raises
    # PositiveDimensional; the kept error of the early Sigma solve is not
    # solved again
    surface_criterion(load_corpus_spec("rem_double_line"))
    assert [str(g) for g in calls] == ["x*y", "y", "x"]


def test_singular_points_reads_squarefreeness_from_the_solve(monkeypatch):
    calls = _counting_gcd(monkeypatch)
    x, y, z = (Poly.var(F2, BASE_VARS, v) for v in BASE_VARS)
    assert len(geom.singular_points(x ** 3 * z + y ** 4).points) == 1
    assert calls == []
    # a repeated factor, a perfect square and a repeated z-free factor
    for curve in ((x * z + y * y) ** 2 * (x + y), (x * y + z * z) ** 2, x * x * (y * z + x * x)):
        with pytest.raises(geom.NotSquarefree, match="has a repeated factor"):
            geom.singular_points(curve)
    assert len(calls) == 3 and not any(g.is_constant() for g in calls)


# -- digit-wise Hensel lifting ---------------------------------------------------------


def _coprime_monic(rng, ctx, s):
    while True:
        fs = [[rng.randrange(ctx.q) for _ in range(rng.randint(1, 3))] + [1] for _ in range(s)]
        if all(_dense.deg(_dense.gcd(ctx, a, b)) == 0 for a, b in combinations(fs, 2)):
            return fs


def _lift_input(rng, ctx, base, prec):
    """A monic column polynomial whose t^0 digit is the product of base and
    whose higher digits are random of lower degree."""
    prod = [1]
    for g in base:
        prod = _dense.mul(ctx, prod, g)
    n = _dense.deg(prod)
    digits = [prod] + [_dense.trim([rng.randrange(ctx.q) for _ in range(n)]) for _ in range(prec - 1)]
    return [_dense.trim([d[idx] if len(d) > idx else 0 for d in digits]) for idx in range(n + 1)]


@pytest.mark.parametrize("ctx", [F2, F4, F16], ids=["F2", "F4", "F16"])
def test_hensel_lift_matches_the_rebuilt_product_oracle(ctx):
    rng = random.Random(77 + ctx.k)
    for s in (2, 3, 4, 5):
        for _ in range(4):
            base = _coprime_monic(rng, ctx, s)
            prec = rng.randint(2, 9)
            cols = _lift_input(rng, ctx, base, prec)
            lifted = _hensel_lift(ctx, cols, base, prec)
            assert lifted == sp_mul_hensel_lift(ctx, cols, [list(g) for g in base], prec)
            prod = lifted[0]
            for g in lifted[1:]:
                prod = _sp_mul(ctx, prod, g, prec)
            assert prod == cols


def test_hensel_lift_builds_no_truncated_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("_sp_mul called")

    rng = random.Random(5)
    base = _coprime_monic(rng, F4, 4)
    cols = _lift_input(rng, F4, base, 7)
    want = _hensel_lift(F4, cols, base, 7)
    monkeypatch.setattr(factor, "_sp_mul", forbidden)
    assert _hensel_lift(F4, cols, base, 7) == want


# -- flatness on Sigma ------------------------------------------------------------------


def _witness(report):
    w = report.witness
    return None if w is None else (w.ctx.k, w.coords)


def _flatness_both_ways(spec, k_max=24):
    """The flat verdict, after checking that the fresh and the within-Sigma
    flatness solves agree; None where Sigma is not a finite point set."""
    off = [s for s in sigma_generators(spec) if not s.is_zero()]
    if not off:
        return None
    try:
        sig = solve_system(off, k_max)
    except (PositiveDimensional, ExtensionBound):
        return None
    fresh = flatness_check(spec, k_max)
    within = flatness_check(spec, k_max, within=sig)
    assert (within.flat, _witness(within), within.generically_smooth) == (
        fresh.flat, _witness(fresh), fresh.generically_smooth)
    return fresh.flat


def test_flatness_on_sigma_matches_fresh_on_the_corpus():
    verdicts = [_flatness_both_ways(load_corpus_spec(e["name"])) for e in corpus_manifest()["examples"]]
    assert verdicts.count(True) == 5  # rem_double_line's Sigma is a curve


def _planted_spec(rng):
    """A random spec whose six sections all vanish at one random point."""
    spec = rand_spec(rng, max_entry_degree=2)
    point = rng.choice(list(enumerate_plane_points(spec.ctx))).coords
    sections = {key: vanish_at(rng, spec.ctx, spec.forced_degree(key), point) for key in SECTION_KEYS}
    return ConicBundleSpec(spec.ctx, spec.degree_vector, spec.value_degree, sections)


def test_flatness_on_sigma_matches_fresh_on_random_specs():
    rng = random.Random(31)
    verdicts = []
    for _ in range(40):
        verdicts.append(_flatness_both_ways(rand_spec(rng, max_entry_degree=2)))
        verdicts.append(_flatness_both_ways(_planted_spec(rng)))
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def _sigma_solves(monkeypatch, error=None):
    """Replace the certifier's own Sigma solve by a counted one, or by one
    that raises ``error``."""
    calls = []

    def counted(polys, k_max, within=None):
        calls.append(len(polys))
        if error is not None:
            raise error
        return solve_system(polys, k_max, within=within)

    monkeypatch.setattr(amcert, "solve_system", counted)
    return calls


def test_sigma_is_not_solved_for_a_bundle_that_is_not_generically_smooth(monkeypatch):
    # Delta = 0 when only aa and ab are nonzero; the certificate stops after
    # flatness, so an early Sigma solve would be wasted
    x, y, z = (Poly.var(F2, BASE_VARS, v) for v in BASE_VARS)
    sections = {key: Poly.zero(F2, BASE_VARS) for key in SECTION_KEYS}
    sections.update(aa=x * x + y * z, ab=x * y + z * z)
    spec = ConicBundleSpec(F2, (1, 1, 1), 0, sections)
    calls = _sigma_solves(monkeypatch)
    cert = surface_criterion(spec)
    assert not cert.setup["generically_smooth"] and calls == []


def test_a_bundle_without_off_diagonal_sections_stops_at_the_precondition(monkeypatch):
    # Delta = s_ab s_bc s_ac + s_ab^2 s_cc + s_ac^2 s_bb + s_bc^2 s_aa is 0
    # when s_ab = s_ac = s_bc = 0, so such a bundle is not generically smooth
    # and never reaches the point where Sigma, their common zeros, is recorded
    rng = random.Random(11)
    calls = _sigma_solves(monkeypatch)
    for ctx in (F2, F4, F16):
        for _ in range(4):
            ev = tuple(rng.randint(0, 2) for _ in range(3))
            sections = {key: Poly.zero(ctx, BASE_VARS) for key in SECTION_KEYS}
            for key, e in zip(("aa", "bb", "cc"), ev):
                sections[key] = rand_homogeneous(rng, ctx, 2 * e, nonzero=True)
            spec = ConicBundleSpec(ctx, ev, 0, sections)
            assert all(s.is_zero() for s in sigma_generators(spec))
            assert discriminant(spec).is_zero()
            cert = surface_criterion(spec)
            assert not cert.setup["generically_smooth"] and cert.sigma == {}
            assert [h.detail for h in cert.hypotheses.values()] == [
                "precondition failed: bundle not flat or not generically smooth"
            ] * 5
    assert calls == []


def test_sigma_first_solve_holds_back_only_solver_errors(monkeypatch):
    # a bundle that is not flat returns before Sigma is recorded, so an error
    # held back there would be dropped
    rng = random.Random(5)
    while True:
        bent = _planted_spec(rng)
        report = flatness_check(bent)
        if not report.flat and report.generically_smooth:
            break
    _sigma_solves(monkeypatch, TypeError("a programming error"))
    with pytest.raises(TypeError, match="a programming error"):
        surface_criterion(bent)
    spec = load_corpus_spec(corpus_manifest()["examples"][0]["name"])
    calls = _sigma_solves(monkeypatch, ExtensionBound("held back"))
    with pytest.raises(ExtensionBound, match="held back"):
        surface_criterion(spec)
    assert len(calls) == 1  # kept and raised where Sigma is recorded, not solved again


# -- pinned cold-path certificates -------------------------------------------------------


# sha256 of the certificates' to_json() strings, concatenated, of the 96
# specs rand_spec(rng, max_entry_degree=3) drawn in turn from one
# random.Random(2026) (rand_spec and rand_homogeneous of _helpers), each
# certified by surface_criterion(spec, witness_bound=4) without claimed
# factors.  First computed at commit fc1ec16, before finiteness, absolute
# irreducibility and flatness were read from data the pipeline already has;
# a change here is a certificate change and must be stated.
COLD_FAMILY_SHA256 = "27a9429deca8b267b291cebf3076c85ffe93cf86e1f523dedf642987773b22bf"


def test_cold_path_certificates_are_byte_stable():
    rng = random.Random(2026)
    specs = [rand_spec(rng, max_entry_degree=3) for _ in range(96)]
    texts = [surface_criterion(spec, witness_bound=4).to_json() for spec in specs]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == COLD_FAMILY_SHA256


# sha256 over the certificates of the first 20 passes of the benchmark's
# moved stream (perfbench/moved.py MovedStream(seed, corpus sources in
# manifest order)), each spec certified by surface_criterion(spec) without
# claimed factors; each certificate's to_json() is followed by one NUL byte,
# as perfbench's Moved.digest hashes them.  First computed at commit ce7bdce,
# before components of Delta stopped being factored again.
MOVED_SHA256 = {
    "21.0": "2d7eb49720f788d37b5c465fd20ddd8d8f170577fbe145df19a3fc9738d37f58",
    "21.1": "87741758b8406286347c2d6933c7cfe23b46675fe2c7c0dafd10afe15372bd81",
}


@pytest.mark.parametrize("seed", sorted(MOVED_SHA256))
def test_moved_certificates_are_byte_stable(seed):
    stream = moved_stream(seed)
    h = hashlib.sha256()
    for _ in range(20):
        for _, _, data in stream.next_pass():
            h.update(surface_criterion(spec_from_dict(data)).to_json().encode())
            h.update(b"\0")
    assert h.hexdigest() == MOVED_SHA256[seed]
