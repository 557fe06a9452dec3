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

from conic2 import _dense, amcert, geom
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
from conic2.factor import gcd_homogeneous_many
from conic2.geom import (
    ExtensionBound,
    PositiveDimensional,
    solve_system,
)
from conic2.gf2k import field_new
from conic2.poly import Poly, resultant

from _helpers import (
    clear_caches,
    enumerate_plane_points,
    gcd_first_solve_system,
    list_compose,
    list_gcd,
    list_recombination_candidate,
    list_sp_mul,
    moved_stream,
    naive_mul,
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
            # no z-free input and every pairwise z-resultant 0: the eliminant
            # comes from ideal elements
            if all(p.degree_in("z") > 0 for p in nonzero) and all(
                    resultant(f, g, "z").is_zero() for f, g in combinations(nonzero, 2)):
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
    clear_caches()  # each Sigma solved here, not read from amcert._solved
    for name in ("ex1", "ex3", "ex4", "ex5"):  # flat, finite Sigma
        surface_criterion(load_corpus_spec(name))
    assert calls == []
    # rem_double_line's Sigma xy = 0 is a pair of lines, and its components
    # x and y lie inside it: each of these solves takes the gcd and raises
    # PositiveDimensional; Sigma's, kept by amcert._solved, is not solved
    # again
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
        if all(list_gcd(ctx, a, b) == [1] for a, b in combinations(fs, 2)):
            return fs


def _product(ctx, base):
    prod = [1]
    for g in base:
        prod = naive_mul(ctx, prod, g)
    return prod


def _lift_input(rng, ctx, base, prec):
    """A monic column polynomial whose t^0 digit is the product of base and
    whose higher digits are random of lower degree."""
    prod = _product(ctx, base)
    n = _dense.deg(prod)
    digits = [prod] + [_dense.trim([rng.randrange(ctx.q) for _ in range(n)]) for _ in range(prec - 1)]
    return [_dense.trim([d[idx] if len(d) > idx else 0 for d in digits]) for idx in range(n + 1)]


def _ring_lift(R, cols, base, prec, r=0):
    """The ring's lift of list inputs, its factors unpacked to lists."""
    lifted = R.hensel_lift([R.pack(c) for c in cols], [R.pack(g) for g in base], r, prec)
    return [[R.unpack(c) for c in g] for g in lifted]


@pytest.mark.parametrize("ctx", [F2, F4, F16], ids=["F2", "F4", "F16"])
def test_hensel_lift_matches_the_rebuilt_product_oracle(ctx):
    R = _dense._ring(ctx)
    rng = random.Random(77 + ctx.k)
    for s in (2, 3, 4, 5):
        for _ in range(4):
            base = _coprime_monic(rng, ctx, s)
            prec = rng.randint(2, 9)
            cols = _lift_input(rng, ctx, base, prec)
            lifted = _ring_lift(R, cols, base, prec)
            assert lifted == sp_mul_hensel_lift(ctx, cols, [list(g) for g in base], prec)
            prod = lifted[0]
            for g in lifted[1:]:
                prod = list_sp_mul(ctx, prod, g, prec)
            assert prod == cols


def test_hensel_lift_builds_no_truncated_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("col_mul_trunc called")

    rng = random.Random(5)
    for ctx in (F2, F4):  # one-bit slots, and slots reduced by the modulus
        R = _dense._ring(ctx)
        base = _coprime_monic(rng, ctx, 4)
        cols = _lift_input(rng, ctx, base, 7)
        want = _ring_lift(R, cols, base, 7)
        with monkeypatch.context() as m:
            m.setattr(type(R), "col_mul_trunc", forbidden)
            assert _ring_lift(R, cols, base, 7) == want


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 64], ids=lambda k: f"F2^{k}")
def test_lifts_and_recombination_candidates_match_the_list_oracles(k):
    """The ring's lifted factors and recombination candidates equal those
    the list oracles compute.  An input taken at t = r and scaled by a unit
    whose constant term need not be 1 lifts to the factors of the monic
    input."""
    ctx = field_new(k)
    R = _dense._ring(ctx)
    rng = random.Random(78 + k)
    refused = []
    for s in (2, 3, 4) if k < 64 else (2, 3):  # F_{2^64} multiplies bit-serially
        for r in (0, rng.randrange(1, ctx.q)):
            base = _coprime_monic(rng, ctx, s)
            prec = rng.randint(2, 8)
            monic = _lift_input(rng, ctx, base, prec)
            unit = [rng.randrange(1, ctx.q)] + [rng.randrange(ctx.q) for _ in range(3)]
            cols = [list_compose(ctx, naive_mul(ctx, c, unit), [r, 1]) for c in monic]
            lifted = _ring_lift(R, cols, base, prec, r)
            assert lifted == _ring_lift(R, monic, base, prec) == sp_mul_hensel_lift(ctx, monic, base, prec)
            # cols passes every degree bound; the constant columns of the
            # base product refuse most subsets
            for target in (cols, [[c] if c else [] for c in _product(ctx, base)]):
                for size in range(1, s):
                    for combo in combinations(range(s), size):
                        cand = R.recombination_candidate(
                            [[R.pack(c) for c in lifted[i]] for i in combo],
                            [R.pack(c) for c in target], r, prec)
                        got = None if cand is None else [R.unpack(c) for c in cand]
                        assert got == list_recombination_candidate(
                            ctx, [lifted[i] for i in combo], target, r, prec)
                        refused.append(got is None)
    assert any(refused) and not all(refused)


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

    def counted(polys, k_max):
        calls.append(len(polys))
        if error is not None:
            raise error
        return solve_system(polys, k_max)

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
    clear_caches()  # the corpus spec's Sigma is solved, not read from amcert._solved
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
# a change here is a certificate change and must be stated.  Restated when H2
# began to fail on a repeated component outside Sigma: 8 of the 96 specs go
# from H2 pass to fail, and none of them passed all five before.
COLD_FAMILY_SHA256 = "8842dc3ba5b953b41ca0adfec2307a8a2d168a4c622e2e3272827866e2a58070"


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
