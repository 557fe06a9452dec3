"""The process-wide caches of amcert: each Sigma and each component's
meeting with it, each component's singular locus and each pair's meeting
with its Frobenius orbits are solved once per process, each Delta without
claimed factors is factored once, and each claim of factors is multiplied,
grouped and proved once; each polynomial gets one absolute-irreducibility
verdict, and each section one jet entry per point; errors other than a
pair's BezoutMismatch or CommonComponent and a system's PositiveDimensional
are never kept, a kept error is never raised again, and certificates do not
depend on what the caches hold.  Each point object is rendered at most once
per process.  The termwise division by a monomial and the log-domain point
evaluation these certificates run on agree with the general paths."""

import gc
import json
import random
import sys
from collections import Counter

import pytest

from conic2 import amcert, conic, factor, geom, poly
from conic2.amcert import (
    FactorizationMismatch,
    NotAbsolutelyIrreducible,
    component_factorization,
    example81_template,
    search_spieghiamolo,
    surface_criterion,
)
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    ProjPoint,
    section_jet,
    sigma_generators,
    spec_from_dict,
)
from conic2.factor import UnluckySpecializationExhausted
from conic2.geom import BezoutMismatch, CommonComponent, ExtensionBound, PositiveDimensional
from conic2.gf2k import embed_bits, field_new
from conic2.poly import NotDivisible, Poly, exact_div, partial_derivative, plane_poly, poly_parse

from _helpers import SerialField, clear_caches, moved_stream, rand_homogeneous, rand_spec

D1 = plane_poly("x^3*z + y^4")
D2 = plane_poly("x^3*y + z^4")


def _counting_solves(monkeypatch):
    """Count the calls the curve caches make into geom."""
    counts = Counter()

    def counted(name):
        fn = getattr(geom, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("intersection_points", "singular_points"):
        monkeypatch.setattr(geom, name, counted(name))
    return counts


def _corpus():
    """(name, spec, claimed factors) of each corpus entry, in manifest order."""
    out = []
    for entry in corpus_manifest()["examples"]:
        spec = load_corpus_spec(entry["name"])
        claimed = [poly_parse(t, spec.ctx, ("x", "y", "z")) for t in entry.get("claimed_factors") or []]
        out.append((entry["name"], spec, claimed or None))
    return out


@pytest.mark.fresh_interpreter
def test_search_solves_curve_geometry_once_per_process(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_caches()
    result = search_spieghiamolo(example81_template(), budget=56)
    assert len(result.hits) == 56
    assert counts == {"intersection_points": 1, "singular_points": 2}
    search_spieghiamolo(example81_template(), budget=56)
    assert counts == {"intersection_points": 1, "singular_points": 2}

    # ex1 and ex2 have the template's targets as their components
    claims = {name: claimed for name, _, claimed in _corpus()}
    for name in ("ex1", "ex2"):
        assert claims[name] == [D1, D2]
        assert surface_criterion(load_corpus_spec(name), claims[name]).all_pass
    assert counts == {"intersection_points": 1, "singular_points": 2}


def _certificates(specs, clear_each):
    texts = []
    for spec, claimed in specs:
        if clear_each:
            clear_caches()
        texts.append(surface_criterion(spec, claimed).to_json())
    return texts


def _assert_cache_independent(specs):
    """Each spec certified from a cleared cache, then the whole list twice
    from one shared cache: a first pass that fills it and a warm pass."""
    cold = _certificates(specs, clear_each=True)
    clear_caches()
    shared = _certificates(specs, clear_each=False)
    hits = amcert._singular_locus.cache_info().hits
    warm = _certificates(specs, clear_each=False)
    assert amcert._singular_locus.cache_info().hits > hits
    assert cold == shared == warm


@pytest.mark.fresh_interpreter
def test_corpus_certificates_do_not_depend_on_the_cache():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    specs += [(spec, None) for spec, _ in specs]
    _assert_cache_independent(specs)


@pytest.mark.fresh_interpreter
@pytest.mark.parametrize("seed", ["21.0", "21.1"])
def test_moved_certificates_do_not_depend_on_the_cache(seed):
    stream = moved_stream(seed)
    specs = [(spec_from_dict(data), None) for _ in range(20) for _, _, data in stream.next_pass()]
    _assert_cache_independent(specs)


@pytest.mark.fresh_interpreter
def test_solver_errors_are_raised_again_and_not_kept(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_caches()
    # d1 and d2 meet in 16 points over F_16, and d1*d2 is singular there:
    # neither fits in F_4
    for _ in range(2):
        with pytest.raises(ExtensionBound):
            amcert._meeting(D1, D2, 2)
        with pytest.raises(ExtensionBound):
            amcert._singular_locus(D1 * D2, 2)
    assert counts == {"intersection_points": 2, "singular_points": 2}
    assert amcert._meeting.cache_info().currsize == 0
    assert amcert._singular_locus.cache_info().currsize == 0
    with pytest.raises(ExtensionBound):
        surface_criterion(load_corpus_spec("ex1"), [D1, D2], k_max=2)
    with pytest.raises(ExtensionBound):
        surface_criterion(load_corpus_spec("ex1"), [D1, D2], k_max=2)


@pytest.mark.fresh_interpreter
def test_a_pairs_bezout_or_common_component_error_is_kept(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_caches()
    tangent = plane_poly("x*z + y^2")  # the line x is tangent to it at [0:0:1]
    line = plane_poly("x")
    for c1, c2, kind in ((line, tangent, BezoutMismatch), (D1, D1, CommonComponent)):
        kept = amcert._meeting(c1, c2, 24)
        assert isinstance(kept, kind)
        assert kept.__traceback__ is None and kept.__context__ is None
        assert amcert._meeting(c1, c2, 24) is kept
    assert counts == {"intersection_points": 2}


# -- one solve per set of equations -----------------------------------------------------


def _amcert_solves(monkeypatch):
    """Count the solves amcert makes through its own binding, all of them
    amcert._solved's misses, by what they solve: a component's meeting with
    a Sigma that is not finite when amcert._analyse_component asks, and
    otherwise a Sigma."""
    callers = Counter()
    solve = amcert.solve_system

    def counted(polys, k_max=24):
        asker = sys._getframe(2).f_code.co_name  # the caller of amcert._solved
        callers["component" if asker == "_analyse_component" else "sigma"] += 1
        return solve(polys, k_max)

    monkeypatch.setattr(amcert, "solve_system", counted)
    return callers


@pytest.mark.fresh_interpreter
def test_a_corpus_pass_solves_each_sigma_once_per_process(monkeypatch):
    solves = _amcert_solves(monkeypatch)
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    cold = _certificates(specs, clear_each=True)
    clear_caches()
    solves.clear()
    first = _certificates(specs, clear_each=False)
    # ex2's equations are ex1's, so five solves for six specs; the Sigma of
    # rem_double_line is not finite, so its first certificate solves each of
    # its three components' meetings with Sigma in the component analysis
    assert solves == {"sigma": 5, "component": 3}
    assert _certificates(specs, clear_each=False) == first
    # the second pass solves no Sigma and no component system: 0 of each
    assert solves == {"sigma": 5 + 0, "component": 3 + 0}
    info = amcert._solved.cache_info()
    assert (info.misses, info.hits, info.currsize) == (8, 1 + 6 + 3, 8)
    # ex1 certified with a cold Sigma and ex2, the same spec, with ex1's
    assert cold == first and first[0] == first[1]


@pytest.mark.fresh_interpreter
def test_a_positive_dimensional_sigma_is_kept_without_its_frames(monkeypatch):
    solves = _amcert_solves(monkeypatch)
    clear_caches()
    spec = load_corpus_spec("rem_double_line")
    kept = amcert._solved(sigma_generators(spec), 24)
    assert isinstance(kept, PositiveDimensional) and str(kept.common_factor) == "x*y"
    assert kept.__traceback__ is None and kept.__context__ is None
    assert amcert._solved(sigma_generators(spec), 24) is kept
    cert = surface_criterion(spec)
    assert cert.sigma == {"error": str(kept), "positive_dimensional": True}
    assert not cert.hypotheses["h5_smooth_along_double_lines"].passed
    assert solves == {"sigma": 1, "component": 3}
    # two of the components lie on Sigma's curve xy: their systems' kept
    # PositiveDimensional outcomes are answered, never raised again
    assert surface_criterion(spec).to_json() == cert.to_json()
    assert solves == {"sigma": 1, "component": 3}
    assert kept.__traceback__ is None and kept.__context__ is None


@pytest.mark.fresh_interpreter
def test_a_sigma_beyond_k_max_is_solved_again_and_raised_after_the_precondition(monkeypatch):
    solves = _amcert_solves(monkeypatch)
    clear_caches()
    ex3 = load_corpus_spec("ex3")  # two of its three Sigma points lie in F_4 only
    for _ in range(2):
        with pytest.raises(ExtensionBound):
            amcert._solved(sigma_generators(ex3), 1)
    assert solves == {"sigma": 2} and amcert._solved.cache_info().currsize == 0
    # the same Sigma under diagonal sections that vanish at its point
    # [0:0:1]: the bundle is not flat, so the error held back for Sigma goes
    # with the certificate
    sections = dict(ex3.sections, aa=plane_poly("x"), bb=plane_poly("y"),
                    cc=ex3.sections["cc"] + plane_poly("z^5"))
    bent = ConicBundleSpec(ex3.ctx, ex3.degree_vector, ex3.value_degree, sections)
    cert = surface_criterion(bent, k_max=1)
    assert cert.setup["flat_witness"] == ["F2:0", "F2:0", "F2:1"] and not cert.setup["flat"]
    assert solves == {"sigma": 3}
    # ex3 is flat: Sigma is solved again and its error raised where Sigma is
    # recorded, after the factorization
    factored = []
    factorization = amcert.component_factorization
    monkeypatch.setattr(amcert, "component_factorization",
                        lambda spec, claimed: factored.append(spec) or factorization(spec, claimed))
    with pytest.raises(ExtensionBound):
        surface_criterion(ex3, k_max=1)
    assert len(factored) == 1 and factored[0] is ex3
    assert solves == {"sigma": 4} and amcert._solved.cache_info().currsize == 0


# -- a warm pass solves and factors nothing ----------------------------------------------


def _counting_calls(monkeypatch, names):
    """Count the calls to each ``module.function`` named, through every
    conic2 module that binds it, as the benchmark's tracer rebinds them."""
    counts = Counter()
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "conic2"]
    for qualified in names:
        module, name = qualified.split(".")
        original = getattr(getattr(sys.modules["conic2"], module), name)

        def counted(*args, _original=original, _name=qualified, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:
            if getattr(m, name, None) is original:
                monkeypatch.setattr(m, name, counted)
    return counts


@pytest.mark.fresh_interpreter
def test_a_warm_corpus_pass_solves_and_factors_nothing(monkeypatch):
    counts = _counting_calls(monkeypatch, ("geom.solve_system", "factor.form_factor",
                                           "factor.bivariate_factor", "geom.read_off"))
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    clear_caches()
    first = _certificates(specs, clear_each=False)
    assert counts["geom.solve_system"] > 0 and counts["factor.form_factor"] > 0
    counts.clear()
    assert _certificates(specs, clear_each=False) == first
    # each curve-only fact is read from amcert's caches; the three read-offs
    # left are flatness's, which depends on the bundle's diagonal sections
    assert counts == {"geom.read_off": 3}


# The distinct keys one pass needs, for each cache of 32 entries: the size
# holds a corpus pass, with or without its claimed factors, or a search,
# several times over, and no more than a few passes of new bundles.
PASS_KEYS = {
    "corpus": {"_solved": 8, "_sigma_meets": 10, "_factored": 1},
    "unclaimed corpus": {"_solved": 8, "_sigma_meets": 10, "_factored": 5},
    "search": {"_solved": 1, "_sigma_meets": 2, "_factored": 0},
}


@pytest.mark.fresh_interpreter
def test_each_pass_fits_the_caches_it_fills():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    passes = {
        "corpus": lambda: _certificates(specs, clear_each=False),
        "unclaimed corpus": lambda: _certificates([(spec, None) for spec, _ in specs], clear_each=False),
        "search": lambda: search_spieghiamolo(example81_template(), budget=56),
    }
    for name, run in passes.items():
        clear_caches()
        run()
        run()  # a warm pass adds no key
        assert {cache: getattr(amcert, cache).cache_info().currsize for cache in PASS_KEYS[name]} \
            == PASS_KEYS[name], name
    for cache in PASS_KEYS["corpus"]:
        size = getattr(amcert, cache).cache_parameters()["maxsize"]
        assert size == 32 and max(keys[cache] for keys in PASS_KEYS.values()) <= size // 3


def _kept_errors():
    """The exceptions amcert's process-wide caches hold, as results."""
    caches = [f for f in vars(amcert).values() if hasattr(f, "cache_info")]
    assert {"_solved", "_sigma_meets", "_factored", "_meeting", "_singular_locus",
            "_claim"} <= {f.__name__ for f in caches}
    return [obj for f in caches for obj in gc.get_referents(f) if isinstance(obj, BaseException)]


@pytest.mark.fresh_interpreter
def test_no_kept_error_holds_frames():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    clear_caches()
    _certificates(specs, clear_each=False)  # cold
    _certificates(specs, clear_each=False)  # warm
    _certificates([(spec_from_dict(data), None) for _, _, data in moved_stream("7").next_pass()],
                  clear_each=False)
    kept = _kept_errors()
    # rem_double_line's curve Sigma and its two components on that curve,
    # and the pairs of ex3, ex4 and ex5 that are not transversal, at least
    assert sum(isinstance(e, PositiveDimensional) for e in kept) >= 3
    assert sum(isinstance(e, BezoutMismatch) for e in kept) >= 3
    assert [e for e in kept if e.__traceback__ is not None or e.__context__ is not None] == []


@pytest.mark.fresh_interpreter
def test_moved_certificates_do_not_depend_on_a_warm_corpus_and_search():
    def moved_passes():
        stream = moved_stream("7")
        return [surface_criterion(spec_from_dict(data)).to_json()
                for _ in range(2) for _, _, data in stream.next_pass()]

    clear_caches()
    cold = moved_passes()
    clear_caches()
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    _certificates(specs, clear_each=False)
    _certificates(specs, clear_each=False)
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    assert moved_passes() == cold


@pytest.mark.fresh_interpreter
def test_each_point_object_is_rendered_at_most_once_per_process(monkeypatch):
    rendered = []
    serialize = ProjPoint.serialize

    def counted(p):
        if p._text is None:
            rendered.append(p)  # kept alive, so no two points rendered share an id
        return serialize(p)

    printed = []  # and each polynomial object is printed at most once
    render = poly._render
    monkeypatch.setattr(ProjPoint, "serialize", counted)
    monkeypatch.setattr(poly, "_render", lambda f: printed.append(f) or render(f))
    clear_caches()
    per_search, fiber_points = [], []
    for _ in range(2):
        before = len(rendered)
        hits = search_spieghiamolo(example81_template(), budget=56).hits
        assert len(hits) == 56
        per_search.append(len(rendered) - before)
        fiber_points.append({tuple(nd["fiber_singular_point"]) for _, cert in hits
                             for e in cert.intersections for nd in e["nodes"]})
    monkeypatch.undo()

    assert len({id(p) for p in rendered}) == len(rendered)
    assert len({id(f) for f in printed}) == len(printed) > 0
    # 1557 serializations when each point was serialized once per
    # certificate, and 56 * 16 fiber singular points of nodes when each
    # candidate made its own.  A search call keeps one point per distinct
    # fiber singular point (amcert._Candidate.point), 22 of them, and
    # renders each once; the two points of the Sigma the candidates share
    # (amcert._solved) and the 18 points of the curve caches are rendered in
    # the first search only
    assert fiber_points[0] == fiber_points[1] and len(fiber_points[0]) == 22
    assert per_search == [22 + 2 + 18, 22]

    p = rendered[0]
    text = p.serialize()
    text.append("changed")
    assert p.serialize() == text[:3] and p.serialize() is not p.serialize()


# -- a search candidate certifies only its own data ---------------------------------


@pytest.mark.fresh_interpreter
def test_search_certificates_do_not_depend_on_the_cache():
    clear_caches()
    cold = [cert.to_json() for _, cert in search_spieghiamolo(example81_template(), budget=56).hits]
    warm = [cert.to_json() for _, cert in search_spieghiamolo(example81_template(), budget=56).hits]
    assert len(cold) == 56 and cold == warm


def _counting_proofs(monkeypatch):
    """The factors amcert asks factor to prove absolutely irreducible, in
    order; the proofs that run are factor._abs_irred_bivariate's misses."""
    asked = []
    prove = amcert._abs_irred
    monkeypatch.setattr(amcert, "_abs_irred",
                        lambda f, irreducible: asked.append(f) or prove(f, irreducible))
    return asked


@pytest.mark.fresh_interpreter
def test_search_builds_the_claim_and_groups_the_meeting_once(monkeypatch):
    grouped = []
    orbits = geom.frobenius_orbits
    asked = _counting_proofs(monkeypatch)
    monkeypatch.setattr(geom, "frobenius_orbits", lambda pts, q: grouped.append(len(pts)) or orbits(pts, q))
    clear_caches()
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    assert asked == [D1, D2] * 56
    # each target is proved once; the other 55 candidates read its verdict
    proofs = factor._abs_irred_bivariate.cache_info()
    assert (proofs.misses, proofs.hits) == (2, 110)
    # each solve groups its points once: the 16 meeting points, the shared
    # Sigma's two, which H5 walks for every candidate, and each target's
    # singular point
    assert sorted(grouped) == [1, 1, 2, 16]
    assert amcert._claim.cache_info().misses == 1 and amcert._claim.cache_info().hits == 55
    # the claim is built once, and a second search rebuilds nothing
    assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
    assert amcert._claim.cache_info().misses == 1
    assert factor._abs_irred_bivariate.cache_info().misses == 2


@pytest.mark.fresh_interpreter
def test_a_second_corpus_pass_proves_nothing_again():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    clear_caches()
    first = _certificates(specs, clear_each=False)
    before = factor._abs_irred_bivariate.cache_info()
    assert _certificates(specs, clear_each=False) == first
    after = factor._abs_irred_bivariate.cache_info()
    # every component of the six specs, claimed or computed, is read back
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 15)


@pytest.mark.fresh_interpreter
def test_a_component_proved_as_a_claimed_factor_is_not_proved_again():
    claimed = [(spec, claims) for _, spec, claims in _corpus()]
    clear_caches()
    first = _certificates(claimed, clear_each=False)
    _certificates([(spec, None) for spec, _ in claimed], clear_each=False)
    components = {(cert["setup"]["field_degree"], f["poly"])
                  for cert in map(json.loads, first) for f in cert["discriminant"]["factors"]}
    # one proof per distinct component, whether claimed or computed
    proofs = factor._abs_irred_bivariate.cache_info()
    assert proofs.misses == len(components) == 12


@pytest.mark.fresh_interpreter
def test_a_cold_corpus_pass_groups_each_meeting_once(monkeypatch):
    callers = Counter()
    orbits = geom.frobenius_orbits

    def counted(points, q):
        callers[sys._getframe(1).f_code.co_name] += 1
        return orbits(points, q)

    monkeypatch.setattr(geom, "frobenius_orbits", counted)
    solves = _counting_solves(monkeypatch)
    clear_caches()
    _certificates([(spec, claims) for _, spec, claims in _corpus()], clear_each=False)
    # each of the 25 solves groups its points once, the 12 meetings and the
    # four distinct finite Sigmas among them (ex2's Sigma is ex1's, read from
    # amcert._solved); H3 and H5 walk the orbits they carry
    assert callers == {"_solve_on_directions": 25}
    assert solves["intersection_points"] == 12


@pytest.mark.fresh_interpreter
def test_a_mismatched_claim_fails_before_any_factor_is_proved(monkeypatch):
    asked = _counting_proofs(monkeypatch)
    clear_caches()
    ex1, ex3 = load_corpus_spec("ex1"), load_corpus_spec("ex3")
    for _ in range(2):  # D1^2 is reducible, and it is not Delta
        with pytest.raises(FactorizationMismatch):
            component_factorization(ex1, [D1 * D1])
    assert asked == []
    with pytest.raises(NotAbsolutelyIrreducible) as err:
        component_factorization(ex1, [D1 * D2])
    assert err.value.factor == D1 * D2 and asked == [D1 * D2]
    # a claim proved for ex1 is still compared with each spec's own Delta
    assert component_factorization(ex1, [D1, D2]) == [(D1, 1), (D2, 1)]
    with pytest.raises(FactorizationMismatch):
        component_factorization(ex3, [D1, D2])
    assert asked == [D1 * D2, D1, D2] and factor._abs_irred_bivariate.cache_info().misses == 3


@pytest.mark.fresh_interpreter
def test_a_proof_error_is_raised_again_and_not_kept(monkeypatch):
    calls = []
    original = factor.bivariate_factor

    def unlucky(f):
        calls.append(f)
        if len(calls) == 1:
            raise UnluckySpecializationExhausted("no specialization within the budget")
        return original(f)

    monkeypatch.setattr(factor, "bivariate_factor", unlucky)
    clear_caches()
    ex1 = load_corpus_spec("ex1")
    with pytest.raises(UnluckySpecializationExhausted):
        component_factorization(ex1, [D1, D2])
    assert component_factorization(ex1, [D1, D2]) == [(D1, 1), (D2, 1)]
    # the failed proof of D1 ran again over F_q; no verdict was kept for it
    chart = poly.dehomogenize(D1, "z")
    assert calls[0] == calls[1] == chart and calls[0].ctx is ex1.ctx
    proofs = factor._abs_irred_bivariate.cache_info()
    assert (proofs.misses, proofs.hits) == (3, 0)
    component_factorization(ex1, [D1, D2])
    proofs = factor._abs_irred_bivariate.cache_info()
    assert (proofs.misses, proofs.hits) == (3, 2)


# -- section jets kept per section ---------------------------------------------------


@pytest.mark.fresh_interpreter
def test_certificates_do_not_depend_on_the_jet_cache():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]

    def certify():
        search = search_spieghiamolo(example81_template(), budget=56).hits
        return _certificates(specs, clear_each=False) + [cert.to_json() for _, cert in search]

    conic._section_entries.cache_clear()
    cold = certify()
    info = conic._section_entries.cache_info()
    assert certify() == cold
    # the warm pass read entries the cold one kept
    assert conic._section_entries.cache_info().hits > info.hits
    clear_caches()
    search_spieghiamolo(example81_template(), budget=56)
    # the four fixed sections and the empty candidate's two others once per
    # point, 8 points; every other candidate's jets are that candidate's
    # plus steps the search keeps itself (amcert._Steps)
    assert conic._section_entries.cache_info().misses == 8 * (4 + 2)


@pytest.mark.parametrize("k", [1, 4, 20], ids=["F2", "F16", "F2^20"])
def test_cached_jets_equal_uncached_ones(k):
    # points of one field that a ProjPoint key would collide (every
    # non-rational point hashes alike), and one rational point over the
    # field and over the spec's field, which a ProjPoint key would take as equal
    ctx = field_new(k)
    rng = random.Random(1860 + k)
    clear_caches()
    for _ in range(6):
        spec = rand_spec(rng, field_new(2) if k % 2 == 0 else field_new(1), max_entry_degree=2)
        points = [ProjPoint(ctx, _random_coords(rng, ctx)) for _ in range(8)]
        points += [ProjPoint(ctx, (1, 0, 1)), ProjPoint(spec.ctx, (1, 0, 1))]
        for p in points + points:  # misses, then hits
            jet = section_jet(spec, p)
            entries = [conic._section_entries.__wrapped__(spec.sections[key], p.sort_key())
                       for key in SECTION_KEYS]
            assert [jet.value, jet.d1, jet.d2, jet.d12] == [tuple(e) for e in zip(*entries)]
    info = conic._section_entries.cache_info()
    assert info.hits >= 6 * 10 * 6


# -- termwise division by a monomial -------------------------------------------------


def _leading_term_div(p, q):
    """p / q by the leading-term loop, for any nonzero q."""
    ctx = p.ctx
    lm, lc = q.leading()
    quotient = Poly.zero(ctx, p.vars)
    r = p
    while not r.is_zero():
        rm, rc = r.leading()
        mono = tuple(a - b for a, b in zip(rm, lm))
        if min(mono) < 0:
            raise NotDivisible("leading term not divisible; remainder nonzero")
        t = Poly.from_terms(ctx, p.vars, [(mono, ctx.mul(rc, ctx.inv(lc)))])
        quotient, r = quotient + t, r + t * q
    return quotient


@pytest.mark.parametrize("k", [1, 2, 4], ids=["F2", "F4", "F16"])
def test_monomial_division_agrees_with_the_leading_term_loop(k):
    ctx = field_new(k)
    rng = random.Random(1830 + k)
    outcomes = Counter()
    for _ in range(200):
        mono = tuple(rng.randint(0, 2) for _ in BASE_VARS)
        q = Poly.from_terms(ctx, BASE_VARS, [(mono, rng.randrange(1, ctx.q))])
        f = Poly.from_terms(ctx, BASE_VARS, [
            (tuple(rng.randint(0, 3) for _ in BASE_VARS), rng.randrange(1, ctx.q))
            for _ in range(rng.randint(0, 6))
        ])
        p = f * q if rng.random() < 0.6 else f
        try:
            want = _leading_term_div(p, q)
        except NotDivisible as exc:
            with pytest.raises(NotDivisible) as err:
                exact_div(p, q)
            assert str(err.value) == str(exc)
            outcomes["not divisible"] += 1
            continue
        assert exact_div(p, q) == want and want * q == p
        outcomes["constant" if sum(mono) == 0 else "unit" if q.leading()[1] == 1 else "scaled"] += 1
    assert outcomes["not divisible"] >= 20 and outcomes["constant"] >= 5
    assert outcomes["unit"] >= 5 and (k == 1 or outcomes["scaled"] >= 20)


def test_monomial_division_examples():
    F4 = field_new(2)
    p = poly_parse("j*x^3*y + x^2*z + F4:3*x^2*y^2", F4, BASE_VARS)
    assert exact_div(p, poly_parse("j*x^2", F4, BASE_VARS)) == poly_parse("x*y + F4:3*z + j*y^2", F4, BASE_VARS)
    assert exact_div(p, poly_parse("j", F4, BASE_VARS)) == poly_parse("x^3*y + F4:3*x^2*z + j*x^2*y^2", F4, BASE_VARS)
    with pytest.raises(NotDivisible):
        exact_div(p, poly_parse("x^2*y", F4, BASE_VARS))
    assert exact_div(Poly.zero(F4, BASE_VARS), poly_parse("x", F4, BASE_VARS)).is_zero()


# -- log-domain point evaluation ------------------------------------------------------


def _serial_eval(f, ctx, coords):
    """f at coords in ctx, by bit-serial products: no log table is read."""
    mul = SerialField(ctx.k, ctx.modulus).mul
    acc = 0
    for m, c in f.items():
        t = embed_bits(f.ctx, ctx, c)
        for x, e in zip(coords, m):
            for _ in range(e):
                t = mul(t, x)
        acc ^= t
    return acc


def _random_coords(rng, ctx):
    """Three coordinates, each zero with probability 1/4, not all zero."""
    while True:
        coords = tuple(0 if rng.random() < 0.25 else rng.randrange(1, ctx.q) for _ in range(3))
        if any(coords):
            return coords


@pytest.mark.parametrize("k", list(range(1, 14)) + [16, 24])
def test_log_domain_evaluation_agrees_with_products(k):
    ctx = field_new(k)
    assert (ctx.log_tables() is None) == (k > 12)
    rng = random.Random(1840 + k)
    zeros = 0
    for _ in range(30):
        coords = _random_coords(rng, ctx)
        zeros += 0 in coords
        for src in {field_new(1), field_new(2) if k % 2 == 0 else field_new(1), ctx}:
            f = rand_homogeneous(rng, src, rng.randint(0, 5), max_terms=6)
            assert f.eval_bits(ctx, coords) == _serial_eval(f, ctx, coords)
    assert zeros >= 5


@pytest.mark.parametrize("k", list(range(1, 14)) + [16, 24])
def test_log_domain_section_jet_agrees_with_products(k):
    ctx = field_new(k)
    rng = random.Random(1850 + k)
    zeros = 0
    for _ in range(20):
        spec = rand_spec(rng, field_new(rng.choice((1, 2)) if k % 2 == 0 else 1), max_entry_degree=2)
        coords = _random_coords(rng, ctx)
        p = ProjPoint(ctx, coords)
        zeros += 0 in p.coords
        jet = section_jet(spec, p)
        u1, u2 = (BASE_VARS[i] for i in range(3) if i != jet.chart)
        assert p.coords[jet.chart] == 1
        for i, key in enumerate(SECTION_KEYS):
            s = spec.sections[key]
            d1, d2 = partial_derivative(s, u1), partial_derivative(s, u2)
            assert jet.value[i] == _serial_eval(s, ctx, p.coords)
            assert jet.d1[i] == _serial_eval(d1, ctx, p.coords)
            assert jet.d2[i] == _serial_eval(d2, ctx, p.coords)
            assert jet.d12[i] == _serial_eval(partial_derivative(d1, u2), ctx, p.coords)
    assert zeros >= 5


@pytest.mark.fresh_interpreter
def test_spec_is_validated_once_per_certification(monkeypatch):
    data = conic.spec_to_dict(load_corpus_spec("ex3"))
    checked = []
    validate = conic._validate
    monkeypatch.setattr(conic, "_validate", lambda spec: checked.append(id(spec)) or validate(spec))
    spec = spec_from_dict(data)  # validated here, once
    surface_criterion(spec)
    assert checked == [id(spec)]
    fresh = conic.ConicBundleSpec(spec.ctx, spec.degree_vector, spec.value_degree, dict(spec.sections))
    cert = surface_criterion(fresh)  # validated by the certifier, once
    assert checked == [id(spec), id(fresh)]
    assert cert.to_json() == surface_criterion(spec).to_json()
    # an invalid spec keeps nothing: it raises on every call
    bad = conic.ConicBundleSpec(spec.ctx, (0, 0, 0), 0, dict(spec.sections))
    for _ in range(2):
        with pytest.raises(conic.DegreeMismatch):
            conic.spec_validate(bad)
    assert checked == [id(spec), id(fresh), id(bad), id(bad)]
