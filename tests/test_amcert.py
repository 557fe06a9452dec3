"""Pipeline layer: factorization verification, AM components, certificates,
the chart-level elementary transformation, and the guided search."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from conic2 import amcert, geom
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import (
    BASE_VARS,
    FIBER_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    classify_fiber,
    discriminant,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)
from conic2.amcert import (
    FactorizationMismatch,
    NotAbsolutelyIrreducible,
    ZeroEquation,
    am_component_check,
    complete_diagonal,
    component_factorization,
    elementary_transform_chart,
    example81_template,
    nonproduct_witness,
    search_spieghiamolo,
    spec_hash,
    surface_criterion,
)
from conic2.gf2k import field_new
from conic2.poly import Poly, plane_poly, poly_parse, poly_print

from _helpers import brute_small_field_points
from conftest import DATA

F2 = field_new(1)
F4 = field_new(2)


def F4_poly(text):
    return poly_parse(text, F4, BASE_VARS)


# -- component factorization -----------------------------------------------------


def test_component_factorization_example_81():
    spec = load_corpus_spec("ex1")
    claimed = [plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")]
    factors = component_factorization(spec, claimed)
    assert sorted(poly_print(f) for f, _ in factors) == ["x^3*y + z^4", "x^3*z + y^4"]
    assert all(m == 1 for _, m in factors)


def test_component_factorization_f4_example():
    spec = load_corpus_spec("ex4")
    factors = component_factorization(spec, [F4_poly("x^2*z + y^3"), F4_poly("x^2*y + z^3")])
    assert len(factors) == 2


def test_component_factorization_auel_claimed():
    spec = load_corpus_spec("ex5")
    claimed = [
        plane_poly("x"), plane_poly("z"), plane_poly("x + z"),
        plane_poly("x*y^2 + x^2*y + x*y*z + x*z^2 + y^3"),
    ]
    factors = component_factorization(spec, claimed)
    assert len(factors) == 4


def test_component_factorization_from_scratch_matches_claimed():
    spec = load_corpus_spec("ex1")
    scratch = component_factorization(spec, None)
    claimed = component_factorization(
        spec, [plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")]
    )
    assert scratch == claimed


def test_component_factorization_mismatch():
    spec = load_corpus_spec("ex1")
    with pytest.raises(FactorizationMismatch):
        component_factorization(spec, [plane_poly("x^3*z + y^4"), plane_poly("x^4 + z^4")])


def test_component_factorization_rejects_reducible_claim():
    spec = load_corpus_spec("ex1")
    with pytest.raises(NotAbsolutelyIrreducible):
        component_factorization(spec, [discriminant(spec)])


# -- Artin-Mumford component checks -------------------------------------------------


def test_am_check_example_81_component():
    spec = load_corpus_spec("ex1")
    ana = am_component_check(spec, plane_poly("x^3*z + y^4"))
    assert ana.am_status.kind == "double_line_witness"
    assert ana.am_status.point == ProjPoint.parse("0:0:1", F2)
    assert ana.sing_in_sigma
    assert ana.sigma_meets == (ProjPoint.parse("0:0:1", F2),)
    assert classify_fiber(spec, ana.am_status.point) is FiberType.DOUBLE_LINE


def test_am_check_auel_quartic_gets_nonproduct_witness():
    spec = load_corpus_spec("ex5")
    quartic = plane_poly("x*y^2 + x^2*y + x*y*z + x*z^2 + y^3")
    ana = am_component_check(spec, quartic)
    assert ana.am_status.kind == "cross_nonproduct_witness"
    p = ana.am_status.point
    assert quartic.eval_bits(p.ctx, p.coords) == 0
    assert classify_fiber(spec, p) is FiberType.CROSS


def test_am_check_rejects_non_component():
    spec = load_corpus_spec("ex1")
    with pytest.raises(ValueError):
        am_component_check(spec, plane_poly("x + y"))


def test_nonproduct_witness_absent_for_split_family():
    # conic x a^2 + z bc: over the component x = 0 every fiber is the split
    # cross bc = 0, so no conjugate-lines witness can exist.
    z0 = Poly.zero(F2, BASE_VARS)
    spec = ConicBundleSpec(
        F2, (0, 0, 0), 1,
        {"aa": plane_poly("x"), "ab": z0, "ac": z0, "bb": z0, "bc": plane_poly("z"), "cc": z0},
    )
    assert nonproduct_witness(spec, plane_poly("x"), witness_bound=4) is None


def test_nonproduct_witness_rejects_component_inside_sigma():
    spec = load_corpus_spec("rem_double_line")
    with pytest.raises(ValueError):
        nonproduct_witness(spec, plane_poly("x"))


def test_component_inside_sigma_without_double_line_point_is_not_certified():
    # Over F_65536, above witness_bound 8, the double-line scan covers no
    # field.  The components y and x + c z lie inside Sigma, so no fiber over
    # them is a cross and nonproduct_witness, which rejects them, is not asked.
    cert = surface_criterion(load_spec(str(DATA / "inside_sigma_f65536.json")))
    kinds = {c["component"]: c["am_status"]["kind"] for c in json.loads(cert.to_json())["components"]}
    assert kinds == {
        "y": "not_certified",
        "y + F65536:A6D3*z": "double_line_witness",
        "x + F65536:9C*z": "not_certified",
    }


# Over F_4 with one component, which carries no double-line point and no
# nonproduct witness up to F_256: the criterion scans every point up to there.
F4_SCANNED_SPEC = {
    "field_degree": 2, "degree_vector": [1, 2, 0], "value_degree": 0,
    "sections": {"aa": "F4:3*x^2 + x*y", "ab": "j*y^2*z + j*y*z^2", "ac": "j*y + F4:3*z",
                 "bb": "x*z^3", "bc": "x^2 + F4:3*x*y + j*y^2", "cc": "0"},
}


def test_line_point_finder_keeps_the_plane_scan_certificate(monkeypatch):
    spec = spec_from_dict(F4_SCANNED_SPEC)
    found = surface_criterion(spec).to_json()
    assert [c["am_status"]["kind"] for c in json.loads(found)["components"]] == ["not_certified"]
    monkeypatch.setattr(geom, "small_field_points", brute_small_field_points)
    monkeypatch.setattr(amcert, "small_field_points", brute_small_field_points)
    assert surface_criterion(spec).to_json() == found


# -- elementary transformation --------------------------------------------------------


RING = ("s", "t2", "t1", "a", "b", "c")


def test_elementary_transform_order_two():
    eq = poly_parse("s*t2*t1^2*c^2 + a*b", F2, RING)
    order, quotient = elementary_transform_chart(eq, ("a", "b"), "t1")
    assert order == 2
    assert quotient == poly_parse("s*t2*c^2 + a*b", F2, RING)


def test_elementary_transform_identity():
    eq = poly_parse("a*b + c^2", F2, RING)
    order, out = elementary_transform_chart(eq, (), "t1")
    assert order == 0 and out == eq


def test_elementary_transform_forced_order():
    eq = poly_parse("t1*a + t1*b", F2, RING)
    order, out = elementary_transform_chart(eq, ("a", "b"), "t1")
    assert order == 2  # substitution gives t1^2 (a + b)
    assert out == poly_parse("a + b", F2, RING)


def test_elementary_transform_round_trip():
    eq = poly_parse("s*t2*t1^2*c^2 + a*b", F2, RING)
    order, quotient = elementary_transform_chart(eq, ("a", "b"), "t1")
    t1 = Poly.var(F2, RING, "t1")
    from conic2.poly import substitute

    substituted = substitute(eq, {v: t1 * Poly.var(F2, RING, v) for v in ("a", "b")})
    assert quotient * t1 ** order == substituted


def test_elementary_transform_zero_equation():
    with pytest.raises(ZeroEquation):
        elementary_transform_chart(Poly.zero(F2, RING), ("a",), "t1")


# -- certificates ----------------------------------------------------------------------


def test_certificate_example_81_all_pass():
    spec = load_corpus_spec("ex1")
    cert = surface_criterion(spec, [plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")])
    assert cert.all_pass
    assert all(h.passed for h in cert.hypotheses.values())
    assert cert.conclusion is not None
    assert cert.setup["flat"] and cert.setup["generically_smooth"]
    # the recorded counts of the narrative: 2 components, 16 intersection
    # points, 2 double-line points, 16 ordinary nodes
    assert len(cert.components) == 2
    assert len(cert.intersections) == 1
    assert cert.intersections[0]["bezout"] == {"expected": 16, "found": 16}
    assert len(cert.intersections[0]["nodes"]) == 16
    assert all(n["ordinary_node"] for n in cert.intersections[0]["nodes"])
    assert len(cert.double_line_smoothness) == 2
    assert all(e["smooth"] for e in cert.double_line_smoothness)


def test_certificate_determinism():
    spec = load_corpus_spec("ex1")
    claimed = [plane_poly("x^3*z + y^4"), plane_poly("x^3*y + z^4")]
    a = surface_criterion(spec, claimed).to_json()
    b = surface_criterion(spec, claimed).to_json()
    assert a == b


def test_certificate_double_line_witness_replays():
    spec = load_corpus_spec("ex1")
    cert = surface_criterion(spec, None)
    for comp in cert.components:
        status = comp["am_status"]
        if status["kind"] == "double_line_witness":
            p = ProjPoint.parse(":".join(status["point"]))
            assert classify_fiber(spec, p) is FiberType.DOUBLE_LINE


def test_certificate_rem_double_line_fails_h3():
    spec = load_corpus_spec("rem_double_line")
    cert = surface_criterion(spec, None)
    assert not cert.all_pass
    assert not cert.hypotheses["h3_transversal_crosses_nodes"].passed
    assert cert.hypotheses["h2_reducible_sing_in_sigma"].passed
    assert cert.conclusion is None
    # the remark's double reading: the formula gives (ab)^2 d, whose reduced
    # locus adds the conic d to the two lines
    assert sorted(f["poly"] for f in cert.discriminant["factors"]) == [
        "x", "x*y + x*z + y*z", "y"
    ]


def _corpus_certificates():
    """(manifest entry, certificate) for each corpus spec, with the manifest's
    claimed factors."""
    for entry in corpus_manifest()["examples"]:
        spec = load_corpus_spec(entry["name"])
        claimed = None
        if entry.get("claimed_factors"):
            claimed = [poly_parse(t, spec.ctx, BASE_VARS) for t in entry["claimed_factors"]]
        yield entry, surface_criterion(spec, claimed)


def test_certificates_match_expected_corpus_profiles():
    for entry, cert in _corpus_certificates():
        failing = sorted(k for k, h in cert.hypotheses.items() if not h.passed)
        assert cert.all_pass == entry["expect_all_pass"], entry["name"]
        assert failing == sorted(entry["expect_failing"]), entry["name"]


# sha256 of Certificate.to_json(); a change here is a certificate format or
# verdict change and must be stated with the new digests
CORPUS_CERT_DIGESTS = {
    "ex1": "2af01cf0a9f195e4a44f8870af955376aaf2990f842dc7084f055ebe3c44a474",
    "ex2": "2af01cf0a9f195e4a44f8870af955376aaf2990f842dc7084f055ebe3c44a474",
    "ex3": "af826ec76b2555bde2f15073c877c66e64f6545454c5c049f6acc4bf9040f33d",
    "ex4": "150d9e6175d3a04e1909b780e1c959022120b610db2a42f2bec8629e4e7f3f5e",
    "ex5": "95e55d51400a2009e8b38f4aa7d49de7244f0bc32eead97b15f911c2935bdf49",
    "rem_double_line": "b3ee3d6d229ebe7dfc3d0baa4f2373dfe490c6757a8a34bd4e5c8fac041a96c0",
}


def test_corpus_certificates_are_byte_stable():
    digests = {
        entry["name"]: hashlib.sha256(cert.to_json().encode()).hexdigest()
        for entry, cert in _corpus_certificates()
    }
    assert digests == CORPUS_CERT_DIGESTS


DELTA20 = DATA / "delta20.json"


def delta20_spec() -> ConicBundleSpec:
    """The degree-20 regression spec: over F_2 with degree vector (0, 3, 7)
    and value degree 0, each section keeps each monomial of its degree when
    one shared random.Random(1) draws below 0.5, in SECTION_KEYS order."""
    rng = random.Random(1)
    dv = (0, 3, 7)
    sections = {}
    for key in SECTION_KEYS:
        d = dv[FIBER_VARS.index(key[0])] + dv[FIBER_VARS.index(key[1])]
        monos = [m for m in geom.plane_monomials(d) if rng.random() < 0.5]
        sections[key] = Poly.from_terms(F2, BASE_VARS, [(m, 1) for m in monos])
    return ConicBundleSpec(F2, dv, 0, sections)


def test_degree_20_spec_is_decided():
    spec = delta20_spec()
    assert spec_to_dict(spec) == json.loads(DELTA20.read_text())
    assert spec_hash(spec).startswith("sha256:25cb94f0f87a8b96")
    cert = surface_criterion(spec)
    assert {k for k, h in cert.hypotheses.items() if not h.passed} == {
        "h2_reducible_sing_in_sigma",
        "h4_two_am_components",
    }
    assert cert.discriminant["degree"] == 20
    assert [f["multiplicity"] for f in cert.discriminant["factors"]] == [1]
    assert len(cert.components) == 1


def test_certificate_serializes_to_json(tmp_path):
    spec = load_corpus_spec("ex1")
    cert = surface_criterion(spec, None)
    data = json.loads(cert.to_json())
    assert data["format"] == "conic2.certificate/1"
    assert data["verdict"]["all_pass"] is True
    assert data["spec_hash"].startswith("sha256:")
    assert set(data["hypotheses"]) == {
        "h1_base_hodge_vanishing",
        "h2_reducible_sing_in_sigma",
        "h3_transversal_crosses_nodes",
        "h4_two_am_components",
        "h5_smooth_along_double_lines",
    }
    assert data["paper_claims"]["checked_hypotheses"]


# -- search -----------------------------------------------------------------------------


def test_search_smoke_budgeted():
    result = search_spieghiamolo(example81_template(), budget=4)
    assert result.tried == 4
    assert result.exhausted_budget
    assert result.hits
    for spec, cert in result.hits:
        assert cert.all_pass
    # re-running the criterion on a hit reproduces the all-pass verdict
    spec, cert = result.hits[0]
    again = surface_criterion(spec, None)
    assert again.all_pass and again.to_json() == surface_criterion(spec, None).to_json()


def test_search_certificates_equal_standalone_criterion(monkeypatch):
    # The search certifies every zero-corner candidate through one shared
    # curve geometry and the Sigma its filter solved.  Certify a sample that
    # covers every weight class (the first 56 candidates, every 37th after
    # them, and the last) and skip the rest, then compare each certificate
    # with surface_criterion run alone on the same spec.
    sample = set(range(56)) | set(range(56, 1024, 37)) | {1023}
    certify = amcert._certify
    calls = []

    def sampled(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 in sample:
            return certify(*args, **kwargs)
        return SimpleNamespace(all_pass=False)

    monkeypatch.setattr(amcert, "_certify", sampled)
    template = example81_template()
    result = search_spieghiamolo(template, budget=2048)
    monkeypatch.undo()
    assert len(calls) == result.tried == 1024
    assert len(result.hits) == len(sample)
    # bc = y^2*z^2 + x*q, so the weight of q is one less than bc's term count
    assert {len(spec.sections["bc"].items()) - 1 for spec, _ in result.hits} == set(range(11))
    for spec, cert in result.hits:
        alone = surface_criterion(spec, list(template.target_components))
        assert cert.to_json() == alone.to_json()


def test_search_divisibility_filter_example():
    # beta = y^2 z^2 satisfies the congruence, so target + beta^2 is divisible
    # by x^2; the quotient is the determined entry
    from conic2.poly import exact_div

    target = plane_poly("x^3*z + y^4") * plane_poly("x^3*y + z^4")
    beta = plane_poly("y^2*z^2")
    gamma = exact_div(target + beta * beta, plane_poly("x^2"))
    assert gamma == plane_poly("x^4*y*z + x*z^5 + x*y^5")


def test_complete_diagonal_recovers_f4_example():
    spec = load_corpus_spec("ex4")
    target = discriminant(spec)
    off = {k: spec.sections[k] for k in ("ab", "ac", "bc")}
    solved = complete_diagonal(F4, spec.degree_vector, spec.value_degree, off, target)
    assert solved is not None
    solution, kernel_dim = solved
    sections = dict(off)
    sections.update(solution)
    rebuilt = ConicBundleSpec(F4, spec.degree_vector, spec.value_degree, sections)
    assert discriminant(rebuilt) == target
    assert kernel_dim >= 0


def test_complete_diagonal_inconsistent_target():
    # off-diagonals all zero force Delta = 0, so a nonzero target fails
    z0 = Poly.zero(F2, BASE_VARS)
    out = complete_diagonal(
        F2, (0, 0, 0), 2, {"ab": z0, "ac": z0, "bc": z0}, plane_poly("x^6")
    )
    assert out is None
