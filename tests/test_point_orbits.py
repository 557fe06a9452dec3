"""Hypotheses 3 and 5 decide each point fact once per Frobenius orbit,
from one section jet per distinct point of a certificate.

The six sections have coefficients in F_q, so the section jet at the
conjugate p^q of a point p is the conjugate of the jet at p, and the fiber
type, chart, node verdict and smoothness it decides are the same there; the
fiber's singular point n is conjugated along.  The oracle is the per-point
path (``_helpers.per_point_nodes_and_smoothness``): the certificate's node
and smoothness entries must equal its on the corpus, on moved passes, and
on a spec over F_4, where the Frobenius x -> x^4 is not squaring.  Call
counts check that the smoothness decisions run once per orbit of Sigma,
that a point several component pairs share is decided once, and that a
certificate takes exactly one jet at each point it reads: the H3
and Sigma orbit representatives, the meeting points with Sigma that the
double-line test visits, and the components' singular points.  A
zero-corner search call decides each node and smoothness fact once per
distinct (point, jet) pair over all its candidates, and no other search
shares a fact between candidates.
"""

import dataclasses
import json

import pytest

from conic2 import amcert
from conic2.amcert import example81_template, search_spieghiamolo, surface_criterion
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import BASE_VARS, ProjPoint, spec_from_dict
from conic2.gf2k import field_new
from conic2.poly import plane_poly, poly_parse

from _helpers import ROOT, moved_module, moved_stream, per_point_nodes_and_smoothness


def _point(text):
    return ProjPoint.parse(":".join(text))


def _period(p, q):
    """The least i >= 1 with p^(q^i) = p, from coordinate powers."""
    ctx, i, c = p.ctx, 1, tuple(p.ctx.pow(v, q) for v in p.coords)
    while c != p.coords:
        i, c = i + 1, tuple(ctx.pow(v, q) for v in c)
    return i


def _orbit_count(points, q):
    """The number of Frobenius orbits of a Galois-stable point set: each
    point counts 1/period."""
    return round(sum(1 / _period(p, q) for p in points))


def _representatives(points, q):
    """The points of a list of Galois-stable sets that no conjugate
    precedes: the first point of each Frobenius orbit."""
    seen, reps = set(), []
    for p in points:
        if p.sort_key() in seen:
            continue
        reps.append(p)
        image = p
        for _ in range(_period(p, q)):
            seen.add(image.sort_key())
            image = image.frobenius(q)
    return reps


def _read_points(cert, q):
    """The distinct points, by sort_key(), at which the certificate's facts
    are read: the H3 and Sigma orbit representatives, each component's
    meeting points with Sigma up to the first double-line fiber (where the
    double-line test stops), and each component's singular points."""
    met = [_point(t) for e in cert.intersections for t in e.get("points", [])]
    sigma = [_point(e["point"]) for e in cert.double_line_smoothness]
    meets = []
    for c in cert.components:
        visited = [_point(t) for t in c["sigma_meets"] or []]
        status = c["am_status"]
        if c["sigma_meets"] is not None and status["kind"] == "double_line_witness":
            visited = visited[:c["sigma_meets"].index(status["point"]) + 1]
        meets += visited + [_point(t) for t in c["sing_points"]]
    read = _representatives(met, q) + _representatives(sigma, q) + meets
    return {p.sort_key() for p in read}


def _certify_counting(monkeypatch, spec, claimed=None):
    """The certificate, with the points _certify took a section jet at and
    the jets it decided smoothness from."""
    jets, smooth = [], []
    section_jet, fiber_smooth = amcert.section_jet, amcert.fiber_smooth
    monkeypatch.setattr(amcert, "section_jet", lambda s, p: jets.append(p) or section_jet(s, p))
    monkeypatch.setattr(amcert, "fiber_smooth", lambda jet: smooth.append(jet) or fiber_smooth(jet))
    cert = surface_criterion(spec, claimed)
    monkeypatch.undo()
    return cert, jets, smooth


def _check(monkeypatch, spec, claimed=None):
    """Certify the spec, compare its node and smoothness entries with the
    per-point oracle, and its calls with the points it reads: one jet at
    each, and one smoothness decision per orbit of Sigma.  Returns the
    certificate, the number of jets taken, and how many node entries and
    Sigma points are not fixed by the Frobenius, so carry a result derived
    from another point."""
    cert, jets, smooth = _certify_counting(monkeypatch, spec, claimed)
    nodes, smoothness = per_point_nodes_and_smoothness(spec, cert)
    assert [e.get("nodes") for e in cert.intersections] == nodes
    assert cert.double_line_smoothness == smoothness
    q = spec.ctx.q
    sigma = [_point(e["point"]) for e in cert.double_line_smoothness]
    keys = [p.sort_key() for p in jets]
    assert len(set(keys)) == len(keys)  # no point is jetted twice
    assert set(keys) == _read_points(cert, q)
    assert len(smooth) == _orbit_count(sigma, q)
    moved_nodes = sum(_period(_point(n["fiber_singular_point"]), q) > 1
                      for e in cert.intersections for n in e.get("nodes", []))
    moved_sigma = sum(_period(p, q) > 1 for p in sigma)
    return cert, len(jets), moved_nodes, moved_sigma


def test_frobenius_is_the_q_power_of_each_coordinate():
    f16 = field_new(4)
    for coords in [(1, 5, 9), (0, 1, 7), (0, 0, 1), (1, 0, 1)]:
        p = ProjPoint(f16, coords)
        for q in (2, 4):
            image = p.frobenius(q)
            assert image.ctx is f16 and image.coords == tuple(f16.pow(c, q) for c in p.coords)
            assert next(c for c in image.coords if c) == 1  # still normalized
        assert p.frobenius(16) == p  # the Frobenius of F_16 over F_2 has order 4
    assert ProjPoint(f16, (1, 0, 1)).frobenius(2) == ProjPoint(f16, (1, 0, 1))


def test_corpus_nodes_and_smoothness_match_the_per_point_path(monkeypatch):
    moved_nodes = moved_sigma = 0
    for entry in corpus_manifest()["examples"]:
        spec = load_corpus_spec(entry["name"])
        claimed = [poly_parse(t, spec.ctx, BASE_VARS) for t in entry.get("claimed_factors") or []]
        _, _, n, s = _check(monkeypatch, spec, claimed or None)
        moved_nodes, moved_sigma = moved_nodes + n, moved_sigma + s
    assert moved_nodes > 0 and moved_sigma > 0


@pytest.mark.parametrize("seed", ["21.0", "21.1"])
def test_moved_nodes_and_smoothness_match_the_per_point_path(monkeypatch, seed):
    stream = moved_stream(seed)
    moved_nodes = moved_sigma = 0
    for _ in range(20):
        for _, _, data in stream.next_pass():
            _, _, n, s = _check(monkeypatch, spec_from_dict(data))
            moved_nodes, moved_sigma = moved_nodes + n, moved_sigma + s
    assert moved_nodes > 0 and moved_sigma > 0


def test_spec_over_f4_conjugates_by_the_fourth_power(monkeypatch):
    # ex1 read over F_4 and moved by x -> x + j*y: its sections have
    # coefficients outside F_2, so p -> p^2 leaves the intersection points
    data = json.loads((ROOT / "src" / "conic2" / "corpus" / "ex1.json").read_text())
    data["field_degree"] = 2
    spec = spec_from_dict(moved_module().move_spec(data, ((1, 2, 0), (0, 1, 0), (0, 0, 1))))
    cert, jets, moved_nodes, _ = _check(monkeypatch, spec)
    assert cert.all_pass and moved_nodes > 0
    [entry] = cert.intersections
    points = [_point(t) for t in entry["points"]]
    # 10 orbits of the 16 points under x -> x^4, and Sigma's two points
    assert len(points) == 16 and len(cert.sigma["points"]) == 2 and jets == 12
    outside = [p for p in points if _period(p, 4) > 1]
    assert outside and all(p.frobenius(2) not in points for p in outside)


def test_search_candidate_takes_eight_jets_for_sixteen_points_and_two_sigma_points(monkeypatch):
    certified = []
    jets = []
    section_jet, certify = amcert.section_jet, amcert._certify
    monkeypatch.setattr(amcert, "section_jet", lambda s, p: jets.append(p) or section_jet(s, p))

    def counting(*args, **kwargs):
        before = len(jets)
        cert = certify(*args, **kwargs)
        certified.append((cert, len(jets) - before))
        return cert

    monkeypatch.setattr(amcert, "_certify", counting)
    search_spieghiamolo(example81_template(), budget=56)
    cert, count = certified[0]
    [entry] = cert.intersections  # d1 and d2 of the template
    assert len(entry["points"]) == 16 and len(entry["nodes"]) == 16
    # orbits of sizes 1, 1, 2, 4, 4, 4 over F_2, and Sigma's two rational
    # points, which are also each component's meeting with Sigma and its
    # singular point
    assert count == 8
    assert cert.sigma["points"] == [["F2:0", "F2:0", "F2:1"], ["F2:0", "F2:1", "F2:0"]]


def test_a_point_two_pairs_share_is_decided_once(monkeypatch):
    # Delta = x*y*z*(x + z): the lines x, z and x + z all pass through
    # [0:1:0], which three pairs meet in.  The pairs are walked in order, and
    # an orbit an earlier pair decided is skipped
    spec = spec_from_dict({
        "field_degree": 1, "degree_vector": [0, 1, 1], "value_degree": 0,
        "sections": {"aa": "0", "ab": "y", "ac": "x + z", "bb": "0", "bc": "x*z", "cc": "0"},
    })
    decided = []
    cross_node = amcert.cross_node
    monkeypatch.setattr(amcert, "cross_node", lambda jet: decided.append(jet.point.sort_key()) or cross_node(jet))
    cert = surface_criterion(spec)
    monkeypatch.undo()
    met = [_point(t) for e in cert.intersections for t in e.get("points", [])]
    assert len({p.sort_key() for p in met}) < len(met)  # some point lies on three components
    crosses = {_point(n["point"]).sort_key(): _point(n["point"])
               for e in cert.intersections for n in e.get("nodes", [])}
    assert len(decided) == len(set(decided)) == _orbit_count(list(crosses.values()), spec.ctx.q)
    _check(monkeypatch, spec)


# -- a search call decides each point fact once per distinct jet ------------------


def _jet_key(jet):
    return jet.point.sort_key(), jet.value, jet.d1, jet.d2, jet.d12


def _deciding_search(monkeypatch, template, budget):
    """The search's result, with the jets its node and smoothness
    decisions ran on, and for each certificate how many of each it made."""
    nodes, smooth, per_cert = [], [], []
    cross_node, fiber_smooth, certify = amcert.cross_node, amcert.fiber_smooth, amcert._certify
    monkeypatch.setattr(amcert, "cross_node", lambda jet: nodes.append(_jet_key(jet)) or cross_node(jet))
    monkeypatch.setattr(amcert, "fiber_smooth", lambda jet: smooth.append(_jet_key(jet)) or fiber_smooth(jet))

    def counting(*args, **kwargs):
        before = len(nodes), len(smooth)
        cert = certify(*args, **kwargs)
        per_cert.append((len(nodes) - before[0], len(smooth) - before[1]))
        return cert

    monkeypatch.setattr(amcert, "_certify", counting)
    result = search_spieghiamolo(template, budget=budget)
    monkeypatch.undo()
    return result, nodes, smooth, per_cert


def _distinct_jets(hits):
    """The distinct (point, jet) pairs at the H3 and Sigma orbit
    representatives of the hits' certificates, each jet taken afresh from
    the hit's own sections."""
    nodes, smooth = set(), set()
    for spec, cert in hits:
        q = spec.ctx.q
        met = [_point(t) for e in cert.intersections for t in e.get("points", [])]
        sigma = [_point(e["point"]) for e in cert.double_line_smoothness]
        nodes |= {_jet_key(amcert.section_jet(spec, p)) for p in _representatives(met, q)}
        smooth |= {_jet_key(amcert.section_jet(spec, p)) for p in _representatives(sigma, q)}
    return nodes, smooth


@pytest.mark.parametrize("budget, decisions", [(56, (210, 8)), (2048, (2336, 8))])
def test_a_search_decides_each_point_fact_once_per_distinct_jet(monkeypatch, budget, decisions):
    # a zero-corner candidate's jet at p is its empty candidate's plus its
    # step sum there, so the search call keeps each node and smoothness fact
    # under (point, step sum) and decides it at the first candidate with that jet
    template = example81_template()
    for _ in range(2):  # the memo is the call's: a second call decides them again
        result, nodes, smooth, per_cert = _deciding_search(monkeypatch, template, budget)
        assert len(result.hits) == len(per_cert) == min(budget, 1024)
        assert (len(nodes), len(smooth)) == decisions
        assert len(set(nodes)) == len(nodes) and len(set(smooth)) == len(smooth)
        assert (set(nodes), set(smooth)) == _distinct_jets(result.hits)
        # the first certificate decides its 6 H3 and 2 Sigma orbits, as every
        # one would without the memo
        assert per_cert[0] == (6, 2) and len(per_cert) * 6 > len(nodes)


def test_a_template_without_steps_shares_no_fact_across_candidates(monkeypatch):
    # with modulus 1 and residue 0 the empty candidate fails the filter, so
    # _Steps.of is None: each candidate is divided and certified alone
    template = dataclasses.replace(
        example81_template(), congruence_modulus=plane_poly("1"), congruence_residue=plane_poly("0"))
    result, nodes, smooth, per_cert = _deciding_search(monkeypatch, template, 56)
    assert len(result.hits) == len(per_cert) == 4
    assert per_cert == [(6, 2)] * 4
    assert len(set(smooth)) < len(smooth)  # the same jet decided again by a later candidate
