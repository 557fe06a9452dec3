"""The process-wide curve caches of amcert: each component's singular locus
and each pair's meeting are solved once per process, errors other than a
pair's BezoutMismatch or CommonComponent are never kept, and certificates do
not depend on what the caches hold.  Each point a certificate names is
serialized once."""

from collections import Counter

import pytest

from conic2 import amcert, geom
from conic2.amcert import example81_template, search_spieghiamolo, surface_criterion
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import ProjPoint, spec_from_dict
from conic2.geom import BezoutMismatch, CommonComponent, ExtensionBound
from conic2.poly import plane_poly, poly_parse

from _helpers import moved_stream

D1 = plane_poly("x^3*z + y^4")
D2 = plane_poly("x^3*y + z^4")


def clear_curve_caches():
    amcert._singular_locus.cache_clear()
    amcert._meeting.cache_clear()


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


def test_search_solves_curve_geometry_once_per_process(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_curve_caches()
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
            clear_curve_caches()
        texts.append(surface_criterion(spec, claimed).to_json())
    return texts


def _assert_cache_independent(specs):
    """Each spec certified from a cleared cache, then the whole list twice
    from one shared cache: a first pass that fills it and a warm pass."""
    cold = _certificates(specs, clear_each=True)
    clear_curve_caches()
    shared = _certificates(specs, clear_each=False)
    hits = amcert._singular_locus.cache_info().hits
    warm = _certificates(specs, clear_each=False)
    assert amcert._singular_locus.cache_info().hits > hits
    assert cold == shared == warm


def test_corpus_certificates_do_not_depend_on_the_cache():
    specs = [(spec, claimed) for _, spec, claimed in _corpus()]
    specs += [(spec, None) for spec, _ in specs]
    _assert_cache_independent(specs)


@pytest.mark.parametrize("seed", ["21.0", "21.1"])
def test_moved_certificates_do_not_depend_on_the_cache(seed):
    stream = moved_stream(seed)
    specs = [(spec_from_dict(data), None) for _ in range(20) for _, _, data in stream.next_pass()]
    _assert_cache_independent(specs)


def test_solver_errors_are_raised_again_and_not_kept(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_curve_caches()
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


def test_a_pairs_bezout_or_common_component_error_is_kept(monkeypatch):
    counts = _counting_solves(monkeypatch)
    clear_curve_caches()
    tangent = plane_poly("x*z + y^2")  # the line x is tangent to it at [0:0:1]
    line = plane_poly("x")
    for c1, c2, kind in ((line, tangent, BezoutMismatch), (D1, D1, CommonComponent)):
        kept = amcert._meeting(c1, c2, 24)
        assert isinstance(kept, kind)
        assert kept.__traceback__ is None and kept.__context__ is None
        assert amcert._meeting(c1, c2, 24) is kept
    assert counts == {"intersection_points": 2}


def test_each_point_is_serialized_once_per_certificate(monkeypatch):
    calls = []
    serialize = ProjPoint.serialize
    monkeypatch.setattr(ProjPoint, "serialize", lambda p: calls.append(p) or serialize(p))
    certify = amcert._certify
    per_certificate = []

    def counted(*args, **kwargs):
        before = len(calls)
        cert = certify(*args, **kwargs)
        per_certificate.append((len(calls) - before, cert))
        return cert

    monkeypatch.setattr(amcert, "_certify", counted)
    search_spieghiamolo(example81_template(), budget=56)
    monkeypatch.undo()

    def named_points(data, found):
        """The distinct point literals anywhere in certificate data."""
        if isinstance(data, list) and len(data) == 3 and all(
                isinstance(s, str) and s.startswith("F") and ":" in s for s in data):
            found.add(tuple(data))
        elif isinstance(data, (list, dict)):
            for v in data.values() if isinstance(data, dict) else data:
                named_points(v, found)
        return found

    assert len(per_certificate) == 56
    for count, cert in per_certificate:
        assert count == len(named_points(cert.to_dict(), set()))
    # 3248 before the points were serialized once, 58 per candidate
    assert sum(count for count, _ in per_certificate) == 1557
