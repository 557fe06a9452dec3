"""The process-wide curve caches of amcert: each component's singular locus
and each pair's meeting are solved once per process, errors other than a
pair's BezoutMismatch or CommonComponent are never kept, and certificates do
not depend on what the caches hold.  Each point object is rendered at most
once per process."""

from collections import Counter

import pytest

from conic2 import amcert, geom, poly
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
    clear_curve_caches()
    per_search = []
    for _ in range(2):
        before = len(rendered)
        assert len(search_spieghiamolo(example81_template(), budget=56).hits) == 56
        per_search.append(len(rendered) - before)
    monkeypatch.undo()

    assert len({id(p) for p in rendered}) == len(rendered)
    assert len({id(f) for f in printed}) == len(printed) > 0
    # 1557 serializations when each point was serialized once per
    # certificate.  Per candidate, its two Sigma points and the 16 fiber
    # singular points of its nodes are new; the 18 points of the curve caches
    # are rendered in the first search only
    assert per_search == [56 * 18 + 18, 56 * 18]

    p = rendered[0]
    text = p.serialize()
    text.append("changed")
    assert p.serialize() == text[:3] and p.serialize() is not p.serialize()
