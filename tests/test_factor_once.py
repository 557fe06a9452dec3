"""Each discriminant is factored once on the cold path.

Recombination skips a subset of lifted factors whose product, scaled by the
leading coefficient of what remains, exceeds that remainder's degree in the
specialized variable; the oracle is the unpruned body,
``_helpers.unpruned_factor_squarefree_primitive``.  The components that
factoring Delta returns are irreducible over F_q, so only their absolute part
is proved; claimed factors are still factored over F_q first.  Delta itself
is computed once per spec.
"""

import random

import pytest

from conic2 import _dense, amcert, conic, factor
from conic2.amcert import NotAbsolutelyIrreducible, component_factorization, surface_criterion
from conic2.cli import corpus_manifest, load_corpus_spec
from conic2.conic import discriminant, spec_from_dict, spec_to_dict
from conic2.factor import _find_specialization, _factor_squarefree_primitive, gcd_bivariate
from conic2.gf2k import field_new
from conic2.poly import Poly, dehomogenize, partial_derivative, to_columns

from _helpers import unpruned_factor_squarefree_primitive

XY = ("x", "y")


# -- degree-bounded recombination ------------------------------------------------------


def _rand_curve(rng, ctx, dx, dy):
    items = [((i, j), rng.randrange(1, ctx.q))
             for i in range(dx + 1) for j in range(dy + 1) if rng.random() < 0.5]
    return Poly.from_terms(ctx, XY, items + [((dx, 0), 1), ((0, dy), 1)])


def _many_local_factors(ctx, count, seed):
    """Monic products of 2-3 random curves, squarefree and primitive in both
    variables, whose specialization at y = r has at least 4 factors; with r."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        f = Poly.const(ctx, XY, 1)
        for _ in range(rng.randint(2, 3)):
            f = f * _rand_curve(rng, ctx, rng.randint(1, 3), rng.randint(1, 2))
        f = f.monic()
        fx = partial_derivative(f, "x")
        if fx.is_zero() or not gcd_bivariate(f, fx).is_constant():
            continue
        if any(_dense.deg(_dense.col_primitive(ctx, to_columns(f, a, b))[0]) > 0
               for a, b in (XY, XY[::-1])):
            continue
        ctx_e, _, _, r, u = _find_specialization(f, "x", "y")
        if len(_dense.factor(ctx_e, u)[1]) >= 4:
            cases.append((f, r))
    return cases


@pytest.mark.parametrize("k", [1, 2, 4], ids=["F2", "F4", "F16"])
def test_recombination_matches_the_unpruned_oracle(monkeypatch, k):
    cases = _many_local_factors(field_new(k), 12, 300 + k)
    # both branches of the shift: r = 0 skips it, r != 0 shifts (over F_2 no
    # case here has 4 local factors at y = 0)
    assert any(r for _, r in cases) and (k == 1 or not all(r for _, r in cases))
    trials = []
    exact_div = factor.exact_div

    def counted(a, b):
        trials.append(1)
        return exact_div(a, b)

    monkeypatch.setattr(factor, "exact_div", counted)
    oracle_trials = []
    for f, _ in cases:
        before = len(trials)
        want = unpruned_factor_squarefree_primitive(f, "x", "y", oracle_trials)
        assert _factor_squarefree_primitive(f, "x", "y") == want  # same factors, same order
        assert len(trials) - before >= len(want) - 1  # each extracted factor was tried once
    assert len(trials) < len(oracle_trials) / 2


# -- components of Delta are not factored again ----------------------------------------


def _counting_bivariate_factor(monkeypatch):
    calls = []
    original = factor.bivariate_factor

    def counted(f):
        calls.append(f.ctx)
        return original(f)

    for module in (factor, amcert):
        monkeypatch.setattr(module, "bivariate_factor", counted)
    return calls


@pytest.mark.parametrize("name", [e["name"] for e in corpus_manifest()["examples"]])
def test_delta_is_factored_once_without_claims(monkeypatch, name):
    spec = load_corpus_spec(name)
    factor._abs_irred_bivariate.cache_clear()  # every component proved afresh
    calls = _counting_bivariate_factor(monkeypatch)
    surface_criterion(spec)
    # one factorization of Delta's chart over F_q; the rest run over extensions
    assert calls and calls[0] is spec.ctx
    assert all(ctx.k > spec.ctx.k for ctx in calls[1:])


def test_claimed_factors_are_still_factored_over_the_field(monkeypatch):
    spec = load_corpus_spec("ex3")
    delta = discriminant(spec)  # a cubic times a quartic
    # the line scan finds smooth points of coprime degrees on Delta's chart,
    # so only the factorization over F_2 tells that the claim is reducible
    assert not factor._splits_over_an_extension(dehomogenize(delta, "z").with_vars(XY))
    factor._abs_irred_bivariate.cache_clear()
    calls = _counting_bivariate_factor(monkeypatch)
    with pytest.raises(NotAbsolutelyIrreducible):
        component_factorization(spec, [delta])
    assert calls == [spec.ctx]


# -- Delta once per spec -----------------------------------------------------------------


def test_delta_is_computed_once_per_certification(monkeypatch):
    spec = spec_from_dict(spec_to_dict(load_corpus_spec("ex3")))  # no Delta kept yet
    original = conic.discriminant
    returned = []

    def recorded(s):
        returned.append(original(s))
        return returned[-1]

    for module in (conic, amcert):
        monkeypatch.setattr(module, "discriminant", recorded)
    cert = surface_criterion(spec)
    monkeypatch.undo()
    # certify, flatness and factorization each ask; all get the one polynomial
    assert len(returned) >= 3 and all(d is returned[0] for d in returned)
    s = spec.sections
    assert returned[0] == (s["ab"] * s["bc"] * s["ac"] + s["ab"] * s["ab"] * s["cc"]
                           + s["ac"] * s["ac"] * s["bb"] + s["bc"] * s["bc"] * s["aa"])
    # the kept Delta is no field: equality, repr and the certificate ignore it
    fresh = spec_from_dict(spec_to_dict(spec))
    assert fresh == spec and repr(fresh) == repr(spec)
    assert surface_criterion(fresh).to_json() == cert.to_json()
