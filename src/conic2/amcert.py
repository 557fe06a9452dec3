"""Artin-Mumford hypothesis pipeline for conic bundles over P^2 in char 2.

Builds replayable certificates for the five hypotheses of the surface
criterion:

  (1) H^2 of the base with coefficients in 1-forms vanishes (hardcoded fact
      for P^2; computing coherent cohomology is out of scope),
  (2) the discriminant is reducible, and each component's singular locus and
      each repeated component lie inside the double-line locus Sigma,
  (3) components meet transversally, with cross fibers and ordinary
      quadratic singularities of the total space above the intersections,
  (4) at least two components are Artin-Mumford: they carry a double-line
      fiber, or their crosses form a family certified non-split by a
      conjugate-lines witness,
  (5) the total space is smooth along every double-line fiber.

A passing verdict records the criterion's cited conclusion (no decomposition
of the diagonal, hence not stably rational); the conclusion itself is never
re-proved.  Non-product certification is one-directional: a witness point
whose cross has conjugate lines proves the family is not a product; absence
of a witness within the budget yields NotCertified, never "product".
Every fact that depends only on curves and k_max is settled once per
process, in bounded caches that every call and thread shares:

  :func:`_solved`          32 entries, by the equations and k_max: Sigma,
                           and a component's meeting with a Sigma that is
                           not finite;
  :func:`_sigma_meets`     32, by a finite Sigma's point set, the component
                           and k_max: the component's meeting with Sigma;
  :func:`_factored`        32, by Delta: its factors when none are claimed;
  :func:`_singular_locus`  128, by the curve and k_max;
  :func:`_meeting`         128, by the pair and k_max;
  :func:`_claim`           128, by the field and the claim;
  :func:`conic._section_entries`  128, by the section and the point's
                           sort_key(): a section's jet entries there;

and each factor's verdict by :func:`factor._abs_irred_bivariate` (4096, by
the polynomial).
The first three are sized to a pass's keys (a corpus pass needs 8, 10 and
1, a search 1, 2 and 0), since a stream of new bundles never repeats them.
A system's PositiveDimensional and a pair's BezoutMismatch or
CommonComponent are outcomes, kept without their frames; each is answered
by a branch and never raised again, so no certificate's frames attach to
it.  A warm corpus pass solves and factors nothing, and a cleared cache
and a warm one give byte-identical certificates.  Flatness is read off a
finite Sigma's points (:func:`geom.read_off`); a search whose template
fixes Sigma keys it by the shared equations and certifies every candidate
with the one set.
Each point fact is read off one section jet per point
per certificate.  A zero-corner search sums each candidate's sections, Delta
and jets from its empty candidate's (:class:`_Steps`), and decides each H3
and H5 orbit fact once per distinct jet in one call.  That memo is not one
of the caches above: it lives as long as the search call, and no other call
or thread sees it.
Polynomials and the points of solved sets keep their printed text, so each
is rendered once per process; the fiber point of a node is rendered once per
certificate, or once per search call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .conic import (
    BASE_VARS,
    DELTA_TERMS,
    OFF_DIAGONAL,
    SECTION_KEYS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    SectionJet,
    classify_fiber,
    cross_splitting_form,
    discriminant,
    fiber_type,
    flatness_check,
    keep_discriminant,
    section_entries,
    section_jet,
    section_values,
    sigma_generators,
    spec_to_dict,
    spec_validate,
)
from .factor import UnluckySpecializationExhausted, _abs_irred, form_factor, sort_factors
from . import geom
from .gf2k import field_new
from .geom import (
    AlgebraicPointSet,
    BezoutMismatch,
    CommonComponent,
    EliminationDegenerate,
    ExtensionBound,
    PositiveDimensional,
    cross_node,
    fiber_smooth,
    plane_monomials,
    read_off,
    small_field_points,
    solve_system,
)
from .poly import (
    NotDivisible,
    Poly,
    exact_div,
    partial_derivative,
    poly_print,
    poly_square,
    substitute,
)


class FactorizationMismatch(RuntimeError):
    """Claimed factors do not multiply back to the discriminant."""


class NotAbsolutelyIrreducible(RuntimeError):
    def __init__(self, factor: Poly) -> None:
        super().__init__(f"factor {poly_print(factor)} is not absolutely irreducible")
        self.factor = factor


class ZeroEquation(ValueError):
    """elementary_transform_chart needs a nonzero equation."""


HYPOTHESES = (
    "h1_base_hodge_vanishing",
    "h2_reducible_sing_in_sigma",
    "h3_transversal_crosses_nodes",
    "h4_two_am_components",
    "h5_smooth_along_double_lines",
)

CITED_CONCLUSION = (
    "all five hypotheses of the characteristic-2 Artin-Mumford criterion for conic "
    "bundles over surfaces hold: the cited conclusion is that the total space has a "
    "universally CH0-trivial desingularization with no decomposition of the diagonal, "
    "hence is not stably rational (recorded, not re-proved)"
)

CAVEATS = (
    "smoothness of the total space away from the degenerate fibers is not certified "
    "independently; per the criterion's own proof the singular points are exactly the "
    "nodes above component intersections, conditional on the verified hypotheses",
)


# -- component factorization -------------------------------------------------


def component_factorization(
    spec: ConicBundleSpec, claimed: list[Poly] | None = None
) -> list[tuple[Poly, int]]:
    """Verified factorization of the discriminant into absolutely irreducible parts.

    With claimed factors: their product, from the process-wide
    :func:`_claim`, must equal this spec's Delta up to a nonzero scalar
    before any factor is proved, and each factor is factored over F_q before
    its absolute part is proved.  Without: Delta's factors over F_q come
    from the process-wide :func:`_factored`, so only each factor's absolute
    part is proved.  The verdicts are kept by
    :func:`factor._abs_irred_bivariate`; a proof's error is not.
    """
    delta = discriminant(spec)
    if delta.is_zero():
        raise ValueError("the discriminant vanishes identically; no components")
    if claimed is None:
        factors = _factored(delta)
    else:
        product, factors = _claim(spec.ctx, tuple(claimed))
        scale = spec.ctx.mul(delta.leading()[1], spec.ctx.inv(product.leading()[1]))
        if product.scale(scale) != delta:
            raise FactorizationMismatch(
                "claimed factors times a scalar do not expand to the discriminant"
            )
    for f, _ in factors:
        if not _abs_irred(f, claimed is None):
            raise NotAbsolutelyIrreducible(f)
    return list(factors)


@lru_cache(maxsize=128)
def _claim(ctx, claimed: tuple[Poly, ...]) -> tuple[Poly, tuple[tuple[Poly, int], ...]]:
    """The claimed factors' product over ctx and the factors grouped by
    monic associate and sorted.  Examples and search candidates repeat a
    claim while the bundle varies.  A claim that does not multiply in ctx
    raises, and nothing is kept."""
    grouped: dict[Poly, int] = {}
    product = Poly.const(ctx, BASE_VARS, 1)
    for f in claimed:
        g = f.monic()
        grouped[g] = grouped.get(g, 0) + 1
        product = product * f
    return product, tuple(sort_factors(list(grouped.items())))


@lru_cache(maxsize=32)
def _factored(delta: Poly) -> tuple[tuple[Poly, int], ...]:
    """Delta's factors over F_q, :func:`factor.form_factor`, kept by Delta
    as :func:`_claim` keeps a claim: a bundle without claimed factors has
    its Delta factored once per process.  An error is raised again on each
    call, and nothing is kept."""
    factors = form_factor(delta)
    product = Poly.const(delta.ctx, BASE_VARS, 1)
    for f, m in factors:
        product = product * f ** m
    if product.scale(delta.leading()[1]) != delta:  # pragma: no cover - defensive
        raise FactorizationMismatch("internal: chart factorization did not reglue")
    return tuple(factors)


# -- Artin-Mumford component analysis -------------------------------------------


@dataclass(frozen=True)
class AmStatus:
    kind: str  # "double_line_witness" | "cross_nonproduct_witness" | "not_certified"
    point: ProjPoint | None

    def serialize(self) -> dict:
        return {"kind": self.kind, "point": self.point.serialize() if self.point is not None else None}


@dataclass(frozen=True)
class ComponentAnalysis:
    component: Poly
    am_status: AmStatus
    sing_in_sigma: bool
    sing_points: tuple[ProjPoint, ...]
    sigma_meets: tuple[ProjPoint, ...] | None  # None: positive-dimensional overlap

    def serialize(self) -> dict:
        """The component's certificate entry."""
        return {
            "component": poly_print(self.component),
            "am_status": self.am_status.serialize(),
            "sing_in_sigma": self.sing_in_sigma,
            "sing_points": [p.serialize() for p in self.sing_points],
            "sigma_meets": None
            if self.sigma_meets is None
            else [p.serialize() for p in self.sigma_meets],
        }


# A jet source maps a point to the certified spec's section jet there: the
# spec's own (:func:`_spec_jets`), or a search candidate's (:class:`_Candidate`).
_JetSource = Callable[[ProjPoint], SectionJet]


def _spec_jets(spec: ConicBundleSpec) -> _JetSource:
    """The spec's jet source: :func:`conic.section_jet` at each point, taken
    once per point and kept under the point's sort_key() for the life of
    the certificate."""
    jets: dict = {}

    def jet(p: ProjPoint) -> SectionJet:
        key = p.sort_key()
        got = jets.get(key)
        if got is None:
            got = jets[key] = section_jet(spec, p)
        return got

    return jet


def _in_sigma(jet: SectionJet) -> bool:
    """Whether the jet's point lies on Sigma, where s_ab, s_ac and s_bc vanish."""
    return fiber_type(jet.value, jet.point.ctx) in (FiberType.DOUBLE_LINE, FiberType.NOT_CONIC)


# Curve geometry depends only on the curves and k_max, and the examples fix
# the components while the bundle varies.  The curve caches call through
# ``geom.``, so a rebinding there sees each miss.  A raised error is not kept,
# except a pair's BezoutMismatch or CommonComponent, which is the pair's
# outcome, and a system's PositiveDimensional; a kept error is answered by
# the callers' branches and never raised again, so no frames attach to it.
# A corpus meeting holds about 1.8 kB: 128 entries keep both caches near 0.3 MB;
# a meeting's orbits are tuples of its own points, so they add little more.
@lru_cache(maxsize=128)
def _singular_locus(component: Poly, k_max: int) -> tuple[ProjPoint, ...]:
    """The points of ``geom.singular_points(component, k_max)``."""
    return geom.singular_points(component, k_max).points


# Sized to a pass's keys (see the module docstring): those of a stream of
# new bundles never come back.  A corpus pass's 8 systems are its five
# Sigmas and rem_double_line's three components with its curve Sigma.
@lru_cache(maxsize=32)
def _solved(equations: tuple[Poly, ...], k_max: int) -> AlgebraicPointSet | PositiveDimensional:
    """The common zeros of the equations, ``solve_system(equations, k_max)``,
    or the PositiveDimensional it raised, kept as :func:`_meeting` keeps a
    pair's error: Sigma's, and each component's meeting with a Sigma that
    is not finite.  It calls this module's ``solve_system``, so a rebinding
    here sees each miss; every other error is raised again on each call."""
    try:
        return solve_system(equations, k_max)
    except PositiveDimensional as exc:
        exc.__context__ = None
        return exc.with_traceback(None)


@lru_cache(maxsize=32)
def _sigma_meets(sigma: AlgebraicPointSet, component: Poly, k_max: int) -> AlgebraicPointSet:
    """The points of a finite Sigma, solved with this k_max, on the
    component (:func:`geom.read_off`), kept by the set, the component and
    k_max, not by the equations of a spec: a search's candidates share the
    set and its components.  The component's field is the F_q of Sigma's
    equations.  A read-off that falls back to a solve solves the component
    with Sigma's own equations; a Sigma equal to this one has the same
    zeros, so the same points come out."""
    return read_off(sigma, [component, *sigma.equations], [component], k_max)


@lru_cache(maxsize=128)
def _meeting(c1: Poly, c2: Poly, k_max: int) -> AlgebraicPointSet | BezoutMismatch | CommonComponent:
    """``geom.intersection_points(c1, c2, k_max)``, with its Frobenius
    orbits; or the BezoutMismatch or CommonComponent it raised, kept without
    the frames of its traceback and of the error it was raised from."""
    try:
        return geom.intersection_points(c1, c2, k_max)
    except (BezoutMismatch, CommonComponent) as exc:
        exc.__context__ = None
        return exc.with_traceback(None)


def _per_orbit(orbits, decide, facts: dict, conjugate=None, memo=None, kind: str = "") -> dict:
    """Add each point's fact to ``facts``, keyed by its sort_key(), and
    return it.  The orbits are walked in order, and an orbit already in
    ``facts`` is skipped.  ``decide`` runs at each orbit's representative;
    each next point of the orbit gets ``conjugate`` of the fact before it,
    or the same fact when ``conjugate`` is None.

    With ``memo``, a search candidate's jet source (:class:`_Candidate`),
    an orbit's facts are kept in its call's memo under (``kind``, the
    representative's jet key, the orbit's length), which fix them."""
    for orbit in orbits:
        if orbit[0].sort_key() in facts:
            continue
        key = None if memo is None else (kind, memo.key(orbit[0]), len(orbit))
        known = None if memo is None else memo.facts.get(key)
        if known is None:
            known = [decide(orbit[0])]
            while len(known) < len(orbit):
                known.append(known[-1] if conjugate is None else conjugate(known[-1]))
            if memo is not None:
                memo.facts[key] = known
        for p, fact in zip(orbit, known):
            facts[p.sort_key()] = fact
    return facts


def am_component_check(
    spec: ConicBundleSpec,
    component: Poly,
    k_max: int = 24,
    witness_bound: int = 8,
) -> ComponentAnalysis:
    """Classify one discriminant component per the Artin-Mumford definition."""
    delta = discriminant(spec)
    try:
        exact_div(delta, component)
    except NotDivisible as exc:
        raise ValueError("the polynomial is not a discriminant component") from exc
    return _analyse_component(spec, component, k_max, witness_bound, _spec_jets(spec))


def _analyse_component(
    spec: ConicBundleSpec, component: Poly, k_max: int, witness_bound: int,
    jet: _JetSource, sigma: AlgebraicPointSet | None = None,
) -> ComponentAnalysis:
    """am_component_check of a known divisor of Delta; with ``sigma``, a
    finite Sigma solved with the same k_max, its meeting with Sigma is read
    off Sigma's points (:func:`_sigma_meets`), and without it solved from
    the component and Sigma's equations (:func:`_solved`).  The fibers over
    Sigma's meeting points and the singular points are read off the
    certificate's jet source."""
    if sigma is None:
        met = _solved((component, *(s for s in sigma_generators(spec) if not s.is_zero())), k_max)
    else:
        met = _sigma_meets(sigma, component, k_max)
    sigma_meets: tuple[ProjPoint, ...] | None
    witness: ProjPoint | None
    inside_sigma = False
    if isinstance(met, PositiveDimensional):
        # The component shares a curve with Sigma: scan small fields for a
        # double-line point on the component.
        sigma_meets = None
        inside_sigma = met.common_factor.total_degree() == component.total_degree()
        witness = next(
            (p for p in small_field_points(component, min(witness_bound, k_max))
             if classify_fiber(spec, p) is FiberType.DOUBLE_LINE),
            None,
        )
    else:
        sigma_meets = met.points
        witness = next(
            (p for p in met.points if fiber_type(jet(p).value, p.ctx) is FiberType.DOUBLE_LINE), None
        )

    sing = _singular_locus(component, k_max)
    sing_ok = all(_in_sigma(jet(p)) for p in sing)

    if witness is not None:
        status = AmStatus("double_line_witness", witness)
    elif inside_sigma:
        # no fiber over the component is a cross, so no nonproduct witness
        status = AmStatus("not_certified", None)
    else:
        np_witness = nonproduct_witness(spec, component, k_max, witness_bound)
        if np_witness is not None:
            status = AmStatus("cross_nonproduct_witness", np_witness)
        else:
            status = AmStatus("not_certified", None)
    return ComponentAnalysis(component, status, sing_ok, sing, sigma_meets)


def _inside_sigma(spec: ConicBundleSpec, c: Poly) -> bool:
    """Whether the curve c lies inside Sigma: c divides every nonzero generator."""
    try:
        for s in sigma_generators(spec):
            if not s.is_zero():
                exact_div(s, c)
    except NotDivisible:
        return False
    return True


def nonproduct_witness(
    spec: ConicBundleSpec,
    component: Poly,
    k_max: int = 24,
    witness_bound: int = 8,
) -> ProjPoint | None:
    """A smooth point of the component whose cross has conjugate lines.

    A product family has both lines of every cross defined over the residue
    field, so one point with an irreducible splitting form proves the family
    is not a product.  Returning None certifies nothing.
    """
    if _inside_sigma(spec, component):
        raise ValueError("component lies inside the double-line locus; fibers are not crosses")

    partials = [partial_derivative(component, v) for v in BASE_VARS]
    for p in small_field_points(component, min(witness_bound, k_max)):
        if not any(d.eval_bits(p.ctx, p.coords) for d in partials):
            continue
        split = cross_splitting_form(section_values(spec, p))
        if split is None:
            continue
        _, _, (qi, nl, qj) = split
        if qi == 0:
            continue  # splitting form has a rational root: lines split
        # q_i T^2 + n_ell T + q_j irreducible iff Tr(q_i q_j / n_ell^2) = 1
        ctx = p.ctx
        c = ctx.mul(ctx.mul(qi, qj), ctx.inv(ctx.sq(nl)))
        if ctx.trace(c) == 1:
            return p
    return None


# -- elementary transformation (chart level) ---------------------------------


def elementary_transform_chart(
    eq: Poly, scaled_vars: tuple[str, ...], t: str
) -> tuple[int, Poly]:
    """Substitute v -> t*v for the scaled variables; factor out the exact t-order.

    The scaled set is an explicit argument: which projective coordinates the
    transformation rescales is data of the kernel, not inferable from the
    equation.
    """
    if eq.is_zero():
        raise ZeroEquation("cannot transform the zero equation")
    if t not in eq.vars:
        raise ValueError(f"variable {t} not present in the equation ring")
    tv = Poly.var(eq.ctx, eq.vars, t)
    mapping = {v: tv * Poly.var(eq.ctx, eq.vars, v) for v in scaled_vars}
    transformed = substitute(eq, mapping)
    order = transformed.low_degree_in(t)
    return order, exact_div(transformed, Poly.var(eq.ctx, eq.vars, t, order))


# -- certificates ----------------------------------------------------------------


@dataclass
class HypothesisResult:
    name: str
    passed: bool
    detail: str
    witnesses: list = field(default_factory=list)

    def serialize(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witnesses": self.witnesses,
        }


@dataclass
class Certificate:
    spec_data: dict
    spec_hash: str
    config: dict
    setup: dict
    discriminant: dict
    components: list
    sigma: dict
    intersections: list
    double_line_smoothness: list
    hypotheses: dict
    all_pass: bool
    conclusion: str | None
    caveats: list
    replay_log: list

    def to_dict(self) -> dict:
        return {
            "format": "conic2.certificate/1",
            "spec": self.spec_data,
            "spec_hash": self.spec_hash,
            "config": self.config,
            "setup": self.setup,
            "discriminant": self.discriminant,
            "components": self.components,
            "sigma": self.sigma,
            "intersections": self.intersections,
            "double_line_smoothness": self.double_line_smoothness,
            "hypotheses": {k: v.serialize() for k, v in self.hypotheses.items()},
            "verdict": {
                "all_pass": self.all_pass,
                "cited_conclusion": self.conclusion,
                "caveats": self.caveats,
            },
            "paper_claims": {
                "criterion": "Artin-Mumford criterion for conic bundles over surfaces "
                "in characteristic two",
                "checked_hypotheses": list(HYPOTHESES),
                "conclusion_recorded_not_proved": CITED_CONCLUSION,
            },
            "replay_log": self.replay_log,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def spec_hash(spec: ConicBundleSpec) -> str:
    return _hash_spec_data(spec_to_dict(spec))


def _hash_spec_data(data: dict) -> str:
    """spec_hash from the spec's :func:`conic.spec_to_dict`."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def surface_criterion(
    spec: ConicBundleSpec,
    claimed_factors: list[Poly] | None = None,
    k_max: int = 24,
    witness_bound: int = 8,
) -> Certificate:
    """Run the five hypotheses of the surface criterion; never raises on a
    failing hypothesis - failures are recorded in the certificate."""
    return _certify(spec, claimed_factors, k_max, witness_bound, _spec_jets(spec))


# what solve_system raises on a valid system it cannot finish, but for the
# PositiveDimensional that _solved returns
_SOLVER_ERRORS = (ExtensionBound, EliminationDegenerate, UnluckySpecializationExhausted)


def _certify(
    spec: ConicBundleSpec,
    claimed_factors: list[Poly] | None,
    k_max: int,
    witness_bound: int,
    jet: _JetSource,
    sigma: AlgebraicPointSet | None = None,
) -> Certificate:
    """surface_criterion, given the spec's jet source and the solved
    double-line locus Sigma of this spec, or None to read it from the
    process-wide :func:`_solved`, keyed by the three off-diagonal sections.

    Sigma is its solve's outcome: the AlgebraicPointSet, the kept
    PositiveDimensional, or another solver error, held without its frames.
    Flatness is read off a finite Sigma's points (:func:`geom.read_off`),
    and each component's meeting with Sigma comes from the process-wide
    :func:`_sigma_meets`, or from :func:`_solved` when Sigma is not finite.
    Where Sigma is recorded, after the precondition and the factorization, a
    PositiveDimensional outcome fails H5 and any other error is raised.  The
    spec's validation report and Delta are kept on the spec; the rest comes
    from the process-wide caches the module docstring names.
    Every point fact is read off the section jet ``jet`` gives at its point:
    the fiber type over each component's meeting with Sigma, whether each
    singular point lies on Sigma (H2), and, through the one orbit walker
    :func:`_per_orbit`, the fiber type and node at each H3 orbit
    representative (:func:`geom.cross_node`) and smoothness at each Sigma
    orbit representative (:func:`geom.fiber_smooth`).  The spec's own jet
    source (:func:`_spec_jets`) takes one jet per point per certificate; a
    search candidate's (:class:`_Candidate`) one per jet key per search
    call, and it also serves the call's memo of orbit facts and node points.
    """
    log: list[str] = []
    hyps: dict[str, HypothesisResult] = {}

    def record(name: str, passed: bool, detail: str, witnesses=()) -> None:
        hyps[name] = HypothesisResult(name, passed, detail, [p.serialize() for p in witnesses])

    report = spec_validate(spec)
    delta = discriminant(spec)
    # Sigma first, so flatness is read off its points.  A bundle with
    # Delta = 0 stops at the precondition; otherwise Sigma has equations.
    if sigma is None and not delta.is_zero():
        try:
            sigma = _solved(sigma_generators(spec), k_max)
        except _SOLVER_ERRORS as exc:
            sigma = exc.with_traceback(None)  # kept without the frames that hold it
    finite = sigma if isinstance(sigma, AlgebraicPointSet) else None
    flat = flatness_check(spec, k_max, within=finite)
    log.append(
        f"setup: degrees {report.section_degrees}, deg(Delta)={report.delta_degree}, "
        f"flat={flat.flat}, generically_smooth={flat.generically_smooth}"
    )
    spec_data = spec_to_dict(spec)
    cert = Certificate(
        spec_data=spec_data, spec_hash=_hash_spec_data(spec_data),
        config={"k_max": k_max, "witness_bound": witness_bound},
        setup={
            "valid": True,
            "degree_vector": list(spec.degree_vector),
            "value_degree": spec.value_degree,
            "field_degree": spec.ctx.k,
            "flat": flat.flat,
            "flat_witness": flat.witness.serialize() if flat.witness else None,
            "generically_smooth": flat.generically_smooth,
        },
        discriminant={}, components=[], sigma={}, intersections=[], double_line_smoothness=[],
        hypotheses=hyps, all_pass=False, conclusion=None, caveats=list(CAVEATS), replay_log=log,
    )
    if not flat.flat or not flat.generically_smooth:
        for name in HYPOTHESES:
            record(name, False, "precondition failed: bundle not flat or not generically smooth")
        return cert

    # H1: hardcoded classical fact for the fixed base P^2.
    record("h1_base_hodge_vanishing", True,
           "base is P^2: H^2(P^2, Omega^1) = 0 (classical vanishing, fact table)")

    cert.discriminant["poly"] = poly_print(delta)
    cert.discriminant["degree"] = delta.total_degree()
    try:
        factors = component_factorization(spec, claimed_factors)
    except (FactorizationMismatch, NotAbsolutelyIrreducible) as exc:
        cert.discriminant["error"] = str(exc)
        for name in HYPOTHESES[1:]:
            record(name, False, f"component factorization failed: {exc}")
        return cert
    cert.discriminant["factors"] = [
        {"poly": poly_print(f), "multiplicity": m, "absolutely_irreducible": True}
        for f, m in factors
    ]
    cert.discriminant["claimed_verified"] = claimed_factors is not None
    log.append(f"factorization: {[poly_print(f) for f, _ in factors]}")

    # Sigma as a point set (positive-dimensional Sigma is recorded, not fatal).
    if finite is not None:
        cert.sigma = finite.serialize()
        log.append(f"sigma: {len(finite.points)} points, closure {finite.certificate}")
    elif isinstance(sigma, PositiveDimensional):
        cert.sigma = {"error": str(sigma), "positive_dimensional": True}
        log.append(f"sigma: positive-dimensional ({sigma.common_factor!r})")
    else:
        raise sigma

    # Per-component analysis (feeds H2 and H4).
    comps = [f for f, _ in factors]
    analyses = [_analyse_component(spec, f, k_max, witness_bound, jet, finite) for f in comps]
    log.extend(
        f"component {poly_print(a.component)}: am={a.am_status.kind}, sing_in_sigma={a.sing_in_sigma}"
        for a in analyses
    )
    cert.components = [a.serialize() for a in analyses]

    # H2: Delta reducible, each component's singular points inside Sigma,
    # and each repeated component inside Sigma.  Delta = Q(n) and its
    # partials are those of Q at n, so off Sigma the total space is singular
    # over every point of a repeated component.
    reducible = sum(m for _, m in factors) >= 2
    outside = [
        (a.component, [p for p in a.sing_points if not _in_sigma(jet(p))])
        for a in analyses if not a.sing_in_sigma
    ]
    repeated = [f for f, m in factors if m >= 2 and not _inside_sigma(spec, f)]
    detail = [] if reducible else ["discriminant is irreducible"]
    detail += [
        f"Sing({poly_print(c)}) leaves Sigma at " + ", ".join(repr(p) for p in ps)
        for c, ps in outside
    ]
    detail += [f"repeated component {poly_print(f)} is not inside Sigma" for f in repeated]
    record(
        "h2_reducible_sing_in_sigma",
        reducible and not outside and not repeated,
        "; ".join(detail) or "discriminant reducible; all singular loci inside Sigma",
        [p for _, ps in outside for p in ps],
    )

    # H3: pairwise intersections: transversal, cross fibers, ordinary nodes.
    h3_details: list[str] = []
    h3_witnesses: list[ProjPoint] = []
    # each met point's (fiber type, (chart, n, ordinary) or None), decided
    # from one section jet per Frobenius orbit over F_q: a conjugate shares
    # the type, chart and verdict, and its n is the conjugate of n.  An
    # orbit an earlier pair decided (a point two pairs share) is skipped.
    # A search candidate reads an orbit's facts from its call's memo and
    # takes each n as the call's one point with its coordinates.
    facts: dict = {}
    memo = jet if isinstance(jet, _Candidate) else None
    same = (lambda n: n) if memo is None else memo.point

    def node_fact(p: ProjPoint):
        at = jet(p)
        ftype = fiber_type(at.value, p.ctx)
        if ftype is not FiberType.CROSS:
            return ftype, None
        chart, n, ok = cross_node(at)
        return ftype, (chart, same(n), ok)

    def conjugate_node(fact):
        ftype, node = fact
        return fact if node is None else (ftype, (node[0], same(node[1].frobenius(spec.ctx.q)), node[2]))

    for c1, c2 in itertools.combinations(comps, 2):
        inter = _meeting(c1, c2, k_max)
        entry: dict = {"pair": [poly_print(c1), poly_print(c2)]}
        cert.intersections.append(entry)
        if not isinstance(inter, AlgebraicPointSet):  # the pair's BezoutMismatch or CommonComponent
            entry["error"] = str(inter)
            h3_details.append(f"{poly_print(c1)} and {poly_print(c2)}: {inter}")
            if getattr(inter, "witness", None) is not None:
                h3_witnesses.append(inter.witness)
            continue
        _per_orbit(inter.orbits, node_fact, facts, conjugate_node, memo, "node")
        nodes = []
        for p in inter.points:
            ftype, node = facts[p.sort_key()]
            if node is None:
                h3_details.append(f"fiber over {p!r} is {ftype}, not a cross")
                h3_witnesses.append(p)
                continue
            chart, n, ok = node
            nodes.append(
                {"point": p.serialize(), "chart": list(chart), "fiber_singular_point": n.serialize(),
                 "ordinary_node": ok}
            )
            if not ok:
                h3_details.append(f"total space not an ordinary node above {p!r}")
                h3_witnesses.append(p)
        entry["points"] = [p.serialize() for p in inter.points]
        entry["bezout"] = {"expected": inter.certificate.expected, "found": inter.certificate.found}
        entry["all_cross"] = len(nodes) == len(inter.points)
        entry["nodes"] = nodes
        entry["nodes_ok"] = all(nd["ordinary_node"] for nd in nodes)
    record(
        "h3_transversal_crosses_nodes",
        not h3_details,
        "; ".join(h3_details) or "all component pairs meet transversally in crosses with ordinary nodes",
        dict.fromkeys(h3_witnesses),  # each point once, first seen first
    )

    # H4: at least two Artin-Mumford components.
    am_count = sum(1 for a in analyses if a.am_status.kind != "not_certified")
    record("h4_two_am_components", am_count >= 2,
           f"{am_count} of {len(analyses)} components certified Artin-Mumford")

    # H5: smoothness along every double-line fiber, decided once per
    # Frobenius orbit and shared by its conjugates.
    if finite is None:
        record(
            "h5_smooth_along_double_lines",
            False,
            "double-line locus is not a finite point set; smoothness along its fibers "
            "cannot be certified pointwise",
        )
    else:
        smooth_of = _per_orbit(finite.orbits, lambda p: fiber_smooth(jet(p)), {}, None, memo, "smooth")
        cert.double_line_smoothness = [
            {"point": p.serialize(), "smooth": smooth_of[p.sort_key()]} for p in finite.points
        ]
        singular = [p for p in finite.points if not smooth_of[p.sort_key()]]
        record(
            "h5_smooth_along_double_lines",
            not singular,
            "; ".join(f"total space singular along the fiber over {p!r}" for p in singular)
            or f"smooth along all {len(finite.points)} double-line fibers",
            singular,
        )

    cert.all_pass = all(h.passed for h in hyps.values())
    if cert.all_pass:
        cert.conclusion = CITED_CONCLUSION
    log.append("verdict: " + ", ".join(f"{k}={'pass' if v.passed else 'FAIL'}" for k, v in hyps.items()))
    return cert


# -- example search ------------------------------------------------------------


@dataclass(frozen=True)
class SearchTemplate:
    """Matrix shape for the guided search: fixed entries, one congruence-
    constrained free entry, and one entry determined by exact division."""

    degree_vector: tuple[int, int, int]
    value_degree: int
    fixed: dict  # section key -> Poly
    free_key: str
    free_degree: int
    congruence_modulus: Poly  # free entry == residue (mod modulus)
    congruence_residue: Poly
    quotient_key: str
    quotient_divisor: Poly  # determined entry = (target + free^2) / divisor
    target_components: tuple[Poly, ...]
    sigma_expected: tuple[ProjPoint, ...]


def example81_template() -> SearchTemplate:
    """The zero-corner template: unit, x, 0 fixed; bc free; cc determined."""
    from .poly import plane_poly

    ctx = field_new(1)
    d1 = plane_poly("x^3*z + y^4")
    d2 = plane_poly("x^3*y + z^4")
    return SearchTemplate(
        degree_vector=(0, 1, 3),
        value_degree=0,
        fixed={
            "aa": plane_poly("1"),
            "ab": plane_poly("x"),
            "ac": plane_poly("0"),
            "bb": plane_poly("z*y"),
        },
        free_key="bc",
        free_degree=4,
        congruence_modulus=plane_poly("x"),
        congruence_residue=plane_poly("y^2*z^2"),
        quotient_key="cc",
        quotient_divisor=plane_poly("x^2"),
        target_components=(d1, d2),
        sigma_expected=(
            ProjPoint.parse("0:0:1", ctx),
            ProjPoint.parse("0:1:0", ctx),
        ),
    )


@dataclass
class SearchResult:
    hits: list  # list of (ConicBundleSpec, Certificate)
    tried: int
    exhausted_budget: bool


def _shared_sigma_system(template: SearchTemplate) -> list[Poly] | None:
    """Equations whose zeros are every candidate's Sigma, or None when Sigma
    depends on the candidate.

    The determined entry must be diagonal.  A diagonal free entry leaves the
    fixed off-diagonals as Sigma's equations.  A free off-diagonal entry is
    residue + modulus * q: where a nonzero fixed off-diagonal section divides
    the modulus, the modulus vanishes on Sigma, so there the free entry is
    the residue, whatever q is.
    """
    if template.quotient_key in OFF_DIAGONAL:
        return None
    fixed = [template.fixed[k] for k in OFF_DIAGONAL
             if k in template.fixed and not template.fixed[k].is_zero()]
    if template.free_key not in OFF_DIAGONAL:
        return fixed
    for s in fixed:
        try:
            exact_div(template.congruence_modulus, s)
        except NotDivisible:
            continue
        return fixed + [template.congruence_residue]
    return None


# A step's 8 jet entries at a point are packed into one int, one 64-bit slot
# each, which holds any element of F_{2^k} for k <= 64.
_SLOT = 64
_MASK = (1 << _SLOT) - 1


class _Steps:
    """What a search's candidates add to its empty candidate, one step per
    monomial, so that a candidate's sections, Delta and section jets are
    sums, and the search call's memo of what their sums decide.

    Candidate S, q = sum of m_i over i in S, has free section
    beta_S = residue + modulus q and determined section N_S / divisor, with
    N_S = target + beta_S^2.  Squaring is additive in characteristic 2, so
    N_S = N_empty + sum over S of modulus^2 m_i^2 = N_empty + sum over S of
    (N_i + N_empty), N_i being candidate {i}'s.  :meth:`of` divides the
    empty and every one-monomial candidate, so the divisor divides every
    N_S: every candidate passes the filter, and its two sections are the
    empty candidate's plus its monomials' steps beta_i + beta_empty and
    gamma_i + gamma_empty (:meth:`spec`).  Delta is such a sum when no
    term of it multiplies the two sections together (:data:`conic.DELTA_TERMS`):
    each term then holds one of them once or squared.  Jet entries are
    F_2-linear in the section.  In the zero-corner family the step of m_i
    adds x m_i to bc and m_i^2, whose partials vanish, to cc, and nothing to
    Delta.

    At p, each step's 8 jet entries (the two sections' value, d1, d2, d12)
    are packed into one int; xor acts slot by slot, so candidate S's step
    sum at p is the xor of its monomials' packed steps, and the key
    (p.sort_key(), step sum) fixes its jet there.  Each jet is built, and
    each orbit fact of :func:`_per_orbit` decided, at its key's first read
    in the call (:class:`_Candidate`); all of it lives as long as the call.
    """

    def __init__(self, template: SearchTemplate, empty: ConicBundleSpec, ones: list) -> None:
        self.keys = (template.free_key, template.quotient_key)
        self.empty = empty
        self.slots = tuple(SECTION_KEYS.index(k) for k in self.keys)
        self.sections = [tuple(one.sections[k] + empty.sections[k] for k in self.keys) for one in ones]
        self.delta = discriminant(empty)
        steps = [discriminant(one) + self.delta for one in ones]
        self.delta_steps = {i: step for i, step in enumerate(steps) if not step.is_zero()}
        self.packed: dict = {}  # sort_key() -> each monomial's packed step there
        self.jets: dict = {}  # (sort_key(), step sum) -> SectionJet
        self.facts: dict = {}  # (kind, jet key, orbit length) -> the orbit's facts
        self.points: dict = {}  # sort_key() -> the call's fiber point there

    @classmethod
    def of(cls, template: SearchTemplate, candidate, n: int) -> "_Steps | None":
        """The steps of the template's n monomials, or None when a
        candidate's jets or Delta are not sums of them."""
        if any({template.free_key, template.quotient_key} <= term for term in DELTA_TERMS):
            return None
        specs = [candidate(subset) for subset in [()] + [(i,) for i in range(n)]]
        if any(spec is None for spec in specs):
            return None
        return cls(template, specs[0], specs[1:])

    def spec(self, subset: tuple) -> ConicBundleSpec:
        """Candidate ``subset``, its Delta kept: the empty candidate's Poly
        itself when every step of Delta in it is 0."""
        e = self.empty
        free, det = (e.sections[k] for k in self.keys)
        for i in subset:
            free, det = free + self.sections[i][0], det + self.sections[i][1]
        spec = ConicBundleSpec(e.ctx, e.degree_vector, e.value_degree,
                               {**e.sections, self.keys[0]: free, self.keys[1]: det})
        keep_discriminant(spec, sum((self.delta_steps[i] for i in subset if i in self.delta_steps), self.delta))
        return spec

    def steps_at(self, p: ProjPoint) -> list:
        """Each monomial's packed step at p; the first read also keeps the
        empty candidate's jet, under the step sum 0."""
        key = p.sort_key()
        got = self.packed.get(key)
        if got is None:
            self.jets[key, 0] = section_jet(self.empty, p)
            got = self.packed[key] = [
                sum(e << _SLOT * j for j, e in enumerate(section_entries(f, p) + section_entries(d, p)))
                for f, d in self.sections
            ]
        return got

    def jet(self, key: tuple) -> SectionJet:
        """The jet under ``key``, built from the empty candidate's."""
        point, total = key
        jet = self.jets[point, 0]
        free, det = self.slots
        entries = []
        for j, e in enumerate((jet.value, jet.d1, jet.d2, jet.d12)):
            e = list(e)
            e[free] ^= total >> _SLOT * j & _MASK
            e[det] ^= total >> _SLOT * (j + 4) & _MASK
            entries.append(tuple(e))
        return SectionJet(jet.point, jet.chart, *entries)


class _Candidate:
    """Candidate ``subset``'s jet source in a search call with
    :class:`_Steps`, and the call's memo for :func:`_per_orbit` (``key``
    and ``facts``): candidates whose step sums at p agree share the jet."""

    def __init__(self, steps: _Steps, subset: tuple) -> None:
        self.steps, self.subset, self.facts = steps, subset, steps.facts

    def key(self, p: ProjPoint) -> tuple:
        """(p.sort_key(), the candidate's step sum at p)."""
        total = 0
        packed = self.steps.steps_at(p)
        for i in self.subset:
            total ^= packed[i]
        return p.sort_key(), total

    def __call__(self, p: ProjPoint) -> SectionJet:
        key = self.key(p)
        jet = self.steps.jets.get(key)
        if jet is None:
            jet = self.steps.jets[key] = self.steps.jet(key)
        return jet

    def point(self, n: ProjPoint) -> ProjPoint:
        """The call's one point with n's field and coordinates, rendered once."""
        return self.steps.points.setdefault(n.sort_key(), n)


def search_spieghiamolo(
    template: SearchTemplate,
    budget: int = 2048,
    k_max: int = 24,
) -> SearchResult:
    """Enumerate free entries (low weight first), filter, certify survivors.

    Filters run in the remark's order: the congruence is built into the
    enumeration, then the divisibility filter extracts the determined entry,
    then the double-line locus must be exactly the expected points; whatever
    survives must pass the full surface criterion to count as a hit.

    Each candidate's Sigma comes from the process-wide :func:`_solved`.
    When the template forces every candidate's Sigma to be one set (see
    ``_shared_sigma_system``; in the zero-corner family ab = x divides the
    modulus x, so bc = y^2 z^2 on Sigma = {[0:0:1], [0:1:0]}), it is keyed
    by those shared equations, so it is solved at most once per process,
    and a set that differs from the expected points, or a
    positive-dimensional one, skips every candidate.  Every candidate is
    certified with it: its points are the candidate's Sigma, each written
    over the field a solve of the candidate's own equations would use (that
    field depends only on the zeros on the point's direction), and its
    closure certifies equations with the same zeros.  Any other template
    keys each candidate's Sigma by its own off-diagonal sections.

    Where :class:`_Steps` holds (the zero-corner family), each candidate's
    sections, Delta and section jets are the empty candidate's plus one step
    per chosen monomial, and its certificate decides only the H3 nodes and
    H5 smoothness no earlier candidate of the call met with the same jet:
    210 and 8 for the first 56 candidates, 2336 and 8 for all 1024.
    Otherwise each candidate is divided and certified alone.
    Exhausting the budget is legal and returns the partial list.
    """
    ctx = template.congruence_residue.ctx
    target = Poly.const(ctx, BASE_VARS, 1)
    for c in template.target_components:
        target = target * c
    free_residual_degree = template.free_degree - template.congruence_modulus.total_degree()
    monos = list(plane_monomials(free_residual_degree))
    expected = sorted(p.sort_key() for p in template.sigma_expected)
    sigma_system = _shared_sigma_system(template)
    if sigma_system is not None:
        sigma_system = tuple(sigma_system)  # the key of every candidate's Sigma

    def candidate(subset: tuple) -> ConicBundleSpec | None:
        """The spec of q = the sum of the monomials in subset, or None when
        it fails the divisibility filter."""
        q = Poly.from_terms(ctx, BASE_VARS, [(monos[i], 1) for i in subset])
        beta = template.congruence_residue + template.congruence_modulus * q
        # divisibility filter: target + beta^2 (a Frobenius square) divisible by the divisor
        try:
            gamma = exact_div(target + poly_square(beta), template.quotient_divisor)
        except NotDivisible:
            return None
        sections = dict(template.fixed)
        sections[template.free_key] = beta
        sections[template.quotient_key] = gamma
        return ConicBundleSpec(ctx, template.degree_vector, template.value_degree, sections)

    steps = _Steps.of(template, candidate, len(monos))
    hits = []
    tried = 0
    exhausted = False
    # weight-ascending exhaustive enumeration of F_2 coefficient vectors
    for weight in range(len(monos) + 1):
        for subset in itertools.combinations(range(len(monos)), weight):
            if tried >= budget:
                exhausted = True
                break
            tried += 1
            spec = candidate(subset) if steps is None else steps.spec(subset)
            if spec is None:
                continue
            # Sigma condition: the off-diagonals vanish exactly at the expected points
            sig = _solved(sigma_generators(spec) if sigma_system is None else sigma_system, k_max)
            if not isinstance(sig, AlgebraicPointSet) or sorted(p.sort_key() for p in sig.points) != expected:
                continue
            cert = _certify(
                spec, list(template.target_components), k_max, witness_bound=8,
                jet=_spec_jets(spec) if steps is None else _Candidate(steps, subset), sigma=sig,
            )
            if cert.all_pass:
                hits.append((spec, cert))
        if exhausted:
            break
    return SearchResult(hits, tried, exhausted)


# -- dense-matrix completion (the no-zero-corner recipe) -------------------------


def complete_diagonal(
    ctx,
    degree_vector: tuple[int, int, int],
    value_degree: int,
    off_diagonals: dict,
    target: Poly,
):
    """Solve for diagonal entries making the discriminant equal the target.

    Given the three off-diagonal sections, the discriminant formula is linear
    in (s_aa, s_bb, s_cc):

        s_bc^2 s_aa + s_ac^2 s_bb + s_ab^2 s_cc = target + s_ab s_bc s_ac.

    Returns (solution dict, kernel dimension) or None when inconsistent; the
    returned solution is the canonical echelon one.
    """
    sab, sac, sbc = off_diagonals["ab"], off_diagonals["ac"], off_diagonals["bc"]
    rhs = target + sab * sbc * sac
    ea, eb, ec = degree_vector
    m = value_degree
    diag_degrees = {"aa": 2 * ea + m, "bb": 2 * eb + m, "cc": 2 * ec + m}
    mults = {"aa": sbc * sbc, "bb": sac * sac, "cc": sab * sab}
    unknowns = []  # (key, monomial)
    for key in ("aa", "bb", "cc"):
        d = diag_degrees[key]
        if d < 0:
            continue
        for mono in plane_monomials(d):
            unknowns.append((key, mono))
    rows: dict = {}

    def _row(mono_out):
        return rows.setdefault(mono_out, [0] * (len(unknowns) + 1))

    for col, (key, mono) in enumerate(unknowns):
        base = mults[key] * Poly.from_terms(ctx, BASE_VARS, [(mono, 1)])
        for mo, c in base.items():
            _row(mo)[col] ^= c
    for mo, c in rhs.items():
        _row(mo)[-1] ^= c
    matrix = [rows[k] for k in sorted(rows)]
    ncols = len(unknowns)
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        inv = ctx.inv(matrix[rank][col])
        matrix[rank] = [ctx.mul(v, inv) for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [v ^ ctx.mul(f, w) for v, w in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(matrix)):
        if matrix[r][-1]:
            return None
    values = [0] * ncols
    for r, col in enumerate(pivots):
        values[col] = matrix[r][-1]
    solution = {"aa": Poly.zero(ctx, BASE_VARS), "bb": Poly.zero(ctx, BASE_VARS), "cc": Poly.zero(ctx, BASE_VARS)}
    for (key, mono), v in zip(unknowns, values):
        if v:
            solution[key] = solution[key] + Poly.from_terms(ctx, BASE_VARS, [(mono, v)])
    return solution, ncols - rank
