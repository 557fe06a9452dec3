"""Artin-Mumford hypothesis pipeline for conic bundles over P^2 in char 2.

Builds replayable certificates for the five hypotheses of the surface
criterion:

  (1) H^2 of the base with coefficients in 1-forms vanishes (hardcoded fact
      for P^2; computing coherent cohomology is out of scope),
  (2) the discriminant is reducible and each component's singular locus lies
      inside the double-line locus Sigma,
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
Curve geometry is solved once per process, in bounded caches every call
shares; certificates do not depend on what they hold.  Sigma is solved once
per certificate: flatness and each component's meeting with Sigma contain
Sigma's equations, so they are read off Sigma's points.  Each point fact
is read off one section jet per point per certificate.  Polynomials and
points keep their printed text, so each is rendered once per process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache

from .conic import (
    BASE_VARS,
    OFF_DIAGONAL,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    SectionJet,
    classify_fiber,
    cross_splitting_form,
    discriminant,
    fiber_type,
    flatness_check,
    section_jet,
    section_values,
    sigma_generators,
    spec_to_dict,
    spec_validate,
)
from .factor import (
    UnluckySpecializationExhausted,
    _is_absolutely_irreducible,
    bivariate_factor,
    is_absolutely_irreducible,
    sort_factors,
)
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
    frobenius_orbits,
    plane_monomials,
    small_field_points,
    solve_system,
)
from .poly import (
    NotDivisible,
    Poly,
    dehomogenize,
    exact_div,
    homogenize,
    partial_derivative,
    poly_print,
    strip_monomial,
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
    spec: ConicBundleSpec, claimed: list[Poly] | None = None, k_max: int = 24
) -> list[tuple[Poly, int]]:
    """Verified factorization of the discriminant into absolutely irreducible parts.

    With claimed factors: their product must equal Delta up to a nonzero
    scalar, and each is factored over F_q before its absolute part is proved.
    Without: Delta is factored from scratch (monomial part plus bivariate
    factorization on a chart, reglued by homogenization); those factors are
    irreducible over F_q, so only their absolute part is proved.
    """
    delta = discriminant(spec)
    if delta.is_zero():
        raise ValueError("the discriminant vanishes identically; no components")
    if claimed is not None:
        grouped: dict[Poly, int] = {}
        prod = Poly.const(spec.ctx, BASE_VARS, 1)
        for f in claimed:
            g = f.monic()
            grouped[g] = grouped.get(g, 0) + 1
            prod = prod * f
        _, lc_prod = prod.leading()
        _, lc_delta = delta.leading()
        scale = spec.ctx.mul(lc_delta, spec.ctx.inv(lc_prod))
        if prod.scale(scale) != delta:
            raise FactorizationMismatch(
                "claimed factors times a scalar do not expand to the discriminant"
            )
        factors = sort_factors(list(grouped.items()))
    else:
        factors = _factor_homogeneous(delta)
    for f, _ in factors:
        if claimed is not None:
            proved = is_absolutely_irreducible(f)
        else:  # a factor of Delta is irreducible over F_q
            proved = _is_absolutely_irreducible(f, True)
        if not proved:
            raise NotAbsolutelyIrreducible(f)
    return factors


def _factor_homogeneous(delta: Poly) -> list[tuple[Poly, int]]:
    """Factor a homogeneous plane polynomial: monomial part + one chart."""
    work, ords = strip_monomial(delta)
    out = {Poly.var(delta.ctx, BASE_VARS, v): e for v, e in zip(BASE_VARS, ords) if e}
    if not work.is_constant():
        chart = dehomogenize(work, "z")
        for g, m in bivariate_factor(chart):
            h = homogenize(g, "z").with_vars(BASE_VARS).monic()
            out[h] = out.get(h, 0) + m
    factors = sort_factors(list(out.items()))
    check = Poly.const(delta.ctx, BASE_VARS, 1)
    for f, m in factors:
        check = check * f ** m
    _, lc = delta.leading()
    if check.scale(lc) != delta:  # pragma: no cover - defensive
        raise FactorizationMismatch("internal: chart factorization did not reglue")
    return factors


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


def _jet(spec: ConicBundleSpec, jets: dict, p: ProjPoint) -> SectionJet:
    """The section jet of the spec at p, taken once: ``jets`` keeps each
    jet under its point's sort_key() for the life of one certificate."""
    jet = jets.get(p.sort_key())
    if jet is None:
        jet = jets[p.sort_key()] = section_jet(spec, p)
    return jet


def _in_sigma(jet: SectionJet) -> bool:
    return all(jet.value[k] == 0 for k in OFF_DIAGONAL)


# Curve geometry depends only on the curves and k_max, and the examples fix
# the components while the bundle varies.  The caches call through ``geom.``,
# so a rebinding there sees each miss.  A raised error is not kept, except a
# pair's BezoutMismatch or CommonComponent, which is the pair's outcome.
# A corpus meeting holds about 1.8 kB: 128 entries keep both caches near 0.3 MB.
@lru_cache(maxsize=128)
def _singular_locus(component: Poly, k_max: int) -> tuple[ProjPoint, ...]:
    """The points of ``geom.singular_points(component, k_max)``."""
    return geom.singular_points(component, k_max).points


@lru_cache(maxsize=128)
def _meeting(c1: Poly, c2: Poly, k_max: int) -> AlgebraicPointSet | BezoutMismatch | CommonComponent:
    """``geom.intersection_points(c1, c2, k_max)``, or the BezoutMismatch or
    CommonComponent it raised, kept without the frames of its traceback and
    of the error it was raised from."""
    try:
        return geom.intersection_points(c1, c2, k_max)
    except (BezoutMismatch, CommonComponent) as exc:
        exc.__context__ = None
        return exc.with_traceback(None)


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
    return _analyse_component(spec, component, k_max, witness_bound, {})


def _analyse_component(
    spec: ConicBundleSpec, component: Poly, k_max: int, witness_bound: int,
    jets: dict, sigma: AlgebraicPointSet | None = None,
) -> ComponentAnalysis:
    """am_component_check of a known divisor of Delta; ``sigma``, a finite
    Sigma solved with the same k_max, confines its solve to Sigma's points.
    The fibers over Sigma's meeting points and the singular points are
    read off the certificate's jets (:func:`_jet`)."""
    system = [component] + [s for s in sigma_generators(spec) if not s.is_zero()]
    sigma_meets: tuple[ProjPoint, ...] | None
    witness: ProjPoint | None = None
    inside_sigma = False
    try:
        met = solve_system(system, k_max, within=sigma)
        sigma_meets = met.points
        for p in met.points:
            if fiber_type(_jet(spec, jets, p).value, p.ctx) is FiberType.DOUBLE_LINE:
                witness = p
                break
    except PositiveDimensional as exc:
        # The component shares a curve with Sigma: scan small fields for a
        # double-line point on the component.
        sigma_meets = None
        inside_sigma = exc.common_factor.total_degree() == component.total_degree()
        witness = next(
            (p for p in small_field_points(component, witness_bound)
             if classify_fiber(spec, p) is FiberType.DOUBLE_LINE),
            None,
        )

    sing = _singular_locus(component, k_max)
    sing_ok = all(_in_sigma(_jet(spec, jets, p)) for p in sing)

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
    for s in sigma_generators(spec):
        if s.is_zero():
            continue
        try:
            exact_div(s, component)
        except NotDivisible:
            break
    else:
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
    return _certify(spec, claimed_factors, k_max, witness_bound)


# what solve_system raises on a valid system it cannot finish
_SOLVER_ERRORS = (PositiveDimensional, ExtensionBound, EliminationDegenerate, UnluckySpecializationExhausted)


def _certify(
    spec: ConicBundleSpec,
    claimed_factors: list[Poly] | None,
    k_max: int,
    witness_bound: int,
    sigma: AlgebraicPointSet | None = None,
) -> Certificate:
    """surface_criterion, given the solved double-line locus Sigma of this
    spec, or None to solve it here.

    Sigma is kept as its solve's outcome: the AlgebraicPointSet, or the
    solver error without its frames.  A finite Sigma confines the flatness
    solve and each component's meeting with Sigma to its points
    (geom.solve_system with ``within``).
    Where Sigma is recorded, after the precondition and the factorization, a
    PositiveDimensional outcome fails H5 and any other error is raised.  The
    components' singular loci and pairwise meetings come from the
    process-wide curve caches, :func:`_singular_locus` and :func:`_meeting`.
    Every point fact is read off one section jet per distinct point, kept
    for this certificate only (:func:`_jet`): the fiber type over each
    component's meeting with Sigma, whether each singular point lies on
    Sigma (H2), the fiber type and node at each H3 orbit representative
    (:func:`geom.cross_node`), and smoothness at each Sigma orbit
    representative (:func:`geom.fiber_smooth`).
    """
    log: list[str] = []
    hyps: dict[str, HypothesisResult] = {}

    def record(name: str, passed: bool, detail: str, witnesses=()) -> None:
        hyps[name] = HypothesisResult(name, passed, detail, [p.serialize() for p in witnesses])

    report = spec_validate(spec)
    delta = discriminant(spec)
    # Sigma first, so flatness is solved on its direction forms.  A bundle
    # with Delta = 0 stops at the precondition; otherwise Sigma has equations.
    if sigma is None and not delta.is_zero():
        try:
            sigma = solve_system(sigma_generators(spec), k_max)
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
        factors = component_factorization(spec, claimed_factors, k_max)
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
    jets: dict = {}  # each point's section jet, by sort_key(), for this certificate
    analyses = [_analyse_component(spec, f, k_max, witness_bound, jets, finite) for f in comps]
    log.extend(
        f"component {poly_print(a.component)}: am={a.am_status.kind}, sing_in_sigma={a.sing_in_sigma}"
        for a in analyses
    )
    cert.components = [a.serialize() for a in analyses]

    # H2: Delta reducible, each component's singular points inside Sigma.
    reducible = sum(m for _, m in factors) >= 2
    outside = [
        (a.component, [p for p in a.sing_points if not _in_sigma(_jet(spec, jets, p))])
        for a in analyses if not a.sing_in_sigma
    ]
    detail = [] if reducible else ["discriminant is irreducible"]
    detail += [
        f"Sing({poly_print(c)}) leaves Sigma at " + ", ".join(repr(p) for p in ps)
        for c, ps in outside
    ]
    record(
        "h2_reducible_sing_in_sigma",
        reducible and not outside,
        "; ".join(detail) or "discriminant reducible; all singular loci inside Sigma",
        [p for _, ps in outside for p in ps],
    )

    # H3: pairwise intersections: transversal, cross fibers, ordinary nodes.
    h3_details: list[str] = []
    h3_witnesses: list[ProjPoint] = []
    pairs = list(itertools.combinations(comps, 2))
    meets = [_meeting(c1, c2, k_max) for c1, c2 in pairs]
    # each met point's (fiber type, (chart, n, ordinary) or None), keyed by
    # its exact representation and decided from one section jet per
    # Frobenius orbit over F_q: a conjugate shares the type, chart and
    # verdict, and its n is the conjugate of n
    met = [p for m in meets if isinstance(m, AlgebraicPointSet) for p in m.points]
    facts: dict = {}
    for orbit in frobenius_orbits(met, spec.ctx.q):  # a point two pairs share is grouped once
        jet = _jet(spec, jets, orbit[0])
        ftype = fiber_type(jet.value, jet.point.ctx)
        node = cross_node(jet) if ftype is FiberType.CROSS else None
        for p in orbit:
            facts[p.sort_key()] = (ftype, node)
            if node is not None:
                chart, n, ok = node
                node = (chart, n.frobenius(spec.ctx.q), ok)
    for (c1, c2), inter in zip(pairs, meets):
        entry: dict = {"pair": [poly_print(c1), poly_print(c2)]}
        cert.intersections.append(entry)
        if not isinstance(inter, AlgebraicPointSet):  # the pair's BezoutMismatch or CommonComponent
            entry["error"] = str(inter)
            h3_details.append(f"{poly_print(c1)} and {poly_print(c2)}: {inter}")
            if getattr(inter, "witness", None) is not None:
                h3_witnesses.append(inter.witness)
            continue
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
        smooth_of = {}
        for orbit in frobenius_orbits(finite.points, spec.ctx.q):
            smooth = fiber_smooth(_jet(spec, jets, orbit[0]))
            smooth_of.update((p.sort_key(), smooth) for p in orbit)
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


def search_spieghiamolo(
    template: SearchTemplate,
    budget: int = 2048,
    k_max: int = 24,
) -> SearchResult:
    """Enumerate free entries (low weight first), filter, certify survivors.

    Filters run in the remark's order: the congruence is built into the
    enumeration, then the divisibility filter extracts the determined entry,
    then the double-line locus must be exactly the expected points; whatever
    survives must pass the full surface criterion to count as a hit.  The
    criterion takes the Sigma the filter solved; the candidates share the
    target components, whose curve geometry comes from the process-wide
    curve caches.  Exhausting the budget is legal and returns the partial
    list.
    """
    ctx = template.congruence_residue.ctx
    target = Poly.const(ctx, BASE_VARS, 1)
    for c in template.target_components:
        target = target * c
    free_residual_degree = template.free_degree - template.congruence_modulus.total_degree()
    monos = list(plane_monomials(free_residual_degree))
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
            q = Poly.from_terms(ctx, BASE_VARS, [(monos[i], 1) for i in subset])
            beta = template.congruence_residue + template.congruence_modulus * q
            # divisibility filter: target + beta^2 divisible by the divisor
            try:
                gamma = exact_div(target + beta * beta, template.quotient_divisor)
            except NotDivisible:
                continue
            sections = dict(template.fixed)
            sections[template.free_key] = beta
            sections[template.quotient_key] = gamma
            spec = ConicBundleSpec(
                ctx, template.degree_vector, template.value_degree, sections
            )
            # Sigma condition: the off-diagonals vanish exactly at the expected points
            off = [s for s in sigma_generators(spec) if not s.is_zero()]
            try:
                sig = solve_system(off, k_max)
            except PositiveDimensional:
                continue
            if sorted(p.sort_key() for p in sig.points) != sorted(
                p.sort_key() for p in template.sigma_expected
            ):
                continue
            cert = _certify(
                spec, list(template.target_components), k_max,
                witness_bound=8, sigma=sig,
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
