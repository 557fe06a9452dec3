"""Exact verifier and search engine for conic bundles over P^2 in characteristic 2.

Layers, bottom up:

- :mod:`conic2.gf2k`: F_{2^k} arithmetic (k <= 64) with a fixed modulus table.
- :mod:`conic2._dense`: dense univariate arithmetic and the one elimination
  engine (the subresultant sequence of polynomials in z over F[t]).
- :mod:`conic2.poly`: sparse multivariate polynomials, char-2 calculus,
  resultants, binary-form gcd, dense and column views.
- :mod:`conic2.factor`: factorization, the bivariate gcd, and the absolute
  irreducibility test over prime-degree extensions.
- :mod:`conic2.conic`: the half-matrix bundle model, discriminant and
  double-line locus, fiber classification, section jets, chart equations.
- :mod:`conic2.geom`: exact plane geometry (solve_system, singular loci,
  Bezout-certified intersections, smoothness along degenerate fibers, node
  criterion).
- :mod:`conic2.amcert`: the Artin-Mumford hypothesis pipeline, certificates,
  the chart-level elementary transformation, and the guided example search.
- :mod:`conic2.cli`: the ``conic2`` command.
"""

from .gf2k import FieldCtx, FieldElem, embed, field_new, frobenius_sqrt
from .poly import (
    Poly,
    binary_gcd,
    exact_div,
    is_homogeneous,
    partial_derivative,
    poly_parse,
    poly_print,
    poly_square,
    resultant,
    substitute,
)
from .factor import (
    bivariate_factor,
    is_absolutely_irreducible,
    univariate_factor,
)
from .conic import (
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    classify_fiber,
    discriminant,
    flatness_check,
    load_spec,
    sigma_generators,
    spec_validate,
    total_space_charts,
)
from .geom import (
    AlgebraicPointSet,
    intersection_points,
    ordinary_node_check,
    singular_points,
    smooth_along_fiber,
    solve_system,
    transversal_at,
)
from .amcert import (
    Certificate,
    am_component_check,
    complete_diagonal,
    component_factorization,
    elementary_transform_chart,
    example81_template,
    nonproduct_witness,
    search_spieghiamolo,
    surface_criterion,
)

__all__ = [
    "AlgebraicPointSet", "Certificate", "ConicBundleSpec", "FieldCtx",
    "FieldElem", "FiberType", "Poly", "ProjPoint", "am_component_check",
    "binary_gcd", "bivariate_factor", "classify_fiber", "complete_diagonal",
    "component_factorization", "discriminant", "elementary_transform_chart",
    "embed", "exact_div", "example81_template", "field_new", "flatness_check",
    "frobenius_sqrt", "intersection_points", "is_absolutely_irreducible",
    "is_homogeneous", "load_spec", "nonproduct_witness", "ordinary_node_check",
    "partial_derivative", "poly_parse", "poly_print", "poly_square",
    "resultant", "search_spieghiamolo", "sigma_generators", "singular_points",
    "smooth_along_fiber", "solve_system", "spec_validate", "substitute",
    "surface_criterion", "total_space_charts", "transversal_at",
    "univariate_factor",
]

__version__ = "0.1.0"
