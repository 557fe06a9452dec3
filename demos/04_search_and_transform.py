"""The elementary transformation and the guided example search.

Run with:  python demos/04_search_and_transform.py          (under a second)
           python demos/04_search_and_transform.py --full   (~2 s, exhaustive)
"""

import sys

from conic2 import elementary_transform_chart, field_new, search_spieghiamolo
from conic2.amcert import complete_diagonal, example81_template
from conic2.cli import load_corpus_spec
from conic2.conic import discriminant
from conic2.poly import poly_parse, poly_print

# ----------------------------------------------------------------------------
# Separating discriminant components works through an elementary
# transformation; at chart level it rescales some fiber coordinates by the
# divisor parameter and divides out the exact vanishing order, which is 2.
# ----------------------------------------------------------------------------
F2 = field_new(1)
ring = ("s", "t2", "t1", "a", "b", "c")
eq = poly_parse("s*t2*t1^2*c^2 + a*b", F2, ring)
order, quotient = elementary_transform_chart(eq, ("a", "b"), "t1")
print("local chart equation:", poly_print(eq))
print(f"after rescaling a, b by t1: vanishing order {order}, quotient {poly_print(quotient)}")
print()

# ----------------------------------------------------------------------------
# The guided search enumerates the free entry of the zero-corner template
# (degree 4, congruent to y^2 z^2 mod x), derives the last entry by exact
# division, and keeps candidates that pass the full criterion.
# ----------------------------------------------------------------------------
budget = 2048 if "--full" in sys.argv else 64
result = search_spieghiamolo(example81_template(), budget=budget)
print(f"search tried {result.tried} candidates, certified {len(result.hits)} bundles")
for spec, cert in result.hits[:5]:
    print("   bc =", poly_print(spec.sections["bc"]))
if "--full" not in sys.argv:
    print("   (pass --full to sweep the whole 1024-candidate space)")
print()

# ----------------------------------------------------------------------------
# The dense-matrix recipe: given the three off-diagonal conics and a target
# discriminant, the diagonal entries solve a linear system.
# ----------------------------------------------------------------------------
spec4 = load_corpus_spec("ex4")
target = discriminant(spec4)
off = {k: spec4.sections[k] for k in ("ab", "ac", "bc")}
solution, kernel_dim = complete_diagonal(spec4.ctx, spec4.degree_vector, spec4.value_degree, off, target)
print("dense completion for the F_4 example: kernel dimension", kernel_dim)
for key in ("aa", "bb", "cc"):
    print(f"   s_{key} =", poly_print(solution[key]))
