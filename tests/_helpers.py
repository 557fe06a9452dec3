"""Shared helpers for the test suite: random generators and brute oracles."""

import importlib
import importlib.util
import json
import pkgutil
from itertools import combinations, product
from math import lcm
from pathlib import Path

import conic2
from conic2 import _dense
from conic2.cli import corpus_manifest
from conic2.conic import (
    BASE_VARS,
    FIBER_VARS,
    SECTION_KEYS,
    ConicBundleSpec,
    FiberType,
    ProjPoint,
    chart_equation,
    classify_fiber,
    cross_splitting_form,
    fiber_form_on_chart,
    fiber_type,
    section_jet,
    section_values,
)
from conic2.factor import (
    UnluckySpecializationExhausted,
    _find_specialization,
    _merge_frobenius_orbits,
    bivariate_factor,
    form_factor,
    gcd_homogeneous_many,
)
from conic2.gf2k import DivisionByZero, embed_bits, field_new
from conic2.geom import (
    AlgebraicPointSet,
    EliminationClosure,
    ExtensionBound,
    FiberNotDegenerate,
    PositiveDimensional,
    _direction_eliminant,
    _resultant_forms,
    _solve_on_directions,
    _z_gcd,
    cross_node,
    smooth_along_fiber,
)
from conic2.poly import (
    NotDivisible,
    Poly,
    binary_gcd,
    dehomogenize,
    exact_div,
    from_columns,
    partial_derivative,
    specialize,
    substitute,
    to_columns,
    to_dense,
)


ROOT = Path(__file__).resolve().parent.parent


def clear_caches():
    """Clear every ``functools.lru_cache`` a ``conic2`` module binds, so a
    test can start from empty process-wide caches, a new cache included."""
    for info in pkgutil.iter_modules(conic2.__path__):
        module = importlib.import_module(f"conic2.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def moved_module():
    """The benchmark's ``perfbench/moved.py``, loaded by path: it is no package."""
    spec = importlib.util.spec_from_file_location("moved", ROOT / "perfbench" / "moved.py")
    moved = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(moved)
    return moved


def moved_stream(seed):
    """The benchmark's seeded stream of moved corpus passes
    (:func:`moved_module`), over the corpus specs in manifest order."""
    sources = [(e["name"], json.loads((ROOT / "src" / "conic2" / "corpus" / e["file"]).read_text()))
               for e in corpus_manifest()["examples"]]
    return moved_module().MovedStream(seed, sources)


def monomials_of_degree(d, nvars=3):
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomials_of_degree(d - e, nvars - 1):
            out.append((e,) + rest)
    return out


def rand_homogeneous(rng, ctx, degree, max_terms=4, vars=BASE_VARS, nonzero=False):
    monos = monomials_of_degree(degree, len(vars))
    items = []
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        items.append((rng.choice(monos), rng.randrange(1, ctx.q)))
    p = Poly.from_terms(ctx, vars, items)
    if nonzero and p.is_zero():
        mono = rng.choice(monos)
        p = Poly.from_terms(ctx, vars, [(mono, rng.randrange(1, ctx.q))])
    return p


def rand_spec(rng, ctx=None, max_entry_degree=2):
    """A random validated-shape bundle spec (sections match the degree law)."""
    ctx = ctx or field_new(rng.choice((1, 1, 2)))
    m = rng.randint(0, 1)
    ev = tuple(rng.randint(0, max_entry_degree) for _ in range(3))
    sections = {}
    for key in SECTION_KEYS:
        i, j = FIBER_VARS.index(key[0]), FIBER_VARS.index(key[1])
        d = ev[i] + ev[j] + m
        sections[key] = rand_homogeneous(rng, ctx, d, max_terms=3)
    if all(sections[k].is_zero() for k in SECTION_KEYS):
        sections["aa"] = rand_homogeneous(rng, ctx, 2 * ev[0] + m, nonzero=True)
    return ConicBundleSpec(ctx, ev, m, sections)


def vanish_at(rng, ctx, degree, point_bits, vars=BASE_VARS):
    """A random homogeneous polynomial vanishing at the given point."""
    p = rand_homogeneous(rng, ctx, degree, max_terms=3, vars=vars)
    val = p.eval_bits(ctx, point_bits)
    if val == 0:
        return p
    # cancel the value against a monomial that is nonzero at the point
    monos = monomials_of_degree(degree, len(vars))
    for mono in monos:
        mval = Poly.from_terms(ctx, vars, [(mono, 1)]).eval_bits(ctx, point_bits)
        if mval:
            fix = ctx.mul(val, ctx.inv(mval))
            return p + Poly.from_terms(ctx, vars, [(mono, fix)])
    raise AssertionError("no monomial is nonzero at a projective point")


def enumerate_plane_points(ctx):
    """All points of P^2(F_{2^k}) in canonical order."""
    for y in range(ctx.q):
        for z in range(ctx.q):
            yield ProjPoint(ctx, (1, y, z))
    for z in range(ctx.q):
        yield ProjPoint(ctx, (0, 1, z))
    yield ProjPoint(ctx, (0, 0, 1))


def brute_solutions(polys, ctx):
    """All rational solutions over one field, by exhaustive enumeration."""
    return [p for p in enumerate_plane_points(ctx)
            if all(g.eval_bits(ctx, p.coords) == 0 for g in polys)]


def brute_small_field_points(curve, bound):
    """geom.small_field_points by evaluating the curve at every plane point."""
    base = curve.ctx
    e = 1
    while base.k * e <= min(bound, 64):
        yield from brute_solutions([curve], field_new(base.k * e))
        e += 1


def naive_mul(ctx, a, b):
    """Schoolbook product of coefficient lists, one field product per pair."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= ctx.mul(x, y)
    return _dense.trim(out)


def naive_divmod(ctx, a, b):
    """Long division of coefficient lists, one quotient coefficient per step."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = ctx.inv(b[-1])
    for i in range(len(q) - 1, -1, -1):
        c = ctx.mul(r[i + len(b) - 1], inv)
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] ^= ctx.mul(c, y)
    return _dense.trim(q), _dense.trim(r)


def is_irreducible(ctx, f):
    """Rabin's irreducibility criterion over F_{2^k}, for dense f, on the
    ring primitives of :mod:`conic2._dense`."""
    R = _dense._ring(ctx)
    f = R.pack(list(f))
    n = R.deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    f = R.monic(f)
    if not R.const(f):
        return False
    h = R.t
    for _ in range(n):
        h = R.pow_mod(h, ctx.q, f)
    if h != R.t:
        return False
    for p in range(2, n + 1):
        if n % p == 0 and all(p % r for r in range(2, p)):
            g = R.t
            for _ in range(n // p):
                g = R.pow_mod(g, ctx.q, f)
            if R.deg(R.gcd(f, g ^ R.t)) != 0:
                return False
    return True


def brute_fiber_singular_points(spec, p, ctx_big):
    """Total-space singular points on the fiber over p, rational over ctx_big.

    Independent oracle: enumerates the fiber pointwise and checks the affine
    Jacobian on every chart (with the line-bundle twists applied).
    """
    sing = []
    pb = p.embed_to(ctx_big)
    v = {k: spec.sections[k].eval_bits(ctx_big, pb.coords) for k in SECTION_KEYS}
    M = ctx_big.mul

    def conic_val(a, b, c):
        return (
            M(M(a, a), v["aa"]) ^ M(M(b, b), v["bb"]) ^ M(M(c, c), v["cc"])
            ^ M(M(a, b), v["ab"]) ^ M(M(a, c), v["ac"]) ^ M(M(b, c), v["bc"])
        )

    fiber_pts = []
    for a, b, c in product(range(ctx_big.q), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        lead = a if a else (b if b else c)
        if lead != 1:
            continue
        if conic_val(a, b, c) == 0:
            fiber_pts.append((a, b, c))
    jacobians = {}  # (base chart, fiber chart) -> chart equation and its partials over ctx_big
    for abc in fiber_pts:
        singular_here = None
        for wi, w in enumerate(BASE_VARS):
            if pb.coords[wi] == 0:
                continue
            tw = [ctx_big.pow(pb.coords[wi], e) for e in spec.degree_vector]
            chart_fib = tuple(M(cc, t) for cc, t in zip(abc, tw))
            for vi, vf in enumerate(FIBER_VARS):
                fc = chart_fib[vi]
                if fc == 0:
                    continue
                if (w, vf) not in jacobians:
                    eq = chart_equation(spec, w, vf).equation.embed_to(ctx_big)
                    jacobians[w, vf] = eq, [partial_derivative(eq, nm) for nm in eq.vars]
                eq, partials = jacobians[w, vf]
                sb = ctx_big.inv(pb.coords[wi])
                sf = ctx_big.inv(fc)
                base_aff = [M(cc, sb) for k, cc in enumerate(pb.coords) if k != wi]
                fib_aff = [M(cc, sf) for k, cc in enumerate(chart_fib) if k != vi]
                pt = tuple(base_aff + fib_aff)
                assert eq.eval_bits(ctx_big, pt) == 0, "fiber point escaped the chart equation"
                grads = [d.eval_bits(ctx_big, pt) for d in partials]
                s = all(g == 0 for g in grads)
                if singular_here is None:
                    singular_here = s
                else:
                    assert singular_here == s, "charts disagree on singularity"
        if singular_here:
            sing.append(abc)
    return sing


class UnreducedParametrization(RuntimeError):
    """The reduced line of a double-line fiber could not be extracted."""


def fiber_lines(v, ctx, ftype):
    """Lines of the reduced fiber of the conic with section values v in ctx,
    as (field, w1, w2) with [s:t] -> s*w1 + t*w2.

    A double line gives its reduced line lambda . w = 0 with
    lambda = sqrt(s_aa, s_bb, s_cc); a cross gives the two lines through
    its radical n, whose directions are the roots of the splitting form
    (:func:`conic.cross_splitting_form`), over F_{q^2} when they are
    conjugate.
    """
    if ftype is FiberType.DOUBLE_LINE:
        lam = (ctx.sqrt(v[0]), ctx.sqrt(v[3]), ctx.sqrt(v[5]))  # s_aa, s_bb, s_cc
        if all(c == 0 for c in lam):
            raise UnreducedParametrization("double line with no reduced line")
        i = next(k for k, c in enumerate(lam) if c)
        inv = ctx.inv(lam[i])
        basis = []
        for j in range(3):
            if j == i:
                continue
            w = [0, 0, 0]
            w[j] = 1
            w[i] = ctx.mul(lam[j], inv)
            basis.append(tuple(w))
        return [(ctx, basis[0], basis[1])]
    n, (i, j), (qi, bij, qj) = cross_splitting_form(v)
    root_data = []
    if qi == 0:
        root_data.append((ctx, (1, 0)))
    for r in _dense.roots(ctx, _dense.trim([qj, bij, qi])):
        root_data.append((ctx, (r, 1)))
    if len(root_data) < 2:
        if 2 * ctx.k > 64:
            raise ExtensionBound("cross lines need a quadratic extension beyond the word bound")
        ext = field_new(2 * ctx.k)
        roots = _dense.roots(ext, [embed_bits(ctx, ext, c) for c in (qj, bij, qi)])
        root_data = [(ext, (r, 1)) for r in roots]
    assert len(root_data) == 2, "a cross fiber has exactly two line directions"
    lines = []
    for fld, (al, be) in root_data:
        w = [0, 0, 0]
        w[i] = al
        w[j] = be
        lines.append((fld, tuple(embed_bits(ctx, fld, c) for c in n), tuple(w)))
    return lines


def chart_smooth_along_fiber(spec, p):
    """Reference smooth_along_fiber on every base chart containing p.

    On each chart w with p_w != 0 the chart form and its five partials are
    built as polynomials, specialized at p and pulled back along each line
    of the reduced fiber by substitution, with the fiber coordinates twisted
    by p_w^(e_i); the gcd of the binary forms must be constant on every
    line of every chart.
    """
    ftype = classify_fiber(spec, p)
    if ftype not in (FiberType.CROSS, FiberType.DOUBLE_LINE):
        raise FiberNotDegenerate(f"fiber over {p!r} is {ftype}")
    lines = fiber_lines(section_values(spec, p), p.ctx, ftype)
    st = ("s", "t")
    for w_idx, w in enumerate(BASE_VARS):
        if p.coords[w_idx] == 0:
            continue
        scale = p.ctx.inv(p.coords[w_idx])
        base_vals = tuple(p.ctx.mul(c, scale) for k, c in enumerate(p.coords) if k != w_idx)
        # chart fiber coordinate a_i is a_i * p_w^(e_i) in the normalized picture
        twist = tuple(p.ctx.pow(p.coords[w_idx], e) for e in spec.degree_vector)
        form = fiber_form_on_chart(spec, w)
        restricted = [
            specialize(partial_derivative(form, v), p.ctx, base_vals) for v in form.vars
        ]
        for fld, w1_raw, w2_raw in lines:
            tw = tuple(embed_bits(p.ctx, fld, t) for t in twist)
            w1 = tuple(fld.mul(c, t) for c, t in zip(w1_raw, tw))
            w2 = tuple(fld.mul(c, t) for c, t in zip(w2_raw, tw))
            images = {
                name: Poly.from_terms(fld, st, [((1, 0), w1[i]), ((0, 1), w2[i])])
                for i, name in enumerate(FIBER_VARS)
            }
            binaries = [substitute(q.embed_to(fld), images, vars_out=st) for q in restricted]
            binaries = [b for b in binaries if not b.is_zero()]
            if not binaries:
                return False
            acc = binaries[0]
            for b in binaries[1:]:
                acc = binary_gcd(acc, b)
            if not acc.is_constant():
                return False
    return True


def brute_ordinary_node(eq, point, ctx):
    """Reference verdict for ordinary_node_check at a singular point.

    Expands f(p + u) with substitute, keeps its quadratic part Q and searches
    F_q^4 for a nonzero vector of the radical of the polar form
    B(u, w) = Q(u + w) + Q(u) + Q(w).  The matrix of B has entries in F_q,
    so a nonzero radical over the closure has a nonzero F_q-rational vector.
    """
    eq = eq.embed_to(ctx)
    shift = {
        name: Poly.var(ctx, eq.vars, name) + Poly.const(ctx, eq.vars, point[i])
        for i, name in enumerate(eq.vars)
    }
    local = substitute(eq, shift)
    quad = Poly.from_terms(ctx, eq.vars, [(m, c) for m, c in local.items() if sum(m) == 2])
    n = len(eq.vars)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    q_basis = [quad.eval_bits(ctx, e) for e in basis]
    for u in product(range(ctx.q), repeat=n):
        if not any(u):
            continue
        qu = quad.eval_bits(ctx, u)
        if all(
            quad.eval_bits(ctx, tuple(a ^ b for a, b in zip(u, e))) ^ qu ^ qe == 0
            for e, qe in zip(basis, q_basis)
        ):
            return False
    return True


def sylvester_resultant(f, g, name):
    """Reference resultant: fraction-free (Bareiss) elimination on the
    Sylvester matrix of Poly entries; row swaps cost no sign in char 2."""
    m, n = f.degree_in(name), g.degree_in(name)
    if m <= 0 and n <= 0:
        return Poly.const(f.ctx, f.vars, 1)
    if m <= 0:
        return f ** n
    if n <= 0:
        return g ** m
    i = f.vars.index(name)

    def coeffs(p):
        out = [Poly.zero(p.ctx, p.vars) for _ in range(p.degree_in(name) + 1)]
        for mono, c in p.items():
            out[mono[i]] = out[mono[i]] + Poly.from_terms(p.ctx, p.vars, [(mono[:i] + (0,) + mono[i + 1:], c)])
        return out

    size = m + n
    zero = Poly.zero(f.ctx, f.vars)
    rows = []
    for p, count in ((f, n), (g, m)):
        for r in range(count):
            row = [zero] * size
            for j, c in enumerate(reversed(coeffs(p))):
                row[r + j] = c
            rows.append(row)
    denom = Poly.const(f.ctx, f.vars, 1)
    for k in range(size - 1):
        pivot = next((r for r in range(k, size) if not rows[r][k].is_zero()), None)
        if pivot is None:
            return zero
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(k + 1, size):
            for j in range(k + 1, size):
                num = rows[k][k] * rows[r][j] + rows[r][k] * rows[k][j]
                rows[r][j] = exact_div(num, denom) if not num.is_zero() else zero
            rows[r][k] = zero
        denom = rows[k][k]
    return rows[size - 1][size - 1]


def abs_irred_every_extension(f):
    """Reference absolute irreducibility of a bivariate f: irreducible over
    F_{2^(k e)} for every e = 1 .. deg f (complete, since the absolute
    factors are defined over an extension of degree at most deg f)."""
    if sum(m for _, m in bivariate_factor(f)) != 1:
        return False
    for e in range(2, f.total_degree() + 1):
        if f.ctx.k * e > 64:
            raise UnluckySpecializationExhausted("beyond the word bound")
        if sum(m for _, m in bivariate_factor(f.embed_to(field_new(f.ctx.k * e)))) != 1:
            return False
    return True


class SerialField:
    """Reference F_{2^k} arithmetic: shift-and-add products reduced by the
    modulus, square-and-multiply powers, inverses as a^(q-2), square roots
    as k-1 squarings and the trace as a sum of k conjugates."""

    def __init__(self, k, modulus):
        self.k, self.q, self.modulus = k, 1 << k, modulus

    def mul(self, a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> self.k) & 1:
                a ^= self.modulus
        return r

    def sq(self, a):
        return self.mul(a, a)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.pow(a, self.q - 2)

    def sqrt(self, a):
        for _ in range(self.k - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a):
        acc = 0
        for _ in range(self.k):
            acc ^= a
            a = self.mul(a, a)
        return acc


def per_root_solve_system(polys, k_max=24):
    """geom.solve_system as it was before orbits were used: every root of
    each direction factor is found again in the final field, with its own
    z-gcd.  The oracle for the one-root, Frobenius-image solver."""
    nonzero = []
    for p in polys:
        if not p.is_zero() and p not in nonzero:
            nonzero.append(p)
    ctx = nonzero[0].ctx
    if any(p.is_constant() for p in nonzero):
        return AlgebraicPointSet((), EliminationClosure(()))
    common = gcd_homogeneous_many(nonzero)
    if not common.is_constant():
        raise PositiveDimensional(common)

    def direction_roots(form, fld):
        if form == Poly.var(form.ctx, form.vars, "y"):
            return [(1, 0)]
        dense = to_dense(dehomogenize(form, "y"), "x")
        return [(r, 1) for r in _dense.roots(fld, [embed_bits(ctx, fld, c) for c in dense])]

    bound = min(k_max, 64)
    eliminant = _direction_eliminant(nonzero, _resultant_forms(nonzero))
    degrees, points = [], []
    if not eliminant.is_constant():
        for form, _mult in form_factor(eliminant):
            d = form.total_degree()
            degrees.append(d)
            if form == Poly.var(ctx, form.vars, "y"):
                dir_field = ctx
            elif ctx.k * d > bound:
                raise ExtensionBound(f"direction degree {d}")
            else:
                dir_field = field_new(ctx.k * d)
            dir_roots = direction_roots(form, dir_field)
            h = _z_gcd(nonzero, *dir_roots[0], dir_field)
            if _dense.deg(h) < 1:
                continue
            e_star = 1
            for coeffs, _m in _dense.factor(dir_field, h)[1]:
                degrees.append(_dense.deg(coeffs))
                e_star = lcm(e_star, _dense.deg(coeffs))
            if ctx.k * d * e_star > bound:
                raise ExtensionBound(f"z-roots over a degree-{d} direction")
            final = field_new(ctx.k * d * e_star)
            for x1, y1 in direction_roots(form, final):
                hf = _z_gcd(nonzero, x1, y1, final)
                for z1 in _dense.roots(final, hf):
                    points.append(ProjPoint(final, (x1, y1, z1)))
    if all(g.eval_bits(ctx, (0, 0, 1)) == 0 for g in nonzero):
        points.append(ProjPoint(ctx, (0, 0, 1)))
    points.sort(key=lambda p: p.sort_key())
    return AlgebraicPointSet(tuple(points), EliminationClosure(tuple(sorted(degrees))))


def per_point_nodes_and_smoothness(spec, cert):
    """The H3 node entries and H5 smoothness entries of a certificate,
    decided again at every point it lists, as _certify did before it
    decided them once per Frobenius orbit: a section jet, fiber type and
    node check at each point of each component pair's meeting, and
    smooth_along_fiber at each point of a finite Sigma.

    Returns the ``nodes`` list of each ``intersections`` entry (None for a
    pair recorded as an error) and the ``double_line_smoothness`` list.
    Points are read back from their serialization, which names their field.
    """
    def point(text):
        return ProjPoint.parse(":".join(text))

    nodes = []
    for entry in cert.intersections:
        if "points" not in entry:
            nodes.append(None)
            continue
        out = []
        for text in entry["points"]:
            jet = section_jet(spec, point(text))
            if fiber_type(jet.value, jet.point.ctx) is FiberType.CROSS:
                chart, n, ok = cross_node(jet)
                out.append({"point": text, "chart": list(chart),
                            "fiber_singular_point": n.serialize(), "ordinary_node": ok})
        nodes.append(out)
    smoothness = []
    if "points" in cert.sigma:  # a finite Sigma, recorded once H2 to H5 run
        smoothness = [{"point": text, "smooth": smooth_along_fiber(spec, point(text))}
                      for text in cert.sigma["points"]]
    return nodes, smoothness


def per_point_first_tangency(c1, c2, points):
    """The first of the points, in their order, where the gradient of c1 or
    of c2 vanishes or the two are dependent, or None: the per-point walk
    that geom.intersection_points ran before it decided transversality once
    per Frobenius orbit.  The gradients come from partial derivatives
    evaluated at each point, the dependence from the three 2x2 minors."""
    grads = [[partial_derivative(c, v) for v in BASE_VARS] for c in (c1, c2)]
    for p in points:
        g1, g2 = ([d.eval_bits(p.ctx, p.coords) for d in ds] for ds in grads)
        minors = [p.ctx.mul(g1[i], g2[j]) ^ p.ctx.mul(g1[j], g2[i]) for i, j in combinations(range(3), 2)]
        if not any(g1) or not any(g2) or not any(minors):
            return p
    return None


def gcd_first_solve_system(polys, k_max=24):
    """geom.solve_system as it was before finiteness was read from the
    eliminant: the gcd of all inputs is computed first, a nonconstant gcd
    raises PositiveDimensional, and the eliminant's irreducible factors are
    then solved (geom's per-form solve is that solve)."""
    nonzero = []
    for p in polys:
        if not p.is_zero() and p not in nonzero:
            nonzero.append(p)
    if any(p.is_constant() for p in nonzero):
        return AlgebraicPointSet((), EliminationClosure(()))
    common = gcd_homogeneous_many(nonzero)
    if not common.is_constant():
        raise PositiveDimensional(common)
    eliminant = _direction_eliminant(nonzero, _resultant_forms(nonzero))
    forms = [] if eliminant.is_constant() else [f for f, _ in form_factor(eliminant)]
    return _solve_on_directions(nonzero, forms, k_max)


def list_add(a, b):
    """Sum of coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return _dense.trim([x ^ (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def list_inv_mod(ctx, a, m):
    """Inverse of a modulo m by the extended Euclidean algorithm on lists."""
    r0, r1 = m, naive_divmod(ctx, a, m)[1]
    s0, s1 = [], [1]
    while r1:
        q, r2 = naive_divmod(ctx, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, list_add(s0, naive_mul(ctx, q, s1))
    assert len(r0) == 1, "not invertible"
    inv = ctx.inv(r0[0])
    return [ctx.mul(c, inv) for c in naive_divmod(ctx, s0, m)[1]]


def list_gcd(ctx, a, b):
    """Monic gcd of coefficient lists by Euclid's algorithm; [] for two zeros."""
    while b:
        a, b = b, naive_divmod(ctx, a, b)[1]
    return [ctx.mul(c, ctx.inv(a[-1])) for c in a] if a else []


def list_equal_degree(ctx, f, d, rng):
    """The equal-degree split of monic squarefree f on lists, drawing as
    _dense does: deg f coefficients per try, a try of degree < 1 skipped,
    and the gcd with the trace kept when proper, its half first."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        u = _dense.trim([rng.randrange(ctx.q) for _ in range(n)])
        if len(u) < 2:
            continue
        t = p = u
        for _ in range(ctx.k * d - 1):
            p = naive_divmod(ctx, naive_mul(ctx, p, p), f)[1]
            t = list_add(t, p)
        g = list_gcd(ctx, f, t)
        if 1 < len(g) <= n:
            rest = naive_divmod(ctx, f, g)[0]
            return list_equal_degree(ctx, g, d, rng) + list_equal_degree(ctx, rest, d, rng)


def list_compose(ctx, f, g):
    """f(g(t)) by Horner's rule on lists."""
    acc = []
    for c in reversed(f):
        acc = list_add(naive_mul(ctx, acc, g), [c])
    return acc


def list_series_inverse(ctx, l, prec):
    """Inverse of l mod t^prec, one coefficient at a time; l[0] != 0."""
    inv0 = ctx.inv(l[0])
    out = [inv0] + [0] * (prec - 1)
    for i in range(1, prec):
        acc = 0
        for j in range(1, min(i, len(l) - 1) + 1):
            acc ^= ctx.mul(l[j], out[i - j])
        out[i] = ctx.mul(inv0, acc)
    return _dense.trim(out)


def list_sp_mul(ctx, a, b, prec):
    """Product of column polynomials of lists, each column truncated below t^prec."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = list_add(out[i + j], naive_mul(ctx, ca, cb)[:prec])
    return _dense.trim([_dense.trim(c[:prec]) for c in out])


def sp_mul_hensel_lift(ctx, f_monic_cols, base_factors, prec):
    """The Hensel lift as it was before the digit-wise product, on lists: at
    each step the whole product of the lifted factors, truncated below
    t^(j+1), is rebuilt to read the error digit."""
    s = len(base_factors)
    bezout = []
    for i in range(s):
        g = [1]
        for j in range(s):
            if j != i:
                g = naive_mul(ctx, g, base_factors[j])
        bezout.append(list_inv_mod(ctx, g, base_factors[i]))
    lifted = [[[c] if c else [] for c in g] for g in base_factors]
    for j in range(1, prec):
        prod = lifted[0]
        for i in range(1, s):
            prod = list_sp_mul(ctx, prod, lifted[i], j + 1)
        err = [list_add(f_monic_cols[idx] if idx < len(f_monic_cols) else [],
                        prod[idx] if idx < len(prod) else [])
               for idx in range(max(len(f_monic_cols), len(prod)))]
        e = _dense.trim([col[j] if len(col) > j else 0 for col in err])
        if not e:
            continue
        for i in range(s):
            delta = naive_divmod(ctx, naive_mul(ctx, e, bezout[i]), base_factors[i])[1]
            cols = lifted[i]
            for idx, c in enumerate(delta):
                if c:
                    col = cols[idx]
                    if len(col) <= j:
                        col.extend([0] * (j + 1 - len(col)))
                    col[j] ^= c
                    cols[idx] = _dense.trim(col)
    return lifted


def list_recombination_candidate(ctx, factors, target, r, prec):
    """The recombination candidate on lists: the product of the lifted
    factors times target's leading column shifted to t + r, each column
    truncated below t^prec; None when a column's degree exceeds target's,
    else shifted back to t - r and divided by the gcd of its columns."""
    prod = factors[0]
    for g in factors[1:]:
        prod = list_sp_mul(ctx, prod, g, prec)
    lead = list_compose(ctx, target[-1], [r, 1])
    scaled = [_dense.trim(naive_mul(ctx, c, lead)[:prec]) for c in prod]
    if max(len(c) for c in scaled) > max(len(c) for c in target):
        return None
    cols = [list_compose(ctx, c, [r, 1]) for c in scaled]
    content = []
    for c in cols:
        content = list_gcd(ctx, content, c)
    return [naive_divmod(ctx, c, content)[0] for c in cols]


def unpruned_factor_squarefree_primitive(f, xn, yn, trials=None):
    """factor._factor_squarefree_primitive as it was before the degree-bounded
    recombination, on lists: every subset of sizes 1 .. |pool| - 1 of the
    lifted factors goes through the shift back, col_primitive and exact_div,
    and every specialization is shifted, r = 0 included.  ``trials``, a
    list, gains one entry per exact_div call."""
    ctx = f.ctx
    ctx_e, fe, cols, r, u = _find_specialization(f, xn, yn)
    base_factors = [g for g, _ in _dense.factor(ctx_e, u)[1]]
    if len(base_factors) == 1:
        return [f.monic()]
    prec = 2 * fe.degree_in(yn) + 1
    shift = [r, 1]
    tcols = [list_compose(ctx_e, c, shift) for c in cols]
    linv = list_series_inverse(ctx_e, tcols[-1], prec)
    monic_cols = [_dense.trim(naive_mul(ctx_e, c, linv)[:prec]) for c in tcols]
    pool = sp_mul_hensel_lift(ctx_e, monic_cols, base_factors, prec)

    remaining = fe
    found = []
    while pool:
        if remaining.is_constant():
            break
        lshift = list_compose(ctx_e, to_columns(remaining, xn, yn)[-1], shift)
        extracted = False
        for size in range(1, len(pool)):
            for combo in combinations(range(len(pool)), size):
                prod = pool[combo[0]]
                for i in combo[1:]:
                    prod = list_sp_mul(ctx_e, prod, pool[i], prec)
                cand_cols = [
                    list_compose(ctx_e, _dense.trim(naive_mul(ctx_e, c, lshift)[:prec]), shift)
                    for c in prod
                ]
                _, cand_cols = _dense.col_primitive(ctx_e, cand_cols)
                cand = from_columns(ctx_e, fe.vars, cand_cols, xn, yn)
                if cand.is_constant():
                    continue
                if trials is not None:
                    trials.append(size)
                try:
                    quo = exact_div(remaining, cand)
                except NotDivisible:
                    continue
                found.append(cand.monic())
                remaining = quo
                pool = [p for i, p in enumerate(pool) if i not in combo]
                extracted = True
                break
            if extracted:
                break
        if not extracted:
            found.append(remaining.monic())
            remaining = Poly.const(ctx_e, fe.vars, 1)
            pool = []
    if not remaining.is_constant():
        found.append(remaining.monic())
    if ctx_e is ctx:
        return found
    return _merge_frobenius_orbits(ctx, ctx_e, found)
