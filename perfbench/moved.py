"""Seeded projective changes of base coordinates, applied to spec JSON.

The ``moved`` workload feeds the verifier corpus specs after a random
invertible change of the base coordinates (x, y, z).  This module does that
arithmetic itself and never imports ``conic2``, so a change to the program's
polynomial layer cannot change the inputs the program is measured on.

Only F_2 and F_4 occur in the corpus.  Both have a unique defining modulus
(F_4 = F_2[j] / (j^2 + j + 1)), so the literals written here mean the same
thing to every version of the program.
"""

from __future__ import annotations

import json
import random
import re

VARS = ("x", "y", "z")
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Passes after the warm-up before a moved spec must repeat: the 84-spec
# orbit of ex1 (= ex2) holds the identity pass's one spec and 41 more pairs.
FRESH_PASSES = 41
_MODULUS = {1: 0b11, 2: 0b111}
_FACTOR_RE = re.compile(r"^(?:(?P<var>[xyz])|j|F\d+:(?P<hex>[0-9A-Fa-f]+)|(?P<int>[01]))(?:\^(?P<exp>\d+))?$")


def gf_mul(k: int, a: int, b: int) -> int:
    m, r = _MODULUS[k], 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> k) & 1:
            a ^= m
    return r


def gf_pow(k: int, a: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = gf_mul(k, r, a)
    return r


def parse(text: str, k: int) -> dict:
    """Parse the program's polynomial grammar (sums of ``*``-joined factors)
    into {exponent tuple: coefficient bits}."""
    poly: dict = {}
    for term in text.split("+"):
        mono, coeff = [0, 0, 0], 1
        for factor in term.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if m is None:
                raise ValueError(f"unsupported factor {factor!r} in {text!r}")
            exp = int(m["exp"] or 1)
            if m["var"]:
                mono[VARS.index(m["var"])] += exp
            elif m["hex"]:
                coeff = gf_mul(k, coeff, gf_pow(k, int(m["hex"], 16), exp))
            elif m["int"]:
                coeff = gf_mul(k, coeff, int(m["int"]))
            else:  # j, the generator of F_4
                coeff = gf_mul(k, coeff, gf_pow(k, 2, exp))
        _add_term(poly, tuple(mono), coeff)
    return poly


def _add_term(poly: dict, mono: tuple, coeff: int) -> None:
    cur = poly.get(mono, 0) ^ coeff
    if cur:
        poly[mono] = cur
    else:
        poly.pop(mono, None)


def _mul(k: int, p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            _add_term(out, (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2]), gf_mul(k, ca, cb))
    return out


def substitute_linear(poly: dict, matrix: tuple, k: int) -> dict:
    """poly(A v) for the 3x3 matrix A given row by row."""
    forms = [{mono: c for mono, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if c}
             for row in matrix]
    powers: dict = {}

    def power(i: int, e: int) -> dict:
        if (i, e) not in powers:
            powers[i, e] = {(0, 0, 0): 1} if e == 0 else _mul(k, power(i, e - 1), forms[i])
        return powers[i, e]

    out: dict = {}
    for mono, coeff in poly.items():
        term = {(0, 0, 0): coeff}
        for i, e in enumerate(mono):
            term = _mul(k, term, power(i, e))
        for m, c in term.items():
            _add_term(out, m, c)
    return out


def render(poly: dict, k: int) -> str:
    """Graded-lex descending text in the program's input grammar."""
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, key=lambda m: (sum(m), m), reverse=True):
        coeff = poly[mono]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, mono) if e]
        if coeff != 1 or not factors:
            factors.insert(0, "1" if coeff == 1 else f"F{1 << k}:{coeff:X}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def det(matrix: tuple, k: int) -> int:
    (a, b, c), (d, e, f), (g, h, i) = matrix
    m = lambda u, v: gf_mul(k, u, v)  # noqa: E731
    return m(a, m(e, i) ^ m(f, h)) ^ m(b, m(d, i) ^ m(f, g)) ^ m(c, m(d, h) ^ m(e, g))


def gl3_order(k: int) -> int:
    q3 = 1 << (3 * k)
    return (q3 - 1) * (q3 - (1 << k)) * (q3 - (1 << (2 * k)))


def move_spec(spec: dict, matrix: tuple) -> dict:
    k = int(spec["field_degree"])
    return {
        "field_degree": spec["field_degree"],
        "degree_vector": list(spec["degree_vector"]),
        "value_degree": spec["value_degree"],
        "sections": {key: render(substitute_linear(parse(text, k), matrix, k), k)
                     for key, text in sorted(spec["sections"].items())},
    }


class MovedStream:
    """The seeded sequence of moved corpus passes.

    The first pass, the warm-up op, uses the identity, so set-up work does
    not depend on the seed.  Each later pass draws one invertible matrix per
    source spec, over that spec's own field, whose moved spec has not been
    produced yet.  Sources with identical content share one pool.  The orbit
    of ex1 (= ex2) over F_2 has 84 specs, so after the warm-up only
    ``FRESH_PASSES`` passes are new.  A pool is never restarted: drawing from
    one in which every matrix of GL_3 has been tried raises, because a
    repeated spec could hit the program's caches and the pass would no
    longer be cold.
    """

    def __init__(self, seed, sources: list) -> None:
        self._rng = random.Random(f"moved:{seed}")
        self._sources = sources  # list of (name, spec dict)
        self._pools: dict = {}  # source content -> (moved specs, matrices tried)
        self._passes = 0

    def next_pass(self) -> list:
        out = []
        for name, spec in self._sources:
            pool = self._pools.setdefault(json.dumps(spec, sort_keys=True), (set(), set()))
            matrix = IDENTITY if not self._passes else self._draw(spec, pool)
            data = move_spec(spec, matrix)
            pool[0].add(json.dumps(data, sort_keys=True))
            pool[1].add(matrix)
            out.append((name, matrix, data))
        self._passes += 1
        return out

    def _draw(self, spec: dict, pool: tuple) -> tuple:
        k = int(spec["field_degree"])
        specs, tried = pool
        while True:
            if len(tried) == gl3_order(k):
                raise RuntimeError(f"every matrix of GL_3(F_{1 << k}) has been tried; "
                                   f"pass {self._passes} would repeat a moved spec")
            flat = [self._rng.randrange(1 << k) for _ in range(9)]
            matrix = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
            if matrix in tried or not det(matrix, k):
                continue
            tried.add(matrix)
            if json.dumps(move_spec(spec, matrix), sort_keys=True) not in specs:
                return matrix
