"""Field layer: fixed moduli, exact arithmetic, Frobenius, embeddings."""

import random
import time

import pytest

from conic2.gf2k import (
    _CTX_TOKEN,
    _MODULI,
    _TABLE_MAX_K,
    ContextMismatch,
    DivisionByZero,
    FieldCtx,
    NoEmbedding,
    UnsupportedDegree,
    elem_parse,
    elem_str,
    embed,
    embed_bits,
    field_new,
    frobenius_sqrt,
    section_bits,
)

from _helpers import SerialField


def test_prime_field():
    F2 = field_new(1)
    assert [e for e in F2.elements()] == [0, 1]
    assert F2.mul(1, 1) == 1
    assert F2.one() + F2.one() == F2.zero()


def test_degree_two_modulus_and_j():
    F4 = field_new(2)
    assert F4.modulus == 0b111  # t^2 + t + 1
    j = F4.gen()
    assert j * j == j + F4.one()  # j^2 = j + 1
    assert j * j + j + F4.one() == F4.zero()


def test_degree_four_group_order():
    F16 = field_new(4)
    assert F16.modulus == 0b10011  # t^4 + t + 1
    g = F16.gen()
    # multiplicative group has order 15: exhaustive power walk
    seen = set()
    acc = F16.one()
    for _ in range(15):
        acc = acc * g
        seen.add(acc.bits)
    assert acc == F16.one()
    assert len(seen) == 15


def test_inverse_and_pow_in_f4():
    F4 = field_new(2)
    j = F4.gen()
    assert j.inv() == j + F4.one()  # j * (j+1) = j^2 + j = 1
    assert j * j.inv() == F4.one()
    assert j ** 3 == F4.one()


def test_generator_order_f16_exhaustive_multiplication():
    F16 = field_new(4)
    g = F16.gen()
    acc = g
    for _ in range(14):
        acc = acc * g
    assert acc == F16.one()


def test_division_by_zero():
    F4 = field_new(2)
    with pytest.raises(DivisionByZero):
        F4.zero().inv()
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


def test_context_mismatch_is_hard_error():
    a = field_new(2).gen()
    b = field_new(4).gen()
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b


def test_unsupported_degrees():
    for k in (0, -1, 65, 100):
        with pytest.raises(UnsupportedDegree):
            field_new(k)


def test_contexts_are_interned():
    assert field_new(7) is field_new(7)


def test_frobenius_sqrt():
    F4 = field_new(2)
    j = F4.gen()
    assert frobenius_sqrt(F4.zero()) == F4.zero()
    assert frobenius_sqrt(j) == j + F4.one()  # (j+1)^2 = j^2+1 = j
    F16 = field_new(4)
    for bits in F16.elements():
        a = F16.elem(bits)
        r = frobenius_sqrt(a)
        assert r * r == a


def test_field_axioms_exhaustive_small_degrees():
    for k in (1, 2, 3, 4):
        F = field_new(k)
        elems = list(F.elements())
        for a in elems:
            for b in elems:
                assert F.mul(a, b) == F.mul(b, a)
                if a:
                    assert F.mul(a, F.inv(a)) == 1
                for c in elems:
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)


def test_frobenius_additivity():
    for k in (1, 2, 3, 4):
        F = field_new(k)
        for a in F.elements():
            for b in F.elements():
                assert F.sq(a ^ b) == F.sq(a) ^ F.sq(b)
    rng = random.Random(1)
    F = field_new(24)
    for _ in range(200):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.sq(a ^ b) == F.sq(a) ^ F.sq(b)


def test_embed_examples():
    F2, F4, F16 = field_new(1), field_new(2), field_new(4)
    assert embed(F2.one(), F4) == F4.one()
    j16 = embed(F4.gen(), F16)
    assert j16 ** 3 == F16.one() and j16 != F16.one()
    with pytest.raises(NoEmbedding):
        embed(F4.gen(), field_new(3))


def test_embed_is_injective_ring_hom():
    rng = random.Random(2)
    F4, F12 = field_new(2), field_new(12)
    images = {embed_bits(F4, F12, a) for a in F4.elements()}
    assert len(images) == 4
    for _ in range(100):
        a, b = rng.randrange(4), rng.randrange(4)
        assert embed_bits(F4, F12, a ^ b) == embed_bits(F4, F12, a) ^ embed_bits(F4, F12, b)
        assert embed_bits(F4, F12, F4.mul(a, b)) == F12.mul(
            embed_bits(F4, F12, a), embed_bits(F4, F12, b)
        )


def test_section_inverts_embedding():
    F4, F8, F16 = field_new(2), field_new(3), field_new(4)
    for a in F4.elements():
        assert section_bits(F4, F16, embed_bits(F4, F16, a)) == a
    # an element outside the image has no preimage
    outside = [w for w in F16.elements() if section_bits(F4, F16, w) is None]
    assert len(outside) == 12
    del F8


def test_trace_is_additive_onto_f2():
    F8 = field_new(3)
    values = {F8.trace(a) for a in F8.elements()}
    assert values == {0, 1}
    for a in F8.elements():
        for b in F8.elements():
            assert F8.trace(a ^ b) == F8.trace(a) ^ F8.trace(b)


def test_serialization_round_trip():
    F4 = field_new(2)
    j = F4.gen()
    assert elem_str(j) == "F4:2"
    assert elem_parse("F4:2") == j
    assert elem_parse("j") == j
    assert elem_parse("1", F4) == F4.one()
    F64 = field_new(6)
    for bits in (0, 1, 5, 63):
        e = F64.elem(bits)
        assert elem_parse(elem_str(e)) == e


def test_moduli_have_no_small_factors():
    # every entry has degree k and passes the field's own irreducibility
    # check; small degrees are also spot-checked by trial division
    from conic2.gf2k import _MODULI, _gf2x_mod

    assert sorted(_MODULI) == list(range(1, 65))
    for k, m in _MODULI.items():
        assert m.bit_length() - 1 == k
        assert field_new(k).modulus == m
    for k in (2, 3, 4, 5, 6, 7, 8, 12, 16):
        m = _MODULI[k]
        for d in range(1, k // 2 + 1):
            for tail in range(1 << d):
                g = (1 << d) | tail
                assert _gf2x_mod(m, g) != 0


def test_moduli_are_irreducible_and_follow_the_table_rule():
    # independent oracle: sympy's irreducibility test over GF(2)
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    from conic2.gf2k import _MODULI

    def irreducible(m):
        coeffs = [(m >> i) & 1 for i in range(m.bit_length() - 1, -1, -1)]
        return galoistools.gf_irreducible_p(coeffs, 2, ZZ)

    kept = {26, 28, 30, 33, 36, 37, 49}  # entries that are not the smallest
    for k, m in _MODULI.items():
        assert irreducible(m), k
        if k > 1 and k not in kept:
            # numerically smallest: no smaller odd polynomial of degree k is
            # irreducible (even ones are divisible by t)
            assert not any(irreducible(c) for c in range((1 << k) | 1, m, 2)), k


# -- the table-driven kernel against the bit-serial oracle ----------------------


def _pow_exponents(q):
    return (-2, -1, 0, 1, 2, q - 2, q - 1, q, 3 * q)


def _assert_matches_serial(F, pairs, elems):
    ref = SerialField(F.k, F.modulus)
    for a, b in pairs:
        assert F.mul(a, b) == ref.mul(a, b), (F.k, a, b)
    for a in elems:
        assert F.sq(a) == ref.sq(a), (F.k, a)
        assert F.sqrt(a) == ref.sqrt(a), (F.k, a)
        assert F.trace(a) == ref.trace(a), (F.k, a)
        if a:
            assert F.inv(a) == ref.inv(a), (F.k, a)
        for e in _pow_exponents(F.q):
            if a == 0 and e < 0:
                with pytest.raises(DivisionByZero):
                    F.pow(a, e)
                with pytest.raises(DivisionByZero):
                    ref.pow(a, e)
            else:
                assert F.pow(a, e) == ref.pow(a, e), (F.k, a, e)


@pytest.mark.parametrize("k", range(1, 9))
def test_table_kernel_matches_serial_oracle_exhaustively(k):
    F = field_new(k)
    elems = range(F.q)
    _assert_matches_serial(F, [(a, b) for a in elems for b in elems], elems)
    assert F._log is not None


@pytest.mark.parametrize("k", range(9, _TABLE_MAX_K + 1))
def test_table_kernel_matches_serial_oracle_on_samples(k):
    F = field_new(k)
    rng = random.Random(k)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]
    elems = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(200)]
    _assert_matches_serial(F, pairs, elems)
    assert F._log is not None


@pytest.mark.parametrize("k", [13, 16])
def test_fields_above_the_table_cap_stay_serial(k):
    F = field_new(k)
    rng = random.Random(k)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(300)]
    elems = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(20)]
    _assert_matches_serial(F, pairs, elems)
    assert F._log is None and F._exp is None


def test_tables_are_built_lazily_and_cover_the_group():
    for k in range(1, 17):
        F = FieldCtx(k, _CTX_TOKEN)  # construction ran Rabin's test
        assert F._log is None and F._exp is None, k
        F.mul(1, 1)
        if k > _TABLE_MAX_K:
            assert F._log is None, k
            continue
        n = F.q - 1
        assert len(F._exp) == 2 * n and F._exp[:n] == F._exp[n:], k
        assert sorted(F._exp[:n]) == list(range(1, F.q)), k
        assert all(F._log[F._exp[i]] == i for i in range(n)), k


def test_reducible_modulus_raises_instead_of_hanging(monkeypatch):
    # (t^2 + t + 1)^2: Rabin's test, on the serial path, rejects it
    monkeypatch.setitem(_MODULI, 4, 0b10101)
    t0 = time.perf_counter()
    with pytest.raises(AssertionError):
        FieldCtx(4, _CTX_TOKEN)
    # the table build checks that one power cycle covers F_q^*, so a
    # modulus that slipped past construction raises too
    F = FieldCtx(5, _CTX_TOKEN)
    F.modulus = 0b100001  # t^5 + 1 = (t + 1)(t^4 + t^3 + t^2 + t + 1)
    with pytest.raises(AssertionError):
        F.mul(2, 3)
    assert F._log is None
    assert time.perf_counter() - t0 < 5
