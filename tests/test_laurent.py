from fractions import Fraction

import pytest

from tricross import HalfLaurent, IntLaurent, Laurent2, breadth, is_monic


def test_half_laurent_arithmetic():
    a = HalfLaurent({2: 1, -1: 3})     # t + 3 t^-1/2
    b = HalfLaurent({0: -2, 2: 5})
    assert (a + b) - b == a
    assert a * HalfLaurent.one() == a
    assert a * HalfLaurent() == HalfLaurent()
    assert (a * b).coeffs == ((b * a).coeffs)
    assert -(-a) == a


def test_half_laurent_zero_coefficients_dropped():
    assert HalfLaurent({3: 0}).is_zero()
    assert (HalfLaurent({1: 2}) - HalfLaurent({1: 2})).is_zero()


def test_parse_str_roundtrip():
    for p in (HalfLaurent({3: 2, -1: -5, 0: 7}), HalfLaurent.one(),
              HalfLaurent(), HalfLaurent({1: 1})):
        assert HalfLaurent.parse(str(p)) == p


def test_invert_t_involution_and_eval():
    p = HalfLaurent({4: 3, -2: 1, 0: -2})  # 3 t^2 + t^-1 - 2
    assert p.invert_t().invert_t() == p
    s = Fraction(3, 2)  # evaluation variable is s = t^(1/2)
    assert p.eval_fraction(s) == 3 * s**4 + s**-2 - 2


def test_pow_matches_repeated_multiplication():
    p = HalfLaurent({1: 1, -1: -1})
    q = HalfLaurent.one()
    for _ in range(5):
        q = q * p
    assert p**5 == q
    assert p**0 == HalfLaurent.one()


def test_int_laurent_breadth_and_monic():
    d = IntLaurent.from_int_coeffs({-1: 2, 0: -3, 1: 2})   # 5_2
    assert breadth(d) == 2
    assert not is_monic(d)
    m = IntLaurent.from_int_coeffs({-1: 1, 0: -1, 1: 1})   # 3_1
    assert is_monic(m)
    assert breadth(IntLaurent.from_int_coeffs({0: 1})) == 0


def test_int_laurent_keeps_type_under_arithmetic():
    a = IntLaurent.from_int_coeffs({0: 1, 1: 1})
    assert isinstance(a + a, IntLaurent)
    assert isinstance(a * a, IntLaurent)
    for value in (a - a, -a, a ** 2, a ** 0, a.scale(3, 2), a.scale(0)):
        assert isinstance(value, IntLaurent)
    assert (a ** 2).int_coeffs() == {0: 1, 1: 2, 2: 1}
    assert a.scale(3, 2).int_coeffs() == {1: 3, 2: 3}


def test_laurent2_ring_ops():
    a = Laurent2({(1, 0): 1, (0, 1): -2})
    b = Laurent2({(-1, 2): 3})
    assert (a + b) - b == a
    assert a * Laurent2.one() == a
    assert (a * b) == (b * a)
    assert a**3 == a * a * a
    assert a.scale(2, 1, -1) == Laurent2({(2, -1): 2, (1, 0): -4})


def test_laurent2_mirror_involution():
    a = Laurent2({(2, 1): 1, (-1, 3): -4, (0, 0): 2})
    assert a.mirror().mirror() == a


def test_laurent2_substitute_jones_on_constant():
    assert Laurent2.one().substitute_jones() == HalfLaurent.one()


@pytest.mark.parametrize("k", range(7))
def test_laurent2_pow_matches_repeated_multiplication(k):
    p = Laurent2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})
    q = Laurent2.one()
    for _ in range(k):
        q = q * p
    assert p**k == q


def test_laurent2_keeps_type_under_every_operation():
    a = Laurent2({(1, 0): 1, (0, 1): -2})
    for value in (a + a, a - a, -a, a * a, a ** 3, a ** 0, a.scale(3, 1, 2),
                  a.scale(0), a.mirror(), a.invert_a(), Laurent2(), Laurent2.one()):
        assert type(value) is Laurent2
    assert type(a.substitute_jones()) is HalfLaurent


def test_int_laurent_equals_half_laurent_with_the_same_coefficients():
    a = IntLaurent.from_int_coeffs({-1: 1, 0: -1, 1: 1})
    b = HalfLaurent({-2: 1, 0: -1, 2: 1})
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert IntLaurent() == HalfLaurent()


def test_rings_never_compare_equal():
    assert HalfLaurent() != Laurent2()
    assert Laurent2() != HalfLaurent()
    assert HalfLaurent.one() != Laurent2.one()
    assert IntLaurent() != Laurent2()


def test_construction_and_power_errors():
    with pytest.raises(TypeError):
        HalfLaurent({0.5: 1})
    with pytest.raises(TypeError):
        HalfLaurent({1: 1.0})
    with pytest.raises(ValueError):
        IntLaurent({1: 1})
    with pytest.raises(ValueError):
        IntLaurent.one().scale(1, 1)  # t^(1/2) is not an integer power
    for p in (HalfLaurent.one(), IntLaurent.one(), Laurent2.one()):
        with pytest.raises(ValueError):
            p ** -1
    with pytest.raises(ValueError):
        HalfLaurent.parse("1*t^1/3")
    with pytest.raises(ValueError):
        Laurent2.parse("1*a^1")
