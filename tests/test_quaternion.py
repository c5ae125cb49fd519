import math

import pytest
from hypothesis import given

from conftest import assert_close, quaternions
from qint import I, J, K, ONE, Quaternion, ZERO, ZeroDivisorError


def test_hamilton_table():
    assert I * I == Quaternion(-1, 0, 0, 0)
    assert J * J == Quaternion(-1, 0, 0, 0)
    assert K * K == Quaternion(-1, 0, 0, 0)
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    assert I * J * K == Quaternion(-1, 0, 0, 0)


def test_scalar_mul_both_sides():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert -1 * q == -q


@given(quaternions(), quaternions(), quaternions())
def test_mul_associative(a, b, c):
    assert_close((a * b) * c, a * (b * c), 1e-9)


@given(quaternions(), quaternions(), quaternions())
def test_mul_distributes(a, b, c):
    assert_close(a * (b + c), a * b + a * c, 1e-9)


@given(quaternions(), quaternions())
def test_conj_reverses_products(a, b):
    assert_close((a * b).conj(), b.conj() * a.conj(), 1e-9)


@given(quaternions(), quaternions())
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-9)


@given(quaternions().filter(lambda q: q.norm_sq() > 1e-6))
def test_inverse(q):
    assert_close(q * q.inverse(), ONE, 1e-9)
    assert_close(q.inverse() * q, ONE, 1e-9)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisorError):
        ZERO.inverse()


def test_conj_and_norms():
    q = Quaternion(1, 2, 3, 4)
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert q.norm_sq() == 30
    assert q.norm() == pytest.approx(math.sqrt(30))
    assert q.imag_norm() == pytest.approx(math.sqrt(29))
    # the squared norm overflows; the norm does not
    assert Quaternion(1e200, 0, 0, 0).norm() == 1e200
    # x * conj(x) is the squared norm, as a real quaternion
    assert_close(q * q.conj(), Quaternion(30, 0, 0, 0), 1e-12)


def test_list_round_trip():
    q = Quaternion(1.5, -2.25, 0.0, 1e-9)
    assert Quaternion.from_list(q.to_list()) == q


@pytest.mark.parametrize("bad", [
    [1, 2, 3], [1, 2, 3, 4, 5], "nope", [1, 2, 3, "x"],
    [1, 2, 3, float("nan")], [1, 2, 3, float("inf")], [1, 2, 3, True], None,
])
def test_from_list_rejects(bad):
    with pytest.raises(ValueError):
        Quaternion.from_list(bad)
