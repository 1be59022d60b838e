"""CompensatedSum.extend against the one-step-per-term reference sum."""

import random

import pytest

from lerchint.compsum import EPS, CompensatedSum
from lerchint.errors import ConvergenceError
from oracles import PerTermSum


def _state(acc) -> tuple:
    if isinstance(acc, PerTermSum):
        return acc.sr, acc.si, acc.cr, acc.ci, acc.abs_total
    return acc._sr, acc._si, acc._cr, acc._ci, acc._abs


def _cancelling(rng: random.Random, n: int) -> list:
    # large terms that cancel in pairs around small ones: compensation carries the result
    out = []
    for _ in range(n):
        big = complex(rng.uniform(1e10, 1e16), -rng.uniform(1e10, 1e16))
        out += [big, complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), -big]
    return out


def _mixed_magnitudes(rng: random.Random, n: int) -> list:
    return [complex(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 300),
                    rng.choice((-1, 1)) * 10.0 ** rng.uniform(-20, 20))
            for _ in range(n)]


@pytest.mark.parametrize("make", [_cancelling, _mixed_magnitudes])
@pytest.mark.parametrize("head", [0, 1, 17])
def test_extend_matches_per_term_add_bit_for_bit(make, head):
    rng = random.Random(11)
    terms = make(rng, 400)
    ref = PerTermSum()
    for t in terms:
        ref.add(t)
    acc = CompensatedSum()
    for t in terms[:head]:  # a non-empty sum before the first extend
        acc.add(t)
    acc.extend(iter(terms[head:200]))
    acc.extend(())
    acc.extend(terms[200:])
    assert _state(acc) == _state(ref)
    assert acc.value == ref.value and acc.abs_total == ref.abs_total


def test_compensation_beats_plain_addition():
    # 1 + 1e-16 added 1e4 times: plain left-to-right summation loses every small term
    acc = CompensatedSum()
    acc.extend([1.0 + 0j] + [1e-16 + 0j] * 10_000)
    assert abs(acc.value - (1.0 + 1e-12)) <= 2.3e-16
    assert acc.abs_total == 1.0  # the plain sum of magnitudes is left uncompensated


def test_floor_is_four_eps_of_the_magnitudes_plus_extra():
    acc = CompensatedSum()
    acc.extend([3.0 + 4.0j, -1.0 + 0j])
    assert acc.floor() == 4.0 * EPS * 6.0
    assert acc.floor(2.0) == 4.0 * EPS * 8.0


def test_check_floor_returns_the_floor_or_names_it():
    acc = CompensatedSum()
    acc.add(1e4 + 0j)

    def unused() -> str:
        raise AssertionError("the message is built only when raising")

    assert acc.check_floor(acc.floor(), 1, unused) == acc.floor()
    with pytest.raises(ConvergenceError, match=r"^a series cannot reach tol=1e-13: after 1 terms "
                       r"its rounding floor is already 8.88e-12, so the attainable tolerance "
                       r"is at least 8.88e-12$"):
        acc.check_floor(1e-13, 1, lambda: "a series")
    with pytest.raises(ConvergenceError, match="at least 1.78e-11$"):
        acc.check_floor(1e-11, 1, lambda: "a series", extra=1e4)
