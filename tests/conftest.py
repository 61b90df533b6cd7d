from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gapstego import brute_force_sieve, build_table, validate_generators

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def sieve_gaps(table):
    """The gaps of table's semigroup in increasing order, read off brute_force_sieve.

    The sieve runs to F + m and must show m members in a row after F, so
    every later number is a member too and the list is complete.
    """
    sieve = brute_force_sieve(table.generators, table.frobenius + table.multiplicity)
    assert sieve[table.frobenius + 1 :].all()
    return np.flatnonzero(~sieve)


@pytest.fixture(scope="session")
def table57():
    # the worked example used throughout: F=23, g=12, gaps
    # {1,2,3,4,6,8,9,11,13,16,18,23}
    return build_table(validate_generators((5, 7)))


@pytest.fixture(scope="session")
def table469():
    return build_table(validate_generators((4, 6, 9)))


@pytest.fixture(scope="session")
def table3738():
    # smallest-style coprime pair key that is viable mod 16
    return build_table(validate_generators((37, 38)))
