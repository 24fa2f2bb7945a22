import pytest

from primecf.primes import PrimeSieve


@pytest.fixture(scope="session")
def sieve_small():
    return PrimeSieve(100_000)


@pytest.fixture(scope="session")
def sieve_mid():
    return PrimeSieve(1_000_000)


@pytest.fixture(scope="session")
def sieve_big():
    # 10^7 covers every acceptance run; build it once
    return PrimeSieve(10_000_000)
