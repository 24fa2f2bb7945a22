"""Sieve-backed prime services.

Primality tables, interval queries, trial division past the table, and
enumeration of integers with a bounded number of prime factors (counted
with multiplicity).  Everything downstream that touches a prime goes
through this module so the certified range is explicit.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import OutOfRangeError

# Construction marks composites one 4 MiB segment of the table at a time,
# in place, for locality: each prime's strided writes stay in a cache-sized
# block.  Striding across the whole table once per prime took two to three
# times as long at 10^8 (2-vCPU host, best of 3).
_SEGMENT = 1 << 22
# almost_primes reads Omega and the primes one segment of this many integers
# at a time, so no array of the enumeration spans its bound.
ENUM_SEGMENT = 1 << 17
# The largest sieve limit: the table takes one byte per integer, so 1 GB.
SIEVE_CAP = 10**9
# The largest Omega bound.  Omega is held one segment at a time, so the cap
# bounds time, not memory: pzeta-tail --ell 2 --s 2 --M 10 --cutoff 10^8
# takes about 6.4 s and peaks at 35 MB RSS (2-vCPU host).
OMEGA_CAP = 10**8


class PrimeSieve:
    """Immutable primality table over [0, limit]."""

    def __init__(self, limit: int):
        limit = int(limit)
        if limit < 2:
            raise ValueError(f"sieve limit must be at least 2, got {limit}")
        if limit > SIEVE_CAP:
            raise OutOfRangeError(f"sieve limit {limit} exceeds SIEVE_CAP = {SIEVE_CAP}")
        self.limit = limit
        self._table = _build_table(limit)
        self._table.setflags(write=False)

    @property
    def table(self) -> np.ndarray:
        return self._table

    def __repr__(self) -> str:
        return f"PrimeSieve(limit={self.limit})"


def _build_table(limit: int) -> np.ndarray:
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = [int(p) for p in np.flatnonzero(base)]

    table = np.empty(limit + 1, dtype=bool)
    table[: root + 1] = base
    for lo in range(root + 1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = table[lo:hi]
        seg[:] = True
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
    return table


def primes_in(lo: float, hi: float, sv: PrimeSieve) -> np.ndarray:
    """Ascending array of primes p with lo <= p <= hi.

    The one test of whether a window fits the table: its integer end
    floor(hi) must not pass the limit, so an infinite hi is refused too.
    """
    if hi >= sv.limit + 1:
        raise OutOfRangeError(f"primes_in upper end {hi} exceeds sieve limit {sv.limit}")
    if hi < lo:
        return np.zeros(0, dtype=np.int64)
    start = math.ceil(max(lo, 2))
    return np.flatnonzero(sv.table[start : math.floor(hi) + 1]) + start


def is_prime_trial(n: int, sv: PrimeSieve) -> bool:
    """Primality of n by table lookup, or trial division when n > limit.

    Trial division reads the primes to isqrt(n) from the table, so n is
    answered up to (limit+1)**2 - 1, past which primes_in refuses.
    """
    if n <= sv.limit:
        return n >= 2 and bool(sv.table[n])
    return all(n % int(p) for p in primes_in(2, math.isqrt(n), sv))


def omega_table(lo: int, hi: int, sv: PrimeSieve) -> np.ndarray:
    """Omega(k) (prime factors with multiplicity) for every k in [lo, hi),
    0 for k < 2, as int8.

    Reads the primes to isqrt(hi - 1): after removing all prime-power
    divisors up to there, the remainder of k is 1 or a single prime.  The
    remainders are int32, exact since OMEGA_CAP < 2^31.  A bound hi - 1
    past OMEGA_CAP is refused before anything is allocated.
    """
    if hi - 1 > OMEGA_CAP:
        raise OutOfRangeError(f"omega_table bound {hi - 1} exceeds OMEGA_CAP = {OMEGA_CAP}")
    primes = primes_in(2, math.isqrt(hi - 1), sv)
    omega = np.zeros(hi - lo, dtype=np.int8)
    rem = np.arange(lo, hi, dtype=np.int32)
    for p in primes.tolist():
        pe = p
        while pe < hi:
            start = max(-(-lo // pe), 1) * pe - lo
            omega[start::pe] += 1
            rem[start::pe] //= p
            pe *= p
    omega += rem > 1
    return omega


def almost_primes(ell: int, mode: str, bound: int, sv: PrimeSieve) -> Iterator[np.ndarray]:
    """Ascending int64 arrays of the k <= bound with a bounded count of
    prime factors, one array per ENUM_SEGMENT integers.

    mode "exactly": Omega(k) == ell; mode "at-most": 1 <= Omega(k) <= ell.
    1 has no prime factor and is never emitted.  The request is checked,
    and the last segment read, at the call, so a bound past the sieve or
    OMEGA_CAP is refused before any segment is made.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if mode not in ("exactly", "at-most"):
        raise ValueError(f"mode must be 'exactly' or 'at-most', got {mode!r}")
    if ell == 1:
        # Omega(k) = 1 means k prime; both modes coincide.
        def hits(lo: int, hi: int) -> np.ndarray:
            return primes_in(lo, hi - 1, sv)
    else:
        def hits(lo: int, hi: int) -> np.ndarray:
            omega = omega_table(lo, hi, sv)
            if mode == "exactly":
                keep = omega == ell
            else:
                keep = (omega >= 1) & (omega <= ell)
            return np.flatnonzero(keep) + lo
    hits(bound, bound + 1)  # the refusals of the last segment, here at the call
    return (hits(lo, min(lo + ENUM_SEGMENT, bound + 1))
            for lo in range(0, bound + 1, ENUM_SEGMENT))
