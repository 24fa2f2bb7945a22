"""Sieve-backed prime services.

Primality tables, interval queries, trial division past the table, and
enumeration of integers with a bounded number of prime factors (counted
with multiplicity).  Everything downstream that touches a prime goes
through this module so the certified range is explicit.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError

# Construction marks composites one 4 MiB segment at a time for locality:
# each prime's strided writes stay in a cache-sized buffer.  An in-place
# sieve over the whole table needs no buffer, but strides across all of it
# once per prime; at 10^8 it took two to three times as long (2-vCPU host,
# best of 3), though below 10^7 it was as fast or faster.
_SEGMENT = 1 << 22
# The largest sieve limit: the table takes one byte per integer, so 1 GB.
SIEVE_CAP = 10**9
# The largest Omega table: 5 bytes per integer (see omega_table), so 0.5 GB.
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
        self._prime_array: np.ndarray | None = None

    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def primes(self) -> np.ndarray:
        """Ascending int64 array of all primes <= limit (cached lazily)."""
        if self._prime_array is None:
            arr = np.flatnonzero(self._table).astype(np.int64, copy=False)
            arr.setflags(write=False)
            self._prime_array = arr
        return self._prime_array

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

    table = np.zeros(limit + 1, dtype=bool)
    table[2 : root + 1] = base[2:]
    for lo in range(root + 1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        table[lo:hi] = seg
    return table


def primes_in(lo: float, hi: float, sv: PrimeSieve) -> np.ndarray:
    """Ascending array of primes p with lo <= p <= hi.

    The one test of whether a window fits the table: its integer end
    floor(hi) must not pass the limit, so an infinite hi is refused too.
    """
    if hi >= sv.limit + 1:
        raise OutOfRangeError(f"primes_in upper end {hi} exceeds sieve limit {sv.limit}")
    if hi < lo:
        return sv.primes[:0]
    start = int(np.searchsorted(sv.primes, math.ceil(max(lo, 2)), side="left"))
    stop = int(np.searchsorted(sv.primes, math.floor(hi), side="right"))
    return sv.primes[start:stop]


def is_prime_trial(n: int, sv: PrimeSieve) -> bool:
    """Primality of n by table lookup, or trial division when n > limit.

    Trial division reads the primes to isqrt(n) from the table, so n is
    answered up to (limit+1)**2 - 1, past which primes_in refuses.
    """
    if n <= sv.limit:
        return n >= 2 and bool(sv.table[n])
    return all(n % int(p) for p in primes_in(2, math.isqrt(n), sv))


def omega_table(bound: int, sv: PrimeSieve) -> np.ndarray:
    """Omega(k) (prime factors with multiplicity) for every k in [0, bound].

    Reads the primes to isqrt(bound): after removing all prime-power
    divisors up to there, the remainder of k is 1 or a single prime.
    The table and its remainders take 5 bytes per integer (int32 is exact,
    since OMEGA_CAP < 2^31), so bound is held to OMEGA_CAP; both refusals
    come before anything is allocated.
    """
    if bound > OMEGA_CAP:
        raise OutOfRangeError(f"omega_table bound {bound} exceeds OMEGA_CAP = {OMEGA_CAP}")
    primes = primes_in(2, math.isqrt(bound), sv)
    omega = np.zeros(bound + 1, dtype=np.int8)
    rem = np.arange(bound + 1, dtype=np.int32)
    for p in primes:
        p = int(p)
        pe = p
        while pe <= bound:
            omega[pe::pe] += 1
            rem[pe::pe] //= p
            pe *= p
    omega[2:] += (rem[2:] > 1).astype(np.int8)
    return omega


def almost_primes(ell: int, mode: str, bound: int, sv: PrimeSieve) -> np.ndarray:
    """Ascending array of k <= bound with a bounded count of prime factors.

    mode "exactly": Omega(k) == ell; mode "at-most": 1 <= Omega(k) <= ell.
    1 has no prime factor and is never emitted.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if mode not in ("exactly", "at-most"):
        raise ValueError(f"mode must be 'exactly' or 'at-most', got {mode!r}")
    if ell == 1:
        # Omega(k) = 1 means k prime; both modes coincide.
        return primes_in(2, bound, sv)
    omega = omega_table(bound, sv)
    if mode == "exactly":
        hits = omega == ell
    else:
        hits = (omega >= 1) & (omega <= ell)
    hits[:2] = False
    return np.flatnonzero(hits).astype(np.int64, copy=False)
