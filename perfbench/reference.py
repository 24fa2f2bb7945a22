"""The reference computation that `wall_ref` and `cpu_ref` are measured in.

    python3 perfbench/reference.py

run.py runs it as a fresh process, like a `primecf` command, several times
per pass, and divides the commands' times by its median wall and CPU time.
It does work of the kinds the workloads do (pure-Python integer and dict
work, mpmath power sums, a numpy sieve) and imports no primecf code, so a
change to the program leaves it alone while a host that runs slower for a
while slows it too.  It exits 1 if its result is wrong.
"""
import sys

import numpy as np
from mpmath import mp, mpf


def main() -> int:
    acc, table = 0, {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 4095] = acc
    power_sum = mpf(0)
    with mp.workdps(30):
        for k in range(2, 6_000):
            power_sum += mpf(k) ** -mpf(2.5)
    sieve = np.ones(1_500_000, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1225):
        if sieve[p]:
            sieve[p * p::p] = False
    result = (int(sieve.sum()), mp.nstr(power_sum, 6))
    if result != (114_155, "0.341486"):
        print(f"reference computation gave {result}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
