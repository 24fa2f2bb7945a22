import os
import subprocess
import sys
from pathlib import Path

import pytest

from primecf.primes import PrimeSieve

SRC = Path(__file__).resolve().parents[1] / "src"


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


# Linux counts in a child's peak RSS the memory of the process it was
# spawned from, so the CLI is spawned from a bare interpreter, not from the
# test process, which reports the peak
PEAK_RSS = """
import os, subprocess, sys
code = "import sys; from primecf.cli import main; sys.exit(main(sys.argv[1:]))"
proc = subprocess.Popen([sys.executable, "-c", code, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.fixture(scope="session")
def cli_peak_rss_mb():
    """Peak RSS of one fresh primecf CLI process, its own, from os.wait4."""
    def peak(*argv: str) -> float:
        done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 0, done.stderr
        rc, maxrss_kb = map(int, done.stdout.split())
        assert rc == 0
        return maxrss_kb / 1024
    return peak
