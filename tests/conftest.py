import random
import subprocess
import sys
from fractions import Fraction

import pytest

from necklacekit import (
    Arrow,
    Derivation,
    FormSum,
    NecklaceWord,
    Path,
    PathSum,
    Quiver,
    double,
    necklaces_of_length,
    omega_basis,
    paths_between,
    paths_of_length,
)


# appended to a child's script: its peak resident set size in KiB, read from
# VmHWM, which exec resets; ru_maxrss would keep the peak the child had at
# fork, that of the test process
PRINT_PEAK = (
    "\nprint(next(line.split()[1] for line in open('/proc/self/status') "
    "if line.startswith('VmHWM:')))\n"
)


def run_measured(script: str) -> tuple[list[str], str, int]:
    """Run a script in a new interpreter, for at most a minute: the lines it
    prints, what it writes to stderr, and its peak resident set size in KiB."""
    proc = subprocess.run(
        [sys.executable, "-c", script + PRINT_PEAK], capture_output=True, text=True, timeout=60
    )
    *lines, peak_kib = proc.stdout.splitlines()
    return lines, proc.stderr, int(peak_kib)


@pytest.fixture(scope="session")
def calogero():
    return Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 2)))


@pytest.fixture(scope="session")
def calogero_double(calogero):
    return double(calogero)


@pytest.fixture(scope="session")
def a1_tilde():
    return Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))


@pytest.fixture(scope="session")
def a1_tilde_double(a1_tilde):
    return double(a1_tilde)


@pytest.fixture(scope="session")
def one_loop():
    return Quiver(1, (Arrow("x", 1, 1),))


@pytest.fixture(scope="session")
def one_loop_double(one_loop):
    return double(one_loop)


def path_quiver(k: int) -> Quiver:
    """The A_k path 1 -> 2 -> ... -> k."""
    return Quiver(k, tuple(Arrow(f"a{i}", i, i + 1) for i in range(1, k)))


def random_quiver(rng: random.Random, max_vertices=5, max_arrows=10) -> Quiver:
    k = rng.randint(1, max_vertices)
    n_arrows = rng.randint(0, max_arrows)
    arrows = tuple(
        Arrow(f"q{i}", rng.randint(1, k), rng.randint(1, k)) for i in range(n_arrows)
    )
    return Quiver(k, arrows)


def small_random_quivers(seed: int, count: int) -> list[Quiver]:
    """Seeded random quivers on 1-3 vertices with at most 3 arrows."""
    rng = random.Random(seed)
    return [random_quiver(rng, max_vertices=3, max_arrows=3) for _ in range(count)]


def random_fraction(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return value if value else Fraction(1)


def random_path(rng: random.Random, q: Quiver, max_len=4, min_len=0) -> Path:
    for _ in range(50):
        length = rng.randint(min_len, max_len)
        pool = paths_of_length(q, length)
        if pool:
            return rng.choice(pool)
    raise RuntimeError("no paths available")


def random_path_sum(rng: random.Random, q: Quiver, max_len=4, max_terms=3) -> PathSum:
    total = PathSum.zero()
    for _ in range(rng.randint(1, max_terms)):
        total = total + random_fraction(rng) * PathSum.of(random_path(rng, q, max_len))
    return total


def random_necklace(rng: random.Random, q: Quiver, max_len=5, min_len=1) -> NecklaceWord:
    for _ in range(100):
        length = rng.randint(min_len, max_len)
        pool = necklaces_of_length(q, length)
        if pool:
            return rng.choice(pool)
    raise RuntimeError("no necklaces available")


def random_derivation(rng: random.Random, dq, max_len=3, max_terms=2) -> Derivation:
    images = {}
    for arr in dq.arrows:
        if rng.random() < 0.25:
            continue
        total = PathSum.zero()
        for _ in range(rng.randint(1, max_terms)):
            length = rng.randint(1, max_len)
            pool = paths_between(dq, arr.source, arr.target, length)
            if pool:
                total = total + random_fraction(rng) * PathSum.of(rng.choice(pool))
        images[arr.label] = total
    return Derivation(dq, images)


def random_form(rng: random.Random, q: Quiver, max_degree=3, max_length=4, max_terms=2) -> FormSum:
    for _ in range(100):
        degree = rng.randint(0, max_degree)
        length = rng.randint(degree, max_length)
        pool = omega_basis(q, degree, length)
        if not pool:
            continue
        total = FormSum.zero()
        for _ in range(rng.randint(1, max_terms)):
            total = total + random_fraction(rng) * FormSum.of(rng.choice(pool))
        return total
    raise RuntimeError("no forms available")
