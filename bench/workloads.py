"""Workload inputs, one op per input, and the checks on each op's output.

Inputs are drawn from `random.Random` seeded with the workload name, the
run seed and the op-set index, so a seed always gives the same inputs.  An op set mixes its input
classes in fixed proportions (every quiver family, box vector, weight kind,
shape, length cap or case appears the same number of times in every op set)
and the seed draws the rest: weights, random quivers, orientations, label
letters, necklaces and solver starts.  Runs with different seeds therefore
measure the same mix, and their spread is the machine's, not the draw's.

The checks use only the benchmark's own formulas (Euler matrices built from
the arrow list, the Burnside necklace count, representation dimensions);
they never ask the library for an expected value.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Library entry points are called through their modules, so that the
# tracer's rebinding of module attributes reaches the benchmark's own calls.
from necklacekit import Arrow, NecklaceWord, Quiver, cli, double, lie, numerics
import speed

WORKLOADS = ("classify", "forms", "lie", "moment")

# A quiver is given as (vertex count, ((source, target), ...)).
CALOGERO = (2, ((1, 2), (2, 2)))
A1_TILDE = (2, ((1, 2), (2, 1)))
KRONECKER = (2, ((1, 2), (1, 2)))
D4_STAR = (5, ((1, 5), (2, 5), (3, 5), (4, 5)))
A2_CYCLE = (3, ((1, 2), (2, 3), (3, 1)))
ONE_LOOP = (1, ((1, 1),))
TWO_LOOPS = (1, ((1, 1), (1, 1)))

# classify: every nonzero vector of each box, once at lambda = 0 and once at
# a seeded nonzero weight with lambda . alpha = 0.
CLASSIFY_FAMILIES = (
    ("calogero", CALOGERO, (4, 8)),
    ("a1_tilde", A1_TILDE, (4, 4)),
    ("kronecker", KRONECKER, (4, 4)),
    ("d4_star", D4_STAR, (1, 1, 1, 1, 2)),
    ("a2_cycle", A2_CYCLE, (2, 2, 2)),
)
# plus this many seeded random quivers on 2-3 vertices per op set, each with
# RANDOM_ALPHAS seeded vectors in the box (2, ..., 2) at both weight kinds.
RANDOM_QUIVERS = 10
RANDOM_ALPHAS = 4

# forms: per op set, each shape gets the counts of derham and karoubi tables
# in FORMS_COMMANDS, every op on a freshly labelled, reoriented and
# renumbered copy of the shape (degree <= 3, length <= 3).  Derham
# tables are cheap and karoubi tables dear; two derham per karoubi puts the
# median op among the derham tables and the 90th percentile among the
# karoubi ones, where an even split would put the median in the gap
# between the two kinds and make it jump from run to run.
FORMS_SHAPES = (
    ONE_LOOP,
    TWO_LOOPS,
    (2, ((1, 2),)),
    CALOGERO,
    KRONECKER,
    A1_TILDE,
    (3, ((1, 2), (2, 3))),
    A2_CYCLE,
    (4, ((1, 4), (2, 4), (3, 4))),
)
FORMS_COMMANDS = (("derham", 8), ("karoubi", 4))
FORMS_MAX_DEGREE = 3
FORMS_MAX_LENGTH = 3

# lie: each doubled quiver at each length cap LIE_REPEATS times per op set;
# the three necklaces of an op have seeded lengths from 2 up to the cap.
LIE_QUIVERS = (CALOGERO, ONE_LOOP, A1_TILDE, KRONECKER, TWO_LOOPS)
LIE_LENGTH_CAPS = (5, 6, 7, 8)
LIE_REPEATS = 5

# moment: each (quiver, alpha, lambda) case MOMENT_REPEATS times per op set,
# each from its own seeded starting point.
MOMENT_CASES = tuple(
    (CALOGERO, (n, 2 * n), (-2, 1)) for n in range(1, 6)
) + (
    (A1_TILDE, (1, 1), (-1, 1)),
    (D4_STAR, (1, 1, 1, 1, 2), (1, 1, 1, 1, -2)),
)
MOMENT_REPEATS = 15
MOMENT_TOL = 1e-10
# Solved once before timing to pay numpy's lazy set-up; not a timed case.
MOMENT_WARMUP = (KRONECKER, (1, 1), (1, -1))

LABEL_LETTERS = "abcdfghijklmnopqrstuvwxyz"  # no "e": e<i> names a vertex path


# ---------------------------------------------------------------------------
# the benchmark's own formulas


def euler_matrix(spec) -> list[list[int]]:
    k, arrows = spec
    chi = [[int(i == j) for j in range(k)] for i in range(k)]
    for s, t in arrows:
        chi[s - 1][t - 1] -= 1
    return chi


def form(matrix, x, y) -> int:
    return sum(matrix[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


def tits(chi, x, y) -> int:
    return form(chi, x, y) + form(chi, y, x)


def p_value(chi, beta) -> int:
    return 1 - form(chi, beta, beta)


def double_adjacency(spec) -> list[list[int]]:
    k, arrows = spec
    adj = [[0] * k for _ in range(k)]
    for s, t in arrows:
        adj[s - 1][t - 1] += 1
        adj[t - 1][s - 1] += 1
    return adj


def burnside_necklaces(adj, n: int) -> int:
    """Necklaces of length n: (1/n) sum over d | n of phi(n/d) tr(A^d)."""
    k = len(adj)
    if n == 0:
        return k
    traces = []
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(n):
        power = [
            [sum(power[i][m] * adj[m][j] for m in range(k)) for j in range(k)] for i in range(k)
        ]
        traces.append(sum(power[i][i] for i in range(k)))
    total = sum(_phi(n // d) * traces[d - 1] for d in range(1, n + 1) if n % d == 0)
    return total // n


def _phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def rep_dimension(spec, alpha) -> int:
    return 2 * sum(alpha[s - 1] * alpha[t - 1] for s, t in spec[1])


# ---------------------------------------------------------------------------
# quiver presentation


def quiver_text(k: int, arrows) -> str:
    listed = ", ".join(f"{label} {s} {t}" for label, s, t in arrows)
    return f"vertices: {k}\narrows: {listed}\n"


def labelled(spec, tag: str, letters: str = LABEL_LETTERS) -> tuple:
    """Arrows of the spec labelled letter + tag; one tag per quiver keeps the
    labels' sort order, and so the library's basis order, that of the letters."""
    return tuple((f"{c}{tag}", s, t) for c, (s, t) in zip(letters, spec[1]))


def as_quiver(k: int, arrows) -> Quiver:
    return Quiver(k, tuple(Arrow(label, s, t) for label, s, t in arrows))


def fresh_copy(rng: random.Random, spec):
    """The shape with vertices renumbered and arrows reordered and reoriented
    at random, and a random choice of label letters."""
    k, arrows = spec
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    moved = [(perm[s - 1], perm[t - 1]) for s, t in arrows]
    moved = [(t, s) if rng.random() < 0.5 else (s, t) for s, t in moved]
    rng.shuffle(moved)
    return (k, tuple(moved)), "".join(rng.sample(LABEL_LETTERS, len(moved)))


# ---------------------------------------------------------------------------
# ops


@dataclass
class ClassifyOp:
    """One `necklace-kit classify --json` call through `cli.main`."""

    quiver_file: str
    out_file: str
    alpha: tuple
    lam: tuple
    euler: list  # expected: the Euler matrix built from the arrow list

    def run(self):
        return cli.main(
            [
                "classify",
                self.quiver_file,
                "--alpha",
                ",".join(map(str, self.alpha)),
                "--lambda=" + ",".join(map(str, self.lam)),
                "--json",
                self.out_file,
            ]
        )

    def check(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        report = _take_report(self.out_file)
        alpha, lam, chi = self.alpha, self.lam, self.euler
        if tuple(report["alpha"]) != alpha:
            return "report is for another alpha"
        on_plane = sum(Fraction(l) * a for l, a in zip(lam, alpha)) == 0
        if report["on_hyperplane"] != on_plane:
            return "on_hyperplane disagrees with lambda . alpha"
        member = report["membership"]
        if member["p_alpha"] is not None and member["p_alpha"] != p_value(chi, alpha):
            return "p(alpha) disagrees with 1 - chi(alpha, alpha)"
        for key, strict in (("witness_S", True), ("witness_Sigma", False)):
            problem = self._check_witness(member[key], strict)
            if problem:
                return f"{key}: {problem}"
        if member["in_S"] and not member["in_Sigma"] and member["witness_Sigma"] is None:
            return "Sigma verdict negative without a witness"
        if report["dim_fiber"] is not None:
            if report["dim_fiber"] != 1 + sum(a * a for a in alpha) - 2 * form(chi, alpha, alpha):
                return "dim_fiber disagrees with 1 + a.a - 2 chi(a, a)"
            if report["dim_quotient"] != 2 - tits(chi, alpha, alpha):
                return "dim_quotient disagrees with 2 - T(a, a)"
        smaller = report["minimal_witness"]
        if smaller is not None and not (
            any(smaller) and all(b <= a for b, a in zip(smaller, alpha)) and tuple(smaller) != alpha
        ):
            return "minimal_witness is not strictly below alpha"
        for entry in report["rep_types"]:
            problem = self._check_type(entry)
            if problem:
                return problem
        half = report["two_alpha"]
        if half is not None and (
            tuple(2 * x for x in half["half_alpha"]) != alpha or half["lhs"] - half["rhs"] != 3
        ):
            return "two_alpha check does not describe alpha / 2"
        return None

    def _check_witness(self, witness, strict: bool) -> str | None:
        if witness is None:
            return None
        chi, alpha = self.euler, self.alpha
        total = [0] * len(alpha)
        parts = 0
        p_sum = 0
        for part in witness:
            beta, mult = part["beta"], part["multiplicity"]
            if sum(Fraction(l) * b for l, b in zip(self.lam, beta)) != 0:
                return f"part {beta} is off the hyperplane"
            for i, b in enumerate(beta):
                total[i] += mult * b
            parts += mult
            p_sum += mult * p_value(chi, beta)
        if tuple(total) != alpha:
            return f"parts sum to {total}"
        if parts < 2:
            return "fewer than two parts"
        p_alpha = p_value(chi, alpha)
        if (p_alpha >= p_sum) if strict else (p_alpha > p_sum):
            return f"p(alpha) = {p_alpha} against a part sum of {p_sum} violates nothing"
        return None

    def _check_type(self, entry) -> str | None:
        chi, alpha = self.euler, self.alpha
        parts = entry["type"]
        total = [0] * len(alpha)
        for mult, beta in parts:
            for i, b in enumerate(beta):
                total[i] += mult * b
        if tuple(total) != alpha:
            return f"representation type sums to {total}"
        for i, (_, bi) in enumerate(parts):
            for j, (_, bj) in enumerate(parts):
                expected = 2 - tits(chi, bi, bi) if i == j else -tits(chi, bi, bj)
                if entry["ext_matrix"][i][j] != expected:
                    return "Ext^1 count disagrees with the Tits form"
        if entry["slice_lhs"] is not None:
            base = sum(a * a for a in alpha) - tits(chi, alpha, alpha)
            lhs = base + sum(m * m for m, _ in parts)
            if entry["slice_lhs"] != lhs or entry["slice_rhs"] != base + 1:
                return "slice counts disagree with the Tits form"
        return None


@dataclass
class FormsOp:
    """One `necklace-kit derham` or `karoubi` table through `cli.main`."""

    command: str
    quiver_file: str
    out_file: str
    expected: dict  # (degree, length) -> dimension, for the cells checked

    def run(self):
        return cli.main(
            [
                self.command,
                self.quiver_file,
                "--max-degree",
                str(FORMS_MAX_DEGREE),
                "--max-length",
                str(FORMS_MAX_LENGTH),
                "--json",
                self.out_file,
            ]
        )

    def check(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        report = _take_report(self.out_file)
        table = {(row["degree"], row["length"]): row["dim"] for row in report["table"]}
        if len(table) != (FORMS_MAX_DEGREE + 1) * (FORMS_MAX_LENGTH + 1):
            return "table is missing cells"
        for cell, dim in self.expected.items():
            if table[cell] != dim:
                return f"cell {cell}: dimension {table[cell]}, expected {dim}"
        return None


@dataclass
class LieOp:
    """Jacobi identity on a necklace triple and the central-extension
    identity [H(u), H(v)] = H({u, v}) on two of them."""

    words: tuple

    def run(self):
        u, v, w = self.words
        bracket = lie.kontsevich_bracket
        jacobi = bracket(u, bracket(v, w)) + bracket(v, bracket(w, u)) + bracket(w, bracket(u, v))
        field = lie.hamiltonian_derivation
        commutator = lie.derivation_commutator(field(u), field(v))
        of_bracket = field(bracket(u, v), u.quiver)
        return jacobi, commutator, of_bracket

    def check(self, output) -> str | None:
        jacobi, commutator, of_bracket = output
        if list(jacobi.terms()):
            return "Jacobi sum is not zero"
        if _images(commutator) != _images(of_bracket):
            return "commutator of hamiltonian fields is not the field of the bracket"
        return None


def _take_report(path: str) -> dict:
    """Read an op's JSON report and delete it, so no later op sees it."""
    file = Path(path)
    report = json.loads(file.read_text(encoding="utf-8"))
    file.unlink()
    return report


def _images(derivation) -> dict:
    return {
        label: {str(path): coeff for path, coeff in image.terms()}
        for label, image in derivation.images.items()
    }


@dataclass
class MomentOp:
    """`numerics.solve` from one seeded start, then `rank_report` if solved."""

    quiver: Quiver
    alpha: tuple
    lam: tuple
    seed: int
    expected_rank: int  # alpha . alpha - 1, the trace-zero target dimension
    expected_rep_dim: int

    def run(self):
        result = numerics.solve(self.quiver, self.alpha, self.lam, self.seed, tol=MOMENT_TOL)
        if not result.converged:
            return result, None
        return result, numerics.rank_report(self.quiver, self.alpha, self.lam, result.point)

    def check(self, output) -> str | None:
        result, report = output
        if not result.converged or result.residual_norm > MOMENT_TOL:
            return f"no convergence: residual {result.residual_norm:.3e}"
        if report.jacobian_rank != self.expected_rank:
            return f"rank {report.jacobian_rank}, expected {self.expected_rank}"
        if report.fiber_dim_estimate != self.expected_rep_dim - report.jacobian_rank:
            return "fiber estimate is not the representation dimension minus the rank"
        return None


# ---------------------------------------------------------------------------
# op-set generation


def _nonzero_weight(rng: random.Random, alpha) -> tuple:
    """A seeded weight lambda != 0 with lambda . alpha = 0 (needs two vertices)."""
    support = [i for i, a in enumerate(alpha) if a]
    while True:
        lam = [Fraction(rng.randint(-3, 3)) for _ in alpha]
        j = rng.choice(support)
        rest = sum(l * a for i, (l, a) in enumerate(zip(lam, alpha)) if i != j)
        lam[j] = -rest / alpha[j]
        if any(lam):
            return tuple(lam)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _classify_ops(rng, tag: str, workdir: Path) -> list:
    ops = []
    out_file = str(workdir / "classify.json")
    cases = []
    for name, spec, box in CLASSIFY_FAMILIES:
        path = _write(workdir / f"{name}-{tag}.quiver", quiver_text(spec[0], labelled(spec, tag)))
        vectors = [v for v in itertools.product(*(range(b + 1) for b in box)) if any(v)]
        cases.extend((spec, path, v) for v in vectors)
    for r in range(RANDOM_QUIVERS):
        k = rng.randint(2, 3)
        spec = (k, tuple((rng.randint(1, k), rng.randint(1, k)) for _ in range(rng.randint(1, 3))))
        path = _write(workdir / f"random{r}-{tag}.quiver", quiver_text(k, labelled(spec, tag)))
        vectors = [v for v in itertools.product(range(3), repeat=k) if any(v)]
        cases.extend((spec, path, v) for v in rng.sample(vectors, RANDOM_ALPHAS))
    for spec, path, alpha in cases:
        chi = euler_matrix(spec)
        for lam in ((Fraction(0),) * len(alpha), _nonzero_weight(rng, alpha)):
            ops.append(ClassifyOp(path, out_file, alpha, lam, chi))
    rng.shuffle(ops)
    return ops


def _forms_ops(rng, tag: str, workdir: Path) -> list:
    ops = []
    out_file = str(workdir / "forms.json")
    plan = [
        (shape, command)
        for shape in FORMS_SHAPES
        for command, count in FORMS_COMMANDS
        for _ in range(count)
    ]
    rng.shuffle(plan)
    for n, (shape, command) in enumerate(plan):
        spec, letters = fresh_copy(rng, shape)
        path = _write(
            workdir / f"forms{n}-{tag}.quiver",
            quiver_text(spec[0], labelled(spec, f"{n}_{tag}", letters)),
        )
        k = spec[0]
        if command == "derham":
            expected = {
                (d, l): (k if (d, l) == (0, 0) else 0)
                for d in range(FORMS_MAX_DEGREE + 1)
                for l in range(FORMS_MAX_LENGTH + 1)
            }
        else:
            adj = double_adjacency(spec)
            expected = {(0, l): burnside_necklaces(adj, l) for l in range(FORMS_MAX_LENGTH + 1)}
        ops.append(FormsOp(command, path, out_file, expected))
    return ops


def random_necklace(rng: random.Random, spec, dq, max_length: int) -> NecklaceWord:
    """A closed walk of seeded length 2..max_length on the doubled quiver."""
    k = spec[0]
    steps = {v: [] for v in range(1, k + 1)}
    for arr in dq.arrows:
        steps[arr.source].append((arr.label, arr.target))
    length = rng.randint(2, max_length)
    for attempt in range(400):
        # bipartite doubles have no odd cycles: shorten after failed tries;
        # every double has the cycles a a* of length 2
        m = max(2, length - attempt // 100)
        start = vertex = rng.randint(1, k)
        labels = []
        for _ in range(m):
            label, vertex = rng.choice(steps[vertex])
            labels.append(label)
        if vertex == start:
            return NecklaceWord(dq, tuple(labels))
    raise RuntimeError("no closed walk found")


def _lie_ops(rng, tag: str, workdir: Path) -> list:
    ops = []
    doubles = {spec: double(as_quiver(spec[0], labelled(spec, tag))) for spec in LIE_QUIVERS}
    for spec in LIE_QUIVERS:
        for cap in LIE_LENGTH_CAPS:
            for _ in range(LIE_REPEATS):
                dq = doubles[spec]
                words = tuple(random_necklace(rng, spec, dq, cap) for _ in range(3))
                ops.append(LieOp(words))
    rng.shuffle(ops)
    return ops


def _moment_ops(rng, tag: str, workdir: Path) -> list:
    ops = []
    for spec, alpha, lam in MOMENT_CASES:
        quiver = as_quiver(spec[0], labelled(spec, tag))
        for _ in range(MOMENT_REPEATS):
            ops.append(
                MomentOp(
                    quiver,
                    alpha,
                    lam,
                    rng.randrange(2**31),
                    sum(a * a for a in alpha) - 1,
                    rep_dimension(spec, alpha),
                )
            )
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "classify": _classify_ops,
    "forms": _forms_ops,
    "lie": _lie_ops,
    "moment": _moment_ops,
}


def build(workload: str, seed: int, op_sets: int, workdir: Path) -> list:
    """The ops of `op_sets` op sets drawn from the seed, quiver files written
    to workdir.  Every op set labels its quivers afresh, so a cache keyed by
    quivers or words never serves one op set from another."""
    ops = []
    for index in range(op_sets):
        rng = random.Random(f"{workload}:{seed}:{index}")
        ops.extend(BUILDERS[workload](rng, f"s{index}", workdir))
    return ops


def warm_up(workload: str) -> None:
    """Untimed work that pays one-time lazy set-up outside the timed ops."""
    if workload == "moment":
        spec, alpha, lam = MOMENT_WARMUP
        quiver = as_quiver(spec[0], labelled(spec, "w"))
        result = numerics.solve(quiver, alpha, lam, 0, tol=MOMENT_TOL)
        numerics.rank_report(quiver, alpha, lam, result.point)


def probe_for(workload: str):
    """The speed probe doing the workload's kind of work, and its reference
    time in seconds."""
    if workload == "moment":
        return speed.moment_probe_factory(), speed.MOMENT_PROBE_S
    return speed.python_probe, speed.PYTHON_PROBE_S


def run_ops(ops, probe, on_op=None):
    """Closed loop: each op starts when the previous one and its check end.

    Returns per-op latencies (seconds, the op alone, not its check), the
    probe times, for each op the index of the probe timed last before it,
    and one message per failed op; an op fails when it raises, exits
    non-zero, or its output fails the check.  A probe runs before the first
    op, after the last, and after every op that brings the op time since
    the previous probe to PROBE_INTERVAL_S, so ops between two probes are
    bracketed by them.
    """
    latencies: list[float] = []
    probes = [speed.timed(probe)]
    probe_before: list[int] = []
    failures: list[str] = []
    since_probe = 0.0
    for n, op in enumerate(ops):
        if on_op is not None:
            on_op(n)
        started = time.perf_counter()
        try:
            output = op.run()
        except (Exception, SystemExit) as exc:
            # an op that raises, or whose arguments the CLI's parser rejects
            # with SystemExit, is a failed op, not a crash
            problem = f"raised {exc!r}"
        else:
            problem = None
        latency = time.perf_counter() - started
        latencies.append(latency)
        probe_before.append(len(probes) - 1)
        since_probe += latency
        if since_probe >= speed.PROBE_INTERVAL_S or n == len(ops) - 1:
            probes.append(speed.timed(probe))
            since_probe = 0.0
        if problem is None:
            try:
                problem = op.check(output)
            except Exception as exc:  # malformed output fails its check
                problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"op {n} ({type(op).__name__}): {problem}")
    return latencies, probes, probe_before, failures
