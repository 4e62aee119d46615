"""The benchmark's workloads: the CLI calls each one makes, and how each
call's output is checked.

Every check reads the output the CLI printed and confirms it by a route
that does not repeat the timed code: the Weyl dimension formula for the
census, the relation count the CLI generated for the ideal suites, and
evaluation at sampled points for straightening.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

IDEAL_SUITES = ("classical-ideal", "degenerate-ideal", "s-family")
IDEAL_POINTS = 4
RINGS = ("classical", "degenerate")
# (n, degrees) of the straightening corpus; each (n, degree, ring) stratum gets
# CORPUS_PER_STRATUM monomials drawn from CORPUS_SEED.
CORPUS_SHAPE = ((3, (2, 3, 4)), (4, (2, 3, 4)), (5, (2, 3)))
CORPUS_PER_STRATUM = 112
CORPUS_SEED = 2024
CHECK_POINTS = 2  # sampled points per (n, ring) for the straightening check


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``check(output, context)`` raises CheckFailed on a wrong answer."""

    argv: tuple
    check: Callable
    metric: str | None = None  # per-operation timing metric fed by this call


@dataclass
class Context:
    """What the checks need besides the output itself."""

    relation_counts: list = field(default_factory=list)  # sizes of ideals the CLI generated
    points: dict = field(default_factory=dict)  # (n, ring) -> list of {index: value}


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # the operations of one round
    cap_s: float  # per-operation wall-clock cap
    needs_points: tuple = ()  # (n, ring) pairs the straightening check samples


def weyl_dimension(n, m):
    """dim V(lambda) for sp(2n), lambda = sum m_k omega_k, by the Weyl formula."""
    lam = [sum(m[i:]) for i in range(n)]
    l = [lam[i] + n - i for i in range(n)]
    r = [n - i for i in range(n)]
    dim = Fraction(1)
    for i in range(n):
        dim *= Fraction(l[i], r[i])
        for j in range(i + 1, n):
            dim *= Fraction((l[i] - l[j]) * (l[i] + l[j]), (r[i] - r[j]) * (r[i] + r[j]))
    return int(dim)


class CheckFailed(Exception):
    pass


def _json_output(output):
    if output.code != 0:
        raise CheckFailed(f"exit code {output.code}: {output.err.strip()[:200]}")
    try:
        return json.loads(output.out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def check_ideal(output, ctx, points):
    """The suite passed and evaluated every generated relation at every point."""
    report = _json_output(output)
    if len(ctx.relation_counts) != 1:
        raise CheckFailed(f"expected one generated ideal, saw {len(ctx.relation_counts)}")
    relations = ctx.relation_counts[0]
    if not report.get("ok"):
        raise CheckFailed(f"suite reported failures: {str(report.get('failures'))[:200]}")
    if len(report.get("seeds", ())) != points:
        raise CheckFailed(f"sampled {len(report.get('seeds', ()))} points, asked for {points}")
    if report.get("checked") != relations * points or not report["checked"]:
        raise CheckFailed(
            f"checked {report.get('checked')}, expected {relations} relations x {points} points > 0"
        )


def check_roundtrip(output, ctx, n, lam):
    report = _json_output(output)
    dim = weyl_dimension(n, lam)
    if not report.get("ok") or report.get("checked") != dim:
        raise CheckFailed(f"roundtrip ok={report.get('ok')} checked={report.get('checked')}, dim={dim}")


def check_tableaux(output, ctx, n, lam):
    data = _json_output(output)
    dim = weyl_dimension(n, lam)
    tabs = data.get("tableaux", [])
    distinct = {tuple(map(tuple, t["columns"])) for t in tabs}
    if not data.get("count") == len(tabs) == len(distinct) == dim:
        raise CheckFailed(
            f"count {data.get('count')}, {len(tabs)} listed, {len(distinct)} distinct, dim {dim}"
        )


def check_counts(output, ctx, n, lam):
    report = _json_output(output)
    dim = weyl_dimension(n, lam)
    got = (report.get("lattice_points"), report.get("tableaux"), report.get("weyl_dimension"))
    if not report.get("ok") or got != (dim, dim, dim):
        raise CheckFailed(f"lattice points, tableaux, dimension = {got}, expected {dim}")


def check_polytope(output, ctx, n, lam):
    data = _json_output(output)
    dim = weyl_dimension(n, lam)
    if data.get("lattice_point_count") != dim or not data.get("inequalities"):
        raise CheckFailed(f"lattice points {data.get('lattice_point_count')}, dim {dim}")


def check_straighten(output, ctx, n, ring, columns):
    """The straightened sum evaluates to the input monomial at sampled points."""
    data = _json_output(output)
    if data.get("ring") != ring or [tuple(c) for c in data.get("input", ())] != list(columns):
        raise CheckFailed("output does not echo the input")
    for coords in ctx.points[(n, ring)]:
        want = Fraction(1)
        for col in columns:
            want *= coords[col]
        got = Fraction(0)
        for term in data["result"]:
            value = Fraction(term["coefficient"])
            for col in term["tableau"]["columns"]:
                value *= coords[tuple(sorted(col))]
            got += value
        if got != want:
            raise CheckFailed(f"result evaluates to {got}, input to {want}")


def ideal_workload(seed):
    """Every suite at 4 points seeded from the run's seed."""
    rng = random.Random(seed)
    ops = []
    for suite in IDEAL_SUITES:
        argv = ("verify", "--suite", suite, "--n", "4", "--seeds", str(IDEAL_POINTS),
                "--seed", str(rng.randrange(10**6)), "--report", "json")
        ops.append(Op(argv, partial(check_ideal, points=IDEAL_POINTS),
                      metric=f"verify_{suite.replace('-', '_')}_s"))
    return Workload("ideal-n4", tuple(ops), 60.0)


def census_workload(seed):
    """Five fixed operations; the seed does not enter."""

    def op(verb, n, lam, check, metric=None, extra=()):
        argv = (verb, "--n", str(n), "--lambda", ",".join(map(str, lam))) + extra
        return Op(argv, partial(check, n=n, lam=lam), metric)

    report = ("--report", "json")
    ops = (
        op("verify", 4, (1, 1, 0, 1), check_roundtrip, "verify_roundtrip_s",
           ("--suite", "roundtrip") + report),
        op("verify", 3, (2, 1, 1), check_roundtrip, None,
           ("--suite", "roundtrip") + report),
        op("tableaux", 6, (1, 0, 0, 0, 0, 1), check_tableaux, "tableaux_s",
           ("--format", "json")),
        op("verify", 5, (1, 0, 0, 0, 1), check_counts, None,
           ("--suite", "counts") + report),
        op("polytope", 5, (1, 0, 0, 0, 1), check_polytope, None,
           ("--format", "json")),
    )
    return Workload("census", ops, 60.0)


def straighten_workload(seed):
    """A fixed corpus of Pluecker monomials, a set number per (n, degree, ring).

    The corpus comes from CORPUS_SEED, not from the run's seed: per-call times
    are so heavy-tailed (the slowest 0.5% of calls take about 45% of the time)
    that a corpus drawn per run seed moves wall_s by 8-11% and latency_p99_ms
    by 16-32% between seeds.
    """
    rng = random.Random(CORPUS_SEED)
    ops = []
    for n, degrees in CORPUS_SHAPE:
        for degree in degrees:
            for ring in RINGS:
                for _ in range(CORPUS_PER_STRATUM):
                    columns = tuple(sorted(
                        tuple(sorted(rng.sample(range(1, 2 * n + 1), rng.randint(1, n))))
                        for _ in range(degree)
                    ))
                    spec = ";".join(",".join(map(str, col)) for col in columns)
                    argv = ("straighten", "--n", str(n), "--ring", ring, "--columns", spec,
                            "--format", "json")
                    ops.append(Op(argv, partial(check_straighten, n=n, ring=ring,
                                                columns=columns)))
    needs = tuple((n, ring) for n, _ in CORPUS_SHAPE for ring in RINGS)
    return Workload("straighten-corpus", tuple(ops), 10.0, needs_points=needs)


WORKLOADS = {
    "ideal-n4": ideal_workload,
    "census": census_workload,
    "straighten-corpus": straighten_workload,
}
