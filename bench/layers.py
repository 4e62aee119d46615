"""Per-layer metrics of a traced run.

Calls and seconds are per traced round (one pass over the workload's
operations), so they do not depend on how many rounds fit in a run.
"""

import statistics

from tracer import Tracer

LAYERS = ("cli", "relations", "pluecker", "verify", "liealg", "fflv", "tableaux",
          "correspondence", "straighten")

# "layer.function.calls" / "layer.function.s" metrics, by function
CALLS = (
    "relations.pluecker_relation", "relations.symplectic_relation",
    "pluecker.poly_add", "pluecker.poly_eval", "pluecker.normalize_index", "pluecker.pbw_fill",
    "verify.sample_classical_flag", "verify.sample_degenerate_point",
    "liealg.mat_mul", "liealg.matrix_minor",
    "fflv.fflv_inequalities", "fflv.dyck_paths", "fflv.contains",
    "tableaux.is_symplectic_column",
    "correspondence.monomial_to_tableau", "correspondence.tableau_to_monomial",
    "straighten.straighten",
)
SECONDS = (
    "relations.generate_ideal", "relations.symplectic_relation", "relations.degenerate_component",
    "pluecker.poly_add", "pluecker.poly_eval",
    "verify.sample_classical_flag", "verify.sample_degenerate_point", "verify.check_vanishing",
    "verify.check_s_bridge", "verify.check_isotropy_projection",
    "liealg.mat_mul", "liealg.matrix_minor",
    "fflv.contains", "fflv.lattice_points",
    "tableaux.enumerate_tableaux", "tableaux.is_symplectic_column",
    "correspondence.monomial_to_tableau", "correspondence.tableau_to_monomial",
    "straighten.straighten",
)
COUNTS = ("relations.raw", "relations.zero", "relations.kept", "verify.points",
          "verify.evaluations", "straighten.s_steps", "straighten.p_steps")
RATIOS = {"relations.kept_ratio": ("relations.kept", "relations.raw"),
          "tableaux.columns_kept_ratio": ("tableaux.columns_kept", "tableaux.columns_tested")}
# timings of single CLI operations, from the run's untraced round
OP_METRICS = ("verify_classical_ideal_s", "verify_degenerate_ideal_s", "verify_s_family_s",
              "verify_roundtrip_s", "tableaux_s")
RUN_METRICS = ("fail_share", "trace.wall_s", "trace.overhead_s")


def unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name == "fail_share":
        return "ratio"
    return "count"


def metric_names():
    """Every per-layer metric, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{f}.calls" for f in CALLS] + [f"{f}.s" for f in SECONDS]
    names += list(COUNTS) + list(RATIOS) + list(OP_METRICS) + list(RUN_METRICS)
    return names


def _relation_built(tracer, poly):
    if tracer.depth("relations.generate_ideal"):
        tracer.counts["relations.raw"] += 1
        tracer.counts["relations.zero"] += not poly


def _column_tested(tracer, ok):
    if tracer.depth("tableaux.enumerate_tableaux"):
        tracer.counts["tableaux.columns_tested"] += 1
        tracer.counts["tableaux.columns_kept"] += bool(ok)


def _count(key, amount=lambda result: 1):
    def observe(tracer, result):
        tracer.counts[key] += amount(result)
    return observe


def make_tracer():
    return Tracer(observers={
        "relations.generate_ideal": _count("relations.kept", len),
        "relations.pluecker_relation": _relation_built,
        "relations.symplectic_relation": _relation_built,
        "verify.sample_classical_flag": _count("verify.points"),
        "verify.sample_degenerate_point": _count("verify.points"),
        "verify.check_vanishing": _count("verify.evaluations", lambda report: report["checked"]),
        "verify.check_s_bridge": _count("verify.evaluations", lambda report: report["checked"]),
        "tableaux.is_symplectic_column": _column_tested,
    })


def per_layer_metrics(runner, untraced_rounds, traced_rounds):
    tracer = runner.tracer
    rounds = len(traced_rounds)
    counts = dict(tracer.counts)
    counts["straighten.s_steps"] = runner.trace_lines["S-step"]
    counts["straighten.p_steps"] = runner.trace_lines["P-step"]
    values = {f"{layer}.self_s": tracer.layer_ns[layer] / 1e9 / rounds for layer in LAYERS}
    for name in CALLS:
        stat = tracer.stats.get(name)
        values[f"{name}.calls"] = stat.calls / rounds if stat else 0
    for name in SECONDS:
        stat = tracer.stats.get(name)
        values[f"{name}.s"] = stat.ns / 1e9 / rounds if stat else 0
    for name in COUNTS:
        values[name] = counts.get(name, 0) / rounds
    for name, (num, den) in RATIOS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0
    op_seconds = {op.metric: s for op, s in runner.latencies().items() if op.metric}
    for name in OP_METRICS:
        values[name] = op_seconds.get(name, 0)
    untraced, traced = statistics.median(untraced_rounds), statistics.median(traced_rounds)
    values["fail_share"] = sum(runner.failures.values()) / runner.attempted
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return {name: values[name] for name in metric_names()}
