"""Command-line interface.

Verbs: roots, dyck, polytope, tableaux, to-tableau, to-monomial, relations,
straighten, verify.  Output is plain text by default and JSON with
``--format json``; all output is deterministic for fixed flags and seed.
A JSON answer is byte-identical to ``json.dumps(answer, indent=2)`` (2-space
indent, non-ASCII as ``\\u`` escapes, keys in build order), streamed to the
output in pieces; an error is one compact JSON line on stderr.
Exit codes: 0 success, 1 domain error, exhausted memory or failed verification
(machine-readable JSON on stderr) or a reader that closed stdout early, 2 usage
error.
"""

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .fflv import dyck_paths, fflv_inequalities, lattice_points, multiexp_from_json, multiexp_to_json
from .liealg import bar, check_weight, positive_roots
from .correspondence import monomial_to_tableau, tableau_to_monomial
from .relations import generate_ideal, relation_text
from .pluecker import poly_to_json
from .straighten import straighten
from .tableaux import entry_str, enumerate_tableaux, tableau_from_json, tableau_pretty, tableau_to_json
from .verify import (
    check_counts,
    check_isotropy_projection,
    check_roundtrip,
    check_s_bridge,
    check_vanishing,
    sample_classical_flag,
    sample_degenerate_point,
)


def _parse_lambda(value, n):
    """``--lambda`` as a weight: parsed here, validated by liealg.check_weight."""
    try:
        lam = tuple(int(x) for x in value.split(","))
    except ValueError:
        raise ValueError(f"--lambda needs {n} comma-separated integers, got {value!r}") from None
    try:
        check_weight(n, lam)
    except ValueError:
        raise ValueError(f"--lambda needs {n} comma-separated nonnegative integers, got {value!r}") from None
    return lam


def _int_at_least(low):
    """argparse type: an integer of at least ``low``."""

    def parse(value):
        try:
            x = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if x < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {x}")
        return x

    return parse


def _load_json_arg(value):
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def _root_index_str(n, alpha, ascii_only):
    """The second index of a root as a letter: j, or j-bar for alpha_{i,jbar}."""
    return entry_str(n, bar(alpha.j, n) if alpha.barred else alpha.j, ascii_only)


def _root_str(n, alpha, ascii_only):
    return f"alpha_{{{alpha.i},{_root_index_str(n, alpha, ascii_only)}}}"


def _monomial_str(n, p, ascii_only):
    data = multiexp_to_json(n, p)
    if not data:
        return "1"
    pieces = []
    for item in data:
        root = item["root"]
        col = bar(root["j"], n) if root["barred"] else root["j"]
        body = f"f_{{{root['i']},{entry_str(n, col, ascii_only)}}}"
        pieces.append(body + (f"^{item['exp']}" if item["exp"] > 1 else ""))
    return " ".join(pieces)


_FLUSH_PIECES = 4096


def _json_scalar(value):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)  # a float, or the TypeError json raises for any other type


def _write_json(obj, write):
    """Write ``obj`` through ``write`` exactly as ``json.dumps(obj, indent=2)`` renders it.

    ``json`` indents only in its pure-Python encoder, so the containers are
    laid out here and every scalar goes through the C helpers ``json`` uses.
    A list of plain ints is joined once per (items, indent), since tableau
    shapes and columns recur thousands of times in one answer.  Pieces go to
    ``write`` every few thousand, so memory follows the answer, not its text.
    """
    pieces = []
    append = pieces.append
    int_lists = {}

    def emit(o, indent):  # indent: a newline and the spaces of o's depth
        if not isinstance(o, (dict, list, tuple)):
            append(_json_scalar(o))
            return
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        inner = indent + "  "
        if isinstance(o, dict):
            sep = "{"
            for k, v in o.items():
                key = encode_basestring_ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
                head = sep + inner + key + ": "
                if isinstance(v, (dict, list, tuple)):
                    append(head)
                    emit(v, inner)
                else:
                    append(head + _json_scalar(v))
                sep = ","
            append(indent + "}")
        else:
            for x in o:
                if type(x) is not int:
                    break
            else:  # plain ints only: True and 1.0 equal 1 but must not share its entry
                key = (tuple(o), indent)
                text = int_lists.get(key)
                if text is None:
                    items = ("," + inner).join(map(int.__repr__, o))
                    text = int_lists[key] = f"[{inner}{items}{indent}]"
                append(text)
                return
            sep = "["
            for x in o:
                if isinstance(x, (dict, list, tuple)):
                    append(sep + inner)
                    emit(x, inner)
                else:
                    append(sep + inner + _json_scalar(x))
                sep = ","
            append(indent + "]")
        if len(pieces) >= _FLUSH_PIECES:
            write("".join(pieces))
            pieces.clear()

    emit(obj, "\n")
    write("".join(pieces))


def _cmd_roots(args):
    roots = positive_roots(args.n)
    if args.format == "json":
        return [a.to_dict() for a in roots], 0
    return "\n".join(_root_str(args.n, a, args.ascii) for a in roots), 0


def _cmd_dyck(args):
    paths = dyck_paths(args.n)
    if args.format == "json":
        return [[a.to_dict() for a in p] for p in paths], 0
    lines = [" -> ".join(_root_str(args.n, a, args.ascii) for a in p) for p in paths]
    lines.append(f"{len(paths)} paths")
    return "\n".join(lines), 0


def _cmd_polytope(args):
    lam = _parse_lambda(args.lam, args.n)
    ineqs = fflv_inequalities(args.n, lam)
    count = len(lattice_points(args.n, lam))
    if args.format == "json":
        return {"inequalities": [q.to_dict() for q in ineqs], "lattice_point_count": count}, 0
    lines = []
    for q in ineqs:
        lhs = " + ".join(
            f"p_{{{a.i},{_root_index_str(args.n, a, args.ascii)}}}" for a in q.support
        )
        lines.append(f"{lhs} <= {q.rhs}")
    lines.append(f"lattice points: {count}")
    return "\n".join(lines), 0


def _cmd_tableaux(args):
    lam = _parse_lambda(args.lam, args.n)
    tabs = enumerate_tableaux(args.n, lam)
    if args.format == "json":
        return {"count": len(tabs), "tableaux": [tableau_to_json(args.n, t) for t in tabs]}, 0
    blocks = [tableau_pretty(args.n, t, args.ascii) for t in tabs]
    return f"{len(tabs)} tableaux\n\n" + "\n\n".join(blocks), 0


def _cmd_to_tableau(args):
    lam = _parse_lambda(args.lam, args.n)
    p = multiexp_from_json(args.n, _load_json_arg(args.monomial))
    tab = monomial_to_tableau(args.n, lam, p)
    if args.format == "json":
        return tableau_to_json(args.n, tab), 0
    return tableau_pretty(args.n, tab, args.ascii), 0


def _cmd_to_monomial(args):
    tab = tableau_from_json(args.n, _load_json_arg(args.tableau))
    lam, p = tableau_to_monomial(args.n, tab)
    if args.format == "json":
        return {"lambda": list(lam), "monomial": multiexp_to_json(args.n, p)}, 0
    return f"lambda = {','.join(map(str, lam))}\n{_monomial_str(args.n, p, args.ascii)}", 0


def _cmd_relations(args):
    rels = generate_ideal(args.n, args.kind)
    if args.format == "json":
        return [
            {"kind": r.kind, "label": r.label, "poly": poly_to_json(dict(r.poly))}
            for r in rels
        ], 0
    lines = [f"{r.label}: {relation_text(args.n, r, args.ascii)}" for r in rels]
    lines.append(f"{len(rels)} relations")
    return "\n".join(lines), 0


def _parse_columns(value):
    """``--columns '1,4;3'`` as ((1, 4), (3,))."""
    monomial = []
    for col in value.split(";"):
        try:
            monomial.append(tuple(int(x) for x in col.split(",")))
        except ValueError:
            raise ValueError(
                f"--columns takes ';'-separated columns of ','-separated integers, got the column {col!r}"
            ) from None
    return tuple(monomial)


def _cmd_straighten(args):
    monomial = _parse_columns(args.columns)
    # each trace line goes out as it comes, so a failing call still shows its steps
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    result = straighten(args.n, monomial, args.ring, trace=trace)
    items = sorted(result.items())
    if args.format == "json":
        return {
            "input": [list(col) for col in monomial],
            "ring": args.ring,
            "result": [
                {"coefficient": c, "tableau": tableau_to_json(args.n, tab)}
                for tab, c in items
            ],
        }, 0
    if not items:
        return "0", 0
    lines = []
    for tab, c in items:
        cols = " | ".join(
            " ".join(entry_str(args.n, e, args.ascii) for e in col) for col in tab
        )
        lines.append(f"{c:+d}  [{cols}]")
    return "\n".join(lines), 0


# Ideal suite -> (point kind, ideal kind, check).  The check is named and looked
# up when the verb runs, like generate_ideal, so rebinding either on this module
# (as the benchmark's probe and tracer do) reaches every call.
_IDEAL_SUITES = {
    "classical-ideal": ("classical", "classical", "check_vanishing"),
    "degenerate-ideal": ("degenerate", "degenerate", "check_vanishing"),
    "s-family": ("classical", "s-family", "check_s_bridge"),
}


def _cmd_verify(args):
    n = args.n
    seeds = list(range(args.seed, args.seed + args.seeds))
    if args.suite in ("counts", "roundtrip"):
        if args.lam is None:
            raise ValueError(f"--lambda is required for the {args.suite} suite")
        lam = _parse_lambda(args.lam, n)
        report = check_counts(n, lam) if args.suite == "counts" else check_roundtrip(n, lam)
    else:
        point_kind, ideal_kind, check = _IDEAL_SUITES[args.suite]
        sample = sample_classical_flag if point_kind == "classical" else sample_degenerate_point
        points = [sample(n, seed) for seed in seeds]
        report = globals()[check](generate_ideal(n, ideal_kind), points)
        if point_kind == "degenerate":
            for point in points:
                for k in range(1, n + 1):
                    if not check_isotropy_projection(point, k):
                        report["failures"].append(
                            {"seed": point.seed, "level": k, "error": "isotropy/projection failed"}
                        )
            report["ok"] = not report["failures"]
        report["seeds"] = seeds
    report["n"] = n
    code = 0 if report["ok"] else 1
    if args.report == "json":
        return report, code
    status = "PASS" if report["ok"] else "FAIL"
    lines = [f"{status} suite={args.suite} n={n} checked={report['checked']}"]
    for failure in report["failures"]:
        lines.append(f"  {failure}")
    return "\n".join(lines), code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympbw",
        description="Symplectic PBW tableaux, degenerate flag varieties, and their relations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, lam=False, lam_required=False, entries=True):
        p.add_argument("--n", type=_int_at_least(1), required=True, help="rank")
        if lam:
            p.add_argument(
                "--lambda", dest="lam", required=lam_required,
                help="weight as comma-separated fundamental multiplicities m_1,...,m_n",
            )
        p.add_argument("--out", help="write output to this file instead of stdout")
        if entries:  # a verify report renders no tableau entries and picks JSON by --report
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("--ascii", action="store_true", help="render barred entries as i'")

    common(sub.add_parser("roots", help="positive roots in triangle order"))
    common(sub.add_parser("dyck", help="symplectic Dyck paths"))
    common(sub.add_parser("polytope", help="FFLV polytope inequalities and point count"),
           lam=True, lam_required=True)
    common(sub.add_parser("tableaux", help="symplectic PBW semistandard tableaux"),
           lam=True, lam_required=True)

    p = sub.add_parser("to-tableau", help="monomial to tableau")
    common(p, lam=True, lam_required=True)
    p.add_argument("--monomial", required=True,
                   help="multi-exponent as JSON (or @file)")

    p = sub.add_parser("to-monomial", help="tableau to monomial")
    common(p)
    p.add_argument("--tableau", required=True, help="tableau as JSON (or @file)")

    p = sub.add_parser("relations", help="generators of the defining ideal")
    common(p)
    p.add_argument("--kind", choices=("classical", "degenerate", "s-family"),
                   default="classical")

    p = sub.add_parser("straighten", help="rewrite a Pluecker monomial in the tableau basis")
    common(p)
    p.add_argument("--ring", choices=("classical", "degenerate"), required=True)
    p.add_argument("--columns", required=True,
                   help="monomial columns, e.g. '1,4;3' for X_{1,4} X_{3}")
    p.add_argument("--trace", action="store_true", help="print rewriting steps to stderr")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, lam=True, entries=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the first sampled point")
    p.add_argument("--suite", required=True,
                   choices=("counts", "roundtrip", "classical-ideal", "degenerate-ideal", "s-family"))
    p.add_argument("--seeds", type=_int_at_least(0), default=20,
                   help="number of sampled points")
    p.add_argument("--report", choices=("text", "json"), default="text")

    return parser


# Built once, at import: a caller that runs main() many times in one process
# pays for it once, and building it costs more than a small command.
_PARSER = build_parser()

_COMMANDS = {
    "roots": _cmd_roots,
    "dyck": _cmd_dyck,
    "polytope": _cmd_polytope,
    "tableaux": _cmd_tableaux,
    "to-tableau": _cmd_to_tableau,
    "to-monomial": _cmd_to_monomial,
    "relations": _cmd_relations,
    "straighten": _cmd_straighten,
    "verify": _cmd_verify,
}


def _write_answer(answer, write):
    """Write a text answer as it is and any other through ``_write_json``, then a newline."""
    if isinstance(answer, str):
        write(answer)
    else:
        _write_json(answer, write)
    write("\n")


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        answer, code = _COMMANDS[args.verb](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_answer(answer, fh.write)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except MemoryError:  # a backstop for inputs no size check refuses yet
        print(json.dumps({"error": "out of memory"}), file=sys.stderr)
        return 1
    if not args.out:
        try:
            _write_answer(answer, sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early (``| head``): send what is still
            # buffered to the null device so the flush at exit cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
