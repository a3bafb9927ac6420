"""Command-line front end.

Eight subcommands: ``info``, ``roots``, ``sigma``, ``classify``, ``bracket``,
``derham``, ``karoubi``, ``moment``.  Every subcommand reads a quiver file,
prints a human-readable report, and optionally writes the same numbers as
JSON (schema ``necklace-kit/1``) via ``--json PATH``.

Exit codes: 0 on success, 1 on a domain error (bad vectors, a call over
its size or work budget, unsolvable inputs), 2 on a usage error, among them
a numeric flag out of its range.

``main`` builds the parser once per process, on its first call, and parses
every later argument list with it; ``build_parser`` returns a fresh parser
on each call.  argparse keeps no state between parses: each makes a new
namespace and, for help and usage messages, a new formatter sized to the
terminal at that moment.

Only ``quiver`` and ``textio`` are imported with this module.  Each command
imports the layer it runs when it runs (``roots``, ``strata``, ``lie``,
``forms`` or ``numerics``), so a process loads numpy only for ``moment``.
No flag sets a bound of a layer: ``roots``, ``sigma`` and ``classify`` are
refused by the one step budget ``quiver.WORK_CAP`` alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .quiver import Quiver, double, euler_form, tits_form
from .textio import (
    parse_dim_vector,
    parse_necklace,
    parse_quiver_file,
    parse_weight,
)

if TYPE_CHECKING:
    from .strata import SigmaMembership

SCHEMA = "necklace-kit/1"

VALUE_FLAGS = {"--lambda", "--alpha", "--box", "--w1", "--w2"}


def _starts_negative(text: str) -> bool:
    """A minus sign, then a digit or a point and a digit: "-2,1", "-.5,0.25"."""
    rest = text[2:] if text.startswith("-.") else text[1:]
    return text.startswith("-") and rest[:1].isdigit()


def _absorb_negative_values(argv: list[str]) -> list[str]:
    """Join value flags with arguments that look like negative numbers,
    which argparse would otherwise read as unknown options."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in VALUE_FLAGS and i + 1 < len(argv) and _starts_negative(argv[i + 1]):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _checked(convert, accept, requirement: str):
    """argparse type: ``convert`` the text, then refuse values failing ``accept``."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse reports "invalid int value: ..."
    return parse


_POSITIVE_INT = _checked(int, lambda value: value >= 1, "at least 1")
_NONNEGATIVE_INT = _checked(int, lambda value: value >= 0, "at least 0")
_POSITIVE_FLOAT = _checked(
    float, lambda value: math.isfinite(value) and value > 0, "finite and positive"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necklace-kit",
        description=(
            "Exact computations with necklace Lie algebras of quivers and the "
            "coadjoint-orbit classification for deformed preprojective algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("quiver", help="path to a quiver file")
        p.add_argument("--json", metavar="PATH", help="also write the report as JSON")

    p_info = sub.add_parser("info", help="Euler/Tits forms and the double quiver")
    common(p_info)

    p_roots = sub.add_parser("roots", help="enumerate positive roots in a box")
    common(p_roots)
    p_roots.add_argument("--box", required=True, help="comma-separated box bound, e.g. 2,3")

    p_sigma = sub.add_parser("sigma", help="membership in the flatness/simple sets")
    common(p_sigma)
    p_sigma.add_argument("--alpha", required=True, help="dimension vector, e.g. 1,2")
    p_sigma.add_argument("--lambda", dest="lam", required=True, help="weight, e.g. -2,1")

    p_classify = sub.add_parser("classify", help="full coadjoint-orbit classification")
    common(p_classify)
    p_classify.add_argument("--alpha", required=True)
    p_classify.add_argument("--lambda", dest="lam", required=True)

    p_bracket = sub.add_parser("bracket", help="necklace bracket of two words")
    common(p_bracket)
    p_bracket.add_argument("--w1", required=True, help='first necklace, e.g. "x x"')
    p_bracket.add_argument("--w2", required=True, help='second necklace, e.g. "x* x*"')

    def graded(name: str, summary: str, base_help: str | None = None) -> None:
        """derham and karoubi: the table's bounds and the --base switch."""
        p = sub.add_parser(name, help=summary)
        common(p)
        p.add_argument("--max-degree", type=_NONNEGATIVE_INT, default=3)
        p.add_argument("--max-length", type=_NONNEGATIVE_INT, default=4)
        p.add_argument("--base", action="store_true", help=base_help)

    graded(
        "derham",
        "graded homology dimensions of the form algebra",
        "work on the base quiver instead of its double",
    )
    graded("karoubi", "graded dimensions of the commutator quotients")

    p_moment = sub.add_parser("moment", help="numerical moment-map solves and ranks")
    common(p_moment)
    p_moment.add_argument("--alpha", required=True)
    p_moment.add_argument("--lambda", dest="lam", required=True)
    p_moment.add_argument("--seeds", type=_POSITIVE_INT, default=10, help="run seeds 0..N-1")
    p_moment.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-10)
    p_moment.add_argument("--max-iter", type=_POSITIVE_INT, default=200)
    p_moment.add_argument("--svd-tol", type=_POSITIVE_FLOAT, default=1e-7)
    return parser


_parser = functools.cache(build_parser)


def _fmt_matrix(matrix) -> list[str]:
    cells = [[str(x) for x in row] for row in matrix]
    width = max((len(c) for row in cells for c in row), default=1)
    return ["  [" + " ".join(c.rjust(width) for c in row) + "]" for row in cells]


def _vec(v) -> list[int]:
    return [int(x) for x in v]


def _weight_json(lam) -> list[str]:
    return [str(Fraction(x)) for x in lam]


def _decomposition_json(decomposition):
    if decomposition is None:
        return None
    return [{"beta": _vec(beta), "multiplicity": mult} for beta, mult in decomposition]


def _membership_json(m: SigmaMembership) -> dict:
    return {
        "alpha": _vec(m.alpha),
        "in_S": m.in_s,
        "in_Sigma": m.in_sigma,
        "root_kind": m.root_class.kind if m.root_class else None,
        "on_hyperplane": m.on_hyperplane,
        "p_alpha": m.p_alpha,
        "witness_S": _decomposition_json(m.witness_s),
        "witness_Sigma": _decomposition_json(m.witness_sigma),
        "reason": m.reason,
    }


def _quiver_json(q: Quiver) -> dict:
    return {
        "vertices": q.vertex_count,
        "arrows": [[a.label, a.source, a.target] for a in q.arrows],
    }


def cmd_info(q: Quiver, args) -> dict:
    chi = euler_form(q)
    t_matrix = tits_form(q)
    dq = double(q)
    report = {
        "schema": SCHEMA,
        "command": "info",
        "quiver": _quiver_json(q),
        "euler_form": [list(row) for row in chi],
        "tits_form": [list(row) for row in t_matrix],
        "double_arrows": [[a.label, a.source, a.target] for a in dq.arrows],
    }
    print(f"vertices: {q.vertex_count}")
    print("arrows: " + (", ".join(str(a) for a in q.arrows) or "(none)"))
    print("euler form:")
    print("\n".join(_fmt_matrix(chi)))
    print("tits form:")
    print("\n".join(_fmt_matrix(t_matrix)))
    print("double arrows: " + ", ".join(str(a) for a in dq.arrows))
    return report


def cmd_roots(q: Quiver, args) -> dict:
    from . import roots

    box = parse_dim_vector(args.box, q.vertex_count)
    found = roots.enumerate_positive_roots(q, box)
    report = {
        "schema": SCHEMA,
        "command": "roots",
        "quiver": _quiver_json(q),
        "box": _vec(box),
        "roots": [
            {
                "alpha": _vec(vec),
                "kind": verdict.kind,
                "reflections": list(verdict.reflections),
                "terminal": _vec(verdict.terminal) if verdict.terminal else None,
            }
            for vec, verdict in found
        ],
    }
    print(f"positive roots in box {tuple(box)}:")
    for vec, verdict in found:
        print(f"  {tuple(vec)}  {verdict.kind}")
    reals = sum(1 for _, v in found if v.kind == roots.REAL)
    print(f"total: {len(found)} ({reals} real, {len(found) - reals} imaginary)")
    return report


def cmd_sigma(q: Quiver, args) -> dict:
    from . import strata

    alpha = parse_dim_vector(args.alpha, q.vertex_count)
    lam = parse_weight(args.lam, q.vertex_count)
    membership = strata.sigma_membership(q, alpha, lam)
    report = {
        "schema": SCHEMA,
        "command": "sigma",
        "quiver": _quiver_json(q),
        "lambda": _weight_json(lam),
        **_membership_json(membership),
    }
    print(f"alpha = {tuple(alpha)}, lambda = ({args.lam})")
    print(f"  root: {membership.root_class.kind if membership.root_class else 'n/a'}")
    print(f"  on hyperplane: {membership.on_hyperplane}")
    print(f"  p(alpha): {membership.p_alpha}")
    print(f"  in S_lambda: {membership.in_s}")
    if membership.witness_s:
        print(f"    violated by {membership.witness_s}")
    print(f"  in Sigma_lambda: {membership.in_sigma}")
    if membership.witness_sigma:
        print(f"    violated by {membership.witness_sigma}")
    if membership.reason:
        print(f"  reason: {membership.reason}")
    return report


def cmd_classify(q: Quiver, args) -> dict:
    from . import strata

    alpha = parse_dim_vector(args.alpha, q.vertex_count)
    lam = parse_weight(args.lam, q.vertex_count)
    result = strata.classify(q, alpha, lam)
    types_json = []
    for tr in result.types:
        types_json.append(
            {
                "type": [[mult, _vec(beta)] for mult, beta in tr.rep_type],
                "local_dim_vector": _vec(tr.local.dim_vector),
                "ext_matrix": [list(row) for row in tr.local.ext_matrix],
                "slice_lhs": tr.slice_check.lhs if tr.slice_check else None,
                "slice_rhs": tr.slice_check.rhs if tr.slice_check else None,
                "smooth": tr.slice_check.smooth if tr.slice_check else None,
            }
        )
    two_alpha_json = None
    if result.two_alpha is not None:
        two_alpha_json = {
            "applies": result.two_alpha.applies,
            "half_alpha": _vec(result.two_alpha.alpha),
            "lhs": result.two_alpha.lhs,
            "rhs": result.two_alpha.rhs,
            "smooth": result.two_alpha.smooth,
        }
    report = {
        "schema": SCHEMA,
        "command": "classify",
        "quiver": _quiver_json(q),
        "alpha": _vec(alpha),
        "lambda": _weight_json(lam),
        "root_kind": result.root_class.kind,
        "on_hyperplane": result.on_hyperplane,
        "delta_lambda_sample": [_vec(v) for v in result.delta_sample],
        "membership": _membership_json(result.membership),
        "coadjoint": result.verdict.coadjoint,
        "reason": result.verdict.reason,
        "minimal": result.verdict.minimal,
        "minimal_witness": _vec(result.verdict.minimal_witness)
        if result.verdict.minimal_witness
        else None,
        "dim_fiber": result.verdict.dim_fiber,
        "dim_quotient": result.verdict.dim_quotient,
        "rep_types": types_json,
        "two_alpha": two_alpha_json,
    }
    print(f"alpha = {tuple(alpha)}, lambda = ({args.lam})")
    print(f"  root: {result.root_class.kind}; on hyperplane: {result.on_hyperplane}")
    print(f"  roots on the hyperplane up to alpha: {[tuple(v) for v in result.delta_sample]}")
    print(f"  in S: {result.membership.in_s}, in Sigma: {result.membership.in_sigma}")
    if result.verdict.minimal is not None:
        print(f"  minimal: {result.verdict.minimal}")
    if result.verdict.minimal_witness:
        print(f"    smaller member: {tuple(result.verdict.minimal_witness)}")
    print(f"  coadjoint orbit: {result.verdict.coadjoint} ({result.verdict.reason})")
    if result.verdict.dim_fiber is not None:
        print(f"  dim fiber: {result.verdict.dim_fiber}")
        print(f"  dim quotient: {result.verdict.dim_quotient}")
    if result.types:
        print("  representation types:")
        for tr in result.types:
            parts = "; ".join(f"{m} x {tuple(b)}" for m, b in tr.rep_type)
            if tr.slice_check is not None:
                verdict = "smooth" if tr.slice_check.smooth else "not smooth"
                print(
                    f"    ({parts})  slice {tr.slice_check.lhs} vs {tr.slice_check.rhs}: {verdict}"
                )
            else:
                print(f"    ({parts})")
    if result.two_alpha is not None:
        ta = result.two_alpha
        print(
            f"  doubled simple {tuple(ta.alpha)}: slice {ta.lhs} vs {ta.rhs} -> "
            f"{'smooth' if ta.smooth else 'not smooth'}"
        )
    return report


def cmd_bracket(q: Quiver, args) -> dict:
    from . import lie

    dq = double(q)
    w1 = parse_necklace(dq, args.w1)
    w2 = parse_necklace(dq, args.w2)
    result = lie.kontsevich_bracket(w1, w2)
    terms = sorted(((str(w), coeff) for w, coeff in result.terms()), key=lambda t: t[0])
    report = {
        "schema": SCHEMA,
        "command": "bracket",
        "quiver": _quiver_json(q),
        "w1": str(w1),
        "w2": str(w2),
        "result": [[text, str(coeff)] for text, coeff in terms],
    }
    print(str(result))
    return report


def _graded_table(q: Quiver, args, title: str, value) -> dict:
    """The report of ``derham`` or ``karoubi``: value(quiver, degree, length)
    for every degree and length up to ``--max-degree`` and ``--max-length``."""
    target = q if args.base else double(q)
    table = [
        {"degree": degree, "length": length, "dim": value(target, degree, length)}
        for degree in range(0, args.max_degree + 1)
        for length in range(0, args.max_length + 1)
    ]
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "quiver": _quiver_json(q),
        "on_double": not args.base,
        "table": table,
    }
    print(f"{title} (degree, length, dim):")
    for row in table:
        print(f"  {row['degree']:>2} {row['length']:>2} {row['dim']:>4}")
    return report


def cmd_derham(q: Quiver, args) -> dict:
    from . import forms

    return _graded_table(q, args, "graded homology dimensions", forms.graded_homology_dim)


def cmd_karoubi(q: Quiver, args) -> dict:
    from . import forms

    return _graded_table(q, args, "commutator-quotient dimensions", forms.karoubi_count)


def cmd_moment(q: Quiver, args) -> dict:
    from . import numerics

    alpha = parse_dim_vector(args.alpha, q.vertex_count)
    lam = parse_weight(args.lam, q.vertex_count)

    def run(seed: int) -> dict:
        result = numerics.solve(q, alpha, lam, seed, tol=args.tol, max_iter=args.max_iter)
        entry = {
            "seed": seed,
            "converged": result.converged,
            "residual_norm": result.residual_norm,
            "iterations": result.iterations,
            "jacobian_rank": None,
            "fiber_dim_estimate": None,
            "singular_values": None,
            "rank_gap": None,
        }
        if result.converged:
            # 10 * tol overflows to inf for tol above max / 10, which
            # rank_report refuses as a tolerance
            residual_tol = min(args.tol * 10, sys.float_info.max)
            rank = numerics.rank_report(
                q, alpha, lam, result.point, svd_tol=args.svd_tol, residual_tol=residual_tol
            )
            entry["jacobian_rank"] = rank.jacobian_rank
            entry["fiber_dim_estimate"] = rank.fiber_dim_estimate
            entry["singular_values"] = rank.singular_values
            entry["rank_gap"] = rank.cut_gap
        return entry

    results = [run(seed) for seed in range(args.seeds)]
    report = {
        "schema": SCHEMA,
        "command": "moment",
        "quiver": _quiver_json(q),
        "alpha": _vec(alpha),
        "lambda": _weight_json(lam),
        "rep_dimension": numerics.rep_dimension(q, alpha),
        "tol": args.tol,
        "max_iter": args.max_iter,
        "svd_tol": args.svd_tol,
        "results": results,
    }
    print(f"moment solves for alpha = {tuple(alpha)}, lambda = ({args.lam}):")
    for entry in results:
        status = "converged" if entry["converged"] else "FAILED"
        extra = ""
        if entry["converged"]:
            extra = (
                f", rank {entry['jacobian_rank']}, fiber dim {entry['fiber_dim_estimate']}"
            )
        print(
            f"  seed {entry['seed']:>2}: {status} in {entry['iterations']} iterations, "
            f"residual {entry['residual_norm']:.2e}{extra}"
        )
    converged = sum(1 for e in results if e["converged"])
    print(f"converged: {converged}/{len(results)}")
    return report


COMMANDS = {
    "info": cmd_info,
    "roots": cmd_roots,
    "sigma": cmd_sigma,
    "classify": cmd_classify,
    "bracket": cmd_bracket,
    "derham": cmd_derham,
    "karoubi": cmd_karoubi,
    "moment": cmd_moment,
}


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


_encode_string = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {
    str: _encode_string,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the types a report holds: dicts
    with str keys, lists, tuples, str, int, float, bool and None.  The
    standard library encodes with ``indent`` in pure Python."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = [f"{inner}{_encode_string(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        items = [inner + _json_text(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_absorb_negative_values(argv))
    try:
        quiver = parse_quiver_file(args.quiver)
        report = COMMANDS[args.command](quiver, args)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(_json_text(report) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
