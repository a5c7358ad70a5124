"""Command-line interface.

Verbs: eval, conjugate, projbody, diffbody, psi, check, falsify, replay.
Inputs are JSON documents recognized by shape; values print as canonical
"p/q" strings.  `--format machine` swaps the human text for the underlying
JSON document, and `--out PATH` writes that document to a file regardless
of what is printed.  Exit status is 0 exactly when nothing failed.
"""

import argparse
import sys

from .analysis import falsify_contravariance
from .errors import ConvvalError, ParseError
from .io import (
    dump_json,
    function_to_doc,
    lifted_to_doc,
    load_path,
    polytope_to_doc,
    value_to_doc,
)
from .lifted import POS_INF, LiftedPolytope, conjugate, conjugate_cd
from .maxaffine import MaxAffineFn
from .polytopes import Polytope, difference_body, projection_body_support
from .rational import Q, format_rational, parse_vector
from .suites import (
    CANONICAL_MEASURE,
    SUITES,
    contravariance_gap_witness,
    emit_report,
    replay_witness,
    report_doc,
    run_suite,
)
from .valuations import ValuationSpec, psi_eval, psi_expand


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized content")
    parser.add_argument("--trials", type=int, default=None, help="case count override")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="stdout style: readable text or the JSON document")
    parser.add_argument("--out", default=None, help="also write the JSON document to this path")


def build_parser():
    root = argparse.ArgumentParser(prog="convval",
                                   description="exact piecewise-linear convexity toolkit")
    subs = root.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("eval", help="evaluate a function document at a point")
    p.add_argument("function", help="path to a function or lifted-polytope document")
    p.add_argument("--point", required=True, help="comma-separated rationals, e.g. 1,-1/2")
    _common_flags(p)

    p = subs.add_parser("conjugate", help="convex conjugate of a function document")
    p.add_argument("function", help="path to a function or lifted-polytope document")
    _common_flags(p)

    p = subs.add_parser("projbody", help="projection body support value")
    p.add_argument("polytope", help="path to a polytope document")
    p.add_argument("--direction", required=True, help="comma-separated rationals")
    _common_flags(p)

    p = subs.add_parser("diffbody", help="difference body of a polytope")
    p.add_argument("polytope", help="path to a polytope document")
    _common_flags(p)

    p = subs.add_parser("psi", help="apply a valuation specification to a function")
    p.add_argument("spec", help="path to a valuation specification document")
    p.add_argument("function", help="path to a function document")
    p.add_argument("--point", default=None,
                   help="evaluate at this point; omit to materialize the whole output")
    _common_flags(p)

    p = subs.add_parser("check", help="run a named property suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    _common_flags(p)

    p = subs.add_parser("falsify", help="search for a contravariance counterexample")
    p.add_argument("spec", nargs="?", default=None,
                   help="optional valuation specification document")
    p.add_argument("--dim", type=int, default=3, help="dimension for the default specification")
    p.add_argument("--budget", type=int, default=1000, help="candidate limit")
    _common_flags(p)

    p = subs.add_parser("replay", help="recompute a recorded witness")
    p.add_argument("witness", help="path to a witness document")
    _common_flags(p)

    return root


def _emit(args, human_text, doc):
    if args.format == "machine":
        sys.stdout.write(dump_json(doc))
    else:
        sys.stdout.write(human_text if human_text.endswith("\n") else human_text + "\n")
    if args.out:
        dump_json(doc, args.out)


def _load_function(path):
    obj = load_path(path)
    if isinstance(obj, (MaxAffineFn, LiftedPolytope)):
        return obj
    raise ParseError("expected a function or lifted-polytope document", path)


def _parse_point(text, flag, dim, what="point"):
    """A vector option of the right length, or a ParseError at the flag."""
    vec = parse_vector(text, flag)
    if len(vec) != dim:
        raise ParseError(f"{what} has length {len(vec)}, expected {dim}", flag)
    return vec


def _cmd_eval(args):
    obj = _load_function(args.function)
    point = _parse_point(args.point, "--point", obj.dim)
    value = obj.evaluate(point)
    if value is POS_INF:
        _emit(args, "inf", {"kind": "str", "value": "inf"})
    else:
        _emit(args, format_rational(value), value_to_doc(value))
    return 0


def _cmd_conjugate(args):
    obj = _load_function(args.function)
    if isinstance(obj, MaxAffineFn):
        doc = lifted_to_doc(conjugate(obj))
    else:
        doc = function_to_doc(conjugate_cd(obj))
    _emit(args, dump_json(doc), doc)
    return 0


def _cmd_projbody(args):
    body = load_path(args.polytope)
    if not isinstance(body, Polytope):
        raise ParseError("expected a polytope document", args.polytope)
    u = _parse_point(args.direction, "--direction", body.dim, "direction")
    value = projection_body_support(body, u)
    _emit(args, format_rational(value), value_to_doc(value))
    return 0


def _cmd_diffbody(args):
    body = load_path(args.polytope)
    if not isinstance(body, Polytope):
        raise ParseError("expected a polytope document", args.polytope)
    doc = polytope_to_doc(difference_body(body))
    _emit(args, dump_json(doc), doc)
    return 0


def _cmd_psi(args):
    spec = load_path(args.spec)
    if not isinstance(spec, ValuationSpec):
        raise ParseError("expected a valuation specification document", args.spec)
    f = load_path(args.function)
    if not isinstance(f, MaxAffineFn):
        raise ParseError("expected a function document", args.function)
    if f.dim != spec.dim:
        raise ParseError(f"function dim {f.dim}, valuation dim {spec.dim}", args.function)
    if args.point is not None:
        point = _parse_point(args.point, "--point", spec.dim)
        value = psi_eval(spec, f, point)
        _emit(args, format_rational(value), value_to_doc(value))
    else:
        doc = function_to_doc(psi_expand(spec, f))
        _emit(args, dump_json(doc), doc)
    return 0


def _cmd_check(args):
    report = run_suite(args.suite, args.seed, args.trials)
    _emit(args, emit_report(report, "human"), report_doc(report))
    return 0 if report.failures == 0 else 1


def _cmd_falsify(args):
    if args.spec is not None:
        spec = load_path(args.spec)
        if not isinstance(spec, ValuationSpec):
            raise ParseError("expected a valuation specification document", args.spec)
    else:
        spec = ValuationSpec("equivariant", args.dim, Q(0), CANONICAL_MEASURE)
    result = falsify_contravariance(spec, budget=args.budget)
    doc = contravariance_gap_witness(spec, result)
    if doc is not None:
        human = (f"counterexample after {result['tried']} candidates: "
                 f"lhs {format_rational(result['lhs'])} vs rhs {format_rational(result['rhs'])} "
                 f"(gap {format_rational(result['gap'])})")
        _emit(args, human, doc)
        return 0
    doc = {"found": False, "tried": result["tried"]}
    _emit(args, f"no counterexample in {result['tried']} candidates", doc)
    return 1


def _cmd_replay(args):
    doc = load_path(args.witness)
    if not isinstance(doc, dict) or "check" not in doc:
        raise ParseError("expected a witness document", args.witness)
    result = replay_witness(doc)
    status = "match" if result["match"] else "MISMATCH"
    human = (f"replay {result['check']}: {status}\n"
             f"lhs {result['lhs']}\nrhs {result['rhs']}")
    _emit(args, human, result)
    return 0 if result["match"] else 1


_HANDLERS = {
    "eval": _cmd_eval,
    "conjugate": _cmd_conjugate,
    "projbody": _cmd_projbody,
    "diffbody": _cmd_diffbody,
    "psi": _cmd_psi,
    "check": _cmd_check,
    "falsify": _cmd_falsify,
    "replay": _cmd_replay,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except ConvvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
