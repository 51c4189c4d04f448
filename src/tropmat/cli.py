"""Command-line interface with JSON-only output.

Subcommands: classify, relate, witness, idempotent, regular, subgroup,
ideal {contains,principal,compare,generate,decompose}, verify.  Success
prints a JSON object and exits 0; invalid input prints ``{"error": ...}``
and exits 1; an internal verification failure (a library defect) exits 2.

Matrices are JSON arrays of scalar tokens such as ``[["0","-inf"],["1/2","3"]]``,
sets are ``empty``, ``{p}``, or ``[lo,hi]``, and ideal descriptors are
``closed:<type>``, ``open:<w>``, or ``openline``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .geometry import ConvexSet, diameter, iso_type, proj_column_space, proj_row_space
from .green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    r_class_of,
    related,
    witness_Z,
)
from .ideals import (
    IdealDescriptor,
    decompose,
    ideal_compare,
    ideal_contains,
    ideal_from_generators,
    principal_ideal_of,
)
from .matrix import left_residual, parse_matrix, right_residual
from .semiring import _as_fraction, _quote
from .structure import (
    group_type_of_H,
    idempotent_form,
    idempotent_in_H,
    is_idempotent,
    regular_witness,
    subgroup_element,
)
from .verify import SUITES, run_suite


def _rational_flag(token: str):
    """argparse type of the ``--a/--x/--y`` flags: the scalar ``p/q`` grammar.

    Its errors pass through as ``ArgumentTypeError``, so the message names
    the grammar; argparse would otherwise print this function's name.
    """
    try:
        return _as_fraction(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_flag(token: str) -> int:
    """argparse type of ``--samples``/``--seed``: an integer of the scalar grammar."""
    value = _rational_flag(token)
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"bad integer {_quote(token)}: expected an integer")
    return int(value)


# argparse's own messages can echo a whole argument (an unknown subcommand,
# an unrecognized or ambiguous option), so they are cut at this many
# characters, far above any message whose token ``_quote`` has cut.
_MESSAGE_CHARS = 256


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so every input
    problem funnels into one JSON error path."""

    def error(self, message):
        if len(message) > _MESSAGE_CHARS:
            message = f"{message[:_MESSAGE_CHARS]}… ({len(message)} characters)"
        raise ValueError(message)


def _cmd_classify(ns) -> tuple[dict, int]:
    a = parse_matrix(ns.matrix)
    pc = proj_column_space(a)
    pr = proj_row_space(a)
    rc = r_class_of(a)
    idp = is_idempotent(a)
    form = None
    if idp:
        f = idempotent_form(a)
        form = {"kind": f.kind, **f.params()}
    return (
        {
            "matrix": a.to_tokens(),
            "pc": str(pc),
            "pr": str(pr),
            "rclass": rc.kind,
            "rclass_params": rc.params(),
            "iso_type": str(iso_type(pc)),
            "diameter": str(diameter(pc)),
            "idempotent": idp,
            "idempotent_form": form,
            "monomial": a.is_monomial(),
            "principal_ideal": str(principal_ideal_of(a)),
        },
        0,
    )


def _cmd_relate(ns) -> tuple[dict, int]:
    rel = GreenRelation.from_token(ns.relation)
    a = parse_matrix(ns.a)
    b = parse_matrix(ns.b)
    holds = related(rel, a, b)
    out = {"relation": ns.relation, "holds": holds}
    if holds:
        if rel in (GreenRelation.D, GreenRelation.J):
            out["witness"] = d_class_witness(a, b).to_tokens()
        elif rel is GreenRelation.LEQ_R:
            out["witness"] = left_residual(b, a).witness().to_tokens()
        elif rel is GreenRelation.LEQ_L:
            out["witness"] = right_residual(a, b).witness().to_tokens()
        elif rel is GreenRelation.LEQ_J:
            x, y = j_factorization(a, b)
            out["witness_pair"] = [x.to_tokens(), y.to_tokens()]
    return out, 0


def _cmd_witness(ns) -> tuple[dict, int]:
    m = ConvexSet.parse(ns.m)
    n = ConvexSet.parse(ns.n)
    z = witness_Z(m, n)
    return (
        {
            "witness": z.to_tokens(),
            "pc": str(proj_column_space(z)),
            "pr": str(proj_row_space(z)),
        },
        0,
    )


def _cmd_idempotent(ns) -> tuple[dict, int]:
    m = ConvexSet.parse(ns.m)
    n = ConvexSet.parse(ns.n)
    e = idempotent_in_H(m, n)
    if e is None:
        return {"exists": False, "idempotent": None, "form": None}, 0
    f = idempotent_form(e)
    return (
        {
            "exists": True,
            "idempotent": e.to_tokens(),
            "form": {"kind": f.kind, **f.params()},
        },
        0,
    )


def _cmd_regular(ns) -> tuple[dict, int]:
    a = parse_matrix(ns.matrix)
    y = regular_witness(a)
    return {"witness": y.to_tokens(), "verified": a @ y @ a == a}, 0


def _cmd_subgroup(ns) -> tuple[dict, int]:
    m = ConvexSet.parse(ns.m)
    n = ConvexSet.parse(ns.n)
    group = group_type_of_H(m, n)
    out = {
        "group_type": group.value,
        "idempotent": idempotent_in_H(m, n).to_tokens(),
    }
    if ns.family is not None:
        if ns.a is None:
            raise ValueError("--family needs --a")
        element = subgroup_element(ns.family, ns.a, ns.x, ns.y)
        out["family"] = ns.family
        out["element"] = element.to_tokens()
    return out, 0


def _cmd_ideal(ns) -> tuple[dict, int]:
    if ns.action == "contains":
        d = IdealDescriptor.parse(ns.descriptor)
        a = parse_matrix(ns.matrix)
        return {"descriptor": str(d), "contains": ideal_contains(d, a)}, 0
    if ns.action == "principal":
        return {"descriptor": str(principal_ideal_of(parse_matrix(ns.matrix)))}, 0
    if ns.action == "compare":
        d1 = IdealDescriptor.parse(ns.first)
        d2 = IdealDescriptor.parse(ns.second)
        return {"order": ideal_compare(d1, d2).value}, 0
    if ns.action == "generate":
        gens = [parse_matrix(text) for text in ns.matrices]
        return {"descriptor": str(ideal_from_generators(gens))}, 0
    principal, removed = decompose(IdealDescriptor.parse(ns.descriptor))
    return (
        {
            "principal": str(principal),
            "removed_j_class": None if removed is None else str(removed),
        },
        0,
    )


def _cmd_verify(ns) -> tuple[dict, int]:
    result = run_suite(ns.suite, ns.samples, ns.seed)
    return result.as_dict(), 2 if result.failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tropmat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="full structural classification of one matrix")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("relate", help="decide a Green's relation or preorder")
    p.add_argument("relation", help="one of " + ", ".join(m.value for m in GreenRelation))
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_relate)

    p = sub.add_parser("witness", help="matrix with prescribed column/row spaces")
    p.add_argument("--M", dest="m", required=True)
    p.add_argument("--N", dest="n", required=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("idempotent", help="the idempotent of an H-class, if any")
    p.add_argument("--M", dest="m", required=True)
    p.add_argument("--N", dest="n", required=True)
    p.set_defaults(handler=_cmd_idempotent)

    p = sub.add_parser("regular", help="verified witness Y with A Y A = A")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_regular)

    p = sub.add_parser("subgroup", help="group type of a maximal subgroup")
    p.add_argument("--M", dest="m", required=True)
    p.add_argument("--N", dest="n", required=True)
    p.add_argument("--family", help="one of W, X, Y, Z")
    p.add_argument("--a", type=_rational_flag)
    p.add_argument("--x", type=_rational_flag)
    p.add_argument("--y", type=_rational_flag)
    p.set_defaults(handler=_cmd_subgroup)

    p = sub.add_parser("ideal", help="two-sided ideal calculus")
    action = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    q = action.add_parser("contains")
    q.add_argument("descriptor")
    q.add_argument("matrix")
    q = action.add_parser("principal")
    q.add_argument("matrix")
    q = action.add_parser("compare")
    q.add_argument("first")
    q.add_argument("second")
    q = action.add_parser("generate")
    q.add_argument("matrices", nargs="+")
    q = action.add_parser("decompose")
    q.add_argument("descriptor")
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--samples", type=_int_flag, default=1000)
    p.add_argument("--seed", type=_int_flag, default=42)
    p.add_argument("--suite", required=True, help="one of " + ", ".join(sorted(SUITES)))
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        result, code = ns.handler(ns)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except AssertionError as exc:
        print(json.dumps({"error": f"internal verification failure: {exc}"}))
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
