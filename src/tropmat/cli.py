"""Command-line interface with JSON-only output.

Subcommands: classify, relate, witness, idempotent, regular, subgroup,
ideal {contains,principal,compare,generate,decompose}, verify.  Success
prints a JSON object and exits 0; invalid input prints ``{"error": ...}``
and exits 1; an internal verification failure (a library defect) exits 2.

Matrices are JSON arrays of scalar tokens such as ``[["0","-inf"],["1/2","3"]]``,
sets are ``empty``, ``{p}``, or ``[lo,hi]``, and ideal descriptors are
``closed:<type>``, ``open:<w>``, or ``openline``.

Flags take ``--flag value`` or ``--flag=value`` anywhere after the command; a
unique prefix names a long flag, the last repeat wins and a value may start
with ``-`` (``--a -1/2``).  ``-h``/``--help`` prints this text and exits 0.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from importlib import import_module
from types import SimpleNamespace

from .semiring import NEG_INF, POS_INF, _as_fraction, _cut, _quote, _ratio


@cache
def _lib(name: str):
    """The library module ``tropmat.<name>``, imported on the first call.
    Each handler reaches its modules through here, so a fresh process loads
    only the modules its command runs; an import statement in the handler
    would cost microseconds on every call."""
    return import_module(f"{__package__}.{name}")


def _int_flag(token: str) -> int:
    """Reader of ``--samples``/``--seed``: an integer of the scalar grammar."""
    num, den = _ratio(token)
    if den != 1:
        raise ValueError(f"bad integer {_quote(token)}: expected an integer")
    return num


def _diameter(t) -> str:
    """The diameter of a set of isometry type t: ``0`` for the empty set and
    points, the interval's rational diameter, or ``inf`` for unbounded sets."""
    if t.kind == "interval":
        return str(t.diameter)
    return "0" if t.kind in ("empty", "point") else "inf"


def _rclass(pc) -> tuple[str, dict[str, str]]:
    """The R-class of a matrix, named by its column space pc: the shape of
    pc (one of eight) and its finite endpoints, ``x`` below ``y`` and a
    lone one ``y``."""
    if pc.is_empty:
        return "zero", {}
    lo, hi = pc.lo, pc.hi
    if pc.is_point:
        if lo.is_finite:
            return "point", {"y": str(lo)}
        return ("point-neginf" if lo == NEG_INF else "point-posinf"), {}
    if lo == NEG_INF:
        return ("fullline", {}) if hi == POS_INF else ("half-low", {"y": str(hi)})
    if hi == POS_INF:
        return "half-high", {"y": str(lo)}
    return "interval", {"x": str(lo), "y": str(hi)}


def _cmd_classify(ns) -> tuple[dict, int]:
    geometry = _lib("geometry")
    a = _lib("matrix").parse_matrix(ns.matrix)
    pc = geometry.proj_column_space(a)
    t = geometry.iso_type(pc)
    pr = geometry.proj_row_space(a)
    rclass, rclass_params = _rclass(pc)
    idp = a @ a == a
    form = None
    if idp:
        f = _lib("structure").idempotent_form(a)
        form = {"kind": f.kind, **f.params()}
    return (
        {
            "matrix": a.to_tokens(),
            "pc": str(pc),
            "pr": str(pr),
            "rclass": rclass,
            "rclass_params": rclass_params,
            "iso_type": str(t),
            "diameter": _diameter(t),
            "idempotent": idp,
            "idempotent_form": form,
            "monomial": a.is_monomial(),
            "principal_ideal": str(_lib("ideals").principal_ideal_of(a)),
        },
        0,
    )


def _cmd_relate(ns) -> tuple[dict, int]:
    green, matrix = _lib("green"), _lib("matrix")
    GreenRelation = green.GreenRelation
    rel = GreenRelation(ns.relation)
    a = matrix.parse_matrix(ns.a)
    b = matrix.parse_matrix(ns.b)
    holds = green.related(rel, a, b)
    out = {"relation": ns.relation, "holds": holds}
    if holds:
        if rel in (GreenRelation.D, GreenRelation.J):
            out["witness"] = green.d_class_witness(a, b).to_tokens()
        elif rel is GreenRelation.LEQ_R:
            out["witness"] = matrix.left_residual(b, a).witness().to_tokens()
        elif rel is GreenRelation.LEQ_L:
            out["witness"] = matrix.right_residual(a, b).witness().to_tokens()
        elif rel is GreenRelation.LEQ_J:
            x, y = green.j_factorization(a, b)
            out["witness_pair"] = [x.to_tokens(), y.to_tokens()]
    return out, 0


def _cmd_witness(ns) -> tuple[dict, int]:
    geometry = _lib("geometry")
    m = geometry.ConvexSet.parse(ns.m)
    n = geometry.ConvexSet.parse(ns.n)
    z = _lib("green").witness_Z(m, n)
    return (
        {
            "witness": z.to_tokens(),
            "pc": str(geometry.proj_column_space(z)),
            "pr": str(geometry.proj_row_space(z)),
        },
        0,
    )


def _cmd_idempotent(ns) -> tuple[dict, int]:
    geometry, structure = _lib("geometry"), _lib("structure")
    m = geometry.ConvexSet.parse(ns.m)
    n = geometry.ConvexSet.parse(ns.n)
    e = structure.idempotent_in_H(m, n)
    if e is None:
        return {"exists": False, "idempotent": None, "form": None}, 0
    f = structure.idempotent_form(e)
    return (
        {
            "exists": True,
            "idempotent": e.to_tokens(),
            "form": {"kind": f.kind, **f.params()},
        },
        0,
    )


def _cmd_regular(ns) -> tuple[dict, int]:
    a = _lib("matrix").parse_matrix(ns.matrix)
    y = _lib("structure").regular_witness(a)
    return {"witness": y.to_tokens(), "verified": a @ y @ a == a}, 0


def _cmd_subgroup(ns) -> tuple[dict, int]:
    geometry, structure = _lib("geometry"), _lib("structure")
    m = geometry.ConvexSet.parse(ns.m)
    n = geometry.ConvexSet.parse(ns.n)
    group = structure.group_type_of_H(m, n)
    out = {
        "group_type": group.value,
        "idempotent": structure.idempotent_in_H(m, n).to_tokens(),
    }
    if ns.family is not None:
        if ns.a is None:
            raise ValueError("--family needs --a")
        element = structure.subgroup_element(ns.family, ns.a, ns.x, ns.y)
        if geometry.proj_column_space(element) != m or geometry.proj_row_space(element) != n:
            raise ValueError(
                f"the family {ns.family} element is outside the H-class at ({_cut(m)}, {_cut(n)})"
            )
        out["family"] = ns.family
        out["element"] = element.to_tokens()
    return out, 0


def _cmd_ideal(ns) -> tuple[dict, int]:
    ideals, parse_matrix = _lib("ideals"), _lib("matrix").parse_matrix
    IdealDescriptor = ideals.IdealDescriptor
    if ns.action == "contains":
        d = IdealDescriptor.parse(ns.descriptor)
        a = parse_matrix(ns.matrix)
        return {"descriptor": str(d), "contains": ideals.ideal_contains(d, a)}, 0
    if ns.action == "principal":
        return {"descriptor": str(ideals.principal_ideal_of(parse_matrix(ns.matrix)))}, 0
    if ns.action == "compare":
        d1 = IdealDescriptor.parse(ns.first)
        d2 = IdealDescriptor.parse(ns.second)
        return {"order": ideals.ideal_compare(d1, d2).value}, 0
    if ns.action == "generate":
        gens = [parse_matrix(text) for text in ns.matrices]
        return {"descriptor": str(ideals.ideal_from_generators(gens))}, 0
    principal, removed = ideals.decompose(IdealDescriptor.parse(ns.descriptor))
    return (
        {
            "principal": str(principal),
            "removed_j_class": None if removed is None else str(removed),
        },
        0,
    )


def _cmd_verify(ns) -> tuple[dict, int]:
    result = _lib("verify").run_suite(ns.suite, ns.samples, ns.seed)
    return {name: getattr(result, name) for name in result.__slots__}, 2 if result.failed else 0


_M_N = {"--M": ("m", str, None, True), "--N": ("n", str, None, True)}
_AXY = {f"--{v}": (v, _as_fraction, None, False) for v in "axy"}

# Each command, and each ``ideal`` action, maps to its positional names (a last
# name ending in ``...`` takes one or more values), its flags and its handler.
# A flag maps to its attribute, the reader of its value, its default and
# whether it is required.
_COMMANDS = {
    "classify": (("matrix",), {}, _cmd_classify),
    "relate": (("relation", "a", "b"), {}, _cmd_relate),
    "witness": ((), _M_N, _cmd_witness),
    "idempotent": ((), _M_N, _cmd_idempotent),
    "regular": (("matrix",), {}, _cmd_regular),
    "subgroup": ((), {**_M_N, "--family": ("family", str, None, False), **_AXY}, _cmd_subgroup),
    "ideal": {
        "contains": (("descriptor", "matrix"), {}, _cmd_ideal),
        "principal": (("matrix",), {}, _cmd_ideal),
        "compare": (("first", "second"), {}, _cmd_ideal),
        "generate": (("matrices...",), {}, _cmd_ideal),
        "decompose": (("descriptor",), {}, _cmd_ideal),
    },
    "verify": ((), {
        "--samples": ("samples", _int_flag, 1000, False),
        "--seed": ("seed", _int_flag, 42, False),
        "--suite": ("suite", str, None, True),
    }, _cmd_verify),
}


def _read(argv):
    """The handler and namespace argv asks for; a bad argv raises ``ValueError``."""
    spec, tokens, ns = _COMMANDS, iter(argv), {}
    for level in ("command", "action"):
        if isinstance(spec, dict):
            choice = next(tokens, None)
            if choice is None:
                raise ValueError(f"the following arguments are required: {level}")
            if choice not in spec:
                choices = ", ".join(map(repr, spec))
                raise ValueError(
                    f"argument {level}: invalid choice: {_quote(choice)} (choose from {choices})"
                )
            ns[level], spec = choice, spec[choice]
    positionals, flags, handler = spec
    ns.update((attr, default) for attr, _, default, _ in flags.values())
    values = []
    for token in tokens:
        if token[:1] != "-":
            values.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags:  # a long flag may be named by a unique prefix
            long = flag.startswith("--") and len(flag) > 2
            matches = [f for f in flags if long and f.startswith(flag)]
            if len(matches) > 1:
                raise ValueError(f"ambiguous option: {_cut(flag)} could match {', '.join(matches)}")
            if not matches:
                raise ValueError(f"unrecognized arguments: {_cut(token)}")
            flag = matches[0]
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"argument {flag}: expected one argument")
        attr, reader, _, _ = flags[flag]
        try:
            ns[attr] = reader(value)
        except ValueError as exc:
            raise ValueError(f"argument {flag}: {exc}") from None
    names = [name.removesuffix("...") for name in positionals]
    if positionals and positionals[-1].endswith("...") and len(values) >= len(names):
        values[len(names) - 1 :] = [values[len(names) - 1 :]]
    if len(values) > len(names):
        raise ValueError(f"unrecognized arguments: {_cut(values[len(names)])}")
    ns.update(zip(names, values))
    missing = names[len(values) :] + [f for f, (a, _, _, r) in flags.items() if r and ns[a] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**ns)


def _usage() -> str:
    """The help text: the module docstring, a usage line for each command and
    ``ideal`` action of the table, the relations and the suites."""
    lines = [(__doc__ or "").strip(), "", "usage:"]
    for command, spec in _COMMANDS.items():
        for action, (names, flags, _) in spec.items() if isinstance(spec, dict) else [("", spec)]:
            words = [command, action, *names]
            for flag, (attr, _, _, required) in flags.items():
                words.append(f"{flag} {attr.upper()}" if required else f"[{flag} {attr.upper()}]")
            lines.append("  tropmat " + " ".join(filter(None, words)))
    lines.append("relations: " + ", ".join(r.value for r in _lib("green").GreenRelation))
    lines.append("suites: " + ", ".join(sorted(_lib("verify").SUITES)))
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run the command argv asks for (``sys.argv[1:]`` when argv is None),
    print its JSON result or error, and return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_usage())
        return 0
    try:
        handler, ns = _read(argv)
        result, code = handler(ns)
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
