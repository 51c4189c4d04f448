import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropmat

from tropmat.cli import main
from tropmat.geometry import ConvexSet
from tropmat.ideals import IdealDescriptor
from tropmat.matrix import parse_matrix
from tropmat.structure import subgroup_element


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify(capsys):
    code, out = run(capsys, "classify", '[["0","0"],["1","2"]]')
    assert code == 0
    assert out["pc"] == "[1,2]"
    assert out["pr"] == "[0,1]"
    assert out["rclass"] == "interval"
    assert out["rclass_params"] == {"x": "1", "y": "2"}
    assert out["idempotent"] is False
    assert out["monomial"] is False
    assert out["diameter"] == "1"
    assert out["principal_ideal"] == "closed:interval:1"


def test_classify_round_trips_every_printed_value(capsys):
    matrices = [
        '[["0","0"],["1","2"]]',
        '[["-inf","-inf"],["-inf","-inf"]]',
        '[["0","-inf"],["-inf","1/2"]]',
        '[["0","-5"],["-7","0"]]',
    ]
    for text in matrices:
        code, out = run(capsys, "classify", text)
        assert code == 0
        assert parse_matrix(json.dumps(out["matrix"])) == parse_matrix(text)
        ConvexSet.parse(out["pc"])
        ConvexSet.parse(out["pr"])
        IdealDescriptor.parse(out["principal_ideal"])


def test_relate(capsys):
    code, out = run(capsys, "relate", "J", '[["0","0"],["1","2"]]', '[["0","0"],["5","6"]]')
    assert code == 0
    assert out == {
        "relation": "J",
        "holds": True,
        "witness": [["0", "0"], ["5", "6"]],
    }
    code, out = run(capsys, "relate", "R", '[["0","0"],["1","2"]]', '[["3","3"],["4","5"]]')
    assert out["holds"] is True
    code, out = run(capsys, "relate", "H", '[["0","0"],["1","2"]]', '[["0","0"],["5","6"]]')
    assert out["holds"] is False


def test_relate_preorder_witnesses_verify(capsys):
    a_text = '[["0","0"],["1","2"]]'
    b_text = '[["0","0"],["0","3"]]'
    code, out = run(capsys, "relate", "leqR", a_text, b_text)
    assert code == 0 and out["holds"] is True
    a, b = parse_matrix(a_text), parse_matrix(b_text)
    x = parse_matrix(json.dumps(out["witness"]))
    assert b @ x == a
    code, out = run(capsys, "relate", "leqJ", a_text, b_text)
    x, y = (parse_matrix(json.dumps(t)) for t in out["witness_pair"])
    assert x @ b @ y == a
    at_text = '[["0","1"],["0","2"]]'
    bt_text = '[["0","0"],["0","3"]]'
    code, out = run(capsys, "relate", "leqL", at_text, bt_text)
    assert code == 0 and out["holds"] is True
    at, bt = parse_matrix(at_text), parse_matrix(bt_text)
    x = parse_matrix(json.dumps(out["witness"]))
    assert x @ bt == at


def test_witness(capsys):
    code, out = run(capsys, "witness", "--M", "{1}", "--N", "{-3}")
    assert code == 0
    assert out["witness"] == [["0", "-3"], ["1", "-2"]]
    assert out["pc"] == "{1}" and out["pr"] == "{-3}"
    code, out = run(capsys, "witness", "--M", "[0,1]", "--N", "[0,2]")
    assert code == 1
    assert "error" in out


def test_idempotent(capsys):
    code, out = run(capsys, "idempotent", "--M", "[1,3]", "--N", "[-3,-1]")
    assert code == 0
    assert out["exists"] is True
    assert out["idempotent"] == [["0", "-3"], ["1", "0"]]
    assert out["form"]["kind"] == "diagonal"
    code, out = run(capsys, "idempotent", "--M", "{-inf}", "--N", "{+inf}")
    assert code == 0
    assert out == {"exists": False, "idempotent": None, "form": None}


def test_regular(capsys):
    code, out = run(capsys, "regular", '[["0","0"],["1","2"]]')
    assert code == 0
    assert out["verified"] is True
    a = parse_matrix('[["0","0"],["1","2"]]')
    y = parse_matrix(json.dumps(out["witness"]))
    assert a @ y @ a == a


def test_subgroup(capsys):
    code, out = run(capsys, "subgroup", "--M", "[1,3]", "--N", "[-3,-1]")
    assert code == 0
    assert out["group_type"] == "reals-x-s2"
    code, out = run(
        capsys,
        "subgroup", "--M", "[1,3]", "--N", "[-3,-1]",
        "--family", "X", "--a", "2", "--x", "1", "--y", "3",
    )
    assert out["element"] == [["2", "-1"], ["3", "2"]]
    code, out = run(capsys, "subgroup", "--M", "{-inf}", "--N", "{+inf}")
    assert code == 1 and "error" in out
    code, out = run(capsys, "subgroup", "--M", "[1,3]", "--N", "[-3,-1]", "--family", "X")
    assert (code, out) == (1, {"error": "--family needs --a"})


@pytest.mark.parametrize(
    "m, n, params",
    [
        ("[0,1]", "[-1,0]", ("--family", "W", "--a", "1")),
        ("[0,1]", "[-1,0]", ("--family", "X", "--a", "1", "--x", "0", "--y", "5")),
    ],
    ids=["W-on-an-interval-class", "X-with-another-interval"],
)
def test_subgroup_family_element_outside_the_class_is_an_error(capsys, m, n, params):
    code, out = run(capsys, "subgroup", "--M", m, "--N", n, *params)
    assert code == 1 and list(out) == ["error"]
    assert f"family {params[1]}" in out["error"] and f"({m}, {n})" in out["error"]


def test_ideal_subcommands(capsys):
    code, out = run(capsys, "ideal", "principal", '[["0","0"],["1","2"]]')
    assert code == 0 and out == {"descriptor": "closed:interval:1"}
    code, out = run(capsys, "ideal", "contains", "open:3", '[["0","0"],["0","2"]]')
    assert out == {"descriptor": "open:3", "contains": True}
    code, out = run(capsys, "ideal", "contains", "closed:interval:0", '[["0","0"],["0","2"]]')
    assert code == 1 and "positive finite diameter" in out["error"]
    code, out = run(capsys, "ideal", "compare", "open:3", "closed:interval:3")
    assert out == {"order": "less"}
    code, out = run(
        capsys, "ideal", "generate", '[["0","0"],["0","1"]]', '[["0","0"],["0","2"]]'
    )
    assert out == {"descriptor": "closed:interval:2"}
    code, out = run(capsys, "ideal", "decompose", "open:2")
    assert out == {"principal": "closed:interval:2", "removed_j_class": "interval:2"}
    code, out = run(capsys, "ideal", "decompose", "closed:point")
    assert out == {"principal": "closed:point", "removed_j_class": None}
    code, out = run(capsys, "ideal", "decompose", "openline")
    assert out == {"principal": "closed:halfinf", "removed_j_class": "halfinf"}


def test_verify(capsys):
    code, out = run(capsys, "verify", "--samples", "200", "--seed", "42", "--suite", "duality")
    assert code == 0
    assert out["passed"] == 200 and out["failed"] == 0
    assert out["rng"] == "mt19937"


def test_verify_failure_exits_2(capsys, monkeypatch):
    import tropmat.verify as verify_mod

    monkeypatch.setitem(verify_mod.SUITES, "duality", lambda rng, i: "synthetic defect")
    code = main(["verify", "--samples", "1", "--seed", "1", "--suite", "duality"])
    assert code == 2
    # every byte, key order included
    assert capsys.readouterr().out == (
        '{"suite": "duality", "samples": 1, "seed": 1, "rng": "mt19937", '
        '"passed": 0, "failed": 1, "failures": ["synthetic defect"]}\n'
    )


def test_verify_exhaustive_suite_ignores_samples(capsys):
    code, out = run(capsys, "verify", "--suite", "idempotent-grid", "--samples", "1", "--seed", "0")
    assert code == 0
    assert (out["samples"], out["passed"], out["failed"]) == (1296, 1296, 0)


def test_verify_output_bytes_are_pinned(capsys):
    code = main(["verify", "--suite", "duality", "--samples", "3", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"suite": "duality", "samples": 3, "seed": 1, "rng": "mt19937", '
        '"passed": 3, "failed": 0, "failures": []}\n'
    )


@pytest.mark.parametrize("suite", ["ideal-order", "idempotent-grid"])
@pytest.mark.parametrize("samples", ["1000001", "9" * 4000], ids=["one-over", "4000-digits"])
def test_verify_refuses_samples_over_the_ceiling_before_any_draw(
    capsys, monkeypatch, suite, samples
):
    import tropmat.verify as verify_mod

    calls = []
    monkeypatch.setitem(verify_mod.SUITES, suite, lambda rng, i: calls.append(i))
    code, out = run(capsys, "verify", "--suite", suite, "--samples", samples, "--seed", "1")
    assert (code, out, calls) == (1, {"error": "samples must be at most 1,000,000"}, [])


def test_verify_runs_the_ceiling_itself(monkeypatch):
    import tropmat.verify as verify_mod

    calls = []
    monkeypatch.setitem(verify_mod.SUITES, "duality", lambda rng, i: calls.append(i))
    result = verify_mod.run_suite("duality", 1_000_000, 1)
    assert (result.samples, result.passed, len(calls)) == (1_000_000, 1_000_000, 1_000_000)


def test_verify_rejects_negative_seed(capsys):
    code, out = run(capsys, "verify", "--samples", "5", "--seed", "-1", "--suite", "duality")
    assert code == 1 and "error" in out


def test_verify_is_deterministic(capsys):
    runs = [
        run(capsys, "verify", "--samples", "150", "--seed", "7", "--suite", "oracle-agreement")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_error_paths(capsys):
    code, out = run(capsys, "classify", '[["x"]]')
    assert code == 1 and "error" in out
    code, out = run(capsys, "classify", "not json")
    assert code == 1 and "offset" in out["error"]
    code, out = run(capsys, "relate", "J", '[["0","0"],["1","2"]]', '[["0"]]')
    assert code == 1
    code, out = run(capsys, "verify", "--samples", "-3", "--seed", "1", "--suite", "duality")
    assert code == 1
    code, out = run(capsys, "verify", "--samples", "1/2", "--seed", "1", "--suite", "duality")
    assert code == 1 and "expected an integer" in out["error"]
    code, out = run(capsys, "witness", "--M", "(0,1)", "--N", "{0}")
    assert code == 1 and "expected" in out["error"]


def test_classify_squares_a_matrix_once(capsys, monkeypatch):
    from tropmat.matrix import TropMatrix

    matmul, products = TropMatrix.__matmul__, []

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(TropMatrix, "__matmul__", counted)
    for text, form in [
        ('[["0","-1"],["1","0"]]', {"kind": "diagonal", "x": "-1", "y": "1"}),
        ('[["-inf","-inf"],["-inf","-inf"]]', {"kind": "zero"}),
        ('[["0","0"],["1","2"]]', None),
    ]:
        products.clear()
        code, out = run(capsys, "classify", text)
        assert code == 0 and out["idempotent_form"] == form and out["idempotent"] is bool(form)
        assert len(products) == 1, text


def test_classify_reports_an_idempotent_in_no_family(capsys, monkeypatch):
    import tropmat.structure as structure

    monkeypatch.setattr(structure, "_family_form", lambda a: None)
    code, out = run(capsys, "classify", '[["0","-1"],["1","0"]]')
    assert code == 2
    assert out == {
        "error": 'internal verification failure: the idempotent [["0", "-1"], ["1", "0"]] '
        "is in no family"
    }
    code, out = run(capsys, "classify", '[["0","0"],["1","2"]]')
    assert code == 0 and out["idempotent_form"] is None


def test_unknown_flags_and_commands_are_errors(capsys):
    code, out = run(capsys, "classify", '[["0","0"],["1","2"]]', "--fast")
    assert code == 1 and "error" in out
    code, out = run(capsys, "frobnicate")
    assert code == 1 and "error" in out
    code, out = run(capsys, "relate", "K", '[["0","0"],["1","2"]]', '[["0","0"],["1","2"]]')
    assert code == 1


def test_set_tokens_round_trip_through_cli(capsys):
    for m, n in [("{-inf}", "{-inf}"), ("[-inf,+inf]", "[-inf,+inf]"), ("{5/2}", "{0}")]:
        code, out = run(capsys, "witness", "--M", m, "--N", n)
        assert code == 0
        assert out["pc"] == m and out["pr"] == n
        assert ConvexSet.parse(out["pc"]) == ConvexSet.parse(m)


SUBGROUP = ("subgroup", "--M", "[1,3]", "--N", "[-3,-1]", "--family", "X")


@pytest.mark.parametrize(
    "argv",
    [
        ("ideal", "compare", "closed:interval:1/0", "openline"),
        ("ideal", "compare", "closed:interval:1e3", "openline"),
        ("ideal", "compare", "open:0.5", "openline"),
        ("ideal", "compare", "open:1/0", "openline"),
        (*SUBGROUP, "--a", "1e3", "--x", "1", "--y", "3"),
        (*SUBGROUP, "--a", "2", "--x", "1/0", "--y", "3"),
        ("ideal", "compare", "open:" + "7" * 5000, "openline"),
        ("classify", "[[" + "7" * 5000 + ",0],[0,0]]"),
        ("classify", "[[" + "7" * 4100 + ",0],[0,0]]"),
        ("classify", "[" * 30000 + "]" * 30000),
        ("classify", json.dumps([[["x" * 5000], "0"], ["0", "0"]])),
        # Unicode digits outside ASCII: int() and Fraction() would read them
        ("classify", '[["\u0663","0"],["0","0"]]'),
        ("classify", '[["\uff15","0"],["0","0"]]'),
    ],
    ids=[
        "interval-1/0",
        "interval-1e3",
        "open-0.5",
        "open-1/0",
        "flag-a-1e3",
        "flag-x-1/0",
        "open-5000-digits",
        "bare-int-5000-digits",
        "bare-int-4100-digits",
        "nested-30000-deep",
        "array-entry",
        "arabic-indic-digit",
        "fullwidth-digit",
    ],
)
def test_bad_rational_tokens_are_json_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert list(out) == ["error"] and isinstance(out["error"], str)
    # the message names the rational grammar, not a private function or an
    # interpreter limit
    assert "'p/q'" in out["error"]
    assert "_as_fraction" not in out["error"]


LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("ideal", "compare", "open:" + "7" * 5000, "openline"),
        ("ideal", "compare", "closed:" + LONG, "openline"),
        ("ideal", "compare", LONG, "openline"),
        ("witness", "--M", LONG, "--N", "empty"),
        ("witness", "--M", "[0,1,2" + " " * 5000 + "]", "--N", "empty"),
        ("witness", "--M", "[2," + " " * 5000 + "1]", "--N", "empty"),
        ("classify", json.dumps([[" " * 5000 + "x", "0"], ["0", "0"]])),
        ("classify", json.dumps([[["x" * 5000], "0"], ["0", "0"]])),
        ("relate", "K" * 3000, "[[0]]", "[[0]]"),
        ("subgroup", "--M", "[1,3]", "--N", "[-3,-1]", "--family", "K" * 5000, "--a", "1"),
        ("verify", "--suite", "K" * 3000),
        ("verify", "--suite", "duality", "--samples", "x" * 3000),
        # below CPython's 4,300-digit int limit, above the token cap
        ("verify", "--suite", "duality", "--samples", "1", "--seed", "9" * 4200),
        ("K" * 5000,),
        # a set named in a message is cut like a quoted token
        ("subgroup", "--M", "[0," + "7" * 3990 + "]", "--N", "{0}"),
        ("witness", "--M", "[0," + "7" * 3990 + "]", "--N", "{0}"),
        ("ideal", "compare", "open:-" + "7" * 3990, "openline"),
    ],
    ids=[
        "open-width",
        "iso-type",
        "descriptor",
        "set",
        "set-endpoints",
        "set-order",
        "rational",
        "array-entry",
        "relation",
        "family",
        "suite",
        "samples",
        "seed",
        "command",
        "subgroup-set",
        "witness-set",
        "open-width-nonpositive",
    ],
)
def test_errors_quote_long_input_cut(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 1
    assert list(json.loads(out)) == ["error"]
    assert len(out.encode()) < 400, out


A = '[["0","0"],["1","2"]]'
# argvs for one process, among them every kind of error the argv reader
# reports itself; a family element, then a plain call on the same H-class
REUSE_ARGVS = [
    ["frobnicate"],
    ["witness", "--M", "{1}"],
    ["subgroup", "--M", "[0,1]", "--N", "[-1,0]", "--family", "X", "--a", "1e3"],
    ["verify", "--suite", "duality", "--samples", "x"],
    ["ideal"],
    ["regular", A, "extra"],
    ["subgroup", "--M", "[0,1]", "--N", "[-1,0]", "--family", "X", "--a=1", "--x=0", "--y=1"],
    ["subgroup", "--M", "[0,1]", "--N", "[-1,0]"],
    ["classify", A],
    ["relate", "leqJ", A, '[["0","0"],["0","3"]]'],
    ["ideal", "compare", "open:3", "closed:interval:3"],
    ["verify", "--suite", "duality", "--samples", "3", "--seed", "1"],
    ["classify", '[["x"]]'],
]


def test_one_process_serves_every_call(capsys):
    argvs = [list(argv) for argv in REUSE_ARGVS]
    outputs = {}
    for argv in argvs + argvs[::-1]:
        code = main(argv)
        outputs.setdefault(tuple(argv), set()).add((code, capsys.readouterr().out))
    assert argvs == REUSE_ARGVS  # main leaves its argv as it was
    # each argv gave the same bytes forward and reversed
    assert all(len(seen) == 1 for seen in outputs.values()), outputs
    results = {argv: next(iter(seen)) for argv, seen in outputs.items()}
    for argv in REUSE_ARGVS[:6]:
        code, out = results[tuple(argv)]
        assert code == 1 and list(json.loads(out)) == ["error"], argv
    family, plain = (json.loads(results[tuple(a)][1]) for a in REUSE_ARGVS[6:8])
    assert family["family"] == "X" and family["element"] == [["1", "0"], ["1", "1"]]
    assert plain == {"group_type": "reals-x-s2", "idempotent": [["0", "-1"], ["0", "0"]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        ([LONG], "argument command: invalid choice: 'xxx"),
        (["ideal"], "the following arguments are required: action"),
        (["ideal", LONG, "openline"], "argument action: invalid choice: 'xxx"),
        (["classify", A, "--" + LONG], "unrecognized arguments: --xxx"),
        (["classify", A, "-" + LONG + "=1"], "unrecognized arguments: -xxx"),
        (["verify", "--s", "3", "--suite", "duality"], "ambiguous option: --s could match"),
        (["witness", "--N", "{0}", "--M"], "argument --M: expected one argument"),
        (["witness", "--M", LONG], "the following arguments are required: --N"),
        (["verify", "--seed", "1"], "the following arguments are required: --suite"),
        (["relate", "J", A], "the following arguments are required: b"),
        (["ideal", "generate"], "the following arguments are required: matrices"),
        (["regular", A, LONG], "unrecognized arguments: xxx"),
        ([*SUBGROUP, "--a", LONG], "argument --a: "),
        ([*SUBGROUP, "--a", "1", "--x", "0", "--y", LONG], "argument --y: "),
        (["verify", "--suite", "duality", "--samples", LONG], "argument --samples: "),
        (["verify", "--suite", "duality", "--seed=1/2"], "argument --seed: bad integer '1/2'"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "no-action",
        "unknown-action",
        "unknown-flag",
        "unknown-flag-with-value",
        "ambiguous-flag",
        "flag-without-value",
        "missing-flag",
        "missing-suite",
        "missing-positional",
        "missing-variadic",
        "extra-positional",
        "bad-a",
        "bad-y",
        "bad-samples",
        "bad-seed",
    ],
)
def test_each_bad_argv_is_one_short_json_error(capsys, argv, message):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1 and len(out.encode()) < 400, out
    error = json.loads(out)
    assert list(error) == ["error"] and isinstance(error["error"], str)
    assert error["error"].startswith(message), error


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["ideal", "--help"], ["verify", "--suite", "duality", "-h"]]
)
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    from tropmat.verify import SUITES

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "usage:" in out and "tropmat ideal generate matrices..." in out
    assert all(suite in out for suite in SUITES)


def test_flag_spellings_agree(capsys):
    base = ["verify", "--suite", "duality", "--seed", "1"]
    outs = [
        run(capsys, *base, *flag)
        for flag in (["--samples", "3"], ["--samples=3"], ["--sam", "3"], ["--sam=3"])
    ]
    # the flags in another order, and a repeated flag whose last value wins
    outs.append(
        run(capsys, "verify", "--samples", "5", "--seed=1", "--samples", "3", "--su", "duality")
    )
    assert outs == [outs[0]] * 5 and outs[0][1]["samples"] == 3


def test_a_flag_value_may_start_with_a_minus(capsys):
    expected = subgroup_element("X", Fraction(-1, 2), 0, 1).to_tokens()
    h_class = ("subgroup", "--M", "[0,1]", "--N", "[-1,0]", "--family", "X")
    for a in (["--a", "-1/2"], ["--a=-1/2"]):
        code, out = run(capsys, *h_class, *a, "--x", "0", "--y", "1")
        assert code == 0 and out["element"] == expected


_BROKEN_RESIDUAL = """
import sys
import tropmat.structure as structure
from tropmat.cli import main
from tropmat.matrix import ResidualMatrix

if not sys.flags.optimize:
    sys.exit(3)
structure.left_residual = lambda b, a: ResidualMatrix([["-inf", "-inf"], ["-inf", "-inf"]])
sys.exit(main(["regular", '[["0","0"],["1","2"]]']))
"""


def test_verification_survives_python_O():
    # a residual that returns a wrong answer must still be caught with asserts off
    src = str(Path(tropmat.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_RESIDUAL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert list(out) == ["error"]
    assert out["error"].startswith("internal verification failure: regularity witness defect")
