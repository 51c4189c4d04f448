import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropmat

from tropmat.cli import main
from tropmat.geometry import ConvexSet
from tropmat.ideals import IdealDescriptor
from tropmat.matrix import TropMatrix, parse_matrix


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


def test_ideal_subcommands(capsys):
    code, out = run(capsys, "ideal", "principal", '[["0","0"],["1","2"]]')
    assert code == 0 and out == {"descriptor": "closed:interval:1"}
    code, out = run(capsys, "ideal", "contains", "open:3", '[["0","0"],["0","2"]]')
    assert out == {"descriptor": "open:3", "contains": True}
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

    def broken(samples, seed):
        res = verify_mod.SuiteResult("duality", samples, seed)
        res.fail("synthetic defect")
        return res

    monkeypatch.setitem(verify_mod.SUITES, "duality", broken)
    code, out = run(capsys, "verify", "--samples", "5", "--seed", "1", "--suite", "duality")
    assert code == 2
    assert out["failed"] == 1 and out["failures"] == ["synthetic defect"]


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
    code, out = run(capsys, "witness", "--M", "(0,1)", "--N", "{0}")
    assert code == 1 and "expected" in out["error"]


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
    ],
)
def test_errors_quote_long_input_cut(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 1
    assert list(json.loads(out)) == ["error"]
    assert len(out.encode()) < 400, out


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
