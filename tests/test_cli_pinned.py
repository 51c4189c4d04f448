"""The CLI's JSON output, pinned byte for byte on a fixed corpus.

``cli.main`` runs in-process on 1,076 argvs:

- ``classify`` on the 625 matrices over {-inf, -1, 0, 1/2, 2};
- ``witness``, ``idempotent`` and ``subgroup`` on the 11 x 11 pairs of sets
  with endpoints in {-inf, 0, 1/2, +inf};
- ``relate`` with each of the 8 relations on 11 fixed matrix pairs.

The SHA-256 of every ``(argv, exit code, stdout)`` is a constant.  A change
that moves one byte of output, or one exit code, fails here; the constant
is never recomputed to let such a change pass.
"""

import contextlib
import hashlib
import io
import itertools
import json

from tropmat.cli import main

PINNED_SHA256 = "f597296aacdaecd3df05b3ef9bd13c3f36533f10e3edaa73afc8e893823f055e"

_SCALARS = ["-inf", "-1", "0", "1/2", "2"]
_ENDPOINTS = ["-inf", "0", "1/2", "+inf"]
_RELATIONS = ["R", "L", "H", "D", "J", "leqR", "leqL", "leqJ"]
_PAIRS = [
    ('[["0","0"],["1","2"]]', '[["0","0"],["5","6"]]'),
    ('[["0","0"],["1","2"]]', '[["3","3"],["4","5"]]'),
    ('[["-inf","-inf"],["-inf","-inf"]]', '[["0","-inf"],["-inf","0"]]'),
    ('[["0","-inf"],["-inf","0"]]', '[["-inf","-inf"],["-inf","-inf"]]'),
    ('[["0","-inf"],["-inf","1/2"]]', '[["0","-5"],["-7","0"]]'),
    ('[["0","-1"],["-1","0"]]', '[["0","-1"],["-1","0"]]'),
    ('[["-inf","0"],["-inf","-inf"]]', '[["0","-inf"],["-inf","-inf"]]'),
    ('[["0","1/2"],["-inf","0"]]', '[["0","-inf"],["-inf","0"]]'),
    ('[["2","-inf"],["1/2","0"]]', '[["0","2"],["-1","1/2"]]'),
    ('[["1","1"],["1","1"]]', '[["0","-inf"],["3","0"]]'),
    ('[["0","-inf"],["0","-inf"]]', '[["-inf","0"],["-inf","0"]]'),
]


def _sets() -> list[str]:
    points = ["{" + p + "}" for p in _ENDPOINTS]
    intervals = [f"[{lo},{hi}]" for lo, hi in itertools.combinations(_ENDPOINTS, 2)]
    return ["empty"] + points + intervals


def corpus() -> list[list[str]]:
    argvs = [
        ["classify", json.dumps([[a, b], [c, d]])]
        for a, b, c, d in itertools.product(_SCALARS, repeat=4)
    ]
    sets = _sets()
    for command in ("witness", "idempotent", "subgroup"):
        argvs += [[command, "--M", m, "--N", n] for m in sets for n in sets]
    argvs += [["relate", rel, a, b] for a, b in _PAIRS for rel in _RELATIONS]
    return argvs


def digest(argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(json.dumps([argv, code, out.getvalue()]).encode() + b"\n")
    return h.hexdigest()


def test_cli_output_is_pinned_on_the_corpus():
    argvs = corpus()
    assert len({tuple(a) for a in argvs}) == len(argvs) == 625 + 3 * 11 * 11 + 8 * 11
    assert digest(argvs) == PINNED_SHA256
