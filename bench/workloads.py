"""The benchmark's four workloads.

Each workload draws op inputs from a stream seeded by ``--seed`` and runs
one operation of tropmat's public API per op, which it checks by an
independent route.  ``run`` returns ``(ok, record)``; the record of each of
the first ``prefix_ops`` ops feeds the run's SHA-256 decision digest.  Calls
go through the ``tropmat`` package attributes at call time, so the traced
run sees them once it patches those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

CASES_FILE = Path(__file__).resolve().parent / "cli_cases.json"


def tokens(a) -> str:
    return json.dumps(a.to_tokens())


def main_in_process(tm, argv) -> tuple[str, int]:
    """Run ``tropmat.cli.main(argv)`` here; return its stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tm.cli.main(list(argv))
    return out.getvalue(), code


def cold_call(argv, root: Path, env: dict) -> tuple[str, int]:
    """Run one fresh ``python -m tropmat.cli`` process and wait for it."""
    proc = subprocess.run(
        [sys.executable, "-m", "tropmat.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.stdout, proc.returncode


def start_pass(root: Path, env: dict) -> int:
    """Wall ns of one bare interpreter start, ``python -c pass``: the
    reference pass for timing fresh CLI processes.  A cold call costs about
    2.07 bare starts whether the host is fast or slow, while its raw wall
    time moves by 1.6x between runs."""
    t0 = perf_counter_ns()
    # Capture output: with pipes, waiting is driven by their end-of-file,
    # where a bare timeout makes ``subprocess`` poll with sleeps of up to
    # 50 ms, which would show as a 50 ms step in the timings.
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60, capture_output=True)
    return perf_counter_ns() - t0


class Cycle:
    """Items in seeded random order, a whole permutation at a time, so any
    run of whole cycles holds each item in the same share."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self._left = rng, list(items), []

    def next(self):
        if not self._left:
            self._left = list(self.items)
            self.rng.shuffle(self._left)
        return self._left.pop()


class Workload:
    name = ""
    prefix_ops = 256  # ops whose records feed the digest and the per-op counts

    def __init__(self, tm, seed: int):
        self.tm = tm
        self.rng = random.Random(f"{self.name}/{seed}")
        self.prepare()
        self.prefix = [self.generate() for _ in range(self.prefix_ops)]

    def prepare(self):
        """Build whatever the ops share; part of set-up."""

    def generate(self):
        raise NotImplementedError

    def run(self, inp) -> tuple[bool, str]:
        raise NotImplementedError

    def inputs(self):
        """The op input stream: the set-up prefix, then fresh inputs."""
        yield from self.prefix
        while True:
            yield self.generate()

    def known_defect(self, inp) -> bool:
        return False

    def at_boundary(self, ops_done: int) -> bool:
        return True

    def matrices(self) -> list:
        """Matrices of this workload's corpus, for per-layer timings."""
        return [x for inp in self.prefix for x in inp if isinstance(x, self.tm.TropMatrix)]

    def descriptors(self) -> list:
        tm = self.tm
        out = [tm.principal_ideal_of(a) for a in self.matrices()[:48]]
        out += [tm.IdealDescriptor.open_finite(Fraction(5, 2)), tm.IdealDescriptor.open_line()]
        return out

    def cold_argvs(self, count: int) -> list[list[str]]:
        """CLI commands asking this workload's questions, for cold calls."""
        raise NotImplementedError


class RelateOracle(Workload):
    """Fresh matrix pairs: all eight Green relations, the leqR/leqL answers
    checked by residuation.  The most geometry per op, nothing reused."""

    name = "relate-oracle"

    def prepare(self):
        self.profiles = Cycle(self.rng, self.tm.sampling.PROFILES)

    def generate(self):
        profile = self.profiles.next()
        s = self.tm.sampling
        return (s.sample_matrix(self.rng, profile), s.sample_matrix(self.rng, profile))

    def run(self, inp):
        tm = self.tm
        a, b = inp
        G = tm.GreenRelation
        got = {rel: tm.related(rel, a, b) for rel in G}
        ok = (
            got[G.LEQ_R] == tm.solves_right(b, a)
            and got[G.LEQ_L] == tm.solves_right(b.transpose(), a.transpose())
            and got[G.H] == (got[G.R] and got[G.L])
            and got[G.D] == got[G.J]
        )
        return ok, "".join("1" if got[rel] else "0" for rel in G)

    def cold_argvs(self, count):
        rels = [rel.value for rel in self.tm.GreenRelation]
        return [
            ["relate", rels[i % len(rels)], tokens(a), tokens(b)]
            for i, (a, b) in enumerate(self.prefix[:count])
        ]


class ConstructVerify(Workload):
    """Fresh inputs to the witness constructions, each checked by products.
    Bound by products and residuals; carries the slow tail."""

    name = "construct-verify"
    KINDS = ("regular", "jfact", "witness", "idempotent", "subgroup")

    def prepare(self):
        self.kinds = Cycle(self.rng, self.KINDS)
        self.profiles = Cycle(self.rng, self.tm.sampling.PROFILES)

    def generate(self):
        s, rng = self.tm.sampling, self.rng
        kind = self.kinds.next()
        profile = self.profiles.next()
        if kind == "regular":
            return (kind, s.sample_matrix(rng, profile))
        if kind == "jfact":
            return (kind, s.sample_matrix(rng, profile), s.sample_matrix(rng, profile))
        if kind == "witness":
            return (kind, *s.sample_isometric_pair(rng))
        if kind == "idempotent":
            return (kind, s.sample_convex_set(rng))
        a, b = (Fraction(rng.randrange(-20, 21), rng.randrange(1, 4)) for _ in range(2))
        x = Fraction(rng.randrange(-12, 13), rng.randrange(1, 4))
        y = x + Fraction(rng.randrange(1, 13), rng.randrange(1, 4))
        return (kind, a, b, x, y)

    def run(self, inp):
        tm = self.tm
        kind = inp[0]
        if kind == "regular":
            a = inp[1]
            y = tm.regular_witness(a)
            return a @ y @ a == a, tokens(y)
        if kind == "jfact":
            a, b = inp[1], inp[2]
            if not tm.leq_J(a, b):
                a, b = b, a
            x, y = tm.j_factorization(a, b)
            return x @ b @ y == a, tokens(x) + tokens(y)
        if kind == "witness":
            m, n = inp[1], inp[2]
            z = tm.witness_Z(m, n)
            w = tm.d_class_witness(z, tm.witness_Z(n, m))
            ok = (
                tm.proj_column_space(z) == m
                and tm.proj_row_space(z) == n
                and tm.proj_column_space(w) == n
                and tm.proj_row_space(w) == n
            )
            return ok, tokens(z) + tokens(w)
        if kind == "idempotent":
            m = inp[1]
            n = m.negated()
            e = tm.idempotent_in_H(m, n)
            # (M, -M) holds an idempotent unless M is a point at infinity.
            expected = not (m.is_point and not m.lo.is_finite)
            if e is None:
                return not expected, "none"
            group = tm.group_type_of_H(m, n)
            ok = (
                expected
                and e @ e == e
                and tm.proj_column_space(e) == m
                and tm.proj_row_space(e) == n
            )
            return ok, tokens(e) + group.value
        a, b, x, y = inp[1:]

        def el(family, p):
            return tm.subgroup_element(family, p, x, y)

        ok = (
            el("X", a) @ el("X", b) == el("X", a + b)
            and el("X", a) @ el("Y", b) == el("Y", a + b)
            and el("Y", a) @ el("Y", b) == el("X", a + b + (y - x))
            and el("Z", a) @ el("Z", b) == el("Z", a + b)
            and el("W", a) @ el("W", b) == el("W", a + b)
        )
        return ok, f"{a},{b},{x},{y}"

    def matrices(self):
        return [x for inp in self.prefix if inp[0] in ("regular", "jfact") for x in inp[1:]]

    def cold_argvs(self, count):
        tm = self.tm
        out = []
        for inp in self.prefix[:count]:
            kind = inp[0]
            if kind == "regular":
                out.append(["regular", tokens(inp[1])])
            elif kind == "jfact":
                a, b = inp[1], inp[2]
                if not tm.leq_J(a, b):
                    a, b = b, a
                out.append(["relate", "leqJ", tokens(a), tokens(b)])
            elif kind == "witness":
                out.append(["witness", "--M", str(inp[1]), "--N", str(inp[2])])
            elif kind == "idempotent":
                m = inp[1]
                out.append(["subgroup", "--M", str(m), "--N", str(m.negated())])
            else:
                a, _, x, y = inp[1:]
                m = f"[{x},{y}]"
                out.append(
                    ["subgroup", "--M", m, "--N", f"[{-y},{-x}]", "--family", "X",
                     f"--a={a}", f"--x={x}", f"--y={y}"]
                )
        return out


class IdealPool(Workload):
    """Tiny ideal-calculus ops over a small pool reused across ops, where a
    cache or per-call overhead shows and a product kernel barely does."""

    name = "ideal-pool"
    prefix_ops = 1024
    POOL_MATRICES = 40
    POOL_DESCRIPTORS = 20
    KINDS = ("contains", "contains", "compare", "compare", "generate", "decompose", "principal")

    def prepare(self):
        tm, s, rng = self.tm, self.tm.sampling, self.rng
        self.kinds = Cycle(rng, self.KINDS)
        self.mats = [
            s.sample_matrix(rng, s.PROFILES[i % len(s.PROFILES)])
            for i in range(self.POOL_MATRICES)
        ]
        self.descs = [s.sample_descriptor(rng) for _ in range(self.POOL_DESCRIPTORS)]
        # The independent route: membership is the J-order against a
        # generator of the descriptor's principal ideal, minus that
        # generator's J-class for open descriptors.
        gens, j_order = {}, {}

        def gen(t):
            if t not in gens:
                c = tm.canonical_set(t)
                gens[t] = tm.witness_Z(c, c)
            return gens[t]

        def leq_j(a, b):
            if (a, b) not in j_order:
                j_order[a, b] = tm.leq_J(a, b)
            return j_order[a, b]

        def j_equiv(a, b):
            return leq_j(a, b) and leq_j(b, a)

        def member(d, a):
            if d.kind == "closed":
                return leq_j(a, gen(d.iso))
            t = tm.IsoType("interval", d.width) if d.kind == "open" else tm.IsoType("halfinf")
            return leq_j(a, gen(t)) and not j_equiv(a, gen(t))

        widths = sorted(
            {d.width for d in self.descs if d.kind == "open"}
            | {d.iso.diameter for d in self.descs if d.kind == "closed" and d.iso.kind == "interval"}
            | {Fraction(1)}
        )
        probe_widths = set(widths) | {widths[0] / 2, 2 * widths[-1] + 1}
        probe_widths |= {(u + v) / 2 for u, v in zip(widths, widths[1:])}
        probe_types = [tm.IsoType("empty"), tm.IsoType("point"), tm.IsoType("halfinf"),
                       tm.IsoType("fullline")]
        probe_types += [tm.IsoType("interval", w) for w in sorted(probe_widths)]
        probes = self.mats + [gen(t) for t in probe_types]

        self.leq_j = leq_j
        self.member = [[member(d, a) for a in self.mats] for d in self.descs]
        member_sets = [frozenset(i for i, p in enumerate(probes) if member(d, p)) for d in self.descs]
        self.order = [[_set_order(s1, s2) for s2 in member_sets] for s1 in member_sets]
        self.principal = []
        for a in self.mats:
            p = tm.IdealDescriptor.closed(tm.iso_type(tm.proj_column_space(a)))
            self.principal.append(p if j_equiv(a, gen(p.iso)) else None)
        self.decomposed = []
        for d in self.descs:
            whole, removed = tm.decompose(d)
            ok = whole.kind == "closed" and all(
                member(d, p) == (member(whole, p) and not (removed is not None and j_equiv(p, gen(removed))))
                for p in probes
            )
            self.decomposed.append((whole, removed) if ok else None)

    def generate(self):
        rng = self.rng
        kind = self.kinds.next()
        if kind == "contains":
            return (kind, rng.randrange(len(self.descs)), rng.randrange(len(self.mats)))
        if kind == "compare":
            return (kind, rng.randrange(len(self.descs)), rng.randrange(len(self.descs)))
        if kind == "generate":
            # The expected answer is the principal ideal of a J-greatest
            # generator, found here (outside the op's timing).
            idx = [rng.randrange(len(self.mats)) for _ in range(rng.randrange(1, 4))]
            gens = [self.mats[i] for i in idx]
            top = next(k for k in idx if all(self.leq_j(g, self.mats[k]) for g in gens))
            return (kind, top, *idx)
        if kind == "decompose":
            return (kind, rng.randrange(len(self.descs)))
        return (kind, rng.randrange(len(self.mats)))

    def run(self, inp):
        tm = self.tm
        kind = inp[0]
        if kind == "contains":
            j, i = inp[1], inp[2]
            got = tm.ideal_contains(self.descs[j], self.mats[i])
            return got == self.member[j][i], str(got)
        if kind == "compare":
            j1, j2 = inp[1], inp[2]
            got = tm.ideal_compare(self.descs[j1], self.descs[j2]).value
            return got == self.order[j1][j2], got
        if kind == "generate":
            top = inp[1]
            got = tm.ideal_from_generators([self.mats[i] for i in inp[2:]])
            return self.principal[top] is not None and got == self.principal[top], str(got)
        if kind == "decompose":
            whole, removed = tm.decompose(self.descs[inp[1]])
            ok = self.decomposed[inp[1]] == (whole, removed)
            return ok, f"{whole}/{removed}"
        got = tm.principal_ideal_of(self.mats[inp[1]])
        return self.principal[inp[1]] is not None and got == self.principal[inp[1]], str(got)

    def matrices(self):
        return list(self.mats)

    def descriptors(self):
        return list(self.descs)

    def cold_argvs(self, count):
        out = []
        for inp in self.prefix[:count]:
            kind = inp[0]
            if kind == "contains":
                out.append(["ideal", "contains", str(self.descs[inp[1]]), tokens(self.mats[inp[2]])])
            elif kind == "compare":
                out.append(["ideal", "compare", str(self.descs[inp[1]]), str(self.descs[inp[2]])])
            elif kind == "generate":
                out.append(["ideal", "generate", *(tokens(self.mats[i]) for i in inp[2:])])
            elif kind == "decompose":
                out.append(["ideal", "decompose", str(self.descs[inp[1]])])
            else:
                out.append(["ideal", "principal", tokens(self.mats[inp[1]])])
        return out


def _set_order(s1: frozenset, s2: frozenset) -> str:
    if s1 == s2:
        return "equal"
    if s1 < s2:
        return "less"
    if s1 > s2:
        return "greater"
    return "incomparable"


class CliCold(Workload):
    """CLI commands over ``cases`` (by default the fixed mix in
    cli_cases.json), each run by ``run_argv(argv) -> (stdout, exit code)``:
    a fresh process, or ``cli.main`` in this process."""

    name = "cli-cold"

    def __init__(self, tm, seed, run_argv, cases=None):
        self.run_argv = run_argv
        self.cases = json.loads(CASES_FILE.read_text())["cases"] if cases is None else cases
        self.prefix_ops = len(self.cases)
        super().__init__(tm, seed)

    def prepare(self):
        self.order = Cycle(self.rng, self.cases)

    def generate(self):
        return self.order.next()

    def run(self, case):
        stdout, code = self.run_argv(case["argv"])
        return case_ok(case, stdout, code), f"{case['argv']}|{code}|{stdout.strip()}"

    def known_defect(self, case):
        return "known_defect" in case

    def at_boundary(self, ops_done):
        # Whole cycles give every run the same share of each case.
        return ops_done % len(self.cases) == 0

    def matrices(self):
        out = []
        for case in self.cases:
            for tok in case["argv"]:
                if tok.startswith("[["):
                    try:
                        out.append(self.tm.parse_matrix(tok))
                    except ValueError:
                        pass
        return out

    def cold_argvs(self, count):
        return [case["argv"] for case in self.cases if "stdout" in case][:count]


def case_ok(case: dict, stdout: str, code: int) -> bool:
    """Whether a CLI run printed what ``case`` expects, byte for byte when
    an answer is expected, and as a lone ``{"error": ...}`` otherwise."""
    if "stdout" in case:
        return code == 0 and stdout == json.dumps(case["stdout"]) + "\n"
    try:
        out = json.loads(stdout)
    except ValueError:
        return False
    return code == 1 and isinstance(out, dict) and list(out) == ["error"] and isinstance(out["error"], str)


WORKLOADS = {w.name: w for w in (RelateOracle, ConstructVerify, IdealPool, CliCold)}
