"""Jobs and the two ways of running them.

A job is one user request: a verb of the treeca command line, its input
files and options, and what the reference expects.  run_inprocess parses the
input text, makes the verb's library call or calls, and formats the result
exactly as the command line would print it.  run_cli runs the same verb as a
child process, one at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from treeca import DEFAULT_ENUM_BUDGET, Bta, Tta, TreecaError

STATE_BUDGET = 4096


@dataclass
class Job:
    verb: str
    files: list
    opts: dict = field(default_factory=dict)
    expect: tuple = ("none", {})  # (check name, params) for checks.py
    defect: str | None = None  # the known defect this job exposes, if any
    save_as: str | None = None  # store stdout as a new input text
    trivial: bool = False  # library work is trivial: times interpreter start

    def argv(self, workdir: Path) -> list[str]:
        args = [self.verb] + [str(workdir / f) for f in self.files]
        for key, value in self.opts.items():
            flag = {"term": "-t", "context": "-c"}.get(key, "--" + key.replace("_", "-"))
            if value is True:
                args.append(flag)
            elif isinstance(value, list):
                if key == "states":
                    args += [flag] + value
                else:
                    for v in value:
                        args += [flag, v]
            else:
                args += [flag, str(value)]
        return args


@dataclass
class Result:
    out: str
    code: int
    err: str = ""
    exc: str | None = None  # type of an exception that escaped the verb


def _lines(items) -> str:
    return "".join(line + "\n" for line in items)


def _verdict(ok: bool, yes: str, no: str) -> tuple[str, int]:
    return (yes if ok else no) + "\n", 0 if ok else 1


def run_inprocess(L, job: Job, texts: dict) -> Result:
    """Run one job against the library functions in namespace L."""
    o = job.opts
    budget = o.get("budget", STATE_BUDGET)
    out: list[str] = []

    def bta(i: int = 0) -> Bta:
        a = L.parse_automaton(texts[job.files[i]])
        if not isinstance(a, Bta):
            raise TreecaError(f"{job.files[i]}: expected a bottom-up automaton (header 'bta')")
        return a

    def states_line(states) -> tuple[str, int]:
        return " ".join(sorted(states)) + "\n", 0

    def keyed(groups) -> tuple[str, int]:
        lines = [
            "{" + ",".join(sorted(key)) + "}: " + " ".join(L.format_term(t) for t in members)
            for key, members in groups.items()
        ]
        return _lines(sorted(lines)), 0

    def classes(groups) -> tuple[str, int]:
        return _lines(" ".join(L.format_term(t) for t in members) for members in groups), 0

    def run() -> tuple[str, int]:
        v = job.verb
        if v == "determinize":
            return L.serialize_automaton(L.determinize(bta(), budget=budget)), 0
        if v == "minimize":
            return L.serialize_automaton(L.minimize_bta(bta(), budget=budget)), 0
        if v == "minimize-dbta":
            return L.serialize_automaton(L.minimize_dbta(bta())), 0
        if v == "codeterminize":
            return L.serialize_automaton(L.codeterminize(bta(), budget=budget)), 0
        if v == "tdeterminize":
            t = L.parse_automaton(texts[job.files[0]])
            if not isinstance(t, Tta):
                raise TreecaError("expected a top-down automaton (header 'tta')")
            return L.serialize_automaton(L.tta_determinize(t, budget=budget)), 0
        if v == "complete":
            return L.serialize_automaton(L.complete(bta())), 0
        if v == "canonical":
            return L.serialize_automaton(L.canonical_form(bta())), 0
        if v == "brzozowski":
            return L.serialize_automaton(L.brzozowski(bta(), budget=budget)), 0
        if v == "min-codet":
            return L.serialize_automaton(L.min_codbta(bta(), budget=budget)), 0
        if v == "is-path-closed":
            return _verdict(L.is_path_closed(bta(), budget=budget), "path-closed", "not path-closed")
        if v == "check-brz-u":
            a = bta()
            if L.check_gen_det_u(a, budget=budget):
                return "determinization is minimal\n", 0
            out.append("determinization is not minimal\n")
            found = L.gen_det_u_witness(a, budget=budget) if o.get("witness") else None
            if found is not None:
                q, m, s1, s2 = found
                name = lambda s: "{" + ",".join(sorted(s)) + "}"  # noqa: E731
                out.append(f"witness: state {q} separates subsets {name(s1)} and "
                           f"{name(s2)} merged into {m}\n")
            return "", 1
        if v == "check-brz-d":
            a = bta()
            L.trim_unreachable(a)
            return _verdict(L.check_gen_det_d(a, budget=budget),
                            "co-determinization is minimal", "co-determinization is not minimal")
        if v == "equiv":
            a, b = bta(0), bta(1)
            if a.alphabet != b.alphabet:
                return "not equivalent\nalphabets differ\n", 1
            if L.equivalent(a, b, budget=budget):
                return "equivalent\n", 0
            out.append("not equivalent\n")
            witness = L.separating_tree(a, b, budget=budget)
            if witness is not None:
                out.append(f"separating tree: {L.format_term(witness)}\n")
            return "", 1
        if v == "isomorphic":
            return _verdict(L.isomorphic(bta(0), bta(1)), "isomorphic", "not isomorphic")
        if v == "member":
            a = bta()
            return _verdict(L.accepts(a, L.parse_term(o["term"], a.alphabet)),
                            "member", "not a member")
        if v == "post":
            a = bta()
            t = L.parse_term(o["term"], a.alphabet)
            return states_line(L.post_tree(a, t, o.get("states") or a.initial_states))
        if v == "pre":
            a = bta()
            x = L.parse_context(o["context"], a.alphabet)
            return states_line(L.pre_context(a, x, o.get("states")))
        if v == "wpre":
            a = bta()
            x = L.parse_context(o["context"], a.alphabet)
            return states_line(L.wpre(a, x, frozenset(o.get("states") or a.final)))
        if v == "rtp-equiv":
            a = bta()
            x, y = (L.parse_context(c, a.alphabet) for c in o["context"])
            return _verdict(L.root_to_pivot_equiv(a, x, y, o.get("states")),
                            "root-to-pivot equivalent", "not root-to-pivot equivalent")
        enum_budget = o.get("budget", DEFAULT_ENUM_BUDGET)
        if v == "classes-up":
            return keyed(L.bta_congruence_up(bta(), o["height"], budget=enum_budget))
        if v == "classes-down":
            return keyed(L.bta_congruence_down(bta(), o["height"], budget=enum_budget))
        if v == "language-upto":
            accepted = L.language_upto(bta(), o["height"], budget=enum_budget)
            return _lines(L.format_term(t) for t in sorted(accepted)), 0
        if v == "oracle-classes-up":
            return classes(L.nerode_classes_up(bta(), o["height"], o["context_height"],
                                               budget=enum_budget))
        if v == "oracle-classes-down":
            return classes(L.nerode_classes_down(bta(), o["height"], o["tree_height"],
                                                 budget=enum_budget))
        if v == "enumerate":
            alphabet = L.parse_automaton(texts[job.files[0]]).alphabet
            enum = L.enumerate_contexts if o.get("contexts") else L.enumerate_trees
            return _lines(L.format_term(t) for t in enum(alphabet, o["height"], enum_budget)), 0
        raise ValueError(f"unknown verb {v!r}")

    try:
        text, code = run()
    except TreecaError as exc:
        return Result("".join(out), 2, f"error: {exc}\n")
    except Exception as exc:  # a failure the verb's contract does not allow
        return Result("".join(out), -1, "", type(exc).__name__)
    return Result("".join(out) + text, code)


def run_cli(job: Job, root: Path, workdir: Path, spans_file: Path | None = None) -> Result:
    """Run one job as `python -m treeca`, or through the traced entry point
    when spans_file is given.  The child is waited for, and killed on timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if spans_file is None:
        cmd = [sys.executable, "-m", "treeca"]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_file)]
    try:
        proc = subprocess.run(cmd + job.argv(workdir), cwd=root, env=env,
                              capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return Result("", -1, "", "TimeoutExpired")
    return Result(proc.stdout.decode("utf-8", "replace"), proc.returncode,
                  proc.stderr.decode("utf-8", "replace"))


def read_child_spans(spans_file: Path) -> list[tuple]:
    """Spans a traced child wrote, one JSON list per line."""
    if not spans_file.exists():
        return []
    with open(spans_file, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]
