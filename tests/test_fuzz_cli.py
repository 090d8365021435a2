"""A fuzz gate for the CLI: mutated inputs end in a documented exit code.

Each example takes one valid command from the inline seed corpus below
(every subcommand, both output formats), mutates one of its
argument values (a token of a sequence or polynomial, a field of a JSON
document, or the whole argument) and runs `cli.main` in-process with an
empty standard input under a per-example alarm and address-space cap.  The run must exit 0, 2, 3
or 4 without an exception and within the alarm; when it exits 0 in
structured format, its stdout must parse as JSON.  A second test puts a
power w_j^N, N up to 10^12, into one value of each function document, a
rank-2 `morphism apply` among them, and in rank 3 also w_j^N*w_k.  The examples are derandomized, so the
gate runs the same inputs every time.
"""

import io
import json
import re
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bscomb.cli import main

from conftest import cap_address_space

SL5 = json.dumps({"root_system": "A4", "sequence": "s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
                  "pairs": [[1, 10], [2, 6]], "labels": {"1-10": "s2 s3 s4", "2-6": "s2"}})
MORPHISM = json.dumps({"source": "A1: s1", "target": "A1: s1 s1", "p": [2], "w": "s1",
                       "phi": {"0": "10", "1": "11"}})
RANK2_MORPHISM = json.dumps({"source": "A2: s1", "target": "A2: s1 s1", "p": [2], "w": "s1",
                             "phi": {"0": "10", "1": "11"}})
RANK3_MORPHISM = json.dumps({"source": "A3: s2", "target": "A3: s2 s2", "p": [2], "w": "s2",
                             "phi": {"0": "10", "1": "11"}})

# one valid command per subcommand; each runs in both formats
SEEDS = {
    "gallery-type": ["gallery-type", "B3: [1,1,0] [0,1,1] s3"],
    "fixed-points": ["fixed-points", SL5],
    "project": ["project", SL5, "--pairs", "2-6", "--check-fixed-points"],
    "fibres": ["fibres", SL5, "--pair", "2-6"],
    "basis": ["basis", "B2: s1 s2"],
    "decompose": ["decompose", "A2: s1 s2", json.dumps(
        {"values": {b: "w1 + 3*w2^2" for b in ("00", "01", "10", "11")}})],
    # the value at 11, whose lead value is a product of two forms, comes first
    "decompose-rank-3": ["decompose", "A3: s1 s2", json.dumps(
        {"values": {b: "w1 + 3*w2^2 - w3" for b in ("11", "00", "01", "10")}})],
    "morphism-verify": ["morphism", "verify", MORPHISM],
    "morphism-enumerate": ["morphism", "enumerate", "A2: s1", "A2: s1 s2"],
    # repeated letters make almost every (p, w, seed) a candidate: 20,480
    # candidate galleries here, and 81,920 once the system mutates to B3,
    # near the bound on them
    "morphism-enumerate-repeated": ["morphism", "enumerate", "A2: s1 s1 s1",
                                    "A2: s1 s1 s1 s1 s1 s1"],
    "morphism-apply": ["morphism", "apply", MORPHISM,
                       '{"values": {"00": "w1", "01": "3*w1^2", "10": "0", "11": "1/2"}}'],
    # the two values that phi reads come first
    "morphism-apply-rank-2": ["morphism", "apply", RANK2_MORPHISM,
                              '{"values": {"10": "w1*w2", "11": "w2", "00": "0", "01": "w1"}}'],
    "morphism-apply-rank-3": ["morphism", "apply", RANK3_MORPHISM,
                              '{"values": {"10": "w2*w3", "11": "w1", "00": "0", "01": "w3"}}'],
    "weyl-info": ["weyl", "info", "--root-system", "G2"],
}
# argument values that a mutation leaves alone: subcommand names and flags
FIXED = {"gallery-type", "fixed-points", "project", "fibres", "basis", "decompose",
         "morphism", "verify", "enumerate", "apply", "weyl", "info"}

# replacements for one token by the kind of token replaced, valid ones
# first: letters and roots for a reflection or Weyl word letter, systems
# for a system, variables for a variable, numerals for a numeral or bit
# pattern; bad letters, ranks, families and numerals, non-ASCII digits
# among them, and huge powers
KINDS = [
    (re.compile(r"s\d+|e|\[[-\d,]*\]"),
     ["s1", "s2", "s3", "[1,1,0]", "[0,1]", "e", "s0", "s9", "[1,-1]", "[0,0]"]),
    (re.compile(r"[A-Z]\d+"), ["A2", "B3", "G2", "A0", "E6", "D3", "A30"]),
    (re.compile(r"w\d+(?:\^\d+)?"), ["w1", "w2", "w9", "w1^-1", "w1^100000", "w2^1000000"]),
    (re.compile(r"\d+(?:/\d+)?"), ["2", "1/2", "10", "1/0", "٣", "9" * 30]),
]
ATOMS = [atom for _, atoms in KINDS for atom in atoms] + ["null", ""]
# replacements for a whole argument: a plan file, a directory, standard
# input, and documents of the wrong shape
WHOLE = ["data/sl5.plan", ".", "tests", "-", "", "{}", "[]", "null", '{"values": {}}']
# replacements for a JSON field
JSON_VALUES = [None, 0, -1, 2.5, True, [], {}, "", "x", "w1^100000", [[1, 1]]]

# a root, letter, system, variable (with its power) or numeral; other
# punctuation is left in place
TOKEN = re.compile(r"\[[-\d,]*\]|[A-Za-z]+\d*(?:\^\d+)?|\d+(?:/\d+)?")
# exponents for a function value: huge ones that a rank-2 Weyl action or a
# division expands term by term, and small ones
EXPONENTS = [100000, 10 ** 6, 10 ** 12, 2, 64]
# in rank 3 a value becomes w_j^N*w_k instead; the first pair and the first
# exponent, which Hypothesis tries first, make w2^(10^12)*w3, whose division
# by the A3 lead value (-2w1+w2)(-w1-w2+w3) once ran without end
RANK3_PAIRS = [(2, 3), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2)]
ALARM_S = 5


class Hang(Exception):
    """The alarm fired: a command ran past its time budget."""


def _atoms_for(token):
    """The atoms of the token's kind, or all of them for a token of no kind."""
    return next((atoms for kind, atoms in KINDS if kind.fullmatch(token)), ATOMS)


def _mutate_text(data, text):
    """One token of text replaced by an atom: half the time one of the
    token's own kind, so that the command gets past its parser, and
    otherwise any atom, so that parse errors stay covered."""
    tokens = [m.span() for m in TOKEN.finditer(text)]
    if not tokens:
        return data.draw(st.sampled_from(ATOMS))
    lo, hi = data.draw(st.sampled_from(tokens))
    atoms = _atoms_for(text[lo:hi]) if data.draw(st.booleans()) else ATOMS
    return text[:lo] + data.draw(st.sampled_from(atoms)) + text[hi:]


def _mutate_json(data, doc):
    """One field of the document, at any depth, token-mutated, replaced or deleted."""
    if not doc:
        return data.draw(st.sampled_from(JSON_VALUES))
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        node = child
    action = data.draw(st.sampled_from(["text", "replace", "delete"]))
    if action == "delete":
        del node[key]
    elif action == "text" and isinstance(child, str):
        node[key] = _mutate_text(data, child)
    else:
        node[key] = data.draw(st.sampled_from(JSON_VALUES))
    return doc


def _mutate(data, argv):
    """One argument value mutated: a JSON document mostly by field, any
    argument by token or, less often, as a whole."""
    argv = list(argv)
    slots = [i for i, a in enumerate(argv) if a not in FIXED and not a.startswith("--")]
    i = data.draw(st.sampled_from(slots))
    try:
        doc = json.loads(argv[i])
    except ValueError:
        doc = None
    kinds = (["json", "json", "text", "whole"] if isinstance(doc, (dict, list))
             else ["text", "text", "whole"])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "json":
        argv[i] = json.dumps(_mutate_json(data, doc))
    elif kind == "text":
        argv[i] = _mutate_text(data, argv[i])
    else:
        argv[i] = data.draw(st.sampled_from(WHOLE))
    return argv


def _on_alarm(signum, frame):
    raise Hang(f"no exit within {ALARM_S} s")


def run_cli(argv):
    """(exit code, stdout) of `cli.main` on argv, with empty stdin, under the
    alarm and the memory cap."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    limits = cap_address_space()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        sys.stdin = io.StringIO("")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a usage error
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, limits)
        sys.stdin = stdin
    return code, out.getvalue()


@pytest.mark.parametrize("structured", [False, True], ids=["text", "structured"])
@pytest.mark.parametrize("name", SEEDS)
def test_seed_command_succeeds(name, structured):
    argv = (["--format", "structured"] if structured else []) + SEEDS[name]
    code, out = run_cli(argv)
    assert code == 0
    if structured:
        json.loads(out)


@pytest.mark.parametrize("name", SEEDS)
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_command_exits_cleanly(name, data):
    structured = data.draw(st.booleans())
    argv = (["--format", "structured"] if structured else []) + _mutate(data, SEEDS[name])
    code, out = run_cli(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0 and structured:
        json.loads(out)


@pytest.mark.parametrize("name", ["decompose", "morphism-apply", "morphism-apply-rank-2",
                                  "decompose-rank-3", "morphism-apply-rank-3"])
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_large_exponent_in_a_function_value_ends(name, data):
    # one value of the function document becomes w_j^N; in rank 2 the Weyl
    # action and the division expand such a power term by term.  In rank 3
    # it is w_j^N*w_k, which a product of linear forms in three variables
    # divides with new terms inside one pivot degree
    *argv, function = SEEDS[name]
    doc = json.loads(function)
    key = data.draw(st.sampled_from(list(doc["values"])))
    if name.endswith("rank-3"):
        j, k = data.draw(st.sampled_from(RANK3_PAIRS))
        power = f"w{j}^{data.draw(st.sampled_from(sorted(EXPONENTS, reverse=True)))}*w{k}"
    else:
        power = f"w{data.draw(st.integers(1, 2))}^{data.draw(st.sampled_from(EXPONENTS))}"
    doc["values"][key] = power
    code, _ = run_cli(argv + [json.dumps(doc)])
    assert code in (0, 2, 3, 4), (key, power)
