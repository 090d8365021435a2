"""The batch CLI: commands, formats, and exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from bscomb.cli import main
from bscomb.formats import parse_weyl
from bscomb.rootsys import build_root_system

SL5 = "data/sl5.plan"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gallery_type_text(capsys):
    code, out, _ = run(capsys, "gallery-type", "A2: [1,1] [1,0]")
    assert code == 0
    assert "gallery type: yes" in out


def test_gallery_type_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "gallery-type", "A2: s1 s2")
    assert code == 0
    doc = json.loads(out)
    assert doc["gallery_type"] is True
    assert set(doc) == {"gallery_type", "x", "t", "gamma"}


def test_gallery_type_empty_sequence(capsys):
    code, out, _ = run(capsys, "--format", "structured", "gallery-type", "A2:")
    assert code == 0
    assert json.loads(out)["x"] == "e"


def test_parse_error_exit_code(capsys, monkeypatch):
    # a bad token, document fields of the wrong JSON type, a zero
    # denominator, and bad JSON on standard input
    monkeypatch.setattr(sys, "stdin", io.StringIO("{"))
    morphism = {"source": "A1: s1", "target": "A1: s1 s1",
                "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}}
    plan = {"root_system": "A2", "sequence": "s1", "pairs": [], "labels": {}}
    for argv in (["gallery-type", "A2: bogus"],
                 ["morphism", "verify", json.dumps(dict(morphism, p=5))],
                 ["morphism", "verify", json.dumps(dict(morphism, phi=[]))],
                 ["morphism", "verify", json.dumps(dict(morphism, w=5))],
                 ["decompose", "A2: s1", '{"values": []}'],
                 ["decompose", "A2: s1", '{"values": {"0": 3}}'],
                 ["fixed-points", json.dumps(dict(plan, sequence=5))],
                 ["fixed-points", json.dumps(dict(plan, pairs=5))],
                 ["decompose", "A2: s1", '{"values": {"0": "1/0", "1": "3"}}'],
                 ["fixed-points", "-"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in err, argv


def test_resource_limit_exit_code(capsys):
    for argv in (["--max-length", "2", "gallery-type", "A2: s1 s2 s1"],
                 ["--max-length", "3", "basis", "A2: s1 s2 s1 s2"],
                 ["--max-length", "1", "morphism", "enumerate", "A1: s1", "A1: s1 s1"],
                 ["--max-length", "40", "decompose", "A1:" + " s1" * 22, '{"values": {}}']):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (3, ""), argv


@pytest.mark.parametrize("argv", [
    ["basis", "A1:" + " s1" * 14],
    ["morphism", "enumerate", "A2: s1", "A2:" + " s1" * 16],
    ["--max-length", "40", "fixed-points", json.dumps(
        {"root_system": "A1", "sequence": "s1 " * 22, "pairs": [], "labels": {}})],
], ids=["basis-14", "morphism-target-16", "fixed-points-22"])
def test_flag_cannot_loosen_library_bound(argv):
    # Each input is above a library bound but within --max-length; it must
    # stop at the library bound rather than run the exhaustive walk.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, b"")


def test_fixed_points_at_length_bound():
    # 2^20 galleries with one constraint that only the full product can
    # check: the walk keeps prefix products along one branch at a time.
    plan = json.dumps({"root_system": "A4", "sequence": "s1 s2 s3 s4 " * 5,
                       "pairs": [[1, 20]], "labels": {"1-20": "e"}})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", "fixed-points", plan],
                          cwd=ROOT, env=env, capture_output=True, timeout=15)
    assert proc.returncode == 0


def test_project_sl5(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "project", SL5, "--pairs", "2-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"]["sequence"] == "s4 s[0,1,1,0] s4 s[0,1,1,0] s4"
    assert doc["base"]["labels"]["1-10"] == "s2 s3 s4 s2"


def test_project_with_fixed_point_check(capsys):
    code, out, _ = run(capsys, "--format", "structured", "project", SL5,
                       "--pairs", "2-6", "--check-fixed-points")
    assert code == 0
    assert json.loads(out)["fixed_point_count"] == 25


def test_project_empty_f_rejected(capsys):
    code, _, err = run(capsys, "project", SL5, "--pairs", "")
    assert code == 2


def test_fixed_points(capsys):
    plan = json.dumps({"root_system": "A2", "sequence": "s1 s1",
                       "pairs": [[1, 1]], "labels": {"1-1": "s1"}})
    code, out, _ = run(capsys, "--format", "structured", "fixed-points", plan)
    assert code == 0
    assert json.loads(out) == {"count": 2, "galleries": ["10", "11"]}


def test_fibres(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "fibres", SL5, "--pair", "2-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["fibres"][0]["fibre"]["sequence"] == "s1 s2 s1 s2 s1"


def test_basis(capsys):
    code, out, _ = run(capsys, "--format", "structured", "basis", "A2: s1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 2
    assert doc["basis"][0] == {"subset": [], "values": {"0": "1", "1": "1"}}
    assert doc["basis"][1]["values"]["0"] == "0"


def test_decompose_in_span(capsys):
    func = json.dumps({"values": {"0": "3", "1": "3"}})
    code, out, _ = run(capsys, "--format", "structured",
                       "decompose", "A2: s1", func)
    assert code == 0
    assert json.loads(out)["coefficients"] == {"-": "3", "1": "0"}


def test_decompose_not_in_span(capsys):
    func = json.dumps({"values": {"0": "1", "1": "0"}})
    code, _, err = run(capsys, "decompose", "A2: s1", func)
    assert code == 4


def test_morphism_verify(capsys):
    doc = json.dumps({"source": "A1: s1", "target": "A1: s1 s1",
                      "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}})
    code, out, _ = run(capsys, "--format", "structured", "morphism", "verify", doc)
    assert code == 0
    assert json.loads(out) == {"verified": True}


def test_morphism_verify_failure(capsys):
    doc = json.dumps({"source": "A1: s1", "target": "A1: s1 s1",
                      "p": [2], "w": "e", "phi": {"0": "10", "1": "01"}})
    code, out, _ = run(capsys, "--format", "structured", "morphism", "verify", doc)
    assert code == 4
    assert json.loads(out)["verified"] is False


def test_morphism_enumerate(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "morphism", "enumerate", "A1: s1", "A1: s1 s1")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_morphism_enumerate_refuses_mixed_root_systems(capsys):
    for source in ("A2: s1", "A2:", "A2: s1 s2"):
        code, out, err = run(capsys, "morphism", "enumerate", source, "B2: s1")
        assert (code, out) == (2, ""), source
        assert "different root systems" in err


def test_morphism_apply(capsys):
    doc = json.dumps({"source": "A1: s1", "target": "A1: s1 s1",
                      "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}})
    func = json.dumps({"values": {"00": "w1", "01": "w1", "10": "0", "11": "0"}})
    code, out, _ = run(capsys, "--format", "structured",
                       "morphism", "apply", doc, func)
    assert code == 0
    values = json.loads(out)["values"]
    assert set(values) == {"0", "1"}


def test_weyl_info(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "weyl", "info", "--root-system", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    assert doc["longest_element"] == "s1 s2 s1"


WEYL_INFO_SYSTEMS = [(f, r) for f, ranks in (("A", range(1, 7)), ("B", range(2, 6)),
                                               ("C", range(2, 6)), ("D", (4, 5)), ("G", (2,)))
                     for r in ranks]


@pytest.mark.parametrize("family,rank", WEYL_INFO_SYSTEMS)
def test_weyl_info_longest_element(capsys, family, rank):
    # every system with |W| <= 5040; the oracle reads no reduced word: w0 is
    # the element that sends every positive root negative
    code, out, _ = run(capsys, "--format", "structured",
                       "weyl", "info", "--root-system", f"{family}{rank}")
    assert code == 0
    rs = build_root_system(family, rank)
    w0 = parse_weyl(rs, json.loads(out)["longest_element"])
    assert all(not w0.apply(r).is_positive for r in rs.roots if r.is_positive)


def test_weyl_bound_checked_before_walk(capsys):
    # |W(A8)| = 9! is above MAX_WEYL; the closed-form order is compared with
    # the bound before any element is built, and the message reports it.
    code, out, err = run(capsys, "weyl", "info", "--root-system", "A8")
    assert (code, out) == (3, "")
    assert "362880" in err


def test_structured_output_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "structured", "project", SL5,
                     "--pairs", "2-6")
    _, out2, _ = run(capsys, "--format", "structured", "project", SL5,
                     "--pairs", "2-6")
    assert out1 == out2
