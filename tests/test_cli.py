"""The batch CLI: commands, formats, and exit codes."""

import errno
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bscomb import cli, errors, formats, gallery
from bscomb.cli import main
from bscomb.formats import parse_weyl
from bscomb.rootsys import build_root_system

from conftest import cap_address_space

SL5 = "data/sl5.plan"
# a plan whose pairs share the endpoint 2, so it is not nested
CROSSED = json.dumps({"root_system": "A2", "sequence": "s1 s2 s1", "pairs": [[1, 2], [2, 3]],
                      "labels": {"1-2": "e", "2-3": "e"}})
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


def test_gallery_type_verifies_each_certificate_once(capsys, monkeypatch):
    # is_gallery_type verifies the certificate it returns; the command
    # prints it without a second check
    calls, verify = [], gallery.verify_gallerification

    def counted(s, cert):
        calls.append(cert)
        return verify(s, cert)

    monkeypatch.setattr(gallery, "verify_gallerification", counted)
    for fmt in ("text", "structured"):
        for seq in ("A2: [1,1] [1,0]", "A2: s1 s2", "A2:"):
            calls.clear()
            code, out, _ = run(capsys, "--format", fmt, "gallery-type", seq)
            assert (code, len(calls)) == (0, 1), (fmt, seq)
            assert formats.serialize_bits(calls[0].gamma.bits) in out


def test_gallery_type_refuses_unverified_certificate(capsys, monkeypatch):
    def fail(s, cert):
        raise errors.VerificationError("gallerification fails t^(gamma) = s^x")

    monkeypatch.setattr(gallery, "verify_gallerification", fail)
    for fmt in ("text", "structured"):
        code, out, err = run(capsys, "--format", fmt, "gallery-type", "A2: s1 s2")
        assert (code, out) == (4, ""), fmt
        assert err.startswith("error: gallerification fails"), fmt


def test_gallery_type_empty_sequence(capsys):
    code, out, _ = run(capsys, "--format", "structured", "gallery-type", "A2:")
    assert code == 0
    assert json.loads(out)["x"] == "e"


def test_parse_error_exit_code(capsys, monkeypatch):
    # a bad token, document fields of the wrong JSON type, a zero
    # denominator, bad JSON on standard input, a plan sequence that names
    # its root system, numerals too long to convert (Python refuses
    # integer strings of more than 4,300 digits), a label for a pair the
    # plan lacks, gallery keys not written as serialize_bits writes them,
    # which could name one gallery twice, a key an object repeats (JSON
    # would keep the last), a space inside a polynomial term, and arrays
    # nested too deeply for the decoder
    monkeypatch.setattr(sys, "stdin", io.StringIO("{"))
    morphism = {"source": "A1: s1", "target": "A1: s1 s1",
                "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}}
    plan = {"root_system": "A2", "sequence": "s1", "pairs": [], "labels": {}}
    digits = "9" * 5000
    for argv in (["gallery-type", "A2: bogus"],
                 ["fixed-points", json.dumps(dict(plan, sequence="A2: s1"))],
                 ["gallery-type", f"A{digits}: s1"],
                 ["basis", f"A2: s{digits}"],
                 ["basis", f"A2: [{digits},1]"],
                 ["decompose", "A2: s1", json.dumps({"values": {"0": digits, "1": "3"}})],
                 ["decompose", "A2: s1", json.dumps({"values": {"0": "1/" + digits, "1": "3"}})],
                 ["decompose", "A2: s1", json.dumps({"values": {"0": "w" + digits, "1": "3"}})],
                 ["decompose", "A2: s1", json.dumps({"values": {"0": "w1^" + digits, "1": "3"}})],
                 ["morphism", "verify", json.dumps(morphism)[:-1] + f', "x": {digits}}}'],
                 ["morphism", "verify", json.dumps(dict(morphism, p=5))],
                 ["morphism", "verify", json.dumps(dict(morphism, phi=[]))],
                 ["morphism", "verify", json.dumps(dict(morphism, w=5))],
                 ["decompose", "A2: s1", '{"values": []}'],
                 ["decompose", "A2: s1", '{"values": {"0": 3}}'],
                 ["fixed-points", json.dumps(dict(plan, sequence=5))],
                 ["fixed-points", json.dumps(dict(plan, pairs=5))],
                 ["decompose", "A2: s1", '{"values": {"0": "1/0", "1": "3"}}'],
                 ["fixed-points", "-"],
                 # JSON true and false decode to bools, which Python counts as ints
                 ["fibres", json.dumps(dict(plan, sequence="s1 s1", pairs=[[True, 2]],
                                            labels={"True-2": "e"}))],
                 ["morphism", "verify", json.dumps(dict(morphism, target="A1: s1", p=[True],
                                                        w="e", phi={"0": "0", "1": "1"}))],
                 ["fixed-points", json.dumps(dict(plan, labels={"9-9": "s1"}))],
                 ["fixed-points", json.dumps(dict(plan, labels={"x": 5}))],
                 ["morphism", "verify", json.dumps(dict(morphism, phi={"0": "00", "1": "01",
                                                                        " 1": "11"}))],
                 ["morphism", "verify", json.dumps(dict(morphism, phi={"0": "10", "1 ": "11"}))],
                 ["morphism", "verify", json.dumps(dict(morphism, source="A1:", target="A1: s1",
                                                        p=[], w="e", phi={"": "0"}))],
                 ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3", "1 ": "3"}}'],
                 ["decompose", "A2:", '{"values": {"": "3"}}'],
                 ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3", "1": "5"}}'],
                 ["fixed-points", '{"root_system": "A2", "sequence": "s1", "pairs": [[1, 1]], '
                                  '"labels": {"1-1": "s1", "1-1": "e"}}'],
                 ["morphism", "verify", '{"source": "A1: s1", "target": "A1: s1 s1", "p": [2], '
                                        '"w": "s1", "phi": {"0": "10", "1": "11", "1": "10"}}'],
                 ["decompose", "A2: s1", '{"values": {"0": "1 0", "1": "10"}}'],
                 ["decompose", "A2: s1", "[" * 100_000 + "]" * 100_000]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "error" in err, argv


def test_resource_limit_exit_code(capsys):
    # the identity on a length-6 sequence, 64 galleries
    bits = [format(i, "06b") for i in range(64)]
    identity = json.dumps({"source": "A1:" + " s1" * 6, "target": "A1:" + " s1" * 6,
                           "p": [1, 2, 3, 4, 5, 6], "w": "e", "phi": dict(zip(bits, bits))})
    morphism = json.dumps({"source": "A1: s1", "target": "A1: s1 s1",
                           "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}})
    func = json.dumps({"values": {"00": "w1", "01": "w1", "10": "0", "11": "0"}})
    for argv in (["--max-length", "2", "gallery-type", "A2: s1 s2 s1"],
                 ["--max-length", "3", "basis", "A2: s1 s2 s1 s2"],
                 ["--max-length", "1", "morphism", "enumerate", "A1: s1", "A1: s1 s1"],
                 ["--max-length", "40", "decompose", "A1:" + " s1" * 22, '{"values": {}}'],
                 ["--max-length", "2", "morphism", "verify", identity],
                 ["--max-length", "1", "morphism", "apply", morphism, func],
                 ["weyl", "info", "--root-system", "A10000"],
                 ["gallery-type", "A10000: s1"]):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (3, ""), argv


@pytest.mark.parametrize("error,expected", [
    (errors.ParseError("bad token"), 2),
    (errors.InvalidInputError("bad pair"), 2),
    (errors.PropertyViolationError("property fails"), 2),
    (errors.BscombError("unclassified"), 2),
    (errors.ResourceLimitError("rank 31 exceeds bound 30"), 3),
    (errors.NotInSpanError(frozenset({1}), None), 4),
    (errors.VerificationError("not a morphism"), 4),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_error_class_exit_code(capsys, monkeypatch, error, expected):
    # each class of the package's errors, raised from a command, maps to
    # its exit code and one error line on standard error
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_weyl_info", fail)
    code, out, err = run(capsys, "weyl", "info", "--root-system", "A2")
    assert (code, out, err) == (expected, "", f"error: {error}\n")
    assert type(error).exit_code == expected


@pytest.mark.parametrize("argv", [
    ["basis", "A1:" + " s1" * 14],
    ["basis", "A1:" + " s1" * 11],
    ["basis", "A120: s1"],
    ["morphism", "enumerate", "A2: s1", "A2:" + " s1" * 16],
    ["--max-length", "40", "fixed-points", json.dumps(
        {"root_system": "A1", "sequence": "s1 " * 22, "pairs": [], "labels": {}})],
], ids=["basis-14", "basis-11", "basis-rank-120", "morphism-target-16", "fixed-points-22"])
def test_flag_cannot_loosen_library_bound(argv):
    # Each input is above a library bound but within --max-length; it must
    # stop at the library bound rather than run the exhaustive walk.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, b"")


@pytest.mark.parametrize("argv,expected", [
    (["decompose", "A1: s1", json.dumps({"values": {"0": "0", "1": "w1^1000000000000"}})],
     b"c_[-] = 0\nc_[1] = 1/2*w1^999999999999\n"),
    (["morphism", "apply",
      json.dumps({"source": "A1: s1", "target": "A1: s1 s1",
                  "p": [2], "w": "s1", "phi": {"0": "10", "1": "11"}}),
      json.dumps({"values": {b: "w1^1000000000" for b in ("00", "01", "10", "11")}})],
     b"0 -> w1^1000000000\n1 -> w1^1000000000\n"),
], ids=["decompose-exponent-1e12", "apply-exponent-1e9"])
def test_large_exponent_costs_its_terms_not_its_value(argv, expected):
    # Short documents with one huge exponent: division steps over the pivot
    # degrees present and powers are built by squaring, so each ends at once.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, expected)


@pytest.mark.parametrize("exponent,code,out,err", [
    (errors.MAX_EXPONENT, 0, f"c_[-] = 0\nc_[1] = 1/2*w1^{errors.MAX_EXPONENT - 1}\n", ""),
    (errors.MAX_EXPONENT + 1, 3, "", f"error: polynomial exponent {errors.MAX_EXPONENT + 1} "
                                     f"exceeds bound {errors.MAX_EXPONENT}\n"),
], ids=["at-bound", "past-bound"])
def test_exponent_bound(capsys, exponent, code, out, err):
    doc = json.dumps({"values": {"0": "0", "1": f"w1^{exponent}"}})
    assert run(capsys, "decompose", "A1: s1", doc) == (code, out, err)


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_exits_74(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["weyl", "info", "--root-system", "A1"])
    assert (code, capsys.readouterr().err) == (
        74, f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["weyl", "info", "--root-system", "A1"],
                                  ["basis", "B2: s1 s2 s1 s2 s1 s2 s1"]],
                         ids=["at-flush", "while-printing"])
def test_write_to_full_device_exits_74_without_a_traceback(argv):
    # a short output fails at the final flush, a long one while it is printed
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (
        74, f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


def test_closed_stdout_exits_141_without_a_traceback():
    # 276 KB of output, four times a pipe's buffer, so the command is still
    # writing when the reader closes the pipe after 10 bytes
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-m", "bscomb.cli", "--format", "structured",
                                 "basis", "B2: s1 s2 s1 s2 s1 s2 s1"], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{"basis":['
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")


def test_closed_stdout_in_memory(monkeypatch):
    # an in-process caller's stdout without a descriptor is left as it is
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    closed = Closed()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(["basis", "A1: s1"]) == 141
    assert sys.stdout is closed


A6_POSITIVE = "A6: s[0,0,1,1,0,0] s2 s[0,0,0,1,1,1] s[0,1,1,1,1,0] s[1,1,1,1,1,1] s4"
A6_NEGATIVE = ("A6: s[0,1,1,1,1,0] s[1,1,1,1,1,1] s[0,0,1,1,0,0] s[0,0,1,1,1,1] "
               "s[0,1,1,1,1,0] s[0,0,1,1,1,0]")


@pytest.mark.parametrize("argv,expected", [
    (["gallery-type", A6_POSITIVE],
     b"gallery type: yes\nx = s3 s4 s5 s6 s4 s2 s3 s2\nt = s4 s5 s2 s6 s1 s3\n"
     b"gamma = 101000\n"),
    (["gallery-type", A6_NEGATIVE], b"no labelled gallery exists\n"),
    (["--format", "structured", "gallery-type", A6_POSITIVE],
     b'{"gallery_type":true,"gamma":"101000","t":"s4 s5 s2 s6 s1 s3",'
     b'"x":"s3 s4 s5 s6 s4 s2 s3 s2"}\n'),
    (["--format", "structured", "gallery-type", A6_NEGATIVE], b'{"gallery_type":false}\n'),
], ids=["positive-text", "negative-text", "positive-structured", "negative-structured"])
def test_gallery_type_in_a_large_group(argv, expected):
    # |W(A6)| = 5,040: a cold run builds the group and its tables, and
    # prints the same certificate as the depth-first search it replaced
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=30, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout) == (0, expected)


RANK2_MORPHISM = json.dumps({"source": "A2: s1", "target": "A2: s1 s1", "p": [2], "w": "s1",
                             "phi": {"0": "10", "1": "11"}})


@pytest.mark.parametrize("argv", [
    ["morphism", "apply", RANK2_MORPHISM,
     json.dumps({"values": {b: "w1^20000" for b in ("00", "01", "10", "11")}})],
    ["morphism", "apply", RANK2_MORPHISM,
     json.dumps({"values": {b: "w1^131072" for b in ("00", "01", "10", "11")}})],
    ["decompose", "A2: s2", json.dumps({"values": {"0": "0", "1": "w2^1000000"}})],
    ["basis", "D30: [" + "0," * 20 + "1,1,1,1,1,1,1,1,1,1] s1 s2 s3 s4 s5 s6 s7 s8 s9"],
    ["decompose", "A3: s1 s2",
     json.dumps({"values": {"00": "0", "01": "0", "10": "0", "11": "w2^1000000000000*w3"}})],
    ["basis", "A8: s1 s2 s3 s4 s5 s6 s7 s8 s1 s2"],
], ids=["apply-rank-2", "apply-power-of-two", "decompose-quotient", "basis-rank-30",
        "decompose-product-one-degree", "basis-level-A8"])
def test_polynomial_expansion_is_bounded(argv):
    # In rank 2 the image (-w1+w2)^N of w1^N has N+1 terms, and dividing
    # w2^N by a linear form gives N quotient terms: each command stops at
    # MAX_TERMS instead of expanding.  With N = 2^17 every product but the
    # last squares a power, so the squares alone must be bounded.  A basis
    # element in rank 30 is a product of linear forms of up to 30 terms.
    # Dividing w2^N*w3 by the A3 lead value (-2w1+w2)(-w1-w2+w3) adds a
    # divisible term within one pivot degree at every step.  Every product
    # of the A8 basis is small, but a level of it holds over 10^5 terms.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=10, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert b"polynomial terms" in proc.stderr


def test_unreadable_document_is_a_parse_error(capsys, tmp_path):
    # a directory, or bytes that are not text, where a document is expected
    undecodable = tmp_path / "doc.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for doc in (str(tmp_path), str(undecodable)):
        for argv in (["fixed-points", doc], ["decompose", "A2: s1", doc],
                     ["morphism", "verify", doc]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: bad JSON document"), argv


# runs cli.main on its arguments, then prints the high-water mark of its
# own memory (VmHWM, in KiB) to stderr.  On Linux ru_maxrss keeps the peak
# of the process that forked the child across exec, so the child reads it
PEAK_CHILD = ("import sys\n"
              "from bscomb.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(next(line for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
              "sys.exit(code)\n")


def run_with_peak(argv, timeout):
    """(completed process, VmHWM in KiB) of cli.main(argv) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    return proc, int(proc.stderr.split()[-2])


def test_fixed_points_at_length_bound():
    # 2^20 galleries with one constraint that only the full product can
    # check.  The sweep holds at most one level of bounded width per
    # position, so the child stays small.
    plan = json.dumps({"root_system": "A4", "sequence": "s1 s2 s3 s4 " * 5,
                       "pairs": [[1, 20]], "labels": {"1-20": "e"}})
    proc, kib = run_with_peak(["fixed-points", plan], timeout=15)
    assert proc.returncode == 0
    assert kib < 64 * 1024


def test_factoring_at_length_bound():
    # 2^19 fixed points, factored along (1, 2), whose label e holds exactly
    # when s1 s1 is taken whole or not at all: the source list, its images
    # and the sets that check them are all held at once.  Building the
    # images as columns of the source would peak above 500 MB
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status")
    plan = json.dumps({"root_system": "A2", "sequence": "s1 s1" + " s1 s2" * 9,
                       "pairs": [[1, 2]], "labels": {"1-2": "e"}})
    start = time.perf_counter()
    proc, kib = run_with_peak(["project", plan, "--pairs", "1-2", "--check-fixed-points"],
                              timeout=60)
    assert time.perf_counter() - start < 20
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[-1] == (
        "fixed points factor: verified (524288 galleries)")
    assert kib <= 480 * 1024


def _a7_negative_20():
    """20 positive A7 roots drawn with random.Random(5): not of gallery type."""
    rng, rs = random.Random(5), build_root_system("A", 7)
    positives = [r for r in rs.roots if r.is_positive]
    return "A7: " + " ".join("[" + ",".join(map(str, rng.choice(positives).coords)) + "]"
                             for _ in range(20))


# argv, then the exact stdout (or its SHA-256) and the VmHWM limit in KiB.
# The first three build a whole Weyl group (|W| = 46,080 and 40,320): about
# 2 s and 55-58 MB each on a 2-core host.  The others are the largest
# accepted inputs of their commands, limited at about 1.15 times the peak
# measured when they were added (KiB): no-pair fixed points of length 20,
# 338,212 as text and 386,072 structured; a length-10 basis, 284,196; the
# decomposition of the constant 1 in it, 64,928; and the morphisms of a
# length-4 A2 sequence into one of length 8, 23,092
FIXED_POINTS_20 = json.dumps({"root_system": "A2", "sequence": " ".join(["s1 s2"] * 10),
                              "pairs": [], "labels": {}})
A1_10 = "A1:" + " s1" * 10
BOUND_COMMANDS = {
    "weyl-info-C6": (["weyl", "info", "--root-system", "C6"], None,
                     "c5f806e309d7bd8e5caa8031595b99b13b92d1800b530fc15fe0c6c70c46b11f",
                     80 * 1000),
    "gallery-type-C6-positive": (
        ["gallery-type", "C6: " + " ".join(f"s{1 + 5 * i % 6}" for i in range(20))],
        "gallery type: yes\nx = e\n"
        "t = s1 s6 s5 s4 s3 s2 s1 s6 s5 s4 s3 s2 s1 s6 s5 s4 s3 s2 s1 s6\n"
        "gamma = 00000000000000000000\n", None, 80 * 1000),
    "gallery-type-A7-negative": (["gallery-type", _a7_negative_20()],
                                 "no labelled gallery exists\n", None, 80 * 1000),
    "fixed-points-text": (["fixed-points", FIXED_POINTS_20], None,
                          "67b14b343b8059a229ab5c1cb9dabe65b9512b99ca87fb85b075d1a245b23535",
                          389 * 1000),
    "fixed-points-structured": (
        ["--format", "structured", "fixed-points", FIXED_POINTS_20], None,
        "e2906ff452be7d5f342955be4a9a7db01993b01f9cea66bab9052763e24df996", 444 * 1000),
    "basis-structured": (["--format", "structured", "basis", A1_10], None,
                         "5f86c480be4faff8bf18733c7249c31e9542c6b809ced9ab08564457d24898ec",
                         327 * 1000),
    "decompose-one": (
        ["decompose", A1_10, json.dumps({"values": {format(k, "010b"): "1"
                                                    for k in range(1024)}})], None,
        "598ad4cf84b1e8381e0a561554f27e89d9ed5ae536e62ba6d9f055a7ab8204b4", 75 * 1000),
    "morphism-enumerate-A2": (
        ["morphism", "enumerate", "A2: s1 s2 s1 s2", "A2: s1 s2 s1 s2 s1 s2 s1 s2"], None,
        "05180bc09ef45fdce0381c2fd1c2346dac5289c308c1ff2469b752a13b7cc22a", 27 * 1000),
}


@pytest.mark.parametrize("name", BOUND_COMMANDS)
def test_bound_commands_stay_within_time_and_memory(name):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status")
    argv, text, digest, limit = BOUND_COMMANDS[name]
    start = time.perf_counter()
    proc, kib = run_with_peak(argv, timeout=60)
    assert time.perf_counter() - start < 20
    assert proc.returncode == 0
    if text is not None:
        assert proc.stdout.decode() == text
    else:
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert kib <= limit


def _cliwork():
    """bench/cliwork.py, loaded from its file without running it."""
    spec = importlib.util.spec_from_file_location(
        "cliwork", os.path.join(ROOT, "bench", "cliwork.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_corpus_in_one_process_forward_and_reversed():
    # the benchmark corpus through cli.main in this process, in order and
    # then reversed: every exit code and stdout digest is the recorded one,
    # whichever per-system tables earlier commands left built
    cliwork = _cliwork()
    mismatches = []
    for name, argv, _ in cliwork.CORPUS + cliwork.CORPUS[::-1]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        got = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
        if got != cliwork.EXPECTED[name]:
            mismatches.append((name, got))
    assert len(cliwork.CORPUS) == len(cliwork.EXPECTED) == 54
    assert mismatches == []


def test_fixed_points_a9(capsys):
    # |W(A9)| = 3,628,800 is above MAX_WEYL: the fixed points never need W
    plan = json.dumps({"root_system": "A9", "sequence": "s1 s2 s3 s4 s5 s6 s7 s8 s9 s1",
                       "pairs": [[1, 9]], "labels": {"1-9": "s1 s2 s3 s4 s5 s6 s7 s8 s9"}})
    code, out, _ = run(capsys, "--format", "structured", "fixed-points", plan)
    assert code == 0
    assert json.loads(out) == {"count": 2, "galleries": ["1111111110", "1111111111"]}


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
    # refused by FSelection itself, like any other malformed selection
    code, out, err = run(capsys, "project", SL5, "--pairs", "")
    assert (code, out, err) == (2, "", "error: F must be nonempty\n")


@pytest.mark.parametrize("argv,message", [
    (["fibres", SL5, "--pair", "9-9"], "(9, 9) is not a pair of the plan"),
    (["project", SL5, "--pairs", "9-9"], "(9, 9) is not a pair of the plan"),
    (["project", SL5, "--pairs", "2-6,9-9"], "(9, 9) is not a pair of the plan"),
    (["project", SL5, "--pairs", "1-10,2-6"], "intervals (1, 10) and (2, 6) of F are not disjoint"),
    (["fixed-points", CROSSED], "invalid nested structure (endpoint sets not disjoint: (1, 2), (2, 3))"),
    # the plan is refused before --max-length is applied
    (["--max-length", "1", "fixed-points", CROSSED],
     "invalid nested structure (endpoint sets not disjoint: (1, 2), (2, 3))"),
], ids=["fibres-outside", "project-outside", "project-one-outside", "project-overlapping",
        "plan-not-nested", "plan-not-nested-max-length"])
def test_selection_refused_by_the_library(capsys, argv, message):
    # the plan and selection checks are nested's; the CLI only reports them
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("argv", [
    ["fibres", SL5, "--pair", "2-x"],
    ["fibres", SL5, "--pair", "2-6-7"],
    ["fibres", SL5, "--pair", "9" * 5000 + "-6"],
    ["project", SL5, "--pairs", "2-6,1"],
    ["project", SL5, "--pairs", "1-1_0"],
    ["project", SL5, "--pairs", " +1-10"],
    ["fibres", SL5, "--pair", "02-6"],
], ids=["fibres-letter", "fibres-triple", "fibres-5000-digits", "project-single",
        "project-underscore", "project-sign", "fibres-leading-zero"])
def test_bad_pair_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "bad pair" in err


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


@pytest.mark.parametrize("source, target, count", [
    ("A3: s1 s1 s1", "A3:" + " s1" * 9, 172_032 * 2 ** 3),
    ("A5: s1 s1 s1 s1", "A5:" + " s1" * 12, 97_320_960 * 2 ** 4),
    ("A1:" + " s1" * 10, "A1:" + " s1" * 10, 2_048 * 2 ** 10),
], ids=["A3", "A5", "A1-equal-lengths"])
def test_morphism_candidates_are_bounded(source, target, count):
    # repeated letters make almost every (p, w, seed) a candidate: they are
    # counted, each times the 2^n galleries it is verified over, and refused
    # before any is built or verified.  Equal lengths leave few candidates
    # but long verifications
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "bscomb.cli", "morphism", "enumerate",
                           source, target], cwd=ROOT, env=env, capture_output=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode() == (f"error: morphism candidate galleries {count} exceeds "
                                    f"bound {errors.MAX_CANDIDATE_GALLERIES}\n")


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
    # |W(A3)| = 24: a bound equal to the order admits it, one less refuses it
    assert run(capsys, "--max-weyl", "24", "weyl", "info", "--root-system", "A3")[0] == 0
    assert run(capsys, "--max-weyl", "23", "weyl", "info", "--root-system", "A3")[0] == 3


def test_weyl_bound_checked_before_roots_are_built():
    # A60 has 3,660 roots; the order needs only family and rank, so the
    # refusal comes before the roots are closed under reflection, also
    # where the system is named in a sequence document.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv in (["weyl", "info", "--root-system", "A60"],
                 ["gallery-type", "A60: s1"],
                 ["morphism", "enumerate", "A60: s1", "A60: s1"]):
        proc = subprocess.run([sys.executable, "-m", "bscomb.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=2)
        assert (proc.returncode, proc.stdout) == (3, b""), argv


def test_structured_output_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "structured", "project", SL5,
                     "--pairs", "2-6")
    _, out2, _ = run(capsys, "--format", "structured", "project", SL5,
                     "--pairs", "2-6")
    assert out1 == out2


SL5_DOC = json.dumps({"root_system": "A4", "sequence": "s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
                      "pairs": [[1, 10], [2, 6]], "labels": {"1-10": "s2 s3 s4", "2-6": "s2"}})
A1_MORPHISM = json.dumps({"source": "A1: s1", "target": "A1: s1 s1", "p": [2], "w": "s1",
                          "phi": {"0": "10", "1": "11"}})
# valid commands whose arguments hold every kind of numeral: ranks, letters,
# root coordinates, pairs, JSON positions, bit patterns, and the
# coefficients, denominators, variables and exponents of polynomials
NUMERAL_COMMANDS = [
    ["gallery-type", "A2: s1 s[1,1]"],
    ["weyl", "info", "--root-system", "G2"],
    ["fixed-points", SL5_DOC],
    ["project", SL5_DOC, "--pairs", "2-6"],
    ["fibres", SL5_DOC, "--pair", "2-6"],
    ["basis", "B2: s1 s2"],
    ["decompose", "A2: s1", json.dumps({"values": dict.fromkeys(["0", "1"], "3*w1^2 - 1/2*w2")})],
    ["morphism", "verify", A1_MORPHISM],
    ["morphism", "enumerate", "A2: s1", "A2: s1 s2"],
    ["morphism", "apply", A1_MORPHISM, json.dumps({"values": {
        "00": "w1^2", "01": "w1^2", "10": "7/3", "11": "7/3"}})],
]
NON_ASCII_DIGITS = st.characters(categories=["Nd"]).filter(lambda c: not c.isascii())


@pytest.mark.parametrize("argv", NUMERAL_COMMANDS, ids=lambda argv: argv[0])
def test_numeral_commands_are_valid(capsys, argv):
    assert run(capsys, *argv)[0] == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_non_ascii_digit_is_a_parse_error(data):
    # any one ASCII digit of any argument value, replaced by a decimal digit
    # of another script, makes the command a parse error
    argv = data.draw(st.sampled_from(NUMERAL_COMMANDS), label="command")
    spots = [(i, k) for i, arg in enumerate(argv) for k, c in enumerate(arg)
             if c in "0123456789"]
    i, k = data.draw(st.sampled_from(spots), label="digit")
    digit = data.draw(NON_ASCII_DIGITS, label="replacement")
    argv = argv[:i] + [argv[i][:k] + digit + argv[i][k + 1:]] + argv[i + 1:]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), argv
