"""The `cli` workload: a fixed corpus of commands, each in a fresh interpreter.

Every subcommand runs in both output formats, next to the documented error
exits: 2 for parse errors, 3 for resource bounds and 4 for not-in-span and
failed verification.  `weyl info` on A6 (|W| = 5040) is the one command
whose per-root-system set-up dominates.  Each command's exit code and the
SHA-256 of its stdout are recorded in EXPECTED; run this file to print the
table afresh after a deliberate change of output:

    python3 bench/cliwork.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "cli_child.py")

SL5 = json.dumps({"root_system": "A4", "sequence": "s4 s1 s2 s1 s2 s1 s3 s4 s3 s4",
                  "pairs": [[1, 10], [2, 6]], "labels": {"1-10": "s2 s3 s4", "2-6": "s2"}})
SMALL_PLAN = json.dumps({"root_system": "A2", "sequence": "s1 s1",
                         "pairs": [[1, 1]], "labels": {"1-1": "s1"}})
MORPHISM = {"source": "A1: s1", "target": "A1: s1 s1", "p": [2], "w": "s1",
            "phi": {"0": "10", "1": "11"}}
GOOD_MORPHISM = json.dumps(MORPHISM)
BAD_MORPHISM = json.dumps(dict(MORPHISM, w="e", phi={"0": "10", "1": "01"}))
TARGET_CLASS = json.dumps({"values": {"00": "w1", "01": "w1", "10": "0", "11": "0"}})
S = ["--format", "structured"]

# (name, argv, documented exit code)
CORPUS = [
    ("gallery-type.text", ["gallery-type", "A2: [1,1] [1,0]"], 0),
    ("gallery-type.structured.negative",
     S + ["gallery-type", "B3: [0,1,1] [1,1,1] [0,1,2] [1,2,2]"], 0),
    ("gallery-type.parse-error", ["gallery-type", "A2: bogus"], 2),
    ("gallery-type.bound", S + ["--max-length", "2", "gallery-type", "A2: s1 s2 s1"], 3),
    ("fixed-points.text", ["fixed-points", SL5], 0),
    ("fixed-points.structured", S + ["fixed-points", SMALL_PLAN], 0),
    ("fixed-points.parse-error", S + ["fixed-points", '{"root_system": "A2"}'], 2),
    ("project.text", ["project", SL5, "--pairs", "2-6"], 0),
    ("project.structured.check", S + ["project", SL5, "--pairs", "2-6",
                                      "--check-fixed-points"], 0),
    ("project.empty-selection", ["project", SL5, "--pairs", ""], 2),
    ("fibres.text", ["fibres", SL5], 0),
    ("fibres.structured", S + ["fibres", SL5, "--pair", "2-6"], 0),
    ("basis.text", ["basis", "A2: s1 s2"], 0),
    ("basis.structured", S + ["basis", "B2: s1 s2 s1 s2"], 0),
    ("basis.bound", ["--max-length", "3", "basis", "A2: s1 s2 s1 s2"], 3),
    ("decompose.text", ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3"}}'], 0),
    ("decompose.structured.not-in-span",
     S + ["decompose", "A2: s1", '{"values": {"0": "1", "1": "0"}}'], 4),
    ("morphism-verify.text", ["morphism", "verify", GOOD_MORPHISM], 0),
    ("morphism-verify.structured.failure", S + ["morphism", "verify", BAD_MORPHISM], 4),
    ("morphism-enumerate.text", ["morphism", "enumerate", "A1: s1", "A1: s1 s1"], 0),
    ("morphism-enumerate.structured",
     S + ["morphism", "enumerate", "A2: s1 s2", "A2: s1 s2 s1"], 0),
    ("morphism-apply.text", ["morphism", "apply", GOOD_MORPHISM, TARGET_CLASS], 0),
    ("morphism-apply.structured", S + ["morphism", "apply", GOOD_MORPHISM, TARGET_CLASS], 0),
    ("weyl-info.text", ["weyl", "info", "--root-system", "B3"], 0),
    ("weyl-info.structured.A6", S + ["weyl", "info", "--root-system", "A6"], 0),
    ("weyl-info.bound", ["--max-weyl", "100", "weyl", "info", "--root-system", "A5"], 3),
    ("gallery-type.structured", S + ["gallery-type", "A2: s1 s2"], 0),
    ("gallery-type.text.B3", ["gallery-type", "B3: s1 s2 s3 s2 s1"], 0),
    ("gallery-type.text.negative", ["gallery-type", "B3: [1,1,0] [0,1,1] [1,1,1]"], 0),
    ("gallery-type.structured.A3", S + ["gallery-type", "A3: [1,1,0] [0,1,1] [1,1,1]"], 0),
    ("gallery-type.text.G2", ["gallery-type", "G2: s1 s2 s1 s2"], 0),
    ("gallery-type.weyl-bound", ["--max-weyl", "10", "gallery-type", "A3: s1 s2"], 3),
    ("fixed-points.structured.sl5", S + ["fixed-points", SL5], 0),
    ("fixed-points.text.small", ["fixed-points", SMALL_PLAN], 0),
    ("fixed-points.bound", ["--max-length", "3", "fixed-points", SL5], 3),
    ("project.structured", S + ["project", SL5, "--pairs", "2-6"], 0),
    ("project.text.check", ["project", SL5, "--pairs", "2-6", "--check-fixed-points"], 0),
    ("fibres.text.pair", ["fibres", SL5, "--pair", "2-6"], 0),
    ("fibres.structured.all", S + ["fibres", SL5], 0),
    ("basis.text.G2", ["basis", "G2: s1 s2 s1"], 0),
    ("basis.structured.A1", S + ["basis", "A1: s1 s1 s1"], 0),
    ("basis.parse-error", ["basis", "X2: s1"], 2),
    ("decompose.structured", S + ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3"}}'], 0),
    ("decompose.text.not-in-span",
     ["decompose", "A2: s1", '{"values": {"0": "1", "1": "0"}}'], 4),
    ("decompose.parse-error", ["decompose", "A2: s1", '{"values": '], 2),
    ("morphism-verify.structured", S + ["morphism", "verify", GOOD_MORPHISM], 0),
    ("morphism-verify.text.failure", ["morphism", "verify", BAD_MORPHISM], 4),
    ("morphism-verify.parse-error", ["morphism", "verify", '{"p": [1]}'], 2),
    ("morphism-enumerate.text.B2", ["morphism", "enumerate", "B2: s1", "B2: s1 s2"], 0),
    ("morphism-enumerate.structured.A1",
     S + ["morphism", "enumerate", "A1: s1", "A1: s1 s1 s1"], 0),
    ("weyl-info.structured.A2", S + ["weyl", "info", "--root-system", "A2"], 0),
    ("weyl-info.text.D4", ["weyl", "info", "--root-system", "D4"], 0),
    ("weyl-info.structured.G2", S + ["weyl", "info", "--root-system", "G2"], 0),
    ("usage-error", ["no-such-command"], 2),
]

# Oversized inputs that the documentation bounds with exit code 3.  They run
# once per measured run, after the timed phase, under PROBE_TIMEOUT_S; a
# timeout is a failed probe.
PROBES = [
    ("basis.length-14", ["basis", "A1: " + " ".join(["s1"] * 14)], 3),
    ("morphism-enumerate.target-16",
     ["morphism", "enumerate", "A2: s1", "A2: " + " ".join(["s1"] * 16)], 3),
]
PROBE_TIMEOUT_S = 2.0
COMMAND_TIMEOUT_S = 60.0

# name -> [exit code, sha256 of stdout]; regenerate by running this file.
EXPECTED = {
    'gallery-type.text': [0, 'b13aa7040f9c058360473ea2c1db70dd3adb57dc13d62560f37722709a4874ff'],
    'gallery-type.structured.negative': [0, 'dd5aff50d44ff5575b64b67d15a603479d77a2b130acb59d63a9808521b3d2f0'],
    'gallery-type.parse-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'gallery-type.bound': [3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'fixed-points.text': [0, '8c61d01fe8e67c8f65205bdc9d5aac778414f161d3dc6e42352f5a588fe3777d'],
    'fixed-points.structured': [0, 'b2a8d9435e982ee6d295522331aaa5f7ac5ff2967615d6034b379a5b8fbd12fb'],
    'fixed-points.parse-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'project.text': [0, 'e02b8b54fb995a24dce98688991ab08487d4f394bf0e3b4c0ff17520eab29400'],
    'project.structured.check': [0, '4af48763c3659499e14731cd0d7a7b4cc800c7f23ae9b16b51c929afd3ce9803'],
    'project.empty-selection': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'fibres.text': [0, '887c1934eda3e985e2231202b20480d2b4c7603acb52857fb21dbe90f2da1912'],
    'fibres.structured': [0, 'a53ba747d5964ae9812e45ea078bc97987fee78350564b2985b8c23bb71935a3'],
    'basis.text': [0, 'c206a000f34c7c478d719386555adddb443485de2d373bfe08fdc2b4d0b33b43'],
    'basis.structured': [0, '293b08112cccab8b702ac9b8c7131718f6efb0a2738016b6841ae5e97688effd'],
    'basis.bound': [3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'decompose.text': [0, '92ba4c2418777b6bd64b2f9f77761cbec2b3cfc14c32794bb8b8382241c60606'],
    'decompose.structured.not-in-span': [4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'morphism-verify.text': [0, '6de93e2905ed63e59c937478285f2aa3b5e72c8e22ceaec7d8702c973304b8f1'],
    'morphism-verify.structured.failure': [4, '16b749aab413e782c676a3d8be048796517d79a9bdefece48dda870122b33880'],
    'morphism-enumerate.text': [0, 'a951edd39f04761c1240e0bc33c12c7c92bed96a447718e141266119c03b2a2f'],
    'morphism-enumerate.structured': [0, 'f03d6e1a5a3b17756c4779ae406a57df3a672823d6cf9201acdf403e8084967f'],
    'morphism-apply.text': [0, '247eafaee2bb2c1edf3a0cfd9930fadbb628886ba009922119e1f3a41f00b1e9'],
    'morphism-apply.structured': [0, '98cb0f71083edf2b1e9a28655e38180ee48f3411a2a3a8073d0bf6bf1884c2ed'],
    'weyl-info.text': [0, '9f4b28cfa48ad87b6a707766083e5cc05f97db728be8c95a03167a8fc25bd0fd'],
    'weyl-info.structured.A6': [0, '43f7f878d9695433afb0ebc82426774772ddea9b172cb2c292e3f47be7f433cd'],
    'weyl-info.bound': [3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'gallery-type.structured': [0, '37d5a820bac186db54d5a061dbe3b8240b9d5e705602ad020b5d8f425aeac56d'],
    'gallery-type.text.B3': [0, 'a32a424275c38622b7a6c926840d41e357a1d4b1d0d80b97773b1460a20c950d'],
    'gallery-type.text.negative': [0, '511edb7d477c6677871ce3c185792cd390d4f8d272c03125651196d719c5bc99'],
    'gallery-type.structured.A3': [0, '7494321d79518def416f8b92a67de440ba2211e1d27880763f97e15e7db46d65'],
    'gallery-type.text.G2': [0, 'c16162b8b9680a6d2942cae8dd49f6ade030a4946823d2cf9798b3dee9e10580'],
    'gallery-type.weyl-bound': [3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'fixed-points.structured.sl5': [0, '98b2b39471015d021263ea14b10d00878887d5a540c011504f14ff630ad7ce3a'],
    'fixed-points.text.small': [0, 'e57d4000b696ed925b5de83171e85c2224ac141496dd7a2d6003140727e7cd98'],
    'fixed-points.bound': [3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'project.structured': [0, '1c958c70625b9f1a911416d7af0cfb880a944d06c155de6724f6fd00088969a0'],
    'project.text.check': [0, '511a5dc04e4ff619e031dc37a9e503364a0725e7bcee69ea260e43b895c7f78c'],
    'fibres.text.pair': [0, '0c0b4059998ff1deb26be6a5cf59c6e55cbc1f8b859284832c5408cddbb2375d'],
    'fibres.structured.all': [0, 'b278e72bbb628b34bf38e44c12836061fd09fa8cd9da867248cb55bf5cfa1531'],
    'basis.text.G2': [0, '5b627516c26fb3ff4920fc2ecff2ca58f8db7425639361391e68f641616c1fe4'],
    'basis.structured.A1': [0, '19a17589fed0602eca14fbb76cab2054625a31a1973a2d1fd76abe86dd983d55'],
    'basis.parse-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'decompose.structured': [0, 'ff2a2c3bca9e0a0c79471de9fc16c75efd2d004736e39288c2af86b5c7ed0225'],
    'decompose.text.not-in-span': [4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'decompose.parse-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'morphism-verify.structured': [0, '94a2355b92e4f5b81613ad40c0772989d0ce39fae3be990172241ef617e2b952'],
    'morphism-verify.text.failure': [4, '2b88607ff81a26ae096cf7c97abda6b2f44d279b8c3ef09c49789832f332ddec'],
    'morphism-verify.parse-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'morphism-enumerate.text.B2': [0, '4f6f161fd882f58348828ba0dc3cfc3996ad25daf0a39fd1f24f606d9bb5db51'],
    'morphism-enumerate.structured.A1': [0, '68c5fd46ef8d302153b123d4cae04611c2c297e21a4b3347d1a0b6d8a9432002'],
    'weyl-info.structured.A2': [0, '0a8534333a2e0f54183305645290c0864102e4a5fd0ffa932abab5101b280467'],
    'weyl-info.text.D4': [0, '942192079ea2716d8b025d03a6672f0006c35d4fa59693f31e360e46c642ed67'],
    'weyl-info.structured.G2': [0, 'b0ddac3f8e96ca34b0f6b61a3277c35e3fc306973f187106227771c2283f34e3'],
    'usage-error': [2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
}


def rounds(seed: int):
    """Passes over the corpus, each in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(CORPUS)
        rng.shuffle(order)
        yield order


def child_env(trace_path: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("BSCOMB_BENCH_TRACE", None)
    if trace_path is not None:
        env["BSCOMB_BENCH_TRACE"] = trace_path
    return env


def run_command(argv, timeout: float, trace_path: str | None = None):
    """Run one command; returns (exit code or None on timeout, stdout)."""
    try:
        proc = subprocess.run([sys.executable, CHILD, *argv], capture_output=True,
                              timeout=timeout, cwd=ROOT, env=child_env(trace_path))
    except subprocess.TimeoutExpired:
        return None, b""
    return proc.returncode, proc.stdout


def run_probes() -> tuple[int, int]:
    """(attempted, failed) over PROBES; a probe passes on its documented
    exit code with empty stdout."""
    failed = 0
    for _, argv, code in PROBES:
        failed += run_command(argv, PROBE_TIMEOUT_S) != (code, b"")
    return len(PROBES), failed


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def record() -> dict:
    table = {}
    for name, argv, code in CORPUS:
        got, out = run_command(argv, COMMAND_TIMEOUT_S)
        if got != code:
            raise SystemExit(f"{name}: exit {got}, documented {code}")
        table[name] = [got, digest(out)]
    return table


if __name__ == "__main__":
    for name, entry in record().items():
        print(f"    {name!r}: {entry!r},")
