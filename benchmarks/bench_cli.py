"""Start-up microbenchmarks: `import bscomb`, `import bscomb.cli`, the cold
load of each layer, and one command per subcommand, each measurement in a
fresh interpreter.

A command pays interpreter start-up, the import of the layers it uses and
its own work; the two imports show the fixed part, and each layer's load
(`import bscomb.<layer>` and one attribute read, which runs the lazily
registered layer and the layers it imports) shows what that layer adds.
Run from the repository root:

    python -m pytest benchmarks/bench_cli.py

Tier-1 does not collect this file (`testpaths = ["tests"]`).
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SL5 = os.path.join(ROOT, "data", "sl5.plan")
MORPHISM = json.dumps({"source": "A1: s1", "target": "A1: s1 s1", "p": [2], "w": "s1",
                       "phi": {"0": "10", "1": "11"}})
CLASS = json.dumps({"values": {"00": "w1", "01": "w1", "10": "0", "11": "0"}})

# one public name per layer; reading it runs the layer
LAYER_NAMES = {"errors": "check_bound", "rootsys": "build_root_system",
               "gallery": "is_gallery_type", "poly": "Poly", "gkm": "basis",
               "nested": "fixed_points", "foldcat": "enumerate_morphisms", "formats": "dumps"}
IMPORTS = {"bscomb": "import bscomb", "bscomb.cli": "import bscomb.cli",
           **{f"bscomb.{layer}": f"import bscomb.{layer}; bscomb.{layer}.{name}"
              for layer, name in LAYER_NAMES.items()}}

COMMANDS = {
    "gallery-type": ["gallery-type", "B3: s1 s2 s3 s2 s1"],
    "fixed-points": ["fixed-points", SL5],
    "project": ["project", SL5, "--pairs", "2-6", "--check-fixed-points"],
    "fibres": ["fibres", SL5],
    "basis": ["basis", "B2: s1 s2 s1 s2"],
    "decompose": ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3"}}'],
    "morphism-verify": ["morphism", "verify", MORPHISM],
    "morphism-enumerate": ["morphism", "enumerate", "A2: s1 s2", "A2: s1 s2 s1"],
    "morphism-apply": ["morphism", "apply", MORPHISM, CLASS],
    "weyl-info": ["weyl", "info", "--root-system", "B3"],
}


def _run(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("name", sorted(IMPORTS))
def test_import(benchmark, name):
    benchmark(_run, ["-c", IMPORTS[name]])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command(benchmark, name):
    benchmark(_run, ["-m", "bscomb.cli", *COMMANDS[name]])
