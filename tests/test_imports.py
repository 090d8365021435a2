"""The import surface: which layer modules each entry point executes.

Every test runs in a fresh interpreter, since a module executed once stays
executed for the life of the process.  A lazily registered module is a
`importlib.util._LazyModule` until its first attribute access; a module
counts as executed when its type is plain `types.ModuleType` again.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("errors", "rootsys", "gallery", "poly", "gkm", "nested", "foldcat", "formats")

MORPHISM = json.dumps({"source": "A1: s1", "target": "A1: s1 s1", "p": [2], "w": "s1",
                       "phi": {"0": "10", "1": "11"}})

EXECUTED = """
import json, sys, types
print(json.dumps(sorted(k for k, m in sys.modules.items()
                        if k.startswith("bscomb") and type(m) is types.ModuleType)))
"""

RUN_COMMAND = """
import contextlib, io, sys
from bscomb import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert code == 0, code
""" + EXECUTED


def python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def executed(code: str, *argv) -> set[str]:
    return set(json.loads(python("-c", code, *argv).stdout))


def test_import_package_executes_no_layer():
    assert executed("import bscomb" + EXECUTED) == {"bscomb"}


def test_import_cli_registers_every_layer():
    # bench/spans.py `Tracer.install` imports bscomb.cli and then reads
    # sys.modules["bscomb.<layer>"] for every traced layer.
    code = f"""
import sys, bscomb.cli
missing = [l for l in {LAYERS!r} if "bscomb." + l not in sys.modules]
assert not missing, missing
""" + EXECUTED
    assert executed(code) == {"bscomb", "bscomb.cli", "bscomb.errors"}


@pytest.mark.parametrize("argv", [
    [], ["no-such-command"], ["--max-length", "x", "basis", "A1:"],
    ["--max-length", "\u0661_0", "basis", "A1:"], ["--max-weyl", " +1_00", "basis", "A1:"],
    ["--max-length", "05", "basis", "A1:"], ["--max-weyl", "05", "basis", "A1:"],
], ids=["no-command", "unknown-command", "bad-flag-value", "non-ascii-digit", "sign-underscore",
        "leading-zero", "weyl-leading-zero"])
def test_usage_error_executes_no_layer(argv):
    # the flag defaults and the numeral rule come from errors, so argparse's
    # refusal runs no layer
    code = """
import contextlib, io, sys
from bscomb import cli
with contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit as exc:
        assert exc.code == 2, exc.code
    else:
        raise AssertionError("no usage error")
""" + EXECUTED
    assert executed(code, *argv) == {"bscomb", "bscomb.cli", "bscomb.errors"}


@pytest.mark.parametrize("argv", [
    ["gallery-type", "A2: s1 s2"],
    ["--format", "structured", "gallery-type", "B3: [0,1,1] [1,1,1] [0,1,2] [1,2,2]"],
    ["weyl", "info", "--root-system", "A2"],
], ids=["gallery-type", "gallery-type-negative", "weyl-info"])
def test_search_commands_skip_cohomology_nesting_and_morphisms(argv):
    modules = executed(RUN_COMMAND, *argv)
    assert not modules & {"bscomb.gkm", "bscomb.poly", "bscomb.nested", "bscomb.foldcat"}


@pytest.mark.parametrize("argv", [
    ["basis", "A2: s1 s2"],
    ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3"}}'],
], ids=["basis", "decompose"])
def test_cohomology_commands_skip_nesting_and_morphisms(argv):
    modules = executed(RUN_COMMAND, *argv)
    assert "bscomb.gkm" in modules
    assert not modules & {"bscomb.nested", "bscomb.foldcat"}


# one command per subcommand
COMMANDS = {
    "gallery-type": ["gallery-type", "A2: s1 s2"],
    "fixed-points": ["fixed-points", "data/sl5.plan"],
    "project": ["project", "data/sl5.plan", "--pairs", "2-6", "--check-fixed-points"],
    "fibres": ["fibres", "data/sl5.plan"],
    "basis": ["basis", "A2: s1 s2"],
    "decompose": ["decompose", "A2: s1", '{"values": {"0": "3", "1": "3"}}'],
    "morphism-verify": ["morphism", "verify", MORPHISM],
    "morphism-enumerate": ["morphism", "enumerate", "A2: s1", "A2: s1 s2"],
    "morphism-apply": ["morphism", "apply", MORPHISM,
                       '{"values": {"00": "w1", "01": "w1", "10": "0", "11": "0"}}'],
    "weyl-info": ["weyl", "info", "--root-system", "A2"],
}
SLOW_IMPORTS = """
import sys
assert not {"dataclasses", "inspect"} & set(sys.modules), sorted(sys.modules)
"""


@pytest.mark.parametrize("name", COMMANDS)
def test_command_imports_no_dataclasses(name):
    # the value types are plain classes: no command pays for dataclasses
    python("-c", RUN_COMMAND + SLOW_IMPORTS, *COMMANDS[name])


def test_loading_every_layer_imports_no_dataclasses():
    code = f"""
import bscomb, sys, types
for layer in {LAYERS!r}:
    vars(getattr(bscomb, layer))  # runs the lazily registered layer
    assert type(sys.modules["bscomb." + layer]) is types.ModuleType, layer
""" + SLOW_IMPORTS
    python("-c", code)


def test_run_as_module_is_quiet():
    proc = python("-m", "bscomb.cli", "weyl", "info", "--root-system", "A2")
    assert proc.stderr == ""
    assert "|W| = 6" in proc.stdout


def test_public_and_layer_names_resolve():
    code = f"""
import bscomb, sys
for layer in {LAYERS!r}:
    assert getattr(bscomb, layer) is sys.modules["bscomb." + layer], layer
for name in bscomb.__all__:
    value = getattr(bscomb, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
assert set(bscomb.__all__) | set({LAYERS!r}) <= set(dir(bscomb))
try:
    bscomb.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
"""
    python("-c", code)


def test_library_names_are_imported_from_their_owner():
    # `from .layer import name` names a function, class or module-level
    # name that the layer defines itself, not one it imports in turn
    src = Path(ROOT) / "src" / "bscomb"
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    defined = {}
    for layer, tree in trees.items():
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        defined[layer] = names
    relayed = [f"{layer} imports {a.name} through {node.module}"
               for layer, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for a in node.names if a.name not in defined[node.module]]
    assert relayed == []
