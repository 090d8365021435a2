"""The CLI's usage texts: `-h` and the bare usage error of every command path.

`cli_help.json` holds, for each path, the exit code, stdout and stderr of
`bscomb <path> -h` and of `bscomb <path>` with its required arguments left
out, as argparse printed them at 80 columns under Python 3.11.  Another
version's argparse may word or wrap them differently, so the test runs
under 3.11 only.
"""

import json
import os
import sys

import pytest

from bscomb.cli import main

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_help.json")) as fh:
    EXPECTED = json.load(fh)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts recorded under Python 3.11")
@pytest.mark.parametrize("row", EXPECTED, ids=[" ".join(r["argv"]) or "-" for r in EXPECTED])
def test_usage_text_is_unchanged(row, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(row["argv"])
    out = capsys.readouterr()
    assert (stop.value.code, out.out, out.err) == (row["exit"], row["stdout"], row["stderr"])
