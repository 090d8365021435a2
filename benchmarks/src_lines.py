"""Lines of each file of src/bscomb, split three ways:

- docstring: a line of the leading string of a module, class or function;
- code: any other line that holds a token other than a comment;
- blank or comment: every other line.

Run from the repository root, on the working tree or on a git revision
(read through `git show`):

    python benchmarks/src_lines.py
    python benchmarks/src_lines.py 56a93ae
"""

import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/bscomb"
# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def split(text: str) -> dict[str, int]:
    """{"code", "docstring", "other", "total"} line counts of one file's text."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(text.splitlines())
    code -= docstring
    return {"code": len(code), "docstring": len(docstring),
            "other": total - len(code) - len(docstring), "total": total}


def sources(rev: str | None) -> dict[str, str]:
    """{file name: text} of the package's .py files, in the working tree or at rev."""
    if rev is None:
        folder = os.path.join(ROOT, PACKAGE)
        names = sorted(n for n in os.listdir(folder) if n.endswith(".py"))
        return {n: open(os.path.join(folder, n), encoding="utf-8").read() for n in names}

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout

    names = sorted(os.path.basename(p) for p in git("ls-tree", "--name-only", rev,
                                                      PACKAGE + "/").split()
                   if p.endswith(".py"))
    return {n: git("show", f"{rev}:{PACKAGE}/{n}") for n in names}


def main(argv: list[str]) -> int:
    rows = {name: split(text) for name, text in sources(argv[0] if argv else None).items()}
    rows["total"] = {key: sum(r[key] for r in rows.values()) for key in
                     ("code", "docstring", "other", "total")}
    print(f"{'file':<14}{'code':>7}{'docstring':>11}{'blank/comment':>15}{'total':>7}")
    for name, r in rows.items():
        print(f"{name:<14}{r['code']:>7}{r['docstring']:>11}{r['other']:>15}{r['total']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
