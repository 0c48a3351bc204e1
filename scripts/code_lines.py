#!/usr/bin/env python3
"""Print the code lines of each module of the toricfg package, and their
total.

A code line is a line that is not blank, not a comment and not part of a
docstring (the string that opens a module, class or function body).

    python3 scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/toricfg next to this script.
"""

import argparse
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), 1)
        if i not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="code lines of each module of a package, and their total")
    ap.add_argument("package", nargs="?", default=os.path.join(ROOT, "src", "toricfg"))
    args = ap.parse_args(argv)
    names = sorted(n for n in os.listdir(args.package) if n.endswith(".py"))
    counts = {n[:-3]: code_lines(os.path.join(args.package, n)) for n in names}
    width = max(map(len, counts))
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}}  {n:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
