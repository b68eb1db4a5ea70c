"""Line counts of the lpvslc sources: all lines and code lines per module.

Code lines are the lines that are not blank, not comment-only and not
part of a docstring (the string statement that opens a module, class or
function body).  Standard library only.

    python3 tools/src_lines.py [SRC_DIR]     # default: src/lpvslc
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple:
    """(all lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in docs and line.strip()
               and not line.strip().startswith("#"))
    return len(lines), code


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path("src/lpvslc")
    total_all = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        n_all, n_code = counts(path)
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16} {n_all:>6} {n_code:>6}")
    print(f"{'total':<16} {total_all:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
