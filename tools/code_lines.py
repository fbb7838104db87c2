"""Count the code lines of each module of src/psikern and their total.

A code line is a source line that holds at least one token other than a
comment, a newline or an indent; the lines of docstrings (a string
literal as the first statement of a module, class or function) do not
count.  The count parses each file with ast and tokenize, so it does not
depend on formatting inside a statement beyond its line breaks.

Run from anywhere, with no arguments:

    python3 tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psikern"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> None:
    counts = {p.stem: code_lines(p) for p in sorted(SRC.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<12}{n:>6}")
    print(f"{'total':<12}{sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
