#!/usr/bin/env python3
"""Size of the program: code lines per `src/sacloc` module and settable values.

A code line is a line that holds a token of code: blank lines, comment lines
and docstring lines (the leading string of a module, class or function) do
not count. The settable values are the keys a config file may set (every
key `sacloc.cli.CONFIG_KEYS` accepts, plus `CONFIG_SCALARS`) and the
distinct options of the `sacloc` commands, `--help` aside.

    python3 scripts/src_size.py          # a table
    python3 scripts/src_size.py --json   # one JSON object
"""

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sacloc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def settable_values() -> tuple[int, int]:
    """(config keys, distinct CLI options) of the sacloc in `src/`."""
    sys.path.insert(0, str(SRC.parent))
    from sacloc import cli

    keys = sum(map(len, cli.CONFIG_KEYS.values())) + len(cli.CONFIG_SCALARS)
    options = set()
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for parser in sub.choices.values():
        for action in parser._actions:
            options.update(s for s in action.option_strings if s not in ("-h", "--help"))
    return keys, len(options)


def measure() -> dict:
    modules = {p.name: code_lines(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    keys, options = settable_values()
    return {"modules": modules, "code_lines": sum(modules.values()), "config_keys": keys,
            "cli_options": options, "settable_values": keys + options}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    size = measure()
    if args.json:
        print(json.dumps(size, indent=1))
        return 0
    for name, count in size["modules"].items():
        print(f"{name:<16}{count:>6}")
    print(f"{'src/sacloc':<16}{size['code_lines']:>6} code lines")
    print(f"settable values {size['settable_values']:>6} "
          f"({size['config_keys']} config keys, {size['cli_options']} CLI options)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
