#!/usr/bin/env python3
"""Lint: src/common/byte_io.h is the only byte codec under src/.

Every persisted and transmitted format encodes its integers through
common/byte_io.h (DESIGN.md §6, §9.1), so disk and wire share one
little-endian encoding.  This check fails when any other file under src/

  * defines a scalar encoder or decoder named Put, Get or Read plus
    U8/U16/U32/U64/F64, or AppendScalar,
  * defines a class or struct named ByteReader, or
  * appends a scalar's object bytes with reinterpret_cast<const char*>(&v).

Usage: scripts/check_byte_codec.py [--root REPO_ROOT]
"""

import argparse
import pathlib
import re
import sys

CODEC_HEADER = pathlib.PurePosixPath("common/byte_io.h")

NAME = r"(?:(?:Put|Get|Read)(?:U8|U16|U32|U64|F64)|AppendScalar)"
# A return type (one or more words, optionally templated, pointer or
# reference) directly followed by the helper name and its parameter list:
# the shape of a definition or declaration, never of a call.
KEYWORDS = r"(?!(?:return|else|case|throw|new|delete|sizeof)\b)"
FUNCTION_RE = re.compile(
    r"^[ \t]*(?:template\s*<[^>]*>\s*)?" + KEYWORDS +
    r"[A-Za-z_][\w:<>,]*(?:[ \t]+[A-Za-z_][\w:<>,]*)*[ \t*&]+"
    r"(?P<name>" + NAME + r")\s*\(",
    re.M,
)
READER_RE = re.compile(r"\b(?:class|struct)\s+ByteReader\b\s*(?:final\s*)?[:{]")
SCALAR_BYTES_RE = re.compile(r"reinterpret_cast<\s*const\s+char\s*\*\s*>\s*\(\s*&")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text,
                  flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def check(src_dir):
    problems = []
    for path in sorted(src_dir.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = pathlib.PurePosixPath(path.relative_to(src_dir).as_posix())
        if rel == CODEC_HEADER:
            continue
        text = strip_comments(path.read_text(encoding="utf-8", errors="replace"))
        found = []
        for match in FUNCTION_RE.finditer(text):
            found.append((match.start("name"), f"defines {match.group('name')}"))
        for match in READER_RE.finditer(text):
            found.append((match.start(), "defines a ByteReader"))
        for match in SCALAR_BYTES_RE.finditer(text):
            found.append((match.start(), "appends a scalar's object bytes"))
        for offset, what in sorted(found):
            problems.append(f"src/{rel}:{line_of(text, offset)}: {what}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    args = parser.parse_args()
    src_dir = args.root / "src"
    if not (src_dir / CODEC_HEADER).is_file():
        print(f"error: {src_dir / CODEC_HEADER} is missing", file=sys.stderr)
        return 1
    problems = check(src_dir)
    for problem in problems:
        print(f"error: {problem}; encode through common/byte_io.h instead",
              file=sys.stderr)
    if problems:
        return 1
    print("byte codec lint: src/common/byte_io.h is the only byte codec")
    return 0


if __name__ == "__main__":
    sys.exit(main())
