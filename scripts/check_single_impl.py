#!/usr/bin/env python3
"""Lint: each concept below has one implementation under src/.

Rules (RULES below), each with the files allowed to hold the concept:

  * byte codec -- src/common/byte_io.h is the only byte codec.  Every
    persisted and transmitted format encodes its integers through it
    (DESIGN.md §6, §9.1), so disk and wire share one little-endian encoding.
    Any other file fails when it
      - defines a scalar encoder or decoder named Put, Get or Read plus
        U8/U16/U32/U64/F64, or AppendScalar,
      - defines a class or struct named ByteReader, or
      - appends a scalar's object bytes with reinterpret_cast<const char*>(&v).
  * bucket fold -- FoldIntoBuckets in src/engine/experiment_data.cc is the
    only place masked sums and counts fold into per-bucket replicates
    (DESIGN.md §4).  Only src/bsi/bsi_group_by.*, that file and the scalar
    oracle in src/reference/ may call GroupSumByBucket or GroupCountByBucket.

Comments are stripped before matching.

Usage: scripts/check_single_impl.py [--root REPO_ROOT]
"""

import argparse
import collections
import pathlib
import re
import sys

Rule = collections.namedtuple(
    "Rule", "anchor allowed patterns fix ok")

P = pathlib.PurePosixPath

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
GROUP_BY_CALL_RE = re.compile(
    r"\b(?P<name>GroupSumByBucket|GroupCountByBucket)\s*\(")

FOLD_FILES = {P("bsi/bsi_group_by.h"), P("bsi/bsi_group_by.cc"),
              P("engine/experiment_data.cc")}

RULES = (
    Rule(
        anchor=P("common/byte_io.h"),
        allowed=lambda rel: rel == P("common/byte_io.h"),
        patterns=(
            (FUNCTION_RE, "name", lambda m: f"defines {m.group('name')}"),
            (READER_RE, 0, lambda m: "defines a ByteReader"),
            (SCALAR_BYTES_RE, 0, lambda m: "appends a scalar's object bytes"),
        ),
        fix="encode through common/byte_io.h instead",
        ok="byte codec lint: src/common/byte_io.h is the only byte codec",
    ),
    Rule(
        anchor=P("engine/experiment_data.cc"),
        allowed=lambda rel: rel in FOLD_FILES or rel.parts[0] == "reference",
        patterns=(
            (GROUP_BY_CALL_RE, "name", lambda m: f"calls {m.group('name')}"),
        ),
        fix="fold through FoldIntoBuckets (engine/experiment_data.h) instead",
        ok="bucket fold lint: FoldIntoBuckets in "
           "src/engine/experiment_data.cc is the only bucket fold",
    ),
)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text,
                  flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def sources(src_dir):
    """(relative path, comment-stripped text) of every .cc/.h under src/."""
    for path in sorted(src_dir.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = P(path.relative_to(src_dir).as_posix())
        yield rel, strip_comments(
            path.read_text(encoding="utf-8", errors="replace"))


def check(rule, files):
    problems = []
    for rel, text in files:
        if rule.allowed(rel):
            continue
        found = []
        for regex, group, describe in rule.patterns:
            for match in regex.finditer(text):
                found.append((match.start(group), describe(match)))
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
    files = list(sources(src_dir))
    failed = False
    for rule in RULES:
        if not (src_dir / rule.anchor).is_file():
            print(f"error: {src_dir / rule.anchor} is missing",
                  file=sys.stderr)
            failed = True
            continue
        problems = check(rule, files)
        for problem in problems:
            print(f"error: {problem}; {rule.fix}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(rule.ok)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
