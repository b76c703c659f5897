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
    oracle in src/reference/ may call GroupSumByBucket or GroupCountByBucket,
    and no file under src/ outside src/bsi/bsi_group_by.* calls
    PartitionByBucket (its per-bucket bitmaps are for benches and tests).
  * one scatter/gather -- net::Coordinator is the only scatter/gather
    (DESIGN.md §5, §9): only src/net/coordinator.cc merges per-segment
    partials into a scorecard (calls StoreSegmentPartial), and only
    ExecuteQueryRequest in src/cluster/segment_query.cc, the node-side
    execution both node links run, calls ExecuteSegmentQuery.  Both are
    defined in src/cluster/segment_query.*.
  * one kernel path -- the library runs only its word-level BSI kernels
    (DESIGN.md §4); the paper's pairwise folds live in
    tests/support/pairwise_kernels.* for the tests and the ablation benches.
    No file under src/ names MultiOpKernel (or its Get/Set accessors),
    EXPBSI_LEGACY_PAIRWISE, or an identifier ending in Pairwise.
  * one durable write -- src/common/file_io.cc is the only file that
    defines FlushAndSync or SyncParentDir; the WAL writer has one write path
    (DESIGN.md §8.4), so no file under src/ names group_commit or
    AppendGrouped; and the torn-write fault rule (EvaluateWriteFault) is the
    only holder of its torn-prefix constant 0x517cc1b727220a95, which
    appears in exactly one src/ file, src/common/fault_injector.cc.

Comments are stripped before matching.

Usage: scripts/check_single_impl.py [--root REPO_ROOT]
"""

import argparse
import collections
import pathlib
import re
import sys

# `required`, when set, is a regex the anchor file itself must match: with
# `allowed` naming only the anchor, the concept then lives in exactly one
# file.
Rule = collections.namedtuple(
    "Rule", "anchor allowed patterns fix ok required", defaults=(None,))

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
PARTITION_CALL_RE = re.compile(r"\b(?P<name>PartitionByBucket)\s*\(")
MERGE_CALL_RE = re.compile(r"\b(?P<name>StoreSegmentPartial)\s*\(")
EXECUTE_CALL_RE = re.compile(r"\b(?P<name>ExecuteSegmentQuery)\s*\(")
KERNEL_SWITCH_RE = re.compile(
    r"\b(?P<name>\w*MultiOpKernel|EXPBSI_LEGACY_PAIRWISE|\w*Pairwise)\b")

SYNC_HELPER_DEF_RE = re.compile(
    r"^[ \t]*(?:static[ \t]+)?[\w:<>]+[ \t*&]+(?:\w+::)*"
    r"(?P<name>FlushAndSync|SyncParentDir)\s*\([^;{}()]*\)\s*\{",
    re.M,
)
WAL_SECOND_PATH_RE = re.compile(r"\b(?P<name>group_commit|AppendGrouped)\b")
TORN_PREFIX_RE = re.compile(r"0x517cc1b727220a95", re.I)

GROUP_BY_FILES = {P("bsi/bsi_group_by.h"), P("bsi/bsi_group_by.cc")}
FOLD_FILES = GROUP_BY_FILES | {P("engine/experiment_data.cc")}
SEGMENT_QUERY_FILES = {P("cluster/segment_query.h"),
                       P("cluster/segment_query.cc")}

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
    Rule(
        anchor=P("bsi/bsi_group_by.cc"),
        allowed=lambda rel: rel in GROUP_BY_FILES,
        patterns=(
            (PARTITION_CALL_RE, "name", lambda m: f"calls {m.group('name')}"),
        ),
        fix="fold through FoldIntoBuckets (engine/experiment_data.h), which "
            "groups without per-bucket bitmaps, instead",
        ok="bucket partition lint: nothing under src/ outside "
           "src/bsi/bsi_group_by.* calls PartitionByBucket",
    ),
    Rule(
        anchor=P("net/coordinator.cc"),
        allowed=lambda rel: (rel in SEGMENT_QUERY_FILES or
                             rel == P("net/coordinator.cc")),
        patterns=(
            (MERGE_CALL_RE, "name", lambda m: f"calls {m.group('name')}"),
        ),
        fix="scatter and gather through net::Coordinator (an in-process "
            "cluster uses its in-process node link) instead",
        ok="scatter/gather lint: net::Coordinator in src/net/coordinator.cc "
           "is the only scatter/gather",
    ),
    Rule(
        anchor=P("cluster/segment_query.cc"),
        allowed=lambda rel: rel in SEGMENT_QUERY_FILES,
        patterns=(
            (EXECUTE_CALL_RE, "name", lambda m: f"calls {m.group('name')}"),
        ),
        fix="execute node requests through ExecuteQueryRequest "
            "(cluster/segment_query.h) instead",
        ok="node execution lint: ExecuteQueryRequest in "
           "src/cluster/segment_query.cc is the only node-side execution",
    ),
    Rule(
        anchor=P("bsi/bsi_compare.cc"),
        allowed=lambda rel: False,
        patterns=(
            (KERNEL_SWITCH_RE, "name", lambda m: f"names {m.group('name')}"),
        ),
        fix="call the word-level kernel; the pairwise folds belong in "
            "tests/support/pairwise_kernels.*",
        ok="kernel path lint: nothing under src/ names a kernel switch or a "
           "pairwise kernel",
    ),
    Rule(
        anchor=P("common/file_io.cc"),
        allowed=lambda rel: rel == P("common/file_io.cc"),
        patterns=(
            (SYNC_HELPER_DEF_RE, "name",
             lambda m: f"defines {m.group('name')}"),
        ),
        fix="call fileio::FlushAndSync / fileio::SyncParentDir "
            "(common/file_io.h) instead",
        ok="durable write lint: src/common/file_io.cc is the only definer of "
           "the fsync helpers",
    ),
    Rule(
        anchor=P("wal/wal.cc"),
        allowed=lambda rel: False,
        patterns=(
            (WAL_SECOND_PATH_RE, "name",
             lambda m: f"names {m.group('name')}"),
        ),
        fix="append through WalWriter::Append, the one WAL write path",
        ok="durable write lint: the WAL writer has one write path",
    ),
    Rule(
        anchor=P("common/fault_injector.cc"),
        allowed=lambda rel: rel == P("common/fault_injector.cc"),
        patterns=(
            (TORN_PREFIX_RE, 0, lambda m: "holds the torn-prefix constant"),
        ),
        required=TORN_PREFIX_RE,
        fix="decide torn writes through EvaluateWriteFault "
            "(common/fault_injector.h) instead",
        ok="durable write lint: EvaluateWriteFault in "
           "src/common/fault_injector.cc is the only torn-write fault rule",
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
        if rule.required is not None:
            anchor_text = dict(files)[rule.anchor]
            if not rule.required.search(anchor_text):
                problems.append(f"src/{rule.anchor}: does not hold "
                                f"{rule.required.pattern}")
        for problem in problems:
            print(f"error: {problem}; {rule.fix}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(rule.ok)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
