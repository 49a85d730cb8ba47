#!/usr/bin/env python3
"""Cross-check docs/knobs.md against the BenchOptions parser.

The knobs handbook (docs/knobs.md) claims to be the normative
inventory of every shared bench knob. This script keeps that claim
honest in both directions:

  * every `--flag` and `HYMM_*` environment variable the parser
    (src/sweep/bench_options.cpp) owns must appear in the handbook's
    knob table;
  * every flag / env var named in the handbook's table must appear in
    the parser source — no documenting knobs that do not exist;
  * every env var in the handbook's "Retired knobs" table must appear
    in the parser source (which rejects it), and must not also be
    documented as a live knob.

Flags are recognized as string literals ("--datasets") in the parser
and as `--flag` spellings in the table's first column; env vars as
HYMM_* identifiers on both sides. Run as a ctest (check_knobs_doc)
and from CI's docs job.

Usage: check_knobs.py [--doc docs/knobs.md] [--src src/sweep/bench_options.cpp]
Exit status: 0 in sync, 1 out of sync, 2 usage/IO error.
"""

import argparse
import pathlib
import re
import sys

FLAG_IN_SRC = re.compile(r'"(--[a-z][a-z0-9-]*)')
ENV_IN_SRC = re.compile(r"\b(HYMM_[A-Z_]+)\b")
# First two columns of a knob table row: | `--flag[...]` | `HYMM_X` or — |
ROW = re.compile(r"^\|\s*`(--[a-z][a-z0-9-]*)[^`]*`\s*\|\s*(`HYMM_[A-Z_]+`|—)")
# First column of a retired-knob row: | `HYMM_X` | `--old-flag` | ...
RETIRED_ROW = re.compile(r"^\|\s*`(HYMM_[A-Z_]+)`\s*\|")


def fail(message):
    print(f"check_knobs: {message}", file=sys.stderr)
    sys.exit(2)


def parser_knobs(src_path):
    try:
        text = src_path.read_text(encoding="utf-8")
    except OSError as err:
        fail(f"cannot read {src_path}: {err}")
    return set(FLAG_IN_SRC.findall(text)), set(ENV_IN_SRC.findall(text))


def documented_knobs(doc_path):
    try:
        lines = doc_path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        fail(f"cannot read {doc_path}: {err}")
    flags, envs, retired = set(), set(), set()
    for line in lines:
        if match := RETIRED_ROW.match(line.strip()):
            retired.add(match.group(1))
            continue
        match = ROW.match(line.strip())
        if not match:
            continue
        flags.add(match.group(1))
        if match.group(2) != "—":
            envs.add(match.group(2).strip("`"))
    if not flags:
        fail(f"{doc_path} has no knob table rows (format changed?)")
    return flags, envs, retired


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(prog="check_knobs.py")
    parser.add_argument("--doc", default=root / "docs" / "knobs.md",
                        type=pathlib.Path)
    parser.add_argument("--src",
                        default=root / "src" / "sweep" / "bench_options.cpp",
                        type=pathlib.Path)
    args = parser.parse_args(argv[1:])

    src_flags, src_envs = parser_knobs(args.src)
    doc_flags, doc_envs, doc_retired = documented_knobs(args.doc)

    problems = []
    for flag in sorted(src_flags - doc_flags):
        problems.append(f"flag {flag} is parsed but missing from {args.doc}")
    for flag in sorted(doc_flags - src_flags):
        problems.append(f"flag {flag} is documented but not parsed")
    for env in sorted(src_envs - doc_envs - doc_retired):
        problems.append(f"env var {env} is parsed but missing from "
                        f"{args.doc}")
    for env in sorted(doc_envs - src_envs):
        problems.append(f"env var {env} is documented but not parsed")
    for env in sorted(doc_retired - src_envs):
        problems.append(f"retired env var {env} is documented but not "
                        f"rejected by the parser")
    for env in sorted(doc_retired & doc_envs):
        problems.append(f"env var {env} is documented both as a knob and "
                        f"as retired")

    for problem in problems:
        print(f"check_knobs: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_knobs: OK — {len(doc_flags)} flags, {len(doc_envs)} env "
          f"vars, {len(doc_retired)} retired env vars in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
