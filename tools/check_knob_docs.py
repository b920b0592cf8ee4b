#!/usr/bin/env python3
"""Knob-docs check: every BFC_* name the docs mention must exist in code.

Scans README.md, docs/*.md, perfbench/README.md and the verify skill for
BFC_* names, and fails (exit 1, listing each stale name and the doc that
names it) when a name appears nowhere in src/, bench/, tests/, tools/,
CMakeLists.txt or .github/. A name ending in "_" (a documented family
such as the fault-storm knobs) passes when any code name starts with it.

Usage: check_knob_docs.py [REPO_ROOT]   (default: this script's repo)
"""

import glob
import os
import re
import sys

NAME = re.compile(r"\bBFC_[A-Z0-9_]+")
DOCS = ("README.md", "docs/*.md", "perfbench/README.md",
        ".claude/skills/verify/SKILL.md")
CODE = ("src", "bench", "tests", "tools", "CMakeLists.txt", ".github")


def names_in(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return set(NAME.findall(f.read()))


def code_files(root):
    me = os.path.abspath(__file__)
    for entry in CODE:
        top = os.path.join(root, entry)
        if os.path.isfile(top):
            yield top
        for d, _, files in os.walk(top):
            for name in files:
                path = os.path.join(d, name)
                if os.path.abspath(path) != me:
                    yield path


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    code = set()
    for path in code_files(root):
        code |= names_in(path)
    stale = []
    for pattern in DOCS:
        for doc in sorted(glob.glob(os.path.join(root, pattern))):
            for name in sorted(names_in(doc)):
                if name in code or (name.endswith("_") and
                                    any(c.startswith(name) for c in code)):
                    continue
                stale.append((os.path.relpath(doc, root), name))
    for doc, name in stale:
        print(f"check_knob_docs: {doc} names {name}, which appears nowhere in the code",
              file=sys.stderr)
    print(f"check_knob_docs: {len(code)} code names, {len(stale)} stale "
          "doc names")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
