#!/usr/bin/env python3
"""Fails when any function under src/ has zero executions in a coverage build.

Usage:
    cmake -B build-cov -S . -DCMAKE_CXX_FLAGS="--coverage -O0" \\
          -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -j
    python3 scripts/coverage_gate.py build-cov

Runs gcov (JSON output) on every .gcno file in the build tree and merges
the records by source position: a src/ function counts as executed when any
translation unit that compiled it ran it, and a template counts once per
definition, executed when any instantiation ran. Declarations written
`= default` are skipped, because gcov lists them unexecuted even when they
are used. Prints every zero-execution function, then the line totals, and
exits 1 when the list is not empty.

Forked children leave with _exit, which skips the flush of their .gcda
counts, so a function that runs only in a forked plane worker reads as
unexecuted here. Every plane role also runs in threads mode, so no src/
function is fork-only today; a new one must be tested in threads mode too,
or run in the parent.
"""

import json
import os
import subprocess
import sys


def gcov_records(build_dir):
    """Yields each gcov JSON document for the .gcno files under build_dir."""
    notes = []
    for root, _dirs, files in os.walk(build_dir):
        notes.extend(os.path.join(root, f) for f in files if f.endswith(".gcno"))
    notes.sort()
    for i in range(0, len(notes), 32):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + notes[i:i + 32],
            cwd=build_dir, capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: coverage_gate.py BUILD_DIR", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    functions = {}  # (path, start line) -> [max execution count, name]
    lines = {}      # (path, line) -> max count
    for doc in gcov_records(build_dir):
        cwd = doc.get("current_working_directory", build_dir)
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(src))
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                entry = functions.setdefault(key, [0, fn["demangled_name"]])
                entry[0] = max(entry[0], fn["execution_count"])
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = max(lines.get(key, 0), ln["count"])

    sources = {}

    def source_line(rel, n):
        if rel not in sources:
            with open(os.path.join(os.path.dirname(src), rel)) as fh:
                sources[rel] = fh.read().splitlines()
        text = sources[rel]
        return text[n - 1] if 0 < n <= len(text) else ""

    uncovered = sorted(
        (rel, line, name) for (rel, line), (count, name) in functions.items()
        if count == 0 and "= default" not in source_line(rel, line))
    for rel, line, name in uncovered:
        print("%s:%d: %s" % (rel, line, name))
    ran = sum(1 for count in lines.values() if count > 0)
    print("%d src/ functions, %d with zero executions; %d of %d instrumented src/ lines ran"
          % (len(functions), len(uncovered), ran, len(lines)))
    return 1 if uncovered else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
