#!/usr/bin/env python3
"""Fails when a src/ function never runs: under ctest, or (--product) in the product.

Usage:
    cmake -B build-cov -S . -DCMAKE_CXX_FLAGS="--coverage -O0" \\
          -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -j
    python3 scripts/coverage_gate.py build-cov
    python3 scripts/coverage_gate.py --product build-cov

Runs gcov (JSON output) on every .gcno file in the build tree and merges
the records by source position: a src/ function counts as executed when any
translation unit that compiled it ran it, and a template counts once per
definition, executed when any instantiation ran. Declarations written
`= default` are skipped, because gcov lists them unexecuted even when they
are used.

Without --product, the gate reads the counts ctest left, prints every
zero-execution function, then the line totals, and exits 1 when the list is
not empty.

With --product, the gate measures what the product runs, not the tests. It
deletes the tree's .gcda counts (so run it after the ctest gate), then runs:
  * bench/run_figs.sh BUILD_DIR BUILD_DIR/product-figs --smoke;
  * every BUILD_DIR/example_* binary;
  * iolite_bench --workload W --seed 0 --scale 0.03 for every workload in
    BENCHMARK.json, built from benchmark/ in BUILD_DIR/product-bench with
    the tree's own compiler flags and build type.
Any of those failing fails the gate. It then merges the counts of both
trees and prints every src/ function the product never ran. It exits 1 when
one of them is missing from scripts/product_allowlist.txt, when an entry
there gives no reason, or when an entry names no src/ function at all.
Entries that did run are printed as notes; they do not fail the gate.

Forked children leave with _exit, which skips the flush of their .gcda
counts, so a function that runs only in a forked plane worker reads as
unexecuted here. Every plane role also runs in threads mode (under ctest,
and in the product through example_ipc_plane), so no src/ function is
fork-only today; a new one must run in threads mode too, or in the parent.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "scripts", "product_allowlist.txt")
PRODUCT_SCALE = "0.03"


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


# Operator names whose characters would read as template or parameter brackets.
OPERATORS = ["()", "[]", "<=>", "<<=", ">>=", "<<", ">>", "<=", ">=", "->*", "->", "<", ">"]


def stable_name(name):
    """A demangled name without template arguments, parameter lists and qualifiers.

    gcov names a template by whichever instantiation it lists first, and that
    may be a test's; the allowlist names functions this way instead, so an
    entry covers every instantiation and overload of one function."""
    s = name.replace("(anonymous namespace)", "{anonymous}")
    s = re.sub(r"\[abi:[^\]]*\]", "", s)
    for i, op in enumerate(OPERATORS):
        s = s.replace("operator" + op, "operator@%d@" % i)
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>()]*>", "", s)
        s = re.sub(r"\([^()<>]*\)", "", s)
    s = re.sub(r"\s+(const|volatile|&&|&)(?=$|::)", "", s).strip()
    for i, op in enumerate(OPERATORS):
        s = s.replace("operator@%d@" % i, "operator" + op)
    return s


def merged_counts(build_dir):
    """Returns ({(rel path, start line): [max count, name]}, {(rel path, line): max count})."""
    functions = {}
    lines = {}
    for doc in gcov_records(build_dir):
        cwd = doc.get("current_working_directory", build_dir)
        for f in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(SRC + os.sep):
                continue
            rel = os.path.relpath(path, ROOT)
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                entry = functions.setdefault(key, [0, fn["demangled_name"]])
                entry[0] = max(entry[0], fn["execution_count"])
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = max(lines.get(key, 0), ln["count"])
    return functions, lines


def unexecuted(functions):
    """The sorted (rel path, line, name) of every zero-count function."""
    sources = {}

    def source_line(rel, n):
        if rel not in sources:
            with open(os.path.join(ROOT, rel)) as fh:
                sources[rel] = fh.read().splitlines()
        text = sources[rel]
        return text[n - 1] if 0 < n <= len(text) else ""

    return sorted(
        (rel, line, name) for (rel, line), (count, name) in functions.items()
        if count == 0 and "= default" not in source_line(rel, line))


def run_step(label, cmd, **kwargs):
    """Runs one product step; returns False (after printing why) on failure."""
    print("== %s" % label, flush=True)
    result = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, **kwargs)
    if result.returncode != 0:
        print("%s exited %d:\n%s" % (label, result.returncode, result.stderr[-4000:]),
              file=sys.stderr)
        return False
    return True


def cache_value(build_dir, name):
    """The value of `name` in the tree's CMakeCache.txt, or ""."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as fh:
        for line in fh:
            m = re.match(r"%s:[A-Z]+=(.*)$" % re.escape(name), line.rstrip("\n"))
            if m:
                return m.group(1)
    return ""


def run_product(build_dir):
    """Resets the counts and runs the figure smokes, the examples and the benchmark."""
    bench_dir = os.path.join(build_dir, "product-bench")
    for root, _dirs, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(root, f))
    ok = run_step("figure smokes",
                  ["sh", os.path.join(ROOT, "bench", "run_figs.sh"), build_dir,
                   os.path.join(build_dir, "product-figs"), "--smoke"], cwd=ROOT)
    examples = sorted(f for f in os.listdir(build_dir)
                      if f.startswith("example_") and os.access(os.path.join(build_dir, f), os.X_OK))
    if not examples:
        print("no example_* binaries in %s" % build_dir, file=sys.stderr)
        ok = False
    for name in examples:
        ok = run_step(name, [os.path.join(build_dir, name)], cwd=build_dir) and ok

    # The benchmark is its own CMake project; configure it with the tree's
    # flags, so its copy of src/ is instrumented the same way.
    configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", bench_dir,
                 "-DCMAKE_BUILD_TYPE=" + (cache_value(build_dir, "CMAKE_BUILD_TYPE") or "Debug")]
    for var in ("CMAKE_CXX_COMPILER", "CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS"):
        if cache_value(build_dir, var):
            configure.append("-D%s=%s" % (var, cache_value(build_dir, var)))
    if not (run_step("configure benchmark/", configure)
            and run_step("build iolite_bench",
                         ["cmake", "--build", bench_dir, "--target", "iolite_bench",
                          "-j", str(min(4, os.cpu_count() or 1))])):
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for w in workloads:
        ok = run_step("iolite_bench --workload %s" % w,
                      [os.path.join(bench_dir, "iolite_bench"), "--workload", w,
                       "--seed", "0", "--scale", PRODUCT_SCALE], cwd=bench_dir) and ok
    return ok


def read_allowlist():
    """The (rel path, stable name) of each `path | name | reason` line; bad lines raise."""
    entries = set()
    with open(ALLOWLIST) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(" | ")
            if len(parts) < 3 or not parts[-1].strip():
                raise ValueError("%s:%d: want `path | function | reason`" % (ALLOWLIST, n))
            entries.add((parts[0].strip(), " | ".join(parts[1:-1]).strip()))
    return entries


def main(argv):
    args = argv[1:]
    product = "--product" in args
    args = [a for a in args if a != "--product"]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: coverage_gate.py [--product] BUILD_DIR", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(args[0])
    if product and not run_product(build_dir):
        return 1

    functions, lines = merged_counts(build_dir)
    uncovered = unexecuted(functions)
    ran = sum(1 for count in lines.values() if count > 0)
    if not product:
        for rel, line, name in uncovered:
            print("%s:%d: %s" % (rel, line, name))
        print("%d src/ functions, %d with zero executions; %d of %d instrumented src/ lines ran"
              % (len(functions), len(uncovered), ran, len(lines)))
        return 1 if uncovered else 0

    try:
        allow = read_allowlist()
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    known = {(rel, stable_name(name)) for (rel, _line), (_count, name) in functions.items()}
    never_ran = {(rel, stable_name(name)) for rel, _line, name in uncovered}
    new = 0
    for rel, line, name in uncovered:
        listed = (rel, stable_name(name)) in allow
        print("%s:%d: %s%s" % (rel, line, stable_name(name),
                               "" if listed else "  <- not allowlisted"))
        new += 0 if listed else 1
    gone = sorted(key for key in allow if key not in known)
    for rel, name in gone:
        print("%s: allowlisted %s names no src/ function" % (rel, name), file=sys.stderr)
    for rel, name in sorted(key for key in allow if key in known and key not in never_ran):
        print("note: %s: allowlisted %s ran in the product" % (rel, name))
    print("%d src/ functions, %d never ran in the product (%d allowlisted, %d not); "
          "%d of %d instrumented src/ lines ran"
          % (len(functions), len(uncovered), len(uncovered) - new, new, ran, len(lines)))
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
