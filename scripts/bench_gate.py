#!/usr/bin/env python3
"""The wall-clock gate: the Release benchmark run on two checkouts in
alternating pairs, judged by the head checkout's own `run.py --compare`.

    python3 scripts/bench_gate.py BASE_TREE HEAD_TREE

For each workload that both trees' BENCHMARK.json name (in the head tree's
order), the gate runs

    python3 <tree>/benchmark/run.py --workload W --seed 0 --seconds S --trace 0

PAIRS times in each tree, base first in even pairs and head first in odd
pairs, so a slow stretch of a shared host lands on both sides alike. Each
tree builds its own Release iolite_bench on its first run. Every run gains
fail_frac = failed / attempted. The runs go to A.json (base) and B.json
(head) under HEAD_TREE/build-bench/gate/, in the {"runs": {workload:
{metric: [values]}}} shape `--compare` reads, and the gate exits with the
head tree's `run.py --compare A.json B.json` status. It also fails when a
head run reports "correct": false. Every verdict rule lives in run.py.
"""

import json
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 8  # Per run; 5 workloads x 5 pairs x 2 trees is about 7 minutes.
SEED = 0


def fail(msg):
    print(f"bench_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def workloads(tree):
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return [w["name"] for w in json.loads(path.read_text())["workloads"]]


def run_once(tree, workload):
    """One contract-mode run; returns its JSON report with fail_frac added."""
    cmd = [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{tree}: run.py --workload {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted = report["attempted"]
    report["metrics"]["fail_frac"] = {
        "value": report["failed"] / attempted if attempted else 1.0, "unit": "ratio"}
    return report


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    trees = {"base": Path(sys.argv[1]).resolve(), "head": Path(sys.argv[2]).resolve()}
    base_names = set(workloads(trees["base"]))
    names = []
    for w in workloads(trees["head"]):
        if w in base_names:
            names.append(w)
        else:
            print(f"bench_gate: {w} is new in the head tree; not gated")

    runs = {"base": {}, "head": {}}
    incorrect = []
    for w in names:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                report = run_once(trees[side], w)
                if side == "head" and not report["correct"]:
                    incorrect.append(f"{w} pair {pair}")
                for metric, m in report["metrics"].items():
                    runs[side].setdefault(w, {}).setdefault(metric, []).append(m["value"])
                print(f"{w:<12} pair {pair} {side:<4} "
                      f"req_per_s {report['metrics']['req_per_s']['value']:>12.6g} "
                      f"correct {report['correct']}", flush=True)

    out = trees["head"] / "build-bench" / "gate"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for side, name in (("base", "A.json"), ("head", "B.json")):
        path = out / name
        path.write_text(json.dumps({"tree": str(trees[side]), "runs": runs[side]},
                                   indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    print(f"\nA = {trees['base']}\nB = {trees['head']}\n", flush=True)
    verdict = subprocess.run([sys.executable, str(trees["head"] / "benchmark" / "run.py"),
                              "--compare", *paths])
    if incorrect:
        fail(f"head runs reported \"correct\": false: {', '.join(incorrect)}")
    sys.exit(verdict.returncode)


if __name__ == "__main__":
    main()
