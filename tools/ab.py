"""Compare the benchmark of two revisions in alternating pairs.

    python tools/ab.py REV_A REV_B --workload W --seed S --pairs N [--out FILE]

REV_A is the base (the parent) and REV_B the change.  Both revisions are
unpacked with `git archive` (`tools/identity.py`'s `unpack`), and each
pair runs `bench/run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace 0` once in each tree: A first on odd pairs, B
first on even ones.  Besides the benchmark's end-to-end metrics, each
run's child-process rusage, read with `os.wait4`, gives minor page
faults, system and user CPU seconds per unit: the run's totals, start-up
and set-up included, over its units, the warm-up unit counted.

For each metric the summary holds each side's q1, median and q3, the
per-pair ratios B/A, the median ratio and the win count k/n: the pairs in
which B is better in the metric's direction (BENCHMARK.json's `better`;
lower for the rusage metrics), ties counting for neither.  A difference
is resolved only when k/n >= 0.9 and the gap between the medians exceeds
A's interquartile range (q3 - q1); otherwise the line says "not
resolved".  The tool reports; it gates nothing.

With --out, the run is written as one entry of that BENCH json, which
keeps the entries of other workloads and seeds already in it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from identity import REPO, unpack  # noqa: E402

RUSAGE = {  # metric -> the child's rusage field it divides by the units
    "minflt_per_unit": "ru_minflt",
    "stime_s_per_unit": "ru_stime",
    "utime_s_per_unit": "ru_utime",
}
RESOLVED_SHARE = (9, 10)  # B must win at least 9/10 of the pairs


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], inclusive method; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(a: list[float], b: list[float], better: str) -> dict:
    """The comparison of one metric over pairs (a[k], b[k]), B the change."""
    if len(a) != len(b) or not a:
        raise ValueError("need the same positive number of A and B values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
    ratios = [y / x if x else None for x, y in zip(a, b)]
    share_won, share_of = RESOLVED_SHARE
    resolved = (wins * share_of >= share_won * len(a)
                and abs(qb[1] - qa[1]) > qa[2] - qa[0])
    return {
        "better": better,
        "a_q1_median_q3": qa,
        "b_q1_median_q3": qb,
        "b_over_a": qb[1] / qa[1] if qa[1] else None,
        "per_pair_b_over_a": ratios,
        "b_wins": f"{wins}/{len(a)}",
        "resolved": resolved,
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its details, result and child rusage."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    # the outputs go to files, so the child never blocks on a full pipe
    # while it is reaped here, with its rusage
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=tree, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines, message = out.read().splitlines(), err.read().strip()
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py in {tree} exited {code}: {message}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    units = details["units"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, field in RUSAGE.items():
        metrics[name] = getattr(usage, field) / units
    return {"details": details, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def compare_runs(runs_a: list[dict], runs_b: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summaries of the metrics every run reports."""
    names = [n for n in runs_a[0]["metrics"]
             if all(n in r["metrics"] for r in runs_a + runs_b)]
    return {n: summarize([r["metrics"][n] for r in runs_a], [r["metrics"][n] for r in runs_b],
                         better.get(n, "lower"))
            for n in names}


def report_lines(metrics: dict) -> list[str]:
    lines = []
    for name, s in metrics.items():
        qa, qb = s["a_q1_median_q3"], s["b_q1_median_q3"]
        ratio = "n/a" if s["b_over_a"] is None else f"{s['b_over_a']:.4f}"
        lines.append(f"{name:22s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                     f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  B/A {ratio}  "
                     f"B wins {s['b_wins']}  "
                     f"{'resolved' if s['resolved'] else 'not resolved'}")
    return lines


def _sha(rev: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def _write(out: Path, entry: dict, environment: dict):
    """Add `entry` to the BENCH json at `out`, replacing one of the same
    workload, seed and revisions."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    key = ("workload", "seed", "rev_a", "rev_b")
    runs = [r for r in doc.get("runs", []) if any(r.get(k) != entry[k] for k in key)]
    doc.update({"command": "python tools/ab.py REV_A REV_B --workload W --seed S --pairs N",
                "rule": "resolved when B wins >= {}/{} of the pairs and the median gap "
                        "exceeds A's interquartile range".format(*RESOLVED_SHARE),
                "environment": environment, "runs": runs + [entry]})
    out.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    try:
        revs = {"a": _sha(args.rev_a), "b": _sha(args.rev_b)}
    except subprocess.CalledProcessError as exc:
        print(f"unknown revision: {exc.stderr.strip()}", file=sys.stderr)
        return 2

    runs: dict[str, list[dict]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="xbarlstm-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in "ab"}
        for side, tree in trees.items():
            unpack(revs[side], tree)
        for pair in range(1, args.pairs + 1):
            for side in ("ab" if pair % 2 else "ba"):
                try:
                    runs[side].append(run_bench(trees[side], args.workload, args.seed,
                                                seconds))
                except RuntimeError as exc:  # a failed run leaves nothing to compare
                    print(exc, file=sys.stderr)
                    return 1
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr)

    metrics = compare_runs(runs["a"], runs["b"], better)
    for line in report_lines(metrics):
        print(line)
    if args.out is not None:
        entry = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                 "rev_a": revs["a"], "rev_b": revs["b"], "seconds": seconds,
                 "all_correct": all(r["correct"] for r in runs["a"] + runs["b"]),
                 "failed_over_attempted": {
                     side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
                     for side, rs in runs.items()},
                 "metrics": metrics}
        environment = {k: v for k, v in runs["a"][0]["details"]["environment"].items()
                       if k != "git_sha"}
        _write(args.out, entry, environment)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
