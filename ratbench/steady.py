"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 ratbench/steady.py --workload NAME [--seeds 1-10]
        [--against 101-110] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile
distance over the median) and the metric's bound from BENCHMARK.json.

``--against`` adds a second set of seeds, interleaved with the first
(seed i of the first set, then seed i of the second), the way two
commits are compared; the table then also shows the second set's
spread and by how much its median is worse than the first's.  Each
run's line shows the host-speed probe (``loop`` Mop/s before and after
the run, stolen CPU share), so a set that spans a change of host speed
shows.  ``--out`` appends each run's result to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH, ROOT


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{done.stdout}{done.stderr}")
    lines = done.stdout.strip().splitlines()
    diagnostics = {
        line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
        for line in lines[:-1]
    }
    return {"workload": workload, "seed": seed,
            "env": diagnostics["env"], "detail": diagnostics["workload"],
            **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--against", type=seeds, default=[])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    if args.against and len(args.against) != len(args.seeds):
        parser.error("--against needs as many seeds as --seeds")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    sets = [args.seeds] + ([args.against] if args.against else [])
    values = [{} for _ in sets]
    for i in range(len(args.seeds)):
        for which, chosen in enumerate(sets):
            started = time.perf_counter()
            result = run(args.workload, chosen[i], seconds)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"set": which, **result}) + "\n")
            host = result["env"]["host"]
            print(f"set {which} seed {chosen[i]} "
                  f"({time.perf_counter() - started:.1f} s, loop "
                  f"{host['loop_mops_before']:.2f}->"
                  f"{host['loop_mops_after']:.2f} Mop/s, steal "
                  f"{host['steal_share']:.3f}): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[which].setdefault(name, []).append(metric["value"])
    header = f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
    if args.against:
        header += f"{'median 2':>12}{'spread 2':>10}{'worse by':>10}"
    print(header + f"{'bound':>8}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        median, q1, q3, first = spread(values[0][name])
        line = (f"{name:<18}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                f"{first:>9.4f}")
        if args.against:
            median2, _, _, second = spread(values[1][name])
            worse = (median2 - median) / median
            if metric["better"] == "higher":
                worse = -worse
            line += f"{median2:>12.6g}{second:>10.4f}{worse:>10.4f}"
        print(line + f"{metric['bound']:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
