"""Run the benchmark on several seeds and report how steady each metric is.

usage: python3 perfbench/steady.py --workload NAME [--workload NAME ...]
           [--seeds 10] [--first-seed 1] [--seconds S]

For each workload and end-to-end metric prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, the figure each bound in
BENCHMARK.json is compared with.  Run from the root of a checkout.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    for w in args.workload:
        values, bad = {}, 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (w, seed, out.returncode, out.stderr[-800:]))
                bad += 1
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                bad += 1
                print("".join(ln + "\n" for ln in out.stdout.splitlines()
                              if ln.startswith(("phases", "MISMATCH")))[:2000], end="")
            steal = re.search(r"cpu steal ([0-9.]+)%", out.stdout)
            print("%s seed %d (%.0f s, cpu steal %s%%): correct=%s attempted=%d failed=%d %s" % (
                w, seed, time.monotonic() - t0, steal.group(1) if steal else "?", res["correct"],
                res["attempted"], res["failed"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("\n%s: %d runs, %d not clean" % (w, args.seeds, bad))
        print("%-18s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for k, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(k)
            print("%-18s %14.6g %14.6g %14.6g %8.4f %8s" % (k, med, q1, q3, spread,
                                                           "-" if b is None else b))
        print(flush=True)


if __name__ == "__main__":
    main()
