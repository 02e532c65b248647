"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py [--workloads small-census,medium-census] [--runs 10]

Each set runs every workload `--runs` times, untraced, for the
`run_seconds` in BENCHMARK.json: the first set with seeds 1, 2, ..., the
second with seeds 1001, 1002, .... For each workload and end-to-end metric
it prints both sets' medians, quartiles and spreads (quartile distance over
the median), the drift of the second median from the first (in either
direction, as a share of the first), and whether both spreads and the drift
stay within the metric's bound. The share of failed operations must be the
same in both sets. Raw results go to perfbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT

SEED_BASES = (0, 1000)  # set s runs seeds SEED_BASES[s] + 1, + 2, ...


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    results: dict = {w: ([], []) for w in workloads}
    for s, base in enumerate(SEED_BASES):
        for w in workloads:
            runs = results[w][s]
            for i in range(args.runs):
                runs.append(one_run(bench, w, base + i + 1))
                print(f"set {s + 1} {w} run {i + 1}: correct={runs[-1]['correct']} "
                      f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr)

    ok = True
    report = {}
    for w in workloads:
        first, second = results[w]
        print(f"\n{w}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (first, second)]
        share_ok = shares[0] == shares[1] and all(r["correct"] for r in first + second)
        ok &= share_ok
        print(f"  failed share per set: {shares} correct: {share_ok}")
        report[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (summary([r["metrics"][name]["value"] for r in runs]) for runs in (first, second))
            drift = (b["median"] - a["median"]) / a["median"]
            fits = a["spread"] <= bound and b["spread"] <= bound and abs(drift) <= bound
            ok &= fits
            report[w][name] = {"sets": [a, b], "drift": drift, "bound": bound}
            cells = "  ".join(f"med {x['median']:.6g} q1 {x['q1']:.6g} q3 {x['q3']:.6g} "
                              f"spread {x['spread']:.3f}" for x in (a, b))
            print(f"  {name:13s} bound {bound:.2f}  {cells}  drift {drift:+.3f}  "
                  f"{'ok' if fits else 'OUT'}")
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"report": report, "runs": results}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; raw results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
