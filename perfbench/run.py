"""Benchmark of strayt: one command for every workload and metric.

    python3 perfbench/run.py --workload small-census --seed 1 --seconds 40 --trace 0

Workloads: small-census and medium-census (many seeded presentations, the
ones BENCHMARK.json gates on), p53-search (capped searches and word
operations on one enumerated p53 graph) and p53-cli (one-shot `strayt`
commands on the p53 fixture, each in a fresh process).
Run from the root of a checkout; strayt is imported from its `src`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from common import HASH_SEED, ROOT

WORKLOADS = ("small-census", "medium-census", "p53-search", "p53-cli")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "strayt" / "__init__.py").is_file():
        print(f"error: no strayt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # every measured process runs with the same recorded hash seed
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)

    sys.path.insert(0, str(ROOT / "src"))
    import strayt
    if Path(strayt.__file__).resolve().parent != ROOT / "src" / "strayt":
        print(f"error: imported strayt from {strayt.__file__}", file=sys.stderr)
        return 2

    if args.workload == "p53-cli":
        import cli_session
        result = cli_session.run(args.seed, args.seconds, bool(args.trace))
    elif args.workload == "p53-search":
        import p53_search
        result = p53_search.run(args.seed, args.seconds, bool(args.trace))
    else:
        import census
        result = census.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
