"""Shared pieces of the benchmark: timing, checks and the reported metrics."""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
P53 = "src/strayt/fixtures/p53.tsg"
HASH_SEED = "0"
SETUP_EVERY_S = 1.0  # an untraced run sets up again once a second

# operation classes; each gets its own median
GRAPH, WORD, SEARCH = "graph", "word", "search"


class Run:
    """Timed operations of one run, made of whole rounds of one fixed list.

    This machine's speed drifts by 10-25% over tens of seconds, and a slow
    phase only ever adds time. So each operation is timed by its best
    (fastest) round, as `timeit` does; a class metric is the median of those
    best times over the class's positions in the list, and the list's time
    is their sum. Only the best of each position is kept, so the run's
    memory does not grow with the number of rounds. Set-up is made of
    pieces (one per presentation loaded and enumerated), each timed by its
    best set-up in the same way, and its time is their sum.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.setups = 0
        self.setup_best: list[float] = []  # per piece of the set-up, its fastest time
        # position in the round -> [class, best seconds, its words, best first word]
        self.best: dict[int, list] = {}
        self.rounds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_ok = True
        self.started = None
        self.peak_rss_mb = None

    def more_rounds(self) -> bool:
        """Keep starting whole rounds until the run's time is used up."""
        if self.started is None:
            self.started = perf_counter()
            return True
        return perf_counter() - self.started < self.seconds

    def record(self, pos: int, cls: str, seconds: float, ok: bool, why: str = "",
               words: int | None = None, first_word: float | None = None) -> None:
        self.attempted += 1
        best = self.best.setdefault(pos, [cls, seconds, words, first_word])
        if seconds < best[1]:
            best[1:3] = seconds, words
        if first_word is not None and (best[3] is None or first_word < best[3]):
            best[3] = first_word
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(why)

    def record_setup(self, pieces: list[float]) -> None:
        self.setups += 1
        self.setup_best = [min(a, b) for a, b in zip(self.setup_best or pieces, pieces)]

    def setup_check(self, ok: bool, why: str) -> None:
        if not ok:
            self.setup_ok = False
            self.problems.append("setup: " + why)

    def metrics(self) -> dict:
        best = list(self.best.values())

        def median_of(cls):
            return statistics.median(b[1] for b in best if b[0] == cls)

        searches = [b for b in best if b[0] == SEARCH]
        firsts = [b[3] for b in searches if b[3] is not None]
        rss = self.peak_rss_mb
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": (sum(self.setup_best), "s"),
            "wall_s": (sum(b[1] for b in best), "s"),
            "graph_op_s": (median_of(GRAPH), "s"),
            "word_op_s": (median_of(WORD), "s"),
            "search_op_s": (median_of(SEARCH), "s"),
            "first_word_s": (statistics.median(firsts), "s"),
            "words_per_s": (sum(b[2] for b in searches) / sum(b[1] for b in searches), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    def result(self, metrics: dict) -> dict:
        for why in self.problems:
            print("check failed:", why, file=sys.stderr)
        return {"correct": self.setup_ok and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def timed(fn):
    """Run fn, returning (value, seconds, exception or None)."""
    t0 = perf_counter()
    try:
        value = fn()
    except Exception as exc:  # counted as a failed operation by the caller
        return None, perf_counter() - t0, exc
    return value, perf_counter() - t0, None


def timed_search(fn):
    """Run a search and take its words, noting when the first one arrived.

    The result is consumed inside the timed region, so a search that hands
    words over one at a time is timed to its last word.
    """
    t0 = perf_counter()
    try:
        it = iter(fn())
        first = next(it, None)
        t_first = perf_counter()
        words = [] if first is None else [first, *it]
    except Exception as exc:
        return None, perf_counter() - t0, None, exc
    return words, perf_counter() - t0, (t_first - t0 if words else None), None


def run_round(run: Run, ops, tracer=None) -> None:
    """Time one pass over a fixed list of (class, label, call, check) operations."""
    total = 0.0
    for i, (cls, label, call, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if cls == SEARCH:
            out, seconds, first, exc = timed_search(call)
        else:
            out, seconds, exc = timed(call)
            first = None
        total += seconds
        try:
            why = f"{exc!r}" if exc is not None else check(out)
        except Exception as bad:  # output the oracle cannot even read
            why = f"unreadable output: {bad!r}"
        run.record(i, cls, seconds, why is None, f"{label}: {why}",
                   words=len(out) if cls == SEARCH and out is not None else 0,
                   first_word=first)
    run.rounds.append(total)


def cli_env() -> dict:
    """Environment of a measured `strayt` process: this checkout's sources, fixed hash seed."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "strayt", *args]


def in_process(args: list[str]) -> float:
    """Wall time of `strayt.cli.main` in this process, its output discarded."""
    import strayt.cli
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        strayt.cli.main(args)
    return perf_counter() - t0


def process_floor(commands: list[list[str]]) -> float:
    """Median over commands of a process's wall time minus an in-process `cli.main`."""
    gaps = []
    for args in commands:
        t0 = perf_counter()
        subprocess.run(cli_argv(args), cwd=ROOT, env=cli_env(), check=False,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        plain = perf_counter() - t0
        gaps.append(plain - in_process(args))
    return statistics.median(gaps)


def trace_path(workload: str, seed: int) -> Path:
    return HERE / "results" / f"trace-{workload}-seed{seed}.json"


def run_library(workload: str, prepare, probe, seed: int, seconds: float, traced: bool) -> dict:
    """Measure a workload that calls the library in this process.

    `prepare(seed, run, traced)` sets up and returns the round's operations
    and a call that times one more set-up, or None if its set-ups are done.
    Untraced: whole rounds until the time is used, with a set-up between
    them once every SETUP_EVERY_S seconds, since this machine's slow phases
    last seconds and would otherwise cover every set-up of a run.
    Traced: one traced set-up, a warm-up round, three untraced rounds and a
    traced round (the tracing overhead is its time minus the fastest
    untraced round's), then the process-floor probe.
    """
    from tracing import Tracer
    run = Run(seconds)
    if not traced:
        ops, again = prepare(seed, run, False)
        while run.more_rounds():
            run_round(run, ops)
            if again is not None and perf_counter() - run.started >= run.setups * SETUP_EVERY_S:
                again()
        return run.result(run.metrics())
    tracer = Tracer()
    tracer.install()
    ops, _ = prepare(seed, run, True)
    tracer.uninstall()
    for _ in range(4):
        run_round(run, ops)
    tracer.install()
    run_round(run, ops, tracer)
    tracer.uninstall()
    metrics = tracer.metrics(process_floor(probe), run.rounds[-1] - min(run.rounds[1:-1]))
    tracer.write(trace_path(workload, seed), {"metrics": metrics})
    return run.result(metrics)
