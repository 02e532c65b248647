"""p53-cli: a user session of one-shot `strayt` commands on the p53 fixture.

Every command runs in a fresh process, one after another, and is timed
from process start to exit. A round holds three whole-semigroup commands
(`order`, `perm --set 3,5,8`, `perm --set 3,5,8 --group-order`), three
one-word commands (`reduce`, `factorize --set 3,5,8`, `trajectory`) on
words taken in turn from a seeded list of the fixed words `@a`, `@b`,
`bbabb`, `aaabaaa` and seeded products of `a`/`b`, and two capped searches
(`perm --minimal --max-len 7` and `straight --target T --max-len 6` for a
seeded target T). Set-up is three warm-up commands on a tiny fixture.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

import checks
import oracle as O
from common import (GRAPH, HERE, P53, ROOT, SEARCH, WORD, Run, cli_argv, cli_env,
                    process_floor, trace_path)
from p53_search import FIXED_WORDS, SEEDED_WORDS, WORD_SET

MINIMAL_LEN = 7
TARGET_LEN = 6
MAX_ROUNDS = 12   # words and targets are drawn for this many rounds
SET = ",".join(map(str, WORD_SET))
WARMUP = ["order", "src/strayt/fixtures/ex4_abc.tsg"]


def session(rng: random.Random, pres: checks.Pres, figures: dict):
    """Per round: a list of (class, args, check of (stdout lines) -> reason)."""
    perm = figures["perm"][SET]
    identity = "yes" if figures["identity_in_s"] else "no"
    graph_cmds = [
        (["order", P53], [str(figures["order"]), f"identity in S: {identity}"]),
        (["perm", P53, "--set", SET], [f"|Perm(Y)| = {perm['count']}"]),
        (["perm", P53, "--set", SET, "--group-order"], [str(perm["group_order"])]),
    ]
    words = list(FIXED_WORDS)
    words += [" ".join(rng.choice(("@a", "@b")) for _ in range(rng.randint(6, 12)))
              for _ in range(SEEDED_WORDS)]
    rng.shuffle(words)
    targets = [" ".join(rng.choice(pres.names) for _ in range(rng.randint(3, TARGET_LEN)))
               for _ in range(MAX_ROUNDS)]
    specs = {t: O.spec(TARGET_LEN, pres.value(pres.word(t)).__eq__, loop=False) for t in targets}
    minimal = O.spec(MINIMAL_LEN, O.permuting(WORD_SET), minimal=True)
    O.straight_search(pres.n, pres.maps, [minimal, *specs.values()])

    def expect(lines_wanted):
        return lambda lines: None if lines == lines_wanted else f"printed {lines[:3]}"

    def reduce_check(text):
        w, lengths = pres.word(text), FIXED_WORDS.get(text)

        def check(lines):
            if len(lines) != 2 or lines[1] != f"length: {len(w)} -> {len(pres.word(lines[0]))}":
                return f"printed {lines[:3]}"
            return checks.reduced(pres, w, lines[0], lengths)
        return check

    rounds = []
    for r in range(MAX_ROUNDS):
        cmds = [(GRAPH, args, expect(want)) for args, want in graph_cmds]
        w1, w2, w3 = (words[(3 * r + i) % len(words)] for i in range(3))
        cmds.append((WORD, ["reduce", P53, "--word", w1], reduce_check(w1)))
        cmds.append((WORD, ["factorize", P53, "--set", SET, "--word", w2],
                     lambda lines, w=pres.word(w2): checks.factors(pres, w, lines, WORD_SET)))
        cmds.append((WORD, ["trajectory", P53, "--word", w3],
                     lambda lines, w=pres.word(w3): checks.trajectory(pres, w, lines)))
        cmds.append((SEARCH, ["perm", P53, "--set", SET, "--minimal", "--max-len", str(MINIMAL_LEN)],
                     lambda lines, e=minimal["digest"].value(): checks.listing(pres, e, lines)))
        t = targets[r]
        cmds.append((SEARCH, ["straight", P53, "--target", t, "--max-len", str(TARGET_LEN)],
                     lambda lines, e=specs[t]["digest"].value(): checks.listing(pres, e, lines)))
        rounds.append(cmds)
    return rounds


def execute(args: list[str], spans_out=None):
    """Run one command: (seconds, seconds to the first output line, exit code, stdout lines)."""
    argv = cli_argv(args) if spans_out is None else [
        sys.executable, str(HERE / "tracing.py"), str(spans_out), "--", *args]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    with proc:
        first = proc.stdout.readline()
        t_first = perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    seconds = perf_counter() - t0
    return seconds, t_first - t0, code, (first + rest).splitlines()


def run_round(run: Run, cmds, tracer=None) -> None:
    total = 0.0
    for i, (cls, args, check) in enumerate(cmds):
        spans_out = None
        if tracer is not None:
            spans_out = HERE / "work" / f"spans-{os.getpid()}-{i}.json"
        seconds, first, code, lines = execute(args, spans_out)
        total += seconds
        try:
            why = f"exit code {code}" if code != 0 else check(lines)
        except Exception as bad:  # output the oracle cannot even read
            why = f"unreadable output: {bad!r}"
        run.record(i, cls, seconds, why is None, f"{' '.join(args)}: {why}",
                   words=len(lines), first_word=first if cls == SEARCH else None)
        if spans_out is not None:
            tracer.absorb(json.loads(spans_out.read_text()), i)
            spans_out.unlink()
    run.rounds.append(total)


def warm_up(run: Run, repeats: int) -> None:
    n, _, maps = O.read_tsg(ROOT / WARMUP[1])
    elements, has_identity = O.closure(n, maps)
    want = [str(len(elements)), f"identity in S: {'yes' if has_identity else 'no'}"]
    for _ in range(repeats):
        seconds, _, code, lines = execute(WARMUP)
        run.record_setup([seconds])
        run.setup_check(code == 0 and lines == want, f"warm-up printed {lines}")


def run(seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Tracer
    pres = checks.Pres.read(O.P53_TSG, O.P53_WORDS)
    rounds = session(random.Random(seed), pres, O.load_p53_figures())
    (HERE / "work").mkdir(exist_ok=True)
    run = Run(seconds)
    warm_up(run, 1 if traced else 3)
    if not traced:
        while run.more_rounds() and len(run.rounds) < MAX_ROUNDS:
            run_round(run, rounds[len(run.rounds)])
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return run.result(run.metrics())
    tracer = Tracer()
    run_round(run, rounds[0])
    run_round(run, rounds[0], tracer)
    probe = [args for _, args, _ in rounds[0][::3]]
    metrics = tracer.metrics(process_floor(probe), run.rounds[1] - run.rounds[0])
    tracer.write(trace_path("p53-cli", seed), {"metrics": metrics})
    return run.result(metrics)
