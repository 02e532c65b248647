"""Spans around the public functions of each strayt layer, recorded from outside.

`Tracer.install` replaces each listed function or method, wherever a strayt
module holds it, by a wrapper that records a span: the operation it served,
its name, start, end, its parent span, and the graph steps taken inside it.
Graph steps are counted by wrapping `step` on each graph instance. Spans
stay in memory until the run writes them out.

Run as a script, it traces one CLI command in this process:

    python3 perfbench/tracing.py SPANS.json -- order src/strayt/fixtures/p53.tsg
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs; a dotted attribute is a method of a class
WRAPPED = [
    ("cli", "load_presentation"), ("cli", "load_word_aliases"), ("cli", "parse_cli_word"),
    ("notation", "parse_linear"), ("notation", "parse_images"), ("notation", "print_linear"),
    ("core", "Presentation.word"), ("core", "Presentation.format_word"),
    ("cayley", "enumerate_semigroup"), ("cayley", "CayleyGraph.walk"),
    ("cayley", "CayleyGraph.trajectory"),
    ("straightwords", "all_straight_words"), ("straightwords", "straight_paths"),
    ("straightwords", "straight_permutator_words"),
    ("permutator", "perm_semigroup"), ("permutator", "minimal_straight_permutators"),
    ("permutator", "factorize"), ("permutator", "reduce_word"), ("permutator", "retract"),
    ("permutator", "subgroup_closure"),
]
SEARCHES = {"straightwords.all_straight_words", "straightwords.straight_paths",
            "straightwords.straight_permutator_words", "permutator.minimal_straight_permutators"}

# per-layer metric -> the spans it adds up (outermost span of the group only)
TIMES = {
    "cli.load_s": {"cli.load_presentation", "cli.load_word_aliases"},
    "notation.parse_s": {"notation.parse_linear", "notation.parse_images"},
    "notation.print_s": {"notation.print_linear"},
    "core.word_s": {"core.Presentation.word", "cli.parse_cli_word"},
    "core.format_word_s": {"core.Presentation.format_word"},
    "cayley.enumerate_s": {"cayley.enumerate_semigroup"},
    "cayley.walk_s": {"cayley.CayleyGraph.walk", "cayley.CayleyGraph.trajectory"},
    "straightwords.search_s": SEARCHES - {"permutator.minimal_straight_permutators"},
    "permutator.perm_semigroup_s": {"permutator.perm_semigroup"},
    "permutator.minimal_s": {"permutator.minimal_straight_permutators"},
    "permutator.reduce_s": {"permutator.reduce_word"},
    "permutator.factorize_s": {"permutator.factorize"},
    "permutator.retract_s": {"permutator.retract"},
    "permutator.closure_s": {"permutator.subgroup_closure"},
}

# span fields
OP, NAME, START, END, PARENT, STEPS, OUTCOME = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.steps = 0
        self.op = None
        self.graphs: list = []
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = [tracer.op, name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, 0, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            steps = tracer.steps
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
                span[STEPS] = tracer.steps - steps
            span[OUTCOME] = tracer._outcome(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _outcome(self, name: str, args, result):
        if name in SEARCHES and hasattr(result, "__len__"):
            return [len(result), max(map(len, result), default=0)]
        if name == "permutator.reduce_word":
            return len(args[1]) - len(result)
        if name == "cayley.enumerate_semigroup":
            self.attach(result)
            return result.size
        return None

    def attach(self, graph) -> None:
        """Count calls to this graph's `step`."""
        if "step" in vars(graph):
            return
        step = graph.step
        tracer = self

        def counted(node, letter):
            tracer.steps += 1
            return step(node, letter)

        graph.step = counted
        self.graphs.append(graph)

    def install(self) -> None:
        import strayt  # noqa: F401  (loads every module before any is patched)
        modules = [m for name, m in sys.modules.items()
                   if name == "strayt" or name.startswith("strayt.")]
        for mod_name, attr in WRAPPED:
            module = sys.modules[f"strayt.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        graphs, self.graphs = self.graphs, []
        for graph in graphs:
            self.attach(graph)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []
        for graph in self.graphs:
            vars(graph).pop("step", None)

    # ---------------------------------------------------------- results

    def _outermost(self, names: set[str]):
        for span in self.spans:
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                yield span

    def metrics(self, process_s: float, overhead_s: float) -> dict:
        values = {name: (sum(s[END] - s[START] for s in self._outermost(group)), "s")
                  for name, group in TIMES.items()}
        count = lambda name: sum(1 for s in self.spans if s[NAME] == name)
        searches = [s for s in self._outermost(SEARCHES)]
        words = sum(s[OUTCOME][0] for s in searches if s[OUTCOME])
        steps = sum(s[STEPS] for s in searches)
        nodes = sum(s[OUTCOME] or 0 for s in self.spans if s[NAME] == "cayley.enumerate_semigroup")
        enumerate_s = values["cayley.enumerate_s"][0]
        values.update({
            "cli.process_s": (process_s, "s"),
            "notation.parse_calls": (count("notation.parse_linear") + count("notation.parse_images"), "count"),
            "notation.print_calls": (count("notation.print_linear"), "count"),
            "cayley.nodes": (nodes, "count"),
            "cayley.nodes_per_s": (nodes / enumerate_s if enumerate_s else 0.0, "1/s"),
            "cayley.steps": (steps, "count"),
            "straightwords.words": (words, "count"),
            "straightwords.words_per_step": (words / steps if steps else 0.0, "ratio"),
            "straightwords.max_len_reached": (max((s[OUTCOME][1] for s in searches if s[OUTCOME]),
                                                  default=0), "count"),
            "permutator.reduce_letters_removed": (sum(s[OUTCOME] or 0 for s in self.spans
                                                      if s[NAME] == "permutator.reduce_word"), "count"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(values.items())}

    def write(self, path: Path, extra: dict | None = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["op", "name", "start", "end", "parent", "steps", "outcome"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans, **(extra or {})}))

    def absorb(self, spans: list[list], op) -> None:
        """Add the spans of another process, re-numbering their parents."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            span[OP] = op
            if span[PARENT] >= 0:
                span[PARENT] += base
            self.spans.append(span)


def main(argv: list[str]) -> int:
    out, sep, *command = argv
    if sep != "--":
        print("usage: tracing.py SPANS.json -- COMMAND...", file=sys.stderr)
        return 2
    import strayt.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = strayt.cli.main(command)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
