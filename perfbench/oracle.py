"""Independent brute-force oracle for the benchmark.

Nothing here imports strayt. Maps on {1..n} are `bytes` of length n whose
entry i is the image of state i+1; a word is a tuple of 0-based generator
positions applied left to right. The oracle has its own reader for
presentation files (linear notation and `images:` lines), a breadth-first
closure over image tuples for the semigroup, a depth-first search over
image tuples for straight words, and a plain permutes test.

    python3 perfbench/oracle.py p53            # print the p53 figures
    python3 perfbench/oracle.py p53 --write    # and store them in oracle_p53.json

The stored figures are what the benchmark checks the p53 commands against;
computing them anew takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from common import HERE, P53, ROOT

P53_TSG = ROOT / P53
P53_WORDS = P53_TSG.with_suffix(".words")
P53_FIGURES = HERE / "oracle_p53.json"
P53_SETS = ((3, 5, 8), (4, 12), (3, 5, 8, 13), (1, 16))

_TOKEN = re.compile(r"\s*(\d+|[][(),;])")


class OracleError(Exception):
    pass


# ---------------------------------------------------------------- reading


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_linear(text: str, n: int) -> bytes:
    """Linear notation to a map, with an explicit stack instead of recursion.

    `[s1,s2;t]` sends every listed source to t; `(e1,e2,...)` is a cycle of
    the entries' targets; a bare point or bracket is a fixed target.
    """
    img = list(range(1, n + 1))
    seen: set[int] = set()
    toks = _tokens(text)
    # stack of open groups: ("(", [targets]) or ("[", [sources])
    stack: list[tuple[str, list[int]]] = []
    i = 0

    def mention(p: int) -> int:
        if not 1 <= p <= n or p in seen:
            raise OracleError(f"bad or repeated point {p}")
        seen.add(p)
        return p

    def finish(point: int) -> None:
        # a completed entry whose target is `point`
        if stack:
            stack[-1][1].append(point)

    while i < len(toks):
        tok = toks[i]
        if tok.isdigit():
            finish(mention(int(tok)))
        elif tok in "([":
            stack.append((tok, []))
        elif tok == ";":
            if not stack or stack[-1][0] != "[" or i + 1 >= len(toks) or not toks[i + 1].isdigit():
                raise OracleError(f"misplaced ';' in {text!r}")
            _, sources = stack.pop()
            target = mention(int(toks[i + 1]))
            for s in sources:
                img[s - 1] = target
            i += 2
            if i >= len(toks) or toks[i] != "]":
                raise OracleError(f"expected ']' in {text!r}")
            finish(target)
        elif tok == ")":
            if not stack or stack[-1][0] != "(":
                raise OracleError(f"misplaced ')' in {text!r}")
            _, targets = stack.pop()
            for j, t in enumerate(targets):
                img[t - 1] = targets[(j + 1) % len(targets)]
            if stack:
                raise OracleError(f"cycle nested in {text!r}")
        elif tok != ",":
            raise OracleError(f"unexpected {tok!r} in {text!r}")
        i += 1
    if stack:
        raise OracleError(f"unclosed group in {text!r}")
    return bytes(img)


def read_tsg(path) -> tuple[int, list[str], list[bytes]]:
    """States, generator names and generator maps of a presentation file."""
    n = None
    names: list[str] = []
    maps: list[bytes] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            head, count = line.split()
            if head != "states":
                raise OracleError(f"{path}: no 'states' header")
            n = int(count)
            continue
        name, _, value = line.partition("=")
        value = value.strip()
        if value.startswith("images:"):
            m = bytes(int(x) for x in value[len("images:"):].split())
            if len(m) != n or not all(1 <= x <= n for x in m):
                raise OracleError(f"{path}: bad image list for {name.strip()}")
        else:
            m = parse_linear(value, n)
        names.append(name.strip())
        maps.append(m)
    if n is None or not maps:
        raise OracleError(f"{path}: empty presentation")
    return n, names, maps


def read_aliases(path) -> dict[str, str]:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            name, _, value = line.partition("=")
            out[name.strip()] = value.strip()
    return out


def parse_word(names: list[str], text: str, aliases: dict[str, str] | None = None) -> tuple[int, ...]:
    """A word written as names separated by spaces or dots, `@alias` expanded."""
    pos = {name: i for i, name in enumerate(names)}
    single = all(len(name) == 1 for name in names)
    out: list[int] = []
    for tok in text.replace(".", " ").split():
        if tok.startswith("@"):
            out.extend(parse_word(names, (aliases or {})[tok[1:]]))
        elif tok in pos:
            out.append(pos[tok])
        elif single:
            out.extend(pos[ch] for ch in tok)
        else:
            raise OracleError(f"unknown generator {tok!r}")
    return tuple(out)


def format_word(names: list[str], word) -> str:
    sep = "" if all(len(name) == 1 for name in names) else " "
    return sep.join(names[x] for x in word)


# ---------------------------------------------------------------- maps


def tables(maps: list[bytes]) -> list[bytes]:
    """Translate tables: m.translate(t[g]) is "m, then generator g"."""
    out = []
    for m in maps:
        t = bytearray(range(256))
        t[1:len(m) + 1] = m
        out.append(bytes(t))
    return out


def evaluate(n: int, maps: list[bytes], word) -> bytes:
    return prefix_maps(n, maps, word)[-1]


def prefix_maps(n: int, maps: list[bytes], word) -> list[bytes]:
    """Maps realized by the empty prefix and each nonempty prefix."""
    tbl = tables(maps)
    m = bytes(range(1, n + 1))
    out = [m]
    for x in word:
        m = m.translate(tbl[x])
        out.append(m)
    return out


def permutes(m: bytes, states) -> bool:
    """The image of the state set is the set itself."""
    ys = set(states)
    return {m[y - 1] for y in ys} == ys


def permuting(states):
    """A fast permutes test for one state set."""
    ys = frozenset(states)
    at = [y - 1 for y in ys]
    return lambda m: {m[i] for i in at} == ys


def is_straight(n: int, maps: list[bytes], word) -> bool:
    """Prefix maps pairwise distinct, except a final return to the identity."""
    pm = prefix_maps(n, maps, word)
    last = pm[-1]
    if len(set(pm)) == len(pm):
        return True
    return last == pm[0] and len(set(pm[:-1])) == len(pm) - 1


def is_minimal(n: int, maps: list[bytes], word, states) -> bool:
    pm = prefix_maps(n, maps, word)
    return permutes(pm[-1], states) and not any(permutes(m, states) for m in pm[1:-1])


def closure(n: int, maps: list[bytes], cap: int | None = None) -> tuple[set[bytes], bool] | None:
    """Every nonempty product of the maps, and whether the identity is one.

    Returns None when there are more than `cap` elements.
    """
    tbl = tables(maps)
    ident = bytes(range(1, n + 1))
    seen = set(maps)
    frontier = list(seen)
    while frontier:
        if cap is not None and len(seen) > cap:
            return None
        fresh = []
        for m in frontier:
            for t in tbl:
                x = m.translate(t)
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        frontier = fresh
    if cap is not None and len(seen) > cap:
        return None
    return seen, ident in seen


def group_order(elements, states) -> int:
    """Order of the group of bijections the permutators induce on the set."""
    ys = sorted(states)
    return len({tuple(m[y - 1] for y in ys) for m in elements if permutes(m, ys)})


# ---------------------------------------------------------------- searches


class Digest:
    """Count and hash of a word list, kept separately for each length.

    Feeding words of one length in lexicographic order, in any interleaving
    with other lengths, gives the digest of the list ordered by length and
    then letters.
    """

    def __init__(self, keep: bool = False):
        self.buckets: dict[int, list] = {}
        self.words: list | None = [] if keep else None

    def add(self, word) -> None:
        if self.words is not None:
            self.words.append(word)
        b = self.buckets.get(len(word))
        if b is None:
            b = self.buckets[len(word)] = [0, hashlib.sha256()]
        b[0] += 1
        b[1].update(bytes(word))

    @property
    def count(self) -> int:
        return sum(b[0] for b in self.buckets.values())

    def value(self) -> str:
        h = hashlib.sha256()
        for length in sorted(self.buckets):
            count, sub = self.buckets[length]
            h.update(f"{length}:{count}:{sub.hexdigest()};".encode())
        return f"{self.count}:{h.hexdigest()[:32]}"


def straight_search(n: int, maps: list[bytes], specs: list[dict],
                    node_budget: int | None = None) -> bool:
    """One depth-first walk over straight words, feeding several searches.

    Each spec is a dict with `max_len`, `emit(map) -> bool`, `loop` (whether
    a word may end by returning to the identity), `minimal` (close a branch
    after a node the spec emits at) and a `digest` to fill. Children are
    tried in letter order, so each length comes out in lexicographic order.
    Returns False, with the digests incomplete, when more than `node_budget`
    steps were taken.
    """
    tbl = tables(maps)
    k = len(tbl)
    origin = bytes(range(1, n + 1))
    limits = [spec["max_len"] for spec in specs]
    path = [origin]
    on_path = {origin}
    word: list[int] = []
    closed = [0]  # per path node: bit mask of minimal specs already emitted above
    pending = [iter(range(k))]
    steps = 0
    while pending:
        x = next(pending[-1], None)
        if x is None:
            pending.pop()
            closed.pop()
            on_path.discard(path.pop())
            if word:
                word.pop()
            continue
        nxt = path[-1].translate(tbl[x])
        loop = nxt == origin
        if nxt in on_path and not loop:
            continue
        steps += 1
        if node_budget is not None and steps > node_budget:
            return False
        depth = len(word) + 1
        mask = closed[-1]
        deeper = False
        for i, spec in enumerate(specs):
            if mask >> i & 1 or depth > limits[i]:
                continue
            if (not loop or spec["loop"]) and spec["emit"](nxt):
                spec["digest"].add((*word, x))
                if spec["minimal"]:
                    mask |= 1 << i
                    continue
            if depth < limits[i]:
                deeper = True
        if deeper and not loop:
            path.append(nxt)
            on_path.add(nxt)
            word.append(x)
            closed.append(mask)
            pending.append(iter(range(k)))
    return True


def spec(max_len: int, emit, loop: bool = True, minimal: bool = False,
         keep: bool = False) -> dict:
    """One search for straight_search: words up to max_len whose map passes emit."""
    return {"max_len": max_len, "emit": emit, "loop": loop, "minimal": minimal,
            "digest": Digest(keep)}


def words_digest(words) -> tuple[str, bool]:
    """Digest of a word list, and whether it is strictly ordered by length then letters."""
    d = Digest()
    ordered = True
    prev = None
    for w in words:
        key = (len(w), tuple(w))
        if prev is not None and key <= prev:
            ordered = False
        prev = key
        d.add(w)
    return d.value(), ordered


# ---------------------------------------------------------------- p53


def file_sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def p53_figures() -> dict:
    """Order, identity membership and permutator figures of the p53 fixture."""
    n, names, maps = read_tsg(P53_TSG)
    elements, has_identity = closure(n, maps)
    perm = {}
    for ys in P53_SETS:
        members = [m for m in elements if permutes(m, ys)]
        perm[",".join(map(str, ys))] = {"count": len(members), "group_order": group_order(members, ys)}
    return {"fixture_sha256": file_sha(P53_TSG), "order": len(elements),
            "identity_in_s": has_identity, "perm": perm}


def load_p53_figures() -> dict:
    """The stored figures, or freshly computed ones when the fixture changed."""
    if P53_FIGURES.exists():
        stored = json.loads(P53_FIGURES.read_text())
        if stored.get("fixture_sha256") == file_sha(P53_TSG):
            return stored
    return p53_figures()


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "p53":
        print("usage: oracle.py p53 [--write]", file=sys.stderr)
        return 2
    figures = p53_figures()
    text = json.dumps(figures, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if "--write" in argv[1:]:
        P53_FIGURES.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
