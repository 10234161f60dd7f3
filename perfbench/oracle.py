"""Independent checks of proxigraph outputs, coded without proxigraph.

Everything here works on plain labels, edge lists and JSON text, so a bug
shared between a library routine and its own oracle cannot hide here.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from pathlib import Path


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _blocks(uf: _UnionFind, items) -> dict:
    blocks: dict = {}
    for x in items:
        blocks.setdefault(uf.find(x), []).append(x)
    return blocks


class BlockStructure:
    """Components of G[A] and G[B] and the block pairs a crossing edge joins.

    Two blocks A1, B1 are joined by a be-path exactly when some crossing
    edge runs between them, so B_path is the expansion of those block
    pairs into A1 x B1.
    """

    def __init__(self, vertices, edges, part_a):
        a = frozenset(part_a)
        self.a = sorted(v for v in vertices if v in a)
        self.b = sorted(v for v in vertices if v not in a)
        uf = _UnionFind(vertices)
        crossing = []
        for u, v in edges:
            if (u in a) == (v in a):
                uf.union(u, v)
            else:
                crossing.append((u, v) if u in a else (v, u))
        self.a_blocks = _blocks(uf, self.a)
        self.b_blocks = _blocks(uf, self.b)
        self.joined = {(uf.find(x), uf.find(y)) for x, y in crossing}

    @property
    def tested(self) -> int:
        return len(self.a_blocks) * len(self.b_blocks)

    def pairs(self) -> set[tuple[str, str]]:
        return {
            (x, y)
            for ra, rb in self.joined
            for x in self.a_blocks[ra]
            for y in self.b_blocks[rb]
        }

    def quotient(self) -> tuple[set[str], set[tuple[str, str]]]:
        """DOT node names and edges, each block named by its smallest label."""
        rep = {r: min(block) for r, block in {**self.a_blocks, **self.b_blocks}.items()}
        nodes = {f"A:{rep[r]}" for r in self.a_blocks} | {f"B:{rep[r]}" for r in self.b_blocks}
        edges = {(f"A:{rep[ra]}", f"B:{rep[rb]}") for ra, rb in self.joined}
        return nodes, edges


def is_path_bipartite(vertices, edges, part_a) -> bool:
    """Every component of the whole graph meets both parts."""
    a = frozenset(part_a)
    uf = _UnionFind(vertices)
    for u, v in edges:
        uf.union(u, v)
    return all(
        any(v in a for v in block) and any(v not in a for v in block)
        for block in _blocks(uf, vertices).values()
    )


def parse_rational(entry) -> Fraction:
    if isinstance(entry, bool) or not isinstance(entry, (int, str)):
        raise ValueError(f"bad distance entry {entry!r}")
    return Fraction(entry)


def load_space(path: Path) -> tuple[list[str], list[list[Fraction]]]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return obj["points"], [[parse_rational(e) for e in row] for row in obj["distances"]]


def threshold_graph(points, table, part_a) -> set[tuple[str, str]]:
    """Sorted label pairs at distance at most dist(A, B)."""
    a = frozenset(part_a)
    n = len(points)
    cross = min(
        table[i][j] for i in range(n) for j in range(n) if (points[i] in a) and points[j] not in a
    )
    return {
        tuple(sorted((points[i], points[j])))
        for i in range(n)
        for j in range(i + 1, n)
        if table[i][j] <= cross
    }


def check_be_path(stdout: str, edges, part_a, a: str, b: str) -> str | None:
    """Problem with a printed witness be-path from a to b, or None."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[1].startswith("crossing-edge: "):
        return "witness output lacks a path line and a crossing-edge line"
    path = json.loads(lines[0])
    edge_set = {tuple(sorted(e)) for e in edges}
    if path[0] != a or path[-1] != b or len(set(path)) != len(path):
        return f"witness {path} is not a simple path from {a} to {b}"
    steps = [tuple(sorted(step)) for step in zip(path, path[1:])]
    if any(step not in edge_set for step in steps):
        return f"witness {path} uses a non-edge"
    in_a = frozenset(part_a)
    crossings = [s for s in steps if (s[0] in in_a) != (s[1] in in_a)]
    if len(crossings) != 1:
        return f"witness {path} crosses the parts {len(crossings)} times"
    if tuple(ast.literal_eval(lines[1][len("crossing-edge: "):])) != crossings[0]:
        return f"reported crossing edge differs from {list(crossings[0])}"
    return None


_DOT_NODE = re.compile(r'^\s*"([^"]*)";$')
_DOT_EDGE = re.compile(r'^\s*"([^"]*)" -- "([^"]*)";$')


def parse_dot(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    nodes, edges = set(), set()
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            nodes.add(m.group(1))
        elif m := _DOT_EDGE.match(line):
            edges.add((m.group(1), m.group(2)))
    return nodes, edges
