"""The benchmark's workloads: inputs made from the seed, the job list, and
an independent check of every job's output.

Every job is one `proxigraph.cli.main(argv)` call with each bound passed
explicitly, so neither defaults nor `PROXIGRAPH_MAX_N` can change a
workload.
"""

from __future__ import annotations

import json
import random
from math import comb
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Job:
    name: str
    group: str  # the per-job figure the job's time adds to
    argv: list[str]
    instances: int  # instances the job checks; a CLI command checks one
    check: Check  # (exit code, stdout) -> problem, or None when correct


# Exhaustive sweeps at their acceptance bounds: (id, --max-n, instances).
GRAPH_SWEEPS = (
    ("t3.9", 5, 31668),
    ("t3.4", 5, 31668),
    ("t3.6", 5, 31668),
    ("c2.9", 5, 7610),
    ("p3.22", 5, 1576),
    ("p3.9", 5, 2266),
    ("c3.10", 6, 33867),
    ("t3.16", 6, 33867),
    ("c3.12", 6, 33867),
)
P3_9_COUNT = 3

# Randomized space sweeps: (id, --count, the sweep's max_points, instances
# of its exhaustive graph part, extra argv).  t2.1 runs 300 spaces, not the
# acceptance suite's 1000, so that one pass takes about 10 s.
SPACE_SWEEPS = (
    ("t2.1", 300, 8, 0, []),
    ("t3.10", 500, 8, 33867, ["--max-n", "6"]),
    ("t3.5", 300, 7, 0, []),
)
BALANCE_CANDIDATES = 64

HYPERCUBE_DIM = 7
TRUNCATION = (20, 8, 20)  # N, M, K: 20 + 9 * 20 = 200 points
RANDOM_GRAPH = (800, "3/1600")


def _sweep_check(sweep: str, instances: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        want = f"sweep {sweep}: checked {instances} instances"
        if code != 0 or not lines or lines[0] != "true":
            return f"exit {code}, first line {lines[:1]}"
        if want not in lines:
            return f"expected '{want}', got {lines[1:2]}"
        if "counterexamples: 0" not in lines:
            return "counterexamples reported"
        return None

    return check


def _space_sizes(sweep_seed: int, count: int, max_points: int) -> list[int]:
    """Point counts a randomized sweep draws: one randint, then one space seed, per space."""
    rng = random.Random(sweep_seed)
    sizes = []
    for _ in range(count):
        sizes.append(rng.randint(2, max_points))
        rng.randrange(2**32)
    return sizes


def balanced_seed(seed: int, sweep: str, count: int, max_points: int) -> tuple[int, int]:
    """A sweep seed derived from `seed` whose spaces have the usual size mix.

    An n-point space gives 2**n - 2 bipartitions, each scanning C(n, 3)
    triples, so with a plain seed the work of a 300-space sweep changes by
    up to 15%.  Of BALANCE_CANDIDATES seeds drawn from `seed`, the one whose
    bipartition and triple counts lie closest to their expectations wins
    (within about 1.5%); the spaces themselves still vary with the seed.
    A fixed number of candidates keeps set-up time the same for every seed.
    Returns (sweep seed, instances the sweep will check).
    """
    sizes = range(2, max_points + 1)
    weights = [(2**n - 2, (2**n - 2) * comb(n, 3)) for n in sizes]
    targets = [count * sum(w) / len(sizes) for w in zip(*weights)]
    candidates = random.Random(f"perfbench:{sweep}:{seed}")
    best = None
    for _ in range(BALANCE_CANDIDATES):
        sweep_seed = candidates.randrange(2**31)
        drawn = [weights[n - 2] for n in _space_sizes(sweep_seed, count, max_points)]
        totals = [sum(w) for w in zip(*drawn)]
        deviation = max(abs(t - target) / target for t, target in zip(totals, targets))
        if best is None or deviation < best[0]:
            best = (deviation, sweep_seed, totals[0])
    return best[1], best[2]


def sweep_graphs(px, seed: int, tmp: Path) -> list[Job]:
    jobs = []
    for sweep, max_n, instances in GRAPH_SWEEPS:
        argv = ["verify", sweep, "--max-n", str(max_n)]
        if sweep == "p3.9":
            argv += ["--count", str(P3_9_COUNT), "--seed", str(seed)]
        jobs.append(Job(f"verify {sweep}", f"sweep_s.{sweep}", argv, instances,
                        _sweep_check(sweep, instances)))
    return jobs


def sweep_spaces(px, seed: int, tmp: Path) -> list[Job]:
    jobs = []
    for sweep, count, max_points, fixed, extra in SPACE_SWEEPS:
        sweep_seed, drawn = balanced_seed(seed, sweep, count, max_points)
        instances = fixed + drawn
        argv = ["verify", sweep, *extra, "--count", str(count), "--seed", str(sweep_seed)]
        jobs.append(Job(f"verify {sweep}", f"sweep_s.{sweep}", argv, instances,
                        _sweep_check(sweep, instances)))
    return jobs


def _verdict(expected: bool, more: Optional[Callable[[str], Optional[str]]] = None) -> Check:
    want = ("true", 0) if expected else ("false", 1)

    def check(code: int, out: str) -> Optional[str]:
        got = (out.split("\n", 1)[0], code)
        if got != want:
            return f"got verdict {got[0]!r} with exit {got[1]}, expected {want[0]!r} with exit {want[1]}"
        return more(out) if more is not None else None

    return check


def _wrote(out: str, path: Path) -> bool:
    return f"wrote: {path}" in out.splitlines() and path.is_file()


def _hamming(p: str, q: str) -> int:
    return sum(x != y for x, y in zip(p, q))


def cli_large(px, seed: int, tmp: Path) -> list[Job]:
    """Large inputs written as JSON files in `tmp`, and the CLI commands on them."""
    out_dir = tmp / "out"
    out_dir.mkdir()

    def save(name: str, obj) -> str:
        path = tmp / name
        px.fileio.save_json(path, obj)
        return str(path)

    # Hypercube: the distance-1 graph is the threshold graph of the
    # first-bit partition, and its cross edges (a perfect matching) are
    # the proximinal graph.
    cube = px.hypercube_space(HYPERCUBE_DIM)
    points = list(cube.points)
    cube_a = [p for p in points if p[0] == "0"]
    cube_b = [p for p in points if p[0] == "1"]
    table = [[_hamming(p, q) for q in points] for p in points]
    q_edges = sorted(oracle.threshold_graph(points, table, cube_a))
    matching = [(p, "1" + p[1:]) for p in cube_a]
    min_cross = min(_hamming(p, q) for p in cube_a for q in cube_b)
    best_pairs = {(p, q) for p in cube_a for q in cube_b if _hamming(p, q) == min_cross}
    cube_space = save("cube.space.json", px.fileio.space_to_obj(cube))
    cube_parts = save("cube.partition.json", {"A": cube_a, "B": cube_b})
    cube_graph = save("cube.graph.json", {"vertices": points, "edges": [list(e) for e in q_edges]})
    cube_match = save("cube.matching.json", {"vertices": points, "edges": [list(e) for e in matching]})
    cube_pp = oracle.is_path_bipartite(points, q_edges, cube_a)
    cube_proximinal = best_pairs == set(matching)

    # Truncation of the complex-lattice example and its threshold graph.
    trunc, trunc_parts = px.example_3_12_truncation(px.TruncationParams(*TRUNCATION))
    t_points = list(trunc.points)
    t_edges = sorted(oracle.threshold_graph(t_points, trunc.table, trunc_parts.a))
    trunc_graph = save("trunc.graph.json", {"vertices": t_points, "edges": [list(e) for e in t_edges]})
    trunc_partition = save("trunc.partition.json", {"A": sorted(trunc_parts.a), "B": sorted(trunc_parts.b)})
    trunc_pb = oracle.is_path_bipartite(t_points, t_edges, trunc_parts.a)
    metric_prefix = out_dir / "trunc.metric"
    metric_space = Path(f"{metric_prefix}.space.json")

    # Sparse random graph with odd/even parts.
    n, p = RANDOM_GRAPH
    rand = px.random_graph(n, p, seed)
    r_vertices = sorted(rand.vertices, key=lambda v: int(v[1:]))
    r_edges = sorted(rand.edges)
    r_a = [v for v in r_vertices if int(v[1:]) % 2]
    r_b = [v for v in r_vertices if not int(v[1:]) % 2]
    rand_graph = save("rand.graph.json", {"vertices": r_vertices, "edges": [list(e) for e in r_edges]})
    rand_parts = save("rand.partition.json", {"A": r_a, "B": r_b})
    blocks = oracle.BlockStructure(r_vertices, r_edges, r_a)
    pairs = blocks.pairs()
    witness_a, witness_b = random.Random(f"perfbench:witness:{seed}").choice(sorted(pairs))
    ultra_prefix = out_dir / "cube.ultra"

    def check_pairs(out: str) -> Optional[str]:
        got = {tuple(pair) for pair in json.loads(out.split("\n", 1)[0])}
        return None if got == pairs else f"B_path has {len(got)} pairs, expected {len(pairs)}"

    def check_quotient(out: str) -> Optional[str]:
        return None if oracle.parse_dot(out) == blocks.quotient() else "quotient DOT differs"

    def check_witness(out: str) -> Optional[str]:
        return oracle.check_be_path(out, r_edges, r_a, witness_a, witness_b)

    def check_metric(out: str) -> Optional[str]:
        if not _wrote(out, metric_space):
            return f"{metric_space} not written"
        w_points, w_table = oracle.load_space(metric_space)
        if oracle.threshold_graph(w_points, w_table, trunc_parts.a) != set(t_edges):
            return "threshold graph of the witness metric differs from the input graph"
        return None

    def check_ultra(out: str) -> Optional[str]:
        # A {1, 2}-valued table with 1 exactly on a perfect matching is an
        # ultrametric: two sides at 1 would share a vertex.
        space_path = Path(f"{ultra_prefix}.space.json")
        parts_path = Path(f"{ultra_prefix}.partition.json")
        if not (_wrote(out, space_path) and _wrote(out, parts_path)):
            return "ultrametric witness files not written"
        u_points, u_table = oracle.load_space(space_path)
        matched = {frozenset(e) for e in matching}
        for i, x in enumerate(u_points):
            for j, y in enumerate(u_points):
                want = 0 if i == j else 1 if frozenset((x, y)) in matched else 2
                if u_table[i][j] != want:
                    return f"d({x}, {y}) = {u_table[i][j]}, expected {want}"
        split = json.loads(parts_path.read_text(encoding="utf-8"))
        if set(split["A"]) | set(split["B"]) != set(points) or any(
            (x in split["A"]) == (y in split["A"]) for x, y in matching
        ):
            return "witness partition does not split every matched pair"
        return None

    def wrote_bundle(name: str, suffixes: tuple[str, ...]):
        def check(out: str) -> Optional[str]:
            missing = [s for s in suffixes if not _wrote(out, out_dir / f"{name}.{s}.json")]
            return f"{name} bundle lacks {missing}" if missing else None

        return check

    complete = len(pairs) == len(r_a) * len(r_b)
    rand_pb = oracle.is_path_bipartite(r_vertices, r_edges, r_a)
    bundle = ("graph", "partition", "space")
    n_, m_, k_ = (str(x) for x in TRUNCATION)
    commands = [
        ("classify cube", "classify", ["classify", cube_space], lambda c, o: None
         if (o.split("\n", 1)[0], c) == ("Metric", 0) else f"got {o[:40]!r} exit {c}"),
        ("check path-proximinal cube", "check",
         ["check", "path-proximinal", cube_graph, cube_parts, cube_space], _verdict(cube_pp)),
        ("check proximinal cube", "check",
         ["check", "proximinal", cube_match, cube_parts, cube_space], _verdict(cube_proximinal)),
        ("check path-complete rand", "check",
         ["check", "path-complete", rand_graph, rand_parts], _verdict(complete)),
        ("check path-bipartite rand", "check",
         ["check", "path-bipartite", rand_graph, rand_parts], _verdict(rand_pb)),
        ("bpath pairs rand", "bpath", ["bpath", rand_graph, rand_parts],
         lambda c, o: f"exit {c}" if c != 0 else check_pairs(o)),
        ("bpath quotient rand", "bpath", ["bpath", rand_graph, rand_parts, "--quotient"],
         lambda c, o: f"exit {c}" if c != 0 else check_quotient(o)),
        ("bpath witness rand", "bpath",
         ["bpath", rand_graph, rand_parts, "--witness", witness_a, witness_b],
         lambda c, o: f"exit {c}" if c != 0 else check_witness(o)),
        ("witness metric trunc", "witness",
         ["witness", "metric", trunc_graph, trunc_partition, "-o", str(metric_prefix)],
         _verdict(trunc_pb, check_metric)),
        ("check path-proximinal trunc-witness", "check",
         ["check", "path-proximinal", trunc_graph, trunc_partition, str(metric_space)],
         _verdict(trunc_pb)),
        ("witness ultrametric cube", "witness",
         ["witness", "ultrametric", cube_match, "-o", str(ultra_prefix)], _verdict(True, check_ultra)),
        ("example ex3.2", "example", ["example", "ex3.2", "--out-dir", str(out_dir)],
         _verdict(True, wrote_bundle("ex3.2", bundle))),
        ("example ex3.12", "example",
         ["example", "ex3.12", "--N", n_, "--M", m_, "--K", k_, "--out-dir", str(out_dir)],
         _verdict(True, wrote_bundle("ex3.12", bundle))),
    ]
    return [Job(name, f"cli_s.{group}", argv, 1, check) for name, group, argv, check in commands]


WORKLOADS = {
    "sweep-graphs": sweep_graphs,
    "sweep-spaces": sweep_spaces,
    "cli-large": cli_large,
}
