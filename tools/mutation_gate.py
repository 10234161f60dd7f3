"""Mutation gate: each committed source edit must make its named tests fail.

For each edit the script copies `src/`, `tests/` and `perfbench/` to a
temporary directory, replaces the edit's old text (which must occur exactly
once) with its new text, and runs the named test files or test ids there.
The gate fails when a mutant survives, when its old text is missing or
repeated (a stale mutant), or when the unmutated copy does not pass the
named tests to begin with.  Standard library only:

    python tools/mutation_gate.py            # every edit
    python tools/mutation_gate.py NAME ...   # the named edits
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Edit(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


SEARCH_VS_DEFINITION = "tests/test_bepaths.py::test_the_search_finds_exactly_the_be_paths_of_the_definition"
CERTIFICATE_CHECKS = "tests/test_theorems.py::test_sweep_reports_a_certificate_failing_verification"
P3_9_LINE = "tests/test_theorems.py::test_p3_9_counterexample_line_rebuilds_the_graph_parts_and_perturbed_space"
BOTH_ORDERS = "tests/test_spaces.py::test_both_orders_of_a_pair_answer_as_a_fresh_space_asked_once"
BOTH_ORDERS_OF_PARTS = "tests/test_bepaths.py::test_both_orders_of_a_pair_answer_as_a_fresh_graph_asked_once"
COMPONENT_KERNEL = "tests/test_graphs.py::test_component_kernel_matches_breadth_first_search"
DISTANCE_LAYER = "tests/test_spaces.py::test_distance_layer_matches_plain_fraction_scans"

EDITS = (
    Edit("threshold-strict", "src/proxigraph/spaces.py",
         "            if row[j] <= limit\n", "            if row[j] < limit\n",
         ("tests/test_spaces.py",)),
    Edit("symmetry-against-itself", "src/proxigraph/spaces.py",
         "            if row[j] != rows[j][i]:\n", "            if row[j] != row[j]:\n",
         ("tests/test_spaces.py",)),
    Edit("strong-guards-anded", "src/proxigraph/spaces.py",
         "if (s_i | (packed[j] + low)) & guards == guards:", "if (s_i & (packed[j] + low)) & guards == guards:",
         ("tests/test_spaces.py",)),
    Edit("ultra-never-refuted", "src/proxigraph/spaces.py",
         "                ultrametric = False\n", "",
         ("tests/test_spaces.py",)),
    Edit("fraction-ultra-scan-adds", "src/proxigraph/spaces.py",
         "((max, SpaceClass.ULTRAMETRIC)", "((add, SpaceClass.ULTRAMETRIC)",
         ("tests/test_spaces.py",)),
    Edit("packed-field-one-bit-short", "src/proxigraph/spaces.py",
         "    w = (2 * max(map(max, rows))).bit_length() + 1\n", "    w = (2 * max(map(max, rows))).bit_length()\n",
         ("tests/test_spaces.py",)),
    Edit("threshold-memo-constant-key", "src/proxigraph/spaces.py",
         "    if limit not in graphs:\n"
         "        pts = space.points\n"
         "        graphs[limit] = SimpleGraph(space.point_set(), frozenset(\n"
         "            edge_key(pts[i], pts[j])\n"
         "            for i, row in enumerate(space.rows)\n"
         "            for j in range(i + 1, len(pts))\n"
         "            if row[j] <= limit\n"
         "        ))\n"
         "    return graphs[limit]\n",
         "    if 0 not in graphs:\n"
         "        pts = space.points\n"
         "        graphs[0] = SimpleGraph(space.point_set(), frozenset(\n"
         "            edge_key(pts[i], pts[j])\n"
         "            for i, row in enumerate(space.rows)\n"
         "            for j in range(i + 1, len(pts))\n"
         "            if row[j] <= limit\n"
         "        ))\n"
         "    return graphs[0]\n",
         ("tests/test_spaces.py",)),
    Edit("unscaled-numerators", "src/proxigraph/spaces.py",
         "        value = {v: n * (scale // d) for v, (n, d) in ratio.items()}\n",
         "        value = {v: n for v, (n, d) in ratio.items()}\n",
         ("tests/test_spaces.py",)),
    Edit("scale-missing-largest-denominator", "src/proxigraph/spaces.py",
         "    for d in {d for _, d in ratio.values()}:\n",
         "    for d in sorted({d for _, d in ratio.values()})[:-1]:\n",
         ("tests/test_spaces.py",)),
    Edit("symmetry-row-against-itself", "src/proxigraph/spaces.py",
         "        or not all(map(tuple.__eq__, rows, zip(*rows)))", "        or not all(map(tuple.__eq__, rows, rows))",
         ("tests/test_spaces.py", "tests/test_fileio.py")),
    Edit("writer-splits-items-holding-the-separator", "src/proxigraph/fileio.py",
         "            if text.count(\", \") == len(obj) - 1:\n", "            if True:\n",
         ("tests/test_fileio.py",)),
    Edit("space-to-obj-ignores-the-scale", "src/proxigraph/fileio.py",
         "_rational_to_entry(Fraction(v, scale))", "_rational_to_entry(Fraction(v))",
         ("tests/test_fileio.py",)),
    Edit("truncation-rows-at-scale-1", "src/proxigraph/instances.py",
         "(tuple(map(label, coords)), 2, tuple(map(tuple, rows)))",
         "(tuple(map(label, coords)), 1, tuple(map(tuple, rows)))",
         ("tests/test_instances.py",)),
    Edit("bulk-draw-keep-bound-inclusive", "src/proxigraph/instances.py",
         " if key < keep]", " if key <= keep]",
         ("tests/test_instances.py",)),
    Edit("bulk-draw-edge-bound-inclusive", "src/proxigraph/instances.py",
         "[key < below for", "[key <= below for",
         ("tests/test_instances.py",)),
    Edit("wide-draws-read-as-one-word", "src/proxigraph/instances.py",
         "if p.denominator.bit_length() > 32 or", "if p.denominator.bit_length() > 64 or",
         ("tests/test_instances.py",)),
    Edit("enumeration-bound-checked-at-the-first-graph", "src/proxigraph/instances.py",
         "    if not 1 <= n <= MAX_ENUMERATION_VERTICES:\n"
         "        raise ValueError(f\"vertex count must be in 1..{MAX_ENUMERATION_VERTICES}, got {n}\")\n"
         "    labels = [f\"v{i}\" for i in range(1, n + 1)]\n"
         "    pairs = [edge_key(u, v) for u, v in combinations(labels, 2)]\n"
         "    return map(partial(SimpleGraph, frozenset(labels)), _subsets_in_mask_order(pairs))\n",
         "    def graphs() -> Iterator[SimpleGraph]:\n"
         "        if not 1 <= n <= MAX_ENUMERATION_VERTICES:\n"
         "            raise ValueError(f\"vertex count must be in 1..{MAX_ENUMERATION_VERTICES}, got {n}\")\n"
         "        labels = [f\"v{i}\" for i in range(1, n + 1)]\n"
         "        pairs = [edge_key(u, v) for u, v in combinations(labels, 2)]\n"
         "        yield from map(partial(SimpleGraph, frozenset(labels)), _subsets_in_mask_order(pairs))\n"
         "    return graphs()\n",
         ("tests/test_theorems.py",)),
    Edit("induced-memo-keyed-by-size", "src/proxigraph/graphs.py",
         "    if subset not in memo:\n"
         "        memo[subset] = tuple(component_roots(subset, _induced_edges(graph, subset)).values())\n"
         "    return memo[subset]\n",
         "    if len(subset) not in memo:\n"
         "        memo[len(subset)] = tuple(component_roots(subset, _induced_edges(graph, subset)).values())\n"
         "    return memo[len(subset)]\n",
         ("tests/test_graphs.py",)),
    Edit("kernel-members-keep-the-poured-set", "src/proxigraph/graphs.py",
         "            for w in bv:\n                block[w] = bu\n", "",
         (COMPONENT_KERNEL,)),
    Edit("kernel-keys-blocks-in-vertex-order", "src/proxigraph/graphs.py",
         "    for v in sorted(vertices):\n", "    for v in vertices:\n",
         (COMPONENT_KERNEL,)),
    Edit("kernel-keys-every-member", "src/proxigraph/graphs.py",
         "            b.clear()\n", "",
         (COMPONENT_KERNEL,)),
    Edit("kernel-drops-untouched-vertices", "src/proxigraph/graphs.py",
         "            blocks[v] = frozenset((v,))\n", "            continue\n",
         (COMPONENT_KERNEL,)),
    Edit("partition-list-keyed-by-size", "src/proxigraph/theorems.py",
         "        if labels not in partitions:\n"
         "            partitions[labels] = list(all_bipartitions(labels))\n"
         "        for parts in partitions[labels]:\n",
         "        if len(labels) not in partitions:\n"
         "            partitions[len(labels)] = list(all_bipartitions(labels))\n"
         "        for parts in partitions[len(labels)]:\n",
         ("tests/test_theorems.py",)),
    Edit("reverse-cross-minimum-unswapped", "src/proxigraph/spaces.py",
         "        memo[b, a] = found[0], ib, ia\n", "        memo[b, a] = found\n",
         (BOTH_ORDERS,)),
    Edit("reverse-report-parts-unswapped", "src/proxigraph/spaces.py",
         "ProximityReport(distance, b0, a0,", "ProximityReport(distance, a0, b0,",
         (BOTH_ORDERS,)),
    Edit("reverse-report-pairs-unreversed", "src/proxigraph/spaces.py",
         "frozenset(zip(ys, xs)))", "frozenset(hits))",
         (BOTH_ORDERS,)),
    Edit("reverse-quotient-edges-unswapped", "src/proxigraph/bepaths.py",
         "frozenset((j, i) for i, j in edges))", "edges)",
         (BOTH_ORDERS_OF_PARTS,)),
    Edit("reverse-quotient-blocks-unswapped", "src/proxigraph/bepaths.py",
         "QuotientGraph(tuple(comps[1]), tuple(comps[0]),", "QuotientGraph(tuple(comps[0]), tuple(comps[1]),",
         (BOTH_ORDERS_OF_PARTS,)),
    Edit("statement-1-strict", "src/proxigraph/spaces.py",
         "all(rows[i][j] <= m for i, j in combinations(ib, 2))", "all(rows[i][j] < m for i, j in combinations(ib, 2))",
         (BOTH_ORDERS,)),
    Edit("statement-1-reads-part-a", "src/proxigraph/spaces.py",
         "    m, _, ib = _cross_minimum(space, parts.a, parts.b)\n", "    m, ib, _ = _cross_minimum(space, parts.a, parts.b)\n",
         (BOTH_ORDERS,)),
    Edit("report-distance-drops-scale", "src/proxigraph/spaces.py",
         "Fraction(value, space.scale))", "Fraction(value))",
         ("tests/test_spaces.py",)),
    Edit("fraction-memo-constant-key", "src/proxigraph/spaces.py",
         "fractions.get(value) or fractions.setdefault(value,", "fractions.get(0) or fractions.setdefault(0,",
         (DISTANCE_LAYER,)),
    Edit("exact-cover-accepts-a-subset", "src/proxigraph/graphs.py",
         "    if parts.union == vertices if exact else parts.union <= vertices:\n",
         "    if parts.union <= vertices:\n",
         ("tests/test_graphs.py::test_require_cover_messages",)),
    Edit("components-read-block-roots", "src/proxigraph/graphs.py",
         "list(graph._blocks.values())", "list(graph._blocks)",
         ("tests/test_graphs.py",)),
    Edit("t3.5-space-bound-off-by-one", "src/proxigraph/theorems.py",
         "_random_spaces(random_semimetric_space, count, 7, seed)",
         "_random_spaces(random_semimetric_space, count, 6, seed)",
         ("tests/test_cli.py",)),
    Edit("quotient-crossing-edge-unoriented", "src/proxigraph/bepaths.py",
         "(number[u], number[v]) if u in in_a else (number[v], number[u])", "(number[u], number[v])",
         ("tests/test_bepaths.py",)),
    Edit("adjacency-non-edges-at-3", "src/proxigraph/proximinal.py",
         "[[2] * n for _ in pts]", "[[3] * n for _ in pts]",
         ("tests/test_proximinal.py",)),
    Edit("adjacency-diagonal-left-at-2", "src/proxigraph/proximinal.py",
         "        row[i] = 0\n", "        row[i] = 2\n",
         ("tests/test_proximinal.py",)),
    Edit("singleton-read-as-pair", "src/proxigraph/bepaths.py",
         "any(len(block) == 1 for block in graph._blocks.values())",
         "any(len(block) == 2 for block in graph._blocks.values())",
         ("tests/test_bepaths.py",)),
    Edit("t3.6-oracle-is-the-quotient", "src/proxigraph/theorems.py",
         "    induced subgraph is split once per host graph (`induced_components`).\n    \"\"\"\n",
         "    induced subgraph is split once per host graph (`induced_components`).\n    \"\"\"\n"
         "    return bpath_pairs(graph, parts)\n",
         ("tests/test_theorems.py",)),
    Edit("t3.10-oracle-is-all-degrees-one", "src/proxigraph/theorems.py",
         "    neighbour: dict[str, str] = {}\n",
         "    return all_degrees_one(graph)\n    neighbour: dict[str, str] = {}\n",
         ("tests/test_theorems.py",)),
    Edit("degrees-one-count-only", "src/proxigraph/path_proximinal.py",
         " == len(set(chain.from_iterable(graph.edges)))", "",
         ("tests/test_counts.py::test_fast_route_true_counts_match_their_formula[c3.12]",
          "tests/test_counts.py::test_fast_route_true_counts_match_their_formula[t3.10]")),
    Edit("c3.12-components-read-degrees", "src/proxigraph/path_proximinal.py",
         "    return bool(graph.vertices) and all(len(block) == 2 for block in connected_components(graph))\n",
         "    return all_degrees_one(graph)\n",
         ("tests/test_theorems.py",)),
    Edit("part-b-never-reported", "src/proxigraph/bepaths.py",
         "        if block.isdisjoint(parts.b):\n            return \"B\", block\n", "",
         ("tests/test_cli.py", "tests/test_bepaths.py")),
    Edit("first-missing-pair-is-the-largest", "src/proxigraph/bepaths.py",
         "    first = next(((a, b) for i, a in enumerate(q.a_representatives) for j, b in enumerate(q.b_representatives)\n"
         "                  if (i, j) not in q.edges), None)",
         "    first = max(((a, b) for i, a in enumerate(q.a_representatives) for j, b in enumerate(q.b_representatives)\n"
         "                  if (i, j) not in q.edges), default=None)",
         ("tests/test_cli.py", "tests/test_bepaths.py")),
    Edit("missing-count-off-by-one-block", "src/proxigraph/bepaths.py",
         " for i, j in q.edges)\n", " for i, j in sorted(q.edges)[1:])\n",
         ("tests/test_cli.py", "tests/test_bepaths.py")),
    Edit("threshold-never-compared", "src/proxigraph/path_proximinal.py",
         "    if parts.union == graph.vertices and graph != build_threshold_graph(space, parts):\n",
         "    if False:\n",
         ("tests/test_path_proximinal.py",)),
    Edit("proximinal-defect-counts-edges", "src/proxigraph/proximinal.py",
         "graph.edges == build_proximinal_graph(space, parts).edges",
         "len(graph.edges) == len(build_proximinal_graph(space, parts).edges)",
         ("tests/test_proximinal.py",)),
    Edit("uncovered-read-as-best-pairs", "src/proxigraph/proximinal.py",
         "    if parts.union != graph.vertices:\n        return path_bipartite_defect(graph, parts)\n", "",
         ("tests/test_cli.py",)),
    Edit("fraction-rows-from-512-bits", "src/proxigraph/spaces.py",
         "        if scale.bit_length() > 512:\n", "        if scale.bit_length() >= 512:\n",
         ("tests/test_spaces.py",)),
    Edit("be-path-crosses-twice", "src/proxigraph/bepaths.py",
         "if nxt in path or (crossed and at >= 0):", "if nxt in path:",
         (SEARCH_VS_DEFINITION,)),
    Edit("a-stream-hands-out-the-live-path", "src/proxigraph/bepaths.py",
         "(tuple(path) for path, _ in", "(path for path, _ in",
         (SEARCH_VS_DEFINITION,)),
    Edit("enumeration-bound-inclusive", "src/proxigraph/bepaths.py",
         "    if len(graph.vertices) > DEFAULT_ENUMERATION_BOUND:\n",
         "    if len(graph.vertices) >= DEFAULT_ENUMERATION_BOUND:\n",
         ("tests/test_bepaths.py",)),
    Edit("t3.9-decision-mirrored-with-the-oracle", "src/proxigraph/theorems.py",
         "@_declared(\"t3.9\", _graph_pairs, lambda graph, parts: is_path_bipartite(graph, parts),\n"
         "           lambda graph, parts: union_of_be_paths(graph, parts) == graph, (\"decision\", \"union-oracle\"),\n"
         "           _BEPATHS_FAST, mirror=lambda same: same)\n",
         "@_declared(\"t3.9\", _graph_pairs, lambda graph, parts: None,\n"
         "           lambda graph, parts: (is_path_bipartite(graph, parts), union_of_be_paths(graph, parts) == graph),\n"
         "           (\"decision\", \"union-oracle\"), _BEPATHS_FAST,\n"
         "           lambda instance, names, answers: _compare(instance, names, answers[1]), mirror=lambda same: same)\n",
         ("tests/test_theorems.py",)),
    Edit("t3.4-fast-route-mirrored-with-the-oracle", "src/proxigraph/theorems.py",
         "@_declared(\"t3.4\", _graph_pairs, lambda graph, parts: bpath_pairs(graph, parts), _t3_4_oracle,\n"
         "           (\"component-set\", \"enumerated\"), _BEPATHS_FAST, _check_t3_4,\n"
         "           mirror=lambda found: (frozenset((b, a) for a, b in found[0]), sorted((b, a, n) for a, b, n in found[1])))\n",
         "@_declared(\"t3.4\", _graph_pairs, lambda graph, parts: None,\n"
         "           lambda graph, parts: (bpath_pairs(graph, parts), _t3_4_oracle(graph, parts)),\n"
         "           (\"component-set\", \"enumerated\"), _BEPATHS_FAST,\n"
         "           lambda instance, names, answers: _check_t3_4(instance, names, answers[1]),\n"
         "           mirror=lambda found: (frozenset((b, a) for a, b in found[0]), (\n"
         "               frozenset((b, a) for a, b in found[1][0]), sorted((b, a, n) for a, b, n in found[1][1]))))\n",
         ("tests/test_theorems.py",)),
    Edit("t3.6-fast-route-mirrored-with-the-oracle", "src/proxigraph/theorems.py",
         "@_declared(\"t3.6\", _graph_pairs, lambda graph, parts: is_path_complete(graph, parts),\n"
         "           lambda graph, parts: len(induced_bpath_pairs(graph, parts)) == len(parts.a) * len(parts.b),\n"
         "           (\"quotient-complete\", \"blocks-induce-connected\"), _BEPATHS_FAST, mirror=lambda same: same)\n",
         "@_declared(\"t3.6\", _graph_pairs, lambda graph, parts: None,\n"
         "           lambda graph, parts: (is_path_complete(graph, parts),\n"
         "                                 len(induced_bpath_pairs(graph, parts)) == len(parts.a) * len(parts.b)),\n"
         "           (\"quotient-complete\", \"blocks-induce-connected\"), _BEPATHS_FAST,\n"
         "           lambda instance, names, answers: _compare(instance, names, answers[1]), mirror=lambda same: same)\n",
         ("tests/test_theorems.py",)),
    Edit("declaration-drops-a-route", "src/proxigraph/theorems.py",
         "(*_BEPATHS_FAST, \"bepaths.find_path_bipartite_partition\"), _check_c3_10)",
         "_BEPATHS_FAST, _check_c3_10)",
         ("tests/test_theorems.py::test_oracle_table_covers_every_sweep",)),
    Edit("run-skips-the-check", "src/proxigraph/theorems.py",
         "spec.names, spec.check or _compare\n", "spec.names, _compare\n",
         (CERTIFICATE_CHECKS,)),
    Edit("t3.10-certificates-skip-corollary-3.11", "src/proxigraph/theorems.py",
         ",\n               (\"witness disagrees on the statements of Corollary 3.11\",\n"
         "                lambda certificate: _corollary_3_11_agrees(certificate.graph, certificate.parts))", "",
         (f"{CERTIFICATE_CHECKS}[t3.10-corollary-3.11]",)),
    Edit("t3.10-backward-skips-corollary-3.11", "src/proxigraph/theorems.py",
         "                                           _corollary_3_11_agrees(graph, parts))) if not holds]",
         "                                           True)) if not holds]",
         (f"{CERTIFICATE_CHECKS}[t3.10-backward-corollary-3.11]",)),
    Edit("p3.9-line-drops-the-space", "src/proxigraph/theorems.py",
         "    return _compare(instance, names, answers)\n", "    return _compare(instance[:2], names, answers)\n",
         (P3_9_LINE,)),
    Edit("p3.9-broken-line-drops-the-space", "src/proxigraph/theorems.py",
         "{_describe(*instance)}: perturbation broke", "{_describe(*instance[:2])}: perturbation broke",
         (P3_9_LINE,)),
)


def _run_tests(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )


def _copy_tree(tmp: Path) -> Path:
    tree = tmp / "tree"
    for part in ("src", "tests", "perfbench"):  # tests read the tracer's name table from perfbench
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
    return tree


def check(edit: Edit) -> tuple[bool, str]:
    """(killed, the failing test or what went wrong) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy_tree(Path(tmp))
        target = tree / edit.file
        text = target.read_text(encoding="utf-8")
        found = text.count(edit.old)
        if found != 1:
            return False, f"old text occurs {found} times in {edit.file}; the mutant is stale"
        target.write_text(text.replace(edit.old, edit.new), encoding="utf-8")
        done = _run_tests(tree, edit.tests)
        if done.returncode == 0:
            return False, f"survived: {', '.join(edit.tests)} pass on the mutant"
        if done.returncode != 1:
            return False, f"pytest exited {done.returncode}, not 1:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        return True, next((line for line in done.stdout.splitlines() if line.startswith("FAILED")), "")


def main(argv: list[str]) -> int:
    edits = [edit for edit in EDITS if not argv or edit.name in argv]
    unknown = set(argv) - {edit.name for edit in EDITS}
    if unknown:
        print(f"unknown edits: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutant-clean-") as tmp:
        named = tuple(sorted({test for edit in edits for test in edit.tests}))
        done = _run_tests(_copy_tree(Path(tmp)), named)
        if done.returncode != 0:
            print(f"the unmutated tree fails {', '.join(named)}:\n{done.stdout[-2000:]}", file=sys.stderr)
            return 1
    failures = 0
    for edit in edits:
        start = time.perf_counter()
        killed, detail = check(edit)
        failures += not killed
        print(f"{'killed' if killed else 'FAILED'}  {edit.name}  ({time.perf_counter() - start:.1f} s)")
        print(f"  {detail}")
    print(f"{len(edits) - failures} of {len(edits)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
