"""Spans around calls into proxigraph, installed from outside the library.

Each traced public function is replaced by a wrapper at every module that
binds its name, so calls between proxigraph modules are traced too.  A
span records the function, its parent span, and start and end in
nanoseconds; spans stay in memory in flat arrays and are written out
after the run.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import oracle

TRACED = {
    "graphs": ("connected_components", "induced_subgraph", "find_path", "build_graph"),
    "spaces": ("build_space", "classify", "set_distance", "proximity_report", "is_proximinal",
               "best_approximations", "diameter", "check_theorem_2_1"),
    "proximinal": ("verify_proximinal_graph", "witness_proximinal_metric"),
    "bepaths": ("bpath_pairs", "quotient_graph", "is_path_bipartite", "enumerate_be_paths",
                "union_of_be_paths", "pairs_from_witnesses", "be_path_witness"),
    "path_proximinal": ("build_threshold_graph", "verify_path_proximinal",
                        "is_path_proximinal_graph", "witness_metric_for_path_bipartite",
                        "witness_ultrametric", "check_structural_conditions",
                        "check_within_part_separation"),
    "instances": ("enumerate_labeled_graphs", "random_ultrametric_space",
                  "random_semimetric_space", "example_3_12_truncation"),
    "fileio": ("load_graph", "load_partition", "load_space", "save_json"),
    "cli": ("main",),
}
GENERATORS = {"instances.enumerate_labeled_graphs"}  # timed per next()
ORACLE_ROUTE = {"bepaths.enumerate_be_paths", "bepaths.union_of_be_paths",
                "bepaths.pairs_from_witnesses"}
COUNTING = "perfbench.counting"  # the tracer's own counting, kept out of every layer
MODULES = (*TRACED, "theorems")

_OUTSIDE, _SWEEP, _FAST, _ORACLE, _COUNTING = range(5)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.errors: Counter[str] = Counter()
        self.block_pairs_tested = 0
        self.block_pairs_joined = 0
        self.classified: set[int] = set()
        self._stack = [-1]
        self._undo: list = []
        self._counting_id = self._name_id(COUNTING)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, fid: int) -> int:
        index = len(self.span_end)
        self.span_name.append(fid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, count=None):
        fid = self._name_id(name)
        counting = self._counting_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(index)
            if count is not None:
                index = self._open(counting)
                try:
                    count(*args)
                finally:
                    self._close(index)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        fid = self._name_id(name)

        def timed_next(iterator):
            while True:
                index = self._open(fid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                except BaseException:
                    self.errors[name] += 1
                    raise
                finally:
                    self._close(index)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed_next(fn(*args, **kwargs))

        return traced

    def _count_blocks(self, graph, parts) -> None:
        blocks = oracle.BlockStructure(graph.vertices, graph.edges, parts.a)
        self.block_pairs_tested += blocks.tested
        self.block_pairs_joined += len(blocks.joined)

    def _count_space(self, space) -> None:
        self.classified.add(hash((space.points, space.table)))

    def install(self) -> None:
        """Wrap every traced function wherever a proxigraph module binds it."""
        counters = {"bepaths.bpath_pairs": self._count_blocks, "spaces.classify": self._count_space}
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "proxigraph"]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"proxigraph.{module_name}")
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function)
                if name in GENERATORS:
                    wrapper = self._wrap_generator(original, name)
                else:
                    wrapper = self._wrap(original, name, counters.get(name))
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._undo.append(functools.partial(setattr, holder, attr, original))
        sweeps = importlib.import_module("proxigraph.theorems").SWEEPS
        for key, spec in list(sweeps.items()):
            wrapped = self._wrap(spec.run, f"theorems.{spec.run.__name__}")
            sweeps[key] = dataclasses.replace(spec, run=wrapped)
            self._undo.append(functools.partial(sweeps.__setitem__, key, spec))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict:
        """Calls and self time per traced function and per module."""
        names, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        n = len(end)
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child_ns[parent[i]] += end[i] - start[i]
        kind_of_name = [
            _COUNTING if name == COUNTING else _SWEEP if name.startswith("theorems.")
            else _ORACLE if name in ORACLE_ROUTE else _FAST
            for name in self.names
        ]
        kind = bytearray(n)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        route_ns = [0] * 5
        for i in range(n):
            fid = names[i]
            k = kind_of_name[fid]
            if k == _FAST or k == _ORACLE:
                pk = kind[parent[i]] if parent[i] >= 0 else _OUTSIDE
                k = _OUTSIDE if pk == _OUTSIDE else _ORACLE if pk == _ORACLE else k
            kind[i] = k
            own = end[i] - start[i] - child_ns[i]
            calls[fid] += 1
            self_ns[fid] += own
            route_ns[k] += own
        functions = {
            name: {"calls": calls[fid], "self_s": self_ns[fid] / 1e9}
            for fid, name in enumerate(self.names)
        }
        modules = {m: {"self_s": 0.0, "errors": 0} for m in MODULES}
        for name, stats in functions.items():
            module = name.split(".")[0]
            if module in modules:
                modules[module]["self_s"] += stats["self_s"]
        for name, errors in self.errors.items():
            modules[name.split(".")[0]]["errors"] += errors
        return {
            "spans": n,
            "functions": functions,
            "modules": modules,
            "theorems.fast_s": route_ns[_FAST] / 1e9,
            "theorems.oracle_s": route_ns[_ORACLE] / 1e9,
            "bepaths.block_pairs_tested": self.block_pairs_tested,
            "bepaths.block_pairs_joined": self.block_pairs_joined,
            "spaces.classify.distinct_spaces": len(self.classified),
            "counting_s": route_ns[_COUNTING] / 1e9,
        }

    def write(self, stem: Path) -> None:
        """Spans as four native-order arrays in `<stem>.spans`, described by `<stem>.spans.json`."""
        layout = [("name", self.span_name), ("parent", self.span_parent),
                  ("start_ns", self.span_start), ("end_ns", self.span_end)]
        with open(f"{stem}.spans", "wb") as fh:
            for _, values in layout:
                values.tofile(fh)
        header = {
            "count": len(self.span_end),
            "names": self.names,
            "arrays": [[field, values.typecode, values.itemsize] for field, values in layout],
            "byteorder": sys.byteorder,
        }
        Path(f"{stem}.spans.json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
