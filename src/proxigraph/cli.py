"""Command-line front end.

Subcommands: classify, check, bpath, witness, verify, example, export-dot.
The first stdout line of every run is machine-parseable (a verdict or a
value payload); exit status is 0 for true/success, 1 for a false verdict
or failed precondition, 2 for usage and format errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import fileio, instances
from .bepaths import (
    be_path_witness,
    bpath_pairs,
    is_path_bipartite,
    is_path_complete,
    quotient_graph,
)
from .graphs import Bipartition, GraphError, SimpleGraph, connected_components, require_cover
from .path_proximinal import (
    build_threshold_graph,
    is_path_proximinal_graph,
    verify_path_proximinal,
    witness_metric_for_path_bipartite,
    witness_ultrametric,
)
from .proximinal import is_bipartite_with_parts, verify_proximinal_graph, witness_proximinal_metric
from .spaces import SpaceClass, SpaceError, classify, set_distance
from .theorems import SWEEPS

ENV_MAX_N = "PROXIGRAPH_MAX_N"


class UsageError(Exception):
    """Input problems that map to exit status 2."""


def _path_bipartite_reason(graph: SimpleGraph, parts: Bipartition) -> str:
    uncovered = graph.vertices - parts.union
    if uncovered:
        return f"A and B do not cover the vertex set; uncovered: {sorted(uncovered)}"
    for block in connected_components(graph):
        if not block & parts.a:
            return f"component {sorted(block)} does not meet part A"
        if not block & parts.b:
            return f"component {sorted(block)} does not meet part B"
    return "all components meet both parts"


def _false(reason: str) -> int:
    """Report a false verdict with its reason; exit status 1."""
    print("false")
    print(f"reason: {reason}")
    return 1


def cmd_classify(args: argparse.Namespace) -> int:
    space = fileio.load_space(args.space_file)
    print(classify(space).value)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    graph = fileio.load_graph(args.graph_file)
    parts = fileio.load_partition(args.partition_file)
    kind = args.kind
    if kind in ("proximinal", "path-proximinal"):
        if args.space_file is None:
            raise UsageError(f"check {kind} requires a space file")
        space = fileio.load_space(args.space_file)
        if graph.vertices != space.point_set():
            raise UsageError(
                "vertex-set mismatch between graph and space files: "
                f"graph-only={sorted(graph.vertices - space.point_set())}, "
                f"space-only={sorted(space.point_set() - graph.vertices)}"
            )
        require_cover(graph.vertices, parts, exact=False)
        proximinal = kind == "proximinal"
        verdict = (verify_proximinal_graph if proximinal else verify_path_proximinal)(graph, parts, space)
        if verdict:
            reason = "edges are exactly the best proximity pairs" if proximinal else \
                "threshold graph matches and is path-bipartite of (A, B)"
        elif parts.union != graph.vertices:
            reason = _path_bipartite_reason(graph, parts)
        elif proximinal:
            reason = "graph is not the best-proximity-pair graph of (A, B) in this space"
        elif graph != build_threshold_graph(space, parts):
            reason = "edges differ from the threshold graph of the space"
        else:
            reason = _path_bipartite_reason(graph, parts)
    elif kind == "path-bipartite":
        require_cover(graph.vertices, parts, exact=False)
        verdict = is_path_bipartite(graph, parts)
        reason = _path_bipartite_reason(graph, parts)
    else:  # path-complete
        pairs = bpath_pairs(graph, parts)
        verdict = len(pairs) == len(parts.a) * len(parts.b)
        if verdict:
            reason = f"all {len(pairs)} pairs of A x B are joined by be-paths"
        else:
            missing = sorted(
                (a, b) for a in parts.a for b in parts.b if (a, b) not in pairs
            )
            reason = f"{len(missing)} pairs not joinable, e.g. {missing[0]}"
    print("true" if verdict else "false")
    print(f"reason: {reason}")
    return 0 if verdict else 1


def cmd_bpath(args: argparse.Namespace) -> int:
    graph = fileio.load_graph(args.graph_file)
    parts = fileio.load_partition(args.partition_file)
    require_cover(graph.vertices, parts)
    if args.witness is not None:
        a, b = args.witness
        if a not in parts.a or b not in parts.b:
            raise UsageError(f"witness endpoints must satisfy {a!r} in A and {b!r} in B")
        witness = be_path_witness(graph, parts, a, b)
        if witness is None:
            return _false(f"pair ({a}, {b}) is not joined by any be-path")
        print(json.dumps(list(witness.path)))
        print(f"crossing-edge: {list(witness.crossing_edge)}")
        return 0
    if args.quotient:
        sys.stdout.write(fileio.quotient_to_dot(quotient_graph(graph, parts)))
        return 0
    pairs = sorted(bpath_pairs(graph, parts))
    print(json.dumps([list(p) for p in pairs]))
    return 0


_TO_OBJ = {"graph": fileio.graph_to_obj, "partition": fileio.partition_to_obj, "space": fileio.space_to_obj}


def _write_bundle(prefix: Path, bundle: dict[str, object]) -> list[Path]:
    """Write each object to `<prefix>.<suffix>.json`; the paths, in bundle order."""
    written = []
    for suffix, value in bundle.items():
        path = Path(f"{prefix}.{suffix}.json")
        fileio.save_json(path, _TO_OBJ[suffix](value))
        written.append(path)
    return written


def _output_prefix(args: argparse.Namespace, kind: str) -> Path:
    if args.output is not None:
        return Path(args.output)
    stem = Path(args.graph_file)
    while stem.suffix:
        stem = stem.with_suffix("")
    return stem.parent / f"{stem.name}.{kind}"


def cmd_witness(args: argparse.Namespace) -> int:
    graph = fileio.load_graph(args.graph_file)
    kind = args.kind
    parts = None if args.partition_file is None else fileio.load_partition(args.partition_file)
    if parts is not None:
        require_cover(graph.vertices, parts)
    elif kind != "ultrametric":
        raise UsageError(f"witness {kind} requires a partition file")
    # only the metric witness allows an edge inside a part
    if kind != "metric" and parts is not None and not is_bipartite_with_parts(graph, parts):
        return _false("not-bipartite-with-parts: some edge stays inside one part")
    if kind == "ultrametric":
        certificate = witness_ultrametric(graph)
        if certificate is None:
            return _false("not-degree-one: some vertex does not have exactly one neighbor")
        space, parts = certificate.space, certificate.parts if parts is None else parts
        verified = classify(space) is SpaceClass.ULTRAMETRIC and verify_path_proximinal(graph, parts, space)
    elif kind == "metric":
        if not is_path_bipartite(graph, parts):
            return _false(f"not-path-bipartite: {_path_bipartite_reason(graph, parts)}")
        space = witness_metric_for_path_bipartite(graph, parts)
        verified = verify_path_proximinal(graph, parts, space)
    else:  # proximinal-metric
        if not graph.edges:
            return _false("empty-graph: an empty bipartite graph has no proximinal witness")
        space = witness_proximinal_metric(graph, parts)
        verified = verify_proximinal_graph(graph, parts, space)
    if not verified:
        return _false(f"the {kind} witness fails its verification")
    bundle = {"space": space, "partition": parts} if kind == "ultrametric" else {"space": space}
    written = _write_bundle(_output_prefix(args, kind), bundle)
    print("true")
    for path in written:
        print(f"wrote: {path}")
    return 0


def _resolve_max_n(args: argparse.Namespace) -> Optional[int]:
    """The vertex bound set by --max-n or the environment, or None to keep the sweep's default."""
    value = None
    env = os.environ.get(ENV_MAX_N)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"{ENV_MAX_N} must be an integer, got {env!r}")
    if args.max_n is not None:
        value = args.max_n
    if value is not None and not 1 <= value <= instances.MAX_ENUMERATION_VERTICES:
        raise UsageError(f"vertex bound {value} outside 1..{instances.MAX_ENUMERATION_VERTICES}")
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    spec = SWEEPS[args.theorem]
    flags = {"max_n": args.max_n, "count": args.count, "seed": args.seed}
    kwargs = {name: value for name, value in flags.items() if value is not None}
    for name in kwargs:
        if name not in spec.parameters:
            raise UsageError(f"sweep {args.theorem} takes no --{name.replace('_', '-')}")
    if kwargs.get("count", 1) < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if "max_n" in spec.parameters:
        max_n = _resolve_max_n(args)
        if max_n is not None:
            kwargs["max_n"] = max_n

    def progress(done: int) -> None:
        print(f"... {done} instances checked", file=sys.stderr)

    result = spec.run(progress=progress, **kwargs)
    if not result.checked:
        raise UsageError(f"sweep {args.theorem} has no instances within these bounds")
    print("true" if result.ok else "false")
    for line in result.lines():
        print(line)
    return 0 if result.ok else 1


# Each example returns (bundle objects by file suffix, checks, extra report lines).
Example = tuple[dict[str, object], dict[str, bool], list[str]]


def _example_3_1(args: argparse.Namespace) -> Example:
    graph, parts = instances.example_3_1()
    checks = {
        "|E| = 25": len(graph.edges) == 25,
        "connected": len(connected_components(graph)) == 1,
        "path-bipartite of (A, B)": is_path_bipartite(graph, parts),
    }
    return {"graph": graph, "partition": parts}, checks, [
        f"erratum: x14 {instances.EXAMPLE_ERRATA['x14']}"
    ]


def _example_3_2(args: argparse.Namespace) -> Example:
    space, parts = instances.example_3_2()
    graph = build_threshold_graph(space, parts)
    pairs = bpath_pairs(graph, parts)
    published = set(instances.PUBLISHED_BPATH_PAIRS)
    omitted = sorted(pairs - published)
    checks = {
        "dist(A, B) = 1": set_distance(space, parts.a, parts.b) == 1,
        "threshold graph has 32 edges": len(graph.edges) == 32,
        "path-proximinal": verify_path_proximinal(graph, parts, space),
        "path-complete": is_path_complete(graph, parts),
        "B_path = A x B (64 pairs)": len(pairs) == 64,
        "published 46-pair list is a strict subset": published < pairs,
    }
    witness = be_path_witness(graph, parts, "x2", "x5")
    assert witness is not None
    return {"graph": graph, "partition": parts, "space": space}, checks, [
        f"erratum: published B_path list has {len(published)} pairs; computed {len(pairs)};"
        f" omitted pairs include {omitted[:3]}",
        f"witness be-path for omitted pair (x2, x5): {list(witness.path)}",
    ]


def _example_3_7(args: argparse.Namespace) -> Example:
    graph, parts = instances.example_3_7()
    pairs = bpath_pairs(graph, parts)
    checks = {
        "connected": len(connected_components(graph)) == 1,
        "B_path has 3 pairs": len(pairs) == 3,
        "(a1, b2) not joinable": ("a1", "b2") not in pairs,
        "not path-complete": not is_path_complete(graph, parts),
    }
    return {"graph": graph, "partition": parts}, checks, []


def _example_3_12(args: argparse.Namespace) -> Example:
    space, parts = instances.example_3_12_truncation(instances.TruncationParams(args.N, args.M, args.K))
    graph = build_threshold_graph(space, parts)
    checks = {
        "dist(A, B) = 2": set_distance(space, parts.a, parts.b) == 2,
        "satisfies the triangle inequality": classify(space).value in ("Metric", "Ultrametric"),
        "path-complete": is_path_complete(graph, parts),
        "path-proximinal": verify_path_proximinal(graph, parts, space),
    }
    return {"graph": graph, "partition": parts, "space": space}, checks, []


def _example_3_16(args: argparse.Namespace) -> Example:
    graph = instances.example_3_16()
    checks = {
        "x1 isolated": "x1" in graph.isolated_vertices(),
        "not path-proximinal": is_path_proximinal_graph(graph) is None,
    }
    return {"graph": graph}, checks, []


EXAMPLES = {
    "ex3.1": _example_3_1,
    "ex3.2": _example_3_2,
    "ex3.7": _example_3_7,
    "ex3.12": _example_3_12,
    "ex3.16": _example_3_16,
}


def cmd_example(args: argparse.Namespace) -> int:
    bundle, checks, notes = EXAMPLES[args.name](args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = _write_bundle(out_dir / args.name, bundle)
    ok = all(checks.values())
    print("true" if ok else "false")
    for key, value in checks.items():
        print(f"{key}: {value}")
    for line in notes:
        print(line)
    for path in written:
        print(f"wrote: {path}")
    return 0 if ok else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = fileio.load_graph(args.graph_file)
    text = fileio.graph_to_dot(graph)
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote: {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxigraph",
        description="Decision procedures and witnesses for proximinal and path-proximinal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a space file as Semimetric/Metric/Ultrametric")
    p.add_argument("space_file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run a decision procedure on graph/partition(/space) files")
    p.add_argument("kind", choices=["path-bipartite", "path-complete", "path-proximinal", "proximinal"])
    p.add_argument("graph_file")
    p.add_argument("partition_file")
    p.add_argument("space_file", nargs="?", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bpath", help="compute B_path pairs, a witness be-path, or the quotient")
    p.add_argument("graph_file")
    p.add_argument("partition_file")
    p.add_argument("--witness", nargs=2, metavar=("A_VERTEX", "B_VERTEX"), default=None)
    p.add_argument("--quotient", action="store_true")
    p.set_defaults(func=cmd_bpath)

    p = sub.add_parser("witness", help="construct and re-verify a witness space")
    p.add_argument("kind", choices=["metric", "ultrametric", "proximinal-metric"])
    p.add_argument("graph_file")
    p.add_argument("partition_file", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None, help="output path prefix")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run an equivalence sweep")
    p.add_argument("theorem", choices=sorted(SWEEPS))
    p.add_argument("--max-n", type=int, default=None,
                   help=f"exhaustive vertex bound (cap {instances.MAX_ENUMERATION_VERTICES})")
    p.add_argument("--count", type=int, default=None, help="randomized instance count")
    p.add_argument("--seed", type=int, default=None, help="randomized sweep seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="write a worked example bundle and re-check its claims")
    p.add_argument("name", choices=list(EXAMPLES))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--K", type=int, default=2)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("export-dot", help="export a graph file as DOT text")
    p.add_argument("graph_file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, fileio.FormatError, GraphError, SpaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
