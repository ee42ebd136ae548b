"""Batch front door: analyze polytopes, validate matrix properties, run oracles.

Machine-readable JSON goes to stdout and is byte-for-byte deterministic
for fixed inputs and flags; human chatter (including wall-clock timing)
goes to stderr and only with --verbose.

Exit codes: 0 ok, 1 failed validation property, 2 bad input document,
3 reconstruction violation, 4 search limit exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .autgroup import automorphisms, uncolored
from .colorings import Coloring, orbit_coloring
from .config import Tolerances
from .errors import (
    LimitExceeded,
    ParseError,
    PolysymError,
    TheoremViolation,
    TooManyCandidates,
    ValidationError,
)
from .geometry import EdgeGraph, edge_graph, load_polytope
from .izmestiev import izmestiev_matrix_fd, load_matrix_dump, verify_properties
from .oracle import SYM_LIMIT, brute_force_group, embedding_group
from .reconstruct import (
    build_artifacts,
    eigenspace_criterion,
    linear_group,
    orthogonal_group,
)

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1170aa", "#fc7d0b",
    "#a3acb9", "#57606c", "#5fa2ce", "#c85200", "#7b848f", "#a3cce9",
    "#ffbc79", "#c8d0d9",
)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _chatter(args, msg: str) -> None:
    if args.verbose:
        sys.stderr.write(msg + "\n")


# tolerance override flags and the Tolerances field each one sets
EPS_FLAGS = {"eps-geom": "geom_rel", "eps-color": "color_rel", "eps-kern": "kernel",
             "eps-eig": "eig_rel", "eps-match": "match", "eps-orth": "orth",
             "fd-step": "fd_step"}


def _tolerances(args):
    overrides = {f: getattr(args, f) for f in EPS_FLAGS.values() if getattr(args, f) is not None}
    return Tolerances(**overrides)


def _load(args, path):
    tol = _tolerances(args)
    poly = load_polytope(path, tol=tol, recenter=args.recenter)
    return poly, tol


def _input_echo(args, path, poly) -> dict:
    return {
        "path": str(path),
        "name": poly.name,
        "dimension": poly.dim,
        "n_vertices": poly.n,
        "recentered": bool(args.recenter),
    }


def _group_report(group, graph, tol) -> dict:
    return {**group.to_json_dict(tol),
            "orbit_coloring": orbit_coloring(graph, group.perm_group).to_json_dict()}


def cmd_analyze(args) -> int:
    reports = []
    for path in args.paths:
        t0 = time.perf_counter()
        poly, tol = _load(args, path)
        art = build_artifacts(poly, tol)
        props = verify_properties(art.matrix, poly, tol).to_json_dict()
        report = {
            "input": _input_echo(args, path, poly),
            "facet_count": poly.facets.m,
            "edge_count": len(art.graph.edges),
            "matrix_summary": {
                "spectrum": props["spectrum"],
                "kernel_dim": props["kernel_dim"],
                "property_report": props,
                "dump": art.matrix.to_json_dict(),
            },
            "colorings": {
                "izmestiev": art.izm_coloring.to_json_dict(),
                "metric": art.met_coloring.to_json_dict(),
                "product": art.prod_coloring.to_json_dict(),
            },
            "groups": {},
            "tolerances": tol.as_dict(),
        }
        if args.coloring in ("izmestiev", "both"):
            lin = linear_group(poly, tol, artifacts=art, limit=args.limit)
            report["groups"]["linear"] = _group_report(lin, art.graph, tol)
        if args.coloring in ("product", "both"):
            orth = orthogonal_group(poly, tol, artifacts=art, limit=args.limit)
            report["groups"]["orthogonal"] = _group_report(orth, art.graph, tol)
        reports.append(report)
        _chatter(args, f"{path}: analyzed in {time.perf_counter() - t0:.3f}s, "
                       f"orders { {k: v['order'] for k, v in report['groups'].items()} }")
    _emit(reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_validate(args) -> int:
    poly, tol = _load(args, args.path)
    art = build_artifacts(poly, tol)
    if args.matrix:
        try:
            dump = json.loads(Path(args.matrix).read_text())
            mat = load_matrix_dump(dump, art.graph)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix dump: {exc}") from exc
        source = "dump"
    else:
        mat = art.matrix
        source = "geometric"
    props = verify_properties(mat, poly, tol)
    eig_ok, lam, residual = eigenspace_criterion(mat.entries, poly.phi, tol)
    fd_doc: dict = {"step": tol.fd_step}
    try:
        fd = izmestiev_matrix_fd(poly, art.graph, tol)
        diff = float(np.max(np.abs(fd.entries - mat.entries)))
        fd_doc.update({"max_abs_diff": diff, "ok": diff <= tol.fd_check})
    except PolysymError as exc:
        fd_doc.update({"ok": False, "error": str(exc)})
    passed = bool(props.passed and eig_ok and fd_doc["ok"])
    _emit({
        "input": _input_echo(args, args.path, poly),
        "matrix_source": source,
        "properties": props.to_json_dict(),
        "eigenspace": {"ok": eig_ok, "eigenvalue": lam, "residual": residual},
        "fd_agreement": fd_doc,
        "passed": passed,
        "tolerances": tol.as_dict(),
    })
    return 0 if passed else 1


def _load_embedding(args):
    try:
        doc = json.loads(Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read embedding: {exc}") from exc
    try:
        coords = np.asarray(doc["vertices"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad embedding document: {exc!r}") from exc
    if coords.ndim != 2 or coords.size == 0:
        raise ParseError("'vertices' must be a non-empty list of equal-length numeric lists")
    n, edges = len(coords), doc.get("edges", [])
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and e[0] != e[1]
            and all(type(x) is int and 0 <= x < n for x in e) for e in edges):
        raise ParseError(f"'edges' must be pairs of distinct vertex indices in 0..{n - 1}")
    return EdgeGraph(n, tuple(map(tuple, edges))), coords, doc.get("name")


def cmd_oracle(args) -> int:
    tol = _tolerances(args)
    graph_auts = args.candidates == "graph-auts"
    if args.embedding:
        graph, coords, name = _load_embedding(args)
        if graph_auts and not graph.edges:
            sys.stderr.write("oracle: --candidates graph-auts needs an 'edges' key\n")
            return 64
        cands = automorphisms(uncolored(graph), limit=args.limit).perms if graph_auts else None
        group = embedding_group(coords, candidates=cands, flavor=args.flavor, tol=tol)
        echo = {"path": args.path, "name": name, "n_vertices": graph.n, "embedding": True}
    else:
        poly, tol = _load(args, args.path)
        cands = (automorphisms(uncolored(edge_graph(poly)), limit=args.limit).perms
                 if graph_auts else None)
        group = brute_force_group(poly.phi, candidates=cands, flavor=args.flavor, tol=tol)
        echo = {**_input_echo(args, args.path, poly), "embedding": False}
    _emit({
        "input": echo,
        "flavor": args.flavor,
        "candidates": args.candidates,
        "group": group.to_json_dict(tol),
        "tolerances": tol.as_dict(),
    })
    return 0


DOT_COLORINGS = ("metric", "izmestiev", "product", "orbit-linear", "orbit-orthogonal")


def cmd_export_dot(args) -> int:
    poly, tol = _load(args, args.path)
    art = build_artifacts(poly, tol)
    col = {"metric": art.met_coloring, "izmestiev": art.izm_coloring,
           "product": art.prod_coloring}.get(args.coloring)
    if col is None:
        flavor = args.coloring.split("-")[1]
        grp = (linear_group if flavor == "linear" else orthogonal_group)(
            poly, tol, artifacts=art, limit=args.limit)
        col = orbit_coloring(art.graph, grp.perm_group)
    lines = [f"graph {poly.name or 'polytope'} {{", "  node [style=filled];"]
    for i in range(poly.n):
        lines.append(f'  v{i} [fillcolor="{PALETTE[col.vertex[i] % len(PALETTE)]}"];')
    for (i, j) in sorted(col.edge):
        c = PALETTE[col.edge[(i, j)] % len(PALETTE)]
        lines.append(f'  v{i} -- v{j} [color="{c}", penwidth=2];')
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_experiment_metric(args) -> int:
    """Probe whether the isometry-invariant coloring alone already suffices.

    Compares the metric-colored edge-graph's automorphisms against the
    brute-force orthogonal group.  Records the outcome; asserts nothing.
    """
    poly, tol = _load(args, args.path)
    art = build_artifacts(poly, tol)
    col = art.met_coloring
    if args.edge_only:
        col = Coloring(vertex=(0,) * poly.n, edge=dict(col.edge))
    elif args.vertex_only:
        col = Coloring(vertex=col.vertex, edge={e: 0 for e in col.edge})
    auts = automorphisms(col, limit=args.limit)
    cands = (None if poly.n <= SYM_LIMIT
             else automorphisms(uncolored(art.graph), limit=args.limit).perms)
    reference = brute_force_group(poly.phi, candidates=cands, flavor="orthogonal", tol=tol)
    extra = sorted(set(auts.perms) - reference.perm_set)
    _emit({
        "input": _input_echo(args, args.path, poly),
        "variant": ("edge-only" if args.edge_only
                    else "vertex-only" if args.vertex_only else "full"),
        "metric_aut_order": auts.order,
        "orthogonal_order": reference.order,
        "matches_orthogonal_group": not extra and auts.order == reference.order,
        "extra_automorphisms": [list(p) for p in extra],
        "tolerances": tol.as_dict(),
    })
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--recenter", action="store_true",
                     help="translate vertices by minus their centroid before validating")
    sub.add_argument("--verbose", action="store_true",
                     help="human summary (and timing) on stderr")
    sub.add_argument("--limit", type=int, default=10 ** 6,
                     help="maximum group order; checked before any member is built")
    for flag, field in EPS_FLAGS.items():
        sub.add_argument(f"--{flag}", type=float, default=None, dest=field,
                         help=f"override the {field} tolerance")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 64; argparse's own 2 means bad input here."""
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polysym",
        description="Symmetry groups of convex polytopes from vertex coordinates.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full pipeline: groups, colorings, matrix report")
    p.add_argument("paths", nargs="+")
    p.add_argument("--coloring", choices=["izmestiev", "product", "both"], default="both",
                   help="restrict which group pipeline runs")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("validate", help="matrix property suite for one polytope")
    p.add_argument("path")
    p.add_argument("--matrix", default=None,
                   help="verify a JSON matrix dump instead of the computed matrix")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("oracle", help="brute-force group, no colorings involved")
    p.add_argument("path")
    p.add_argument("--flavor", choices=["linear", "orthogonal"], default="linear")
    p.add_argument("--candidates", choices=["sym", "graph-auts"], default="sym")
    p.add_argument("--embedding", action="store_true",
                   help="treat input as a graph embedding; skip polytope validation")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("export-dot", help="DOT drawing of a colored edge-graph")
    p.add_argument("path")
    p.add_argument("--coloring", choices=DOT_COLORINGS, default="izmestiev")
    _add_common(p)
    p.set_defaults(func=cmd_export_dot)

    p = subs.add_parser("experiment-metric",
                        help="compare metric-coloring automorphisms with the orthogonal group")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--edge-only", action="store_true")
    group.add_argument("--vertex-only", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_experiment_metric)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TheoremViolation as exc:
        sys.stderr.write(f"reconstruction violation: {exc}\n")
        if exc.diagnostic:
            sys.stderr.write(json.dumps(exc.diagnostic, sort_keys=True) + "\n")
        return 3
    except (LimitExceeded, TooManyCandidates) as exc:
        sys.stderr.write(f"limit exceeded: {exc}\n")
        return 4
    except PolysymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
