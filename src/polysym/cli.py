"""Batch front door: analyze polytopes, validate matrix properties, run oracles.

Machine-readable JSON goes to stdout and is byte-for-byte deterministic
for fixed inputs and flags; human chatter (including wall-clock timing)
goes to stderr and only with --verbose.  Every JSON document is laid out
here, from the plain data the library returns, by one json.dumps(doc) call
with sorted keys and indent 2, once all work is done; each group's member
listing is streamed into its text MEMBER_CHUNK members at a time.

Exit codes: 0 ok, 1 failed validation property, 2 bad input document,
3 reconstruction violation, 4 a listing past MAX_MEMBERS, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .autgroup import MAX_MEMBERS, automorphisms, uncolored
from .colorings import Coloring, metric_coloring, orbit_coloring
from .config import Tolerances, positive_finite
from .errors import LimitExceeded, ParseError, PolysymError, TheoremViolation
from .geometry import load_polytope, read_document, read_numbers
from .izmestiev import izmestiev_matrix, izmestiev_matrix_fd, verify_properties
from .oracle import brute_force_group
from .reconstruct import (MatrixGroup, build_artifacts, eigenspace_criterion, linear_group,
                          orthogonal_group)

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1170aa", "#fc7d0b",
    "#a3acb9", "#57606c", "#5fa2ce", "#c85200", "#7b848f", "#a3cce9",
    "#ffbc79", "#c8d0d9",
)


MEMBER_CHUNK = 1024  # members per written string: bounds the memory a listing takes


def _members(group: MatrixGroup, level: int):
    """A group's listing as json lays out [{"matrix": ..., "orthogonal": ..., "perm": ...}, ...].

    Its sorted members are enumerated, and lifted, only while it is written.
    """
    sep = ",\n" + "  " * (level + 1)
    members = group.perm_group.perms
    for lo in range(0, len(members), MEMBER_CHUNK):
        perms = members[lo:lo + MEMBER_CHUNK]
        block, orth = group.lift(perms)
        k, d = block.shape[:2]
        if not lo:  # one %-template for every member: d, n and the indent are fixed
            slots = {"matrix": [["\0"] * d] * d, "orthogonal": "\0",
                     "perm": ["\0"] * len(perms[0])}
            template = json.dumps(slots, sort_keys=True, indent=2).replace(
                "\n", "\n" + "  " * (level + 1)).replace('"\\u0000"', "%s")
        rows = block.reshape(k, d * d).tolist()
        if not np.isfinite(block).all():
            rows = [[json.dumps(x) for x in row] for row in rows]
        yield (sep if lo else "[" + sep[1:]) + sep.join([
            template % (*row, "true" if flag else "false", *perm)
            for row, flag, perm in zip(rows, (orth <= group.tol.orth).tolist(), perms)])
    yield "\n" + "  " * level + "]"


def _emit(doc) -> None:
    """Write json.dumps(doc) with sorted keys and indent 2, and a newline, to stdout in pieces.

    json.dumps writes each MatrixGroup in doc as a placeholder string that no
    input can spell, and the group's member listing is streamed in its place.
    """
    mark, groups = "\0" + os.urandom(16).hex(), []

    def hook(o):
        if not isinstance(o, MatrixGroup):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        groups.append(o)
        return mark

    text, *pieces = json.dumps(doc, sort_keys=True, indent=2, default=hook).split(json.dumps(mark))
    for group, piece in zip(groups, pieces):
        sys.stdout.write(text)
        line = text.rpartition("\n")[2]  # the placeholder's line: its indent is the group's level
        sys.stdout.writelines(_members(group, (len(line) - len(line.lstrip(" "))) // 2))
        text = piece
    sys.stdout.write(text + "\n")


# tolerance override flags and the Tolerances field each one sets
EPS_FLAGS = {"eps-geom": "geom_rel", "eps-color": "color_rel", "eps-kern": "kernel",
             "eps-eig": "eig_rel", "eps-match": "match", "eps-orth": "orth",
             "fd-step": "fd_step"}


def _tolerances(args):
    overrides = {f: getattr(args, f) for f in EPS_FLAGS.values() if getattr(args, f) is not None}
    return Tolerances(**overrides)


def _load(args, path):
    return load_polytope(path, tol=_tolerances(args), recenter=args.recenter)


def _input_echo(args, path, poly) -> dict:
    return {
        "path": str(path),
        "name": poly.name,
        "dimension": poly.dim,
        "n_vertices": poly.n,
        "recentered": bool(args.recenter),
    }


def _coloring_doc(col: Coloring) -> dict:
    doc = {"vertex_classes": col.vertex_classes(), "edge_classes": col.edge_classes()}
    reps = {key: r for key, r in (("vertex", col.vertex_reps), ("edge", col.edge_reps)) if r}
    if reps:
        doc["representatives"] = reps
        doc["min_class_gap"] = {"vertex": col.vertex_min_gap, "edge": col.edge_min_gap}
    return doc


def _group_doc(group, flavor: str) -> dict:
    """Every member's perm and map, flagged orthogonal when max|T^T T - I| <= group.tol.orth."""
    if group.order > MAX_MEMBERS:  # raised now, not once _emit has begun writing
        raise LimitExceeded(f"group order {group.order} exceeds {MAX_MEMBERS} members to list")
    return {
        "flavor": flavor,
        "order": group.order,
        "tolerances": {"match": group.tol.match, "orth": group.tol.orth},
        "members": group,
    }


def cmd_analyze(args) -> int:
    reports = []
    for path in args.paths:
        t0 = time.perf_counter()
        poly = _load(args, path)
        art = build_artifacts(poly)
        props = verify_properties(art.matrix, poly)
        report = {
            "input": _input_echo(args, path, poly),
            "facet_count": len(poly.normals),
            "edge_count": len(poly.edges),
            "matrix_summary": {
                "spectrum": props["spectrum"],
                "kernel_dim": props["kernel_dim"],
                "property_report": props,
                "dump": {"n": poly.n, "entries": art.matrix.tolist()},
            },
            "colorings": {
                "izmestiev": _coloring_doc(art.izm_coloring),
                "metric": _coloring_doc(art.met_coloring),
                "product": _coloring_doc(art.prod_coloring),
            },
            "groups": {},
            "tolerances": asdict(poly.tol),
        }
        for flavor, build in (("linear", linear_group), ("orthogonal", orthogonal_group)):
            group = build(art)
            orbits = orbit_coloring(poly.n, poly.edges, group.perm_group)
            report["groups"][flavor] = {**_group_doc(group, flavor),
                                        "orbit_coloring": _coloring_doc(orbits)}
        reports.append(report)
        if args.verbose:
            sys.stderr.write(f"{path}: analyzed in {time.perf_counter() - t0:.3f}s, orders "
                             f"{ {k: v['order'] for k, v in report['groups'].items()} }\n")
    _emit(reports[0] if len(reports) == 1 else reports)
    return 0


def load_matrix_dump(doc: dict, n: int) -> np.ndarray:
    """Rehydrate the (n, n) matrix from the dump {"n": int, "entries": [[...], ...]} analyze writes."""
    if "n" not in doc or "entries" not in doc:
        raise ParseError("matrix dump needs 'n' and 'entries' keys")
    entries = read_numbers(doc["entries"], "bad matrix dump")
    if type(doc["n"]) is not int or doc["n"] != n or entries.shape != (n, n):
        raise ParseError(f"bad matrix dump: 'n' must be the integer {n}, 'entries' {n} x {n}")
    return entries


def cmd_validate(args) -> int:
    poly = _load(args, args.path)
    if args.matrix:
        mat, source = load_matrix_dump(read_document(args.matrix), poly.n), "dump"
    else:
        mat, source = izmestiev_matrix(poly), "geometric"
    props = verify_properties(mat, poly)
    eig_ok, lam, residual = eigenspace_criterion(mat, poly.phi, poly.tol)
    fd_doc: dict = {"step": poly.tol.fd_step}
    try:
        fd = izmestiev_matrix_fd(poly)
        diff = float(np.max(np.abs(fd - mat)))
        fd_doc.update({"max_abs_diff": diff,  # made dimensionless: M(sP) = s^-d M(P)
                       "ok": diff * poly.scale ** poly.dim <= poly.tol.fd_check})
    except PolysymError as exc:
        fd_doc.update({"ok": False, "error": str(exc)})
    passed = bool(props["passed"] and eig_ok and fd_doc["ok"])
    _emit({
        "input": _input_echo(args, args.path, poly),
        "matrix_source": source,
        "properties": props,
        "eigenspace": {"ok": eig_ok, "eigenvalue": lam, "residual": residual},
        "fd_agreement": fd_doc,
        "passed": passed,
        "tolerances": asdict(poly.tol),
    })
    return 0 if passed else 1


def _load_embedding(args):
    doc = read_document(args.path)
    if "vertices" not in doc:
        raise ParseError("embedding document needs a 'vertices' key")
    coords = read_numbers(doc["vertices"], "bad embedding document")
    n, edges = len(coords), doc.get("edges", [])
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and e[0] != e[1]
            and all(type(x) is int and 0 <= x < n for x in e) for e in edges):
        raise ParseError(f"'edges' must be pairs of distinct vertex indices in 0..{n - 1}")
    return uncolored(n, edges), coords, doc.get("name")


def cmd_oracle(args) -> int:
    graph_auts = args.candidates == "graph-auts"
    if args.embedding:
        if args.recenter:
            sys.stderr.write("oracle: --recenter applies to polytopes, not to --embedding\n")
            return 64
        graph, coords, name = _load_embedding(args)
        if graph_auts and not graph.edge:
            sys.stderr.write("oracle: --candidates graph-auts needs an 'edges' key\n")
            return 64
        echo = {"path": args.path, "name": name, "n_vertices": graph.n, "embedding": True}
    else:
        poly = _load(args, args.path)
        graph, coords = uncolored(poly.n, poly.edges), poly.vertices
        echo = {**_input_echo(args, args.path, poly), "embedding": False}
    cands = automorphisms(graph).perms if graph_auts else None
    tol = _tolerances(args)
    group = brute_force_group(coords.T, candidates=cands, flavor=args.flavor, tol=tol)
    _emit({
        "input": echo,
        "flavor": args.flavor,
        "candidates": args.candidates,
        "group": _group_doc(group, args.flavor),
        "tolerances": asdict(tol),
    })
    return 0


DOT_COLORINGS = ("metric", "izmestiev", "product", "orbit-linear", "orbit-orthogonal")


def cmd_export_dot(args) -> int:
    poly = _load(args, args.path)
    if args.coloring == "metric":  # reads no matrix, so a kernel failure cannot stop it
        col = metric_coloring(poly)
    else:
        art = build_artifacts(poly)
        col = {"izmestiev": art.izm_coloring, "product": art.prod_coloring}.get(args.coloring)
    if col is None:
        flavor = args.coloring.split("-")[1]
        grp = (linear_group if flavor == "linear" else orthogonal_group)(art)
        col = orbit_coloring(poly.n, poly.edges, grp.perm_group)
    # a quoted DOT ID: a name may begin with a digit or hold "-", spaces or quotes
    graph_id = (poly.name or "polytope").replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{graph_id}" {{', "  node [style=filled];"]
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
    Their members are the brute force's only candidates: an orthogonal symmetry
    keeps norms, inner products and edges, so it preserves every variant's coloring.
    """
    poly = _load(args, args.path)
    col = metric_coloring(poly)
    if args.edge_only:
        col = Coloring(vertex=(0,) * poly.n, edge=dict(col.edge))
    elif args.vertex_only:
        col = Coloring(vertex=col.vertex, edge={e: 0 for e in col.edge})
    auts = automorphisms(col)
    members = auts.perms
    reference = brute_force_group(poly.phi, candidates=members, flavor="orthogonal", tol=poly.tol)
    extra = [p for p in members if p not in reference.perm_group]
    _emit({
        "input": _input_echo(args, args.path, poly),
        "variant": ("edge-only" if args.edge_only
                    else "vertex-only" if args.vertex_only else "full"),
        "metric_aut_order": auts.order,
        "orthogonal_order": reference.order,
        "matches_orthogonal_group": not extra and auts.order == reference.order,
        "extra_automorphisms": extra,
        "tolerances": asdict(poly.tol),
    })
    return 0


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
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes
    common.add_argument("--recenter", action="store_true",
                        help="translate vertices by minus their centroid before validating")
    for flag, field in EPS_FLAGS.items():  # positive_finite's ValueError is a usage error (64)
        common.add_argument(f"--{flag}", type=positive_finite, default=None, dest=field,
                            help=f"override the {field} tolerance")

    p = subs.add_parser("analyze", parents=[common],
                        help="full pipeline: groups, colorings, matrix report")
    p.add_argument("paths", nargs="+")
    p.add_argument("--verbose", action="store_true", help="human summary (and timing) on stderr")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("validate", parents=[common],
                        help="matrix property suite for one polytope")
    p.add_argument("path")
    p.add_argument("--matrix", default=None,
                   help="verify a JSON matrix dump instead of the computed matrix")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("oracle", parents=[common], help="brute-force group, no colorings involved")
    p.add_argument("path")
    p.add_argument("--flavor", choices=["linear", "orthogonal"], default="linear")
    p.add_argument("--candidates", choices=["sym", "graph-auts"], default="sym")
    p.add_argument("--embedding", action="store_true",
                   help="treat input as a graph embedding; skip polytope validation")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("export-dot", parents=[common], help="DOT drawing of a colored edge-graph")
    p.add_argument("path")
    p.add_argument("--coloring", choices=DOT_COLORINGS, default="izmestiev")
    p.set_defaults(func=cmd_export_dot)

    p = subs.add_parser("experiment-metric", parents=[common],
                        help="compare metric-coloring automorphisms with the orthogonal group")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--edge-only", action="store_true")
    group.add_argument("--vertex-only", action="store_true")
    p.set_defaults(func=cmd_experiment_metric)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        sys.stderr.write(f"reconstruction violation: {exc}\n")
        if exc.diagnostic:
            sys.stderr.write(json.dumps(exc.diagnostic, sort_keys=True) + "\n")
        return 3
    except LimitExceeded as exc:
        sys.stderr.write(f"limit exceeded: {exc}\n")
        return 4
    except PolysymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
