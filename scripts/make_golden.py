#!/usr/bin/env python3
"""Regenerate tests/golden/*.json, the byte-exact CLI reports that tests/test_golden.py guards.

    python3 scripts/make_golden.py

Each golden file is the stdout of one in-process ``polysym.cli.main`` call,
run from the repository root with a relative input path (reports echo the
path).  ``analyze_sha256.json`` holds only the SHA-256 of each ``analyze``
report on a wider set: every polytope fixture and the 4-cube, 24-cell,
5-cross-polytope and 5-cube of scripts/bench.py, each as given, turned by
a seeded orthogonal map and with its vertices relabelled by a seeded
permutation.  ``validate_sha256.json`` holds the SHA-256 of each
``validate`` report on every polytope fixture, once with the computed
matrix and once with ``--matrix`` given the dump the fixture's own
``analyze`` report writes.  ``fd_sha256.json`` holds the SHA-256 of the
bytes of the finite-difference Izmestiev matrix (``izmestiev_matrix_fd``)
on every polytope fixture and on the 4-cube, the 4- and 5-cross-polytopes
and the 24-cell, as given.  Like the other hash tables it depends on the
BLAS numpy runs on.  Golden files change only together with a CHANGES.md
entry that explains why the reports changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SHA256_TABLE = GOLDEN / "analyze_sha256.json"
VALIDATE_TABLE = GOLDEN / "validate_sha256.json"
FD_TABLE = GOLDEN / "fd_sha256.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from bench import INSTANCES, cell24, cross, turned  # noqa: E402
from polysym.cli import main  # noqa: E402
from polysym.geometry import load_polytope, make_polytope  # noqa: E402
from polysym.izmestiev import izmestiev_matrix_fd  # noqa: E402


def golden_cases() -> list[tuple[str, list[str]]]:
    """(golden file name, argv) for every guarded report."""
    polytopes = sorted(p for p in (ROOT / "fixtures").glob("*.json") if p.stem != "k44_embedding")
    cases = [(f"analyze_{p.stem}.json", ["analyze", f"fixtures/{p.name}"]) for p in polytopes]
    for flavor in ("linear", "orthogonal"):
        cases.append((f"oracle_k44_embedding_{flavor}.json",
                      ["oracle", "fixtures/k44_embedding.json", "--embedding",
                       "--candidates", "graph-auts", "--flavor", flavor]))
    for name in ("cube", "stretched_hexagon"):  # the default Sym(n) stream
        for flavor in ("linear", "orthogonal"):
            cases.append((f"oracle_{name}_{flavor}.json",
                          ["oracle", f"fixtures/{name}.json", "--flavor", flavor]))
    return cases


def sha256_inputs() -> dict:
    """Row name -> input document for every row of the SHA-256 table."""
    docs = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "fixtures").glob("*.json"))
            if p.stem != "k44_embedding"}
    # the ladder of scripts/bench.py but the 6-cross-polytope and 2_21, whose reports are
    # 159 MB and 204 MB
    docs.update({name: {"name": name, "vertices": build().tolist()}
                 for name, build in INSTANCES.items() if name not in ("6-cross-polytope", "2_21")})
    rows = {}
    for seed, (name, doc) in enumerate(docs.items()):
        rng = np.random.default_rng(seed)
        vertices = np.array(doc["vertices"], dtype=float)
        rows[name] = doc = {**doc, "dimension": vertices.shape[1]}
        rows[f"{name} turned"] = {**doc, "vertices": turned(vertices, rng).tolist()}
        rows[f"{name} relabelled"] = {**doc,
                                      "vertices": vertices[rng.permutation(len(vertices))].tolist()}
    return rows


def analyze_sha256() -> dict:
    """Row name -> SHA-256 of ``analyze`` on that row's input, written as input.json."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        for name, doc in sha256_inputs().items():
            path.write_text(json.dumps(doc))
            report = run(["analyze", path.name], cwd=tmp)
            table[name] = hashlib.sha256(report.encode()).hexdigest()
    return table


def validate_sha256() -> dict:
    """Row name -> SHA-256 of ``validate`` on each polytope fixture, written as input.json.

    Row "<fixture> dump" validates the matrix dump of the fixture's own
    ``analyze`` report, given as dump.json.
    """
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted((ROOT / "fixtures").glob("*.json")):
            if fixture.stem == "k44_embedding":
                continue
            (Path(tmp) / "input.json").write_text(fixture.read_text())
            dump = json.loads(run(["analyze", "input.json"], cwd=tmp))["matrix_summary"]["dump"]
            (Path(tmp) / "dump.json").write_text(json.dumps(dump))
            for name, extra in ((fixture.stem, []),
                                (f"{fixture.stem} dump", ["--matrix", "dump.json"])):
                report = run(["validate", "input.json", *extra], cwd=tmp)
                table[name] = hashlib.sha256(report.encode()).hexdigest()
    return table


def fd_sha256() -> dict:
    """Row name -> SHA-256 of ``izmestiev_matrix_fd(poly).tobytes()``, the oracle's exact bits."""
    polys = {p.stem: load_polytope(p) for p in sorted((ROOT / "fixtures").glob("*.json"))
             if p.stem != "k44_embedding"}
    for name, vertices in (("4-cube", INSTANCES["4-cube"]()), ("4-cross-polytope", cross(4)),
                           ("5-cross-polytope", cross(5)), ("24-cell", cell24())):
        polys[name] = make_polytope(vertices.shape[1], vertices, name=name)
    return {name: hashlib.sha256(izmestiev_matrix_fd(poly).tobytes()).hexdigest()
            for name, poly in polys.items()}


def run(argv: list[str], cwd=ROOT) -> str:
    """Stdout of ``polysym.cli.main(argv)`` run from cwd, by default the repository root."""
    out = io.StringIO()
    prior = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(prior)
    if code != 0:
        raise RuntimeError(f"polysym {' '.join(argv)} exited with {code}")
    return out.getvalue()


def write_all() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN / name).write_text(run(argv))
        print(f"wrote {GOLDEN / name}")
    SHA256_TABLE.write_text(json.dumps(analyze_sha256(), indent=2) + "\n")
    print(f"wrote {SHA256_TABLE}")
    VALIDATE_TABLE.write_text(json.dumps(validate_sha256(), indent=2) + "\n")
    print(f"wrote {VALIDATE_TABLE}")
    FD_TABLE.write_text(json.dumps(fd_sha256(), indent=2) + "\n")
    print(f"wrote {FD_TABLE}")


if __name__ == "__main__":
    write_all()
