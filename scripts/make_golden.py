#!/usr/bin/env python3
"""Regenerate tests/golden/*.json, the byte-exact CLI reports that tests/test_golden.py guards.

    python3 scripts/make_golden.py

Each golden file is the stdout of one in-process ``polysym.cli.main`` call,
run from the repository root with a relative input path (reports echo the
path).  Golden files change only together with a CHANGES.md entry that
explains why the reports changed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from polysym.cli import main  # noqa: E402


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


def run(argv: list[str]) -> str:
    """Stdout of ``polysym.cli.main(argv)`` run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"polysym {' '.join(argv)} exited with {code}")
    return out.getvalue()


def write_all() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN / name).write_text(run(argv))
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    write_all()
