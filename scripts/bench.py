#!/usr/bin/env python3
"""CLI wall time, peak memory and report hash of `polysym` on a ladder of polytopes.

    python3 scripts/bench.py [--src DIR] > rows.json

Builds the 4-cube, the 24-cell, the 5-cross-polytope, the 5-cube, the
6-cross-polytope, the Gosset polytope 2_21 and the 600-cell in code, each
turned by a fixed-seed orthogonal map, and runs ``python -m polysym
analyze`` on each, then on the 6-cross-polytope and the 5-cube in one run,
plus ``validate`` on the 4-cube, on the 24-cell, on the 6-cross-polytope,
which is simplicial, so that its finite-difference oracle makes one
volume-kernel call, on 2_21 and on the 600-cell.  ``--src`` names the
checkout whose ``src`` is run (default: this one), so a parent checkout
can be measured with the same script.  Each row is run REPEATS times, each
run one child process in the row's fresh temporary directory, given
relative input paths so that the paths the report echoes do not depend on
the checkout.  A run is killed after
TIMEOUT_S and its row recorded as "timeout".  BLAS and OpenMP are held to
one thread.

Per row it records the median, minimum and maximum wall time, the largest
peak RSS of the child (from os.wait4), the stdout size and the stdout
SHA-256, which every run of the row must repeat (the script exits 1
otherwise): equal hashes from two checkouts show byte-identical reports.
Prints one JSON document: the environment, with the BLAS numpy runs on
(name, version and OpenBLAS build configuration: report hashes depend on
it), a SHA-256 of the sources run (as benchmark/run.py takes it), their
line count (``src_lines``, as ``wc -l src/polysym/*.py`` totals it) and
the rows.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
SEED = 16
REPEATS = 5  # runs per row: one run of unchanged code swings by more than 40 % on a shared host


def cube(d: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=d)))


def cross(d: int) -> np.ndarray:
    return np.vstack([np.eye(d), -np.eye(d)])


def cell24() -> np.ndarray:
    """The 24 vectors with two entries +-1 and two entries 0."""
    pts = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            v = [0.0] * 4
            v[i], v[j] = si, sj
            pts.append(v)
    return np.array(pts)


def gosset_2_21() -> np.ndarray:
    """The 27 E8 roots r with <r, a> = <r, b> = 1 for the roots a = e1 + e2 and b = e1 + e3.

    They are centred and given coordinates in an orthonormal basis of the
    complement of span(a, b), so the (27, 6) vertices span R^6; the
    symmetry group is W(E6), of order 51 840 in both flavors.
    """
    roots = [v for v in itertools.product((-1.0, 0.0, 1.0), repeat=8) if sum(map(abs, v)) == 2]
    roots += [v for v in itertools.product((-0.5, 0.5), repeat=8) if v.count(-0.5) % 2 == 0]
    roots, a, b = np.array(roots), np.eye(8)[0] + np.eye(8)[1], np.eye(8)[0] + np.eye(8)[2]
    vertices = roots[(roots @ a == 1) & (roots @ b == 1)]
    complement = np.linalg.svd(np.array([a, b]))[2][2:]  # rows orthonormal, orthogonal to a, b
    return (vertices - vertices.mean(axis=0)) @ complement.T


def cell600() -> np.ndarray:
    """The 600-cell's 120 vertices on the unit sphere: 8 + 16 + 96.

    The permutations of (+-1, 0, 0, 0), the 16 points (+-1/2)^4, and the
    even permutations of (+-phi, +-1, +-1/phi, 0) / 2, phi the golden
    ratio.  Its symmetry group is H4, of order 14 400 in both flavors.
    """
    phi = (1 + 5 ** 0.5) / 2
    points = [v for v in itertools.product((-1.0, 0.0, 1.0), repeat=4) if sum(map(abs, v)) == 1]
    points += list(itertools.product((-0.5, 0.5), repeat=4))
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    for s, t, u in itertools.product((-1.0, 1.0), repeat=3):
        base = (s * phi / 2, t / 2, u / (2 * phi), 0.0)
        points += [tuple(base[k] for k in p) for p in even]
    return np.array(points)


INSTANCES = {"4-cube": lambda: cube(4), "24-cell": cell24, "5-cross-polytope": lambda: cross(5),
             "5-cube": lambda: cube(5), "6-cross-polytope": lambda: cross(6),
             "2_21": gosset_2_21, "600-cell": cell600}
RUNS = ([("analyze", (name,)) for name in INSTANCES]
        + [("analyze", ("6-cross-polytope", "5-cube")), ("validate", ("4-cube",)),
           ("validate", ("24-cell",)), ("validate", ("6-cross-polytope",)),
           ("validate", ("2_21",)), ("validate", ("600-cell",))])


def turned(vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The vertices under a random orthogonal map."""
    q, r = np.linalg.qr(rng.standard_normal((vertices.shape[1],) * 2))
    return vertices @ (q * np.sign(np.diag(r))).T


def run(src: Path, argv: list, workdir: Path) -> dict:
    """One child ``python -m polysym *argv`` in workdir; its wall time, peak RSS and stdout."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "polysym", *argv], cwd=workdir,
                                env=env, stdout=out, stderr=subprocess.DEVNULL)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > t0 + TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if timed_out:
        return {"argv": argv, "exit": "timeout"}
    digest = hashlib.sha256()
    with open(out_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return {"argv": argv, "exit": proc.returncode, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stdout_bytes": out_path.stat().st_size, "stdout_sha256": digest.hexdigest()}


def repeated(src: Path, argv: list, workdir: Path) -> dict:
    """REPEATS runs of one row: the spread of their wall times, and the output they all give."""
    runs = []
    for _ in range(REPEATS):
        runs.append(run(src, argv, workdir))
        if runs[-1]["exit"] == "timeout":
            return runs[-1]
    outputs = {(r["exit"], r["stdout_bytes"], r["stdout_sha256"]) for r in runs}
    if len(outputs) != 1:
        sys.exit(f"{' '.join(argv)}: the {REPEATS} runs differ in exit code or stdout: {outputs}")
    walls = [r["wall_s"] for r in runs]
    return {"argv": argv, "exit": runs[0]["exit"], "runs": REPEATS,
            "wall_s_median": round(statistics.median(walls), 3), "wall_s_min": min(walls),
            "wall_s_max": max(walls), "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "stdout_bytes": runs[0]["stdout_bytes"], "stdout_sha256": runs[0]["stdout_sha256"]}


def environment() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    model = next((line.split(":", 1)[1].strip() for line in lines
                  if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]  # holds paths: pick keys
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "machine": platform.machine(), "cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": 1, "timeout_s": TIMEOUT_S, "seed": SEED, "repeats": REPEATS}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT, metavar="DIR",
                        help="the checkout whose src/ to run (default: this one)")
    args = parser.parse_args()
    src = args.src.resolve() / "src"
    if not (src / "polysym" / "cli.py").is_file():
        parser.error(f"no polysym sources under {src}")
    rng = np.random.default_rng(SEED)
    docs = {}
    for name, build in INSTANCES.items():
        vertices = build()
        docs[name] = {"dimension": vertices.shape[1], "name": name,
                      "vertices": turned(vertices, rng).tolist()}
    rows = []
    for command, names in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name in names:
                (workdir / f"{name}.json").write_text(json.dumps(docs[name]))
            argv = [command, *(f"{name}.json" for name in names)]
            rows.append({"instance": " + ".join(names), **repeated(src, argv, workdir)})
        print(f"{' '.join(argv)}: {rows[-1]}", file=sys.stderr)
    digest, lines = hashlib.sha256(), 0
    for path in sorted((src / "polysym").glob("*.py")):
        source = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + source)
        lines += source.count(b"\n")
    json.dump({"environment": environment(), "src_sha256": digest.hexdigest(),
               "src_lines": lines, "rows": rows}, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
