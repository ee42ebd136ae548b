#!/usr/bin/env python3
"""polysym benchmark: closed-loop passes over one workload's CLI jobs.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload {symmetric,generic,certify} \
        --seed N --seconds S --trace {0,1}

One worker process at a time runs one pass: a fresh interpreter imports
``polysym.cli`` from ``src/`` and calls ``polysym.cli.main(argv)`` for each
job in order, as a user running one CLI process per session would.  Every
pass gets fresh inputs drawn from (seed, pass index).  Passes repeat, at
least three times, while the next one would still end within ``--seconds``
of the start; each output is checked independently (``check.py``).  The
last stdout line is the result JSON; the line before it records the
environment, the per-pass figures (scaled and raw) and the group orders.

Job and set-up times are scaled to a reference host speed: the host probe
(``calibrate.py``) runs right before and right after each of them, and
the time is multiplied by ``REF_S`` over the mean of the two probe times.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
passes).  With ``--trace 1`` the workers run under the outside-in tracer
(``tracer.py``) and the metrics are per layer: counts from pass 0, whose
inputs depend only on the seed, times (raw span seconds) as medians over
passes, errors summed.  The spans of a traced run are written to
``.bench_work/trace-<workload>.json`` when it ends.
"""

import os

# One process supplies the load: keep BLAS and OpenMP from starting a
# thread per core, here and in every worker (they inherit the environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REF_S, calibrate  # noqa: E402
from check import check_job, reported_orders  # noqa: E402
from instances import make_jobs  # noqa: E402
from tracer import COUNT_METRICS, ERROR_METRICS, LAYERS, TIME_METRICS, reduce_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8          # set-up-only interpreters per run
MIN_PASSES = 3            # a median over few passes carries their labellings' luck
WORKER_TIMEOUT_S = 170    # a pass that hangs is killed and counted as failed
PASS_BUDGET_S = 150       # start no pass that would end past this, so a run ends within 180 s


def _find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "polysym" / "cli.py").is_file():
        sys.stderr.write(f"benchmark: no polysym sources under {src}; "
                         "run from the root of a polysym checkout\n")
        sys.exit(2)
    return src


def _commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, src: Path, args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((src / "polysym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_ref_s": REF_S,
    }


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference host speed, from the probe times around them."""
    return seconds * REF_S * 2 / (before + after)


def spawn_worker(src: Path, spec_path: Path | None) -> tuple[dict | None, float, str]:
    """Run one worker; returns (its JSON summary or None, raw set-up seconds, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(src)]
    if spec_path is not None:
        cmd.append(str(spec_path))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, float("nan"), f"worker exceeded {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, float("nan"), f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        return None, float("nan"), f"worker printed no summary: {proc.stdout[-300:]!r}"
    return doc, doc["ready"] - t_spawn, ""


def run_pass(src: Path, workdir: Path, args, index: int) -> dict:
    """Generate, run and check one pass; returns its figures."""
    pass_dir = workdir / f"pass{index}"
    jobs = make_jobs(args.workload, [args.seed, index], pass_dir)
    spec = {"trace": bool(args.trace), "out_dir": str(pass_dir),
            "jobs": [[job.name, list(job.argv)] for job in jobs]}
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    doc, _, error = spawn_worker(src, spec_path)
    result = {"attempted": len(jobs), "failures": [], "orders": {}}
    if doc is None:
        result["failures"] = [f"{job.name}: {error}" for job in jobs]
        return result
    for job, ran in zip(jobs, doc["jobs"]):
        stdout = (pass_dir / f"{job.name}.out").read_text()
        reason = ran["error"] or check_job(job, ran["rc"], stdout)
        if reason:
            result["failures"].append(f"{job.name}: {reason} {ran['stderr'][-300:]}".strip())
        else:
            result["orders"][job.name] = reported_orders(job, stdout)
    cal = doc["calibrations"]
    job_s = {ran["name"]: scaled(ran["seconds"], before, after)
             for ran, before, after in zip(doc["jobs"], cal, cal[1:])}
    result.update(
        wall_s=sum(job_s.values()),
        max_job_s=max(job_s.values()),
        peak_rss_mb=doc["peak_rss_mb"],
        job_s=job_s,
        raw_wall_s=doc["wall_s"],
        raw_job_s={ran["name"]: ran["seconds"] for ran in doc["jobs"]},
        calibrations=cal,
    )
    if args.trace:
        result["layers"] = reduce_spans(doc["spans"], doc["counts"],
                                        sum(ran["stdout_bytes"] for ran in doc["jobs"]))
        result["layer_errors"] = doc["errors"]
        result["spans"] = doc["spans"]
    shutil.rmtree(pass_dir)
    return result


def end_to_end_metrics(passes: list, setups: list) -> dict:
    timed = [p for p in passes if "wall_s" in p]
    med = lambda key: statistics.median(p[key] for p in timed) if timed else float("nan")
    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "max_job_s": {"value": med("max_job_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def per_layer_metrics(passes: list) -> dict:
    timed = [p for p in passes if "layers" in p]
    if not timed:
        return {}
    out = {key: {"value": timed[0]["layers"][key], "unit": unit}
           for key, unit in COUNT_METRICS.items()}
    for key, unit in TIME_METRICS.items():
        out[key] = {"value": statistics.median(p["layers"][key] for p in timed), "unit": unit}
    for key, layer in zip(ERROR_METRICS, LAYERS):
        out[key] = {"value": sum(p["layer_errors"].get(layer, 0) for p in timed),
                    "unit": "count"}
    out["traced.wall_s"] = {"value": statistics.median(p["wall_s"] for p in timed), "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["symmetric", "generic", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = _find_source(root)
    sys.path.insert(0, str(src))
    env = environment(root, src, args)
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        setups, raw_setups = [], []
        before = calibrate()
        for _ in range(SETUP_PROBES):
            doc, setup_s, error = spawn_worker(src, None)
            if doc is None:
                sys.stderr.write(f"benchmark: set-up probe failed: {error}\n")
                return 2
            after = calibrate()
            setups.append(scaled(setup_s, before, after))
            raw_setups.append(setup_s)
            before = after
        passes = []
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(src, workdir, args, len(passes)))
            now = time.monotonic()
            next_end = now - start + (now - t0)   # if the next pass takes as long as this one
            if next_end > PASS_BUDGET_S or (len(passes) >= MIN_PASSES and next_end > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        trace_path = root / ".bench_work" / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps({"env": env, "passes": [p.get("spans", []) for p in passes]}))
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes, setups)
    info = {
        "env": env,
        "passes": [{k: p.get(k) for k in ("wall_s", "max_job_s", "peak_rss_mb", "job_s",
                                           "raw_wall_s", "raw_job_s", "calibrations")}
                   for p in passes],
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "orders": passes[0]["orders"],
        "failures": failures[:20],
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
