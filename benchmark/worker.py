"""One pass of a workload in a fresh interpreter, as a user's CLI session would run it.

Usage: ``python3 worker.py SRC_DIR [SPEC_JSON]``.  Reads nothing from the
parent before ``polysym.cli`` is imported, so the reported ``ready``
timestamp (``time.monotonic``, shared by all processes) marks the end of
set-up.  Without a spec it exits right there (a set-up probe).  With one,
it runs each job's argv through ``polysym.cli.main`` in order, one at a
time, writes each job's captured stdout to ``out_dir/<job>.out`` outside
the timed region, and prints a JSON summary on its own stdout.  The host
probe (``calibrate.py``) runs before the first job and after every job,
outside the timed regions, so each job's time can be scaled to a
reference host speed.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import polysym.cli  # noqa: E402

READY = time.monotonic()


def run_pass(spec: dict) -> dict:
    import contextlib
    import io
    import resource
    from pathlib import Path

    from calibrate import calibrate

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out_dir = Path(spec["out_dir"])
    jobs = []
    calibrate()   # the first call pays numpy.linalg's lazy set-up
    calibrations = []
    wall = 0.0
    for index, (name, argv) in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = index
        calibrations.append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = polysym.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit instead of returning
            rc = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a failed pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        wall += seconds
        text = out.getvalue()
        (out_dir / f"{name}.out").write_text(text)
        jobs.append({"name": name, "rc": rc, "seconds": seconds, "error": error,
                     "stderr": err.getvalue()[-2000:], "stdout_bytes": len(text.encode())})
        del out, text
    calibrations.append(calibrate())
    doc = {"ready": READY, "wall_s": wall, "jobs": jobs, "calibrations": calibrations,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        doc["spans"] = tracer.spans
        doc["counts"] = dict(tracer.counts)
        doc["errors"] = dict(tracer.errors)
    return doc


if __name__ == "__main__":
    import json

    if len(sys.argv) > 2:
        with open(sys.argv[2]) as fh:
            result = run_pass(json.load(fh))
    else:
        result = {"ready": READY}
    sys.stdout.write(json.dumps(result))
