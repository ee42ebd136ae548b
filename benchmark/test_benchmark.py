"""The benchmark's own tests; not part of the repository's tier-1 suite.

Run from the checkout root:  python3 -m pytest benchmark/test_benchmark.py
The traced-run test makes three short runs per workload (about 3.5 min
in all on a 2-core x86 machine).
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from check import check_job  # noqa: E402
from instances import make_jobs  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402


def bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


@pytest.mark.parametrize("workload", ["symmetric", "generic", "certify"])
def test_traced_counts_repeat_and_orders_match_untraced(workload):
    info_a, traced_a = bench(workload, trace=1)
    _, traced_b = bench(workload, trace=1)
    info_plain, plain = bench(workload, trace=0)
    for result in (traced_a, traced_b, plain):
        assert result["correct"] and result["failed"] == 0
    for key in COUNT_METRICS:
        assert traced_a["metrics"][key] == traced_b["metrics"][key], key
    assert info_a["orders"] == info_plain["orders"]


def test_same_seed_same_inputs(tmp_path):
    a = make_jobs("certify", [3, 0], tmp_path / "a")
    b = make_jobs("certify", [3, 0], tmp_path / "b")
    c = make_jobs("certify", [3, 1], tmp_path / "c")
    assert all((x.vertices == y.vertices).all() for x, y in zip(a, b))
    assert not (a[0].vertices == c[0].vertices).all()


def test_checker_rejects_tampered_reports(tmp_path):
    import polysym.cli

    job = make_jobs("symmetric", [5, 0], tmp_path)[0]   # icosahedron
    out = io.StringIO()
    with redirect_stdout(out):
        assert polysym.cli.main(list(job.argv)) == 0
    assert check_job(job, 0, out.getvalue()) is None
    assert check_job(job, 3, out.getvalue()) == "exit code 3"

    doc = json.loads(out.getvalue())
    doc["groups"]["linear"]["members"][1]["matrix"][0][0] += 1e-3
    assert "does not map" in check_job(job, 0, json.dumps(doc))

    doc = json.loads(out.getvalue())
    del doc["groups"]["orthogonal"]["members"][-1]
    assert "order" in check_job(job, 0, json.dumps(doc))
