"""End-to-end CLI tests over the shipped fixture files."""

import contextlib
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cell24, cross_polytope, simplex, written
from polysym import cli
from polysym.autgroup import PermutationSet, automorphisms, uncolored
from polysym.colorings import Coloring, metric_coloring
from polysym.config import DEFAULT_TOLERANCES
from polysym.geometry import load_polytope, make_polytope
from polysym.oracle import brute_force_group
from polysym.reconstruct import MatrixGroup

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "polysym", *args],
        capture_output=True, text=True, cwd=ROOT)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_analyze_cube():
    proc = run_cli("analyze", str(FIXTURES / "cube.json"), check=True)
    report = json.loads(proc.stdout)
    assert report["groups"]["linear"]["order"] == 48
    assert report["groups"]["orthogonal"]["order"] == 48
    assert report["facet_count"] == 6 and report["edge_count"] == 12
    assert report["matrix_summary"]["property_report"]["passed"] is True


def test_analyze_rectangle_orders():
    proc = run_cli("analyze", str(FIXTURES / "rectangle.json"), check=True)
    report = json.loads(proc.stdout)
    assert report["groups"]["linear"]["order"] == 8
    assert report["groups"]["orthogonal"]["order"] == 4
    members = report["groups"]["linear"]["members"]
    assert any(not m["orthogonal"] for m in members)


def test_analyze_bad_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    hexagon = json.loads((FIXTURES / "hexagon.json").read_text())
    hexagon["vertices"] = [[x + 5.0, y] for x, y in hexagon["vertices"]]
    bad.write_text(json.dumps(hexagon))
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "origin not interior" in proc.stderr


# the facets are found, but M(sP) = s^-d M(P) leaves float range: it overflows for
# s < 1 and underflows (to subnormals or zero) for s > 1, at 1e+-200 for every
# fixture and at 1e+-100 for 4-d cyclic4_6 (about 1e-+400)
@pytest.mark.parametrize("name,scale,command", [
    *((name, scale, command) for name, scale in (("square", 1e-160), ("cube", 1e-105),
                                                 ("cyclic4_6", 1e-80))
      for command in ("analyze", "validate")),
    *(("cyclic4_6", scale, "analyze") for scale in (1e100, 1e-100)),
    *((p.stem, scale, "analyze") for p in sorted(FIXTURES.glob("*.json"))
      if p.stem != "k44_embedding" for scale in (1e200, 1e-200))])
def test_matrix_out_of_float_range_exit_2(tmp_path, command, name, scale):
    # one named error line, not a traceback from the eigenvalue solver, nor zeros passed on
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    doc["vertices"] = [[scale * x for x in v] for v in doc["vertices"]]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Izmestiev matrix leaves float range")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name", ["cube", "simplex3"])
@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e100, 1e-100])
def test_validate_passes_far_from_unit_scale(tmp_path, capsys, name, scale):
    # both matrices are computed at unit scale, and M(sP) = s^-d M(P) is still a float here
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    doc["vertices"] = [[scale * x for x in v] for v in doc["vertices"]]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def scaled_fixture(tmp_path, name, scale) -> str:
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    doc["vertices"] = [[scale * x for x in v] for v in doc["vertices"]]
    path = tmp_path / f"{name}_scaled.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.filterwarnings("error")
def test_lift_and_eigenspace_fit_at_unit_scale(tmp_path, capsys):
    # phi @ phi.T overflows in input units at 2^511, while M(sP) = s^-2 M(P) is still a float
    path = scaled_fixture(tmp_path, "square", 2.0 ** 511)
    assert cli.main(["analyze", path]) == 0
    out, err = capsys.readouterr()
    assert {k: g["order"] for k, g in json.loads(out)["groups"].items()} == \
        {"linear": 8, "orthogonal": 8} and err == ""
    assert cli.main(["validate", path]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["passed"] is True and err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,code", [
    (["oracle"], 0), (["export-dot", "--coloring", "metric"], 0), (["experiment-metric"], 0),
    (["analyze"], 2), (["validate"], 2)])
def test_subnormal_input_reads_no_input_unit_normals(tmp_path, capsys, argv, code):
    # the normals of a square at 1e-310 leave float range in input units; no command needs them
    assert cli.main([*argv, scaled_fixture(tmp_path, "square", 1e-310)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("error: Izmestiev matrix leaves float range")
        assert err.count("\n") == 1
    else:
        assert out and err == ""


@pytest.mark.parametrize("scale", [1e101, 1e102])
def test_eig_threshold_relative_at_every_scale(tmp_path, capsys, scale):
    # no absolute floor: the threshold is eig_rel times the spectral radius
    cli.main(["validate", scaled_fixture(tmp_path, "cube", scale)])
    props = json.loads(capsys.readouterr().out)["properties"]
    assert props["eig_threshold"] == 1e-8 * max(abs(v) for v in props["spectrum"])


def test_analyze_dimension_one_exit_2(tmp_path):
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"dimension": 1, "vertices": [[1], [-2]]}))
    proc = run_cli("analyze", str(segment))
    assert proc.returncode == 2
    assert "dimension 1 < 2" in proc.stderr


@pytest.mark.parametrize("doc,message", [
    ({"dimension": 3, "vertices": [[1, 0], [0, 1], [-1, -1]]},
     "error: vertex array has shape (3, 2), expected (n, 3)\n"),
    ({"dimension": 2, "vertices": [[0, 0], [0, 0], [0, 0]]}, "error: all vertices at the origin\n"),
])
def test_analyze_invalid_vertex_array_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", message)


def stretched_fixture(tmp_path, name, kappa) -> str:
    """The fixture mapped by Q diag(geomspace(1, kappa, d)), Q orthogonal from seed 7."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    verts = np.array(doc["vertices"], dtype=float)
    d = verts.shape[1]
    q, r = np.linalg.qr(np.random.default_rng(7).standard_normal((d, d)))
    doc["vertices"] = (verts @ (q * np.sign(np.diag(r)) * np.geomspace(1, kappa, d)).T).tolist()
    path = tmp_path / f"{name}_stretched.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name,kappa", [
    ("simplex4", 1e8), ("cube", 1e9), ("prism3", 1e9), ("simplex3", 1e9)])
def test_empty_polar_scan_exit_2(tmp_path, capsys, name, kappa):
    # every d-subset of the polar's planes fails the determinant test: no facet, no traceback
    assert cli.main(["analyze", stretched_fixture(tmp_path, name, kappa)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "near-singular" in err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the Izmestiev classes chain into one, and generator "
                          "(0, 1, 4, 5, 2, 3) lifts with residual 1.1e-8 against match 1e-8")
def test_jittered_octahedron_is_no_theorem_violation(tmp_path, capsys):
    # a near-tie must be named (exit 2) or resolved (exit 0), never claimed as a counterexample
    doc = json.loads((FIXTURES / "octahedron.json").read_text())
    jitter = 1 + 3e-8 * np.random.default_rng(10).standard_normal((6, 3))
    doc["vertices"] = (np.array(doc["vertices"]) * jitter).tolist()
    path = tmp_path / "jittered.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert code == 0 or (code == 2 and out == "" and err.startswith("error: ")), err


def test_analyze_recenter_accepts_translated(tmp_path):
    shifted = tmp_path / "shifted.json"
    hexagon = json.loads((FIXTURES / "hexagon.json").read_text())
    hexagon["vertices"] = [[x + 5.0, y] for x, y in hexagon["vertices"]]
    shifted.write_text(json.dumps(hexagon))
    proc = run_cli("analyze", "--recenter", str(shifted), check=True)
    report = json.loads(proc.stdout)
    assert report["input"]["recentered"] is True
    assert report["groups"]["orthogonal"]["order"] == 12


def test_analyze_deterministic_bytes():
    a = run_cli("analyze", str(FIXTURES / "stretched_hexagon.json"), check=True)
    b = run_cli("analyze", str(FIXTURES / "stretched_hexagon.json"), check=True)
    assert a.stdout == b.stdout


def test_analyze_multiple_files_in_order():
    proc = run_cli("analyze", str(FIXTURES / "square.json"),
                   str(FIXTURES / "triangle.json"), check=True)
    reports = json.loads(proc.stdout)
    assert [r["input"]["name"] for r in reports] == ["square", "triangle"]


def two_golden_reports() -> str:
    """What analyze prints for the cube and then the octahedron, from the golden reports."""
    docs = [json.loads((ROOT / "tests" / "golden" / f"analyze_{name}.json").read_text())
            for name in ("cube", "octahedron")]
    return json.dumps(docs, sort_keys=True, indent=2) + "\n"


def test_analyze_two_inputs_bytes():
    # run from the repository root, so each report echoes the path its golden holds
    proc = run_cli("analyze", "fixtures/cube.json", "fixtures/octahedron.json", check=True)
    assert proc.stdout == two_golden_reports()


def test_no_member_is_listed_before_the_writer_starts(monkeypatch, capsys):
    # members are enumerated only while a listing is written, so no input's
    # members outlive its own report through the later inputs' work; each
    # polytope's orthogonal group is its linear one, listed once and copied
    reads, reads_before_emit = [], []
    real_perms, real_emit = PermutationSet.perms, cli._emit
    monkeypatch.setattr(PermutationSet, "perms",
                        property(lambda group: reads.append(group) or real_perms.fget(group)))
    monkeypatch.setattr(cli, "_emit", lambda doc: reads_before_emit.append(len(reads))
                        or real_emit(doc))
    monkeypatch.chdir(ROOT)
    assert cli.main(["analyze", "fixtures/cube.json", "fixtures/octahedron.json"]) == 0
    assert reads_before_emit == [0] and len(reads) == 2
    assert capsys.readouterr().out == two_golden_reports()


def test_only_a_listing_held_twice_is_spooled(monkeypatch, capsys):
    # the cube's orthogonal group is its linear one, listed once and copied
    # from one temporary file; the rectangle's two groups differ, so it opens none
    opened, real = [], tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda *args, **kwargs: opened.append(args) or real(*args, **kwargs))
    monkeypatch.chdir(ROOT)
    for name, files in (("cube", 1), ("rectangle", 0)):
        opened.clear()
        assert cli.main(["analyze", f"fixtures/{name}.json"]) == 0
        golden = ROOT / "tests" / "golden" / f"analyze_{name}.json"
        assert capsys.readouterr().out == golden.read_text()
        assert len(opened) == files


class FullDisk(io.FileIO):
    """A file on a disk with room for ``room`` bytes."""

    def __init__(self, path, room):
        super().__init__(path, "w+")
        self.room = room

    def write(self, data):
        if self.tell() + len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


@pytest.mark.parametrize("room", [None, 0, 2000])
def test_no_room_for_the_spool_changes_no_byte(monkeypatch, capsys, tmp_path, room):
    # no temporary file (None), or one whose disk fills at once or within
    # the listing: the listing is formatted again in its second place
    spools = []

    def temporary_file(mode, buffering):  # as _emit opens one
        if room is None:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        raw = FullDisk(tmp_path / f"spool{len(spools)}", room)
        spools.append(raw)
        return io.TextIOWrapper(io.BufferedRandom(raw), line_buffering=buffering == 1)

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(cli, "MEMBER_CHUNK", 3)  # many chunks, so the disk fills within one
    monkeypatch.chdir(ROOT)
    assert cli.main(["analyze", "fixtures/cube.json", "fixtures/octahedron.json"]) == 0
    assert capsys.readouterr().out == two_golden_reports()
    assert len(spools) == (0 if room is None else 2) and all(raw.closed for raw in spools)


def test_spooling_holds_no_listing(monkeypatch, tmp_path):
    # the 5-cross-polytope's listing is about 3.7 MB: written twice, it costs
    # _emit's peak at most one chunk's text more than written once
    docs, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", docs.append)
    path = tmp_path / "cross5.json"
    path.write_text(json.dumps({"dimension": 5, "vertices": cross_polytope(5).vertices.tolist()}))
    assert cli.main(["analyze", str(path)]) == 0
    twice = docs[0]
    group = twice["groups"]["linear"]["members"]
    assert twice["groups"]["orthogonal"]["members"] is group and group.order == 3840
    once = {**twice, "groups": {"linear": twice["groups"]["linear"]}}

    def peak(doc):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                emit(doc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    chunk = max(map(len, cli._members(group, 3)))  # "members" sits at level 3 of a report
    assert peak(twice) - peak(once) <= chunk, (peak(twice), peak(once), chunk)


def test_analyze_report_roundtrips():
    proc = run_cli("analyze", str(FIXTURES / "octahedron.json"), check=True)
    report = json.loads(proc.stdout)
    assert json.loads(json.dumps(report)) == report


def test_verbose_chatter_on_stderr_only():
    quiet = run_cli("analyze", str(FIXTURES / "square.json"), check=True)
    loud = run_cli("analyze", "--verbose", str(FIXTURES / "square.json"), check=True)
    assert quiet.stdout == loud.stdout
    assert quiet.stderr == "" and "analyzed in" in loud.stderr


def test_validate_passes():
    for name in ("cube.json", "triangle.json"):
        proc = run_cli("validate", str(FIXTURES / name), check=True)
        report = json.loads(proc.stdout)
        assert report["passed"] is True
        assert report["eigenspace"]["ok"] is True
    assert json.loads(proc.stdout)["properties"]["kernel_dim"] == 2


def test_validate_fd_step_outside_trust_region_exit_1():
    proc = run_cli("validate", str(FIXTURES / "cube.json"), "--fd-step", "0.2")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert report["properties"]["passed"] is True
    assert report["fd_agreement"]["ok"] is False
    assert "trust region" in report["fd_agreement"]["error"]


def test_validate_corrupted_dump_exit_1(tmp_path):
    proc = run_cli("analyze", str(FIXTURES / "square.json"), check=True)
    spectrum = json.loads(proc.stdout)["matrix_summary"]["spectrum"]
    assert len(spectrum) == 4
    dump = {"n": 4, "entries": [[0.0, -0.5, 0.0, -0.5],
                                [-0.5, 0.0, -0.5, 0.0],
                                [0.0, -0.5, 0.0, 0.0],
                                [-0.5, 0.0, 0.0, 0.0]]}  # edge (2,3) zeroed
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    proc = run_cli("validate", str(FIXTURES / "square.json"), "--matrix", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert report["properties"]["sign_ok"] is False


SQUARE_DUMP = [[0.0, -0.5, 0.0, -0.5],
               [-0.5, 0.0, -0.5, 0.0],
               [0.0, -0.5, 0.0, -0.5],
               [-0.5, 0.0, -0.5, 0.0]]


def test_validate_good_dump_passes(tmp_path):
    dump = {"n": 4, "entries": SQUARE_DUMP}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    proc = run_cli("validate", str(FIXTURES / "square.json"), "--matrix", str(path))
    assert proc.returncode == 0


@pytest.mark.parametrize("dump", [
    [1, 2], "dump", None, 4, {"n": 4, "entries": {"a": 1}},
    # json.dumps writes these as the non-standard tokens NaN and Infinity
    {"n": 4, "entries": [[float("nan")] + SQUARE_DUMP[0][1:]] + SQUARE_DUMP[1:]},
    {"n": 4, "entries": [[float("inf")] + SQUARE_DUMP[0][1:]] + SQUARE_DUMP[1:]},
    # a JSON true is no number, though Python's bool is an int
    {"n": 4, "entries": [[True] + SQUARE_DUMP[0][1:]] + SQUARE_DUMP[1:]},
    # 'n' is an integer field like every other: 4.0 is no vertex count
    {"n": 4.0, "entries": SQUARE_DUMP},
])
def test_validate_malformed_dump_exit_2(tmp_path, dump):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    proc = run_cli("validate", str(FIXTURES / "square.json"), "--matrix", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_sparsity_is_checked_relative_to_max_m(tmp_path):
    # the cube scaled by 1e3 has max|M| about 1e-9: a non-edge entry of
    # 1e-3 max|M| is far below a bare tol.kernel, yet no zero
    doc = json.loads((FIXTURES / "cube.json").read_text())
    doc["vertices"] = [[1e3 * x for x in v] for v in doc["vertices"]]
    big = tmp_path / "big_cube.json"
    big.write_text(json.dumps(doc))
    dump = json.loads(run_cli("analyze", str(big), check=True).stdout)["matrix_summary"]["dump"]
    entries = dump["entries"]
    assert doc["vertices"][7] == [-x for x in doc["vertices"][0]]  # antipodal: a non-edge
    entries[0][7] = entries[7][0] = 1e-3 * max(abs(x) for row in entries for x in row)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    proc = run_cli("validate", str(big), "--matrix", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)["properties"]
    assert report["sparsity_ok"] is False and report["symmetric_ok"] is True


def test_analyze_dump_feeds_validate(tmp_path):
    # the dump analyze writes is the one validate --matrix reads, and checks alike
    for name in ("octahedron", "square", "cube", "cyclic4_6"):
        fixture = str(FIXTURES / f"{name}.json")
        proc = run_cli("analyze", fixture, check=True)
        dump = json.loads(proc.stdout)["matrix_summary"]["dump"]
        path = tmp_path / f"{name}_dump.json"
        path.write_text(json.dumps(dump))
        from_dump = json.loads(run_cli("validate", fixture, "--matrix", str(path),
                                       check=True).stdout)
        plain = json.loads(run_cli("validate", fixture, check=True).stdout)
        assert from_dump["matrix_source"] == "dump", name
        assert plain["matrix_source"] == "geometric", name
        assert from_dump["properties"] == plain["properties"], name


@pytest.fixture
def simplex9(tmp_path):
    """The regular 9-simplex: its group, Sym(10), has 3 628 800 members, past MAX_MEMBERS."""
    path = tmp_path / "simplex9.json"
    path.write_text(json.dumps({"dimension": 9, "vertices": simplex(9).vertices.tolist()}))
    return path


@pytest.fixture
def small_cyclic(tmp_path):
    """cyclic4_6 scaled by 1e-3, where M's entries grow like 1e12."""
    doc = json.loads((FIXTURES / "cyclic4_6.json").read_text())
    doc["vertices"] = [[1e-3 * x for x in v] for v in doc["vertices"]]
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


# a kernel tolerance far below rounding: the matrix cannot meet its kernel condition
KERNEL_FAILURE = (str(FIXTURES / "cyclic4_6.json"), "--eps-kern", "1e-20")


def test_validate_reports_kernel_failure_exit_1():
    proc = run_cli("validate", *KERNEL_FAILURE)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["properties"]["kernel_ok"] is False
    assert report["passed"] is False


def test_analyze_kernel_failure_exit_2():
    proc = run_cli("analyze", *KERNEL_FAILURE)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: kernel condition residual")


def test_small_cyclic_kernel_check_is_scale_free(small_cyclic):
    # the kernel residual is compared with max|M| scale, which scales like M phi^T
    proc = run_cli("validate", str(small_cyclic))
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["properties"]["kernel_ok"] is True
    report = json.loads(run_cli("analyze", str(small_cyclic), check=True).stdout)
    assert report["groups"]["linear"]["order"] == 72
    assert report["groups"]["orthogonal"]["order"] == 72


def test_export_dot_square_metric_single_colors():
    proc = run_cli("export-dot", str(FIXTURES / "square.json"),
                   "--coloring", "metric", check=True)
    lines = proc.stdout.splitlines()
    node_colors = {l.split('"')[1] for l in lines if "fillcolor" in l}
    edge_colors = {l.split('"')[1] for l in lines if " -- " in l}
    assert len(node_colors) == 1 and len(edge_colors) == 1
    assert sum(1 for l in lines if " -- " in l) == 4


def test_export_dot_rectangle_product_two_edge_colors():
    proc = run_cli("export-dot", str(FIXTURES / "rectangle.json"),
                   "--coloring", "product", check=True)
    edge_colors = {l.split('"')[1] for l in proc.stdout.splitlines() if " -- " in l}
    assert len(edge_colors) == 2


def test_export_dot_hexagon_orbit_orthogonal_single_colors():
    # the dihedral group of order 12 is transitive on the vertices and on the edges
    proc = run_cli("export-dot", str(FIXTURES / "hexagon.json"),
                   "--coloring", "orbit-orthogonal", check=True)
    lines = proc.stdout.splitlines()
    node_colors = {l.split('"')[1] for l in lines if "fillcolor" in l}
    edge_colors = {l.split('"')[1] for l in lines if " -- " in l}
    assert len(node_colors) == 1 and len(edge_colors) == 1
    assert sum(1 for l in lines if "fillcolor" in l) == 6
    assert sum(1 for l in lines if " -- " in l) == 6


@pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
@pytest.mark.parametrize("name", [p.stem for p in sorted(FIXTURES.glob("*.json"))
                                  if p.stem != "k44_embedding"])
def test_export_dot_orbit_colors_are_the_orbits(capsys, name, flavor):
    # the colors partition the vertices and the edges as the golden report's members move them
    assert cli.main(["export-dot", str(FIXTURES / f"{name}.json"),
                     "--coloring", f"orbit-{flavor}"]) == 0
    color = {}
    for line in capsys.readouterr().out.splitlines():
        if "fillcolor" in line or " -- " in line:
            key = tuple(int(v[1:]) for v in line.split("[")[0].split() if v != "--")
            color[key] = line.split('"')[1]
    golden = json.loads((ROOT / "tests" / "golden" / f"analyze_{name}.json").read_text())
    perms = [m["perm"] for m in golden["groups"][flavor]["members"]]
    orbits = {frozenset(tuple(sorted(p[v] for v in key)) for p in perms) for key in color}
    classes = {}  # nodes and edges draw on one palette: a class is a key length and a color
    for key, c in color.items():
        classes.setdefault((len(key), c), set()).add(key)
    assert set(map(frozenset, classes.values())) == orbits


@pytest.mark.parametrize("name, graph_id", [
    ("24-cell", '"24-cell"'),
    ("capped prism", '"capped prism"'),
    ('a"b', r'"a\"b"'),
    ("a\\b", r'"a\\b"'),
])
def test_export_dot_quotes_the_graph_id(tmp_path, name, graph_id):
    # a DOT ID may not begin with a digit nor hold "-", spaces or quotes unless quoted
    doc = json.loads((FIXTURES / "square.json").read_text())
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("export-dot", str(path), check=True)
    assert proc.stdout.splitlines()[0] == f"graph {graph_id} {{"


def test_export_dot_metric_runs_past_a_kernel_failure():
    # the metric coloring reads no matrix, so a failed kernel check cannot stop its drawing
    proc = run_cli("export-dot", "--coloring", "metric", *KERNEL_FAILURE)
    assert proc.returncode == 0, proc.stderr
    plain = run_cli("export-dot", "--coloring", "metric", KERNEL_FAILURE[0], check=True)
    assert proc.stdout == plain.stdout and proc.stdout.startswith('graph "')


def test_export_dot_unknown_coloring_exit_64():
    proc = run_cli("export-dot", str(FIXTURES / "square.json"), "--coloring", "rainbow")
    assert proc.returncode == 64


@pytest.mark.parametrize("argv", [
    ("analyze", str(FIXTURES / "cube.json"), "--coloring", "bogus"),
    ("analyze",),
    ("analyze", str(FIXTURES / "cube.json"), "--limit", "many"),
    ("validate", str(FIXTURES / "cube.json"), "--no-such-flag"),
    (),
    ("validate", str(FIXTURES / "cube.json"), "--limit", "3"),  # no subcommand takes --limit
    ("oracle", str(FIXTURES / "cube.json"), "--verbose"),  # only analyze chatters
])
def test_usage_error_exit_64(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 64, proc.stderr
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_help_exit_0():
    proc = run_cli("analyze", "--help")
    assert proc.returncode == 0 and "usage:" in proc.stdout


def test_oracle_polytope():
    proc = run_cli("oracle", str(FIXTURES / "rectangle.json"),
                   "--flavor", "orthogonal", check=True)
    assert json.loads(proc.stdout)["group"]["order"] == 4
    proc = run_cli("oracle", str(FIXTURES / "rectangle.json"),
                   "--candidates", "graph-auts", check=True)
    assert json.loads(proc.stdout)["group"]["order"] == 8


def test_oracle_embedding_k44():
    proc = run_cli("oracle", str(FIXTURES / "k44_embedding.json"),
                   "--embedding", "--candidates", "graph-auts", check=True)
    report = json.loads(proc.stdout)
    assert 0 < report["group"]["order"] < 1152
    perms = [tuple(m["perm"]) for m in report["group"]["members"]]
    assert (1, 0, 2, 3, 4, 5, 6, 7) not in perms


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_oracle_embedding_k44_scaled(tmp_path, scale):
    doc = json.loads((FIXTURES / "k44_embedding.json").read_text())
    doc["vertices"] = [[scale * x for x in v] for v in doc["vertices"]]
    path = tmp_path / "k44_scaled.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("oracle", str(path), "--embedding", "--candidates", "graph-auts", check=True)
    golden = ROOT / "tests" / "golden" / "oracle_k44_embedding_linear.json"
    golden = json.loads(golden.read_text())
    report = json.loads(proc.stdout)
    assert proc.stderr == "" and report["group"]["order"] == 128
    assert ([m["perm"] for m in report["group"]["members"]]
            == [m["perm"] for m in golden["group"]["members"]])


SQUARE_COORDS = [[1, 1], [-1, 1], [-1, -1], [1, -1]]


@pytest.mark.parametrize("doc, candidates", [
    ({"vertices": SQUARE_COORDS, "edges": [[0, 9]]}, "graph-auts"),
    ({"vertices": SQUARE_COORDS, "edges": [[0]]}, "graph-auts"),
    ({"vertices": SQUARE_COORDS, "edges": [[1, 1]]}, "graph-auts"),
    ({"vertices": SQUARE_COORDS, "edges": [[0, -1]]}, "graph-auts"),
    ({"vertices": SQUARE_COORDS, "edges": [[0, 1.5]]}, "graph-auts"),
    ({"vertices": SQUARE_COORDS, "edges": "01"}, "graph-auts"),
    ({"vertices": [1, 2, 3]}, "sym"),
    ({"vertices": []}, "sym"),
    ({"vertices": [[1, 2], [3]]}, "sym"),
    ({"vertices": [["a", "b"]]}, "sym"),
    ({"edges": [[0, 1]]}, "sym"),
    ([SQUARE_COORDS], "sym"),
    ({"vertices": [[1, float("nan")], [0, 1], [-1, 0]]}, "sym"),
    ({"vertices": [[0, 0], [0, 0]]}, "sym"),
    # the square with its 1s written as JSON true: no number, though Python's bool is an int
    ({"vertices": [[True, True], [-1, True], [-1, -1], [True, -1]],
      "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}, "graph-auts"),
])
def test_oracle_bad_embedding_exit_2(tmp_path, doc, candidates):
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("oracle", str(path), "--embedding", "--candidates", candidates)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, message", [
    (["--candidates", "graph-auts"], "oracle: --candidates graph-auts needs an 'edges' key\n"),
    (["--recenter"], "oracle: --recenter applies to polytopes, not to --embedding\n"),
], ids=["graph-auts-without-edges", "recenter"])
def test_oracle_embedding_usage_error_exit_64(tmp_path, capsys, flags, message):
    # a rhombus shifted off the origin: --recenter would change its group, so it may not pass unread
    path = tmp_path / "rhombus.json"
    path.write_text(json.dumps({"vertices": [[3, 0], [1, 1], [-1, 0], [1, -1]]}))
    assert cli.main(["oracle", str(path), "--embedding", *flags]) == 64
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("name", [{"x": [1]}, ["square"], 7, True])
def test_name_that_is_no_string_exits_2(tmp_path, capsys, name):
    # an embedding's name is checked as a polytope's is, not echoed as given
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": SQUARE_COORDS, "name": name}))
    for embedding in (["--embedding"], []):
        assert cli.main(["oracle", str(path), *embedding]) == 2, embedding
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: 'name' must be a string\n"), embedding


# every input document, by the argv that reads it: a polytope, an embedding and a matrix dump
DOCUMENT_READERS = {
    "polytope": lambda path: ["analyze", path],
    "embedding": lambda path: ["oracle", path, "--embedding"],
    "matrix-dump": lambda path: ["validate", str(FIXTURES / "square.json"), "--matrix", path],
}


@pytest.mark.parametrize("kind", DOCUMENT_READERS)
def test_document_that_is_no_object_exits_2(tmp_path, capsys, kind):
    # one reader checks the root of every input document, with one message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps([SQUARE_COORDS]))
    assert cli.main(DOCUMENT_READERS[kind](str(path))) == 2
    assert capsys.readouterr() == ("", "error: document root must be a JSON object\n")


@pytest.mark.parametrize("kind", DOCUMENT_READERS)
@pytest.mark.parametrize("text, message", [(None, "cannot read {path}: "),
                                           (b"not json {", "invalid JSON in {path}: "),
                                           (b"\xff\xfe\x00", "invalid JSON in {path}: ")],
                         ids=["missing", "invalid-json", "no-unicode"])
def test_unreadable_document_exits_2(tmp_path, capsys, kind, text, message):
    # the message names the file, as validate --matrix reads two
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_bytes(text)
    assert cli.main(DOCUMENT_READERS[kind](str(path))) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: " + message.format(path=path)), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, doc, message", [
    ("polytope", {"vertices": SQUARE_COORDS}, "document needs 'dimension' and 'vertices' keys"),
    ("embedding", {"edges": [[0, 1]]}, "embedding document needs a 'vertices' key"),
    ("matrix-dump", {"entries": [[0]]}, "matrix dump needs 'n' and 'entries' keys"),
])
def test_document_without_its_keys_exits_2(tmp_path, capsys, kind, doc, message):
    # the message names the keys the document needs, not a bare KeyError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(DOCUMENT_READERS[kind](str(path))) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# per reader: the prefix of its ParseError, a valid number array, the document that holds it
NUMBER_ARRAYS = {
    "polytope": ("non-numeric vertex coordinate", SQUARE_COORDS,
                 lambda rows: {"dimension": 2, "vertices": rows}),
    "embedding": ("bad embedding document", SQUARE_COORDS,
                  lambda rows: {"vertices": rows, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}),
    "matrix-dump": ("bad matrix dump", SQUARE_DUMP, lambda rows: {"n": 4, "entries": rows}),
}


def _first_leaf(value):
    return lambda rows: [[value, *rows[0][1:]], *rows[1:]]


@pytest.mark.parametrize("kind", DOCUMENT_READERS)
@pytest.mark.parametrize("bad", [
    _first_leaf("1"),                 # numpy would parse the string as 1.0
    _first_leaf(True),                # a Python bool is an int
    _first_leaf(10 ** 400),           # past float range: OverflowError, not a ParseError
    _first_leaf(float("nan")),        # json.dumps writes NaN and Infinity literals
    _first_leaf(float("inf")),
    lambda rows: [],
    lambda rows: rows[0],
    lambda rows: [rows[0][:-1], *rows[1:]],
], ids=["string", "true", "past-float-range", "nan", "infinity", "empty", "flat", "ragged"])
def test_one_rule_for_an_input_number(tmp_path, capsys, kind, bad):
    # read_numbers decides for every reader: exit 2, one line naming the array, no report
    prefix, rows, document = NUMBER_ARRAYS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document(bad(rows))))
    assert cli.main(DOCUMENT_READERS[kind](str(path))) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {prefix}: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("flag", [f"--{flag}" for flag in cli.EPS_FLAGS])
def test_tolerance_flag_must_be_positive_finite(capsys, flag, value):
    # argparse's usage error, as for a value that is no number at all
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", f"{flag}={value}", str(FIXTURES / "cube.json")])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert f"argument {flag}: invalid positive_finite value: '{value}'" in err


def test_commands_never_import_numpy_ma():
    # np.unique on a 1-D array without a return_* flag imports numpy.ma, which
    # costs 15-30 ms in a fresh interpreter
    script = ("import sys\n"
              "from polysym.cli import main\n"
              "for argv in (['analyze', 'fixtures/cyclic4_6.json'], ['validate', 'fixtures/cube.json']):\n"
              "    assert main(argv) == 0, argv\n"
              "sys.stderr.write(str('numpy.ma' in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "False")


def test_experiment_metric_runs():
    proc = run_cli("experiment-metric", str(FIXTURES / "perturbed_hexagon.json"),
                   check=True)
    report = json.loads(proc.stdout)
    assert {"metric_aut_order", "orthogonal_order", "matches_orthogonal_group"} <= set(report)
    proc = run_cli("experiment-metric", "--edge-only",
                   str(FIXTURES / "square.json"), check=True)
    assert json.loads(proc.stdout)["variant"] == "edge-only"


def test_experiment_metric_ignores_the_matrix(small_cyclic):
    # the probe reads the vertices and the edges, never the matrix
    proc = run_cli("experiment-metric", str(small_cyclic))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["orthogonal_order"] == 72


def test_experiment_metric_runs_past_a_kernel_failure():
    # the probe never builds the matrix, so a failed kernel check cannot stop it
    proc = run_cli("experiment-metric", *KERNEL_FAILURE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["orthogonal_order"] == 72


def test_experiment_metric_far_from_unit_scale(tmp_path):
    # the metric classes are taken at unit scale: at 1e200 the rectangle's Gram values overflow
    proc = run_cli("experiment-metric", scaled_fixture(tmp_path, "rectangle", 1e200))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["metric_aut_order"] == 4


def test_limit_exceeded_exit_4(simplex9):
    proc = run_cli("analyze", str(simplex9))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("limit exceeded: ") and proc.stderr.count("\n") == 1


def test_export_dot_orbit_coloring_past_the_bound(simplex9):
    # an orbit coloring reads only the group's generators, so no member is listed
    proc = run_cli("export-dot", str(simplex9), "--coloring", "orbit-linear", check=True)
    node_colors = {l.split('"')[1] for l in proc.stdout.splitlines() if "fillcolor" in l}
    assert len(node_colors) == 1


def _metric_variant(poly, variant: str) -> Coloring:
    col = metric_coloring(poly)
    if variant == "edge-only":
        return Coloring(vertex=(0,) * poly.n, edge=dict(col.edge))
    if variant == "vertex-only":
        return Coloring(vertex=col.vertex, edge={e: 0 for e in col.edge})
    return col


@pytest.mark.parametrize("name", [
    *(p.stem for p in sorted(FIXTURES.glob("*.json")) if p.stem != "k44_embedding"),
    "24-cell", "5-cross-polytope"])
def test_experiment_metric_reference_is_the_brute_force_group(tmp_path, capsys, name):
    # the reference searches only the metric group's members; before, it searched
    # Sym(n) for n <= 9 and the uncolored graph's automorphisms past that
    if name == "24-cell":
        poly = make_polytope(4, cell24(), name=name)
    elif name == "5-cross-polytope":
        poly = cross_polytope(5)
    else:
        poly = load_polytope(FIXTURES / f"{name}.json")
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"dimension": poly.dim, "vertices": poly.vertices.tolist()}))
    cands = None if poly.n <= 9 else automorphisms(uncolored(poly.n, poly.edges)).perms
    whole = brute_force_group(poly.phi, candidates=cands, flavor="orthogonal", tol=poly.tol)
    for variant in ("full", "edge-only", "vertex-only"):
        flags = [] if variant == "full" else [f"--{variant}"]
        assert cli.main(["experiment-metric", str(path), *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        extra = [list(p) for p in automorphisms(_metric_variant(poly, variant))
                 if p not in whole.perm_group]
        assert report["orthogonal_order"] == whole.order, variant
        assert report["extra_automorphisms"] == extra, variant
        if variant == "full":
            assert extra == [], variant


def test_reconstruction_violation_exit_3():
    # a huge quantization tolerance merges every color class, so the generic
    # hexagon's colored graph keeps all 12 cycle automorphisms, none geometric
    proc = run_cli("analyze", "--eps-color", "1e6",
                   str(FIXTURES / "perturbed_hexagon.json"))
    assert proc.returncode == 3
    assert "reconstruction violation" in proc.stderr


@pytest.mark.parametrize("name", ["square", "cube", "cyclic4_6"])
def test_tolerance_override_echoed(name):
    proc = run_cli("analyze", "--eps-color", "1e-6",
                   str(FIXTURES / f"{name}.json"), check=True)
    assert json.loads(proc.stdout)["tolerances"]["color_rel"] == 1e-6


def test_registry_names_every_fixture_file():
    # the suites parametrized over the registry then reach every shipped input
    from helpers import FIXTURES as REGISTRY
    assert {*REGISTRY, "k44_embedding"} == {path.stem for path in FIXTURES.glob("*.json")}


# ---------------------------------------------------------------------------
# the report writer: json.dumps(doc, sort_keys=True, indent=2) byte for byte

def plain(doc):
    """doc with every member listing spelled out as the dicts json.dumps would be given."""
    if isinstance(doc, MatrixGroup):
        perms = doc.perm_group.perms
        return [{"perm": list(p), "matrix": t.tolist(), "orthogonal": bool(r <= doc.tol.orth)}
                for p, t, r in zip(perms, *doc.lift(perms))]
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


FLOATS = (st.floats() | st.floats().map(np.float64)
          | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é☃\U0001d11e"])
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | FLOATS | TEXT)


@st.composite
def member_listings(draw):
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    perms = tuple(sorted(draw(st.lists(st.permutations(range(n)).map(tuple),
                                       min_size=1, max_size=5, unique=True))))
    k = len(perms)
    entries = draw(st.lists(FLOATS, min_size=k * d * d, max_size=k * d * d))
    flags = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    maps = np.array(entries, dtype=float).reshape(k, d, d)
    orthogonal = np.array(flags, dtype=bool)
    row = {p: i for i, p in enumerate(perms)}

    class Stub(MatrixGroup):  # the writer reads perm_group.perms, tol.orth and lift
        def lift(self, chunk):  # as MatrixGroup.lift: a chunk of members -> (maps, orth)
            rows = [row[p] for p in chunk]
            return maps[rows], np.where(orthogonal[rows], 0.0, 1.0)

    return Stub(SimpleNamespace(perms=perms), None, None, DEFAULT_TOLERANCES)


DOCS = st.recursive(
    SCALARS | member_listings(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps(doc):
    assert written(doc) == json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps_with_each_listing_held_again(doc):
    # each listing again at its own level, so copied, and at a deeper one, so formatted again
    doc = [doc, {"again": [doc]}, doc]
    assert written(doc) == json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


def test_writer_rejects_what_json_rejects():
    for bad in (np.int64(1), {"x": np.bool_(True)}, [np.zeros(2)]):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            written(bad)


def test_24_cell_report_is_its_own_redump(tmp_path):
    # 1152 members per group: each listing crosses a chunk boundary
    verts = [[s if k == i else t if k == j else 0.0 for k in range(4)]
             for i, j in itertools.combinations(range(4), 2)
             for s, t in itertools.product((1.0, -1.0), repeat=2)]
    path = tmp_path / "24-cell.json"
    path.write_text(json.dumps({"dimension": 4, "name": "24-cell", "vertices": verts}))
    proc = run_cli("analyze", str(path), check=True)
    report = json.loads(proc.stdout)
    groups = report["groups"].values()
    assert [(g["order"], len(g["members"])) for g in groups] == [(1152, 1152)] * 2
    assert proc.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_failed_run_writes_nothing(tmp_path, simplex9):
    # every report is laid out only after all work is done, so a run that fails
    # on its last input prints no report for the inputs before it
    shifted = tmp_path / "shifted.json"
    hexagon = json.loads((FIXTURES / "hexagon.json").read_text())
    hexagon["vertices"] = [[x + 5.0, y] for x, y in hexagon["vertices"]]
    shifted.write_text(json.dumps(hexagon))
    for argv, code in [
            (("analyze", str(FIXTURES / "square.json"), str(shifted)), 2),
            (("analyze", "--eps-color", "1e6", str(FIXTURES / "square.json"),
              str(FIXTURES / "cyclic4_6.json")), 3),
            (("analyze", str(FIXTURES / "triangle.json"), str(simplex9)), 4)]:
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
