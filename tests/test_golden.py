"""Byte-exact guard on the CLI reports: analyze on every fixture, and the oracle on the K_{4,4}
embedding (graph-auts candidates) and on two polytopes (the full Sym(n) stream).

The expected bytes, the SHA-256 table of analyze reports on a wider set
of inputs, that of validate reports on every polytope fixture and that of
the finite-difference matrix's bits live in tests/golden/ and are
regenerated by scripts/make_golden.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from polysym import cli, oracle, reconstruct

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("name,argv", make_golden.golden_cases(),
                         ids=[name for name, _ in make_golden.golden_cases()])
def test_report_bytes_match_golden(name, argv):
    expected = (make_golden.GOLDEN / name).read_text()
    assert make_golden.run(argv) == expected


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name,argv", make_golden.golden_cases(),
                         ids=[name for name, _ in make_golden.golden_cases()])
def test_report_bytes_match_golden_at_any_chunk_size(monkeypatch, name, argv, chunk):
    # a member listing is laid out MEMBER_CHUNK members at a time
    monkeypatch.setattr(cli, "MEMBER_CHUNK", chunk)
    assert make_golden.run(argv) == (make_golden.GOLDEN / name).read_text()


@pytest.mark.parametrize("name,argv", make_golden.golden_cases(),
                         ids=[name for name, _ in make_golden.golden_cases()])
def test_one_pseudo_inverse_per_frame(monkeypatch, name, argv):
    # analyze builds one frame per polytope, shared by its two groups, and the
    # oracle one for all its candidates
    calls, real = [], reconstruct.pseudo_inverse

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "pseudo_inverse", counting)
    monkeypatch.setattr(oracle, "pseudo_inverse", counting)
    make_golden.run(argv)
    assert len(calls) == 1


def test_analyze_sha256_table():
    # every polytope fixture and four ladder polytopes, each as given, turned and relabelled
    assert make_golden.analyze_sha256() == json.loads(make_golden.SHA256_TABLE.read_text())


def test_validate_sha256_table():
    # every polytope fixture, with its computed matrix and with its own analyze report's dump
    assert make_golden.validate_sha256() == json.loads(make_golden.VALIDATE_TABLE.read_text())


def test_fd_sha256_table():
    # the finite-difference oracle's exact bits on every polytope fixture and four ladder polytopes
    assert make_golden.fd_sha256() == json.loads(make_golden.FD_TABLE.read_text())
