"""Independent check of one job's output, with numpy only.

The expected group orders come from ``instances.EXPECTED_ORDER``; every
reported (perm, matrix) member is re-checked against the vertices the
benchmark wrote, at the ``match`` and ``orth`` tolerances the report echoes.
"""

from __future__ import annotations

import json

import numpy as np

from instances import EXPECTED_ORDER, Job


def check_group(group: dict, flavor: str, vertices: np.ndarray, expected: int) -> str | None:
    """Reason the reported group is wrong, or None."""
    n, d = vertices.shape
    members = group["members"]
    if group["flavor"] != flavor:
        return f"flavor {group['flavor']!r}, expected {flavor!r}"
    if group["order"] != expected or len(members) != expected:
        return f"{flavor} order {group['order']} with {len(members)} members, expected {expected}"
    perms = np.array([m["perm"] for m in members], dtype=np.int64)
    mats = np.array([m["matrix"] for m in members], dtype=float)
    if perms.shape != (expected, n) or mats.shape != (expected, d, d):
        return f"{flavor} members have shapes {perms.shape} and {mats.shape}"
    if not np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), perms.shape)):
        return f"{flavor} member is not a permutation of the vertices"
    if len({p.tobytes() for p in perms}) != expected:
        return f"{flavor} members repeat a permutation"
    if not (perms == np.arange(n)).all(axis=1).any():
        return f"{flavor} group lacks the identity"
    targets = vertices[perms]                           # (k, n, d): vertex perm[j] at row j
    images = np.einsum("kab,nb->kna", mats, vertices)   # (k, n, d): T v_j at row j
    err = np.linalg.norm(images - targets, axis=2)
    if np.any(err > group["tolerances"]["match"] * np.linalg.norm(targets, axis=2)):
        return f"{flavor} member matrix does not map vertex j onto vertex perm[j]"
    if flavor == "orthogonal":
        gram = np.einsum("kab,kac->kbc", mats, mats)
        if np.max(np.abs(gram - np.eye(d))) > group["tolerances"]["orth"]:
            return "orthogonal member matrix is not orthogonal"
    return None


def check_job(job: Job, rc, stdout: str) -> str | None:
    """Reason the job failed, or None when its exit code and output are right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        return _check_report(job, doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _check_report(job: Job, doc) -> str | None:
    if job.kind == "validate":
        return None if doc.get("passed") is True else "validate report did not pass"
    expected = EXPECTED_ORDER[job.group]
    if job.kind == "oracle":
        return check_group(doc["group"], job.flavor, job.vertices, expected)
    if doc["input"]["n_vertices"] != len(job.vertices):
        return "input echo has the wrong vertex count"
    if set(doc["groups"]) != {"linear", "orthogonal"}:
        return f"groups {sorted(doc['groups'])}, expected both flavors"
    for flavor, group in sorted(doc["groups"].items()):
        reason = check_group(group, flavor, job.vertices, expected)
        if reason:
            return reason
    return None


def reported_orders(job: Job, stdout: str) -> dict:
    """Group orders a successful job reported, by flavor."""
    doc = json.loads(stdout)
    if job.kind == "analyze":
        return {f: g["order"] for f, g in doc["groups"].items()}
    if job.kind == "oracle":
        return {doc["group"]["flavor"]: doc["group"]["order"]}
    return {}
