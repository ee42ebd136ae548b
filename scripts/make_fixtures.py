#!/usr/bin/env python3
"""Regenerate fixtures/*.json from the coordinates in polysym.fixtures."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polysym.fixtures import FIXTURES, k44_coordinates, k44_edges  # noqa: E402


def main() -> None:
    out_dir = Path(__file__).resolve().parents[1] / "fixtures"
    out_dir.mkdir(exist_ok=True)
    for name, factory in FIXTURES.items():
        poly = factory()
        doc = {"dimension": poly.dim, "vertices": poly.vertices.tolist()}
        if poly.name is not None:
            doc["name"] = poly.name
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}")
    emb = {
        "name": "k44_embedding",
        "dimension": 4,
        "vertices": k44_coordinates().tolist(),
        "edges": [list(e) for e in k44_edges()],
    }
    path = out_dir / "k44_embedding.json"
    path.write_text(json.dumps(emb, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
