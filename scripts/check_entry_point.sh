#!/bin/sh
# Hold the installed `polysym` command to the committed reports.  A behaviour
# check lives once, in the tier-1 suite (tests/), which runs the package
# in-process or as `python -m polysym`.  A check belongs here only if it
# needs the installed command: its entry point and its packaging, an
# editable install with the test extra or a plain `pip install .`.  It
# keeps:
# - every report of `golden_cases()` in scripts/make_golden.py, byte for
#   byte, with the list read from that function;
# - `analyze` on the cube and the octahedron in one run, as the indent-2
#   list of those two goldens;
# - `validate` on every polytope fixture, on the computed matrix and on the
#   matrix dump of its own `analyze` report (the golden, which the first
#   check has just shown to be that report);
# - a 24-cell, built inline: both flavors of order 1152, a report equal to
#   the indent-2 re-dump of its parse, and every listed member re-checked
#   with numpy alone, since the pipeline checks only a group's generators:
#   its matrix must send each vertex j to vertex perm[j] within the echoed
#   `match` of that vertex's norm, and in the orthogonal flavor it must be
#   orthogonal within the echoed `orth`;
# - one run of each `export-dot --coloring` choice and of each
#   `experiment-metric` variant on the cube, each of which must exit 0, so
#   that an install without the test extra runs every subcommand and every
#   choice.
# Run from the root of a checkout, after `pip install .`:
#
#     sh scripts/check_entry_point.sh
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# no argv of a golden case holds a space, so each is one line: the file name, then the argv
python -c 'import sys
sys.path.insert(0, "scripts")
from make_golden import golden_cases
for name, argv in golden_cases():
    print(name, *argv)' > "$tmp/cases"
while read -r golden argv; do
    polysym $argv < /dev/null | cmp - "tests/golden/$golden" \
        || { echo "golden mismatch: $golden"; exit 1; }
done < "$tmp/cases"

python -c 'import json, sys
docs = [json.load(open(path)) for path in sys.argv[1:]]
sys.stdout.write(json.dumps(docs, sort_keys=True, indent=2) + "\n")' \
    tests/golden/analyze_cube.json tests/golden/analyze_octahedron.json > "$tmp/two.json"
polysym analyze fixtures/cube.json fixtures/octahedron.json | cmp - "$tmp/two.json" \
    || { echo "golden mismatch: cube and octahedron in one run"; exit 1; }

for f in fixtures/*.json; do
    name=${f#fixtures/}; name=${name%.json}
    [ "$name" = k44_embedding ] && continue
    python -c 'import json, sys; json.dump(json.load(sys.stdin)["matrix_summary"]["dump"], sys.stdout)' \
        < "tests/golden/analyze_$name.json" > "$tmp/dump.json"
    polysym validate "$f" > /dev/null || { echo "validate failed: $name"; exit 1; }
    polysym validate "$f" --matrix "$tmp/dump.json" > /dev/null \
        || { echo "dump validate failed: $name"; exit 1; }
done

python -c 'import itertools, json, sys
verts = [[s if k == i else t if k == j else 0.0 for k in range(4)]
         for i, j in itertools.combinations(range(4), 2)
         for s, t in itertools.product((1.0, -1.0), repeat=2)]
json.dump({"dimension": 4, "name": "24-cell", "vertices": verts}, sys.stdout)' > "$tmp/24-cell.json"
polysym analyze "$tmp/24-cell.json" > "$tmp/report.json" || { echo "analyze failed: 24-cell"; exit 1; }
python -c 'import json, sys
import numpy as np
verts = np.array(json.load(open(sys.argv[1]))["vertices"])
text = open(sys.argv[2]).read()
groups = json.loads(text)["groups"]
text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" \
    or sys.exit("24-cell report is not its own indent-2 re-dump")
{k: g["order"] for k, g in groups.items()} == {"linear": 1152, "orthogonal": 1152} \
    or sys.exit("group orders changed: 24-cell")
for flavor, group in groups.items():
    tol, members = group["tolerances"], group["members"]
    maps = np.array([m["matrix"] for m in members])
    images = verts[np.array([m["perm"] for m in members])]
    err = np.linalg.norm(verts @ maps.transpose(0, 2, 1) - images, axis=2)
    ok = len(members) == group["order"] and (err <= tol["match"] * np.linalg.norm(images, axis=2)).all()
    if flavor == "orthogonal":
        ok &= (np.abs(maps.transpose(0, 2, 1) @ maps - np.eye(verts.shape[1])) <= tol["orth"]).all()
    ok or sys.exit(f"24-cell {flavor} member fails its re-check")' "$tmp/24-cell.json" "$tmp/report.json"

# the choices are read from the installed package, so a new one is run without an edit here
for coloring in $(python -c 'from polysym.cli import DOT_COLORINGS; print(*DOT_COLORINGS)'); do
    polysym export-dot fixtures/cube.json --coloring "$coloring" > /dev/null \
        || { echo "export-dot --coloring $coloring failed"; exit 1; }
done
for variant in "" --edge-only --vertex-only; do
    polysym experiment-metric fixtures/cube.json $variant > /dev/null \
        || { echo "experiment-metric $variant failed"; exit 1; }
done
