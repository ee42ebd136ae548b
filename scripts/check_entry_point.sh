#!/bin/sh
# Hold the installed `polysym` entry point to the committed reports: every
# golden `analyze` and `oracle` report byte for byte, `analyze` on the cube
# and the octahedron in one run as the indent-2 list of those two goldens,
# and a passing `validate` on every polytope fixture, both on the computed
# matrix and on the matrix dump `analyze` writes.  On every polytope fixture
# it also runs the paths no golden covers, `export-dot` with both orbit
# colorings and `experiment-metric`, each of which must exit 0, and
# `analyze` on the fixture scaled by 1e-6 and by 1e6, and for d <= 3 also by
# 1e-100 and by 1e100, which must exit 0 with the golden report's group
# orders.  `oracle --embedding --candidates graph-auts` on k44_embedding
# scaled by 1e-300 and by 1e300 must exit 0 with order 128, as unscaled.
# The scale limits: every stage computes at unit scale, so `validate` on the
# cube and on simplex3 scaled by 1e80 and by 1e-80 must exit 0 with
# `"passed": true`, while `analyze` on the cube scaled by 1e200, whose
# matrix M(sP) = s^-3 M(P) underflows, must exit 2 with no report and one
# `error: Izmestiev matrix leaves float range` line.  The metric coloring
# is classed at unit scale too: `experiment-metric` on the rectangle scaled
# by 1e200 must exit 0 with `metric_aut_order` 4, as unscaled, and print
# nothing on stderr.  So are the lift and the facet normals: `analyze` on
# the square scaled by 2^511, where phi @ phi.T overflows in input units,
# must exit 0 with orders {8, 8} and print nothing on stderr, and `oracle`
# on the square scaled by 1e-310, whose normals leave float range in input
# units, must exit 0 and print nothing on stderr.
# A 24-cell, built inline, is analyzed
# last: both flavors must report order 1152, and its report, whose member
# listings are written in several pieces, must equal the indent-2 re-dump of
# its parse.  The pipeline checks only a group's generators, so every listed
# member of that report is re-checked here, with numpy alone: its matrix
# must send each vertex j to vertex perm[j] within the echoed `match` of
# that vertex's norm, and in the orthogonal flavor it must be orthogonal
# within the echoed `orth`.
# A regular 9-simplex, also built inline, checks the one bound on what is
# listed: its group, Sym(10), has 3 628 800 members, past MAX_MEMBERS = 10^6,
# so `analyze` must exit 4 with no report and one `limit exceeded:` line.
# There is no option to move that bound: `analyze --limit 5` must exit 64.
# One rule reads every input number: a triangle with one coordinate written
# as a JSON string must exit 2 with no report and one `error:` line, and a
# tolerance flag must be a positive finite number: `analyze --eps-color -1`
# on the cube must exit 64.
# Run from the root of a checkout, after `pip install .`:
#
#     sh scripts/check_entry_point.sh
set -eu

for f in fixtures/*.json; do
    [ "$f" = fixtures/k44_embedding.json ] && continue
    name=${f#fixtures/}; name=${name%.json}
    polysym analyze "$f" | cmp - "tests/golden/analyze_$name.json" \
        || { echo "golden mismatch: $name"; exit 1; }
done

for flavor in linear orthogonal; do
    polysym oracle fixtures/k44_embedding.json --embedding --candidates graph-auts --flavor "$flavor" \
        | cmp - "tests/golden/oracle_k44_embedding_$flavor.json" \
        || { echo "golden mismatch: k44_embedding $flavor"; exit 1; }
    for name in cube stretched_hexagon; do
        polysym oracle "fixtures/$name.json" --flavor "$flavor" \
            | cmp - "tests/golden/oracle_${name}_$flavor.json" \
            || { echo "golden mismatch: $name $flavor"; exit 1; }
    done
done

orders='import json, sys; print({k: g["order"] for k, g in json.load(sys.stdin)["groups"].items()})'
oracle_order='import json, sys; print(json.load(sys.stdin)["group"]["order"])'
dimension='import json, sys; print(json.load(sys.stdin)["dimension"])'
scale='import json, sys
doc = json.load(open(sys.argv[1]))
doc["vertices"] = [[float(sys.argv[2]) * x for x in v] for v in doc["vertices"]]
json.dump(doc, sys.stdout)'
dump=$(mktemp)
scaled=$(mktemp)
cell=$(mktemp)
err=$(mktemp)
trap 'rm -f "$dump" "$scaled" "$cell" "$err"' EXIT
for s in 1e-300 1e300; do
    python -c "$scale" fixtures/k44_embedding.json "$s" > "$scaled"
    report=$(polysym oracle "$scaled" --embedding --candidates graph-auts) \
        || { echo "oracle failed: k44_embedding scaled by $s"; exit 1; }
    [ "$(echo "$report" | python -c "$oracle_order")" = 128 ] \
        || { echo "oracle order changed: k44_embedding scaled by $s"; exit 1; }
done
passed='import json, sys; print(json.load(sys.stdin)["passed"])'
for name in cube simplex3; do
    for s in 1e80 1e-80; do
        python -c "$scale" "fixtures/$name.json" "$s" > "$scaled"
        report=$(polysym validate "$scaled") || { echo "validate failed: $name scaled by $s"; exit 1; }
        [ "$(echo "$report" | python -c "$passed")" = True ] \
            || { echo "validate did not pass: $name scaled by $s"; exit 1; }
    done
done
python -c "$scale" fixtures/cube.json 1e200 > "$scaled"
status=0
polysym analyze "$scaled" > "$dump" 2> "$err" || status=$?
[ "$status" = 2 ] && [ ! -s "$dump" ] && [ "$(wc -l < "$err")" -eq 1 ] \
    && grep -q '^error: Izmestiev matrix leaves float range' "$err" \
    || { echo "cube scaled by 1e200: analyze must exit 2 with one float-range line and no report"; exit 1; }
python -c "$scale" fixtures/rectangle.json 1e200 > "$scaled"
status=0
polysym experiment-metric "$scaled" > "$dump" 2> "$err" || status=$?
[ "$status" = 0 ] && [ ! -s "$err" ] \
    && [ "$(python -c 'import json, sys; print(json.load(sys.stdin)["metric_aut_order"])' < "$dump")" = 4 ] \
    || { echo "rectangle scaled by 1e200: experiment-metric must give order 4 with empty stderr"; exit 1; }
python -c "$scale" fixtures/square.json "$(python -c 'print(2.0 ** 511)')" > "$scaled"
status=0
polysym analyze "$scaled" > "$dump" 2> "$err" || status=$?
[ "$status" = 0 ] && [ ! -s "$err" ] \
    && [ "$(python -c "$orders" < "$dump")" = "{'linear': 8, 'orthogonal': 8}" ] \
    || { echo "square scaled by 2^511: analyze must give orders 8 and 8 with empty stderr"; exit 1; }
python -c "$scale" fixtures/square.json 1e-310 > "$scaled"
status=0
polysym oracle "$scaled" > "$dump" 2> "$err" || status=$?
[ "$status" = 0 ] && [ ! -s "$err" ] \
    || { echo "square scaled by 1e-310: oracle must exit 0 with empty stderr"; exit 1; }
python -c 'import json, sys
docs = [json.load(open(path)) for path in sys.argv[1:]]
sys.stdout.write(json.dumps(docs, sort_keys=True, indent=2) + "\n")' \
    tests/golden/analyze_cube.json tests/golden/analyze_octahedron.json > "$dump"
polysym analyze fixtures/cube.json fixtures/octahedron.json | cmp - "$dump" \
    || { echo "golden mismatch: cube and octahedron in one run"; exit 1; }
for f in fixtures/*.json; do
    [ "$f" = fixtures/k44_embedding.json ] && continue
    name=${f#fixtures/}; name=${name%.json}
    want=$(python -c "$orders" < "tests/golden/analyze_$name.json")
    scales="1e-6 1e6"
    # a 4-d matrix scales like s^-4 and leaves float range at 1e+-100
    [ "$(python -c "$dimension" < "$f")" -le 3 ] && scales="$scales 1e-100 1e100"
    for s in $scales; do
        python -c "$scale" "$f" "$s" > "$scaled"
        report=$(polysym analyze "$scaled") || { echo "analyze failed: $f scaled by $s"; exit 1; }
        [ "$(echo "$report" | python -c "$orders")" = "$want" ] \
            || { echo "group orders changed: $f scaled by $s"; exit 1; }
    done
    polysym validate "$f" > /dev/null || { echo "validate failed: $f"; exit 1; }
    polysym analyze "$f" \
        | python -c 'import json, sys; json.dump(json.load(sys.stdin)["matrix_summary"]["dump"], sys.stdout)' \
        > "$dump" || { echo "no matrix dump: $f"; exit 1; }
    polysym validate "$f" --matrix "$dump" > /dev/null || { echo "dump validate failed: $f"; exit 1; }
    for coloring in orbit-linear orbit-orthogonal; do
        polysym export-dot "$f" --coloring "$coloring" > /dev/null \
            || { echo "export-dot $coloring failed: $f"; exit 1; }
    done
    polysym experiment-metric "$f" > /dev/null || { echo "experiment-metric failed: $f"; exit 1; }
done

python -c 'import itertools, json, sys
verts = [[s if k == i else t if k == j else 0.0 for k in range(4)]
         for i, j in itertools.combinations(range(4), 2)
         for s, t in itertools.product((1.0, -1.0), repeat=2)]
json.dump({"dimension": 4, "name": "24-cell", "vertices": verts}, sys.stdout)' > "$cell"
polysym analyze "$cell" > "$dump" || { echo "analyze failed: 24-cell"; exit 1; }
[ "$(python -c "$orders" < "$dump")" = "{'linear': 1152, 'orthogonal': 1152}" ] \
    || { echo "group orders changed: 24-cell"; exit 1; }
python -c 'import json, sys; sys.stdout.write(json.dumps(json.load(sys.stdin), sort_keys=True, indent=2) + "\n")' \
    < "$dump" | cmp - "$dump" || { echo "24-cell report is not its own indent-2 re-dump"; exit 1; }
python -c 'import json, sys
import numpy as np
verts = np.array(json.load(open(sys.argv[1]))["vertices"])
for flavor, group in json.load(open(sys.argv[2]))["groups"].items():
    tol, members = group["tolerances"], group["members"]
    maps = np.array([m["matrix"] for m in members])
    images = verts[np.array([m["perm"] for m in members])]
    err = np.linalg.norm(verts @ maps.transpose(0, 2, 1) - images, axis=2)
    ok = len(members) == group["order"] and (err <= tol["match"] * np.linalg.norm(images, axis=2)).all()
    if flavor == "orthogonal":
        ok &= (np.abs(maps.transpose(0, 2, 1) @ maps - np.eye(verts.shape[1])) <= tol["orth"]).all()
    ok or sys.exit(f"24-cell {flavor} member fails its re-check")' "$cell" "$dump"

# vertex j's coordinate k - 1 is column j of the Helmert basis' row k
python -c 'import json, sys
verts = [[(1.0 if j < k else -k if j == k else 0.0) / (k * (k + 1)) ** 0.5 for k in range(1, 10)]
         for j in range(10)]
json.dump({"dimension": 9, "name": "9-simplex", "vertices": verts}, sys.stdout)' > "$cell"
status=0
polysym analyze "$cell" > "$dump" 2> "$err" || status=$?
[ "$status" = 4 ] && [ ! -s "$dump" ] && [ "$(wc -l < "$err")" -eq 1 ] && grep -q '^limit exceeded: ' "$err" \
    || { echo "9-simplex: analyze must exit 4 with one 'limit exceeded:' line and no report"; exit 1; }
status=0
polysym analyze --limit 5 fixtures/cube.json > /dev/null 2>&1 || status=$?
[ "$status" = 64 ] || { echo "analyze --limit must be a usage error (exit 64), not $status"; exit 1; }

python -c 'import json, sys
json.dump({"dimension": 2, "vertices": [["1", 0], [0, 1], [-1, -1]]}, sys.stdout)' > "$cell"
status=0
polysym analyze "$cell" > "$dump" 2> "$err" || status=$?
[ "$status" = 2 ] && [ ! -s "$dump" ] && [ "$(wc -l < "$err")" -eq 1 ] && grep -q '^error: ' "$err" \
    || { echo "string coordinate: analyze must exit 2 with one 'error:' line and no report"; exit 1; }
status=0
polysym analyze --eps-color -1 fixtures/cube.json > /dev/null 2>&1 || status=$?
[ "$status" = 64 ] || { echo "analyze --eps-color -1 must be a usage error (exit 64), not $status"; exit 1; }
