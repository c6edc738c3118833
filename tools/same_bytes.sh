#!/bin/sh
# The determinism contract in one command: run the three builtin scenarios,
# demos/scenario_family_a.json, builtin families A and B on the
# benchmark's fine ladder (n = 15360, eps 0.0064 ... 0.0008) and on
# n = 122880 at eps 0.0001 (1.2-1.7 s and about 14 MB of files per run;
# each writes a densities.svg of 3 x 122880 points, the large-n byte check
# of the SVG writer's coordinate buffer), and family A on n = 769, whose
# cell 384 straddles b = 1/2 (a sweep that fails), with the sources of <base-rev> and with those of this working
# tree, each side reading the scenario file from its own checkout, and
# compare every file they write.  What each run prints (stdout and stderr, the side's output
# directory written <out>) is compared too, and so is its exit status, the
# last line of its <name>.txt, and what `metamap validate` prints for the
# three builtins and the scenario file.  Three calls compare only what they
# print and their exit status: `metamap markov --eps-lr 0.01 --eps-rl 0.03`,
# and two runs that the input checks refuse, `--grid 1` and
# `--eps 0.01,-0.001`.
# So are the steps: each call writes <name>.steps, one line per run of the
# power iteration kernel `spectral._iterate`, in order, naming the solver
# whose step it ran (`_second_pair`, `_corrected_step`, `_mass_step`,
# `escape_rate`) and its step count, or "raised" for a run that raised.
#
#   tools/same_bytes.sh <base-rev>
#
# <base-rev> is exported with `git archive` into a temporary directory,
# removed again on exit.  When a file differs, the diff is followed by one line per
# column (CSV) or key (JSON, list positions written []) of each differing
# CSV and JSON file: the largest relative move |a-b|/max(|a|,|b|) over its
# numeric values, the largest absolute move, and how many values differ.
# Each file's lines are ordered by absolute move, largest first, after the
# columns whose non-numeric values or value counts differ: a residual near
# zero, such as flux_gap, reads a large relative move for a rounding-level
# absolute one, and no longer heads the report.
# The exit status is that of `diff -r`: 0 for the same bytes, 1 when a file
# differs, 2 on trouble.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/out" || exit 2
git -C "$root" archive -o "$tmp/base.tar" "$1" || exit 2
tar -xf "$tmp/base.tar" -C "$tmp/base" || exit 2
# cli <name> <metamap arguments...>, with the sources of $top: what the call
# prints goes to <name>.txt, the side's output directory written <out>,
# followed by "exit <status>", and its kernel runs to <name>.steps.  A call
# that fails leaves its files missing or different, which diff reports below
traced_cli='
import sys
from metamap import cli, spectral
iterate = spectral._iterate
def traced(step, w, tol):
    solver = step.__qualname__.split(".")[0]
    try:
        out = iterate(step, w, tol)
    except Exception:
        print(solver, "raised", file=log)
        raise
    print(solver, out[1], file=log)
    return out
spectral._iterate = traced
with open(sys.argv[1], "w") as log:
    sys.exit(cli.main(sys.argv[2:]))
'
cli() {
    log=$tmp/out/$side/$1.txt
    steps=$tmp/out/$side/$1.steps
    shift
    PYTHONPATH=$top/src python3 -c "$traced_cli" "$steps" "$@" > "$log" 2>&1
    code=$?
    sed -i "s|$tmp/out/$side|<out>|g" "$log"
    echo "exit $code" >> "$log"
}
for side in base tree; do
    if [ "$side" = base ]; then top=$tmp/base; else top=$root; fi
    mkdir "$tmp/out/$side"
    for s in builtin:family_a builtin:family_b builtin:markov2 \
             "$top/demos/scenario_family_a.json"; do
        name=$(basename "${s#builtin:}" .json)
        cli "$name" run --scenario "$s" --out "$tmp/out/$side/$name"
        cli "validate_$name" validate --scenario "$s"
    done
    # the grid and eps ladder of the sweep_*_fine benchmark workloads
    for f in family_a family_b; do
        cli "${f}_fine" run --scenario "builtin:$f" --grid 15360 \
            --eps 0.0064,0.0032,0.0016,0.0008 --out "$tmp/out/$side/${f}_fine"
        # the largest grid of the test suite, which keeps the grid rule
        cli "${f}_122880" run --scenario "builtin:$f" --grid 122880 \
            --eps 0.0001 --out "$tmp/out/$side/${f}_122880"
    done
    cli family_a_straddling run --scenario builtin:family_a --grid 769 \
        --eps 0.02,0.01 --out "$tmp/out/$side/family_a_straddling"
    cli markov markov --eps-lr 0.01 --eps-rl 0.03
    cli refused_grid run --scenario builtin:family_a --grid 1 \
        --out "$tmp/out/$side/refused_grid"
    cli refused_eps run --scenario builtin:family_a --eps 0.01,-0.001 \
        --out "$tmp/out/$side/refused_eps"
done
diff -r "$tmp/out/base" "$tmp/out/tree"
status=$?
[ "$status" -eq 1 ] || exit "$status"
python3 - "$tmp/out/base" "$tmp/out/tree" <<'EOF'
import csv, filecmp, json, math, os, sys

base, tree = sys.argv[1:]


def columns(path):
    """{column or key: [values in file order]} of a CSV or JSON file."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            head, *rows = list(csv.reader(fh))
        return {h: [r[i] for r in rows if i < len(r)] for i, h in enumerate(head)}
    out = {}

    def walk(v, key):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{key}.{k}" if key else k)
        elif isinstance(v, list):
            for x in v:
                walk(x, key + "[]")
        else:
            out.setdefault(key, []).append(v)
    with open(path) as fh:
        walk(json.load(fh), "")
    return out


def number(v):
    if isinstance(v, bool) or v is None:
        return None
    try:
        return float(v)
    except ValueError:
        return None


print("largest move per column or key: relative, absolute, values that differ")
for top, _, files in sorted(os.walk(base)):
    for name in sorted(files):
        a = os.path.join(top, name)
        b = os.path.join(tree, os.path.relpath(a, base))
        if (not name.endswith((".csv", ".json")) or not os.path.exists(b)
                or filecmp.cmp(a, b, shallow=False)):
            continue
        ca, cb = columns(a), columns(b)
        lines = []
        for key in sorted(set(ca) | set(cb)):
            va, vb = ca.get(key, []), cb.get(key, [])
            differ = sum(x != y for x, y in zip(va, vb)) + abs(len(va) - len(vb))
            if not differ:
                continue
            rel = ab = 0.0
            note = ""
            for x, y in zip(va, vb):
                if x == y:
                    continue
                fx, fy = number(x), number(y)
                if fx is None or fy is None or not math.isfinite(fx - fy):
                    note = ", non-numeric or non-finite values differ"
                elif fx != fy:
                    d = abs(fx - fy)
                    rel, ab = max(rel, d / max(abs(fx), abs(fy))), max(ab, d)
            if len(va) != len(vb):
                note += f", {len(va)} values against {len(vb)}"
            lines.append((math.inf if note else ab,
                          f"  {os.path.relpath(a, base)} {key}: {rel:.2g}, {ab:.2g}, "
                          f"{differ} of {max(len(va), len(vb))}{note}"))
        # sorted is stable: equal moves keep the key order
        for _, line in sorted(lines, key=lambda t: -t[0]):
            print(line)
EOF
exit "$status"
