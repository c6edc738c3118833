#!/bin/sh
# The determinism contract in one command: run the three builtin scenarios
# and demos/scenario_family_a.json with the sources of <base-rev> and with
# those of this working tree, each side reading the scenario file from its
# own checkout, and compare every file they write.
#
#   tools/same_bytes.sh <base-rev>
#
# <base-rev> is checked out into a temporary detached worktree, removed
# again on exit.  The exit status is that of `diff -r`: 0 for the same
# bytes, 1 when a file differs, 2 on trouble.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d) || exit 2
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/base" "$1" || exit 2
for side in base tree; do
    if [ "$side" = base ]; then top=$tmp/base; else top=$root; fi
    for s in builtin:family_a builtin:family_b builtin:markov2 \
             "$top/demos/scenario_family_a.json"; do
        # a run that fails leaves its files missing or different, which
        # diff reports below
        PYTHONPATH=$top/src python3 -m metamap.cli run --scenario "$s" \
            --out "$tmp/out/$side/$(basename "${s#builtin:}" .json)" > /dev/null
    done
done
diff -r "$tmp/out/base" "$tmp/out/tree"
