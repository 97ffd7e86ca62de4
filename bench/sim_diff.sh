#!/usr/bin/env bash
# Check that this tree's simulated figures are identical to revision REV's.
#
#     bench/sim_diff.sh REV
#
# Exports REV into a temporary directory and builds it there, then runs,
# for both trees, the CI smoke selection (bench.json and the Chrome trace
# export) and the four altbench workloads at seeds 8000, 8101 and 8202
# (--seconds 0 --trace 0). The bench files must be byte-identical; from
# each altbench run the fingerprint, correct/attempted/failed and every
# sim_* metric must agree (host metrics vary run to run). Exits 0 when
# everything agrees, 1 on any difference, 2 on a usage or build error.
#
# A change that claims no simulated effect -- a host-time speedup, a
# refactor -- should pass against its parent; one that re-baselines
# simulated numbers is expected to fail and to say why.
set -euo pipefail

rev=${1:?usage: bench/sim_diff.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base" || {
  echo "sim_diff: cannot export $rev" >&2
  exit 2
}

smoke="e1 e4 e6 e14 e15 e16 e17 e18 e19 e20 e21 e22"

# run TREE OUT: the smoke selection and the altbench runs, pinned figures only.
run() {
  local tree=$1 out=$2 w seed
  mkdir -p "$out"
  (cd "$tree" && dune build --root . bench/main.exe altbench/main.exe >&2) || {
    echo "sim_diff: build failed in $tree" >&2
    exit 2
  }
  (cd "$tree" && dune exec --root . bench/main.exe -- $smoke \
    --json "$out/bench.json" --trace "$out/trace.json" >/dev/null)
  for seed in 8000 8101 8202; do
    for w in session scavenge serve rebuild; do
      python3 "$tree/altbench/run.py" --workload "$w" --seed "$seed" --seconds 0 --trace 0 \
        2>/dev/null | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
d = json.loads(lines[-1])
print(sys.argv[1], [l for l in lines if l.startswith("fingerprint ")])
print(" ", {k: d[k] for k in ("correct", "attempted", "failed")})
for k, m in sorted(d["metrics"].items()):
    if k.startswith("sim_"):
        print(" ", k, m["value"])
' "$w seed $seed" >>"$out/altbench.txt"
    done
  done
}

echo "sim_diff: running $rev" >&2
run "$tmp/base" "$tmp/out-base"
echo "sim_diff: running the working tree" >&2
run "$root" "$tmp/out-here"

status=0
for f in bench.json trace.json; do
  if cmp -s "$tmp/out-base/$f" "$tmp/out-here/$f"; then
    echo "same  smoke $f"
  else
    echo "DIFF  smoke $f"
    status=1
  fi
done
if diff "$tmp/out-base/altbench.txt" "$tmp/out-here/altbench.txt"; then
  echo "same  altbench: 4 workloads x 3 seeds"
else
  echo "DIFF  altbench (< $rev, > working tree)"
  status=1
fi
exit $status
