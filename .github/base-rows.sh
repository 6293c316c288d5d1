#!/usr/bin/env bash
# Report, for every CSV of the three config sets of the "Configs" step, whether the base commit
# writes the same bytes: `same`, `differs`, `only in this tree` (the base has no such config) or
# `base cannot run it`. Run it from the repository root after that step, with the base commit as
# the argument:
#
#     bash .github/base-rows.sh <base-commit>
#
# The base runs its own copy of each config set (its `configs/` and the sets its
# `perfbench/workloads.py` writes) from a worktree under `base-tree/`. The report goes to
# $GITHUB_STEP_SUMMARY, or to stdout outside CI. It only reports: the exit status is always 0.
set -u
base=$1
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
sets="configs:ergonil-out seminorm-configs:seminorm-out bench-configs:bench-out"
id_of() { python -c 'import json, sys; print(json.load(open(sys.argv[1]))["id"])' "$1" 2>/dev/null; }

git worktree remove --force base-tree 2>/dev/null
if ! git worktree add --detach base-tree "$base" > /dev/null 2>&1; then
  echo "Rows against the base commit: cannot check out $base" >> "$summary"
  exit 0
fi
(cd base-tree && python -c "import sys; from pathlib import Path; sys.path.insert(0, 'perfbench'); import workloads; [workloads.write_configs(w, 0, Path('.'), Path(d), tiny=True) for w, d in (('seminorm_boxes', 'seminorm-configs'), ('orbit_weights', 'bench-configs'), ('sweep_peaked', 'bench-configs'))]") > /dev/null 2>&1 \
  || echo "The base cannot write the benchmark config sets: their CSVs read 'only in this tree'." >> "$summary"
{
  echo "Rows against the base commit $(git rev-parse --short "$base"):"
  echo '```'
  for set in $sets; do
    dir=${set%:*} out=${set#*:}
    for f in "$dir"/*.json; do
      csv=$out/$(id_of "$f").csv
      if [ ! -f "base-tree/$f" ]; then
        status="only in this tree"
      elif ! (cd base-tree && PYTHONPATH=src python -m ergonil run --config "$f" --out "$out" > /dev/null 2>&1); then
        status="base cannot run it"
      elif cmp -s "$csv" "base-tree/$out/$(id_of "base-tree/$f").csv"; then
        status="same"
      else
        status="differs"
      fi
      echo "$status: $csv"
    done
  done
  echo '```'
} >> "$summary"
git worktree remove --force base-tree
exit 0
