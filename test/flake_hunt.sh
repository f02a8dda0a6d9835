#!/bin/sh
# Flake hunt: run the network suites ROUNDS times, each round with fresh
# seeds derived from RUN_ID and the round number, and stop at the first
# red suite with its seeds and the tail of its log. A suite that fails
# one run in N is a bug, not noise.
#
#   dune build && sh test/flake_hunt.sh [RUN_ID] [ROUNDS]
set -eu
run_id=${1:-$(date +%s)}
rounds=${2:-20}
bin=_build/default/test
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
round=1
while [ "$round" -le "$rounds" ]; do
  seed=$(( (run_id % 1000000) * 100 + round ))
  echo "round $round/$rounds: CHAOS_SEED=$seed SHARD_CRASH_SEED=$seed GROUP_COMMIT_SEED=$seed SNAPSHOT_SEED=$seed"
  for suite in test_repl test_server test_shard test_chaos_matrix \
               test_group_commit test_snapshot_reads; do
    if ! CHAOS_SEED=$seed SHARD_CRASH_SEED=$seed GROUP_COMMIT_SEED=$seed \
         SNAPSHOT_SEED=$seed "$bin/$suite.exe" > "$logs/$suite.log" 2>&1; then
      echo "FAILED: $suite in round $round (seed $seed)"
      tail -n 60 "$logs/$suite.log"
      exit 1
    fi
  done
  round=$((round + 1))
done
echo "flake hunt: $rounds rounds green"
