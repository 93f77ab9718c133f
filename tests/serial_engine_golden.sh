#!/usr/bin/env bash
# Golden-output harness for the serial (single-EventLoop) cluster engine.
#
# serial_parallel_identity.sh compares the parallel engine against itself
# across thread counts; this script pins the default serial engine instead.
# It runs each demo with its default engine and diffs stdout and the stats
# JSON against the committed files in tests/golden/<demo>/. Any byte of
# drift in event order, span minting or fault timing on the serial path
# shows up here. stderr carries wall-clock noise and is captured but not
# diffed.
#
# Usage: serial_engine_golden.sh <golden_dir> <workdir> <cluster_demo> \
#            <failure_demo> <scan_demo>
#
# To re-capture after an intended output change, run the demos the same way
# (in an empty directory, --stats-json=stats.json) and copy stdout.txt and
# stats.json into tests/golden/<demo>/.

set -u

if [ $# -ne 5 ]; then
  echo "usage: $0 <golden_dir> <workdir> <cluster_demo> <failure_demo> <scan_demo>" >&2
  exit 2
fi

GOLDEN=$1
WORK=$2
CLUSTER_DEMO=$3
FAILURE_DEMO=$4
SCAN_DEMO=$5

failures=0

# check <name> <binary> [extra demo flags...]
# Runs the binary in its own scratch directory with a relative stats path
# (paths are echoed into stdout, so they must match the capture), then
# diffs both artifacts against the goldens.
check() {
  local name=$1 bin=$2
  shift 2
  local dir="$WORK/$name"
  rm -rf "$dir"
  mkdir -p "$dir"
  (cd "$dir" &&
    "$bin" --stats-json=stats.json "$@" >stdout.txt 2>stderr.txt)
  local rc=$?
  if [ $rc -ne 0 ]; then
    echo "FAIL: $name exited $rc" >&2
    sed 's/^/    /' "$dir/stderr.txt" >&2
    failures=$((failures + 1))
    return
  fi
  local ok=1
  for f in stdout.txt stats.json; do
    local want="$GOLDEN/$name/$f"
    if ! diff -q "$want" "$dir/$f" >/dev/null; then
      echo "FAIL: $name: $f differs from $want" >&2
      diff "$want" "$dir/$f" | head -20 >&2
      failures=$((failures + 1))
      ok=0
    fi
  done
  if [ $ok -eq 1 ]; then
    echo "OK: $name matches its serial-engine golden"
  fi
}

check cluster "$CLUSTER_DEMO"
check failure "$FAILURE_DEMO" --seed=7
check scan "$SCAN_DEMO"

if [ "$failures" -ne 0 ]; then
  echo "$failures golden check(s) failed" >&2
  exit 1
fi
echo "all serial-engine demos match their goldens"
