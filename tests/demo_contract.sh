#!/usr/bin/env bash
# Demo-contract harness: checks one (demo, contract) pair per invocation, so
# ctest registers each pair as its own entry and runs them side by side.
#
# Contracts:
#   golden    Runs the demo once on its default (serial) engine and requires
#             stdout and the stats JSON to match tests/golden/<name>/ byte
#             for byte. Any drift in event order, span minting or fault
#             timing on the serial path shows up here.
#   identity  Runs the demo on the parallel epoch engine at the same RPC
#             latency with --sim-threads=1 and --sim-threads=3, and requires
#             stdout, the stats JSON and (where produced) the --trace-json
#             export to be byte-identical: the thread count may change only
#             wall-clock time, never simulation output.
# stderr carries wall-clock noise by convention; it is captured, not diffed.
#
# Usage: demo_contract.sh <golden|identity> <workdir> <name> <demo> \
#            [demo flags...]
#
# Artifacts are written under relative names in a fresh directory per run
# (paths are echoed into stdout, so they must match across runs and the
# capture). To re-capture a golden after an intended output change, run the
# demo that way (in an empty directory, --stats-json=stats.json plus the
# entry's flags) and copy stdout.txt and stats.json into tests/golden/<name>/.

set -u

if [ $# -lt 4 ]; then
  echo "usage: $0 <golden|identity> <workdir> <name> <demo> [demo flags...]" >&2
  exit 2
fi

CONTRACT=$1
WORK=$2/$3.$1
NAME=$3
DEMO=$4
shift 4
GOLDEN="$(cd "$(dirname "$0")" && pwd)/golden/$NAME"

artifacts=(stdout.txt stats.json)
for flag in "$@"; do
  case "$flag" in
    --trace-json=*) artifacts+=("${flag#--trace-json=}") ;;
  esac
done

# run <dir> <demo flags...>: runs the demo in a fresh <dir>; a non-zero exit
# fails the check with the demo's stderr.
run() {
  local dir=$1
  shift
  rm -rf "$dir"
  mkdir -p "$dir"
  if ! (cd "$dir" && "$DEMO" "$@" >stdout.txt 2>stderr.txt); then
    echo "FAIL: $NAME $* exited non-zero" >&2
    sed 's/^/    /' "$dir/stderr.txt" >&2
    exit 1
  fi
}

# compare <want_dir> <got_dir> <what>: diffs every artifact.
failures=0
compare() {
  local f
  for f in "${artifacts[@]}"; do
    if ! cmp -s "$1/$f" "$2/$f"; then
      echo "FAIL: $NAME: $f differs ($3)" >&2
      diff "$1/$f" "$2/$f" | head -20 >&2
      failures=$((failures + 1))
    fi
  done
}

case "$CONTRACT" in
  golden)
    run "$WORK" --stats-json=stats.json "$@"
    compare "$GOLDEN" "$WORK" "against $GOLDEN"
    ;;
  identity)
    for t in 1 3; do
      run "$WORK/t$t" --sim-threads="$t" --rpc-latency-us=50 \
        --stats-json=stats.json "$@"
    done
    compare "$WORK/t1" "$WORK/t3" "--sim-threads=1 vs =3"
    ;;
  *)
    echo "unknown contract '$CONTRACT' (golden|identity)" >&2
    exit 2
    ;;
esac

if [ "$failures" -ne 0 ]; then
  exit 1
fi
echo "OK: $NAME meets its $CONTRACT contract (${artifacts[*]})"
