#!/usr/bin/env bash
# Check one `go test -json` run against the tests ci/tripwires.txt lists for it.
#
#   go test -race -count=1 -json ./internal/... . > race.out || status=$?
#   bash ci/check_tripwires.sh race race.out
#
# The first argument names the run (the first column of ci/tripwires.txt),
# the second is the run's JSON output. The check prints each package's
# summary line, then the output of every test, package and build that
# failed, and fails if any did, or if a test listed for the run has no pass
# event: renamed away, skipped, failing or never run. It names each such
# test. Run go test with -count=1: a result restored from Go's test cache
# must not stand in for a run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
run=$1 out=$2

listed=$(awk -v run="$run" '$1 == run && NF >= 3 {print $2, $3}' "$root/ci/tripwires.txt" | sort -u)
if [ -z "$listed" ]; then
  echo "ci/tripwires.txt lists no test for the run \"$run\"" >&2
  exit 1
fi

# Each package's ok / FAIL / no-test-files line, as plain go test prints it.
jq -j 'select(.Action == "output" and .Test == null and (.Output | test("^(ok|FAIL|\\?)\\s"))) | .Output' "$out"

# The output of every failed test, failed package and failed build.
failures=$(jq -jn '
  [inputs] as $ev
  | ($ev | map(select(.Action == "fail") | {key: "\(.Package) \(.Test)", value: true}) | from_entries) as $failed
  | $ev[]
  | select((.Action == "output" and $failed["\(.Package) \(.Test)"]) or .Action == "build-output")
  | .Output' "$out")
status=0
if [ -n "$failures" ]; then
  printf -- '--- output of what failed\n%s\n' "$failures"
  status=1
fi

# Every test listed for this run must have passed.
missing=$(comm -23 <(echo "$listed") \
  <(jq -r 'select(.Action == "pass" and .Test != null) | "\(.Package) \(.Test)"' "$out" | sort -u))
if [ -n "$missing" ]; then
  echo "tripwires of the $run run that did not pass (ci/tripwires.txt):" >&2
  echo "$missing" | sed 's/^/  /' >&2
  exit 1
fi
echo "all $(echo "$listed" | wc -l) tripwires of the $run run passed"
exit "$status"
