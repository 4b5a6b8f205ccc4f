#!/usr/bin/env bash
# Gate one benchmark run's virtual metrics against ci/virtual_baseline.json.
#
#   bash bench/run.sh --workload W --seed 1 --seconds 3 --trace 0 | tail -1 | bash ci/check_virtual.sh W
#
# stdin is the run's driver line. Each metric the baseline lists for W may
# be worse than its baseline value by at most the bound BENCHMARK.json
# declares for it (in the direction BENCHMARK.json calls worse); virtual
# metrics are exact for a seed, so anything else is a change of behaviour.
# A metric better than its baseline by more than the bound passes, with a
# note to re-pin the baseline so the next regression is measured from there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jq -n -r --arg w "$1" \
  --slurpfile base "$root/ci/virtual_baseline.json" \
  --slurpfile bench "$root/BENCHMARK.json" \
  --slurpfile run /dev/stdin '
  ($bench[0].end_to_end | map({key: .name, value: .}) | from_entries) as $decl
  | ($base[0].workloads[$w] // error("no baseline row for workload " + $w)) as $want
  | if $run[0].correct != true then error($w + ": the run reports wrong results") else . end
  | [ $want | to_entries[]
      | .key as $name | .value as $b | $decl[$name] as $d
      | ($run[0].metrics[$name].value // error($w + ": the run has no " + $name)) as $got
      | (if $d.better == "lower" then $got - $b else $b - $got end / $b) as $worse
      | {$name, $b, $got, $worse, bound: $d.bound} ]
  | (.[] | (if .worse > .bound then "FAIL" elif .worse < -.bound then "NOTE" else "ok  " end)
      + " \($w) \(.name): \(.got) vs baseline \(.b): \(.worse * 1000 | round / 10) % worse, bound \(.bound * 100) %"
      + (if .worse < -.bound then " — better by more than the bound: re-pin ci/virtual_baseline.json" else "" end)),
    (if any(.[]; .worse > .bound) then error($w + ": a virtual metric is worse than its baseline by more than its bound") else empty end)
'
