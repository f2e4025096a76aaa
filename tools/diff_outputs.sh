#!/usr/bin/env bash
# Byte-compare the deterministic outputs of the working tree against a base
# commit. Every other parity gate is relative (server vs sequential, batched
# vs not, 1 vs N threads), so a change that moves the numerics on both sides
# passes them all; this one compares against fixed outputs.
#
# Usage: tools/diff_outputs.sh <base-ref> [<work-dir>]
#
# The base commit is exported with git archive into <work-dir>/base; it and
# the working tree are built (Release, only the targets below) in
# <work-dir>/base-build and <work-dir>/head-build, and their outputs land in
# <work-dir>/out/{base,head}. <work-dir> defaults to a fresh temporary
# directory that is removed on exit; name one to keep the builds and rerun
# incrementally.
#
# Compared byte for byte:
#   - the examples: quickstart, transparent_sensing, link_adaptation,
#     parallel_sweep, link_server and warehouse_asset_tracking;
#   - the paper-figure and table benches (bench_fig*, bench_ablations,
#     bench_table1_capabilities, bench_datarate, bench_table_power);
#   - bench_sweep --sweep-json at 1 and 2 threads;
#   - the hash of the synthesized frame that bench_network --smoke prints
#     (skipped, with a note, when the base predates it).
# Two outputs are normalized first: link_server prints its per-link lines in
# worker order and a footer of measured stage times, so only the sorted
# "link N done" lines are compared; warehouse_asset_tracking's measured
# tags/s are stripped.
#
# Exit status: 0 when every output matches, 1 on any difference, 2 on a
# usage or build error.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <base-ref> [<work-dir>]" >&2
  exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") || {
  echo "$0: not a commit: $1" >&2
  exit 2
}
if [[ $# -eq 2 ]]; then
  work=$(mkdir -p "$2" && cd "$2" && pwd)
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
# Outputs must not depend on the caller's environment.
unset BIS_TRACE BISCATTER_BENCH_CSV_DIR

examples=(quickstart transparent_sensing link_adaptation parallel_sweep
          link_server warehouse_asset_tracking)
benches=(bench_fig05_beat_frequency bench_fig07_if_correction
         bench_fig10_11_delay_line bench_fig12_ber_symbol_size
         bench_fig13_ber_distance bench_fig14_ber_delay_line
         bench_fig15_uplink_snr bench_fig16_localization bench_fig17_mmwave
         bench_ablations bench_table1_capabilities bench_datarate
         bench_table_power)

# build <source-dir> <build-dir>
build() {
  echo "building $1" >&2
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "$(nproc)" --target "${examples[@]}" \
           "${benches[@]}" bench_sweep bench_network; } > "$2.log" 2>&1; then
    echo "$0: build of $1 failed; see $2.log" >&2
    exit 2
  fi
}

# run <build-dir> <out-dir>: every output as one file, with a nonzero exit
# status appended to it.
run() {
  local bin=$1 out=$2 name
  rm -rf "$out" && mkdir -p "$out"
  cd "$out"
  for name in "${examples[@]}"; do
    "$bin/examples/$name" > "$name.txt" 2>&1 || echo "exit $?" >> "$name.txt"
  done
  for name in "${benches[@]}"; do
    "$bin/bench/$name" > "$name.txt" 2>&1 || echo "exit $?" >> "$name.txt"
  done
  for name in 1 2; do
    "$bin/bench/bench_sweep" --sweep-json "bench_sweep_${name}t.json" \
      --sweep-threads "$name" > /dev/null 2>&1 ||
      echo "exit $?" >> "bench_sweep_${name}t.json"
  done
  "$bin/bench/bench_network" --smoke > bench_network.log 2>&1 || true
  grep '^smoke: frame' bench_network.log > bench_network_frame.txt || true
  rm bench_network.log
  grep 'link .* done' link_server.txt | sort > link_server.sorted || true
  mv link_server.sorted link_server.txt
  sed -E -i 's/[0-9]+ tags\/s/N tags\/s/' warehouse_asset_tracking.txt
  cd - > /dev/null
}

if [[ "$(cat "$work/base.sha" 2> /dev/null)" != "$base_sha" ]]; then
  rm -rf "$work/base" && mkdir -p "$work/base"
  git -C "$repo" archive "$base_sha" | tar -x -C "$work/base"
  echo "$base_sha" > "$work/base.sha"
fi
build "$work/base" "$work/base-build"
build "$repo" "$work/head-build"
run "$work/base-build" "$work/out/base"
run "$work/head-build" "$work/out/head"

status=0
for head in "$work"/out/head/*; do
  name=$(basename "$head")
  base=$work/out/base/$name
  if [[ $name == bench_network_frame.txt && ! -s $base ]]; then
    echo "note    $name: the base prints no frame hash; not compared"
  elif cmp -s "$base" "$head"; then
    echo "same    $name"
  else
    echo "DIFFERS $name"
    diff -u "$base" "$head" | head -n 20 || true
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "every output is byte-identical to ${base_sha:0:12}"
else
  echo "outputs differ from ${base_sha:0:12}" >&2
fi
exit $status
