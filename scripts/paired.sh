#!/usr/bin/env bash
# Paired host-clock perfbench runs: a base revision against HEAD.
#
#   scripts/paired.sh BASE_REV --workload W --seed S --pairs N
#
# The change is HEAD, and the tree must be clean: no modified, staged or
# untracked file, so every verdict names two commits that reproduce it.
# Extracts BASE_REV with `git archive` into target/paired/<sha>/ and
# builds perfbench there and in the working tree. Each pair runs both
# sides once, each for BENCHMARK.json's `run_seconds` of timed ops; odd
# pairs run the base first, even pairs the change. For each end-to-end
# metric it prints both sides' medians and quartiles, how many pairs
# the change won (in the metric's direction, from BENCHMARK.json),
# whether the medians differ by more than the base's interquartile
# range, and the claim that makes: `better` (or `worse`) when the
# medians differ by more than that and the change won (or lost) at
# least 90 % of the pairs, else `none`.
#
# It fails when a simulated metric (`sim_*`, `weight_bytes_ratio`)
# differs between any two runs, or when either side reports
# `correct: false`. It refuses a seed that BENCH_host.json
# already lists, so every verdict is on a seed not used before; on
# success it appends the verdict there. A verdict whose base is HEAD
# itself is a self-check of the host's noise and is marked
# `"self_check": true`. Shared hosts are noisy: run it on a quiet
# machine, never in CI.
set -euo pipefail

usage() {
  echo "usage: $0 BASE_REV --workload W --seed S --pairs N" >&2
  exit 2
}
[ $# -ge 1 ] || usage
base_rev=$1
shift
workload='' seed='' pairs=''
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ -n $workload && $seed =~ ^[0-9]+$ && $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
record=BENCH_host.json
used=$({
  grep -o '"retired_seeds": \[[^]]*\]' "$record" | grep -oE '[0-9]+' || true
  grep -oE '"seed": [0-9]+' "$record" | grep -oE '[0-9]+$' || true
} | sort -u)
if grep -qx "$seed" <<<"$used"; then
  echo "seed $seed is already listed in $record: pick one not used before" >&2
  exit 1
fi

if [ -n "$(git status --porcelain)" ]; then
  echo "the working tree has changes or untracked files: commit or remove them first" >&2
  exit 1
fi
seconds=$(grep -oE '"run_seconds": [0-9]+' BENCHMARK.json | grep -oE '[0-9]+$')
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
change_sha=$(git rev-parse HEAD)
base_dir=target/paired/$base_sha
if [ ! -d "$base_dir" ]; then
  rm -rf "$base_dir.tmp"
  mkdir -p "$base_dir.tmp"
  git archive "$base_sha" | tar -x -C "$base_dir.tmp"
  mv "$base_dir.tmp" "$base_dir"
fi
for dir in "$base_dir" .; do
  cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
incorrect=0
# Appends "side pair metric value" lines, the probe median among them.
run() {
  local side=$1 dir=$2 pair=$3 json probe
  if ! "$dir/perfbench/target/release/perfbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 >"$tmp/out" 2>"$tmp/err"; then
    echo "perfbench failed on the $side side:" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
  json=$(tail -n 1 "$tmp/out")
  if ! grep -q '"correct": true' <<<"$json"; then
    echo "the $side side reports correct: false in pair $pair" >&2
    incorrect=1
  fi
  probe=$(grep -oE 'reference kernel p50 [0-9.]+' "$tmp/err" | grep -oE '[0-9.]+$')
  {
    grep -oE '"[a-z0-9_.]+": \{"value": [^,]+' <<<"$json" |
      sed -E "s/^\"([^\"]+)\": \\{\"value\": (.*)\$/$side $pair \\1 \\2/"
    echo "$side $pair probe_s $probe"
  } >>"$tmp/metrics"
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="base change"; else order="change base"; fi
  for side in $order; do
    if [ "$side" = base ]; then run base "$base_dir" "$i"; else run change . "$i"; fi
  done
  echo "pair $i/$pairs done (first: ${order%% *})" >&2
done

# "name better" for every metric BENCHMARK.json declares.
directions=$(grep -oE '"name": "[^"]+", "unit": "[^"]*", "better": "(lower|higher)"' BENCHMARK.json |
  sed -E 's/"name": "([^"]+)".*"better": "([a-z]+)"/\1 \2/')
verdict=$(awk -v dirs="$directions" -v base="$base_sha" -v change="$change_sha" \
  -v workload="$workload" -v seed="$seed" -v pairs="$pairs" -v seconds="$seconds" '
  function sorted(side, name, out,   i, j, n, t) {
    n = 0
    for (i = 1; i <= pairs; i++) out[++n] = val[side, name, i] + 0
    for (i = 2; i <= n; i++) {
      t = out[i]
      for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]
      out[j + 1] = t
    }
    return n
  }
  # Linear interpolation between order statistics.
  function quantile(a, n, p,   h, l) {
    h = (n - 1) * p + 1
    l = int(h)
    return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
  }
  function stats(side, name, s,   a, n) {
    n = sorted(side, name, a)
    s["q1"] = quantile(a, n, 0.25); s["med"] = quantile(a, n, 0.5); s["q3"] = quantile(a, n, 0.75)
  }
  BEGIN {
    n = split(dirs, d, /[ \n]/)
    for (i = 1; i < n; i += 2) better[d[i]] = d[i + 1]
  }
  {
    if (!(($3) in seen)) { seen[$3] = 1; names[++count] = $3 }
    val[$1, $3, $2] = $4
  }
  END {
    printf "%-20s %-34s %-34s %8s %6s %-7s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "> IQR", "claim" > "/dev/stderr"
    json = ""
    sim_ok = 1
    for (k = 1; k <= count; k++) {
      name = names[k]
      if (name ~ /^(sim_.*|weight_bytes_ratio)$/) {
        for (i = 1; i <= pairs; i++)
          if (val["base", name, i] != val["base", name, 1] || val["change", name, i] != val["base", name, 1]) {
            printf "%s differs between runs: base %s, change %s (pair %d)\n", name, val["base", name, i], val["change", name, i], i > "/dev/stderr"
            sim_ok = 0
          }
        printf "%-20s %-34s %-34s %8s %6s %-7s %s\n", name, val["base", name, 1], val["change", name, 1], "", "", "", "(simulated)" > "/dev/stderr"
        continue
      }
      dir = (name in better) ? better[name] : "lower"
      stats("base", name, b); stats("change", name, c)
      wins = losses = 0
      for (i = 1; i <= pairs; i++) {
        step = val["change", name, i] - val["base", name, i]
        if (dir == "higher") step = -step
        if (step < 0) wins++
        if (step > 0) losses++
      }
      gap = c["med"] - b["med"]
      beyond = (gap < 0 ? -gap : gap) > b["q3"] - b["q1"] ? "yes" : "no"
      claim = beyond == "no" || name == "probe_s" ? "none" : wins >= 0.9 * pairs ? "better" : losses >= 0.9 * pairs ? "worse" : "none"
      rel = b["med"] != 0 ? sprintf("%+.1f%%", 100 * gap / b["med"]) : "n/a"
      printf "%-20s %-34s %-34s %8s %3d/%-2d %-7s %s\n", name,
        sprintf("%.4g [%.4g, %.4g]", b["med"], b["q1"], b["q3"]),
        sprintf("%.4g [%.4g, %.4g]", c["med"], c["q1"], c["q3"]), rel, wins, pairs, beyond,
        name == "probe_s" ? "(host speed)" : claim > "/dev/stderr"
      json = json sprintf("%s\"%s\": {\"better\": \"%s\", \"base\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"wins\": %d, \"beyond_base_iqr\": %s, \"claim\": \"%s\"}",
        json == "" ? "" : ", ", name, dir, b["q1"], b["med"], b["q3"], c["q1"], c["med"], c["q3"], wins,
        beyond == "yes" ? "true" : "false", claim)
    }
    if (!sim_ok) exit 1
    printf "{\"base\": \"%s\", \"change\": \"%s\", \"self_check\": %s, \"workload\": \"%s\", \"seed\": %d, \"pairs\": %d, \"seconds\": %s, \"quartiles\": \"q1, median, q3\", \"metrics\": {%s}}\n",
      base, change, base == change ? "true" : "false", workload, seed, pairs, seconds, json
  }' "$tmp/metrics") || {
  echo "a simulated metric moved: the sides do not compute the same thing" >&2
  exit 1
}
if [ "$incorrect" -ne 0 ]; then
  exit 1
fi

{
  sed -n '1,/"verdicts": \[/p' "$record"
  { grep -E '^    \{' "$record" | sed -E 's/,$//' || true; echo "    $verdict"; } | sed -E '$!s/$/,/'
  printf '  ]\n}\n'
} >"$tmp/record"
mv "$tmp/record" "$record"
echo "verdict appended to $record" >&2
