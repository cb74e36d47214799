#!/usr/bin/env bash
# Fails if BIN breaks the one-region rule of `gpu_sim::cpu`:
#
#   scripts/check_simd_inlined.sh target/release/spinfer
#
# Each entry point enters `gpu_sim::cpu::Simd::vectorize` once, with an
# `#[inline(always)]` closure, and every body below it is always inlined
# into that one copy compiled with the features (`with_features`). Three
# ways to break that compute the same bits and run slower, so only this
# check sees them:
#
# 1. a call to a `core::core_arch` function (a SIMD intrinsic) out of
#    line: an intrinsic reached from code compiled without the features
#    (std's `_xgetbv`, which feature detection calls, is the exception);
# 2. a `with_features` copy that reaches another `with_features` copy,
#    directly or through functions compiled without the features: a body
#    that enters `vectorize` again, so the regions nest;
# 3. an out-of-line copy of a body that has no capability parameter (the
#    generator walks, the f32 -> f16 converter, the TCA-BME encode and
#    INT8 quantize workers): it calls no intrinsic, so (1) cannot see it,
#    but a copy of its own is compiled without the features.
#
# Needs `objdump` (binutils).
set -euo pipefail

BIN="${1:?usage: $0 BIN}"
dis=$(mktemp)
trap 'rm -f "$dis"' EXIT
objdump -dC "$BIN" >"$dis"
fail=0

calls=$({ grep -E '\s(call|jmp)\s.*<core::core_arch::' "$dis" || true; } |
  { grep -v '<core::core_arch::x86::xsave::_xgetbv>' || true; })
if [ -n "$calls" ]; then
  echo "$BIN calls SIMD intrinsics out of line:" >&2
  sed -E 's/.*<(.*)>.*/\1/' <<<"$calls" | sort | uniq -c >&2
  fail=1
fi

# Calls go direct or through a GOT slot; `objdump -R` maps each slot to
# its target. A region nests when a `with_features` copy reaches another
# one, directly or through functions compiled without the features.
nested=$(objdump -R "$BIN" | awk '
  FNR == NR {
    if ($2 == "R_X86_64_RELATIVE") { slot = $1; sub(/^0*/, "", slot); t = $3; sub(/^\*ABS\*\+0x0*/, "", t); got[slot] = t }
    next
  }
  /^[0-9a-f]+ <.*>:$/ {
    cur = $1; sub(/^0*/, "", cur)
    name[cur] = substr($0, index($0, "<") + 1); sub(/>:$/, "", name[cur])
    next
  }
  /\t(call|jmp) / {
    t = ""
    if (match($0, /# [0-9a-f]+ </)) { slot = substr($0, RSTART + 2, RLENGTH - 4); sub(/^0*/, "", slot); t = got[slot] }
    else if (match($0, /\t(call|jmp) +[0-9a-f]+ </)) { t = substr($0, RSTART, RLENGTH - 2); sub(/^\t(call|jmp) +/, "", t); sub(/^0*/, "", t) }
    if (t != "" && t != cur) edges[cur] = edges[cur] " " t
  }
  END {
    for (f in name) {
      if (name[f] != "gpu_sim::cpu::with_features") continue
      delete seen; n = split(edges[f], queue, " "); head = 1
      while (head <= n) {
        g = queue[head++]
        if (g in seen || !(g in name)) continue
        seen[g] = 1
        if (name[g] == "gpu_sim::cpu::with_features") { print "with_features@" f " reaches with_features@" g; continue }
        m = split(edges[g], more, " ")
        for (i = 1; i <= m; i++) queue[++n] = more[i]
      }
    }
  }' - "$dis" | sort)
if [ -n "$nested" ]; then
  echo "$BIN nests vectorize regions:" >&2
  echo "$nested" >&2
  fail=1
fi

bodies='gpu_sim::matrix::(fill_dense|fill_sparse_chunks|scan_sparse)|gpu_sim::fp16::(f32_to_f16_slice|f16_bits_from_f32_bits_rne|widen)|spinfer_core::tca_bme::(build_band_bitmaps|fill_band_values|build_gtile_bitmaps|fill_gtile_values|bt_bitmap_interior|bt_bitmap_edge|quantize_spans|span_scale|quantize_codes)'
copies=$({ grep -E "^[0-9a-f]+ <($bodies)(::<.*>)?>:$" "$dis" || true; })
if [ -n "$copies" ]; then
  echo "$BIN holds out-of-line copies of always-inlined SIMD bodies:" >&2
  sed -E 's/^[0-9a-f]+ <(.*)>:$/\1/' <<<"$copies" | sort | uniq -c >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "$BIN: no out-of-line SIMD intrinsic call, no nested vectorize region, no out-of-line SIMD body"
