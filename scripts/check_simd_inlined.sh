#!/usr/bin/env bash
# Fails if BIN calls a `core::core_arch` function (a SIMD intrinsic) out
# of line. The one exception is `_xgetbv`, which std's feature detection
# calls.
#
#   scripts/check_simd_inlined.sh target/release/spinfer
#
# Every SIMD body runs inside `gpu_sim::cpu::Simd::vectorize`, and each
# caller passes it an `#[inline(always)]` closure, so the intrinsics
# inline into the copy compiled with the features. A closure left out of
# line is compiled without them, and then every intrinsic it reaches is
# a call: the bits stay the same, but the body runs many times slower.
# Needs `objdump` (binutils).
set -euo pipefail

BIN="${1:?usage: $0 BIN}"
calls=$(objdump -dC "$BIN" | { grep -E '\s(call|jmp)\s.*<core::core_arch::' || true; } |
  { grep -v '<core::core_arch::x86::xsave::_xgetbv>' || true; })
if [ -n "$calls" ]; then
  echo "$BIN calls SIMD intrinsics out of line:" >&2
  sed -E 's/.*<(.*)>.*/\1/' <<<"$calls" | sort | uniq -c >&2
  exit 1
fi
echo "$BIN: no out-of-line SIMD intrinsic call"
