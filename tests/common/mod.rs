//! Helpers shared by the integration test crates (`mod common;`).

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    gpu_sim::counters::fnv1a64(bytes.iter().copied())
}

/// Absolute pins: each `(what, text, pinned)` must hash to `pinned`.
/// Every mismatch is reported with its new digest, so a deliberate
/// change re-pins in one edit.
pub fn assert_pinned(pins: &[(&str, &str, u64)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|&(what, text, pinned)| {
            let got = fnv1a(text.as_bytes());
            (got != pinned).then(|| format!("{what}: now {got:#018x} (pinned {pinned:#018x})"))
        })
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
