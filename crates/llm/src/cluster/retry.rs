//! Retry policy: capped exponential backoff with deterministic jitter.
//!
//! The backoff schedule is a pure function of `(policy, seed, request,
//! attempt)` — no RNG state — so a retried request fires at the same
//! simulated instant at any host job count, and a property test can pin
//! monotonicity and the cap over the whole attempt range.

use super::fault::ClusterFaultPlan;

/// Per-request retry behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Master switch; `false` turns every failure terminal.
    pub enabled: bool,
    /// Total attempts per request, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff_sec: f64,
    /// Ceiling on the nominal (pre-jitter) backoff.
    pub backoff_cap_sec: f64,
    /// Jitter amplitude: the drawn backoff is `nominal * (1 + frac*u)`
    /// with `u ∈ [0, 1)` drawn deterministically per (request, attempt).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: true,
            max_attempts: 4,
            base_backoff_sec: 0.05,
            backoff_cap_sec: 2.0,
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy with retries off — the no-resilience baseline.
    pub fn disabled() -> Self {
        RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        }
    }

    /// Nominal (pre-jitter) backoff before attempt `attempt + 1`, given
    /// that `attempt` attempts have failed: `min(base * 2^(attempt-1),
    /// cap)`. Monotone non-decreasing in `attempt` and capped.
    pub fn nominal_backoff_sec(&self, attempt: u32) -> f64 {
        let doublings = attempt.saturating_sub(1).min(62);
        let nominal = self.base_backoff_sec * (1u64 << doublings) as f64;
        nominal.min(self.backoff_cap_sec)
    }

    /// The drawn backoff: nominal, scaled up by deterministic jitter.
    /// Bounded by `cap * (1 + jitter_frac)`.
    pub fn backoff_sec(&self, seed: u64, request_id: u64, attempt: u32) -> f64 {
        let u = ClusterFaultPlan::jitter_u01(seed, request_id, attempt);
        self.nominal_backoff_sec(attempt) * (1.0 + self.jitter_frac * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_backoff_doubles_then_caps() {
        let p = RetryPolicy {
            base_backoff_sec: 0.1,
            backoff_cap_sec: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.nominal_backoff_sec(1), 0.1);
        assert_eq!(p.nominal_backoff_sec(2), 0.2);
        assert_eq!(p.nominal_backoff_sec(3), 0.4);
        assert_eq!(p.nominal_backoff_sec(4), 0.8);
        assert_eq!(p.nominal_backoff_sec(5), 1.0);
        assert_eq!(p.nominal_backoff_sec(40), 1.0);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for req in 0..32u64 {
            for attempt in 1..=8u32 {
                let b = p.backoff_sec(5, req, attempt);
                assert_eq!(b, p.backoff_sec(5, req, attempt));
                let nominal = p.nominal_backoff_sec(attempt);
                assert!(b >= nominal);
                assert!(b < nominal * (1.0 + p.jitter_frac));
            }
        }
    }
}
