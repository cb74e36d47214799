//! Deterministic, seeded fault injection.
//!
//! Production serving stacks treat silent memory corruption as a
//! first-class failure mode; this module gives the simulator the same
//! vocabulary. A [`FaultPlan`] describes *where* faults may strike
//! (per-site rates; a zero rate disables a site) and a [`FaultInjector`]
//! turns the plan into concrete, reproducible decisions:
//!
//! * **Global-load bit flips** — one bit of a loaded word inverted
//!   ([`FaultInjector::bitflip`]), modelling an uncorrected DRAM error.
//! * **`cp.async` commit faults** — a committed `LDGSTS.128` group is
//!   corrupted or dropped entirely ([`FaultInjector::commit_fault`]),
//!   modelling a lost or torn asynchronous copy.
//! * **FP16 poison** — a gathered value replaced by NaN/±Inf
//!   ([`FaultInjector::poison_value`]), modelling in-register corruption.
//!
//! Every decision is a *pure hash* of `(seed, site, key)` — no mutable
//! RNG state — so the same seed yields the same fault sites regardless
//! of host thread schedule or job count, and a retry can re-draw
//! deterministically by mixing an attempt index into the key. Kernels
//! thread the injector as `Option<&FaultInjector>`: `None` is the golden
//! path and is bit-identical to code built before this module existed.
//!
//! Injected events are recorded in [`Counters::faults_injected`]; the
//! detection/recovery counts ([`Counters::faults_detected`] and
//! friends) are written by the integrity layer that consumes them (see
//! `spinfer_core::spmm::LaunchCtx`, whose fault or policy field turns
//! the integrity checks on). All four fields are
//! excluded from [`Counters::digest`] — injection is off the golden
//! path by construction.

use crate::counters::Counters;
use crate::fp16::Half;

/// A seeded fault schedule. [`FaultPlan::default`] has every rate at
/// zero: an injector built from it never fires, and results are
/// bit-identical to running with no injector at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed; the only source of randomness.
    pub seed: u64,
    /// Probability that a global load's word gets one bit flipped.
    pub global_bitflip_rate: f64,
    /// Probability that a commit group lands corrupted (one byte flipped
    /// somewhere in the copied payload).
    pub commit_corrupt_rate: f64,
    /// Probability that a commit group is dropped (payload never lands).
    pub commit_drop_rate: f64,
    /// Probability that a gathered FP16 value is poisoned to NaN/±Inf.
    pub fp16_poison_rate: f64,
    /// Restrict injection to one GroupTile index (tests pin a blast
    /// radius with this); `None` targets everything.
    pub only_gtile: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            global_bitflip_rate: 0.0,
            commit_corrupt_rate: 0.0,
            commit_drop_rate: 0.0,
            fp16_poison_rate: 0.0,
            only_gtile: None,
        }
    }
}

impl FaultPlan {
    /// A plan with uniform rate `r` on every site — the quick knob for
    /// smoke tests and CLI runs.
    pub fn uniform(seed: u64, r: f64) -> Self {
        FaultPlan {
            seed,
            global_bitflip_rate: r,
            commit_corrupt_rate: r,
            commit_drop_rate: r,
            fp16_poison_rate: r,
            ..FaultPlan::default()
        }
    }

    /// True when at least one site has a non-zero rate.
    pub fn armed(&self) -> bool {
        self.global_bitflip_rate > 0.0
            || (self.commit_corrupt_rate + self.commit_drop_rate) > 0.0
            || self.fp16_poison_rate > 0.0
    }
}

/// Outcome of a `cp.async` commit under injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitFault {
    /// The group landed intact.
    None,
    /// The group landed with `flip_byte` of its payload corrupted
    /// (byte index modulo the payload length; bit within the byte).
    Corrupt {
        /// Pseudo-random byte selector (caller reduces modulo length).
        byte_sel: u64,
        /// Bit 0..8 within the selected byte.
        bit: u32,
    },
    /// The group never landed; the destination buffer holds stale data.
    Dropped,
}

// Site salts keep the three decision streams independent even when
// callers reuse the same key space (e.g. an address).
const SALT_GLOBAL: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_COMMIT: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_POISON: u64 = 0x94d0_49bb_1331_11eb;
const SALT_AUX: u64 = 0xd6e8_feb8_6659_fd93;

/// `splitmix64` finalizer: the stateless hash behind every decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pure site-keyed probability draw: does an event with probability
/// `rate` fire for `(seed, site_salt, key)`? This is the one decision
/// function behind [`FaultInjector`] and the fleet-level
/// `ClusterFaultPlan` in `spinfer-llm`: every fault plan in the
/// workspace keys the same splitmix64 scheme, so decisions are
/// reproducible across host thread schedules and job counts.
pub fn site_fires(seed: u64, rate: f64, salt: u64, key: u64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = mix(seed ^ salt.wrapping_mul(key | 1) ^ key.rotate_left(17));
    ((h >> 11) as f64) < rate * (1u64 << 53) as f64
}

/// Pure auxiliary draw companion to [`site_fires`]: *which* bit, byte,
/// replica, or jitter quantum a firing decision lands on.
pub fn site_aux(seed: u64, salt: u64, key: u64) -> u64 {
    mix(seed ^ SALT_AUX ^ salt.wrapping_add(key.rotate_left(31)))
}

/// [`site_aux`] mapped uniformly into `[0, 1)` (53-bit mantissa draw),
/// for deterministic jitter factors.
pub fn site_u01(seed: u64, salt: u64, key: u64) -> f64 {
    (site_aux(seed, salt, key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Stateless fault oracle over a [`FaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan; the injector itself is immutable and `Copy`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether injection may strike GroupTile `gt` under the plan's
    /// tile filter.
    pub fn gtile_enabled(&self, gt: usize) -> bool {
        self.plan.only_gtile.is_none_or(|only| only == gt)
    }

    /// A derived injector whose decisions are independent of this one's
    /// (same rates, different draw stream). Retry loops reseed with the
    /// attempt index so a re-load of the same addresses re-draws fresh
    /// fault sites instead of deterministically re-hitting the old ones.
    pub fn reseeded(&self, salt: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan {
            seed: mix(self.plan.seed ^ salt.rotate_left(13).wrapping_add(salt)),
            ..self.plan
        })
    }

    /// Pure decision: does an event with probability `rate` fire for
    /// `(site_salt, key)`? Uses the top 53 bits of the hash as a
    /// uniform draw in `[0, 1)`. Delegates to the shared [`site_fires`]
    /// bit-identically.
    fn fires(&self, rate: f64, salt: u64, key: u64) -> bool {
        site_fires(self.plan.seed, rate, salt, key)
    }

    /// Auxiliary draw for *which* bit/byte/value a firing fault hits.
    fn aux(&self, salt: u64, key: u64) -> u64 {
        site_aux(self.plan.seed, salt, key)
    }

    /// Global-load site: `Some(bit)` when the word identified by `key`
    /// (typically its virtual address) gets bit `bit` (in `0..width_bits`)
    /// flipped. Records one injected fault.
    pub fn bitflip(&self, counters: &mut Counters, key: u64, width_bits: u32) -> Option<u32> {
        if !self.fires(self.plan.global_bitflip_rate, SALT_GLOBAL, key) {
            return None;
        }
        counters.faults_injected += 1;
        Some((self.aux(SALT_GLOBAL, key) % u64::from(width_bits)) as u32)
    }

    /// Commit site: what happens to the `cp.async` group identified by
    /// `key`. Records one injected fault for any non-`None` outcome.
    pub fn commit_fault(&self, counters: &mut Counters, key: u64) -> CommitFault {
        if self.fires(self.plan.commit_drop_rate, SALT_COMMIT, key) {
            counters.faults_injected += 1;
            return CommitFault::Dropped;
        }
        if self.fires(self.plan.commit_corrupt_rate, SALT_COMMIT ^ SALT_AUX, key) {
            counters.faults_injected += 1;
            let a = self.aux(SALT_COMMIT, key);
            return CommitFault::Corrupt {
                byte_sel: a >> 3,
                bit: (a & 7) as u32,
            };
        }
        CommitFault::None
    }

    /// Value site: `Some(poison)` when the FP16 value identified by
    /// `key` is replaced by NaN, `+Inf`, or `-Inf`. Records one
    /// injected fault.
    pub fn poison_value(&self, counters: &mut Counters, key: u64) -> Option<Half> {
        if !self.fires(self.plan.fp16_poison_rate, SALT_POISON, key) {
            return None;
        }
        counters.faults_injected += 1;
        Some(match self.aux(SALT_POISON, key) % 3 {
            0 => Half::NAN,
            1 => Half::INFINITY,
            _ => Half::NEG_INFINITY,
        })
    }

    /// Like [`FaultInjector::poison_value`], but also picks *which* of
    /// `n_sites` candidate values (e.g. active lanes of a gather) the
    /// poison lands on. `None` when the site doesn't fire or `n_sites`
    /// is zero.
    pub fn poison_site(
        &self,
        counters: &mut Counters,
        key: u64,
        n_sites: u32,
    ) -> Option<(u32, Half)> {
        if n_sites == 0 {
            return None;
        }
        let poison = self.poison_value(counters, key)?;
        let site = (self.aux(SALT_POISON ^ SALT_AUX, key) % u64::from(n_sites)) as u32;
        Some((site, poison))
    }
}

/// Flips bit `bit` of a 64-bit word.
pub fn flip_bit_u64(word: u64, bit: u32) -> u64 {
    word ^ (1u64 << (bit % 64))
}

/// Flips bit `bit` of a 16-bit word (an FP16 payload).
pub fn flip_bit_u16(word: u16, bit: u32) -> u16 {
    word ^ (1u16 << (bit % 16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default());
        let mut c = Counters::new();
        for key in 0..4096u64 {
            assert_eq!(inj.bitflip(&mut c, key, 64), None);
            assert_eq!(inj.commit_fault(&mut c, key), CommitFault::None);
            assert_eq!(inj.poison_value(&mut c, key), None);
        }
        assert_eq!(c.faults_injected, 0);
        assert!(!FaultPlan::default().armed());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::uniform(7, 0.05));
        let b = FaultInjector::new(FaultPlan::uniform(7, 0.05));
        let c = FaultInjector::new(FaultPlan::uniform(8, 0.05));
        let mut ca = Counters::new();
        let mut cb = Counters::new();
        let mut cc = Counters::new();
        let draws_a: Vec<_> = (0..2048).map(|k| a.bitflip(&mut ca, k, 64)).collect();
        let draws_b: Vec<_> = (0..2048).map(|k| b.bitflip(&mut cb, k, 64)).collect();
        let draws_c: Vec<_> = (0..2048).map(|k| c.bitflip(&mut cc, k, 64)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same sites");
        assert_ne!(draws_a, draws_c, "different seed, different sites");
        assert_eq!(ca.faults_injected, cb.faults_injected);
        assert!(ca.faults_injected > 0, "5% over 2048 keys must fire");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(FaultPlan::uniform(42, 0.10));
        let mut c = Counters::new();
        let fired = (0..20_000u64)
            .filter(|&k| inj.bitflip(&mut c, k, 64).is_some())
            .count();
        let rate = fired as f64 / 20_000.0;
        assert!((rate - 0.10).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn gtile_filter() {
        let plan = FaultPlan {
            only_gtile: Some(3),
            ..FaultPlan::uniform(1, 1.0)
        };
        let inj = FaultInjector::new(plan);
        assert!(inj.gtile_enabled(3));
        assert!(!inj.gtile_enabled(2));
        assert!(FaultInjector::new(FaultPlan::uniform(1, 1.0)).gtile_enabled(2));
    }

    #[test]
    fn poison_values_are_nonfinite() {
        let inj = FaultInjector::new(FaultPlan::uniform(11, 1.0));
        let mut c = Counters::new();
        let mut kinds = [false; 3];
        for k in 0..64 {
            let p = inj.poison_value(&mut c, k).expect("rate 1.0 always fires");
            assert!(p.is_nan() || p.is_infinite());
            kinds[if p.is_nan() {
                0
            } else if p == Half::INFINITY {
                1
            } else {
                2
            }] = true;
        }
        assert!(kinds.iter().all(|&k| k), "all three poison kinds occur");
        assert_eq!(c.faults_injected, 64);
    }

    #[test]
    fn reseeded_injector_draws_an_independent_stream() {
        let base = FaultInjector::new(FaultPlan::uniform(9, 0.5));
        let retry = base.reseeded(1);
        let mut cb = Counters::new();
        let mut cr = Counters::new();
        let a: Vec<_> = (0..512).map(|k| base.bitflip(&mut cb, k, 64)).collect();
        let b: Vec<_> = (0..512).map(|k| retry.bitflip(&mut cr, k, 64)).collect();
        assert_ne!(a, b, "reseeding must change the decision stream");
        // Deterministic: the same salt derives the same stream again.
        let retry2 = base.reseeded(1);
        let mut c2 = Counters::new();
        let b2: Vec<_> = (0..512).map(|k| retry2.bitflip(&mut c2, k, 64)).collect();
        assert_eq!(b, b2);
    }

    #[test]
    fn shared_site_helpers_match_injector_decisions() {
        // FaultInjector delegates to the public site_* functions; the
        // fleet-level ClusterFaultPlan builds on the same scheme, so the
        // delegation must stay bit-identical.
        let plan = FaultPlan::uniform(21, 0.07);
        let inj = FaultInjector::new(plan);
        let mut c = Counters::new();
        for key in 0..4096u64 {
            assert_eq!(
                inj.bitflip(&mut c, key, 64).is_some(),
                site_fires(plan.seed, plan.global_bitflip_rate, SALT_GLOBAL, key)
            );
        }
        for key in 0..1024u64 {
            let u = site_u01(21, SALT_GLOBAL, key);
            assert!((0.0..1.0).contains(&u), "u01 out of range: {u}");
            assert_eq!(u, site_u01(21, SALT_GLOBAL, key), "u01 must be pure");
        }
    }

    #[test]
    fn bit_flip_helpers() {
        assert_eq!(flip_bit_u64(0, 5), 32);
        assert_eq!(flip_bit_u64(u64::MAX, 63), u64::MAX ^ (1 << 63));
        assert_eq!(flip_bit_u16(0, 15), 0x8000);
        // Double flip restores.
        assert_eq!(flip_bit_u16(flip_bit_u16(0x1234, 7), 7), 0x1234);
    }
}
