//! A retrying object store wrapper with deterministic backoff.
//!
//! [`RetryStore`] re-issues operations that fail with a *transient*
//! error ([`ObjError::is_transient`](crate::ObjError::is_transient)) up
//! to a bounded number of attempts, with exponential backoff and seeded
//! jitter. Permanent errors are returned immediately — retrying a
//! `NotFound` or a corrupt payload cannot help and only hides bugs.
//!
//! Backoff is **virtual**: the wrapper accounts the nanoseconds it would
//! have slept instead of sleeping, so tests that push thousands of faults
//! through it stay fast and the whole retry schedule is bit-for-bit
//! deterministic for a fixed [`RetryPolicy::seed`]. The counters are held
//! behind an [`Arc`] handle ([`RetryStore::counter_handle`]) so a volume
//! layered above the store can surface them in its stats.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{ObjectStore, Result};

/// Bounded-retry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Cap on any single backoff, in nanoseconds.
    pub max_backoff_ns: u64,
    /// Seed for backoff jitter; a fixed seed reproduces the exact
    /// backoff sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 1_000_000,    // 1 ms
            max_backoff_ns: 1_000_000_000, // 1 s
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy differing from the default only in its jitter seed.
    pub fn seeded(seed: u64) -> Self {
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        }
    }
}

/// A point-in-time snapshot of a [`RetryStore`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Store calls issued, counting each retry separately.
    pub attempts: u64,
    /// Re-issues after a transient failure.
    pub retries: u64,
    /// Operations abandoned after exhausting `max_attempts` on
    /// transient errors (permanent errors are not counted here).
    pub give_ups: u64,
    /// Total virtual backoff accounted, in nanoseconds.
    pub backoff_ns: u64,
}

#[derive(Default)]
struct Stats {
    attempts: AtomicU64,
    retries: AtomicU64,
    give_ups: AtomicU64,
    backoff_ns: AtomicU64,
}

/// A cloneable handle onto a [`RetryStore`]'s live counters.
#[derive(Clone, Default)]
pub struct RetryHandle(Arc<Stats>);

impl RetryHandle {
    /// Snapshots the counters.
    pub fn snapshot(&self) -> RetryCounters {
        RetryCounters {
            attempts: self.0.attempts.load(Ordering::SeqCst),
            retries: self.0.retries.load(Ordering::SeqCst),
            give_ups: self.0.give_ups.load(Ordering::SeqCst),
            backoff_ns: self.0.backoff_ns.load(Ordering::SeqCst),
        }
    }
}

impl std::fmt::Debug for RetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A wrapper retrying transient failures with deterministic backoff.
pub struct RetryStore<S> {
    inner: S,
    policy: RetryPolicy,
    rng: Mutex<SmallRng>,
    stats: RetryHandle,
}

impl<S: ObjectStore> RetryStore<S> {
    /// Wraps `inner` with the default policy.
    pub fn new(inner: S) -> Self {
        Self::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with the given policy.
    pub fn with_policy(inner: S, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "retry policy needs ≥1 attempt");
        RetryStore {
            inner,
            policy,
            rng: Mutex::new(SmallRng::seed_from_u64(policy.seed)),
            stats: RetryHandle::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Snapshots the retry counters.
    pub fn counters(&self) -> RetryCounters {
        self.stats.snapshot()
    }

    /// A cloneable live handle onto the counters, for surfacing them in
    /// higher-level stats (e.g. `VolumeStats`).
    pub fn counter_handle(&self) -> RetryHandle {
        self.stats.clone()
    }

    /// Access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Virtual backoff before retry number `retry_no` (1-based):
    /// exponential growth from the policy base, capped, with seeded
    /// jitter drawing the final value from `[backoff/2, backoff]`.
    fn backoff_ns(&self, retry_no: u32) -> u64 {
        let exp = self
            .policy
            .base_backoff_ns
            .saturating_mul(1u64.checked_shl(retry_no - 1).unwrap_or(u64::MAX))
            .min(self.policy.max_backoff_ns);
        let half = exp / 2;
        let jitter = if half > 0 {
            self.rng.lock().gen_range(0..half + 1)
        } else {
            0
        };
        half + jitter
    }

    fn with_retry<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.0.attempts.fetch_add(1, Ordering::SeqCst);
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_attempts => {
                    self.stats.0.retries.fetch_add(1, Ordering::SeqCst);
                    let pause = self.backoff_ns(attempt);
                    self.stats.0.backoff_ns.fetch_add(pause, Ordering::SeqCst);
                }
                Err(e) => {
                    if e.is_transient() {
                        self.stats.0.give_ups.fetch_add(1, Ordering::SeqCst);
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl<S: ObjectStore> ObjectStore for RetryStore<S> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.with_retry(|| self.inner.put(name, data.clone()))
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        self.with_retry(|| self.inner.get(name))
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.with_retry(|| self.inner.get_range(name, offset, len))
    }

    fn head(&self, name: &str) -> Result<u64> {
        self.with_retry(|| self.inner.head(name))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.with_retry(|| self.inner.delete(name))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.with_retry(|| self.inner.list(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosSchedule, ChaosStore, MemStore, ObjError};

    #[test]
    fn transient_failures_are_retried_to_success() {
        let faulty = ChaosStore::new(MemStore::new());
        faulty.fail_next_puts(2);
        let s = RetryStore::new(faulty);
        s.put("a", Bytes::from_static(b"x")).unwrap();
        let c = s.counters();
        assert_eq!(c.attempts, 3);
        assert_eq!(c.retries, 2);
        assert_eq!(c.give_ups, 0);
        assert!(c.backoff_ns > 0);
        assert!(s.inner().exists("a").unwrap());
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let s = RetryStore::new(MemStore::new());
        let err = s.get("missing").unwrap_err();
        assert!(matches!(err, ObjError::NotFound(_)));
        let c = s.counters();
        assert_eq!(c.attempts, 1, "NotFound must not be retried");
        assert_eq!(c.retries, 0);
        assert_eq!(c.give_ups, 0, "permanent failures are not give-ups");
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let faulty = ChaosStore::new(MemStore::new());
        faulty.fail_next_puts(100);
        let s = RetryStore::with_policy(
            faulty,
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let err = s.put("a", Bytes::from_static(b"x")).unwrap_err();
        assert!(err.is_transient());
        let c = s.counters();
        assert_eq!(c.attempts, 3);
        assert_eq!(c.retries, 2);
        assert_eq!(c.give_ups, 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_fixed_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let faulty = ChaosStore::new(MemStore::new());
            let s = RetryStore::with_policy(faulty, RetryPolicy::seeded(seed));
            let mut marks = Vec::new();
            for i in 0..10 {
                s.inner().fail_next_puts(2);
                s.put(&format!("o.{i}"), Bytes::from_static(b"x")).unwrap();
                marks.push(s.counters().backoff_ns);
            }
            marks
        };
        assert_eq!(run(42), run(42), "same seed, same backoff sequence");
        assert_ne!(run(42), run(43), "different seed, different jitter");
    }

    #[test]
    fn backoff_grows_exponentially_within_cap() {
        let faulty = ChaosStore::new(MemStore::new());
        faulty.fail_next_puts(3);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 1_000,
            max_backoff_ns: 1_000_000,
            seed: 9,
        };
        let s = RetryStore::with_policy(faulty, policy);
        s.put("a", Bytes::from_static(b"x")).unwrap();
        let total = s.counters().backoff_ns;
        // Three retries with full backoffs 1000, 2000, 4000: jittered
        // into [half, full] so the total lands in [3500, 7000].
        assert!((3_500..=7_000).contains(&total), "backoff total {total}");
    }

    #[test]
    fn rides_out_a_chaos_outage_window() {
        let chaos = ChaosStore::with_schedule(
            MemStore::new(),
            ChaosSchedule {
                outages: vec![crate::OutageWindow {
                    start_op: 0,
                    end_op: 3,
                }],
                ..ChaosSchedule::default()
            },
        );
        let s = RetryStore::with_policy(
            chaos,
            RetryPolicy {
                max_attempts: 5,
                ..RetryPolicy::default()
            },
        );
        s.put("a", Bytes::from_static(b"x")).unwrap();
        assert_eq!(s.counters().retries, 3);
        assert!(s.inner().inner().exists("a").unwrap());
    }
}
