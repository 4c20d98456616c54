//! A deterministic, schedule-driven fault-injecting object store.
//!
//! The crash-recovery experiments (§3.3, Table 4) need backend states that
//! only arise from failures: *stranded* objects (sequence 99, 100 and 102
//! present but 101 lost in flight), failed PUTs, and flaky reads.
//! [`ChaosStore`] provides them. Beyond black holes and the one-shot
//! "fail the next N ops" counters, it runs a seeded [`ChaosSchedule`]
//! that injects per-operation failure probabilities,
//! timed outage windows that heal on their own, and corrupted GET
//! payloads. Every decision is drawn from a [`SmallRng`] seeded from the
//! schedule, so a fixed seed reproduces the exact same fault sequence —
//! the property the fault-sweep torture harness depends on.
//!
//! Time is an **operation clock**: each store call advances one tick.
//! Outage windows are expressed in ticks, so "the backend is down for 40
//! ops, then heals" is deterministic regardless of wall-clock speed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{FaultClass, ObjError, ObjectStore, Result};

/// A half-open interval of the operation clock during which every store
/// call fails with a transient [`ObjError::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First operation index (inclusive) of the outage.
    pub start_op: u64,
    /// First operation index past the outage (exclusive); the store heals
    /// here without intervention.
    pub end_op: u64,
}

impl OutageWindow {
    /// Whether operation `op` falls inside the outage.
    pub fn contains(&self, op: u64) -> bool {
        (self.start_op..self.end_op).contains(&op)
    }
}

/// A deterministic fault plan for a [`ChaosStore`].
///
/// All probabilities are per-operation in `[0, 1]`. The default schedule
/// injects nothing; callers arm only the dimensions they want.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    /// Seed for every probabilistic decision the store makes.
    pub seed: u64,
    /// Probability that a PUT fails with a transient error.
    pub put_fail_p: f64,
    /// Probability that a GET / ranged GET fails with a transient error.
    pub get_fail_p: f64,
    /// Probability that a HEAD fails with a transient error.
    pub head_fail_p: f64,
    /// Probability that a DELETE fails with a transient error.
    pub delete_fail_p: f64,
    /// Probability that a LIST fails with a transient error.
    pub list_fail_p: f64,
    /// Probability that a GET which reaches the inner store returns a
    /// payload with one bit flipped (silent corruption, for exercising
    /// the reader's CRC checks).
    pub corrupt_get_p: f64,
    /// Operation-clock windows during which every call times out.
    pub outages: Vec<OutageWindow>,
}

impl ChaosSchedule {
    /// A schedule with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            ..ChaosSchedule::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Put,
    Get,
    Head,
    Delete,
    List,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Head => "head",
            OpKind::Delete => "delete",
            OpKind::List => "list",
        }
    }
}

/// A fault-injecting wrapper driven by a seeded [`ChaosSchedule`].
///
/// Also offers small deterministic controls — `black_hole` and the armed
/// `fail_next_*` counters — for tests that need one exact fault. Armed
/// counters fire before the probabilistic schedule and inject transient
/// faults. Every operation (HEAD, DELETE and LIST included) routes
/// through the fault machinery, so recovery's LIST/HEAD passes can be
/// failure-tested too.
pub struct ChaosStore<S> {
    inner: S,
    schedule: Mutex<ChaosSchedule>,
    rng: Mutex<SmallRng>,
    /// Operation clock: each store call takes one tick.
    op_clock: AtomicU64,
    /// PUTs of these names vanish: the call succeeds, nothing is stored.
    black_holes: Mutex<HashSet<String>>,
    fail_puts: AtomicU64,
    fail_gets: AtomicU64,
    fail_heads: AtomicU64,
    fail_deletes: AtomicU64,
    fail_lists: AtomicU64,
    puts_attempted: AtomicU64,
    puts_dropped: AtomicU64,
    faults_injected: AtomicU64,
    gets_corrupted: AtomicU64,
}

impl<S: ObjectStore> ChaosStore<S> {
    /// Wraps `inner` with an empty (fault-free) schedule.
    pub fn new(inner: S) -> Self {
        Self::with_schedule(inner, ChaosSchedule::default())
    }

    /// Wraps `inner` with the given fault schedule.
    pub fn with_schedule(inner: S, schedule: ChaosSchedule) -> Self {
        let rng = SmallRng::seed_from_u64(schedule.seed);
        ChaosStore {
            inner,
            schedule: Mutex::new(schedule),
            rng: Mutex::new(rng),
            op_clock: AtomicU64::new(0),
            black_holes: Mutex::new(HashSet::new()),
            fail_puts: AtomicU64::new(0),
            fail_gets: AtomicU64::new(0),
            fail_heads: AtomicU64::new(0),
            fail_deletes: AtomicU64::new(0),
            fail_lists: AtomicU64::new(0),
            puts_attempted: AtomicU64::new(0),
            puts_dropped: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            gets_corrupted: AtomicU64::new(0),
        }
    }

    /// Clears all scheduled faults (keeping the seed): the store behaves
    /// like the inner store from now on. Armed counters and black holes
    /// are also cleared.
    pub fn heal(&self) {
        let seed = self.schedule.lock().seed;
        *self.schedule.lock() = ChaosSchedule::seeded(seed);
        self.black_holes.lock().clear();
        self.fail_puts.store(0, Ordering::SeqCst);
        self.fail_gets.store(0, Ordering::SeqCst);
        self.fail_heads.store(0, Ordering::SeqCst);
        self.fail_deletes.store(0, Ordering::SeqCst);
        self.fail_lists.store(0, Ordering::SeqCst);
    }

    /// Makes future PUTs of `name` silently vanish.
    pub fn black_hole(&self, name: &str) {
        self.black_holes.lock().insert(name.to_string());
    }

    /// Arms transient failure of the next `n` PUT calls.
    pub fn fail_next_puts(&self, n: u64) {
        self.fail_puts.store(n, Ordering::SeqCst);
    }

    /// Arms transient failure of the next `n` GET calls.
    pub fn fail_next_gets(&self, n: u64) {
        self.fail_gets.store(n, Ordering::SeqCst);
    }

    /// Arms transient failure of the next `n` HEAD calls.
    pub fn fail_next_heads(&self, n: u64) {
        self.fail_heads.store(n, Ordering::SeqCst);
    }

    /// Arms transient failure of the next `n` DELETE calls.
    pub fn fail_next_deletes(&self, n: u64) {
        self.fail_deletes.store(n, Ordering::SeqCst);
    }

    /// Arms transient failure of the next `n` LIST calls.
    pub fn fail_next_lists(&self, n: u64) {
        self.fail_lists.store(n, Ordering::SeqCst);
    }

    /// Number of PUTs attempted through this wrapper.
    pub fn puts_attempted(&self) -> u64 {
        self.puts_attempted.load(Ordering::SeqCst)
    }

    /// Number of PUTs swallowed by black holes.
    pub fn puts_dropped(&self) -> u64 {
        self.puts_dropped.load(Ordering::SeqCst)
    }

    /// Total faults injected (armed, outage and probabilistic).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::SeqCst)
    }

    /// Number of GET payloads returned with a flipped bit.
    pub fn gets_corrupted(&self) -> u64 {
        self.gets_corrupted.load(Ordering::SeqCst)
    }

    /// Access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn take_one(counter: &AtomicU64) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    fn armed_counter(&self, op: OpKind) -> &AtomicU64 {
        match op {
            OpKind::Put => &self.fail_puts,
            OpKind::Get => &self.fail_gets,
            OpKind::Head => &self.fail_heads,
            OpKind::Delete => &self.fail_deletes,
            OpKind::List => &self.fail_lists,
        }
    }

    /// Advances the op clock and decides whether this call fails.
    fn chaos_gate(&self, op: OpKind) -> Result<()> {
        let tick = self.op_clock.fetch_add(1, Ordering::SeqCst);
        let schedule = self.schedule.lock().clone();
        if schedule.outages.iter().any(|w| w.contains(tick)) {
            self.faults_injected.fetch_add(1, Ordering::SeqCst);
            return Err(ObjError::Timeout(format!(
                "backend outage at op {tick} ({})",
                op.name()
            )));
        }
        if Self::take_one(self.armed_counter(op)) {
            self.faults_injected.fetch_add(1, Ordering::SeqCst);
            return Err(ObjError::Injected {
                class: FaultClass::Transient,
                what: op.name(),
            });
        }
        let p = match op {
            OpKind::Put => schedule.put_fail_p,
            OpKind::Get => schedule.get_fail_p,
            OpKind::Head => schedule.head_fail_p,
            OpKind::Delete => schedule.delete_fail_p,
            OpKind::List => schedule.list_fail_p,
        };
        if p > 0.0 {
            let mut rng = self.rng.lock();
            if rng.gen_bool(p) {
                self.faults_injected.fetch_add(1, Ordering::SeqCst);
                let msg = format!("chaos at op {tick} ({})", op.name());
                return Err(match rng.gen_range(0u32..3) {
                    0 => ObjError::Timeout(msg),
                    1 => ObjError::Throttled(msg),
                    _ => ObjError::ConnReset(msg),
                });
            }
        }
        Ok(())
    }

    /// Flips one rng-chosen bit in `data` when corruption is scheduled.
    fn maybe_corrupt(&self, data: Bytes) -> Bytes {
        let p = self.schedule.lock().corrupt_get_p;
        if p <= 0.0 || data.is_empty() {
            return data;
        }
        let mut rng = self.rng.lock();
        if !rng.gen_bool(p) {
            return data;
        }
        let mut bytes = data.to_vec();
        let pos = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u32..8);
        bytes[pos] ^= 1 << bit;
        self.gets_corrupted.fetch_add(1, Ordering::SeqCst);
        Bytes::from(bytes)
    }
}

impl<S: ObjectStore> ObjectStore for ChaosStore<S> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.puts_attempted.fetch_add(1, Ordering::SeqCst);
        self.chaos_gate(OpKind::Put)?;
        if self.black_holes.lock().contains(name) {
            self.puts_dropped.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        self.chaos_gate(OpKind::Get)?;
        self.inner.get(name).map(|d| self.maybe_corrupt(d))
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.chaos_gate(OpKind::Get)?;
        self.inner
            .get_range(name, offset, len)
            .map(|d| self.maybe_corrupt(d))
    }

    fn head(&self, name: &str) -> Result<u64> {
        self.chaos_gate(OpKind::Head)?;
        self.inner.head(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.chaos_gate(OpKind::Delete)?;
        self.inner.delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.chaos_gate(OpKind::List)?;
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn seeded(p_put: f64, seed: u64) -> ChaosStore<MemStore> {
        ChaosStore::with_schedule(
            MemStore::new(),
            ChaosSchedule {
                seed,
                put_fail_p: p_put,
                ..ChaosSchedule::default()
            },
        )
    }

    #[test]
    fn fault_sequence_is_deterministic_per_seed() {
        for seed in [1u64, 7, 99] {
            let a = seeded(0.3, seed);
            let b = seeded(0.3, seed);
            let pattern_a: Vec<bool> = (0..200)
                .map(|i| a.put(&format!("o.{i}"), Bytes::from_static(b"x")).is_ok())
                .collect();
            let pattern_b: Vec<bool> = (0..200)
                .map(|i| b.put(&format!("o.{i}"), Bytes::from_static(b"x")).is_ok())
                .collect();
            assert_eq!(pattern_a, pattern_b, "seed {seed} must reproduce");
            assert!(pattern_a.iter().any(|ok| !ok), "p=0.3 should inject");
            assert!(
                pattern_a.iter().any(|ok| *ok),
                "p=0.3 should let some through"
            );
        }
    }

    #[test]
    fn injected_faults_are_transient() {
        let s = seeded(1.0, 5);
        let err = s.put("a", Bytes::from_static(b"x")).unwrap_err();
        assert!(
            err.is_transient(),
            "scheduled faults model retryable errors"
        );
    }

    #[test]
    fn outage_window_heals_on_op_clock() {
        let s = ChaosStore::with_schedule(
            MemStore::new(),
            ChaosSchedule {
                outages: vec![OutageWindow {
                    start_op: 2,
                    end_op: 5,
                }],
                ..ChaosSchedule::default()
            },
        );
        let results: Vec<bool> = (0..8)
            .map(|i| s.put(&format!("o.{i}"), Bytes::from_static(b"x")).is_ok())
            .collect();
        assert_eq!(
            results,
            vec![true, true, false, false, false, true, true, true]
        );
        let err = {
            let s2 = ChaosStore::with_schedule(
                MemStore::new(),
                ChaosSchedule {
                    outages: vec![OutageWindow {
                        start_op: 0,
                        end_op: 1,
                    }],
                    ..ChaosSchedule::default()
                },
            );
            s2.get("missing").unwrap_err()
        };
        assert!(matches!(err, ObjError::Timeout(_)));
        assert!(err.is_transient());
    }

    #[test]
    fn corrupt_get_flips_exactly_one_bit() {
        let s = ChaosStore::with_schedule(
            MemStore::new(),
            ChaosSchedule {
                seed: 11,
                corrupt_get_p: 1.0,
                ..ChaosSchedule::default()
            },
        );
        let payload = vec![0u8; 64];
        s.put("obj", Bytes::from(payload.clone())).unwrap();
        let got = s.get("obj").unwrap();
        let diff_bits: u32 = got
            .iter()
            .zip(payload.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1, "corruption must flip exactly one bit");
        assert_eq!(s.gets_corrupted(), 1);
        // The stored object itself is untouched.
        let clean = s.inner().get("obj").unwrap();
        assert_eq!(clean.as_ref(), &payload[..]);
    }

    #[test]
    fn legacy_armed_counters_and_black_hole_work() {
        let s = ChaosStore::new(MemStore::new());
        s.fail_next_puts(1);
        assert!(s.put("a", Bytes::from_static(b"x")).is_err());
        assert!(s.put("a", Bytes::from_static(b"x")).is_ok());
        s.black_hole("gone");
        s.put("gone", Bytes::from_static(b"y")).unwrap();
        assert!(!s.exists("gone").unwrap());
        assert_eq!(s.puts_dropped(), 1);
        s.fail_next_heads(1);
        assert!(s.head("a").is_err());
        assert_eq!(s.head("a").unwrap(), 1);
        s.fail_next_deletes(1);
        assert!(s.delete("a").is_err());
        s.fail_next_lists(1);
        assert!(s.list("").is_err());
        assert!(s.delete("a").is_ok());
    }

    #[test]
    fn black_hole_swallows_put() {
        let s = ChaosStore::new(MemStore::new());
        s.black_hole("vol.101");
        s.put("vol.100", Bytes::from_static(b"a")).unwrap();
        s.put("vol.101", Bytes::from_static(b"b")).unwrap();
        s.put("vol.102", Bytes::from_static(b"c")).unwrap();
        assert!(s.exists("vol.100").unwrap());
        assert!(!s.exists("vol.101").unwrap(), "black-holed PUT must vanish");
        assert!(s.exists("vol.102").unwrap());
        assert_eq!(s.puts_attempted(), 3);
        assert_eq!(s.puts_dropped(), 1);
    }

    #[test]
    fn fail_next_gets_counts_down() {
        let s = ChaosStore::new(MemStore::new());
        s.put("a", Bytes::from_static(b"xy")).unwrap();
        s.fail_next_gets(1);
        assert!(s.get("a").is_err());
        assert_eq!(s.get("a").unwrap().as_ref(), b"xy");
        assert_eq!(s.get_range("a", 1, 1).unwrap().as_ref(), b"y");
    }

    #[test]
    fn injected_faults_are_classified_transient() {
        let s = ChaosStore::new(MemStore::new());
        s.fail_next_puts(1);
        let err = s.put("a", Bytes::new()).unwrap_err();
        assert!(err.is_transient(), "armed faults model retryable failures");
    }

    #[test]
    fn metadata_ops_route_through_fault_injection() {
        let s = ChaosStore::new(MemStore::new());
        s.put("p.1", Bytes::from_static(b"z")).unwrap();
        s.fail_next_heads(1);
        assert!(s.head("p.1").is_err());
        assert_eq!(s.head("p.1").unwrap(), 1);
        s.fail_next_lists(1);
        assert!(s.list("p.").is_err());
        assert_eq!(s.list("p.").unwrap(), vec!["p.1"]);
        s.fail_next_deletes(1);
        assert!(s.delete("p.1").is_err());
        assert!(s.exists("p.1").unwrap(), "failed delete must not delete");
        s.delete("p.1").unwrap();
        assert!(!s.exists("p.1").unwrap());
    }

    #[test]
    fn passthrough_ops_unaffected() {
        let s = ChaosStore::new(MemStore::new());
        s.put("p.1", Bytes::from_static(b"z")).unwrap();
        assert_eq!(s.head("p.1").unwrap(), 1);
        assert_eq!(s.list("p.").unwrap(), vec!["p.1"]);
        s.delete("p.1").unwrap();
        assert!(!s.exists("p.1").unwrap());
    }

    #[test]
    fn heal_clears_everything() {
        let s = seeded(1.0, 3);
        assert!(s.put("a", Bytes::from_static(b"x")).is_err());
        s.black_hole("b");
        s.fail_next_gets(5);
        s.heal();
        assert!(s.put("a", Bytes::from_static(b"x")).is_ok());
        assert!(s.put("b", Bytes::from_static(b"y")).is_ok());
        assert!(s.exists("b").unwrap(), "heal must clear black holes");
        assert!(s.get("a").is_ok(), "heal must clear armed counters");
    }
}
