//! Group commit: one cache-device flush covers every caller waiting on it.
//!
//! A commit barrier in LSVD is a single flush of the cache log (§3.2).
//! The log is one sequence, so a device flush makes durable every record
//! written before the flush began, whoever wrote it. [`GroupCommit`] turns
//! that into a shared barrier with no thread of its own:
//!
//! - the write log *publishes* the sequence number of its last fully
//!   written record (its **position**) after every append, starting at
//!   open from the log's last record;
//! - a flush reads the position it must cover — one atomic load — and
//!   `GroupCommit::wait` returns once a device flush that *started*
//!   after that position was published has completed;
//! - a caller that finds no such flush running starts the next one
//!   itself, so callers arriving while a flush runs share the next one.
//!
//! A failed device flush fails every waiting caller whose position it was
//! meant to cover, and covers nobody: after a failed `fsync` the device
//! may have dropped the very pages they wrote, so a later success proves
//! nothing for them. The next caller starts a fresh flush.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blkdev::{BlkError, BlockDevice};
use parking_lot::{Condvar, Mutex};
use telemetry::{LatencyRecorder, LatencySnapshot, SpanRing, Stage};

use crate::types::{LsvdError, Result};

/// The group committer of one write log.
pub struct GroupCommit {
    dev: Arc<dyn BlockDevice>,
    /// Sequence number of the log's last fully written record.
    written: AtomicU64,
    state: Mutex<CommitState>,
    /// Signalled whenever a device flush completes.
    done: Condvar,
    /// Client flush latency, from the call to its return.
    lat: LatencyRecorder,
    /// Client flushes served.
    flushes: AtomicU64,
    /// Device flushes issued.
    device_flushes: AtomicU64,
    /// Client flushes that waited on a device flush another caller
    /// started, which covered them.
    shared: AtomicU64,
}

struct CommitState {
    /// Every record up to this position is durable: a device flush that
    /// started after it was published completed successfully.
    durable: u64,
    /// A device flush is in progress.
    running: bool,
    /// Device flushes completed, successfully or not.
    rounds: u64,
    /// Device flushes failed.
    failures: u64,
    /// The position the last failed device flush was meant to cover, and
    /// its error.
    failed: u64,
    error: String,
    /// Callers waiting for a device flush to complete.
    waiting: usize,
}

impl GroupCommit {
    /// A committer over `dev` whose log's last record is `pos`. That record
    /// must already be durable: the log flushes its checkpoint after
    /// formatting or recovering.
    pub(crate) fn new(dev: Arc<dyn BlockDevice>, pos: u64) -> GroupCommit {
        GroupCommit {
            dev,
            written: AtomicU64::new(pos),
            state: Mutex::new(CommitState {
                durable: pos,
                running: false,
                rounds: 0,
                failures: 0,
                failed: 0,
                error: String::new(),
                waiting: 0,
            }),
            done: Condvar::new(),
            lat: LatencyRecorder::new(),
            flushes: AtomicU64::new(0),
            device_flushes: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }

    /// Publishes `seq` as the log's last fully written record. The
    /// Release store pairs with the Acquire load in
    /// [`GroupCommit::position`]: the record's device writes returned
    /// before the store, so a flush started after a load that sees it
    /// covers them.
    pub(crate) fn publish(&self, seq: u64) {
        self.written.store(seq, Ordering::Release);
    }

    /// The position a flush issued now must cover.
    pub(crate) fn position(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Blocks until every record up to `pos` is durable: a device flush
    /// that started after `pos` was published has completed, or this
    /// caller ran one. Returns whether it waited on a flush another
    /// caller started; `false` when it ran one or `pos` was durable
    /// already.
    pub(crate) fn wait(&self, pos: u64) -> Result<bool> {
        let mut st = self.state.lock();
        if st.durable >= pos {
            return Ok(false);
        }
        // Wait out running flushes: one that covers `pos` decides it, and
        // one that started too early leaves it to the next. A flush that
        // ran whole while this caller woke counts as well.
        let failures = st.failures;
        while st.running {
            let rounds = st.rounds;
            st.waiting += 1;
            while st.rounds == rounds {
                self.done.wait(&mut st);
            }
            st.waiting -= 1;
            if st.failures != failures && st.failed >= pos {
                let msg = format!("shared device flush failed: {}", st.error);
                return Err(LsvdError::Cache(BlkError::Io(std::io::Error::other(msg))));
            }
            if st.durable >= pos {
                return Ok(true);
            }
        }
        // No flush runs: start one. `written` only grows, so it covers
        // `pos`.
        let covers = self.position();
        st.running = true;
        drop(st);
        self.device_flushes.fetch_add(1, Ordering::Relaxed);
        let res = self.dev.flush();
        let mut st = self.state.lock();
        st.running = false;
        st.rounds += 1;
        match &res {
            Ok(()) => st.durable = st.durable.max(covers),
            Err(e) => {
                st.failures += 1;
                st.failed = covers;
                st.error = e.to_string();
            }
        }
        drop(st);
        self.done.notify_all();
        res.map(|()| false).map_err(LsvdError::Cache)
    }

    /// A client flush: [`GroupCommit::wait`] for `pos`, timed and counted.
    /// With a request id, records the `flush` span under `parent`, its
    /// arguments the position waited for and 1 if it waited on a device
    /// flush another caller started.
    pub(crate) fn flush(&self, pos: u64, spans: &SpanRing, req: u64, parent: u64) -> Result<()> {
        let span = if req != 0 {
            spans.begin(req, parent, Stage::Flush)
        } else {
            None
        };
        let t0 = Instant::now();
        let res = self.wait(pos);
        self.lat.observe(t0.elapsed());
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let shared = matches!(res, Ok(true));
        if shared {
            self.shared.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(open) = span {
            spans.finish(open, pos, u64::from(shared));
        }
        res.map(|_| ())
    }

    /// Client flush latency.
    pub(crate) fn latency(&self) -> LatencySnapshot {
        self.lat.snapshot()
    }

    /// `(client flushes, device flushes issued, client flushes that waited
    /// on a device flush another caller started)`.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        (
            self.flushes.load(Ordering::Relaxed),
            self.device_flushes.load(Ordering::Relaxed),
            self.shared.load(Ordering::Relaxed),
        )
    }

    /// Callers waiting for a device flush to complete.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.state.lock().waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    /// A device whose `fail_at`-th flush (1-based) fails, and whose flushes
    /// park while `gate` is closed. A parked flush passes on its own after
    /// 30 s, so a regression fails the test instead of hanging it.
    struct FlakyDisk {
        inner: RamDisk,
        fail_at: u64,
        /// `(gate closed, flushes started, flushes parked now)`.
        gate: StdMutex<(bool, u64, usize)>,
        cv: std::sync::Condvar,
    }

    impl FlakyDisk {
        fn new(fail_at: u64) -> FlakyDisk {
            FlakyDisk {
                inner: RamDisk::new(1 << 20),
                fail_at,
                gate: StdMutex::new((false, 0, 0)),
                cv: std::sync::Condvar::new(),
            }
        }

        fn set_closed(&self, closed: bool) {
            self.gate.lock().unwrap().0 = closed;
            self.cv.notify_all();
        }

        fn parked(&self) -> usize {
            self.gate.lock().unwrap().2
        }
    }

    impl BlockDevice for FlakyDisk {
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> blkdev::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> blkdev::Result<()> {
            self.inner.write_at(offset, data)
        }
        fn flush(&self) -> blkdev::Result<()> {
            let mut g = self.gate.lock().unwrap();
            g.1 += 1;
            let n = g.1;
            g.2 += 1;
            g = self
                .cv
                .wait_timeout_while(g, Duration::from_secs(30), |g| g.0)
                .unwrap()
                .0;
            g.2 -= 1;
            if n == self.fail_at {
                return Err(BlkError::Io(std::io::Error::other(
                    "injected flush failure",
                )));
            }
            Ok(())
        }
    }

    /// Polls `cond` for up to 20 s.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_covered_position_needs_no_device_flush() {
        let dev = Arc::new(FlakyDisk::new(0));
        let gc = GroupCommit::new(dev.clone(), 7);
        assert!(!gc.wait(7).unwrap(), "the open-time position is durable");
        assert_eq!(gc.counts().1, 0);
        gc.publish(8);
        assert!(!gc.wait(8).unwrap(), "a new record needs a flush");
        assert!(!gc.wait(8).unwrap(), "and only one");
        assert_eq!(gc.counts().1, 1);
    }

    #[test]
    fn callers_arriving_during_a_flush_share_the_next_one() {
        let dev = Arc::new(FlakyDisk::new(0));
        let gc = Arc::new(GroupCommit::new(dev.clone(), 0));
        gc.publish(1);
        dev.set_closed(true);
        let leader = {
            let gc = gc.clone();
            std::thread::spawn(move || gc.wait(1))
        };
        until("the first flush parks", || dev.parked() == 1);
        // Record 2 was published after the running flush started, so it
        // waits for the next one, which three callers share.
        gc.publish(2);
        let late: Vec<_> = (0..3)
            .map(|_| {
                let gc = gc.clone();
                std::thread::spawn(move || gc.wait(2))
            })
            .collect();
        until("three callers wait", || gc.waiting() == 3);
        dev.set_closed(false);
        assert!(!leader.join().unwrap().unwrap());
        let shared: Vec<bool> = late
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        assert_eq!(shared.iter().filter(|&&s| !s).count(), 1, "one led");
        assert_eq!(gc.counts().1, 2, "two device flushes for four callers");
    }

    #[test]
    fn a_failed_device_flush_fails_every_caller_it_covers() {
        // The second device flush fails.
        let dev = Arc::new(FlakyDisk::new(2));
        let gc = Arc::new(GroupCommit::new(dev.clone(), 0));
        gc.publish(1);
        assert!(!gc.wait(1).unwrap(), "the first flush succeeds");

        gc.publish(2);
        dev.set_closed(true);
        let spawn = |pos: u64| {
            let gc = gc.clone();
            std::thread::spawn(move || gc.wait(pos))
        };
        let leader = spawn(2);
        until("the failing flush parks", || dev.parked() == 1);
        // Two callers the failing flush covers ride it; one past it
        // waits for the next flush.
        let riders = [spawn(2), spawn(2)];
        gc.publish(3);
        let later = spawn(3);
        until("three callers wait", || gc.waiting() == 3);
        dev.set_closed(false);

        assert!(leader.join().unwrap().is_err(), "the leader got Ok");
        for r in riders {
            let res = r.join().unwrap();
            assert!(
                matches!(res, Err(LsvdError::Cache(_))),
                "a covered caller got {res:?}"
            );
        }
        assert!(!later.join().unwrap().unwrap(), "a fresh flush covers 3");
        // Nothing the failed flush covered counts as durable: the next
        // caller at its position starts (or rides) a fresh flush.
        assert_eq!(gc.counts().1, 3);
        assert!(!gc.wait(2).unwrap(), "the third flush covered 2");
        assert_eq!(gc.counts().1, 3);
        gc.publish(4);
        assert!(!gc.wait(4).unwrap());
        assert_eq!(gc.counts().1, 4);
    }

    #[test]
    fn a_failed_flush_is_retried_by_the_next_caller() {
        let dev = Arc::new(FlakyDisk::new(1));
        let gc = GroupCommit::new(dev.clone(), 0);
        gc.publish(1);
        assert!(gc.wait(1).is_err());
        assert!(!gc.wait(1).unwrap(), "the retry issued its own flush");
        assert_eq!(gc.counts().1, 2);
    }
}
