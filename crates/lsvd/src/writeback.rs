//! Backend writeback: the PUT executor.
//!
//! The paper's prototype overlaps batch PUTs with foreground I/O (§3.1,
//! Fig. 1): writes are acknowledged from the SSD log while sealed batches
//! ship to the object store in the background. [`WritebackPool`] runs
//! those PUTs against the shared [`ObjectStore`]. With `n > 0` workers it
//! runs them on a small fixed thread pool; with zero workers it runs each
//! PUT inline on the submitting thread and parks the completion for the
//! next harvest. Either way the [`Volume`](crate::volume::Volume) drives
//! it through the same submit/harvest calls.
//!
//! The pool is pure transport: it never touches volume metadata. PUTs
//! complete out of order, and the volume's writeback backlog applies them
//! to the object map only as a gap-free prefix of the object stream
//! (§3.3), all on the foreground thread.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use objstore::ObjectStore;
use parking_lot::{Condvar, Mutex};

use crate::types::ObjSeq;

/// One batch PUT queued for the pool.
struct PutJob {
    seq: ObjSeq,
    name: String,
    data: Bytes,
}

impl PutJob {
    /// Runs the PUT. Called with no pool lock held.
    fn run(self, store: &dyn ObjectStore) -> PutCompletion {
        let start = Instant::now();
        let result = store.put(&self.name, self.data);
        PutCompletion {
            seq: self.seq,
            result,
            service: start.elapsed(),
        }
    }
}

/// One harvested batch-PUT completion, including how long the backend
/// call itself took (the worker-side *service time*; the volume computes
/// queue wait as total-time-since-seal minus this).
pub struct PutCompletion {
    /// Object sequence number of the batch.
    pub seq: ObjSeq,
    /// Outcome of the PUT.
    pub result: objstore::Result<()>,
    /// Wall-clock duration of the backend `put` call.
    pub service: Duration,
}

struct PoolState {
    queue: VecDeque<PutJob>,
    done: Vec<PutCompletion>,
    /// PUTs currently executing on a worker.
    active: usize,
    shutdown: bool,
}

struct Shared {
    store: Arc<dyn ObjectStore>,
    state: Mutex<PoolState>,
    /// Signalled when work is queued (or on shutdown).
    work_cv: Condvar,
    /// Signalled when a PUT completes.
    done_cv: Condvar,
}

/// The writeback executor over one shared object store.
///
/// Submission and harvesting are both non-blocking by default
/// ([`WritebackPool::submit_put`] / [`WritebackPool::poll_puts`]);
/// [`WritebackPool::wait_puts`] parks until at least one PUT completes.
///
/// A pool spawned with zero workers is the *inline* executor: `submit_put`
/// runs the PUT on the calling thread before it returns and parks the
/// completion, so the next `poll_puts` or `wait_puts` returns it at once
/// and neither ever blocks.
///
/// Dropping the pool discards queued-but-unstarted jobs, lets running
/// jobs finish, and joins every worker — so an in-flight PUT either lands
/// whole or not at all, exactly the crash model recovery's prefix rule
/// is built for.
pub struct WritebackPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl WritebackPool {
    /// Spawns `threads` workers over `store`; `0` gives the inline
    /// executor, which runs every PUT on the submitting thread.
    pub fn spawn(store: Arc<dyn ObjectStore>, threads: usize) -> WritebackPool {
        let shared = Arc::new(Shared {
            store,
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                done: Vec::new(),
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lsvd-wb-{i}"))
                    .spawn(move || worker(shared))
                    .expect("spawn writeback worker")
            })
            .collect();
        WritebackPool { shared, threads }
    }

    /// Number of worker threads (`0` for the inline executor).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Queues one batch PUT — or, on the inline executor, runs it now and
    /// parks the completion. `data` is the sealed object's shared buffer
    /// ([`Bytes`]), so no copy happens between sealing and the wire.
    pub fn submit_put(&self, seq: ObjSeq, name: String, data: Bytes) {
        let job = PutJob { seq, name, data };
        if self.threads.is_empty() {
            let done = job.run(self.shared.store.as_ref());
            self.shared.state.lock().done.push(done);
            return;
        }
        self.shared.state.lock().queue.push_back(job);
        self.shared.work_cv.notify_one();
    }

    /// Harvests every PUT completion available right now, never blocking.
    /// Completions arrive in *finish* order, which may differ from
    /// submission order.
    pub fn poll_puts(&self) -> Vec<PutCompletion> {
        std::mem::take(&mut self.shared.state.lock().done)
    }

    /// Blocks until at least one PUT completes, then harvests all
    /// available completions. Returns an empty vec immediately if no PUT
    /// is queued or running (nothing to wait for).
    pub fn wait_puts(&self) -> Vec<PutCompletion> {
        let mut st = self.shared.state.lock();
        loop {
            let puts = std::mem::take(&mut st.done);
            if !puts.is_empty() || (st.active == 0 && st.queue.is_empty()) {
                return puts;
            }
            self.shared.done_cv.wait(&mut st);
        }
    }
}

impl Drop for WritebackPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            // Unstarted PUTs are discarded: on a crash their data is still
            // in the cache log.
            st.queue.clear();
        }
        self.shared.work_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(j) = st.queue.pop_front() {
                    st.active += 1;
                    break j;
                }
                shared.work_cv.wait(&mut st);
            }
        };
        let done = job.run(shared.store.as_ref());
        {
            let mut st = shared.state.lock();
            st.active -= 1;
            st.done.push(done);
        }
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objstore::MemStore;

    #[test]
    fn pool_puts_complete_and_poll_harvests() {
        let store = Arc::new(MemStore::new());
        let pool = WritebackPool::spawn(store.clone(), 3);
        for seq in 1..=8u32 {
            pool.submit_put(seq, format!("o.{seq}"), Bytes::from(vec![seq as u8; 64]));
        }
        let mut seen = Vec::new();
        while seen.len() < 8 {
            for c in pool.wait_puts() {
                c.result.unwrap();
                seen.push(c.seq);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=8).collect::<Vec<_>>());
        assert_eq!(store.object_count(), 8);
        // Nothing left to wait for: returns immediately, empty.
        assert!(pool.wait_puts().is_empty());
    }

    /// A store that records the thread each PUT runs on.
    struct ThreadLog {
        inner: MemStore,
        put_threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl ObjectStore for ThreadLog {
        fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
            self.put_threads.lock().push(std::thread::current().id());
            self.inner.put(name, data)
        }
        fn get(&self, name: &str) -> objstore::Result<Bytes> {
            self.inner.get(name)
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
            self.inner.get_range(name, offset, len)
        }
        fn head(&self, name: &str) -> objstore::Result<u64> {
            self.inner.head(name)
        }
        fn delete(&self, name: &str) -> objstore::Result<()> {
            self.inner.delete(name)
        }
        fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
            self.inner.list(prefix)
        }
    }

    #[test]
    fn inline_pool_runs_puts_on_the_submitter_and_parks_completions() {
        let store = Arc::new(ThreadLog {
            inner: MemStore::new(),
            put_threads: Mutex::new(Vec::new()),
        });
        let pool = WritebackPool::spawn(store.clone(), 0);
        assert_eq!(pool.threads(), 0);
        // Nothing parked: neither harvest blocks.
        assert!(pool.wait_puts().is_empty());
        assert!(pool.poll_puts().is_empty());

        pool.submit_put(1, "o.1".into(), Bytes::from_static(b"one"));
        // The PUT already ran, on this thread, before submit returned.
        assert!(store.inner.exists("o.1").unwrap());
        assert_eq!(*store.put_threads.lock(), vec![std::thread::current().id()]);
        // Its completion is parked for the next harvest.
        let done = pool.wait_puts();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].seq, 1);
        assert!(done[0].result.is_ok());
        assert!(pool.wait_puts().is_empty(), "harvested exactly once");

        pool.submit_put(2, "o.2".into(), Bytes::from_static(b"two"));
        let done = pool.poll_puts();
        assert_eq!(done.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![2]);
    }
}
