//! Fleet request scheduler: per-tenant two-lane queues and deficit
//! round-robin fairness.
//!
//! Every export (tenant) owns two queues:
//!
//! - the **ordered lane** (WRITE / FLUSH / TRIM): at most one job per
//!   export is in service at a time (`ordered_active`), and jobs leave in
//!   arrival order — so per-export acknowledgement order equals cache-log
//!   order, the prefix-consistency contract, while two *different*
//!   tenants' mutations proceed in parallel on different volumes. A job
//!   holds the lane only through its volume call; a FLUSH only while it
//!   takes its cache-log position, never across a device flush;
//! - the **read lane**: any number of jobs in service concurrently (the
//!   volume read plane is lock-split for exactly this).
//!
//! A shared worker pool pulls from all tenants through [`FleetScheduler::
//! pop`], which scans tenants round-robin under a deficit scheme: each
//! dispatch debits the tenant's byte deficit, and when every tenant with
//! runnable work is in debt, all deficits recharge by the quanta the
//! least-indebted one needs — so a tenant blasting 64 KiB requests cannot
//! starve one issuing 4 KiB requests (byte-fair, not request-fair).
//!
//! The reactor takes back a job the pool would dispatch right away:
//! [`FleetScheduler::claim`] queues it and, when its lane was free and
//! empty and its tenant can pay, dispatches it to the caller at once,
//! charged exactly as a worker's pick would charge it. A claimed write
//! that turns out to need the backend goes back to the head of its lane
//! with [`FleetScheduler::hand_back`], already paid for.
//!
//! A pick depends on queue state alone, never on the clock: a worker
//! parks only when nothing is runnable, and wakes only on a push, a
//! hand-back, an ordered completion or a stop.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use lsvd::fleet::Export;
use telemetry::SpanRing;

use crate::proto::{Request, CMD_READ};
use crate::reactor::ConnIo;

/// The scheduler lock guards only queue bookkeeping, and no code under it
/// panics by design, so a poisoned lock is a bug in this module.
const POISONED: &str = "scheduler lock poisoned";

/// Bytes of deficit granted per recharge round. One quantum admits one
/// maximal request (32 MiB requests debit across many rounds, which is
/// the point: they pay for their size).
const QUANTUM: i64 = 256 << 10;

/// One request, carrying everything a worker needs to service it and
/// the connection its reply goes to.
pub(crate) struct Job {
    /// The connection the reply is written to.
    pub conn: Arc<ConnIo>,
    pub req: Request,
    /// WRITE payload (empty otherwise).
    pub data: Vec<u8>,
    pub export: Arc<Export>,
    /// The export's span ring (request ids were minted from it at decode).
    pub spans: Arc<SpanRing>,
    pub enqueued: Instant,
    /// Request id minted at command decode; 0 when tracing is off.
    pub req_id: u64,
    /// Span id of the decode span, parent of the dispatch span.
    pub parent_span: u64,
    /// The deficit was charged by a reactor claim that handed the job
    /// back; dispatch must not charge it again.
    charged: bool,
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        conn: Arc<ConnIo>,
        req: Request,
        data: Vec<u8>,
        export: Arc<Export>,
        spans: Arc<SpanRing>,
        req_id: u64,
        parent_span: u64,
    ) -> Job {
        Job {
            conn,
            req,
            data,
            export,
            spans,
            enqueued: Instant::now(),
            req_id,
            parent_span,
            charged: false,
        }
    }

    pub(crate) fn is_mutation(&self) -> bool {
        self.req.cmd != CMD_READ
    }

    /// Byte cost charged to the tenant's deficit. Zero-length commands
    /// (FLUSH) still cost one sector so they cannot be free.
    fn cost(&self) -> u64 {
        u64::from(self.req.length).max(4096)
    }
}

/// A dispatched job plus its lane; the worker must call
/// [`FleetScheduler::ordered_done`] after an ordered job completes.
pub(crate) struct Picked {
    pub job: Job,
    pub ordered: bool,
}

struct Tenant {
    export: Arc<Export>,
    ordered: VecDeque<Job>,
    reads: VecDeque<Job>,
    /// An ordered-lane job is in service; the lane is frozen until
    /// [`FleetScheduler::ordered_done`].
    ordered_active: bool,
    /// Deficit round-robin credit, in bytes.
    deficit: i64,
}

impl Tenant {
    fn queued(&self) -> usize {
        self.ordered.len() + self.reads.len()
    }

    /// The lane a worker would dispatch from next: the ordered lane when
    /// it is free and non-empty (mutation latency feeds ack latency), the
    /// read lane otherwise. `None` when neither has a runnable job.
    fn runnable_lane(&self) -> Option<bool> {
        if !self.ordered_active && !self.ordered.is_empty() {
            Some(true)
        } else if !self.reads.is_empty() {
            Some(false)
        } else {
            None
        }
    }

    fn lane(&mut self, ordered: bool) -> &mut VecDeque<Job> {
        if ordered {
            &mut self.ordered
        } else {
            &mut self.reads
        }
    }

    /// Dispatches the head of a lane if the tenant can pay for it: out of
    /// debt, it debits the job's cost from the deficit, unless a claim
    /// that handed the job back paid already. Freezes the ordered lane
    /// behind a mutation. `None` means the tenant is in debt until a
    /// recharge.
    fn take(&mut self, ordered: bool) -> Option<Job> {
        let head = self.lane(ordered).front().expect("non-empty lane");
        let cost = if head.charged { 0 } else { head.cost() as i64 };
        if cost > 0 && self.deficit < 0 {
            return None;
        }
        self.deficit -= cost;
        self.ordered_active |= ordered;
        self.lane(ordered).pop_front()
    }
}

struct SchedState {
    tenants: Vec<Tenant>,
    /// Round-robin scan start.
    next: usize,
    stop: bool,
}

impl SchedState {
    /// `export`'s tenant index, adding the tenant on its first job.
    fn tenant(&mut self, export: &Arc<Export>) -> usize {
        let name = export.name();
        if let Some(i) = self.tenants.iter().position(|t| t.export.name() == name) {
            return i;
        }
        self.tenants.push(Tenant {
            export: export.clone(),
            ordered: VecDeque::new(),
            reads: VecDeque::new(),
            ordered_active: false,
            deficit: QUANTUM,
        });
        self.tenants.len() - 1
    }

    /// Whether any tenant has a job a worker could dispatch now — the one
    /// condition for waking a parked worker. A job behind a frozen ordered
    /// lane does not count: `ordered_done` wakes a worker for it.
    fn runnable(&self) -> bool {
        self.tenants.iter().any(|t| t.runnable_lane().is_some())
    }

    /// Deficit round-robin's refill, for when no runnable tenant can
    /// afford its next job: every tenant gains the whole quanta the
    /// least-indebted one needs to afford it (at least one), capped at
    /// one quantum of credit. All at once, because workers wake only for
    /// runnable work: no idle pick comes along to add one quantum at a
    /// time.
    fn recharge(&mut self) {
        let debt = self
            .tenants
            .iter()
            .filter(|t| t.runnable_lane().is_some())
            .map(|t| -t.deficit)
            .min()
            .unwrap_or(0)
            .max(0);
        let rounds = ((debt + QUANTUM - 1) / QUANTUM).max(1);
        for t in &mut self.tenants {
            t.deficit = (t.deficit + rounds * QUANTUM).min(QUANTUM);
        }
    }
}

/// The shared scheduler; see the module docs for the model.
pub(crate) struct FleetScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl FleetScheduler {
    pub(crate) fn new() -> FleetScheduler {
        FleetScheduler {
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                next: 0,
                stop: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues `job` on its export's lane.
    pub(crate) fn push(&self, job: Job) {
        let mut s = self.state.lock().expect(POISONED);
        let i = s.tenant(&job.export);
        s.tenants[i].lane(job.is_mutation()).push_back(job);
        self.wake_if_runnable(s);
    }

    /// Enqueues `job` like [`FleetScheduler::push`] and, when a worker
    /// would dispatch it right now, dispatches it to the caller instead:
    /// its lane was free and empty, and its tenant can pay — the deficit
    /// is charged exactly as a worker's pick charges it, with the same
    /// recharge rule. A claimed mutation freezes the ordered lane until
    /// [`FleetScheduler::ordered_done`] or [`FleetScheduler::hand_back`].
    /// `None` means the job stays queued for a worker.
    pub(crate) fn claim(&self, job: Job) -> Option<Job> {
        let mut s = self.state.lock().expect(POISONED);
        let i = s.tenant(&job.export);
        let ordered = job.is_mutation();
        let t = &mut s.tenants[i];
        let free = if ordered {
            !t.ordered_active && t.ordered.is_empty()
        } else {
            t.reads.is_empty()
        };
        t.lane(ordered).push_back(job);
        if free {
            // A pick serves any tenant still within its deficit first, and
            // recharges only when none is.
            if s.tenants[i].deficit < 0
                && !s
                    .tenants
                    .iter()
                    .any(|t| t.deficit >= 0 && t.runnable_lane().is_some())
            {
                s.recharge();
            }
            if let Some(job) = s.tenants[i].take(ordered) {
                return Some(job);
            }
        }
        self.wake_if_runnable(s);
        None
    }

    /// Returns a claimed mutation to the head of its ordered lane and
    /// unfreezes the lane, so a worker runs it next. It was charged at
    /// the claim, and is not charged again.
    pub(crate) fn hand_back(&self, mut job: Job) {
        debug_assert!(job.is_mutation());
        job.charged = true;
        let mut s = self.state.lock().expect(POISONED);
        let i = s.tenant(&job.export);
        let t = &mut s.tenants[i];
        t.ordered_active = false;
        t.ordered.push_front(job);
        self.wake_if_runnable(s);
    }

    /// Dequeues the next runnable job, blocking until one is available.
    /// Returns `None` once the scheduler is stopped *and* every queue has
    /// drained — workers use this as their exit condition, so a stop
    /// still services everything that was accepted.
    pub(crate) fn pop(&self) -> Option<Picked> {
        let mut s = self.state.lock().expect(POISONED);
        loop {
            Self::prune(&mut s);
            if let Some(p) = Self::pick(&mut s) {
                // Another worker only for work this one left behind.
                self.wake_if_runnable(s);
                return Some(p);
            }
            if s.stop && s.tenants.iter().all(|t| t.queued() == 0) {
                return None;
            }
            // Parked: woken by push, hand_back, ordered_done or set_stop.
            s = self.cv.wait(s).expect(POISONED);
        }
    }

    /// Unfreezes `export`'s ordered lane after an ordered job's volume
    /// call returns. Wakes one parked worker, and only when a job is
    /// runnable: the finishing worker goes back to
    /// [`FleetScheduler::pop`] itself, and waking every idle worker per
    /// write only buys a thundering herd on the scheduler lock.
    pub(crate) fn ordered_done(&self, export: &str) {
        let mut s = self.state.lock().expect(POISONED);
        if let Some(t) = s.tenants.iter_mut().find(|t| t.export.name() == export) {
            t.ordered_active = false;
        }
        self.wake_if_runnable(s);
    }

    /// Wakes one parked worker if a job is runnable, releasing the lock
    /// first.
    fn wake_if_runnable(&self, s: std::sync::MutexGuard<'_, SchedState>) {
        let wake = s.runnable();
        drop(s);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Begins drain: no new pushes expected; `pop` returns `None` once
    /// dry.
    pub(crate) fn set_stop(&self) {
        self.state.lock().expect(POISONED).stop = true;
        self.cv.notify_all();
    }

    /// Total queued jobs (tests / drain monitoring).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .tenants
            .iter()
            .map(Tenant::queued)
            .sum()
    }

    /// Drops tenants that detached and drained, so the round-robin scan
    /// doesn't grow without bound across attach/detach cycles.
    fn prune(s: &mut SchedState) {
        let before = s.tenants.len();
        s.tenants
            .retain(|t| t.queued() > 0 || t.ordered_active || !t.export.is_fenced());
        if s.tenants.len() != before {
            s.next = 0;
        }
    }

    /// The next job in round-robin order from a tenant that can pay for
    /// it, recharging once when none can. `None` only when nothing is
    /// runnable (queues empty, or only ordered lanes frozen behind
    /// in-service jobs): after the recharge the least-indebted runnable
    /// tenant can always pay.
    fn pick(s: &mut SchedState) -> Option<Picked> {
        let n = s.tenants.len();
        for pass in 0..2 {
            for k in 0..n {
                let i = (s.next + k) % n;
                let t = &mut s.tenants[i];
                let Some(ordered) = t.runnable_lane() else {
                    continue;
                };
                if let Some(job) = t.take(ordered) {
                    s.next = (i + 1) % n;
                    return Some(Picked { job, ordered });
                }
            }
            if pass == 0 && n > 0 {
                s.recharge();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CMD_FLUSH, CMD_WRITE};
    use blkdev::RamDisk;
    use lsvd::config::VolumeConfig;
    use lsvd::fleet::ExportRegistry;
    use lsvd::shared::SharedVolume;
    use lsvd::volume::Volume;
    use objstore::MemStore;
    use std::time::Duration;

    fn registry_with(names: &[&str]) -> (Arc<ExportRegistry>, Vec<Arc<Export>>) {
        let reg = Arc::new(ExportRegistry::new());
        let mut exports = Vec::new();
        for name in names {
            let store = Arc::new(MemStore::new());
            let dev = Arc::new(RamDisk::new(8 << 20));
            let vol = Volume::create(store, dev, name, 16 << 20, VolumeConfig::small_for_tests())
                .unwrap();
            exports.push(reg.attach(name, SharedVolume::new(vol)).unwrap());
        }
        (reg, exports)
    }

    /// The server end of a connected loopback socket: a job's connection,
    /// with no reactor behind it.
    fn conn() -> Arc<ConnIo> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Arc::new(ConnIo::new(0, listener.accept().unwrap().0))
    }

    fn job(export: &Arc<Export>, cmd: u16, length: u32, cookie: u64) -> Job {
        let spans = export.volume().span_ring();
        Job::new(
            conn(),
            Request {
                flags: 0,
                cmd,
                cookie,
                offset: 0,
                length,
            },
            Vec::new(),
            export.clone(),
            spans,
            0,
            0,
        )
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let (_reg, exports) = registry_with(&["a", "b"]);
        let sched = FleetScheduler::new();
        // 3 reads per tenant, all the same size: dispatch must alternate.
        for i in 0..3 {
            sched.push(job(&exports[0], CMD_READ, 4096, i));
            sched.push(job(&exports[1], CMD_READ, 4096, 100 + i));
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let p = sched.pop().unwrap();
            order.push(p.job.export.name().to_string());
        }
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn deficit_round_robin_is_byte_fair() {
        let (_reg, exports) = registry_with(&["big", "small"]);
        let sched = FleetScheduler::new();
        // "big" queues 256 KiB reads, "small" queues 4 KiB reads. Over a
        // window where big moves ~2 MiB, small must also move its jobs —
        // a request-fair scheduler would dispatch 1:1 and byte-starve
        // nobody, but a naive FIFO would let big's backlog monopolize.
        for i in 0..8 {
            sched.push(job(&exports[0], CMD_READ, 256 << 10, i));
        }
        for i in 0..8 {
            sched.push(job(&exports[1], CMD_READ, 4096, 100 + i));
        }
        // Pop 10 jobs; count small's share.
        let mut small = 0;
        for _ in 0..10 {
            let p = sched.pop().unwrap();
            if p.job.export.name() == "small" {
                small += 1;
            }
        }
        assert!(
            small >= 5,
            "small tenant got {small}/10 dispatches against a heavy neighbour"
        );
    }

    #[test]
    fn ordered_lane_serializes_per_tenant() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_WRITE, 4096, 1));
        sched.push(job(&exports[0], CMD_WRITE, 4096, 2));
        sched.push(job(&exports[0], CMD_READ, 4096, 3));

        let first = sched.pop().unwrap();
        assert!(first.ordered);
        assert_eq!(first.job.req.cookie, 1);
        // Ordered lane frozen: the read dispatches, write #2 does not.
        let second = sched.pop().unwrap();
        assert!(!second.ordered);
        assert_eq!(second.job.req.cookie, 3);
        assert_eq!(sched.queued(), 1);
        // Completion unfreezes the lane.
        sched.ordered_done("t");
        let third = sched.pop().unwrap();
        assert!(third.ordered);
        assert_eq!(third.job.req.cookie, 2);
    }

    #[test]
    fn stop_drains_queues_then_returns_none() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_FLUSH, 0, 1));
        sched.set_stop();
        let p = sched.pop().unwrap();
        assert_eq!(p.job.req.cookie, 1);
        sched.ordered_done("t");
        assert!(sched.pop().is_none());
    }

    /// Pops on another thread, so a pop that never returns fails the test
    /// instead of hanging it.
    fn pop_within(sched: &Arc<FleetScheduler>, secs: u64) -> Option<Picked> {
        let (tx, rx) = std::sync::mpsc::channel();
        let sched = sched.clone();
        std::thread::spawn(move || {
            let _ = tx.send(sched.pop());
        });
        rx.recv_timeout(Duration::from_secs(secs)).ok().flatten()
    }

    #[test]
    fn a_parked_worker_is_woken_only_for_runnable_work() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = FleetScheduler::new();
        let runnable = || sched.state.lock().unwrap().runnable();
        sched.push(job(&exports[0], CMD_WRITE, 4096, 1));
        assert!(sched.pop().is_some());
        assert!(!runnable(), "the only queued job was popped");
        // Its lane is frozen: the writes queued behind it are not
        // runnable until ordered_done.
        sched.push(job(&exports[0], CMD_WRITE, 4096, 2));
        sched.push(job(&exports[0], CMD_FLUSH, 0, 3));
        assert!(!runnable(), "only ordered jobs behind a frozen lane");
        sched.push(job(&exports[0], CMD_READ, 4096, 4));
        assert!(runnable(), "a read is queued");
        sched.ordered_done("t");
        assert!(runnable());
    }

    /// `name`'s deficit, in bytes.
    fn deficit(sched: &FleetScheduler, name: &str) -> i64 {
        let s = sched.state.lock().unwrap();
        s.tenants
            .iter()
            .find(|t| t.export.name() == name)
            .expect("a tenant with queued or claimed work")
            .deficit
    }

    #[test]
    fn claim_charges_the_deficit_and_freezes_the_ordered_lane() {
        let (_reg, exports) = registry_with(&["t", "u"]);
        let sched = FleetScheduler::new();
        let w = sched.claim(job(&exports[0], CMD_WRITE, 4096, 1));
        assert!(w.is_some(), "an idle lane within its deficit");
        assert_eq!(deficit(&sched, "t"), QUANTUM - 4096);
        // The lane is frozen behind the claim: a second write queues,
        // uncharged.
        assert!(sched.claim(job(&exports[0], CMD_WRITE, 4096, 2)).is_none());
        assert_eq!(deficit(&sched, "t"), QUANTUM - 4096);
        // A read's lane is free: the claim dispatches it and charges it.
        assert!(sched.claim(job(&exports[0], CMD_READ, 4096, 3)).is_some());
        assert_eq!(deficit(&sched, "t"), QUANTUM - 2 * 4096);
        // A claim that puts the tenant in debt still dispatches; the next
        // one queues while a runnable neighbour can still pay.
        sched.push(job(&exports[1], CMD_READ, 4096, 4));
        assert!(sched
            .claim(job(&exports[0], CMD_READ, 256 << 10, 5))
            .is_some());
        assert!(deficit(&sched, "t") < 0);
        assert!(sched.claim(job(&exports[0], CMD_READ, 4096, 6)).is_none());
        assert_eq!(sched.queued(), 3);
    }

    #[test]
    fn a_handed_back_job_runs_next_without_a_second_charge() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = Arc::new(FleetScheduler::new());
        let w = sched.claim(job(&exports[0], CMD_WRITE, 4096, 1)).unwrap();
        assert_eq!(deficit(&sched, "t"), QUANTUM - 4096);
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        sched.hand_back(w);
        // The handed-back write dispatches next, ahead of the read, and
        // the claim's charge stays its only one.
        let p = pop_within(&sched, 5).expect("handed-back job never dispatched");
        assert!(p.ordered);
        assert_eq!(p.job.req.cookie, 1);
        assert_eq!(deficit(&sched, "t"), QUANTUM - 4096);
    }

    #[test]
    fn an_indebted_sole_tenant_is_recharged_enough_to_dispatch() {
        let (_reg, exports) = registry_with(&["t"]);
        let sched = Arc::new(FleetScheduler::new());
        // Each 1 MiB read costs four quanta: after the first, the tenant
        // needs three recharges before it can afford the next, and no
        // push or completion comes along to trigger them one by one.
        sched.push(job(&exports[0], CMD_READ, 1 << 20, 1));
        sched.push(job(&exports[0], CMD_READ, 1 << 20, 2));
        assert_eq!(pop_within(&sched, 5).unwrap().job.req.cookie, 1);
        let second = pop_within(&sched, 5).expect("an indebted tenant stalled");
        assert_eq!(second.job.req.cookie, 2);
        // The reactor's claim applies the same rule.
        let r = sched.claim(job(&exports[0], CMD_READ, 4096, 3));
        assert!(r.is_some(), "claim did not recharge the debt");
    }
}
