//! Fleet request scheduler: per-tenant two-lane queues, deficit
//! round-robin fairness, and QoS token buckets.
//!
//! Every export (tenant) owns two queues:
//!
//! - the **ordered lane** (WRITE / FLUSH / TRIM): at most one job per
//!   export is in service at a time (`ordered_active`), and jobs leave in
//!   arrival order — so per-export acknowledgement order equals cache-log
//!   order, the prefix-consistency contract, while two *different*
//!   tenants' mutations proceed in parallel on different volumes;
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
//! QoS ceilings ride on top: each tenant has a token bucket refilled at
//! its [`QosLimits`](lsvd::fleet::QosLimits) rates. A job whose tenant
//! is out of tokens stays queued (counted once as a throttle wait in the
//! tenant's telemetry) and workers sleep until the earliest refill.
//! Fenced (detaching) exports and server drain bypass the buckets so
//! teardown is never throttled.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// A throttle wait has been counted for this job already.
    throttle_counted: bool,
    /// QoS and the deficit were charged by a reactor claim that handed
    /// the job back; dispatch must not charge it again.
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
            throttle_counted: false,
            charged: false,
        }
    }

    pub(crate) fn is_mutation(&self) -> bool {
        self.req.cmd != CMD_READ
    }

    /// Byte cost charged to fairness and QoS accounting. Zero-length
    /// commands (FLUSH) still cost one sector so they cannot be free.
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

/// Per-tenant QoS token bucket. Tokens refill continuously at the limit
/// rates and cap at one second's worth; a job is admitted when the
/// bucket is out of debt, then debits its cost (possibly into debt, so
/// a single oversized request is delayed, never wedged).
pub(crate) struct TokenBucket {
    iops: f64,
    bytes: f64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(now: Instant) -> TokenBucket {
        TokenBucket {
            // Start full: the first refill caps these at the limit rate.
            iops: f64::INFINITY,
            bytes: f64::INFINITY,
            last: now,
        }
    }

    /// Tries to admit a job of `cost_bytes`. `Ok` debits the bucket;
    /// `Err` is the wait until admission would succeed.
    pub(crate) fn admit(
        &mut self,
        limits: lsvd::fleet::QosLimits,
        cost_bytes: u64,
        now: Instant,
    ) -> Result<(), Duration> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        if limits.iops > 0 {
            self.iops = (self.iops + dt * limits.iops as f64).min(limits.iops as f64);
        }
        if limits.bytes_per_sec > 0 {
            self.bytes =
                (self.bytes + dt * limits.bytes_per_sec as f64).min(limits.bytes_per_sec as f64);
        }
        let mut wait = Duration::ZERO;
        if limits.iops > 0 && self.iops < 1.0 {
            wait = wait.max(Duration::from_secs_f64(
                (1.0 - self.iops) / limits.iops as f64,
            ));
        }
        if limits.bytes_per_sec > 0 && self.bytes < 0.0 {
            wait = wait.max(Duration::from_secs_f64(
                -self.bytes / limits.bytes_per_sec as f64,
            ));
        }
        if wait > Duration::ZERO {
            return Err(wait.max(Duration::from_millis(1)));
        }
        if limits.iops > 0 {
            self.iops -= 1.0;
        }
        if limits.bytes_per_sec > 0 {
            self.bytes -= cost_bytes as f64;
        }
        Ok(())
    }
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
    bucket: TokenBucket,
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

    /// Charges one dispatch of `job`: the QoS bucket (bypassed by fenced
    /// exports and server drain, so teardown never waits for a refill),
    /// then the byte deficit. `Err(None)` means the tenant is in debt
    /// until a recharge; `Err(Some(wait))` that the bucket admits the job
    /// after `wait`, and counts the job's one throttle wait.
    fn charge(&mut self, job: &mut Job, stop: bool, now: Instant) -> Result<(), Option<Duration>> {
        if job.charged {
            return Ok(());
        }
        if self.deficit < 0 {
            return Err(None);
        }
        let cost = job.cost();
        if !stop && !self.export.is_fenced() {
            if let Err(wait) = self.bucket.admit(self.export.qos(), cost, now) {
                if !job.throttle_counted {
                    job.throttle_counted = true;
                    self.export.recorders().count_throttle_wait();
                }
                return Err(Some(wait));
            }
        }
        self.deficit -= cost as i64;
        Ok(())
    }

    /// Dispatches the head of a lane if the tenant can pay for it (see
    /// [`Tenant::charge`]), freezing the ordered lane behind a mutation.
    fn take(&mut self, ordered: bool, stop: bool, now: Instant) -> Result<Job, Option<Duration>> {
        let mut job = self.lane(ordered).pop_front().expect("non-empty lane");
        if let Err(wait) = self.charge(&mut job, stop, now) {
            self.lane(ordered).push_front(job);
            return Err(wait);
        }
        self.ordered_active |= ordered;
        Ok(job)
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
            bucket: TokenBucket::new(Instant::now()),
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

enum PickOutcome {
    Job(Box<Picked>),
    /// Runnable work exists but every candidate is out of QoS tokens;
    /// retry after this long.
    Throttled(Duration),
    /// Nothing runnable (queues empty, or only ordered lanes frozen
    /// behind in-service jobs).
    Idle,
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
    /// its lane was free and empty, and its tenant can pay — the QoS
    /// bucket and the deficit are charged exactly as a worker's pick
    /// charges them, with the same recharge rule. A claimed mutation
    /// freezes the ordered lane until [`FleetScheduler::ordered_done`] or
    /// [`FleetScheduler::hand_back`]. `None` means the job stays queued
    /// for a worker.
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
            let stop = s.stop;
            if let Ok(job) = s.tenants[i].take(ordered, stop, Instant::now()) {
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
            match Self::pick(&mut s, Instant::now()) {
                PickOutcome::Job(p) => {
                    // Another worker only for work this one left behind.
                    self.wake_if_runnable(s);
                    return Some(*p);
                }
                PickOutcome::Throttled(wait) => {
                    let (ns, _) = self
                        .cv
                        .wait_timeout(s, wait.min(Duration::from_millis(100)))
                        .expect(POISONED);
                    s = ns;
                }
                PickOutcome::Idle => {
                    if s.stop && s.tenants.iter().all(|t| t.queued() == 0) {
                        return None;
                    }
                    // Parked: woken by push, hand_back, ordered_done or
                    // set_stop.
                    s = self.cv.wait(s).expect(POISONED);
                }
            }
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
    /// dry. Queued jobs bypass QoS so the drain is prompt.
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

    fn pick(s: &mut SchedState, now: Instant) -> PickOutcome {
        let n = s.tenants.len();
        let stop = s.stop;
        let mut min_wait: Option<Duration> = None;
        for pass in 0..2 {
            for k in 0..n {
                let i = (s.next + k) % n;
                let t = &mut s.tenants[i];
                let Some(ordered) = t.runnable_lane() else {
                    continue;
                };
                match t.take(ordered, stop, now) {
                    Ok(job) => {
                        s.next = (i + 1) % n;
                        return PickOutcome::Job(Box::new(Picked { job, ordered }));
                    }
                    // Throttled; in debt until the recharge between passes.
                    Err(Some(wait)) => min_wait = Some(min_wait.map_or(wait, |w| w.min(wait))),
                    Err(None) => {}
                }
            }
            if pass == 0 && n > 0 {
                s.recharge();
            }
        }
        match min_wait {
            Some(w) => PickOutcome::Throttled(w),
            None => PickOutcome::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CMD_FLUSH, CMD_WRITE};
    use blkdev::RamDisk;
    use lsvd::config::VolumeConfig;
    use lsvd::fleet::{ExportRegistry, QosLimits};
    use lsvd::shared::SharedVolume;
    use lsvd::volume::Volume;
    use objstore::MemStore;

    fn registry_with(names: &[&str]) -> (Arc<ExportRegistry>, Vec<Arc<Export>>) {
        let reg = Arc::new(ExportRegistry::new());
        let mut exports = Vec::new();
        for name in names {
            let store = Arc::new(MemStore::new());
            let dev = Arc::new(RamDisk::new(8 << 20));
            let vol = Volume::create(store, dev, name, 16 << 20, VolumeConfig::small_for_tests())
                .unwrap();
            exports.push(
                reg.attach(name, SharedVolume::new(vol), QosLimits::default())
                    .unwrap(),
            );
        }
        (reg, exports)
    }

    /// The server end of a connected loopback socket: a job's connection,
    /// with no reactor behind it.
    fn conn() -> Arc<ConnIo> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Arc::new(ConnIo::new(0, listener.accept().unwrap().0, 32))
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

    #[test]
    fn token_bucket_enforces_iops_and_bytes() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(t0);
        let limits = QosLimits {
            iops: 10,
            bytes_per_sec: 1 << 20,
        };
        // Starts full: 10 IOPS tokens available immediately.
        for _ in 0..10 {
            assert!(b.admit(limits, 4096, t0).is_ok());
        }
        // 11th op at the same instant is throttled ~100ms.
        let wait = b.admit(limits, 4096, t0).unwrap_err();
        assert!(wait > Duration::from_millis(50), "{wait:?}");
        // 200ms later two tokens refilled.
        let t1 = t0 + Duration::from_millis(200);
        assert!(b.admit(limits, 4096, t1).is_ok());
        assert!(b.admit(limits, 4096, t1).is_ok());
        assert!(b.admit(limits, 4096, t1).is_err());

        // Byte ceiling: a 1 MiB burst drains the byte bucket; the next
        // job waits for a refill even though IOPS tokens exist.
        let mut b = TokenBucket::new(t0);
        let limits = QosLimits {
            iops: 0,
            bytes_per_sec: 1 << 20,
        };
        assert!(b.admit(limits, 1 << 20, t0).is_ok());
        assert!(b.admit(limits, 1 << 20, t0).is_ok()); // into debt once
        let wait = b.admit(limits, 4096, t0).unwrap_err();
        assert!(wait >= Duration::from_millis(900), "{wait:?}");
        // After a second the debt clears.
        let t1 = t0 + Duration::from_secs(2);
        assert!(b.admit(limits, 4096, t1).is_ok());

        // Unlimited admits anything.
        let mut b = TokenBucket::new(t0);
        assert!(b.admit(QosLimits::default(), u64::MAX / 2, t0).is_ok());
    }

    #[test]
    fn throttled_job_counts_one_throttle_wait() {
        let (_reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        // First admits (bucket starts full with 1 token), second throttles
        // and eventually admits after a refill.
        assert!(sched.pop().is_some());
        assert!(sched.pop().is_some());
        let snap = exports[0].recorders().snapshot();
        assert_eq!(snap.throttle_waits, 1, "counted exactly once");
    }

    #[test]
    fn fenced_exports_bypass_qos() {
        let (reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        sched.push(job(&exports[0], CMD_READ, 4096, 1));
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        assert!(sched.pop().is_some());
        // Fence via detach on another thread; the queued job must pop
        // immediately (QoS bypassed) so the drain is prompt.
        let t0 = Instant::now();
        let reg2 = reg.clone();
        let detacher = std::thread::spawn(move || {
            let _ = reg2.detach("t");
        });
        let p = sched.pop().unwrap();
        assert_eq!(p.job.req.cookie, 2);
        assert!(
            t0.elapsed() < Duration::from_millis(800),
            "drain waited out the token refill"
        );
        detacher.join().unwrap();
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

    #[test]
    fn claim_charges_qos_and_freezes_the_ordered_lane() {
        let (_reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = FleetScheduler::new();
        let w = sched.claim(job(&exports[0], CMD_WRITE, 4096, 1));
        assert!(w.is_some(), "an idle lane with a full bucket");
        // The lane is frozen behind the claim: a second write queues.
        assert!(sched.claim(job(&exports[0], CMD_WRITE, 4096, 2)).is_none());
        assert_eq!(exports[0].recorders().snapshot().throttle_waits, 0);
        // A read's lane is free, but the claim spent the bucket's token.
        let r = sched.claim(job(&exports[0], CMD_READ, 4096, 3));
        assert!(r.is_none(), "a throttled job is queued");
        assert_eq!(exports[0].recorders().snapshot().throttle_waits, 1);
        assert_eq!(sched.queued(), 2);
    }

    #[test]
    fn a_handed_back_job_runs_next_without_a_second_charge() {
        let (_reg, exports) = registry_with(&["t"]);
        exports[0].set_qos(QosLimits {
            iops: 1,
            bytes_per_sec: 0,
        });
        let sched = Arc::new(FleetScheduler::new());
        let w = sched.claim(job(&exports[0], CMD_WRITE, 4096, 1)).unwrap();
        sched.push(job(&exports[0], CMD_READ, 4096, 2));
        sched.hand_back(w);
        // The bucket is empty, yet the handed-back write dispatches at
        // once, ahead of the read, and with no throttle wait counted.
        let t0 = Instant::now();
        let p = pop_within(&sched, 5).expect("handed-back job never dispatched");
        assert!(p.ordered);
        assert_eq!(p.job.req.cookie, 1);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(exports[0].recorders().snapshot().throttle_waits, 0);
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
