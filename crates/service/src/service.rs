//! The compliance service: a worker pool draining the admission ring
//! through a shared [`VerdictCache`], with per-request deadlines and
//! graceful, draining shutdown.
//!
//! # Lifecycle of a request
//!
//! 1. A producer calls [`ComplianceService::submit`] (or
//!    `submit_with_deadline`). Admission is decided by the configured
//!    [`AdmissionPolicy`]; an admitted request yields a [`Ticket`].
//! 2. A worker dequeues the request. If its deadline already passed, the
//!    request is answered [`Outcome::TimedOut`] *without* burning an
//!    engine run; otherwise the worker assesses it through the shared
//!    sharded cache and answers [`Outcome::Completed`].
//! 3. Under [`AdmissionPolicy::DropOldest`], an admitted request may be
//!    evicted by a newer one before any worker sees it; its ticket is
//!    answered [`Outcome::Shed`] by the evicting producer.
//!
//! **Exactly-one-response invariant:** every admitted request — and only
//! admitted requests — receives exactly one response: `Completed`,
//! `TimedOut`, or `Shed`. Shutdown closes admission, drains everything
//! already queued, and joins the workers; nothing accepted is lost and
//! nothing is answered twice (double-fulfilment panics).

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::mpmc::{AdmissionPolicy, MpmcRing, PushError};
use forensic_law::action::InvestigativeAction;
use forensic_law::assessment::LegalAssessment;
use forensic_law::batch::VerdictCache;
use forensic_law::engine::ComplianceEngine;
use obs::{Span, Stage, TraceId};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ComplianceService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (clamped to at least one).
    pub workers: usize,
    /// Queue capacity (clamped to at least one).
    pub capacity: usize,
    /// What happens to a submission when the queue is full.
    pub policy: AdmissionPolicy,
    /// Deadline applied to [`submit`](ComplianceService::submit) calls
    /// that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Simulated minimum per-request engine time, for load experiments
    /// that model a heavier assessment pipeline than the current
    /// in-memory engine (remote statute lookups, disk-resident dockets).
    /// Implemented as a sleep: it occupies the request's worker slot —
    /// which is what queueing behavior depends on — without pinning a
    /// core, so deadline and backpressure experiments behave the same on
    /// small CI machines as on big ones. `ZERO` (the default) means real
    /// engine cost only.
    pub engine_floor: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            capacity: 1024,
            policy: AdmissionPolicy::Block,
            default_deadline: None,
            engine_floor: Duration::ZERO,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full and the policy is [`AdmissionPolicy::Reject`]:
    /// load was shed.
    Overloaded,
    /// The service is shutting down; admission is closed.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::Overloaded => "service overloaded: request shed at admission",
            SubmitError::ShuttingDown => "service shutting down: admission closed",
        })
    }
}

impl std::error::Error for SubmitError {}

/// How an admitted request was answered.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Assessed (possibly from cache); the verdict is attached.
    Completed(Arc<LegalAssessment>),
    /// The deadline passed before a worker got to it; no engine run was
    /// spent.
    TimedOut,
    /// Evicted from the queue by a newer request under
    /// [`AdmissionPolicy::DropOldest`].
    Shed,
}

impl Outcome {
    /// The assessment, when the request completed.
    pub fn assessment(&self) -> Option<&Arc<LegalAssessment>> {
        match self {
            Outcome::Completed(a) => Some(a),
            _ => None,
        }
    }

    /// The canonical `{verdict} [{confidence}]` line for a completed
    /// outcome ([`LegalAssessment::verdict_line`]) — the exact bytes
    /// the wire layer sends and the request journal stores, so replay
    /// can diff them byte-for-byte. `None` when there is no assessment
    /// to render (timed out or shed).
    pub fn verdict_line(&self) -> Option<String> {
        self.assessment().map(|a| a.verdict_line())
    }
}

/// `detail` code on a [`Stage::Queue`] span: the wait ended with a
/// worker picking the request up for assessment.
pub const OUTCOME_PICKED_UP: u64 = 0;
/// `detail` code on a [`Stage::Queue`] span: the wait ended past the
/// request's deadline; no engine run was spent.
pub const OUTCOME_TIMED_OUT: u64 = 1;
/// `detail` code on a [`Stage::Queue`] span: the request was evicted by
/// a newer one under [`AdmissionPolicy::DropOldest`].
pub const OUTCOME_SHED: u64 = 2;

/// The service's answer to one admitted request.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// How the request was answered.
    pub outcome: Outcome,
    /// Time spent queued before a worker (or evictor) resolved it.
    pub queue_wait: Duration,
    /// Admission-to-response latency.
    pub total: Duration,
    /// The trace id the request carried through the stack — the join
    /// key for its span chain in [`obs::global`] and its provenance
    /// record. [`TraceId::UNTRACED`] never occurs for admitted
    /// requests: submission mints an id when the caller didn't.
    pub trace: TraceId,
}

/// One-shot response slot shared between a [`Ticket`] and the worker
/// pool.
struct Slot {
    cell: Mutex<Option<ServiceResponse>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Posts the response. Panics on a second fulfilment — the
    /// exactly-once invariant is structural, not best-effort.
    fn fulfill(&self, response: ServiceResponse) {
        let mut cell = self.cell.lock().expect("slot lock");
        assert!(
            cell.is_none(),
            "an admitted request must be answered exactly once"
        );
        *cell = Some(response);
        self.ready.notify_all();
    }
}

/// A claim on the eventual response to one admitted request.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the service answers, then returns the response.
    ///
    /// Never blocks forever against a live service: every admitted
    /// request is answered by a worker, an evictor, or the shutdown
    /// drain.
    pub fn wait(self) -> ServiceResponse {
        let mut cell = self.slot.cell.lock().expect("slot lock");
        loop {
            if let Some(response) = cell.take() {
                return response;
            }
            cell = self.slot.ready.wait(cell).expect("slot lock");
        }
    }

    /// Returns the response if it has already been posted.
    pub fn try_response(&self) -> Option<ServiceResponse> {
        self.slot.cell.lock().expect("slot lock").clone()
    }
}

/// A completion observer: called with the response, exactly once, on
/// whichever thread answers the request (a worker, an evicting producer,
/// or the shutdown drain). This is how the wire layer gets out-of-order
/// completion without parking a thread per in-flight request.
pub type ResponseObserver = Box<dyn FnOnce(&ServiceResponse) + Send>;

/// An observed submission that was not admitted: the typed error plus
/// the unfired observer, handed back so the caller can still answer its
/// own client (a request that was never admitted gets no service
/// response).
pub struct ObservedRejection {
    /// Why admission failed.
    pub error: SubmitError,
    /// The observer, unfired.
    pub observer: ResponseObserver,
}

impl std::fmt::Debug for ObservedRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedRejection")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// One queued unit of work. Span timestamps are all derived from
/// `admitted` (and the worker's own pickup Instant) when the global
/// span log is enabled, so tracing adds no field here and no clock
/// read on the submit path.
struct Job {
    action: InvestigativeAction,
    slot: Arc<Slot>,
    admitted: Instant,
    deadline: Option<Instant>,
    trace: TraceId,
    notify: Option<ResponseObserver>,
}

impl Job {
    /// Answers the request, consuming the job: fires the observer (if
    /// any) and posts to the ticket slot. Every answer — worker,
    /// evictor, drain — funnels through here, so the exactly-once panic
    /// guard in [`Slot::fulfill`] covers observed requests too.
    fn finish(self, response: ServiceResponse) {
        if let Some(notify) = self.notify {
            notify(&response);
        }
        self.slot.fulfill(response);
    }
}

/// A long-running, load-tolerant compliance request server over the
/// `forensic-law` engine. See the [module docs](self).
pub struct ComplianceService {
    queue: Arc<MpmcRing<Job>>,
    policy: AdmissionPolicy,
    default_deadline: Option<Duration>,
    metrics: Arc<ServiceMetrics>,
    cache: Arc<VerdictCache>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ComplianceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComplianceService")
            .field("policy", &self.policy)
            .field("queue_depth", &self.queue.len())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").finish_non_exhaustive()
    }
}

impl ComplianceService {
    /// Starts the worker pool with a fresh shared cache.
    pub fn start(config: ServiceConfig) -> Self {
        ComplianceService::start_with_cache(config, Arc::new(VerdictCache::new()))
    }

    /// Starts the worker pool routing assessments through `cache`, so a
    /// service can inherit entries warmed by earlier batch runs (or by a
    /// previous incarnation of itself).
    pub fn start_with_cache(config: ServiceConfig, cache: Arc<VerdictCache>) -> Self {
        let queue = Arc::new(MpmcRing::new(config.capacity));
        let metrics = Arc::new(ServiceMetrics::default());
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let cache = Arc::clone(&cache);
                let floor = config.engine_floor;
                std::thread::spawn(move || worker_loop(&queue, &metrics, &cache, floor))
            })
            .collect();
        ComplianceService {
            queue,
            policy: config.policy,
            default_deadline: config.default_deadline,
            metrics,
            cache,
            workers,
        }
    }

    /// Submits one action under the configured default deadline.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full under the
    /// `Reject` policy; [`SubmitError::ShuttingDown`] once admission has
    /// closed.
    pub fn submit(&self, action: InvestigativeAction) -> Result<Ticket, SubmitError> {
        self.submit_inner(action, self.default_deadline, TraceId::mint(), None)
            .map_err(|(e, _)| e)
    }

    /// Submits one action with an explicit deadline relative to now.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_with_deadline(
        &self,
        action: InvestigativeAction,
        deadline: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(action, Some(deadline), TraceId::mint(), None)
            .map_err(|(e, _)| e)
    }

    /// Submits one action whose response is delivered to `on_response`
    /// instead of through a [`Ticket`]: the observer fires exactly once,
    /// on whichever thread answers the request. This is the asynchronous
    /// completion path the wire layer pipelines on.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit); on an error the observer is
    /// returned unfired inside the [`ObservedRejection`].
    pub fn submit_observed(
        &self,
        action: InvestigativeAction,
        deadline: Option<Duration>,
        on_response: ResponseObserver,
    ) -> Result<(), ObservedRejection> {
        self.submit_observed_traced(action, deadline, TraceId::mint(), on_response)
    }

    /// [`submit_observed`](Self::submit_observed) for a request whose
    /// trace id was minted further up the stack (the wire server mints
    /// at frame decode): the id is propagated, not re-minted, so spans
    /// recorded here join the caller's chain.
    ///
    /// # Errors
    ///
    /// As for [`submit_observed`](Self::submit_observed).
    pub fn submit_observed_traced(
        &self,
        action: InvestigativeAction,
        deadline: Option<Duration>,
        trace: TraceId,
        on_response: ResponseObserver,
    ) -> Result<(), ObservedRejection> {
        match self.submit_inner(action, deadline, trace, Some(on_response)) {
            Ok(_ticket) => Ok(()),
            Err((error, notify)) => Err(ObservedRejection {
                error,
                observer: notify.expect("observed submit carries an observer"),
            }),
        }
    }

    fn submit_inner(
        &self,
        action: InvestigativeAction,
        deadline: Option<Duration>,
        trace: TraceId,
        notify: Option<ResponseObserver>,
    ) -> Result<Ticket, (SubmitError, Option<ResponseObserver>)> {
        self.metrics.submitted.inc();
        let now = Instant::now();
        let slot = Slot::new();
        let log = obs::global();
        let job = Job {
            action,
            slot: Arc::clone(&slot),
            admitted: now,
            deadline: deadline.map(|d| now + d),
            trace,
            notify,
        };
        match self.queue.push(job, self.policy) {
            Ok(evicted) => {
                self.metrics.accepted.inc();
                for old in evicted {
                    // The producer that caused the eviction answers each
                    // victim, so the invariant holds without any worker
                    // involvement. (The lock-free ring can evict more
                    // than one victim when racing producers win the
                    // freed slot.)
                    self.metrics.evicted.inc();
                    let waited = old.admitted.elapsed();
                    self.metrics.end_to_end.record(waited);
                    if log.is_enabled() {
                        log.record(Span {
                            trace: old.trace,
                            stage: Stage::Queue,
                            start_us: obs::us_since_epoch(old.admitted),
                            dur_us: obs::dur_us(waited),
                            detail: OUTCOME_SHED,
                        });
                    }
                    let trace = old.trace;
                    old.finish(ServiceResponse {
                        outcome: Outcome::Shed,
                        queue_wait: waited,
                        total: waited,
                        trace,
                    });
                }
                Ok(Ticket { slot })
            }
            Err(PushError::Full(job)) => {
                self.metrics.rejected.inc();
                Err((SubmitError::Overloaded, job.notify))
            }
            Err(PushError::Closed(job)) => Err((SubmitError::ShuttingDown, job.notify)),
        }
    }

    /// Closes admission without waiting: later submissions fail with
    /// [`SubmitError::ShuttingDown`], while workers keep draining what
    /// was already accepted. Idempotent.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Graceful shutdown: closes admission, lets the workers drain every
    /// queued request (each still gets its one response), joins them, and
    /// returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        self.metrics.snapshot(self.queue.len())
    }

    /// Live metrics (counters are running totals; histograms cumulative).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.queue.len())
    }

    /// The shared verdict cache the workers assess through.
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// Requests currently queued (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The configured admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }
}

impl Drop for ComplianceService {
    fn drop(&mut self) {
        // A dropped service still drains: close admission and join so no
        // admitted request is left unanswered.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    queue: &MpmcRing<Job>,
    metrics: &ServiceMetrics,
    cache: &VerdictCache,
    floor: Duration,
) {
    let engine = ComplianceEngine::new();
    let log = obs::global();
    while let Some(job) = queue.pop_wait() {
        let picked_up = Instant::now();
        let waited = picked_up.duration_since(job.admitted);
        metrics.queue_wait.record(waited);
        let trace = job.trace;
        // Hoisted once per request; every span below reuses Instants the
        // metrics already pay for, so the whole tracing cost when
        // enabled is the ring records themselves.
        let tracing = log.is_enabled();
        let queue_span = |detail: u64| Span {
            trace,
            stage: Stage::Queue,
            start_us: obs::us_since_epoch(job.admitted),
            dur_us: obs::dur_us(waited),
            detail,
        };

        if job.deadline.is_some_and(|d| picked_up > d) {
            // Past deadline: answer without burning an engine run.
            metrics.timed_out.inc();
            let total = job.admitted.elapsed();
            metrics.end_to_end.record(total);
            if tracing {
                log.record(queue_span(OUTCOME_TIMED_OUT));
            }
            job.finish(ServiceResponse {
                outcome: Outcome::TimedOut,
                queue_wait: waited,
                total,
                trace,
            });
            continue;
        }

        let engine_start = Instant::now();
        if !floor.is_zero() {
            std::thread::sleep(floor);
        }
        let assessment = cache.assess(&engine, &job.action);
        let engine_dur = engine_start.elapsed();
        metrics.engine.record(engine_dur);
        if tracing {
            // Both spans packed into one ring slot; timestamps reuse
            // the Instants the metrics above already captured.
            log.record_pair(
                queue_span(OUTCOME_PICKED_UP),
                Span {
                    trace,
                    stage: Stage::Engine,
                    start_us: obs::us_since_epoch(engine_start),
                    dur_us: obs::dur_us(engine_dur),
                    detail: OUTCOME_PICKED_UP,
                },
            );
        }
        metrics.completed.inc();
        let total = job.admitted.elapsed();
        metrics.end_to_end.record(total);
        job.finish(ServiceResponse {
            outcome: Outcome::Completed(assessment),
            queue_wait: waited,
            total,
            trace,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forensic_law::scenarios::table1;

    fn table1_actions() -> Vec<InvestigativeAction> {
        table1().iter().map(|s| s.action().clone()).collect()
    }

    /// Blocks until the queue is empty, i.e. a worker has picked up
    /// everything submitted so far.
    fn wait_for_drain(service: &ComplianceService) {
        while service.queue_depth() > 0 {
            std::thread::yield_now();
        }
    }

    /// A config that parks one worker on each job long enough for a test
    /// to fill the queue deterministically behind it.
    fn slow_single_worker(capacity: usize, policy: AdmissionPolicy) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            capacity,
            policy,
            default_deadline: None,
            engine_floor: Duration::from_millis(30),
        }
    }

    #[test]
    fn answers_match_a_fresh_engine() {
        let service = ComplianceService::start(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let engine = ComplianceEngine::new();
        let actions = table1_actions();
        let tickets: Vec<_> = actions
            .iter()
            .map(|a| service.submit(a.clone()).expect("admitted"))
            .collect();
        for (action, ticket) in actions.iter().zip(tickets) {
            let response = ticket.wait();
            let assessment = response.outcome.assessment().expect("completed");
            assert_eq!(assessment.verdict(), engine.assess(action).verdict());
            assert!(response.total >= response.queue_wait);
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, actions.len() as u64);
        assert_eq!(snap.responses(), snap.accepted);
    }

    #[test]
    fn expired_deadline_is_answered_without_an_engine_run() {
        let service = ComplianceService::start(slow_single_worker(8, AdmissionPolicy::Block));
        let actions = table1_actions();
        // Occupy the worker, then queue a request that will be stale by
        // the time the worker frees up.
        let first = service.submit(actions[0].clone()).unwrap();
        wait_for_drain(&service);
        let stale = service
            .submit_with_deadline(actions[1].clone(), Duration::ZERO)
            .unwrap();
        match stale.wait().outcome {
            Outcome::TimedOut => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(matches!(first.wait().outcome, Outcome::Completed(_)));
        // The timed-out request never touched the engine or cache.
        assert_eq!(service.cache().stats().lookups(), 1);
        let snap = service.shutdown();
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.engine.count, 1);
    }

    #[test]
    fn reject_policy_sheds_at_capacity() {
        let service = ComplianceService::start(slow_single_worker(2, AdmissionPolicy::Reject));
        let actions = table1_actions();
        let busy = service.submit(actions[0].clone()).unwrap();
        wait_for_drain(&service);
        let queued: Vec<_> = (1..3)
            .map(|i| service.submit(actions[i].clone()).unwrap())
            .collect();
        assert_eq!(
            service.submit(actions[3].clone()).unwrap_err(),
            SubmitError::Overloaded
        );
        for ticket in queued.into_iter().chain([busy]) {
            assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
        }
        let snap = service.shutdown();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.responses(), 3);
        assert!(snap.shed_rate() > 0.0);
    }

    #[test]
    fn drop_oldest_policy_answers_the_evicted_request_shed() {
        let service = ComplianceService::start(slow_single_worker(2, AdmissionPolicy::DropOldest));
        let actions = table1_actions();
        let busy = service.submit(actions[0].clone()).unwrap();
        wait_for_drain(&service);
        let oldest = service.submit(actions[1].clone()).unwrap();
        let kept = service.submit(actions[2].clone()).unwrap();
        let newest = service.submit(actions[3].clone()).unwrap(); // evicts `oldest`
        assert!(matches!(oldest.wait().outcome, Outcome::Shed));
        for ticket in [busy, kept, newest] {
            assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
        }
        let snap = service.shutdown();
        assert_eq!(snap.evicted, 1);
        assert_eq!(snap.accepted, 4);
        assert_eq!(snap.responses(), 4);
    }

    #[test]
    fn close_stops_admission_but_drains_accepted_work() {
        let service = ComplianceService::start(slow_single_worker(8, AdmissionPolicy::Block));
        let actions = table1_actions();
        let tickets: Vec<_> = (0..4)
            .map(|i| service.submit(actions[i].clone()).unwrap())
            .collect();
        service.close();
        assert_eq!(
            service.submit(actions[4].clone()).unwrap_err(),
            SubmitError::ShuttingDown
        );
        for ticket in tickets {
            assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
        }
        let snap = service.shutdown();
        assert_eq!(snap.accepted, 4);
        assert_eq!(snap.responses(), 4);
    }

    #[test]
    fn shared_cache_serves_repeat_requests_from_memory() {
        let service = ComplianceService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let action = table1_actions().remove(0);
        for _ in 0..10 {
            let ticket = service.submit(action.clone()).unwrap();
            assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
        }
        let stats = service.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        service.shutdown();
    }

    #[test]
    fn observed_submit_fires_exactly_once_with_the_assessment() {
        use std::sync::mpsc;
        let service = ComplianceService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let engine = ComplianceEngine::new();
        let actions = table1_actions();
        let (tx, rx) = mpsc::channel();
        for (i, action) in actions.iter().enumerate() {
            let tx = tx.clone();
            service
                .submit_observed(
                    action.clone(),
                    None,
                    Box::new(move |response: &ServiceResponse| {
                        tx.send((i, response.clone())).unwrap();
                    }),
                )
                .expect("admitted");
        }
        drop(tx);
        let mut seen = vec![0u32; actions.len()];
        for (i, response) in rx {
            seen[i] += 1;
            let assessment = response.outcome.assessment().expect("completed");
            assert_eq!(
                assessment.verdict(),
                engine.assess(&actions[i]).verdict(),
                "observed response #{i} disagrees with a fresh engine"
            );
        }
        assert!(seen.iter().all(|&n| n == 1), "observer fired {seen:?}");
        let snap = service.shutdown();
        assert_eq!(snap.responses(), snap.accepted);
    }

    #[test]
    fn observed_submit_sees_shed_and_drain_responses() {
        use std::sync::mpsc;
        let service = ComplianceService::start(slow_single_worker(2, AdmissionPolicy::DropOldest));
        let actions = table1_actions();
        let (tx, rx) = mpsc::channel();
        let observe = |tx: &mpsc::Sender<&'static str>| {
            let tx = tx.clone();
            Box::new(move |response: &ServiceResponse| {
                tx.send(match response.outcome {
                    Outcome::Completed(_) => "completed",
                    Outcome::TimedOut => "timed-out",
                    Outcome::Shed => "shed",
                })
                .unwrap();
            })
        };
        // Occupy the worker, fill the queue, then evict the oldest.
        service
            .submit_observed(actions[0].clone(), None, observe(&tx))
            .unwrap();
        wait_for_drain(&service);
        for action in &actions[1..4] {
            service
                .submit_observed(action.clone(), None, observe(&tx))
                .unwrap();
        }
        drop(tx);
        // Shutdown drains the still-queued requests; every observer fires.
        let snap = service.shutdown();
        let outcomes: Vec<_> = rx.into_iter().collect();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes.iter().filter(|o| **o == "shed").count(), 1);
        assert_eq!(outcomes.iter().filter(|o| **o == "completed").count(), 3);
        assert_eq!(snap.responses(), snap.accepted);
    }

    #[test]
    fn observed_submit_hands_the_observer_back_on_rejection() {
        let service = ComplianceService::start(slow_single_worker(1, AdmissionPolicy::Reject));
        let actions = table1_actions();
        let fired = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let observe = |fired: &Arc<std::sync::atomic::AtomicU32>| {
            let fired = Arc::clone(fired);
            Box::new(move |_: &ServiceResponse| {
                fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })
        };
        service
            .submit_observed(actions[0].clone(), None, observe(&fired))
            .unwrap();
        wait_for_drain(&service);
        service
            .submit_observed(actions[1].clone(), None, observe(&fired))
            .unwrap();
        let rejection = service
            .submit_observed(actions[2].clone(), None, observe(&fired))
            .unwrap_err();
        assert_eq!(rejection.error, SubmitError::Overloaded);
        // The unfired observer comes back so the caller can answer its
        // own client; it never double-fires through the service.
        (rejection.observer)(&ServiceResponse {
            outcome: Outcome::Shed,
            queue_wait: Duration::ZERO,
            total: Duration::ZERO,
            trace: TraceId::UNTRACED,
        });
        let snap = service.shutdown();
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 3);
        assert_eq!(snap.responses(), snap.accepted);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn completed_response_joins_queue_and_engine_spans_by_trace() {
        obs::global().set_enabled(true);
        let service = ComplianceService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let action = table1_actions().remove(0);
        let response = service.submit(action).unwrap().wait();
        assert!(response.trace.is_traced());
        let spans = obs::global().spans_for(response.trace);
        let stages: Vec<_> = spans.iter().map(|s| s.stage).collect();
        assert!(
            stages.contains(&Stage::Queue) && stages.contains(&Stage::Engine),
            "expected queue+engine chain for {}, got {stages:?}",
            response.trace
        );
        let queue = spans.iter().find(|s| s.stage == Stage::Queue).unwrap();
        assert_eq!(queue.detail, OUTCOME_PICKED_UP);
        service.shutdown();
    }

    #[test]
    fn traced_submission_propagates_the_callers_id() {
        use std::sync::mpsc;
        obs::global().set_enabled(true);
        let service = ComplianceService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let minted = TraceId::mint();
        let (tx, rx) = mpsc::channel();
        service
            .submit_observed_traced(
                table1_actions().remove(0),
                None,
                minted,
                Box::new(move |response: &ServiceResponse| {
                    tx.send(response.trace).unwrap();
                }),
            )
            .unwrap();
        assert_eq!(
            rx.recv().unwrap(),
            minted,
            "trace must propagate, not re-mint"
        );
        service.shutdown();
        assert!(!obs::global().spans_for(minted).is_empty());
    }

    #[test]
    fn ticket_is_answered_by_shutdown_drain() {
        let service = ComplianceService::start(slow_single_worker(8, AdmissionPolicy::Block));
        let action = table1_actions().remove(0);
        let ticket = service.submit(action).unwrap();
        // May or may not be answered yet; after shutdown it must be.
        service.shutdown();
        assert!(ticket.try_response().is_some());
        assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
    }
}
