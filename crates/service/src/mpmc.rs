//! The service's bounded MPMC admission queue, with explicit admission
//! control.
//!
//! This is the service's load-bearing wall: every request a
//! [`ComplianceService`](crate::service::ComplianceService) accepts sits
//! here between admission and a worker picking it up. The overload
//! decision is explicit instead of implicit:
//!
//! * [`AdmissionPolicy::Block`] — producers wait for space (closed-loop
//!   clients, batch replays).
//! * [`AdmissionPolicy::Reject`] — a full queue sheds the *new* item back
//!   to the producer (open-loop traffic that must stay low-latency).
//! * [`AdmissionPolicy::DropOldest`] — a full queue evicts the oldest
//!   queued item to admit the new one (freshness-biased workloads); the
//!   evicted item is handed back so its owner can still be answered.
//!
//! Closing the ring ([`MpmcRing::close`]) wakes every waiter; producers
//! get their item back via [`PushError::Closed`], and consumers drain
//! whatever is already queued before [`MpmcRing::pop_wait`] starts
//! returning `None`. Nothing already admitted is ever silently dropped —
//! that invariant is what lets the service promise exactly one response
//! per accepted request.
//!
//! The ring is lock-free on its hot path, built on the claim-then-publish
//! per-slot sequencing protocol already proven in
//! `crates/obs/src/ring.rs`, so producers and workers never serialize
//! through a single `Mutex`.
//!
//! # Protocol
//!
//! Each slot carries an atomic sequence number. A producer *claims* a
//! position by CAS-advancing the enqueue cursor when the slot's
//! sequence says "free for this lap", writes the value, then
//! *publishes* by storing `pos + 1` into the sequence — exactly the
//! writing→published two-phase of the obs span ring, with the lap baked
//! into the (never-wrapping) 64-bit position. Consumers mirror it: claim
//! via the dequeue cursor when the sequence says "published", take the
//! value, then release the slot for the next lap (`pos + ring_size`).
//! The cursors are on separate cache lines; the hot path is one CAS plus
//! one release store per side, with no lock and no syscall.
//!
//! # Parked-waiter fallback
//!
//! Blocking behavior ([`AdmissionPolicy::Block`] producers, and
//! consumers in [`MpmcRing::pop_wait`]) cannot spin at these queue
//! depths, so both sides fall back to a `Mutex`+`Condvar` *parking lot*
//! that holds no queue state: the lock-free fast path never touches it,
//! and the slow path re-checks the ring under a registered parked count
//! before sleeping. Wakers take the lock only when the parked count is
//! nonzero, and sleepers use a bounded `wait_timeout` as a belt-and-
//! braces net, so a missed wakeup can cost milliseconds, never liveness.
//!
//! # Close without strays
//!
//! The race this design must not lose: a producer passes the closed
//! check, is preempted, the ring closes and consumers observe "closed +
//! empty" and exit — then the producer publishes into a ring nobody will
//! ever drain. The ring prevents it with an in-flight producer count:
//! producers register *before* reading the closed flag, and consumers
//! treat "closed and empty" as terminal only once the in-flight count is
//! zero (re-sweeping the ring after that observation). Every push is
//! therefore either handed back as [`PushError::Closed`] or popped by a
//! consumer — the exactly-one-response invariant upstream relies on it.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long a parked thread sleeps before re-checking the ring on its
/// own: the safety net that makes parking correct even if a wakeup is
/// lost, without putting a lock on the fast path.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// What a producer wants done when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait until a consumer makes room (or the queue closes).
    #[default]
    Block,
    /// Refuse the new item immediately, handing it back to the producer.
    Reject,
    /// Evict the oldest queued item to make room for the new one.
    DropOldest,
}

impl AdmissionPolicy {
    /// Parses the CLI vocabulary: `block`, `reject`, `drop-oldest`.
    pub fn parse(word: &str) -> Option<AdmissionPolicy> {
        Some(match word {
            "block" => AdmissionPolicy::Block,
            "reject" => AdmissionPolicy::Reject,
            "drop-oldest" => AdmissionPolicy::DropOldest,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::DropOldest => "drop-oldest",
        })
    }
}

/// Why a push did not land, with the item handed back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (only under [`AdmissionPolicy::Reject`]).
    Full(T),
    /// The queue has been closed to new items.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the item that was not admitted.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// One ring slot: a sequence number gating claim/publish plus the
/// (conditionally initialized) value.
struct Slot<T> {
    /// `pos` → free for the producer claiming position `pos`;
    /// `pos + 1` → published, waiting for the consumer at `pos`;
    /// `pos + ring_size` → released, free for the next lap's producer.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A cursor on its own cache line, so producers and consumers do not
/// false-share.
#[repr(align(64))]
struct Cursor(AtomicU64);

/// Waiter registry behind the parking-lot mutex. It carries no queue
/// state — only how many threads are asleep on each side.
#[derive(Default)]
struct ParkState;

/// A bounded lock-free MPMC queue admitting under an
/// [`AdmissionPolicy`]. See the [module docs](self) for the protocol.
pub struct MpmcRing<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// The advertised bound, which may be below the (power-of-two) slot
    /// count; enforced against the dequeue cursor at claim time.
    capacity: usize,
    enqueue_pos: Cursor,
    dequeue_pos: Cursor,
    closed: AtomicBool,
    /// Producers that have registered for a push and not yet either
    /// published or handed the item back; consumers may not treat
    /// "closed + empty" as terminal while this is nonzero.
    producers_inflight: AtomicUsize,
    parked_producers: AtomicUsize,
    parked_consumers: AtomicUsize,
    park: Mutex<ParkState>,
    not_full: Condvar,
    not_empty: Condvar,
}

// SAFETY: the slot protocol hands each value from exactly one producer
// to exactly one consumer, with the Release publish / Acquire claim pair
// ordering the value write before the read; the ring is therefore safe
// to share whenever the element itself may move between threads.
unsafe impl<T: Send> Sync for MpmcRing<T> {}
unsafe impl<T: Send> Send for MpmcRing<T> {}

impl<T> std::fmt::Debug for MpmcRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcRing")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> MpmcRing<T> {
    /// Creates a ring admitting at most `capacity` items (clamped to at
    /// least one). The slot array is the next power of two, and at least
    /// two slots: with one, "published for the consumer at `pos`" and
    /// "released for the producer at `pos + 1`" are the same sequence
    /// value, so a producer could overwrite a claimed but unread item.
    /// The advertised capacity is enforced exactly either way.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let ring_size = capacity.next_power_of_two().max(2);
        let slots: Box<[Slot<T>]> = (0..ring_size)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            slots,
            mask: (ring_size - 1) as u64,
            capacity,
            enqueue_pos: Cursor(AtomicU64::new(0)),
            dequeue_pos: Cursor(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            producers_inflight: AtomicUsize::new(0),
            parked_producers: AtomicUsize::new(0),
            parked_consumers: AtomicUsize::new(0),
            park: Mutex::new(ParkState),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The advertised capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.dequeue_pos.0.load(Ordering::Relaxed);
        let head = self.enqueue_pos.0.load(Ordering::Relaxed);
        head.saturating_sub(tail) as usize
    }

    /// Whether nothing is queued (racy by nature; exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// The lock-free claim-then-publish enqueue. `Err(item)` means the
    /// ring was full (never that it was closed — callers gate on the
    /// closed flag themselves, under a registered in-flight count).
    ///
    /// Does **not** wake parked consumers: waking takes the park lock,
    /// and the Block-policy re-check calls this while already holding
    /// it (a non-reentrant `Mutex` would self-deadlock). Callers wake
    /// via [`wake_consumer`](Self::wake_consumer) once the lock is out
    /// of their hands.
    fn try_push_slot(&self, item: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // The slot is free for this lap. Enforce the advertised
                // bound against a fresh dequeue cursor: the cursor only
                // grows, so a stale read under-counts departures and the
                // check errs full, never over-admits. `pos` itself may be
                // stale — another producer claimed it and a consumer
                // popped it since our `seq` load, leaving the dequeue
                // cursor past it — so saturate: the CAS below then fails
                // and we chase the cursor instead of reporting "full".
                if pos.saturating_sub(self.dequeue_pos.0.load(Ordering::Acquire))
                    >= self.capacity as u64
                {
                    return Err(item);
                }
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Claimed: write, then publish with Release so
                        // the consumer's Acquire claim sees the value.
                        unsafe { (*slot.value.get()).write(item) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq < pos {
                // The consumer of the previous lap has not released this
                // slot yet: the ring is full.
                return Err(item);
            } else {
                // Another producer claimed `pos`; chase the cursor.
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// The lock-free claim-then-take dequeue. `None` means nothing is
    /// published right now (a claimed-but-unpublished slot counts as
    /// not-yet-here).
    pub fn try_pop(&self) -> Option<T> {
        let item = self.try_pop_slot()?;
        self.wake_producer();
        Some(item)
    }

    /// [`try_pop`](Self::try_pop) minus the producer wakeup, for the
    /// parked re-check in [`pop_wait`](Self::pop_wait): waking re-locks
    /// `self.park`, which that caller already holds (see
    /// [`try_push_slot`](Self::try_push_slot)).
    fn try_pop_slot(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        // Release the slot for the producer one lap
                        // ahead.
                        slot.seq
                            .store(pos + self.slots.len() as u64, Ordering::Release);
                        return Some(item);
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq <= pos {
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    fn wake_consumer(&self) {
        if self.parked_consumers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify against a consumer that
            // is between registering and sleeping.
            drop(self.park.lock().expect("park lock"));
            self.not_empty.notify_one();
        }
    }

    fn wake_producer(&self) {
        if self.parked_producers.load(Ordering::SeqCst) > 0 {
            drop(self.park.lock().expect("park lock"));
            self.not_full.notify_one();
        }
    }

    /// Pushes under `policy`. On success returns the items evicted to
    /// make room (only under [`AdmissionPolicy::DropOldest`]; more than
    /// one victim is possible when racing producers win the freed slot).
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] once the ring is closed (any policy);
    /// [`PushError::Full`] at capacity under [`AdmissionPolicy::Reject`].
    pub fn push(&self, item: T, policy: AdmissionPolicy) -> Result<Vec<T>, PushError<T>> {
        // Register before reading the closed flag: a consumer may treat
        // "closed + empty" as terminal only when no registered producer
        // might still publish (see module docs).
        self.producers_inflight.fetch_add(1, Ordering::SeqCst);
        let result = self.push_registered(item, policy);
        if self.producers_inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.closed.load(Ordering::SeqCst)
        {
            // Last registered producer out after close: wake consumers
            // so their terminal re-sweep runs against a settled ring.
            drop(self.park.lock().expect("park lock"));
            self.not_empty.notify_all();
        }
        result
    }

    fn push_registered(
        &self,
        mut item: T,
        policy: AdmissionPolicy,
    ) -> Result<Vec<T>, PushError<T>> {
        let mut evicted = Vec::new();
        loop {
            // Once a drop-oldest push holds a victim it is committed —
            // linearized before any concurrent close. That is safe: this
            // producer is still registered, so consumers cannot reach
            // their terminal state until it publishes, and the published
            // item is guaranteed to be drained. Without a victim the
            // push observes the close and hands the item back.
            if evicted.is_empty() && self.closed.load(Ordering::SeqCst) {
                return Err(PushError::Closed(item));
            }
            match self.try_push_slot(item) {
                Ok(()) => {
                    self.wake_consumer();
                    return Ok(evicted);
                }
                Err(back) => item = back,
            }
            match policy {
                AdmissionPolicy::Reject => {
                    debug_assert!(evicted.is_empty());
                    return Err(PushError::Full(item));
                }
                AdmissionPolicy::DropOldest => {
                    if let Some(victim) = self.try_pop() {
                        evicted.push(victim);
                    } else {
                        // Full yet nothing published: a transient claim/
                        // publish window on one side or the other.
                        std::hint::spin_loop();
                    }
                }
                AdmissionPolicy::Block => {
                    let guard = self.park.lock().expect("park lock");
                    self.parked_producers.fetch_add(1, Ordering::SeqCst);
                    // Re-check while registered: a consumer that freed a
                    // slot before seeing our parked count would not have
                    // notified. The wakeup must wait until the park lock
                    // is released — waking re-locks it.
                    match self.try_push_slot(item) {
                        Ok(()) => {
                            self.parked_producers.fetch_sub(1, Ordering::SeqCst);
                            drop(guard);
                            self.wake_consumer();
                            return Ok(evicted);
                        }
                        Err(back) => item = back,
                    }
                    if self.closed.load(Ordering::SeqCst) {
                        self.parked_producers.fetch_sub(1, Ordering::SeqCst);
                        continue; // closed handling at the loop head
                    }
                    let (guard, _timeout) = self
                        .not_full
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .expect("park lock");
                    self.parked_producers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                }
            }
        }
    }

    /// Pops the oldest item, waiting while the ring is empty and open.
    /// Returns `None` only once the ring is closed, no registered
    /// producer can still publish, *and* a final sweep found nothing.
    pub fn pop_wait(&self) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            let guard = self.park.lock().expect("park lock");
            self.parked_consumers.fetch_add(1, Ordering::SeqCst);
            // Re-check while registered (see push_registered). The slot
            // variant defers the producer wakeup past the park lock we
            // hold — waking re-locks it.
            if let Some(item) = self.try_pop_slot() {
                self.parked_consumers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                self.wake_producer();
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst)
                && self.producers_inflight.load(Ordering::SeqCst) == 0
            {
                self.parked_consumers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                // Terminal sweep: every registered producer has either
                // published (visible after the SeqCst count read) or
                // handed its item back, so one more pop settles it.
                return self.try_pop();
            }
            let (guard, _timeout) = self
                .not_empty
                .wait_timeout(guard, PARK_TIMEOUT)
                .expect("park lock");
            self.parked_consumers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
        }
    }

    /// Closes the ring: later pushes fail with [`PushError::Closed`],
    /// every parked thread is woken, and queued items remain poppable so
    /// consumers drain them. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        drop(self.park.lock().expect("park lock"));
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Owning the ring exclusively here; drop whatever was published
        // and never popped.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_capacity() {
        let q = MpmcRing::new(4);
        for i in 0..4 {
            assert!(q.push(i, AdmissionPolicy::Reject).unwrap().is_empty());
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop_wait(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_is_enforced_exactly_even_when_not_a_power_of_two() {
        let q = MpmcRing::new(3);
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            q.push(i, AdmissionPolicy::Reject).unwrap();
        }
        assert!(matches!(
            q.push(9, AdmissionPolicy::Reject),
            Err(PushError::Full(9))
        ));
        assert_eq!(q.try_pop(), Some(0));
        q.push(9, AdmissionPolicy::Reject).unwrap();
    }

    #[test]
    fn drop_oldest_hands_back_the_victim() {
        let q = MpmcRing::new(2);
        q.push(1, AdmissionPolicy::DropOldest).unwrap();
        q.push(2, AdmissionPolicy::DropOldest).unwrap();
        let evicted = q.push(3, AdmissionPolicy::DropOldest).unwrap();
        assert_eq!(evicted, vec![1]);
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), Some(3));
    }

    #[test]
    fn block_policy_waits_for_a_consumer() {
        let q = Arc::new(MpmcRing::new(1));
        q.push(1, AdmissionPolicy::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2, AdmissionPolicy::Block).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_wait(), Some(1));
        producer.join().unwrap();
        assert_eq!(q.pop_wait(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_producers_with_their_item() {
        let q = Arc::new(MpmcRing::<u32>::new(1));
        q.push(1, AdmissionPolicy::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2, AdmissionPolicy::Block))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        match producer.join().unwrap() {
            Err(PushError::Closed(item)) => assert_eq!(item, 2),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_queued_items_then_returns_none() {
        let q = MpmcRing::new(4);
        q.push(1, AdmissionPolicy::Block).unwrap();
        q.push(2, AdmissionPolicy::Block).unwrap();
        q.close();
        assert!(matches!(
            q.push(3, AdmissionPolicy::Block),
            Err(PushError::Closed(3))
        ));
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
        assert_eq!(q.pop_wait(), None);
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(MpmcRing::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn values_survive_many_laps() {
        let q = MpmcRing::new(2);
        for lap in 0u64..1000 {
            q.push(lap * 2, AdmissionPolicy::Reject).unwrap();
            q.push(lap * 2 + 1, AdmissionPolicy::Reject).unwrap();
            assert_eq!(q.pop_wait(), Some(lap * 2));
            assert_eq!(q.pop_wait(), Some(lap * 2 + 1));
        }
    }

    /// Regression: the parked re-checks (Block push, `pop_wait`) run
    /// while holding the park mutex; on success they must not wake the
    /// opposite side through that same (non-reentrant) mutex. A
    /// capacity-1 ring keeps both sides parked essentially always, so
    /// the old self-deadlock fired within milliseconds here.
    #[test]
    fn tiny_ring_with_parked_waiters_on_both_sides_never_deadlocks() {
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 2_000;
        let q = Arc::new(MpmcRing::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                while !done.load(Ordering::SeqCst) {
                    if std::time::Instant::now() >= deadline {
                        // A hung transfer means the park/wake protocol
                        // deadlocked; abort so the harness reports a
                        // failure instead of hanging until its own
                        // timeout.
                        eprintln!("mpmc park/wake deadlocked");
                        std::process::abort();
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut popped = 0usize;
                    while q.pop_wait().is_some() {
                        popped += 1;
                    }
                    popped
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i, AdmissionPolicy::Block)
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let popped: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        done.store(true, Ordering::SeqCst);
        watchdog.join().unwrap();
        assert_eq!(popped, PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn mpmc_transfer_is_lossless_and_duplicate_free() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let q = Arc::new(MpmcRing::new(64));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(v) = q.pop_wait() {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i, AdmissionPolicy::Block)
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expect, "every pushed value popped exactly once");
    }

    /// Regression: a producer's claim position can go stale between its
    /// `seq` load and its dequeue-cursor load — another producer claims
    /// `pos` and a consumer pops it, leaving the cursor past `pos`. The
    /// capacity check used to compute `pos - dequeue_pos` unchecked:
    /// debug builds panicked on the underflow while the producer was
    /// still registered in flight, and release builds wrapped it into a
    /// spurious "full". A capacity-2 ring with more racing producers
    /// than cores hits that window within a few rounds on two or more
    /// cores.
    #[test]
    fn stale_claim_position_never_underflows_the_capacity_check() {
        const ROUNDS: usize = 300;
        const PRODUCERS: usize = 6;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 2_000;

        /// Counts a producer out even when it panics, so the consumers
        /// (and the scope) finish and the panic surfaces as a failure
        /// instead of a hang.
        struct Finished<'a>(&'a AtomicUsize);
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        for _ in 0..ROUNDS {
            let q = MpmcRing::new(2);
            let producing = AtomicUsize::new(PRODUCERS);
            let accepted = AtomicUsize::new(0);
            let popped = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..CONSUMERS {
                    scope.spawn(|| loop {
                        // `try_pop`, not `pop_wait`: a producer that
                        // panicked while registered would leave
                        // `pop_wait` waiting on a ring that never
                        // settles.
                        let finished = producing.load(Ordering::SeqCst) == 0;
                        if q.try_pop().is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        } else if finished {
                            return;
                        } else {
                            std::thread::yield_now();
                        }
                    });
                }
                for _ in 0..PRODUCERS {
                    scope.spawn(|| {
                        let _finished = Finished(&producing);
                        for i in 0..PER_PRODUCER {
                            if q.push(i, AdmissionPolicy::Reject).is_ok() {
                                accepted.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                popped.load(Ordering::SeqCst),
                accepted.load(Ordering::SeqCst),
                "an accepted item was never popped"
            );
        }
    }

    /// Regression: a capacity-1 ring used to build a single slot, where
    /// a producer could claim the slot between a consumer's claim CAS
    /// and its read. The unread item was overwritten, the consumer's
    /// release rewound the slot, and the ring then looked full to
    /// producers and empty to consumers forever, with an accepted item
    /// stranded (`len() == 1`, nothing poppable). Consumers here wait
    /// for every accepted item, up to a deadline, so a regression fails
    /// the assertions below instead of hanging the suite.
    #[test]
    fn capacity_one_delivers_every_accepted_item_exactly_once() {
        const ROUNDS: usize = 50;
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: usize = 4_000;
        const ITEMS: usize = PRODUCERS * PER_PRODUCER;

        for round in 0..ROUNDS {
            let q = MpmcRing::<usize>::new(1);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let producing = AtomicUsize::new(PRODUCERS);
            let accepted_count = AtomicUsize::new(0);
            let popped_count = AtomicUsize::new(0);
            let accepted: Vec<AtomicBool> = (0..ITEMS).map(|_| AtomicBool::new(false)).collect();
            let pops: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for _ in 0..CONSUMERS {
                    scope.spawn(|| loop {
                        let finished = producing.load(Ordering::SeqCst) == 0;
                        if let Some(item) = q.try_pop() {
                            pops[item].fetch_add(1, Ordering::SeqCst);
                            popped_count.fetch_add(1, Ordering::SeqCst);
                        } else if (finished
                            && popped_count.load(Ordering::SeqCst)
                                >= accepted_count.load(Ordering::SeqCst))
                            || std::time::Instant::now() >= deadline
                        {
                            return;
                        } else {
                            std::thread::yield_now();
                        }
                    });
                }
                for (p, flags) in accepted.chunks(PER_PRODUCER).enumerate() {
                    let (q, producing, accepted_count) = (&q, &producing, &accepted_count);
                    scope.spawn(move || {
                        for (i, flag) in flags.iter().enumerate() {
                            if q.push(p * PER_PRODUCER + i, AdmissionPolicy::Reject)
                                .is_ok()
                            {
                                flag.store(true, Ordering::SeqCst);
                                accepted_count.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        producing.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(
                popped_count.load(Ordering::SeqCst),
                accepted_count.load(Ordering::SeqCst),
                "round {round}: stalled with len() == {} after {} pops",
                q.len(),
                popped_count.load(Ordering::SeqCst)
            );
            for (item, (accepted, pops)) in accepted.iter().zip(&pops).enumerate() {
                assert_eq!(
                    pops.load(Ordering::SeqCst),
                    usize::from(accepted.load(Ordering::SeqCst)),
                    "round {round}: item {item} popped the wrong number of times"
                );
            }
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = MpmcRing::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(1, AdmissionPolicy::Reject).unwrap();
        assert!(matches!(
            q.push(2, AdmissionPolicy::Reject),
            Err(PushError::Full(2))
        ));
    }

    #[test]
    fn try_pop_never_waits() {
        let q = MpmcRing::<u32>::new(2);
        assert_eq!(q.try_pop(), None);
        q.push(7, AdmissionPolicy::Block).unwrap();
        assert_eq!(q.try_pop(), Some(7));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn policy_vocabulary_round_trips() {
        for policy in [
            AdmissionPolicy::Block,
            AdmissionPolicy::Reject,
            AdmissionPolicy::DropOldest,
        ] {
            assert_eq!(AdmissionPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(AdmissionPolicy::parse("lifo"), None);
    }
}
