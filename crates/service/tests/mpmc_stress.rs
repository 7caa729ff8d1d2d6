//! Close-race accounting for the admission ring.
//!
//! The existing `queue_accounting` suite closes the queue *after* the
//! producers finish. This file races `close()` against producers still
//! mid-push — the exact window where a lock-free ring can strand an
//! item (published after the closed flag went up, never drained) or
//! double-account one (evicted by a committed `DropOldest` push *and*
//! handed back as `Closed`). The invariant for the [`MpmcRing`]:
//!
//! ```text
//! accepted (popped) + dropped (evicted) + rejected (handed back) == offered
//! ```
//!
//! with every item accounted exactly once. This is the queue-level
//! shadow of the service's exactly-one-response promise during
//! shutdown.

use service::{AdmissionPolicy, MpmcRing, PushError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

const POPPED: u8 = 1;
const EVICTED: u8 = 2;
const HANDED_BACK: u8 = 3;

struct Ledger {
    fate: Vec<AtomicU8>,
}

impl Ledger {
    fn new(total: u64) -> Arc<Ledger> {
        Arc::new(Ledger {
            fate: (0..total).map(|_| AtomicU8::new(0)).collect(),
        })
    }

    fn record(&self, id: u64, what: u8) {
        let prev = self.fate[id as usize].swap(what, Ordering::SeqCst);
        assert_eq!(
            prev, 0,
            "item {id} accounted twice (first {prev}, then {what})"
        );
    }

    fn count(&self, what: u8) -> u64 {
        self.fate
            .iter()
            .filter(|f| f.load(Ordering::SeqCst) == what)
            .count() as u64
    }

    fn unaccounted(&self) -> Vec<u64> {
        self.fate
            .iter()
            .enumerate()
            .filter(|(_, f)| f.load(Ordering::SeqCst) == 0)
            .map(|(i, _)| i as u64)
            .collect()
    }
}

/// Accepted/dropped/rejected/offered after racing producers, consumers,
/// and a mid-traffic `close()` on a capacity-4 ring.
fn close_race(policy: AdmissionPolicy) -> (u64, u64, u64) {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 400;
    let total = PRODUCERS * PER_PRODUCER;
    let queue = Arc::new(MpmcRing::new(4));
    let ledger = Ledger::new(total);
    // Counts offers as they start, so the closer can land `close()`
    // deterministically in the middle of the blast instead of hoping a
    // sleep lines up with fast, non-blocking producers.
    let offered = Arc::new(AtomicU64::new(0));
    // Raised by the closer *after* `close()` returns. Producer 0 parks
    // at its halfway point until this flies, guaranteeing post-close
    // offers exist; the other producers race the close unconstrained.
    let closed_flag = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let ledger = Arc::clone(&ledger);
                scope.spawn(move || {
                    while let Some(id) = queue.pop_wait() {
                        ledger.record(id, POPPED);
                        // Slow consumption saturates the queue so
                        // DropOldest actually evicts and Reject actually
                        // rejects while the close lands.
                        std::thread::sleep(Duration::from_micros(10));
                    }
                    // pop_wait returned None: closed AND drained. A
                    // straggler here would be an item the close stranded.
                    assert_eq!(queue.try_pop(), None, "item left behind after close");
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                let ledger = Arc::clone(&ledger);
                let offered = Arc::clone(&offered);
                let closed_flag = Arc::clone(&closed_flag);
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        if p == 0 && i == PER_PRODUCER / 2 {
                            while !closed_flag.load(Ordering::SeqCst) {
                                std::hint::spin_loop();
                            }
                        }
                        let id = p * PER_PRODUCER + i;
                        offered.fetch_add(1, Ordering::SeqCst);
                        match queue.push(id, policy) {
                            Ok(victims) => {
                                for victim in victims {
                                    ledger.record(victim, EVICTED);
                                }
                            }
                            Err(PushError::Full(item) | PushError::Closed(item)) => {
                                ledger.record(item, HANDED_BACK);
                            }
                        }
                    }
                })
            })
            .collect();
        // Land the close once a quarter of the offers have started —
        // mid-blast, whatever the producers' pace (producer 0 holds its
        // second half back until the close has landed).
        while offered.load(Ordering::SeqCst) < total / 4 {
            std::hint::spin_loop();
        }
        queue.close();
        closed_flag.store(true, Ordering::SeqCst);
        for producer in producers {
            producer.join().unwrap();
        }
        for consumer in consumers {
            consumer.join().unwrap();
        }
    });

    let unaccounted = ledger.unaccounted();
    assert!(
        unaccounted.is_empty(),
        "{} item(s) lost across the close race: {:?}",
        unaccounted.len(),
        &unaccounted[..unaccounted.len().min(10)]
    );
    let (accepted, dropped, rejected) = (
        ledger.count(POPPED),
        ledger.count(EVICTED),
        ledger.count(HANDED_BACK),
    );
    assert_eq!(
        accepted + dropped + rejected,
        total,
        "accepted + dropped + rejected != offered"
    );
    (accepted, dropped, rejected)
}

#[test]
fn mpmc_ring_drop_oldest_close_race_accounts_for_every_item() {
    let (accepted, dropped, rejected) = close_race(AdmissionPolicy::DropOldest);
    assert!(accepted > 0, "nothing was consumed");
    assert!(dropped > 0, "saturation produced no evictions");
    assert!(rejected > 0, "no push observed the close");
}

#[test]
fn mpmc_ring_reject_close_race_accounts_for_every_item() {
    let (accepted, dropped, rejected) = close_race(AdmissionPolicy::Reject);
    assert!(accepted > 0, "nothing was consumed");
    assert_eq!(dropped, 0, "reject must never evict");
    assert!(rejected > 0, "saturation produced no rejections");
}

#[test]
fn mpmc_ring_block_close_race_accounts_for_every_item() {
    let (accepted, dropped, rejected) = close_race(AdmissionPolicy::Block);
    assert!(accepted > 0, "nothing was consumed");
    assert_eq!(dropped, 0, "block must never evict");
    // Producers parked at the close are handed their item back.
    let _ = rejected;
}
