//! Exactly-one-owner accounting at the queue boundary.
//!
//! The service's exactly-one-response promise rests on a lower-level
//! invariant in [`MpmcRing`]: every item successfully pushed is
//! handed to exactly one party — a consumer (popped), the evicting
//! producer (`DropOldest` hands the victim back), or nobody because the
//! push itself returned the item (`Full`/`Closed`). A dropped request is
//! *returned*, never silently lost, and nothing is ever seen twice.
//!
//! The service-level stress test covers the end-to-end promise; these
//! tests pin the accounting at the queue itself, so a future queue
//! change that leaks an evicted item fails here with a precise message
//! instead of as a hung ticket three layers up.

use service::{AdmissionPolicy, MpmcRing, PushError};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How an item left the queue's custody.
const POPPED: u8 = 1;
const EVICTED: u8 = 2;
const HANDED_BACK: u8 = 3; // push returned it: Full or Closed

struct Ledger {
    fate: Vec<AtomicU8>,
}

impl Ledger {
    fn new(total: u64) -> Arc<Ledger> {
        Arc::new(Ledger {
            fate: (0..total).map(|_| AtomicU8::new(0)).collect(),
        })
    }

    /// Records the item's fate; a second record for the same item is the
    /// bug this file exists to catch.
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

/// Deterministic single-threaded accounting: fill the queue, push
/// `capacity` more items under `drop-oldest`, and check each push hands
/// back exactly the item the FIFO discipline says it must.
#[test]
fn drop_oldest_returns_exactly_the_displaced_item() {
    let capacity = 8u64;
    let q = MpmcRing::new(capacity as usize);
    for id in 0..capacity {
        assert!(q.push(id, AdmissionPolicy::DropOldest).unwrap().is_empty());
    }
    for id in capacity..2 * capacity {
        let evicted = q.push(id, AdmissionPolicy::DropOldest).unwrap();
        assert_eq!(
            evicted,
            [id - capacity],
            "a full queue must hand back exactly the displaced item, in FIFO order"
        );
    }
    // What remains is precisely the second wave, in order.
    for id in capacity..2 * capacity {
        assert_eq!(q.try_pop(), Some(id));
    }
    assert!(q.is_empty());
}

/// Racy stress: producers outrun a deliberately slow consumer so the
/// queue saturates and evicts, then the queue closes mid-traffic. Every
/// item must end up popped, evicted-and-returned, or handed back by the
/// failed push — each exactly once.
fn stress(policy: AdmissionPolicy) -> (u64, u64, u64, u64) {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 500;
    let total = PRODUCERS * PER_PRODUCER;
    let q = Arc::new(MpmcRing::new(4));
    let ledger = Ledger::new(total);

    std::thread::scope(|scope| {
        let consumer = {
            let q = Arc::clone(&q);
            let ledger = Arc::clone(&ledger);
            scope.spawn(move || {
                while let Some(id) = q.pop_wait() {
                    ledger.record(id, POPPED);
                    // Slow consumption forces saturation and eviction.
                    std::thread::sleep(Duration::from_micros(20));
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                let ledger = Arc::clone(&ledger);
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let id = p * PER_PRODUCER + i;
                        match q.push(id, policy) {
                            // Admitted; the consumer owns it now, and any
                            // victims come back to this producer.
                            Ok(victims) => {
                                for victim in victims {
                                    ledger.record(victim, EVICTED);
                                }
                            }
                            Err(PushError::Full(item)) => ledger.record(item, HANDED_BACK),
                            Err(PushError::Closed(item)) => ledger.record(item, HANDED_BACK),
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        q.close();
        consumer.join().unwrap();
    });

    let unaccounted = ledger.unaccounted();
    assert!(
        unaccounted.is_empty(),
        "{} item(s) silently lost at the queue boundary: {:?}",
        unaccounted.len(),
        &unaccounted[..unaccounted.len().min(10)]
    );
    let (popped, evicted, handed_back) = (
        ledger.count(POPPED),
        ledger.count(EVICTED),
        ledger.count(HANDED_BACK),
    );
    assert_eq!(popped + evicted + handed_back, total);
    (total, popped, evicted, handed_back)
}

#[test]
fn drop_oldest_stress_accounts_for_every_item() {
    let (_, popped, evicted, handed_back) = stress(AdmissionPolicy::DropOldest);
    // Under drop-oldest no push fails while the queue is open, so
    // nothing is handed back, and the slow consumer guarantees real
    // evictions happened (the case under test).
    assert_eq!(handed_back, 0);
    assert!(evicted > 0, "stress produced no evictions");
    assert!(popped > 0, "stress consumed nothing");
}

#[test]
fn reject_stress_accounts_for_every_item() {
    let (_, popped, evicted, handed_back) = stress(AdmissionPolicy::Reject);
    // Reject never evicts: overflow comes back to the producer instead.
    assert_eq!(evicted, 0);
    assert!(handed_back > 0, "stress produced no rejections");
    assert!(popped > 0, "stress consumed nothing");
}
