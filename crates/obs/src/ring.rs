//! The fixed-capacity, lock-free span ring.
//!
//! # Memory model
//!
//! The ring is a power-of-two array of *slots*. A writer claims a slot
//! with one `fetch_add` on the global head (so concurrent writers never
//! contend on the same slot within a lap), then publishes through a
//! seqlock-style sequence word:
//!
//! 1. raise `seq` to the claim ticket's odd value (write in progress),
//! 2. store the span fields (plain `Relaxed` atomic stores),
//! 3. publish by CAS-ing `seq` to the even value.
//!
//! A reader snapshots `seq`, reads the fields, and re-reads `seq`: any
//! concurrent writer leaves `seq` odd or changed, and the reader
//! discards the slot. The publish CAS (rather than a blind store)
//! closes the lapped-writer window: a writer stalled for a whole lap
//! finds `seq` moved past its ticket and abandons the publish instead
//! of stamping a torn record as valid. Every field is an atomic, so
//! even a discarded read is a well-defined (not undefined) race.
//!
//! The ring keeps the **most recent** `capacity` records; older records
//! are overwritten without blocking. A record is one slot: either a
//! single [`Span`] or a packed queue+engine pair from
//! [`SpanRing::record_pair`]. [`SpanRing::recorded`] counts every
//! record ever accepted, so a reader can tell when history was dropped.

use crate::trace::TraceId;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which layer of the stack a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Bounded-queue residence: admission to worker pickup (or to the
    /// evicting producer / shutdown drain that answered instead).
    Queue,
    /// Engine evaluation (including the verdict-cache lookup).
    Engine,
    /// Response serialization: verdict payload built and the response
    /// frame handed to the connection writer (wire) or the sink (CLI).
    Serialize,
    /// The terminal record for a request: how it was answered. The
    /// span's `detail` carries the outcome code.
    Respond,
    /// A verdict-cache hit answered on the wire's event-loop thread:
    /// lookup and journal append, with no queue or engine stage.
    Inline,
}

impl Stage {
    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Engine => "engine",
            Stage::Serialize => "serialize",
            Stage::Respond => "respond",
            Stage::Inline => "inline",
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            Stage::Queue => 1,
            Stage::Engine => 2,
            Stage::Serialize => 3,
            Stage::Respond => 4,
            Stage::Inline => 5,
        }
    }

    fn from_u64(raw: u64) -> Option<Stage> {
        Some(match raw {
            1 => Stage::Queue,
            2 => Stage::Engine,
            3 => Stage::Serialize,
            4 => Stage::Respond,
            5 => Stage::Inline,
            _ => return None,
        })
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span: a trace id, the stage measured, when it started
/// (microseconds on the [`now_us`](crate::now_us) clock), how long it
/// took, and a stage-specific detail word (outcome code, worker index —
/// whatever the recording layer wants joined to the timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// The layer measured.
    pub stage: Stage,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Stage-specific detail word.
    pub detail: u64,
}

/// One seqlock-guarded slot. `seq == 0` means never written; an odd
/// `seq` means a write is in flight; an even nonzero `seq` means the
/// fields are a published, consistent record.
///
/// A slot holds either a single span (`stage` is a bare stage code) or
/// a **packed pair** from [`SpanRing::record_pair`] (`stage` carries a
/// second code in its high byte; `start2_us`/`dur2_us` hold the second
/// span's timing). Eight words align the slot to exactly one cache
/// line, so every record touches exactly one line — a straddling slot
/// doubles the write traffic and shows up at the service ceiling.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
    detail: AtomicU64,
    start2_us: AtomicU64,
    dur2_us: AtomicU64,
}

/// Shift for the second stage code in a packed pair's `stage` word.
const PAIR_SHIFT: u64 = 8;

/// A fixed-capacity, lock-free ring of [`Span`]s. See the
/// [module docs](self) for the memory model.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Claim counter: total spans accepted since creation.
    head: AtomicU64,
    mask: u64,
    enabled: AtomicBool,
}

impl fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl SpanRing {
    /// Creates a ring holding the most recent `capacity` spans
    /// (rounded up to a power of two, minimum 2). Starts disabled.
    pub fn with_capacity(capacity: usize) -> SpanRing {
        let capacity = capacity.max(2).next_power_of_two();
        SpanRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            mask: capacity as u64 - 1,
            enabled: AtomicBool::new(false),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Turns recording on or off. Disabled recording costs one
    /// `Relaxed` load and a branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records accepted since creation (including any already
    /// overwritten); a packed pair counts once. `recorded() >
    /// capacity()` means history was lost.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one span. Lock-free; silently drops when disabled.
    pub fn record(&self, span: Span) {
        if !self.is_enabled() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        self.write_slot(ticket, span);
    }

    /// Records two spans of the same trace as a **packed pair** in a
    /// single slot — the per-request fast path for layers that emit a
    /// fixed pair (queue + engine). One claim, one seqlock cycle, and
    /// one cache line instead of two of each: at the cached service
    /// ceiling this is the difference between tracing costing ~5% and
    /// ~3% of throughput. The pair shares `a`'s trace id and detail
    /// word (`b.trace`/`b.detail` are ignored); readers see two
    /// ordinary [`Span`]s.
    pub fn record_pair(&self, a: Span, b: Span) {
        if !self.is_enabled() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        self.write_with(ticket, |slot| {
            slot.trace.store(a.trace.as_u64(), Ordering::Relaxed);
            slot.stage.store(
                a.stage.as_u64() | (b.stage.as_u64() << PAIR_SHIFT),
                Ordering::Relaxed,
            );
            slot.start_us.store(a.start_us, Ordering::Relaxed);
            slot.dur_us.store(a.dur_us, Ordering::Relaxed);
            slot.detail.store(a.detail, Ordering::Relaxed);
            slot.start2_us.store(b.start_us, Ordering::Relaxed);
            slot.dur2_us.store(b.dur_us, Ordering::Relaxed);
        });
    }

    /// Writes `span` into the slot `ticket` claims, with the seqlock
    /// publish protocol from the [module docs](self).
    fn write_slot(&self, ticket: u64, span: Span) {
        self.write_with(ticket, |slot| {
            slot.trace.store(span.trace.as_u64(), Ordering::Relaxed);
            slot.stage.store(span.stage.as_u64(), Ordering::Relaxed);
            slot.start_us.store(span.start_us, Ordering::Relaxed);
            slot.dur_us.store(span.dur_us, Ordering::Relaxed);
            slot.detail.store(span.detail, Ordering::Relaxed);
        });
    }

    /// Runs the seqlock write protocol around `fill` on the slot
    /// `ticket` claims.
    fn write_with(&self, ticket: u64, fill: impl FnOnce(&Slot)) {
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Lap-aware seqlock values: this write's in-progress marker and
        // publish value are unique to the ticket, so a reader (or a
        // stalled writer from a previous lap) can always tell whether
        // the slot moved on underneath it.
        let lap = ticket >> self.mask.count_ones();
        let writing = lap * 2 + 1;
        let published = lap * 2 + 2;
        if self.slot_begin(slot, writing).is_err() {
            // Lapped before we started: a newer write owns the slot.
            return;
        }
        fill(slot);
        // Publish only if nobody newer took the slot while we wrote.
        let _ = slot
            .seq
            .compare_exchange(writing, published, Ordering::Release, Ordering::Relaxed);
    }

    /// Raises `seq` to `writing` unless the slot already moved past it.
    fn slot_begin(&self, slot: &Slot, writing: u64) -> Result<(), ()> {
        let prev = slot.seq.fetch_max(writing, Ordering::AcqRel);
        if prev > writing {
            return Err(());
        }
        Ok(())
    }

    /// Convenience: records a span that started at `start_us` and ends
    /// now, under `trace`/`stage` with a detail word.
    pub fn record_closed(&self, trace: TraceId, stage: Stage, start_us: u64, detail: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record(Span {
            trace,
            stage,
            start_us,
            dur_us: crate::now_us().saturating_sub(start_us),
            detail,
        });
    }

    /// A consistent copy of every published span currently resident,
    /// ordered by start time (ties broken by trace id, then stage).
    /// Runs concurrently with writers; spans being overwritten during
    /// the scan are simply skipped.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue;
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let stage_word = slot.stage.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let dur_us = slot.dur_us.load(Ordering::Relaxed);
            let detail = slot.detail.load(Ordering::Relaxed);
            let start2_us = slot.start2_us.load(Ordering::Relaxed);
            let dur2_us = slot.dur2_us.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // torn: a writer raced the read
            }
            let trace = TraceId::from_u64(trace);
            let Some(stage) = Stage::from_u64(stage_word & ((1 << PAIR_SHIFT) - 1)) else {
                continue;
            };
            out.push(Span {
                trace,
                stage,
                start_us,
                dur_us,
                detail,
            });
            // A packed pair carries its second span in the high fields.
            if let Some(stage2) = Stage::from_u64(stage_word >> PAIR_SHIFT) {
                out.push(Span {
                    trace,
                    stage: stage2,
                    start_us: start2_us,
                    dur_us: dur2_us,
                    detail,
                });
            }
        }
        out.sort_by_key(|s| (s.start_us, s.trace, s.stage));
        out
    }

    /// Every resident span belonging to `trace`, in start order.
    pub fn spans_for(&self, trace: TraceId) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        out.sort_by_key(|s| (s.start_us, s.stage));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::now_us;

    fn span(trace: u64, stage: Stage, start: u64) -> Span {
        Span {
            trace: TraceId::from_u64(trace),
            stage,
            start_us: start,
            dur_us: 5,
            detail: 0,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = SpanRing::with_capacity(8);
        ring.record(span(1, Stage::Queue, 10));
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SpanRing::with_capacity(0).capacity(), 2);
        assert_eq!(SpanRing::with_capacity(5).capacity(), 8);
        assert_eq!(SpanRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn records_and_reads_back_in_start_order() {
        let ring = SpanRing::with_capacity(8);
        ring.set_enabled(true);
        ring.record(span(2, Stage::Engine, 30));
        ring.record(span(1, Stage::Queue, 10));
        ring.record(span(1, Stage::Engine, 20));
        let all = ring.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].start_us, 10);
        assert_eq!(all[2].start_us, 30);
        let chain = ring.spans_for(TraceId::from_u64(1));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].stage, Stage::Queue);
        assert_eq!(chain[1].stage, Stage::Engine);
    }

    #[test]
    fn overwrites_oldest_at_capacity() {
        let ring = SpanRing::with_capacity(4);
        ring.set_enabled(true);
        for i in 0..10u64 {
            ring.record(span(i + 1, Stage::Queue, i));
        }
        assert_eq!(ring.recorded(), 10);
        let resident = ring.snapshot();
        assert_eq!(resident.len(), 4);
        // Only the newest four survive.
        let starts: Vec<u64> = resident.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn record_closed_measures_a_nonnegative_duration() {
        let ring = SpanRing::with_capacity(4);
        ring.set_enabled(true);
        let start = now_us();
        ring.record_closed(TraceId::from_u64(9), Stage::Serialize, start, 3);
        let spans = ring.spans_for(TraceId::from_u64(9));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].detail, 3);
        assert!(spans[0].start_us == start);
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in [
            Stage::Queue,
            Stage::Engine,
            Stage::Serialize,
            Stage::Respond,
            Stage::Inline,
        ] {
            assert_eq!(Stage::from_u64(stage.as_u64()), Some(stage));
            assert!(!stage.name().is_empty());
            assert_eq!(stage.to_string(), stage.name());
        }
        assert_eq!(Stage::from_u64(0), None);
        assert_eq!(Stage::from_u64(99), None);
    }

    #[test]
    fn packed_pair_occupies_one_slot_and_reads_back_as_two_spans() {
        let ring = SpanRing::with_capacity(2);
        ring.set_enabled(true);
        ring.record_pair(
            Span {
                trace: TraceId::from_u64(7),
                stage: Stage::Queue,
                start_us: 100,
                dur_us: 40,
                detail: 3,
            },
            Span {
                trace: TraceId::from_u64(7),
                stage: Stage::Engine,
                start_us: 140,
                dur_us: 9,
                detail: 3,
            },
        );
        assert_eq!(ring.recorded(), 1, "a pair claims a single slot");
        let chain = ring.spans_for(TraceId::from_u64(7));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].stage, Stage::Queue);
        assert_eq!((chain[0].start_us, chain[0].dur_us), (100, 40));
        assert_eq!(chain[1].stage, Stage::Engine);
        assert_eq!((chain[1].start_us, chain[1].dur_us), (140, 9));
        assert_eq!(chain[1].detail, 3, "the pair shares one detail word");
    }

    /// Hammer the ring from many writers while a reader snapshots: every
    /// record a snapshot returns must be one a writer actually wrote
    /// (internally consistent), never a torn mix.
    #[test]
    fn concurrent_writers_never_publish_torn_records() {
        let ring = SpanRing::with_capacity(64);
        ring.set_enabled(true);
        const WRITERS: u64 = 4;
        const PER: u64 = 20_000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER {
                        // Every field derives from (w, i): a consistent
                        // record satisfies the invariants checked below.
                        let v = w * PER + i;
                        ring.record(Span {
                            trace: TraceId::from_u64(v + 1),
                            stage: Stage::Queue,
                            start_us: v * 3,
                            dur_us: v * 7,
                            detail: v,
                        });
                    }
                });
            }
            let ring = &ring;
            scope.spawn(move || {
                for _ in 0..200 {
                    for s in ring.snapshot() {
                        let v = s.detail;
                        assert_eq!(s.trace.as_u64(), v + 1, "torn trace/detail pair");
                        assert_eq!(s.start_us, v * 3, "torn start/detail pair");
                        assert_eq!(s.dur_us, v * 7, "torn dur/detail pair");
                    }
                }
            });
        });
        assert_eq!(ring.recorded(), WRITERS * PER);
    }
}
