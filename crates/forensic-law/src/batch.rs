//! Batch assessment: a sharded verdict cache and a multi-threaded
//! assessor for high-volume workloads.
//!
//! The paper's framework is consulted once per investigative action, but
//! realistic workloads (sweeping a capture archive, replaying an evidence
//! docket, regression-testing a policy change) ask the same legal question
//! many thousands of times with only a handful of distinct fact patterns.
//! Because [`ComplianceEngine::assess`] is a pure function of the
//! [`FactKey`] projection, its output can be memoized and the workload
//! fanned across threads without any change in answers:
//!
//! * [`VerdictCache`] — a sharded, thread-safe map from [`FactKey`] to
//!   `Arc<LegalAssessment>` with hit/miss counters ([`CacheStats`]).
//! * [`BatchAssessor`] — fans a slice of actions across a scoped
//!   `std::thread` pool, routing every assessment through a shared cache
//!   and returning results in input order with a [`BatchReport`].
//!
//! Both are std-only; the cache uses `RwLock`-guarded `HashMap` shards so
//! concurrent hits never contend on a single lock.
//!
//! # Examples
//!
//! ```
//! use forensic_law::batch::BatchAssessor;
//! use forensic_law::scenarios::table1;
//!
//! let actions: Vec<_> = table1().iter().map(|s| s.action().clone()).collect();
//! let assessor = BatchAssessor::new();
//! let (verdicts, report) = assessor.assess_all_with_report(&actions);
//! assert_eq!(verdicts.len(), actions.len());
//! assert_eq!(report.actions, 20);
//! ```

use crate::action::InvestigativeAction;
use crate::assessment::LegalAssessment;
use crate::engine::ComplianceEngine;
use crate::factkey::FactKey;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Default number of shards in a [`VerdictCache`].
const DEFAULT_SHARDS: usize = 16;

/// Fibonacci-style multiplier for mixing packed key bits.
const KEY_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A single-multiply hasher for [`FactKey`]s.
///
/// The key is already one packed `u64` with every fact at a fixed offset,
/// so a Fibonacci multiply diffuses it plenty for table indexing; the
/// general SipHash default would dominate the cache's hit path.
#[derive(Debug, Default)]
pub struct FactKeyHasher(u64);

impl Hasher for FactKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-FactKey keys; fold bytes in u64 chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(29) ^ n).wrapping_mul(KEY_MIX);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Shard = HashMap<FactKey, Arc<LegalAssessment>, BuildHasherDefault<FactKeyHasher>>;

/// Snapshot of a [`VerdictCache`]'s observability counters.
///
/// `hits + misses` equals the number of lookups served. A *miss* is a
/// lookup that had to run the engine; concurrent threads racing on the
/// same fresh key may each record a miss (last insert wins, and all
/// results are identical by [`FactKey`] soundness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the engine.
    pub misses: u64,
    /// Distinct fact keys currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, in `0.0..=1.0`
    /// (`0.0` when no lookups have happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} entries ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.entries,
            self.hit_rate() * 100.0
        )
    }
}

/// A sharded, thread-safe memo table from [`FactKey`] to
/// [`LegalAssessment`].
///
/// Safe to share across threads behind an `Arc`; reads on distinct shards
/// never contend, and repeated hits on one shard share a read lock.
/// Soundness rests on the engine being a pure function of the fact key —
/// see the [`factkey`](crate::factkey) module docs.
pub struct VerdictCache {
    shards: Box<[RwLock<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerdictCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache::new()
    }
}

impl VerdictCache {
    /// Creates a cache with the default shard count.
    pub fn new() -> Self {
        VerdictCache::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a cache with `shards` shards (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        VerdictCache {
            shards: (0..shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &FactKey) -> &RwLock<Shard> {
        // Route on the *top* bits of the mixed key so shard choice stays
        // independent of the table index bits HashMap takes from the low
        // end of the same multiply.
        let mixed = key.bits().wrapping_mul(KEY_MIX);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Folds externally served (worker-local) hits into the counters so
    /// [`CacheStats`] reflects every engine run avoided.
    pub(crate) fn add_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// The resident entry for `key`, without touching the counters.
    fn resident(&self, key: &FactKey) -> Option<Arc<LegalAssessment>> {
        self.shard(key)
            .read()
            .expect("cache lock")
            .get(key)
            .cloned()
    }

    /// Looks up `key` without running the engine.
    pub fn get(&self, key: &FactKey) -> Option<Arc<LegalAssessment>> {
        let found = self.resident(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Assesses `action` through the cache: returns the memoized
    /// assessment for its fact key, running `engine` only on a miss.
    ///
    /// The engine runs *outside* any lock, so a slow assessment never
    /// blocks hits on the same shard. Counts are exact under races: a
    /// miss is counted only by the insert that lands, so `misses` equals
    /// the entries ever inserted, and every caller gets the resident
    /// `Arc`.
    pub fn assess(
        &self,
        engine: &ComplianceEngine,
        action: &InvestigativeAction,
    ) -> Arc<LegalAssessment> {
        let key = FactKey::of(action);
        if let Some(found) = self.resident(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        let fresh = Arc::new(engine.assess(action));
        let mut shard = self.shard(&key).write().expect("cache lock");
        match shard.entry(key) {
            // A racing thread inserted first: its entry is resident (and
            // identical by FactKey soundness), so this call is a hit.
            Entry::Occupied(resident) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(resident.get())
            }
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(slot.insert(fresh))
            }
        }
    }

    /// Number of distinct fact keys resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache lock").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries; counters are preserved.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().expect("cache lock").clear();
        }
    }

    /// Snapshots the observability counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// What a [`BatchAssessor`] run observed.
#[derive(Debug, Clone, Copy)]
pub struct BatchReport {
    /// Actions assessed.
    pub actions: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the batch.
    pub elapsed: Duration,
    /// Cache activity attributable to this batch (delta of the shared
    /// cache's counters across the run).
    pub cache: CacheStats,
}

impl BatchReport {
    /// Batch throughput in actions per wall-clock second
    /// (`f64::INFINITY` for a zero-duration batch).
    pub fn actions_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.actions as f64 / secs
        }
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} actions on {} threads in {:.1?} ({:.0} actions/s); cache: {}",
            self.actions,
            self.threads,
            self.elapsed,
            self.actions_per_second(),
            self.cache
        )
    }
}

/// Fans batches of actions across a scoped thread pool, memoizing through
/// a shared [`VerdictCache`].
///
/// Results are returned in input order. Every answer is identical to a
/// fresh [`ComplianceEngine::assess`] call on the same action — the pool
/// and cache change only the cost, never the verdict.
#[derive(Debug)]
pub struct BatchAssessor {
    engine: ComplianceEngine,
    cache: Arc<VerdictCache>,
    threads: usize,
}

impl Default for BatchAssessor {
    fn default() -> Self {
        BatchAssessor::new()
    }
}

impl BatchAssessor {
    /// Creates an assessor with a fresh cache and one worker per
    /// available core.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchAssessor {
            engine: ComplianceEngine::new(),
            cache: Arc::new(VerdictCache::new()),
            threads,
        }
    }

    /// Uses exactly `threads` workers (clamped to at least one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Routes assessments through `cache` instead of a private one, so
    /// several assessors (or an investigation workflow) can share warmed
    /// entries.
    pub fn sharing_cache(mut self, cache: Arc<VerdictCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The cache this assessor routes through.
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// Assesses every action, in input order.
    pub fn assess_all(&self, actions: &[InvestigativeAction]) -> Vec<Arc<LegalAssessment>> {
        self.assess_all_with_report(actions).0
    }

    /// Assesses every action, in input order, and reports batch metrics.
    pub fn assess_all_with_report(
        &self,
        actions: &[InvestigativeAction],
    ) -> (Vec<Arc<LegalAssessment>>, BatchReport) {
        let start = Instant::now();
        let before = self.cache.stats();
        let n = actions.len();
        let threads = self.threads.min(n.max(1));
        let mut results: Vec<Option<Arc<LegalAssessment>>> = vec![None; n];

        if n > 0 {
            // Split input and output into matching contiguous chunks; each
            // worker owns a disjoint `&mut` window, so order is preserved
            // without any post-hoc sorting. Each worker keeps a local memo
            // in front of the shared cache: local hits touch no lock or
            // atomic at all, and the counts are folded into the shared
            // stats when the chunk finishes.
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for (acts, outs) in actions.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        let mut local: Shard = Shard::default();
                        let mut local_hits = 0u64;
                        for (action, out) in acts.iter().zip(outs.iter_mut()) {
                            let key = FactKey::of(action);
                            let verdict = match local.get(&key) {
                                Some(found) => {
                                    local_hits += 1;
                                    Arc::clone(found)
                                }
                                None => {
                                    let fetched = self.cache.assess(&self.engine, action);
                                    local.insert(key, Arc::clone(&fetched));
                                    fetched
                                }
                            };
                            *out = Some(verdict);
                        }
                        self.cache.add_hits(local_hits);
                    });
                }
            });
        }

        let after = self.cache.stats();
        let report = BatchReport {
            actions: n as u64,
            threads,
            elapsed: start.elapsed(),
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                entries: after.entries,
            },
        };
        let results = results
            .into_iter()
            .map(|slot| slot.expect("every chunk filled its window"))
            .collect();
        (results, report)
    }

    /// Convenience: drains an iterator of actions through
    /// [`assess_all`](Self::assess_all).
    pub fn assess_iter<I>(&self, actions: I) -> Vec<Arc<LegalAssessment>>
    where
        I: IntoIterator<Item = InvestigativeAction>,
    {
        let collected: Vec<_> = actions.into_iter().collect();
        self.assess_all(&collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::table1;

    fn table1_actions() -> Vec<InvestigativeAction> {
        table1().iter().map(|s| s.action().clone()).collect()
    }

    /// Number of distinct fact keys among the Table 1 actions. A few rows
    /// differ only in description (e.g. the same pattern argued under two
    /// headings), so this is less than twenty.
    fn distinct_keys(actions: &[InvestigativeAction]) -> u64 {
        use std::collections::HashSet;
        actions
            .iter()
            .map(crate::factkey::FactKey::of)
            .collect::<HashSet<_>>()
            .len() as u64
    }

    #[test]
    fn cache_hits_after_first_assessment() {
        let cache = VerdictCache::new();
        let engine = ComplianceEngine::new();
        let actions = table1_actions();
        let distinct = distinct_keys(&actions);
        for a in &actions {
            cache.assess(&engine, a);
        }
        let warm = cache.stats();
        assert_eq!(warm.misses, distinct);
        assert_eq!(warm.hits, actions.len() as u64 - distinct);
        assert_eq!(warm.entries, distinct);
        for a in &actions {
            cache.assess(&engine, a);
        }
        let after = cache.stats();
        assert_eq!(after.hits, warm.hits + actions.len() as u64);
        assert_eq!(after.misses, warm.misses);
        assert_eq!(after.entries as usize, cache.len());
    }

    #[test]
    fn cached_assessments_match_fresh_ones() {
        let cache = VerdictCache::new();
        let engine = ComplianceEngine::new();
        for a in &table1_actions() {
            let fresh = engine.assess(a);
            let cached = cache.assess(&engine, a);
            let cached_again = cache.assess(&engine, a);
            assert_eq!(cached.verdict(), fresh.verdict());
            assert_eq!(cached.rationale(), fresh.rationale());
            assert_eq!(cached_again.verdict(), fresh.verdict());
        }
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = VerdictCache::new();
        let engine = ComplianceEngine::new();
        let actions = table1_actions();
        cache.assess(&engine, &actions[0]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn single_shard_cache_still_works() {
        let cache = VerdictCache::with_shards(1);
        let engine = ComplianceEngine::new();
        let actions = table1_actions();
        for a in &actions {
            cache.assess(&engine, a);
            cache.assess(&engine, a);
        }
        // Every second lookup hits, plus first-lookup hits for the rows
        // whose fact pattern repeats an earlier row.
        let expected_hits = 2 * actions.len() as u64 - distinct_keys(&actions);
        assert_eq!(cache.stats().hits, expected_hits);
        assert_eq!(cache.stats().entries, distinct_keys(&actions));
    }

    /// Racing callers on one cold key: whichever insert lands is the
    /// only miss, every other caller counts a hit, and all of them hold
    /// the same resident `Arc`.
    #[test]
    fn racing_misses_on_one_key_count_once_and_share_the_resident_arc() {
        const THREADS: usize = 8;
        let engine = ComplianceEngine::new();
        let action = table1_actions().remove(0);
        for _ in 0..50 {
            let cache = VerdictCache::new();
            let start = std::sync::Barrier::new(THREADS);
            let results: Vec<Arc<LegalAssessment>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            cache.assess(&engine, &action)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let stats = cache.stats();
            assert_eq!(stats.misses, 1, "{stats}");
            assert_eq!(stats.hits, THREADS as u64 - 1, "{stats}");
            assert_eq!(stats.entries, 1);
            let resident = cache.get(&FactKey::of(&action)).expect("resident");
            for result in &results {
                assert!(Arc::ptr_eq(result, &resident), "caller kept a private Arc");
            }
        }
    }

    #[test]
    fn batch_preserves_input_order() {
        let actions = table1_actions();
        let engine = ComplianceEngine::new();
        let assessor = BatchAssessor::new().with_threads(4);
        let out = assessor.assess_all(&actions);
        assert_eq!(out.len(), actions.len());
        for (action, got) in actions.iter().zip(&out) {
            assert_eq!(got.verdict(), engine.assess(action).verdict());
        }
    }

    #[test]
    fn batch_handles_empty_and_tiny_inputs() {
        let assessor = BatchAssessor::new().with_threads(8);
        assert!(assessor.assess_all(&[]).is_empty());
        let one = table1_actions().remove(0);
        let out = assessor.assess_all(std::slice::from_ref(&one));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn report_counts_batch_delta_only() {
        let actions = table1_actions();
        let assessor = BatchAssessor::new().with_threads(2);
        let (_, first) = assessor.assess_all_with_report(&actions);
        assert_eq!(first.actions, actions.len() as u64);
        // Duplicated input: second run is all hits.
        let doubled: Vec<_> = actions.iter().chain(actions.iter()).cloned().collect();
        let (_, second) = assessor.assess_all_with_report(&doubled);
        assert_eq!(second.cache.hits, doubled.len() as u64);
        assert_eq!(second.cache.misses, 0);
        assert!(second.cache.hit_rate() > 0.99);
    }

    #[test]
    fn shared_cache_is_warm_across_assessors() {
        let cache = Arc::new(VerdictCache::new());
        let actions = table1_actions();
        let first = BatchAssessor::new().sharing_cache(Arc::clone(&cache));
        first.assess_all(&actions);
        let second = BatchAssessor::new().sharing_cache(Arc::clone(&cache));
        let (_, report) = second.assess_all_with_report(&actions);
        assert_eq!(report.cache.misses, 0);
    }

    #[test]
    fn assess_iter_matches_assess_all() {
        let actions = table1_actions();
        let assessor = BatchAssessor::new();
        let by_iter = assessor.assess_iter(actions.clone());
        let by_slice = assessor.assess_all(&actions);
        assert_eq!(by_iter.len(), by_slice.len());
        for (a, b) in by_iter.iter().zip(&by_slice) {
            assert_eq!(a.verdict(), b.verdict());
        }
    }

    #[test]
    fn stats_display_is_readable() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        let text = s.to_string();
        assert!(text.contains("3 hits"));
        assert!(text.contains("75.0% hit rate"));
    }

    /// The batch report surfaces cache effectiveness (hit-rate percent
    /// next to the raw counters) and throughput, so `assess-batch` and
    /// `serve` summaries read the same way.
    #[test]
    fn report_display_surfaces_throughput_and_hit_rate() {
        let report = BatchReport {
            actions: 100,
            threads: 4,
            elapsed: Duration::from_millis(50),
            cache: CacheStats {
                hits: 80,
                misses: 20,
                entries: 20,
            },
        };
        assert!((report.actions_per_second() - 2000.0).abs() < 1e-6);
        let text = report.to_string();
        assert!(text.contains("100 actions on 4 threads"), "{text}");
        assert!(text.contains("2000 actions/s"), "{text}");
        assert!(text.contains("80 hits, 20 misses"), "{text}");
        assert!(text.contains("80.0% hit rate"), "{text}");
    }
}
