//! Best-first (Dijkstra) search over lawful transitions.
//!
//! States are `(acquired-items mask, factual standard, strongest
//! process held)`, packed into a `u64` key. Edge costs come from the
//! problem's [`CostModel`](crate::problem::CostModel) and are
//! non-negative, so the first time a goal-covering state is popped its
//! cost is provably minimal. Verdicts depend only on the fact pattern,
//! never on the search state, so every item's candidate collections
//! are assessed once, in one [`BatchAssessor`] call before the search
//! starts; each expansion (and the no-lawful-path explanation) reads
//! that table instead of calling the assessor again.
//!
//! Determinism: the heap orders by `(cost, packed key)`, edges are
//! relaxed in a fixed order (process ladder, then items in declaration
//! order, then variants in route order), and relaxation uses strict
//! `<` — the reconstructed plan is byte-identical at any assessor
//! thread count.

use crate::plan::{Blocker, NoLawfulPath, Plan, PlanOutcome, PlanStep};
use crate::problem::{process_index, standard_index, CollectVariant, PlanProblem};
use forensic_law::action::InvestigativeAction;
use forensic_law::assessment::Verdict;
use forensic_law::batch::BatchAssessor;
use forensic_law::process::{FactualStandard, LegalProcess};
use forensic_law::spec::SpecError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// What the search did, and how fast: the numbers behind the
/// `plan_search` bench driver and the CLI's stderr report.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// States popped and expanded (goal pops are not expansions).
    pub nodes_expanded: u64,
    /// Candidate collect actions handed to the batch assessor: every
    /// variant of every item, once per solve.
    pub candidates_evaluated: u64,
    /// Batched [`BatchAssessor::assess_all`] calls made: one per solve.
    pub batch_calls: u64,
    /// Verdict-cache hits attributable to this solve.
    pub cache_hits: u64,
    /// Verdict-cache misses attributable to this solve.
    pub cache_misses: u64,
    /// Wall-clock time of the solve.
    pub wall: Duration,
}

impl SearchStats {
    /// Expansion throughput (0 when the solve was too fast to time).
    pub fn nodes_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.nodes_expanded as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of verdict lookups answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// A search state: which items are in hand, what showing the evidence
/// supports, and the strongest instrument held.
#[derive(Debug, Clone, Copy)]
struct State {
    mask: u32,
    standard: FactualStandard,
    process: LegalProcess,
}

impl State {
    /// The packed `u64` state key: mask in the low 32 bits, standard
    /// index above it, process index above that. Injective, and its
    /// numeric order is the deterministic heap tie-break.
    fn key(self) -> u64 {
        (self.mask as u64)
            | ((standard_index(self.standard) as u64) << 32)
            | ((process_index(self.process) as u64) << 36)
    }
}

/// Dijkstra bookkeeping for one discovered state.
struct Node {
    cost: u64,
    state: State,
    parent: Option<u64>,
    step: Option<PlanStep>,
}

/// Records `state` if reached cheaper than before (strict `<`, so the
/// first relaxation at a given cost wins — determinism again). The step
/// is built only then: most relaxations do not improve, and a collect
/// step clones a name, a route and an assessment handle.
fn relax(
    nodes: &mut HashMap<u64, Node>,
    heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
    parent: u64,
    cost: u64,
    state: State,
    step: impl FnOnce() -> PlanStep,
) {
    let key = state.key();
    let improved = match nodes.get(&key) {
        Some(existing) => cost < existing.cost,
        None => true,
    };
    if improved {
        nodes.insert(
            key,
            Node {
                cost,
                state,
                parent: Some(parent),
                step: Some(step()),
            },
        );
        heap.push(Reverse((cost, key)));
    }
}

/// How demanding a verdict is, for picking the *closest-to-lawful*
/// variant when explaining a blocked goal.
fn demand_rank(verdict: Verdict) -> usize {
    match verdict {
        Verdict::NoProcessNeeded => 0,
        Verdict::ProcessRequired(process) => 1 + process_index(process),
        Verdict::UnlawfulForPrivateActor => usize::MAX,
    }
}

/// The planner: a [`BatchAssessor`] plus the search loop.
///
/// Construction mirrors the assessor's builder: [`Planner::new`] uses
/// the machine's parallelism and a fresh cache;
/// [`Planner::with_threads`] pins the worker count (the emitted plan
/// bytes are identical either way); [`Planner::from_assessor`] adopts
/// an existing assessor — the way a server shares its service-wide
/// verdict cache with plan requests.
pub struct Planner {
    assessor: BatchAssessor,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner with a fresh assessor (machine parallelism, own cache).
    pub fn new() -> Self {
        Planner {
            assessor: BatchAssessor::new(),
        }
    }

    /// A planner whose assessor uses exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Planner {
            assessor: BatchAssessor::new().with_threads(threads),
        }
    }

    /// A planner over an existing assessor (e.g. one sharing a
    /// service-wide [`VerdictCache`](forensic_law::batch::VerdictCache)).
    pub fn from_assessor(assessor: BatchAssessor) -> Self {
        Planner { assessor }
    }

    /// The assessor driving this planner's verdict evaluations.
    pub fn assessor(&self) -> &BatchAssessor {
        &self.assessor
    }

    /// Searches for the cheapest lawful plan acquiring every goal item.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] only if an item's spec/route combination
    /// fails to build an action — impossible for problems produced by
    /// [`parse_problem`](crate::problem::parse_problem), which
    /// validates both up front.
    pub fn solve(&self, problem: &PlanProblem) -> Result<PlanOutcome, SpecError> {
        let started = Instant::now();
        let cache_before = self.assessor.cache().stats();
        let mut stats = SearchStats::default();

        // Every item's candidate collections in one flat list — item `i`
        // owns `offsets[i]..offsets[i + 1]` — assessed with ONE batched
        // call. Verdicts are state-independent, so this table answers
        // every expansion.
        let mut actions: Vec<InvestigativeAction> = Vec::new();
        let mut routes: Vec<Option<String>> = Vec::new();
        let mut offsets = Vec::with_capacity(problem.items.len() + 1);
        offsets.push(0);
        for item in &problem.items {
            for CollectVariant { route, action } in item.variants(&problem.routes)? {
                actions.push(action);
                routes.push(route);
            }
            offsets.push(actions.len());
        }
        stats.batch_calls = 1;
        stats.candidates_evaluated = actions.len() as u64;
        let assessments = self.assessor.assess_all(&actions);
        let goal_mask = problem.goal_mask();

        let start = State {
            mask: 0,
            standard: problem.start_standard,
            process: problem.start_process,
        };
        let mut nodes: HashMap<u64, Node> = HashMap::new();
        let mut closed: HashSet<u64> = HashSet::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        nodes.insert(
            start.key(),
            Node {
                cost: 0,
                state: start,
                parent: None,
                step: None,
            },
        );
        heap.push(Reverse((0, start.key())));

        let mut goal_key = None;
        while let Some(Reverse((cost, key))) = heap.pop() {
            if !closed.insert(key) {
                continue; // stale heap entry for an already-settled state
            }
            let state = nodes[&key].state;
            debug_assert_eq!(nodes[&key].cost, cost);
            if state.mask & goal_mask == goal_mask {
                goal_key = Some(key);
                break;
            }
            stats.nodes_expanded += 1;

            // Apply edges: climb to any stronger instrument the current
            // showing suffices for.
            for next in LegalProcess::ALL {
                if process_index(next) <= process_index(state.process)
                    || !state.standard.suffices_for(next)
                {
                    continue;
                }
                let step_cost = problem.costs.process(next);
                relax(
                    &mut nodes,
                    &mut heap,
                    key,
                    cost + step_cost,
                    State {
                        process: next,
                        ..state
                    },
                    || PlanStep::Apply {
                        process: next,
                        standard: state.standard,
                        cost: step_cost,
                    },
                );
            }

            // Collect edges for every still-missing item, in (item,
            // variant) declaration order.
            for (i, item) in problem.items.iter().enumerate() {
                if state.mask & (1 << i) != 0 {
                    continue;
                }
                let standard = if standard_index(item.yields) > standard_index(state.standard) {
                    item.yields
                } else {
                    state.standard
                };
                for v in offsets[i]..offsets[i + 1] {
                    let assessment = &assessments[v];
                    if !assessment.is_lawful_with(state.process) {
                        continue;
                    }
                    let route = &routes[v];
                    let step_cost = problem.costs.collect
                        + if route.is_some() {
                            problem.costs.route
                        } else {
                            0
                        };
                    relax(
                        &mut nodes,
                        &mut heap,
                        key,
                        cost + step_cost,
                        State {
                            mask: state.mask | (1 << i),
                            standard,
                            process: state.process,
                        },
                        || PlanStep::Collect {
                            item: item.name.clone(),
                            route: route.clone(),
                            held: state.process,
                            yields: item.yields,
                            cost: step_cost,
                            assessment: assessment.clone(),
                        },
                    );
                }
            }
        }

        if let Some(goal) = goal_key {
            let (total_cost, final_state) = {
                let node = &nodes[&goal];
                (node.cost, node.state)
            };
            let mut steps = Vec::new();
            let mut cursor = goal;
            loop {
                let node = &nodes[&cursor];
                match (&node.step, node.parent) {
                    (Some(step), Some(parent)) => {
                        steps.push(step.clone());
                        cursor = parent;
                    }
                    _ => break,
                }
            }
            steps.reverse();
            let cache_after = self.assessor.cache().stats();
            stats.cache_hits = cache_after.hits.saturating_sub(cache_before.hits);
            stats.cache_misses = cache_after.misses.saturating_sub(cache_before.misses);
            stats.wall = started.elapsed();
            return Ok(PlanOutcome::Plan(Plan {
                steps,
                total_cost,
                final_standard: final_state.standard,
                final_process: final_state.process,
                stats,
            }));
        }

        // Exhausted without covering the goal set. Lawfulness depends
        // only on (fact pattern, process held) and both posture axes
        // are monotone, so reachable collections compose: if every goal
        // bit appeared in SOME settled state the full set would be
        // reachable too. At least one goal bit never appeared — those
        // are the blockers.
        let mut reachable = 0u32;
        let mut best_standard = problem.start_standard;
        for key in &closed {
            let state = nodes[key].state;
            reachable |= state.mask;
            if standard_index(state.standard) > standard_index(best_standard) {
                best_standard = state.standard;
            }
        }
        let blocked: Vec<usize> = (0..problem.items.len())
            .filter(|i| problem.items[*i].goal && reachable & (1u32 << i) == 0)
            .collect();
        debug_assert!(
            !blocked.is_empty(),
            "search exhausted but every goal bit is reachable"
        );

        // Explain each blocked item via its closest-to-lawful variant.
        let mut blockers = Vec::with_capacity(blocked.len());
        for &i in &blocked {
            let assessment = assessments[offsets[i]..offsets[i + 1]]
                .iter()
                .min_by_key(|a| demand_rank(a.verdict()))
                .expect("items always have the base variant")
                .clone();
            let firings = assessment.provenance().firings();
            let (rule, effect, required) = match assessment.verdict() {
                Verdict::ProcessRequired(required) => {
                    // The firing that imposed the unmeetable process
                    // requirement; the closing verdict.final firing is a
                    // summary, so prefer the substantive rule.
                    let firing = firings
                        .iter()
                        .find(|f| f.process() == Some(required) && f.rule() != "verdict.final")
                        .or_else(|| firings.last())
                        .expect("provenance always closes with verdict.final");
                    (firing.rule(), firing.effect(), Some(required))
                }
                _ => {
                    let firing = firings
                        .last()
                        .expect("provenance always closes with verdict.final");
                    (firing.rule(), firing.effect(), None)
                }
            };
            blockers.push(Blocker {
                item: problem.items[i].name.clone(),
                assessment,
                rule,
                effect,
                required,
            });
        }

        let cache_after = self.assessor.cache().stats();
        stats.cache_hits = cache_after.hits.saturating_sub(cache_before.hits);
        stats.cache_misses = cache_after.misses.saturating_sub(cache_before.misses);
        stats.wall = started.elapsed();
        Ok(PlanOutcome::NoLawfulPath(NoLawfulPath {
            blockers,
            best_standard,
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::parse_problem;

    #[test]
    fn state_keys_are_injective_over_the_ladders() {
        let mut seen = HashSet::new();
        for standard in FactualStandard::ALL {
            for process in LegalProcess::ALL {
                for mask in [0u32, 1, u32::MAX] {
                    let state = State {
                        mask,
                        standard,
                        process,
                    };
                    assert!(seen.insert(state.key()), "collision at {state:?}");
                }
            }
        }
    }

    #[test]
    fn a_subpoena_ladder_plan_is_found_and_costed() {
        let problem = parse_problem(
            br#"
{"start": {"standard": "mere-suspicion"}}
{"goal": "subscriber records", "collect": {"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}}
"#,
        )
        .expect("parses");
        let outcome = Planner::with_threads(1).solve(&problem).expect("solves");
        let PlanOutcome::Plan(plan) = outcome else {
            panic!("expected a plan, got: {}", outcome.render());
        };
        // Apply for a subpoena (10), then collect (1).
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.total_cost, 11);
        assert_eq!(plan.final_process, LegalProcess::Subpoena);
        assert_eq!(plan.stats.batch_calls, 1);
    }

    #[test]
    fn an_unreachable_goal_names_the_blocking_rule() {
        // A wiretap needs probable-cause-plus; nothing here yields it.
        let problem = parse_problem(
            br#"
{"start": {"standard": "probable-cause"}}
{"goal": "live audio", "collect": {"actor": "leo", "data": "content", "when": "realtime", "where": "isp"}}
"#,
        )
        .expect("parses");
        let outcome = Planner::with_threads(1).solve(&problem).expect("solves");
        let PlanOutcome::NoLawfulPath(blocked) = outcome else {
            panic!("expected no lawful path, got: {}", outcome.render());
        };
        assert_eq!(blocked.blockers.len(), 1);
        assert_eq!(blocked.blockers[0].item, "live audio");
        assert_eq!(
            blocked.blockers[0].required,
            Some(LegalProcess::WiretapOrder)
        );
        assert_ne!(blocked.blockers[0].rule, "");
        assert!(blocked.render().contains("no lawful path"));
    }
}
