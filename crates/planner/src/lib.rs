//! # planner — searching the lawful-process space
//!
//! The compliance engine answers *"is this investigative action lawful,
//! given these facts?"* — an oracle. This crate turns the oracle into a
//! navigator: given a **goal evidence set**, an investigator's current
//! **posture** (factual showing held, strongest process instrument in
//! hand), and a **per-step cost model**, it searches the space of
//! lawful transitions for the *cheapest* sequence of steps that
//! acquires every goal item — the subpoena → §2703(d) order → warrant
//! ladder the paper orders by difficulty (§II-A), interleaved with
//! exception routes (consent, exigency, plain view, …) where those are
//! cheaper than climbing.
//!
//! ## The model
//!
//! A planning problem ([`PlanProblem`]) is a list of evidence items
//! ([`EvidenceItem`]) — each a JSONL fact pattern in the same
//! [`ActionSpec`](forensic_law::spec::ActionSpec) vocabulary the
//! `assess-batch` subcommand reads, plus the factual standard the item
//! *yields* once collected — together with a starting posture and a
//! [`CostModel`]. A search state is `(acquired items, factual
//! standard, strongest process held)`; two edge families leave it:
//!
//! * **apply** for a process instrument the current showing suffices
//!   for (pure ladder arithmetic — no engine call);
//! * **collect** an item via one of its candidate fact patterns (the
//!   base pattern, or the base pattern plus one enabled exception
//!   route), lawful exactly when the engine's verdict for that pattern
//!   is satisfied by the process held.
//!
//! Collecting an item raises the factual standard to the item's yield
//! (join on the standards ladder), which is what makes subsequent,
//! more demanding applications reachable — the ladder dynamic.
//!
//! ## The search
//!
//! [`Planner::solve`] runs Dijkstra over this graph. Verdicts depend
//! only on the fact pattern, never on the search state, so before the
//! search starts every item's candidate collect actions are projected
//! through [`FactKey`](forensic_law::factkey::FactKey) and evaluated
//! with **one** [`BatchAssessor`](forensic_law::batch::BatchAssessor)
//! call through the shared
//! [`VerdictCache`](forensic_law::batch::VerdictCache); every node
//! expansion then reads that table, so each pattern is looked up once
//! per solve whatever the size of the search. The result is either the
//! provably cheapest lawful [`Plan`] — every step carrying its verdict
//! line and the per-verdict provenance record, a court-ready
//! justification — or a [`NoLawfulPath`] explanation naming, for each
//! unreachable goal, the blocking rule and the showing the reachable
//! evidence tops out at.
//!
//! Determinism is part of the contract: ties in the priority queue are
//! broken by packed state key, edges are relaxed in a fixed order, and
//! the batch assessor is order-preserving — the emitted plan bytes are
//! identical at any thread count.
//!
//! ## Quick start
//!
//! ```
//! use planner::{parse_problem, Planner, PlanOutcome};
//!
//! let problem = parse_problem(
//!     br#"
//! {"start": {"standard": "mere-suspicion"}}
//! {"goal": "subscriber records", "collect": {"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}, "yields": "articulable-facts"}
//! {"goal": "transaction logs", "collect": {"actor": "leo", "data": "records", "when": "stored", "where": "provider"}}
//! "#,
//! )
//! .expect("problem parses");
//! match Planner::new().solve(&problem).expect("specs build") {
//!     PlanOutcome::Plan(plan) => {
//!         assert!(plan.steps.len() >= 3); // subpoena, collect, collect
//!         println!("{}", plan.render());
//!     }
//!     PlanOutcome::NoLawfulPath(blocked) => panic!("{}", blocked.render()),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod problem;
pub mod search;

pub use plan::{process_word, standard_word, Blocker, NoLawfulPath, Plan, PlanOutcome, PlanStep};
pub use problem::{
    parse_problem, parse_process_word, parse_standard_word, CollectVariant, CostModel,
    EvidenceItem, PlanProblem,
};
pub use search::{Planner, SearchStats};
