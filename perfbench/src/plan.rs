//! `plan`: an investigator asks the `plan` command for the cheapest
//! lawful plan.
//!
//! The timed phase makes pass after pass over a seeded problem set. Each
//! pass first sets up — parses the problems and builds a planner — then
//! solves the problems in turn, each on a fresh two-thread `Planner` as
//! each CLI invocation does, and checks every rendering against a
//! single-threaded reference solve made beforehand. Set-up is well
//! under a millisecond; repeating it once a pass gives `setup_s` a
//! median over the whole run, and its time is left out of the phase.

use crate::gen;
use crate::probe::{self, CpuWindow, Phase, Setups};
use crate::report::{EndToEnd, Run};
use crate::trace::{self, SpanLog, ROOT};
use crate::Options;
use planner::{parse_problem, PlanProblem, Planner};
use std::hint::black_box;
use std::time::Instant;

const THREADS: usize = 2;

fn parse_all(texts: &[String]) -> Vec<PlanProblem> {
    texts
        .iter()
        .map(|t| parse_problem(t.as_bytes()).expect("generated problems parse"))
        .collect()
}

pub fn run(opts: &Options) -> Run {
    let texts = gen::plan_problems(opts.seed);
    let reference: Vec<String> = parse_all(&texts)
        .iter()
        .map(|p| {
            Planner::with_threads(1)
                .solve(p)
                .expect("generated problems solve")
                .render()
        })
        .collect();
    let mut spans = SpanLog::with_capacity(if opts.trace { 1 << 16 } else { 0 });

    let main_tid = probe::current_tid();
    let window = CpuWindow::open(&[main_tid]);
    let start = Instant::now();
    let mut setups = Setups::default();
    let mut problems = Vec::new();
    let mut samples = Vec::with_capacity(1 << 12);
    let (mut solves, mut failed) = (0u64, 0u64);
    let (mut nodes, mut candidates, mut hits, mut misses, mut entries) = (0, 0, 0, 0, 0);
    let mut search_s = 0.0;
    let (mut ops_off, mut ops_on) = (0u64, 0u64);
    loop {
        let elapsed = start.elapsed() - setups.wall;
        if elapsed >= opts.seconds {
            break;
        }
        let k = solves as usize % texts.len();
        if k == 0 {
            drop(std::mem::take(&mut problems));
            let pass = solves / texts.len() as u64;
            let span = spans.begin("setup.parse_problems", ROOT, pass);
            problems = setups.time(|| {
                let parsed = parse_all(&texts);
                black_box(Planner::with_threads(THREADS));
                parsed
            });
            spans.end(span);
        }
        let traced = opts.trace && trace::traced_quarter(elapsed, opts.seconds);
        let t = Instant::now();
        let planner = Planner::with_threads(THREADS);
        let outcome = planner.solve(&problems[k]);
        let rendered = outcome.as_ref().map(|o| o.render());
        let t_done = Instant::now();
        samples.push(probe::ns32(t_done - t));
        solves += 1;
        match (&outcome, &rendered) {
            (Ok(o), Ok(text)) if *text == reference[k] => {
                let s = o.stats();
                nodes += s.nodes_expanded;
                candidates += s.candidates_evaluated;
                hits += s.cache_hits;
                misses += s.cache_misses;
                search_s += s.wall.as_secs_f64();
                entries = planner.assessor().cache().stats().entries;
            }
            _ => failed += 1,
        }
        if traced {
            ops_on += 1;
            spans.record("plan.solve", ROOT, k as u64, t, t_done);
        } else {
            ops_off += 1;
        }
    }
    let elapsed = start.elapsed() - setups.wall;
    let cpu = window.close();
    let peak_rss_mb = probe::peak_rss_mb();

    let per_op = |us: f64| us / solves.max(1) as f64;
    let mut run = Run {
        attempted: solves,
        failed,
        checks: Vec::new(),
        e2e: EndToEnd {
            setup_s: setups.median_s(),
            setups: setups.times_s.len(),
            phase: Phase::new(solves, elapsed, &mut samples),
            cpu_us_per_op: per_op(cpu.process_us - setups.cpu_us),
            peak_rss_mb,
        },
        layers: Default::default(),
        notes: Default::default(),
    };
    run.check(
        format!("{solves} plans render byte-identical to single-threaded reference solves"),
        failed == 0,
    );

    run.set(
        "batch.worker_busy_us_per_op",
        per_op(cpu.process_us - cpu.thread_us(main_tid)),
    );
    let ok = (solves - failed).max(1) as f64;
    run.set("planner.nodes_per_solve", nodes as f64 / ok);
    run.set(
        "planner.candidates_per_node",
        candidates as f64 / nodes.max(1) as f64,
    );
    run.set(
        "planner.nodes_per_s",
        nodes as f64 / search_s.max(f64::MIN_POSITIVE),
    );
    let lookups = (hits + misses).max(1) as f64;
    run.set("planner.cache_hit_rate", hits as f64 / lookups);
    run.set("cache.hit_rate", hits as f64 / lookups);
    run.set("cache.misses", misses as f64);
    run.set("cache.entries", entries as f64);
    run.set("host.steal_ms", cpu.steal_ms);
    run.set("host.cpu_ref_ms", cpu.cpu_ref_ms);
    run.set_latency();

    if opts.trace {
        run.set(
            "obs.trace_overhead_pct",
            trace::overhead_pct(ops_off, ops_on),
        );
        // The ladder runs on the problems' own collect specs.
        let lines: Vec<String> = texts
            .iter()
            .flat_map(|t| t.lines())
            .filter_map(|l| {
                let at = l.find(r#""collect": "#)? + r#""collect": "#.len();
                let end = at + l[at..].find('}')? + 1;
                Some(l[at..end].to_string())
            })
            .collect();
        trace::ladder(&lines, &opts.work.join("ladder"), &mut run);
        spans
            .write(&opts.spans_path())
            .expect("span file is writable");
    }
    run
}
