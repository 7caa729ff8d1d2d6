//! Bench-trajectory gate: verifies `BENCH_results.json` is present,
//! parses, and contains a section for **every** registered driver.
//!
//! ```console
//! $ cargo run --release -p bench --bin check_results [-- --file PATH]
//! ```
//!
//! CI's bench-trajectory job runs the perf drivers and then this check
//! before uploading the results artifact: a driver that crashed, was
//! skipped, or silently stopped calling [`results::record`] turns the
//! job red instead of quietly thinning the perf history.

use bench::results::{self, Json, REGISTERED_DRIVERS};
use service::cli::Args;
use std::process::ExitCode;

/// Every sweep point the `wire_load` driver emits must carry these
/// keys — the per-model comparison is useless if a point is missing
/// its throughput, tail latency, or memory column.
const WIRE_LOAD_POINT_KEYS: &[&str] = &[
    "connections",
    "total_requests",
    "throughput_rps",
    "rtt_p99_us",
    "peak_rss_kb",
];

/// Structural check for the `wire_load` section: a `servers` object
/// with at least one serving model, each holding a non-empty `sweep`
/// whose points all carry the required columns.
fn check_wire_load(section: &Json) -> Result<(), String> {
    let Some(Json::Obj(servers)) = section.get("servers") else {
        return Err("wire_load: missing \"servers\" object".into());
    };
    if servers.is_empty() {
        return Err("wire_load: \"servers\" is empty".into());
    }
    for (model, entry) in servers {
        let Some(Json::Arr(sweep)) = entry.get("sweep") else {
            return Err(format!("wire_load.{model}: missing \"sweep\" array"));
        };
        if sweep.is_empty() {
            return Err(format!("wire_load.{model}: sweep is empty"));
        }
        for (i, point) in sweep.iter().enumerate() {
            for key in WIRE_LOAD_POINT_KEYS {
                if !matches!(point.get(key), Some(Json::Num(_))) {
                    return Err(format!(
                        "wire_load.{model}: sweep point {i} lacks numeric {key:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every sweep point the `simcore_scale` driver emits must carry the
/// scale axes: overlay size, event count, throughput, wall time, and
/// the point's peak RSS.
const SIMCORE_SCALE_POINT_KEYS: &[&str] = &[
    "nodes",
    "sim_events",
    "events_per_sec",
    "wall_ms",
    "peak_rss_kb",
];

/// Structural check for the `simcore_scale` section: both sweeps
/// present and non-empty with every point carrying the scale columns,
/// and the determinism phase recorded `identical: true`. Deliberately
/// does **not** require a particular overlay size — CI smoke runs pass
/// a small `--nodes`; the 100k+ points come from full runs.
fn check_simcore_scale(section: &Json) -> Result<(), String> {
    for sweep_key in ["oneswarm_sweep", "watermark_sweep"] {
        let Some(Json::Arr(sweep)) = section.get(sweep_key) else {
            return Err(format!("simcore_scale: missing {sweep_key:?} array"));
        };
        if sweep.is_empty() {
            return Err(format!("simcore_scale: {sweep_key} is empty"));
        }
        for (i, point) in sweep.iter().enumerate() {
            for key in SIMCORE_SCALE_POINT_KEYS {
                if !matches!(point.get(key), Some(Json::Num(_))) {
                    return Err(format!(
                        "simcore_scale.{sweep_key}: point {i} lacks numeric {key:?}"
                    ));
                }
            }
        }
    }
    match section.get("determinism").and_then(|d| d.get("identical")) {
        Some(Json::Bool(true)) => Ok(()),
        _ => Err("simcore_scale: determinism.identical is not true".into()),
    }
}

/// Every sweep point the `plan_search` driver emits must carry the
/// search axes: problem size, frontier work, expansion throughput,
/// cache amortization, and wall time.
const PLAN_SEARCH_POINT_KEYS: &[&str] = &[
    "items",
    "nodes_expanded",
    "candidates_evaluated",
    "nodes_per_sec",
    "cache_hit_rate",
    "wall_ms",
];

/// Structural check for the `plan_search` section: a non-empty sweep
/// whose points all carry the search columns, and the thread-count
/// determinism phase recorded `identical: true`. Deliberately does
/// **not** require a particular item count — CI smoke runs pass a
/// small `--items`.
fn check_plan_search(section: &Json) -> Result<(), String> {
    let Some(Json::Arr(sweep)) = section.get("sweep") else {
        return Err("plan_search: missing \"sweep\" array".into());
    };
    if sweep.is_empty() {
        return Err("plan_search: sweep is empty".into());
    }
    for (i, point) in sweep.iter().enumerate() {
        for key in PLAN_SEARCH_POINT_KEYS {
            if !matches!(point.get(key), Some(Json::Num(_))) {
                return Err(format!(
                    "plan_search: sweep point {i} lacks numeric {key:?}"
                ));
            }
        }
    }
    match section.get("determinism").and_then(|d| d.get("identical")) {
        Some(Json::Bool(true)) => Ok(()),
        _ => Err("plan_search: determinism.identical is not true".into()),
    }
}

/// Structural check for the `replay_serve` section: both replay phases
/// present with a real throughput number and **zero** divergences, and
/// a compaction phase that actually shrank the journal (ratio ≥ 2 — the
/// driver's workload is superseding by construction, so anything less
/// means the retention policy or the swap broke). Deliberately does
/// **not** require a particular record count — CI smoke runs pass a
/// small `--records`.
fn check_replay_serve(section: &Json) -> Result<(), String> {
    for phase in ["replay_live", "replay_compacted"] {
        let Some(entry @ Json::Obj(_)) = section.get(phase) else {
            return Err(format!("replay_serve: missing {phase:?} object"));
        };
        match entry.get("records_per_s") {
            Some(Json::Num(rps)) if *rps > 0.0 => {}
            _ => return Err(format!("replay_serve.{phase}: records_per_s not positive")),
        }
        match entry.get("divergences") {
            Some(Json::Num(d)) if *d == 0.0 => {}
            _ => return Err(format!("replay_serve.{phase}: divergences is not zero")),
        }
    }
    match section.get("compaction").and_then(|c| c.get("ratio")) {
        Some(Json::Num(ratio)) if *ratio >= 2.0 => Ok(()),
        Some(Json::Num(ratio)) => Err(format!(
            "replay_serve: compaction ratio {ratio:.2} is below 2x"
        )),
        _ => Err("replay_serve: compaction.ratio missing".into()),
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let file = args
        .get("file")
        .unwrap_or(results::RESULTS_FILE)
        .to_string();

    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("FAIL: cannot read {file}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(doc) = results::parse(&text) else {
        eprintln!("FAIL: {file} is not valid JSON");
        return ExitCode::FAILURE;
    };
    if !matches!(doc, Json::Obj(_)) {
        eprintln!("FAIL: {file} is not a JSON object");
        return ExitCode::FAILURE;
    }

    let mut missing = Vec::new();
    for &driver in REGISTERED_DRIVERS {
        match doc.get(driver) {
            Some(section @ Json::Obj(_)) => {
                let shape = match driver {
                    "wire_load" => check_wire_load(section),
                    "simcore_scale" => check_simcore_scale(section),
                    "plan_search" => check_plan_search(section),
                    "replay_serve" => check_replay_serve(section),
                    _ => Ok(()),
                };
                match shape {
                    Ok(()) => println!("ok: {driver}"),
                    Err(why) => {
                        eprintln!("FAIL: {why}");
                        missing.push(driver);
                    }
                }
            }
            Some(_) => {
                eprintln!("FAIL: section {driver:?} is not an object");
                missing.push(driver);
            }
            None => {
                eprintln!("FAIL: missing section {driver:?}");
                missing.push(driver);
            }
        }
    }

    if missing.is_empty() {
        println!(
            "{file}: all {} registered driver sections present",
            REGISTERED_DRIVERS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: {file} is missing {} of {} registered sections — \
             run the corresponding drivers (see REGISTERED_DRIVERS in \
             crates/bench/src/results.rs)",
            missing.len(),
            REGISTERED_DRIVERS.len()
        );
        ExitCode::FAILURE
    }
}
