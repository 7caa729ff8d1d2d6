//! The `lexforensica` command-line tool: ask the compliance engine about
//! an investigative action (one-off, in JSONL batches, or through the
//! long-running bounded-queue service), list the Table 1 scenarios, or
//! look up an authority in the casebook. Linux-only, like the `wire`
//! serving layer it links.
//!
//! ```console
//! $ lexforensica table1
//! $ lexforensica assess --actor leo --data content --when realtime --where isp
//! $ lexforensica assess --actor admin --data headers --where own-network
//! $ lexforensica assess-batch scenarios.jsonl --threads 4
//! $ lexforensica serve scenarios.jsonl --workers 4 --policy reject
//! $ lexforensica cite katz
//! ```

use lexforensica::journal::{
    Journal, JournalConfig, JournalReader, Mode, Record, RecordData, SwapRecovery,
};
use lexforensica::law::batch::BatchAssessor;
use lexforensica::law::casebook::{all_citations, lookup};
use lexforensica::law::prelude::*;
use lexforensica::law::provenance::push_escaped;
use lexforensica::law::scenarios::table1;
use lexforensica::law::spec::{
    parse_actor, parse_category, parse_jsonl, parse_location, parse_temporality, ActionSpec,
    LocatedError, SpecLine,
};
use lexforensica::service::cli::Args;
use lexforensica::service::prelude::*;
use lexforensica::wire::prelude::*;
use std::collections::VecDeque;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  lexforensica table1
      print the paper's Table 1 with engine verdicts
  lexforensica assess [OPTIONS]
      assess an investigative action:
        --actor leo|admin|private|provider|employer   (default leo)
        --directed            actor acts at government direction
        --data content|headers|subscriber|records     (default content)
        --when realtime|stored|stored-unopened        (default realtime)
        --where isp|own-network|wireless|wireless-enc|device|provider|public|media|remote
                                                      (default isp)
        --public-protocol     investigator joins a public protocol
        --rate-only           observes traffic rates only
        --hash-search         exhaustive forensic search of media
        --consent             target consents
        --exigent             exigent circumstances
        --probation           target on probation
  lexforensica assess-batch <file.jsonl | -> [--threads N] [--seed S]
      assess one JSON scenario object per input line (\"-\" for stdin);
      prints one \"#line verdict [confidence] -- summary\" row per
      scenario and cache statistics on stderr. --threads pins the
      worker count; --seed shuffles the assessment order (output stays
      in line order — answers are order-independent). Malformed lines
      are reported with their line number and skipped; the exit code
      is then nonzero.
        --explain FILE        also write one JSONL provenance record
                              per scenario to FILE: a fresh trace id
                              (line order), the verdict, and the
                              engine's ordered rule firings
  lexforensica serve <file.jsonl | -> [OPTIONS]
      run the same JSONL scenarios through the bounded-queue compliance
      service (worker pool, admission control, deadlines):
        --workers N           worker threads (default: all cores)
        --capacity N          queue capacity (default 1024)
        --policy block|reject|drop-oldest             (default block)
        --deadline-ms D       per-request deadline in milliseconds
        --explain FILE        enable span tracing and write one JSONL
                              provenance record per scenario to FILE,
                              joinable to the span ring by trace id
      prints one row per scenario (verdict, or timeout/shed/rejected)
      and a metrics snapshot on stderr
  lexforensica serve --tcp ADDR [OPTIONS]
      expose the compliance service over TCP (the lexforensica-wire
      framed protocol, served by an epoll event loop) instead of
      replaying a file; same service options as above, plus:
        --max-inflight N      pipelined requests per connection (default 64)
        --explain FILE        enable span tracing and log every answered
                              request's provenance record to FILE (JSONL)
        --journal DIR         record every answered request (verdicts,
                              bad requests, rejections) in the durable
                              request journal at DIR; recovered and
                              resumed if DIR already holds one
      prints \"listening on HOST:PORT\" on stderr (bind port 0 to let
      the OS pick), serves until stdin reaches EOF, then drains
      gracefully and prints wire + service metrics on stderr
  lexforensica assess-remote ADDR <file.jsonl | -> [OPTIONS]
      replay JSONL scenarios against a \"serve --tcp\" server and print
      the same rows assess-batch would:
        --pipeline N          max requests in flight (default 32)
        --deadline-ms D       per-request deadline in milliseconds
      malformed lines are reported with their line number and skipped;
      the exit code is then nonzero
  lexforensica journal <file.jsonl | -> <DIR> [--threads N]
      assess a JSONL batch and record every row in the durable request
      journal at DIR (append-only, CRC-checksummed, segment-rotated):
      each record stores the raw request line, the canonical verdict
      bytes, a status byte, and a fresh trace id. Malformed lines are
      journaled as bad-request records (diagnostic stored as the
      response) and reported on stderr; the exit code is then nonzero.
      Reopening an existing DIR recovers it (truncating a torn tail)
      and appends at the next sequence number.
  lexforensica journal compact <DIR>
      rewrite the journal keeping only the latest verdict per distinct
      action (by engine fact-key, so respellings dedupe) and the latest
      diagnostic per distinct malformed request; load-dependent records
      (timeout/shed/rejected) are dropped. The swap is crash-safe:
      kill -9 at any instant leaves the old or the new generation,
      never a mix, and the next open completes the swap.
  lexforensica replay <DIR> [--verify] [--threads N]
      re-run a journaled session through the engine and diff it
      byte-for-byte — the regression oracle: every ok record must
      reproduce exactly the stored verdict bytes, every bad-request
      record must still fail to parse. Divergences print as
      \"record N: ...\" rows on stdout; corruption is reported as
      \"SEGMENT offset N: reason\". The scan is read-only: a torn tail
      is noted and the clean prefix replayed. --verify scans strictly
      instead (any defect, torn tail included, fails). Exit is nonzero
      on divergence or corruption.
  lexforensica replay <DIR> --serve ADDR [OPTIONS]
      refire the journaled session over TCP against a live
      \"serve --tcp\" server instead of assessing in-process: ok
      records must come back ok with the exact journaled verdict
      bytes, bad-request records must still be refused; timeouts,
      sheds and rejections are skipped. Requests are paced by the
      journaled capture timestamps:
        --speed N             pacing multiplier (default 1 = recorded
                              rhythm; 2 = twice as fast; 0 = as fast
                              as the window allows)
        --conns N             client connections (default 8)
        --pipeline N          in-flight requests per connection
                              (default 32)
      divergences print as \"record N (trace T): ...\" rows on stdout
      and the exit code is nonzero.
  lexforensica plan <file.jsonl | -> [--threads N]
      search the lawful-process space of a JSONL planning problem for
      the cheapest sequence of process applications and evidence
      collections that reaches every goal. Prints the ordered plan —
      each step costed and carrying its court-ready justification from
      the engine's provenance — or a provenance-backed \"no lawful
      path\" report naming the blocking rule, on stdout; search
      statistics (nodes expanded/s, verdict-cache hit rate) go to
      stderr. Problem directives, one JSON object per line:
        {{\"goal\": NAME, \"collect\": {{scenario...}}, \"yields\": STANDARD}}
        {{\"lead\": NAME, \"collect\": {{scenario...}}, \"yields\": STANDARD}}
        {{\"start\": {{\"standard\": S, \"process\": P}}}}
        {{\"routes\": [\"consent\", \"exigent\", ...]}}
        {{\"costs\": {{\"collect\": N, \"route\": N, \"subpoena\": N, ...}}}}
      malformed problems are reported with their line numbers and the
      exit code is then nonzero; an unreachable goal is an answer, not
      an error
  lexforensica cite <substring>
      search the casebook by citation or holding text"
    );
    ExitCode::from(2)
}

fn cmd_table1() -> ExitCode {
    let engine = ComplianceEngine::new();
    for row in table1() {
        let verdict = engine.assess(row.action()).verdict();
        println!(
            "#{:<3} {:<74} paper: {:<12} engine: {}",
            row.number(),
            row.summary(),
            row.paper_verdict().to_string(),
            verdict
        );
    }
    ExitCode::SUCCESS
}

fn cmd_cite(needle: &str) -> ExitCode {
    let needle = needle.to_lowercase();
    let mut found = 0;
    for id in all_citations() {
        let a = lookup(id);
        if a.cite.to_lowercase().contains(&needle) || a.holding.to_lowercase().contains(&needle) {
            println!("{a}");
            found += 1;
        }
    }
    if found == 0 {
        eprintln!("no casebook entry matches \"{needle}\"");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_assess(args: &[String]) -> ExitCode {
    let mut actor_name = "leo".to_string();
    let mut directed = false;
    let mut data = "content".to_string();
    let mut when = "realtime".to_string();
    let mut location = "isp".to_string();
    let mut public_protocol = false;
    let mut rate_only = false;
    let mut hash_search = false;
    let mut consent = false;
    let mut exigent = false;
    let mut probation = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--actor" => actor_name = it.next().cloned().unwrap_or_default(),
            "--directed" => directed = true,
            "--data" => data = it.next().cloned().unwrap_or_default(),
            "--when" => when = it.next().cloned().unwrap_or_default(),
            "--where" => location = it.next().cloned().unwrap_or_default(),
            "--public-protocol" => public_protocol = true,
            "--rate-only" => rate_only = true,
            "--hash-search" => hash_search = true,
            "--consent" => consent = true,
            "--exigent" => exigent = true,
            "--probation" => probation = true,
            other => {
                eprintln!("unknown option {other}");
                return usage();
            }
        }
    }

    let (Some(actor), Some(category), Some(temporality), Some(loc)) = (
        parse_actor(&actor_name, directed),
        parse_category(&data),
        parse_temporality(&when),
        parse_location(&location),
    ) else {
        eprintln!("invalid option value");
        return usage();
    };

    let mut builder =
        InvestigativeAction::builder(actor, DataSpec::new(category, temporality, loc));
    builder.describe(format!(
        "{actor_name} collects {data} {when} at {location} (cli)"
    ));
    if public_protocol {
        builder.joining_public_protocol();
    }
    if rate_only {
        builder.rate_observation_only();
    }
    if hash_search {
        builder.exhaustive_forensic_search();
    }
    if consent {
        builder.with_consent(Consent::by(ConsentAuthority::TargetSelf));
    }
    if exigent {
        builder.with_exigency(Exigency::ImminentEvidenceDestruction);
    }
    if probation {
        builder.target_on_probation();
    }
    let action = builder.build();
    let assessment = ComplianceEngine::new().assess(&action);
    println!("{assessment}");
    ExitCode::SUCCESS
}

/// Reads the whole JSONL input, from a file or stdin (`-`). Raw bytes:
/// a bad-UTF-8 line must cost one line error downstream, not the file.
fn read_input(path: &str) -> Result<Vec<u8>, ExitCode> {
    if path == "-" {
        let mut bytes = Vec::new();
        use std::io::Read as _;
        if let Err(e) = std::io::stdin().read_to_end(&mut bytes) {
            eprintln!("cannot read stdin: {e}");
            return Err(ExitCode::FAILURE);
        }
        Ok(bytes)
    } else {
        std::fs::read(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        })
    }
}

/// Parses every line, reporting failures to stderr without stopping.
/// Returns the well-formed lines and the count of malformed ones.
fn parse_lines(input: &[u8]) -> (Vec<SpecLine>, u64) {
    let batch = parse_jsonl(input);
    for error in &batch.errors {
        eprintln!("{error}");
    }
    (batch.lines, batch.errors.len() as u64)
}

/// Opens the `--explain FILE` provenance sink, when requested.
fn explain_file(args: &Args) -> Result<Option<std::io::BufWriter<std::fs::File>>, ExitCode> {
    match args.get("explain") {
        None => Ok(None),
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Ok(Some(std::io::BufWriter::new(file))),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                Err(ExitCode::FAILURE)
            }
        },
    }
}

fn cmd_assess_batch(args: Args) -> ExitCode {
    let Some(path) = args.positional(0) else {
        return usage();
    };
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let seed = args.u64_flag("seed", 0);

    let input = match read_input(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let (mut parsed, bad_lines) = parse_lines(&input);

    // A nonzero seed shuffles the *assessment* order. The output is
    // re-sorted into line order below, so the answers must be — and the
    // golden tests check they are — seed-independent.
    if seed != 0 {
        simcore::rng::SimRng::seed_from(seed).shuffle(&mut parsed);
    }

    let actions: Vec<_> = parsed.iter().map(|p| p.action.clone()).collect();
    let assessor = BatchAssessor::new().with_threads(threads);
    let (assessments, report) = assessor.assess_all_with_report(&actions);

    let mut explain = match explain_file(&args) {
        Ok(writer) => writer,
        Err(code) => return code,
    };
    let mut rows: Vec<_> = parsed.iter().zip(&assessments).collect();
    rows.sort_by_key(|(p, _)| p.line);
    for (p, assessment) in rows {
        println!("#{} {} -- {}", p.line, assessment.verdict_line(), p.summary);
        if let Some(out) = explain.as_mut() {
            // Trace ids are minted here, per batch row in line order, so
            // a fresh process yields trace 1 for line 1 and so on — the
            // golden test pins exactly this.
            use std::io::Write as _;
            let trace = obs::TraceId::mint();
            let mut record = format!(r#"{{"trace":{trace},"line":{},"verdict":""#, p.line);
            push_escaped(&mut record, &assessment.verdict().to_string());
            record.push_str(r#"","confidence":""#);
            push_escaped(&mut record, &assessment.confidence().to_string());
            record.push_str(r#"","provenance":"#);
            record.push_str(&assessment.provenance().to_json());
            record.push('}');
            if let Err(e) = writeln!(out, "{record}") {
                eprintln!("cannot write explain record: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(out) = explain.as_mut() {
        use std::io::Write as _;
        if let Err(e) = out.flush() {
            eprintln!("cannot flush explain records: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("{report}");
    if bad_lines > 0 {
        eprintln!("{bad_lines} malformed line(s) skipped");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Opens (and, if needed, recovers) the request journal at `dir`,
/// reporting what recovery found. Shared by `journal`, `replay`'s
/// write-side sibling `serve --tcp --journal`, and anything else that
/// appends.
fn open_journal(dir: &str) -> Result<Journal, ExitCode> {
    match Journal::open(Path::new(dir), JournalConfig::default()) {
        Ok((journal, recovery)) => {
            if let Some(t) = &recovery.truncation {
                eprintln!(
                    "journal: truncated torn tail of {} at offset {} ({} bytes lost: {})",
                    t.segment.display(),
                    t.offset,
                    t.lost_bytes,
                    t.reason
                );
            }
            if recovery.records > 0 {
                eprintln!(
                    "journal: recovered {} records, resuming at seq {}",
                    recovery.records, recovery.next_seq
                );
            }
            Ok(journal)
        }
        Err(e) => {
            eprintln!("cannot open journal {dir}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `journal compact DIR`: rewrite the journal keeping only the latest
/// verdict per distinct action (and the latest diagnostic per distinct
/// malformed request), dropping load-dependent records entirely, per
/// `wire::compaction_retention`. The swap is crash-safe: SIGKILL at any
/// instant leaves the old or the new generation, never a splice, and
/// the next open completes the swap.
fn cmd_journal_compact(args: &Args) -> ExitCode {
    let Some(dir) = args.positional(1) else {
        return usage();
    };
    match lexforensica::journal::compact::compact(
        Path::new(dir),
        JournalConfig::default(),
        lexforensica::wire::compaction_retention,
    ) {
        Ok(report) => {
            match report.prior {
                SwapRecovery::Clean => {}
                SwapRecovery::RolledForward => {
                    eprintln!("journal: completed an interrupted compaction swap (rolled forward)")
                }
                SwapRecovery::RolledBack => {
                    eprintln!("journal: discarded an uncommitted compaction (rolled back)")
                }
            }
            eprintln!(
                "compacted {dir}: {} of {} records survive ({} superseded, {} dropped), \
                 {} -> {} segments, {} -> {} bytes ({:.2}x)",
                report.surviving_records,
                report.input_records,
                report.superseded,
                report.discarded,
                report.segments_before,
                report.segments_after,
                report.bytes_before,
                report.bytes_after,
                report.ratio()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot compact journal {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `journal FILE DIR`: assess a JSONL batch and record every row —
/// verdicts and malformed lines alike — in the durable request journal.
/// `journal compact DIR` instead rewrites an existing journal down to
/// its latest-wins survivors.
fn cmd_journal(args: Args) -> ExitCode {
    if args.positional(0) == Some("compact") {
        return cmd_journal_compact(&args);
    }
    let (Some(path), Some(dir)) = (args.positional(0), args.positional(1)) else {
        return usage();
    };
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let input = match read_input(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let batch = parse_jsonl(&input);
    for error in &batch.errors {
        eprintln!("{}", error.located());
    }
    let raw_lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();

    let actions: Vec<_> = batch.lines.iter().map(|p| p.action.clone()).collect();
    let assessor = BatchAssessor::new().with_threads(threads);
    let (assessments, report) = assessor.assess_all_with_report(&actions);

    // Merge verdict rows and malformed rows back into input order: the
    // journal records the session as it happened, not just the wins.
    enum Row {
        Verdict(String),
        Bad(String),
    }
    let mut rows: Vec<(usize, Row)> = batch
        .lines
        .iter()
        .zip(&assessments)
        .map(|(p, a)| (p.line, Row::Verdict(a.verdict_line())))
        .chain(
            batch
                .errors
                .iter()
                .map(|e| (e.line, Row::Bad(e.error.to_string()))),
        )
        .collect();
    rows.sort_by_key(|(line, _)| *line);

    let journal = match open_journal(dir) {
        Ok(journal) => journal,
        Err(code) => return code,
    };
    let mut ok = 0u64;
    let mut bad = 0u64;
    let mut last_seq = 0u64;
    for (line, row) in rows {
        let request = raw_lines[line - 1].to_vec();
        let (status, verdict) = match row {
            Row::Verdict(verdict_line) => {
                ok += 1;
                (Status::Ok, verdict_line.into_bytes())
            }
            Row::Bad(reason) => {
                bad += 1;
                (Status::BadRequest, reason.into_bytes())
            }
        };
        let data = RecordData {
            // Trace ids are minted here, per row in line order — the
            // same convention as assess-batch --explain.
            trace: obs::TraceId::mint(),
            at_us: lexforensica::journal::now_us(),
            status: status.as_byte(),
            request,
            verdict,
        };
        match journal.append(data) {
            Ok(seq) => last_seq = seq,
            Err(e) => {
                eprintln!("journal append failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = journal.close() {
        eprintln!("journal close failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "journaled {} records ({ok} ok, {bad} bad) through seq {last_seq} in {dir}",
        ok + bad
    );
    eprintln!("{report}");
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parses a journaled request payload back into an action (the same
/// path the server took when it first answered it).
fn parse_action(payload: &[u8]) -> Result<InvestigativeAction, String> {
    std::str::from_utf8(payload)
        .map_err(|e| format!("payload is not UTF-8: {e}"))
        .and_then(|line| {
            ActionSpec::from_json_line(line)
                .and_then(|spec| spec.to_action())
                .map_err(|e| e.to_string())
        })
}

/// Scans the whole journal at `dir` into memory. Read-only: corruption
/// is *reported* (uniformly, via the shared located-error shape), never
/// repaired here. Shared by offline replay and `replay --serve`.
fn scan_journal(dir: &str, mode: Mode) -> Result<Vec<Record>, ExitCode> {
    let mut reader = match JournalReader::open(Path::new(dir), mode) {
        Ok(reader) => reader,
        Err(e) => {
            eprintln!("cannot open journal {dir}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let mut records: Vec<Record> = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => break,
            Err(lexforensica::journal::JournalError::Corrupt {
                segment,
                offset,
                reason,
            }) => {
                eprintln!(
                    "{}",
                    LocatedError::new(
                        format_args!("{} offset {offset}", segment.display()),
                        reason
                    )
                );
                return Err(ExitCode::FAILURE);
            }
            Err(e) => {
                eprintln!("journal read failed: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if let Some(t) = reader.truncation() {
        eprintln!(
            "journal: torn tail in {} at offset {} ({} bytes, {}); replaying the clean prefix",
            t.segment.display(),
            t.offset,
            t.lost_bytes,
            t.reason
        );
    }
    Ok(records)
}

/// `replay DIR`: the regression oracle. Re-runs every journaled request
/// through the engine and diffs the outcome byte-for-byte against what
/// the journal recorded. With `--serve ADDR` the session is instead
/// *refired* over TCP against a live server, paced by the journaled
/// timestamps.
fn cmd_replay(args: Args) -> ExitCode {
    let Some(dir) = args.positional(0) else {
        return usage();
    };
    let verify = args.get("verify").is_some();
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let mode = if verify { Mode::Strict } else { Mode::Recover };

    let records = match scan_journal(dir, mode) {
        Ok(records) => records,
        Err(code) => return code,
    };
    if let Some(addr) = args.get("serve") {
        return cmd_replay_serve(&args, addr, &records);
    }

    // Partition by journaled disposition. Only records that carried a
    // deterministic outcome are re-checked: verdicts must reproduce
    // exactly, bad requests must still fail to parse. Load-dependent
    // dispositions (timeout, shed, rejected) are facts about the
    // recorded run, not claims about the engine.
    let mut divergences: Vec<LocatedError> = Vec::new();
    let mut to_assess: Vec<(u64, Vec<u8>, InvestigativeAction)> = Vec::new();
    let mut bad_confirmed = 0u64;
    let mut skipped = 0u64;
    for record in &records {
        match Status::from_byte(record.status) {
            Some(Status::Ok) => match parse_action(&record.request) {
                Ok(action) => to_assess.push((record.seq, record.verdict.clone(), action)),
                Err(e) => divergences.push(LocatedError::new(
                    format_args!("record {}", record.seq),
                    format_args!("journaled ok but the payload no longer parses: {e}"),
                )),
            },
            Some(Status::BadRequest) => match parse_action(&record.request) {
                Err(_) => bad_confirmed += 1,
                Ok(_) => divergences.push(LocatedError::new(
                    format_args!("record {}", record.seq),
                    "journaled bad-request but the payload now parses",
                )),
            },
            _ => skipped += 1,
        }
    }

    let actions: Vec<_> = to_assess.iter().map(|(_, _, a)| a.clone()).collect();
    let assessor = BatchAssessor::new().with_threads(threads);
    let (assessments, report) = assessor.assess_all_with_report(&actions);
    let mut matched = 0u64;
    for ((seq, journaled, _), assessment) in to_assess.iter().zip(&assessments) {
        let live = assessment.verdict_line().into_bytes();
        if &live == journaled {
            matched += 1;
        } else {
            divergences.push(LocatedError::new(
                format_args!("record {seq}"),
                format_args!(
                    "verdict diverged: journal says {:?}, engine now says {:?}",
                    String::from_utf8_lossy(journaled),
                    String::from_utf8_lossy(&live)
                ),
            ));
        }
    }

    for divergence in &divergences {
        println!("{divergence}");
    }
    eprintln!(
        "replayed {} records: {matched} verdicts matched byte-for-byte, {bad_confirmed} \
         bad-requests confirmed, {skipped} skipped (load-dependent status), {} divergence(s)",
        records.len(),
        divergences.len()
    );
    eprintln!("{report}");
    if divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The live-refire half of `replay`: every deterministic record (ok and
/// bad-request) goes back on the wire against a `serve --tcp` server
/// through the shared [`wire::load`] core — one epoll driver thread,
/// whatever `--conns` says — paced by the journaled capture
/// times, and every response is diffed against the journaled
/// disposition. Load-dependent records (timeout, shed, rejected) are
/// facts about the recorded run, not requests to repeat, and are
/// skipped.
fn cmd_replay_serve(args: &Args, addr: &str, records: &[Record]) -> ExitCode {
    use lexforensica::wire::load::{self, LoadRequest, LoadSource};
    use std::collections::HashMap;
    use std::net::ToSocketAddrs as _;

    let pipeline = args.usize_flag("pipeline", 32).max(1);
    let speed: f64 = match args.get("speed").map(str::parse).transpose() {
        Ok(speed) => speed.unwrap_or(1.0),
        Err(_) => {
            eprintln!("--speed must be a number (0 = as fast as possible)");
            return ExitCode::FAILURE;
        }
    };
    if !speed.is_finite() || speed < 0.0 {
        eprintln!("--speed must be a finite non-negative number");
        return ExitCode::FAILURE;
    }
    let addr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("--serve {addr}: not a resolvable HOST:PORT");
            return ExitCode::FAILURE;
        }
    };

    /// What the journal promises about one refired request.
    enum Expect {
        Verdict(Vec<u8>),
        BadRequest,
    }
    struct Refire {
        seq: u64,
        payload: Vec<u8>,
        due_us: u64,
    }

    // Pacing: capture-time deltas from the first refired record, scaled
    // by `--speed`. `at_us` carries no ordering authority (walls clocks
    // jump), so due times are clamped monotone — the journal's seq
    // order is the schedule, the timestamps only space it out.
    let mut expected: HashMap<u64, (String, Expect)> = HashMap::new();
    let mut refires: Vec<Refire> = Vec::new();
    let mut verdicts = 0u64;
    let mut bad = 0u64;
    let mut skipped = 0u64;
    let mut base_at_us: Option<u64> = None;
    let mut last_due = 0u64;
    for record in records {
        let expect = match Status::from_byte(record.status) {
            Some(Status::Ok) => {
                verdicts += 1;
                Expect::Verdict(record.verdict.clone())
            }
            Some(Status::BadRequest) => {
                bad += 1;
                Expect::BadRequest
            }
            _ => {
                skipped += 1;
                continue;
            }
        };
        let base = *base_at_us.get_or_insert(record.at_us);
        let due_us = if speed == 0.0 {
            0
        } else {
            let elapsed = record.at_us.saturating_sub(base) as f64 / speed;
            last_due.max(elapsed.min(u64::MAX as f64) as u64)
        };
        last_due = due_us;
        expected.insert(record.seq, (record.trace.to_string(), expect));
        refires.push(Refire {
            seq: record.seq,
            payload: record.request.clone(),
            due_us,
        });
    }
    let total = refires.len() as u64;
    let connections = args.usize_flag("conns", 8).max(1).min(refires.len().max(1));

    // Round-robin sharding keeps each connection's due times
    // nondecreasing (the global schedule already is).
    let mut shards: Vec<VecDeque<Refire>> = (0..connections).map(|_| VecDeque::new()).collect();
    for (i, refire) in refires.into_iter().enumerate() {
        shards[i % connections].push_back(refire);
    }

    struct ReplaySource {
        shards: Vec<VecDeque<Refire>>,
        expected: HashMap<u64, (String, Expect)>,
        divergences: Vec<LocatedError>,
        done: u64,
    }
    impl LoadSource for ReplaySource {
        fn next(&mut self, conn: usize) -> Option<LoadRequest> {
            self.shards[conn].pop_front().map(|refire| LoadRequest {
                id: refire.seq,
                payload: refire.payload,
                due_us: refire.due_us,
            })
        }

        fn complete(
            &mut self,
            _conn: usize,
            id: u64,
            status: Status,
            payload: &[u8],
            _rtt: Duration,
        ) {
            self.done += 1;
            let (trace, expect) = self
                .expected
                .remove(&id)
                .expect("response for a record never refired");
            match expect {
                Expect::Verdict(journaled) => {
                    if status != Status::Ok {
                        self.divergences.push(LocatedError::new(
                            format_args!("record {id} (trace {trace})"),
                            format_args!(
                                "status diverged: journal says ok, live server says {status}"
                            ),
                        ));
                    } else if payload != journaled.as_slice() {
                        self.divergences.push(LocatedError::new(
                            format_args!("record {id} (trace {trace})"),
                            format_args!(
                                "verdict diverged: journal says {:?}, live server says {:?}",
                                String::from_utf8_lossy(&journaled),
                                String::from_utf8_lossy(payload)
                            ),
                        ));
                    }
                }
                Expect::BadRequest => {
                    if status != Status::BadRequest {
                        self.divergences.push(LocatedError::new(
                            format_args!("record {id} (trace {trace})"),
                            format_args!(
                                "status diverged: journal says bad-request, live server says {status}"
                            ),
                        ));
                    }
                }
            }
        }
    }

    let mut source = ReplaySource {
        shards,
        expected,
        divergences: Vec::new(),
        done: 0,
    };
    let wall = match load::drive(addr, connections, pipeline, &mut source) {
        Ok(wall) => wall,
        Err(e) => {
            for divergence in &source.divergences {
                println!("{divergence}");
            }
            eprintln!("replay --serve failed after {} responses: {e}", source.done);
            return ExitCode::FAILURE;
        }
    };
    assert_eq!(source.done, total, "driver returned with responses missing");

    for divergence in &source.divergences {
        println!("{divergence}");
    }
    let pacing = if speed == 0.0 {
        "max pacing".to_string()
    } else {
        format!("{speed}x recorded pacing")
    };
    eprintln!(
        "refired {total} records ({verdicts} verdicts, {bad} bad-requests) against {addr} \
         over {connections} connection(s) in {:.3}s ({:.0} rec/s, {pacing}); \
         {skipped} skipped (load-dependent status); {} divergence(s)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64().max(1e-9),
        source.divergences.len()
    );
    if source.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `plan FILE`: best-first search over the lawful-process space for
/// the cheapest plan reaching every goal — or a provenance-backed
/// "no lawful path" refusal naming the blocking rule.
fn cmd_plan(args: Args) -> ExitCode {
    let Some(path) = args.positional(0) else {
        return usage();
    };
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let input = match read_input(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    // Problem defects surface in the same located-error shape
    // assess-batch and replay report: one "line N: reason" row each.
    let problem = match lexforensica::planner::parse_problem(&input) {
        Ok(problem) => problem,
        Err(errors) => {
            for error in &errors {
                eprintln!("{error}");
            }
            eprintln!("{} problem defect(s); nothing planned", errors.len());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match lexforensica::planner::Planner::with_threads(threads).solve(&problem) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The rendering is deterministic (golden-tested); timing lives on
    // stderr only.
    print!("{}", outcome.render());
    let stats = outcome.stats();
    eprintln!(
        "search: {} nodes expanded, {} candidate step(s) in {} batched call(s); \
         {:.0} nodes/s; cache: {} hits, {} misses ({:.1}% hit rate)",
        stats.nodes_expanded,
        stats.candidates_evaluated,
        stats.batch_calls,
        stats.nodes_per_second(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate() * 100.0,
    );
    ExitCode::SUCCESS
}

/// Builds a service from the shared `--workers/--capacity/--policy/
/// --deadline-ms` flags, or reports the bad flag and returns `None`.
fn service_from_args(args: &Args) -> Option<ComplianceService> {
    let workers = args.usize_flag(
        "workers",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let capacity = args.usize_flag("capacity", 1024);
    let policy = match args.get("policy") {
        None => AdmissionPolicy::Block,
        Some(word) => match AdmissionPolicy::parse(word) {
            Some(policy) => policy,
            None => {
                eprintln!("unknown admission policy \"{word}\"");
                return None;
            }
        },
    };
    let default_deadline = args
        .get("deadline-ms")
        .map(|_| Duration::from_millis(args.u64_flag("deadline-ms", 0)));
    Some(ComplianceService::start(ServiceConfig {
        workers,
        capacity,
        policy,
        default_deadline,
        engine_floor: Duration::ZERO,
    }))
}

/// `serve --tcp ADDR`: expose the service over the wire protocol until
/// stdin reaches EOF, then drain gracefully.
fn cmd_serve_tcp(args: &Args) -> ExitCode {
    let addr = args.get("tcp").expect("dispatched on --tcp");
    let Some(service) = service_from_args(args) else {
        return usage();
    };
    let service = Arc::new(service);
    let config = WireConfig {
        max_inflight: args.usize_flag("max-inflight", 64),
        ..WireConfig::default()
    };
    let explain = match args.get("explain") {
        None => None,
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => {
                obs::global().set_enabled(true);
                Some(ExplainSink::new(Box::new(file)))
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let journal = match args.get("journal") {
        None => None,
        Some(dir) => match open_journal(dir) {
            Ok(journal) => Some(Arc::new(journal)),
            Err(code) => return code,
        },
    };
    let server = match EventServer::start_with_sinks(
        addr,
        Arc::clone(&service),
        config,
        explain,
        journal.clone(),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The contract scripts rely on: address first on stderr (alone on
    // its line), stdin EOF stops.
    eprintln!("listening on {}", server.local_addr());
    eprintln!("serving model: epoll");

    let mut sink = Vec::new();
    use std::io::Read as _;
    let _ = std::io::stdin().read_to_end(&mut sink);

    eprintln!("stdin closed; draining");
    let wire_finals = server.shutdown().metrics;
    eprintln!("wire metrics: {}", wire_finals.to_json());
    let mut journal_failed = false;
    if let Some(journal) = journal {
        // The event loop is joined, so this Arc is the last handle and
        // close() sees every append the server issued.
        match Arc::try_unwrap(journal) {
            Ok(journal) => {
                if let Err(e) = journal.close() {
                    eprintln!("journal close failed: {e}");
                    journal_failed = true;
                } else {
                    eprintln!("journal durable through seq {}", journal.durable_seq());
                }
            }
            Err(_) => {
                eprintln!("journal handle still shared after drain");
                journal_failed = true;
            }
        }
    }
    let Ok(service) = Arc::try_unwrap(service) else {
        // The event loop has been joined, so this handle is the last
        // one; if not, report rather than hang.
        eprintln!("service handle still shared after drain");
        return ExitCode::FAILURE;
    };
    let finals = service.shutdown();
    eprintln!("service metrics: {}", finals.to_json());
    if finals.responses() != finals.accepted {
        eprintln!(
            "lost responses: accepted {} answered {}",
            finals.accepted,
            finals.responses()
        );
        return ExitCode::FAILURE;
    }
    if journal_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `assess-remote ADDR FILE`: replay a JSONL batch over the wire
/// protocol, pipelined, and print assess-batch-identical rows.
fn cmd_assess_remote(args: Args) -> ExitCode {
    let (Some(addr), Some(path)) = (args.positional(0), args.positional(1)) else {
        return usage();
    };
    let window = args.usize_flag("pipeline", 32).max(1);
    let deadline_ms = args.u64_flag("deadline-ms", 0).min(u64::from(u32::MAX)) as u32;

    let input = match read_input(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let (parsed, bad_lines) = parse_lines(&input);
    // The wire payload is the raw JSONL line itself (1-based `line`
    // indexes into the unfiltered input).
    let raw_lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();

    let client = match WireClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Sliding-window pipelining: up to `window` requests on the wire,
    // reaping the oldest before submitting the next. Responses may
    // complete out of order server-side; rows are re-sorted below.
    let mut inflight: VecDeque<(&SpecLine, PendingCall)> = VecDeque::new();
    let mut rows: Vec<(usize, String)> = Vec::new();
    let mut failed = false;
    let reap =
        |spec: &SpecLine, call: PendingCall, rows: &mut Vec<(usize, String)>| match call.wait() {
            Ok(response) => {
                let row = match response.status {
                    Status::Ok => format!(
                        "#{} {} -- {}",
                        spec.line,
                        String::from_utf8_lossy(&response.payload),
                        spec.summary
                    ),
                    status => format!("#{} {} -- {}", spec.line, status, spec.summary),
                };
                rows.push((spec.line, row));
                false
            }
            Err(e) => {
                eprintln!("line {}: {e}", spec.line);
                true
            }
        };
    for spec in &parsed {
        if inflight.len() == window {
            let (spec, call) = inflight.pop_front().expect("window is non-empty");
            failed |= reap(spec, call, &mut rows);
        }
        let raw = raw_lines[spec.line - 1].to_vec();
        match client.submit(raw, deadline_ms) {
            Ok(call) => inflight.push_back((spec, call)),
            Err(e) => {
                eprintln!("line {}: {e}", spec.line);
                failed = true;
            }
        }
    }
    for (spec, call) in inflight {
        failed |= reap(spec, call, &mut rows);
    }

    rows.sort_by_key(|(line, _)| *line);
    for (_, row) in rows {
        println!("{row}");
    }
    if bad_lines > 0 {
        eprintln!("{bad_lines} malformed line(s) skipped");
    }
    if failed || bad_lines > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_serve(args: Args) -> ExitCode {
    if args.get("tcp").is_some() {
        return cmd_serve_tcp(&args);
    }
    let Some(path) = args.positional(0) else {
        return usage();
    };
    let workers = args.usize_flag(
        "workers",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let capacity = args.usize_flag("capacity", 1024);
    let policy = match args.get("policy") {
        None => AdmissionPolicy::Block,
        Some(word) => match AdmissionPolicy::parse(word) {
            Some(policy) => policy,
            None => {
                eprintln!("unknown admission policy \"{word}\"");
                return usage();
            }
        },
    };
    let default_deadline = args
        .get("deadline-ms")
        .map(|_| Duration::from_millis(args.u64_flag("deadline-ms", 0)));

    let input = match read_input(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let (parsed, bad_lines) = parse_lines(&input);

    let mut explain = match explain_file(&args) {
        Ok(writer) => writer,
        Err(code) => return code,
    };
    if explain.is_some() {
        // Tracing rides along with --explain: every admitted request
        // leaves queue/engine spans in the global ring, joinable to the
        // provenance records below by trace id.
        obs::global().set_enabled(true);
    }

    let service = ComplianceService::start(ServiceConfig {
        workers,
        capacity,
        policy,
        default_deadline,
        engine_floor: Duration::ZERO,
    });
    let start = Instant::now();

    // Closed-loop submission: under `block` a full queue pushes back on
    // this loop; under `reject`/`drop-oldest` overload turns into shed
    // rows instead of waiting.
    let tickets: Vec<Option<Ticket>> = parsed
        .iter()
        .map(|p| match service.submit(p.action.clone()) {
            Ok(ticket) => Some(ticket),
            Err(SubmitError::Overloaded) => None,
            Err(SubmitError::ShuttingDown) => {
                unreachable!("nothing closes admission during serve")
            }
        })
        .collect();

    for (p, ticket) in parsed.iter().zip(tickets) {
        let response = ticket.map(Ticket::wait);
        match response.as_ref().map(|r| &r.outcome) {
            None => println!("#{} rejected -- {}", p.line, p.summary),
            Some(Outcome::Completed(assessment)) => {
                println!("#{} {} -- {}", p.line, assessment.verdict_line(), p.summary);
            }
            Some(Outcome::TimedOut) => println!("#{} timeout -- {}", p.line, p.summary),
            Some(Outcome::Shed) => println!("#{} shed -- {}", p.line, p.summary),
        }
        if let Some(out) = explain.as_mut() {
            use std::io::Write as _;
            // Rejected rows never got a trace (refused at admission);
            // record them with the UNTRACED id 0.
            let trace = response.as_ref().map_or(0, |r| r.trace.as_u64());
            let (status, provenance) = match response.as_ref().map(|r| &r.outcome) {
                None => ("rejected", "[]".to_string()),
                Some(Outcome::Completed(a)) => ("ok", a.provenance().to_json()),
                Some(Outcome::TimedOut) => ("timeout", "[]".to_string()),
                Some(Outcome::Shed) => ("shed", "[]".to_string()),
            };
            let record = format!(
                r#"{{"trace":{trace},"line":{},"status":"{status}","provenance":{provenance}}}"#,
                p.line,
            );
            if let Err(e) = writeln!(out, "{record}") {
                eprintln!("cannot write explain record: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let elapsed = start.elapsed();
    let cache = service.cache().stats();
    let finals = service.shutdown();
    debug_assert_eq!(finals.responses(), finals.accepted, "lost a response");
    if let Some(out) = explain.as_mut() {
        use std::io::Write as _;
        if let Err(e) = out.flush() {
            eprintln!("cannot flush explain records: {e}");
            return ExitCode::FAILURE;
        }
        let spans = obs::global().snapshot();
        let count = |stage| spans.iter().filter(|s| s.stage == stage).count();
        eprintln!(
            "span ring: {} queue, {} engine spans recorded",
            count(obs::Stage::Queue),
            count(obs::Stage::Engine),
        );
    }
    eprintln!(
        "served {} of {} requests on {} workers in {:.1?} ({:.0} actions/s); cache: {}",
        finals.responses(),
        finals.submitted,
        workers,
        elapsed,
        finals.responses() as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        cache
    );
    eprintln!("metrics: {}", finals.to_json());
    if bad_lines > 0 {
        eprintln!("{bad_lines} malformed line(s) skipped");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("table1") => cmd_table1(),
        Some("assess") => cmd_assess(&args[1..]),
        Some("assess-batch") => cmd_assess_batch(Args::parse_from(args[1..].iter().cloned())),
        Some("assess-remote") => cmd_assess_remote(Args::parse_from(args[1..].iter().cloned())),
        Some("serve") => cmd_serve(Args::parse_from(args[1..].iter().cloned())),
        Some("journal") => cmd_journal(Args::parse_from(args[1..].iter().cloned())),
        Some("plan") => cmd_plan(Args::parse_from(args[1..].iter().cloned())),
        // `--verify` is a bare switch; the Args parser only knows
        // `--flag VALUE` pairs, so give it a value before parsing.
        Some("replay") => cmd_replay(Args::parse_from(args[1..].iter().map(|a| {
            if a == "--verify" {
                "--verify=true".to_string()
            } else {
                a.clone()
            }
        }))),
        Some("cite") => match args.get(1) {
            Some(needle) => cmd_cite(needle),
            None => usage(),
        },
        _ => usage(),
    }
}
