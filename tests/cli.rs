//! Smoke tests for the `lexforensica` command-line tool.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lexforensica"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn table1_prints_twenty_rows() {
    let out = run(&["table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 20);
    assert!(stdout.contains("#1 "));
    assert!(stdout.contains("#20"));
}

#[test]
fn assess_wiretap_posture() {
    let out = run(&[
        "assess", "--actor", "leo", "--data", "content", "--when", "realtime", "--where", "isp",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("wiretap order"), "{stdout}");
}

#[test]
fn assess_rate_only_downgrades_to_court_order() {
    let out = run(&[
        "assess",
        "--actor",
        "leo",
        "--data",
        "content",
        "--when",
        "realtime",
        "--where",
        "isp",
        "--rate-only",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("court order"), "{stdout}");
}

#[test]
fn assess_admin_own_network_is_free() {
    let out = run(&[
        "assess",
        "--actor",
        "admin",
        "--data",
        "headers",
        "--where",
        "own-network",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no need"), "{stdout}");
}

#[test]
fn cite_finds_katz() {
    let out = run(&["cite", "katz"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("389 U.S. 347"));
}

#[test]
fn cite_miss_fails() {
    let out = run(&["cite", "zzzznonexistent"]);
    assert!(!out.status.success());
}

#[test]
fn bad_usage_exits_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["assess", "--where", "narnia"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Run `assess-batch` with `input` piped on stdin.
fn run_batch_stdin(input: &str) -> std::process::Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_lexforensica"))
        .args(["assess-batch", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().expect("binary exits")
}

/// The checked-in fixture must produce this exact verdict stream — the
/// golden record for the batch pipeline end to end, including Table 1
/// rows 7 (pen/trap), 8 (wiretap), and 12 (provider-operated server).
#[test]
fn assess_batch_fixture_matches_golden_output() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/assess_batch.jsonl"
    );
    let out = run(&["assess-batch", fixture]);
    assert!(out.status.success(), "{:?}", out);

    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = "\
#1 need (court order) [settled] -- row 7: pen/trap on addressing data at the ISP
#2 need (wiretap order) [settled] -- row 8: real-time content interception at the ISP
#4 need (search warrant) [settled] -- row 12: hidden server operating as a provider
#5 no need [settled] -- admin collects headers realtime at own-network
#6 need (court order) [settled] -- traffic-rate watermark tracing only
#7 unlawful for a private actor [authors' judgment (*)] -- private collects content realtime at wireless
#8 no need [settled] -- device search with the target's consent
#9 need (subpoena) [settled] -- subscriber records subpoenaed from the provider
#10 no need [settled] -- forensic image of a probationer's seized laptop
#11 no need [settled] -- monitoring an open P2P protocol
";
    assert_eq!(stdout, golden);

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("10 actions"), "{stderr}");
    assert!(stderr.contains("10 misses"), "{stderr}");
}

/// Repeated fact patterns on stdin are deduplicated by the verdict cache;
/// the report on stderr shows the hits.
#[test]
fn assess_batch_reports_cache_hits_for_repeats() {
    let line = r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp"}"#;
    let input = format!("{line}\n{line}\n{line}\n");
    let out = run_batch_stdin(&input);
    assert!(out.status.success());

    let stdout = String::from_utf8(out.stdout).unwrap();
    for n in 1..=3 {
        assert!(
            stdout.contains(&format!("#{n} need (wiretap order) [settled]")),
            "{stdout}"
        );
    }
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("2 hits, 1 misses"), "{stderr}");
}

/// A malformed line is reported to stderr with its 1-based line number
/// and fails the run, but the remaining lines are still assessed.
#[test]
fn assess_batch_malformed_line_is_reported_not_fatal() {
    let input = concat!(
        r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}"#,
        "\n",
        "this is not json\n",
        r#"{"actor": "leo", "where": "narnia"}"#,
        "\n",
        r#"{"actor": "admin", "data": "headers", "where": "own-network"}"#,
        "\n",
    );
    let out = run_batch_stdin(input);
    assert_eq!(out.status.code(), Some(1));

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2:"), "{stderr}");
    assert!(stderr.contains("line 3:"), "{stderr}");
    assert!(stderr.contains("narnia"), "{stderr}");
    assert!(stderr.contains("2 malformed line(s) skipped"), "{stderr}");

    // The good lines around the bad ones were still assessed.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("#1 need (court order) [settled]"),
        "{stdout}"
    );
    assert!(stdout.contains("#4 no need [settled]"), "{stdout}");
}

/// A missing input file is a usage-level failure, not a panic.
#[test]
fn assess_batch_missing_file_fails_cleanly() {
    let out = run(&["assess-batch", "/nonexistent/batch.jsonl"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.is_empty());
}

/// `--threads` and `--seed` parse through the shared `Args` helper and
/// never change the verdict stream: any seed shuffles only the internal
/// assessment order, and the output is re-sorted into line order.
#[test]
fn assess_batch_output_is_thread_and_seed_invariant() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/assess_batch.jsonl"
    );
    let baseline = run(&["assess-batch", fixture]);
    assert!(baseline.status.success());
    for extra in [
        &["--threads", "1"][..],
        &["--threads", "8", "--seed", "7"][..],
        &["--seed=12345"][..],
    ] {
        let mut args = vec!["assess-batch", fixture];
        args.extend_from_slice(extra);
        let out = run(&args);
        assert!(out.status.success(), "{args:?}");
        assert_eq!(
            out.stdout, baseline.stdout,
            "verdicts changed under {args:?}"
        );
    }
}

/// A misspelled flag is refused by name with the usage exit code, not
/// silently ignored while the batch runs on defaults.
#[test]
fn assess_batch_misspelled_flag_exits_nonzero() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/assess_batch.jsonl"
    );
    let out = run(&["assess-batch", fixture, "--thread", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "assessed despite the bad flag");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown option --thread"), "{stderr}");
}

/// The batch report surfaces throughput and the cache hit rate on
/// stderr, in the same shape `serve` uses.
#[test]
fn assess_batch_report_shows_throughput_and_hit_rate() {
    let line = r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp"}"#;
    let input = format!("{line}\n{line}\n{line}\n{line}\n");
    let out = run_batch_stdin(&input);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("actions/s"), "{stderr}");
    assert!(stderr.contains("75.0% hit rate"), "{stderr}");
}

/// The `serve` fixture's golden output: the service path must answer
/// exactly what the one-shot engine answers, line for line.
#[test]
fn serve_fixture_matches_golden_output() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_demo.jsonl"
    );
    let out = run(&["serve", fixture, "--workers", "2"]);
    assert!(out.status.success(), "{out:?}");

    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = "\
#1 need (court order) [settled] -- pen/trap stream on addressing data
#2 need (wiretap order) [settled] -- live content interception request
#3 need (subpoena) [settled] -- subscriber records request
#4 need (court order) [settled] -- repeat pen/trap request (cache hit)
#5 no need [settled] -- provider-side ops review
#6 need (search warrant) [settled] -- stored unopened mail at the provider
#7 need (wiretap order) [settled] -- second interception on the same facts (cache hit)
#8 no need [settled] -- consented device examination
";
    assert_eq!(stdout, golden);

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("served 8 of 8 requests"), "{stderr}");
    assert!(stderr.contains("2 hits, 6 misses"), "{stderr}");
    assert!(stderr.contains("metrics: {\"submitted\": 8"), "{stderr}");
    assert!(stderr.contains("\"end_to_end_us\""), "{stderr}");
}

/// `serve` and `assess-batch` agree verdict-for-verdict on the same
/// input — the service changes the cost model, never the answers.
#[test]
fn serve_agrees_with_assess_batch() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/assess_batch.jsonl"
    );
    let batch = run(&["assess-batch", fixture]);
    let served = run(&["serve", fixture, "--workers", "4", "--capacity", "4"]);
    assert!(batch.status.success() && served.status.success());
    assert_eq!(batch.stdout, served.stdout);
}

/// Every admission policy serves the small fixture completely — at this
/// scale nothing is shed, whatever the policy.
#[test]
fn serve_accepts_each_admission_policy() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_demo.jsonl"
    );
    for policy in ["block", "reject", "drop-oldest"] {
        let out = run(&["serve", fixture, "--policy", policy, "--workers", "2"]);
        assert!(out.status.success(), "policy {policy}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("served 8 of 8"),
            "policy {policy}: {stderr}"
        );
    }
    let out = run(&["serve", fixture, "--policy", "lifo"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A generous deadline changes nothing; the flag parses and the requests
/// still complete.
#[test]
fn serve_with_deadline_completes_small_batches() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_demo.jsonl"
    );
    let out = run(&["serve", fixture, "--deadline-ms", "10000"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("timeout"), "{stdout}");
}

/// A `serve --tcp` server under test: spawned with stdin held open (EOF
/// is the shutdown signal) and its listening address scraped from
/// stderr.
struct TcpServer {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    stderr: std::thread::JoinHandle<String>,
    addr: String,
}

impl TcpServer {
    fn spawn(extra: &[&str]) -> TcpServer {
        use std::io::{BufRead, BufReader, Read};
        use std::process::Stdio;
        let mut child = Command::new(env!("CARGO_BIN_EXE_lexforensica"))
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let stdin = child.stdin.take();
        let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("server announces itself");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
            .trim()
            .to_string();
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        TcpServer {
            child,
            stdin,
            stderr,
            addr,
        }
    }

    /// Closes stdin (the graceful-shutdown signal) and collects the
    /// exit status and remaining stderr.
    fn shutdown(mut self) -> (std::process::ExitStatus, String) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("server exits");
        let stderr = self.stderr.join().expect("stderr thread");
        (status, stderr)
    }
}

/// `assess-remote` against a live `serve --tcp` prints byte-for-byte
/// what `assess-batch` prints for the same fixture, and the server
/// drains cleanly on stdin EOF with balanced wire metrics.
#[test]
fn assess_remote_matches_assess_batch_over_tcp() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_demo.jsonl"
    );
    let server = TcpServer::spawn(&["--workers", "2"]);

    let batch = run(&["assess-batch", fixture]);
    assert!(batch.status.success());
    // Two sequential replays: the second also proves connection
    // teardown leaves the server healthy.
    for round in 0..2 {
        let remote = run(&["assess-remote", &server.addr, fixture, "--pipeline", "4"]);
        assert!(remote.status.success(), "round {round}: {remote:?}");
        assert_eq!(
            remote.stdout, batch.stdout,
            "round {round}: remote verdicts differ from assess-batch"
        );
    }

    let (status, stderr) = server.shutdown();
    assert!(status.success(), "{stderr}");
    assert!(stderr.contains("stdin closed; draining"), "{stderr}");
    assert!(stderr.contains("\"frames_in\": 16"), "{stderr}");
    assert!(stderr.contains("\"frames_out\": 16"), "{stderr}");
    assert!(stderr.contains("\"protocol_errors\": 0"), "{stderr}");
    assert!(stderr.contains("service metrics:"), "{stderr}");
}

/// Malformed lines fail `assess-remote` with a nonzero exit and per-line
/// diagnostics, while well-formed lines are still assessed remotely.
#[test]
fn assess_remote_reports_malformed_lines_and_fails() {
    use std::io::Write;
    use std::process::Stdio;
    let server = TcpServer::spawn(&[]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_lexforensica"))
        .args(["assess-remote", &server.addr, "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"actor\": \"leo\"}\nnot json\n")
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2:"), "{stderr}");
    assert!(stderr.contains("1 malformed line(s) skipped"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("#1 need (wiretap order)"), "{stdout}");

    let (status, _) = server.shutdown();
    assert!(status.success());
}

/// A dead address fails fast and nonzero, with a readable message.
#[test]
fn assess_remote_unreachable_server_fails_cleanly() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_demo.jsonl"
    );
    let out = run(&["assess-remote", "127.0.0.1:1", fixture]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot connect"), "{stderr}");
}

/// Malformed lines are reported and skipped by `serve` exactly as by
/// `assess-batch`, with a nonzero exit.
#[test]
fn serve_reports_malformed_lines() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_lexforensica"))
        .args(["serve", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"actor\": \"leo\"}\nnot json\n")
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2:"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("#1 need (wiretap order)"), "{stdout}");
}
