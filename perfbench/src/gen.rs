//! Seeded input generation. Everything a workload feeds the program is
//! derived here from the `--seed` argument, so the same seed always
//! yields byte-identical request streams, journal records and planning
//! problems.

use simcore::rng::{derive_seed, splitmix64};
use std::fmt::Write as _;

/// A stream of workload choices: steps of the workspace's shared
/// SplitMix64, started from a seed derived for one named purpose.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose under `seed`, so workloads and
    /// their parts draw independent streams from one seed.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(derive_seed(seed, fnv(label.as_bytes())))
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

const ACTORS: [&str; 5] = ["leo", "admin", "private", "provider", "employer"];
const DATA: [&str; 4] = ["content", "headers", "subscriber", "records"];
const WHEN: [&str; 3] = ["realtime", "stored", "stored-unopened"];
const WHERE: [&str; 9] = [
    "isp",
    "own-network",
    "wireless",
    "wireless-enc",
    "device",
    "provider",
    "public",
    "media",
    "remote",
];
const FLAGS: [&str; 8] = [
    "public-protocol",
    "rate-only",
    "hash-search",
    "consent",
    "exigent",
    "probation",
    "plain-view",
    "as-provider",
];

/// Every valid JSONL fact pattern: each combination of actor,
/// government direction, data class, time, place and flag subset.
pub const VOCABULARY: u32 = 5 * 2 * 4 * 3 * 9 * 256;

/// The hot set `serve` warms up and then keeps hitting.
pub const HOT_SET: usize = 1024;

const WORDS: [&str; 20] = [
    "capture",
    "mailbox",
    "subscriber",
    "ledger",
    "image",
    "stream",
    "warrant",
    "logs",
    "seized",
    "laptop",
    "router",
    "cloud",
    "account",
    "metadata",
    "packet",
    "relay",
    "archive",
    "drive",
    "phone",
    "backup",
];

/// Shortest `describe` text and the span of lengths above it. With the
/// fact fields this puts request lines at roughly 100 to 350 bytes,
/// most of them 150 to 250.
const DESCRIBE_MIN: usize = 4;
const DESCRIBE_SPAN: usize = 97;

/// A `describe` length drawn from a fixed, evenly spread schedule, so
/// that every seed sends the same mix of line lengths (line length
/// drives the parse cost) and only the text differs.
pub fn describe_len(slot: u64) -> usize {
    DESCRIBE_MIN + (slot.wrapping_mul(61) % DESCRIBE_SPAN as u64) as usize
}

/// Renders fact pattern `index` (< [`VOCABULARY`]) as one JSONL request
/// line whose `describe` text is `describe` bytes long.
pub fn render_line(index: u32, describe: usize, rng: &mut Rng) -> String {
    assert!(
        index < VOCABULARY,
        "pattern {index} is outside the vocabulary"
    );
    let mut rest = index;
    let mut digit = |radix: u32| {
        let d = rest % radix;
        rest /= radix;
        d as usize
    };
    let flags = digit(256);
    let place = digit(9);
    let when = digit(3);
    let data = digit(4);
    let directed = digit(2) == 1;
    let actor = digit(5);

    let mut line = String::with_capacity(320);
    let _ = write!(line, r#"{{"actor": "{}""#, ACTORS[actor]);
    if directed {
        line.push_str(r#", "directed": true"#);
    }
    let _ = write!(
        line,
        r#", "data": "{}", "when": "{}", "where": "{}""#,
        DATA[data], WHEN[when], WHERE[place]
    );
    if flags != 0 {
        line.push_str(r#", "flags": ["#);
        let mut first = true;
        for (bit, flag) in FLAGS.iter().enumerate() {
            if flags & (1 << bit) != 0 {
                if !first {
                    line.push_str(", ");
                }
                first = false;
                let _ = write!(line, r#""{flag}""#);
            }
        }
        line.push(']');
    }
    let _ = write!(
        line,
        r#", "describe": "{}"}}"#,
        render_describe(describe, rng)
    );
    line
}

/// A seeded permutation of the whole vocabulary. Workloads take
/// distinct patterns from it in order, so nothing repeats until it is
/// exhausted.
pub fn pattern_order(seed: u64, label: &str) -> Vec<u32> {
    let mut order: Vec<u32> = (0..VOCABULARY).collect();
    Rng::new(seed, label).shuffle(&mut order);
    order
}

/// What `serve` sends next: a line from the hot set or a never-seen
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Hot(u32),
    Novel(u32),
}

/// Share of `serve` requests that carry a never-seen fact pattern.
pub const NOVEL_PERCENT: u64 = 10;

/// The `serve` request stream: 90% uniform picks from the hot set, 10%
/// fresh patterns, taken in order after the hot set so they never
/// repeat and never collide with it.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: Rng,
    novel_issued: u32,
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        ServeStream {
            rng: Rng::new(seed, "serve-stream"),
            novel_issued: 0,
        }
    }

    /// Most novel patterns one run can send without repeating.
    pub const NOVEL_CAPACITY: u32 = VOCABULARY - HOT_SET as u32;

    /// The next pick, or `None` once the vocabulary is used up.
    pub fn next_pick(&mut self) -> Option<Pick> {
        let r = self.rng.next_u64();
        if r % 100 < NOVEL_PERCENT {
            if self.novel_issued == Self::NOVEL_CAPACITY {
                return None;
            }
            self.novel_issued += 1;
            Some(Pick::Novel(self.novel_issued - 1))
        } else {
            Some(Pick::Hot(((r >> 32) % HOT_SET as u64) as u32))
        }
    }
}

/// The `serve` inputs: hot lines and the pattern order novel requests
/// draw from.
#[derive(Debug)]
pub struct ServeInputs {
    pub order: Vec<u32>,
    pub hot_lines: Vec<String>,
    seed: u64,
}

impl ServeInputs {
    pub fn new(seed: u64) -> ServeInputs {
        let order = pattern_order(seed, "serve-patterns");
        let mut rng = Rng::new(seed, "serve-hot-text");
        let hot_lines = order[..HOT_SET]
            .iter()
            .enumerate()
            .map(|(k, &p)| render_line(p, describe_len(k as u64), &mut rng))
            .collect();
        ServeInputs {
            order,
            hot_lines,
            seed,
        }
    }

    /// Fact pattern of novel request `j`.
    pub fn novel_pattern(&self, j: u32) -> u32 {
        self.order[HOT_SET + j as usize]
    }

    /// The line of novel request `j`; its text depends only on the seed
    /// and `j`, so it can be rendered lazily while the load runs.
    pub fn novel_line(&self, j: u32) -> String {
        let mut rng = Rng::new(derive_seed(self.seed, u64::from(j)), "novel");
        render_line(self.novel_pattern(j), describe_len(u64::from(j)), &mut rng)
    }
}

/// The `replay` record set: `count` distinct patterns with seeded text.
pub fn replay_lines(seed: u64, count: usize) -> Vec<String> {
    let order = pattern_order(seed, "replay-patterns");
    let mut rng = Rng::new(seed, "replay-text");
    order[..count]
        .iter()
        .enumerate()
        .map(|(k, &p)| render_line(p, describe_len(k as u64), &mut rng))
        .collect()
}

/// Collect specs the planning problems draw on: the `plan_search`
/// pool — the provider-records SCA ladder, device and public
/// collections, a pen/trap stream — each at its own process rung.
const PLAN_SPECS: [(&str, &str); 8] = [
    (
        "subscriber records",
        r#""actor": "leo", "data": "subscriber", "when": "stored", "where": "provider""#,
    ),
    (
        "transaction logs",
        r#""actor": "leo", "data": "records", "when": "stored", "where": "provider""#,
    ),
    (
        "unopened mailbox",
        r#""actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider""#,
    ),
    (
        "device image",
        r#""actor": "leo", "data": "content", "when": "stored", "where": "device""#,
    ),
    (
        "public posts",
        r#""actor": "leo", "data": "content", "when": "stored", "where": "public""#,
    ),
    (
        "pen register stream",
        r#""actor": "leo", "data": "headers", "when": "realtime", "where": "isp""#,
    ),
    (
        "admin flow logs",
        r#""actor": "admin", "data": "headers", "when": "stored", "where": "own-network""#,
    ),
    (
        "opened provider mail",
        r#""actor": "leo", "data": "content", "when": "stored", "where": "provider""#,
    ),
];

/// Showings collected items may raise; `""` yields nothing.
const PLAN_YIELDS: [&str; 6] = [
    "reasonable-suspicion",
    "",
    "articulable-facts",
    "",
    "probable-cause",
    "",
];

/// Items per planning problem.
pub const PLAN_ITEMS: usize = 10;

/// Distinct problems in one `plan` run; solves cycle through them.
pub const PLAN_PROBLEMS: usize = 8;

/// The `plan` problem set. Every problem has the `plan_search` shape
/// at [`PLAN_ITEMS`] items — the same item kinds, rungs and yields, so
/// each needs about the same search — and the seed picks the item
/// order, the names and the `describe` text. Reordering items relabels
/// the state space without changing its size, and `describe` lengths
/// follow a fixed schedule, which keeps solve and parse cost steady
/// from seed to seed.
pub fn plan_problems(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, "plan-problems");
    (0..PLAN_PROBLEMS)
        .map(|p| {
            let mut slots: Vec<usize> = (0..PLAN_ITEMS).collect();
            rng.shuffle(&mut slots);
            let mut out = String::new();
            out.push_str("{\"start\": {\"standard\": \"mere-suspicion\"}}\n");
            out.push_str("{\"routes\": [\"consent\"]}\n");
            out.push_str("{\"costs\": {\"route\": 40}}\n");
            for i in slots {
                let (name, spec) = PLAN_SPECS[i % PLAN_SPECS.len()];
                let kind = if i % 4 == 3 { "lead" } else { "goal" };
                let yields = PLAN_YIELDS[i % PLAN_YIELDS.len()];
                let case = rng.below(100_000);
                let slot = (p * PLAN_ITEMS + i) as u64;
                let mut text_rng = Rng::new(derive_seed(seed, slot), "plan-text");
                let describe = render_describe(describe_len(slot), &mut text_rng);
                let _ = write!(
                    out,
                    r#"{{"{kind}": "{name} case-{case}", "collect": {{{spec}, "describe": "{describe}"}}"#
                );
                if !yields.is_empty() {
                    let _ = write!(out, r#", "yields": "{yields}""#);
                }
                out.push_str("}\n");
            }
            out
        })
        .collect()
}

fn render_describe(len: usize, rng: &mut Rng) -> String {
    let mut text = String::with_capacity(len + 12);
    while text.len() < len {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
    }
    text.truncate(len);
    text
}

/// FNV-1a over bytes: a cheap digest for payload checks and tests.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forensic_law::factkey::FactKey;
    use forensic_law::spec::ActionSpec;
    use std::collections::HashSet;

    fn key(line: &str) -> FactKey {
        let action = ActionSpec::from_json_line(line)
            .and_then(|s| s.to_action())
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        FactKey::of(&action)
    }

    /// Digest of the first `n` lines `serve` would send.
    fn serve_digest(seed: u64, n: usize) -> u64 {
        let inputs = ServeInputs::new(seed);
        let mut stream = ServeStream::new(seed);
        let mut all = Vec::new();
        for _ in 0..n {
            let line = match stream.next_pick().expect("vocabulary not exhausted") {
                Pick::Hot(k) => inputs.hot_lines[k as usize].clone(),
                Pick::Novel(j) => inputs.novel_line(j),
            };
            all.extend_from_slice(line.as_bytes());
            all.push(b'\n');
        }
        fnv(&all)
    }

    fn replay_digest(seed: u64) -> u64 {
        fnv(replay_lines(seed, 2000).join("\n").as_bytes())
    }

    fn plan_digest(seed: u64) -> u64 {
        fnv(plan_problems(seed).concat().as_bytes())
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(serve_digest(7, 5000), serve_digest(7, 5000));
        assert_ne!(serve_digest(7, 5000), serve_digest(8, 5000));
        assert_eq!(replay_digest(7), replay_digest(7));
        assert_ne!(replay_digest(7), replay_digest(8));
        assert_eq!(plan_digest(7), plan_digest(7));
        assert_ne!(plan_digest(7), plan_digest(8));
    }

    #[test]
    fn one_request_in_ten_is_novel() {
        let mut stream = ServeStream::new(3);
        let n = 200_000;
        let novel = (0..n)
            .filter(|_| matches!(stream.next_pick(), Some(Pick::Novel(_))))
            .count();
        let share = novel as f64 / n as f64;
        assert!((share - 0.10).abs() < 0.003, "novel share {share}");
    }

    #[test]
    fn novel_patterns_never_repeat_and_stay_in_the_vocabulary() {
        let inputs = ServeInputs::new(11);
        let hot: HashSet<u32> = inputs.order[..HOT_SET].iter().copied().collect();
        let mut seen = HashSet::new();
        for j in 0..ServeStream::NOVEL_CAPACITY {
            let p = inputs.novel_pattern(j);
            assert!(p < VOCABULARY);
            assert!(!hot.contains(&p), "novel pattern {p} is in the hot set");
            assert!(seen.insert(p), "novel pattern {p} repeats");
        }
        assert_eq!(seen.len() + HOT_SET, VOCABULARY as usize);

        // Distinct patterns are distinct facts: their lines parse to
        // distinct keys (checked on a sample; the vocabulary test below
        // covers every pattern's shape).
        let mut keys: HashSet<FactKey> = inputs.hot_lines.iter().map(|l| key(l)).collect();
        for j in 0..3000 {
            assert!(
                keys.insert(key(&inputs.novel_line(j))),
                "novel {j} repeats a key"
            );
        }

        // Once the vocabulary is used up the stream ends.
        let mut stream = ServeStream::new(11);
        let mut issued = 0u32;
        while let Some(pick) = stream.next_pick() {
            if let Pick::Novel(j) = pick {
                assert_eq!(j, issued);
                issued += 1;
            }
        }
        assert_eq!(issued, ServeStream::NOVEL_CAPACITY);
    }

    #[test]
    fn every_vocabulary_stride_parses_to_a_distinct_key() {
        let mut rng = Rng::new(5, "vocabulary-test");
        let mut keys = HashSet::new();
        // A stride coprime to every radix visits every field value.
        for index in (0..VOCABULARY).step_by(47) {
            let line = render_line(index, describe_len(u64::from(index)), &mut rng);
            assert!(
                (80..=360).contains(&line.len()),
                "{} bytes: {line}",
                line.len()
            );
            assert!(keys.insert(key(&line)), "pattern {index} shares a key");
        }
    }

    #[test]
    fn plan_problems_keep_one_shape() {
        for seed in [1u64, 2] {
            let problems = plan_problems(seed);
            assert_eq!(problems.len(), PLAN_PROBLEMS);
            for text in &problems {
                let parsed = planner::parse_problem(text.as_bytes()).expect("problem parses");
                assert_eq!(parsed.items.len(), PLAN_ITEMS);
            }
        }
    }
}
