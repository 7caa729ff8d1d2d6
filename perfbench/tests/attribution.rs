//! Thread attribution diffs the process's thread list around each start
//! call, so this test lives alone in its own test binary: no other test
//! may start threads while it runs.

use perfbench::probe;
use perfbench::serve::Stack;
use perfbench::trace::{SpanLog, ROOT};
use std::path::Path;

#[test]
fn attribution_finds_one_loop_thread_one_worker_one_journal_writer() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("attribution-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stack = Stack::start(&dir, &mut SpanLog::with_capacity(0), ROOT);

    assert_eq!(
        stack.loop_tids.len(),
        1,
        "loop threads {:?}",
        stack.loop_tids
    );
    assert_eq!(
        stack.worker_tids.len(),
        1,
        "workers {:?}",
        stack.worker_tids
    );
    assert_eq!(
        stack.writer_tids.len(),
        1,
        "writers {:?}",
        stack.writer_tids
    );
    assert_eq!(probe::thread_name(stack.writer_tids[0]), "journal-writer");
    let mut all = [
        stack.loop_tids[0],
        stack.worker_tids[0],
        stack.writer_tids[0],
    ];
    all.sort_unstable();
    assert!(all.windows(2).all(|w| w[0] != w[1]), "one thread per layer");
    assert!(stack.attributed());

    assert_eq!(stack.stop(), (0, 0), "nothing was sent");
    std::fs::remove_dir_all(&dir).expect("scratch journal is removable");
}
