//! Dropping a [`rayon::ThreadPool`] must always return: `Drop` sets the
//! shutdown flag and wakes the workers, and a worker that has just checked
//! the flag but not yet started waiting must not miss that wake-up.

use std::sync::mpsc;
use std::time::Duration;

/// The window is a few instructions wide, so only many build/drop cycles hit
/// it. The dev profile spawns threads slowly enough that 10⁵ would take
/// minutes.
const CYCLES: usize = if cfg!(debug_assertions) { 20_000 } else { 100_000 };

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a watchdog on a raw thread: a hung pool can not watch itself"
)]
fn dropping_a_pool_never_loses_the_shutdown_wakeup() {
    let (done, watchdog) = mpsc::channel();
    // Detached on purpose: a hung `drop` can not be joined, only reported.
    std::thread::spawn(move || {
        for cycle in 0..CYCLES {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
            drop(pool);
            if done.send(cycle).is_err() {
                return;
            }
        }
    });
    let mut last = None;
    while last != Some(CYCLES - 1) {
        match watchdog.recv_timeout(Duration::from_secs(20)) {
            Ok(cycle) => last = Some(cycle),
            Err(e) => panic!("ThreadPool::drop hung after cycle {last:?} of {CYCLES}: {e}"),
        }
    }
}
