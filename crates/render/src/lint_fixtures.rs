//! Positive cases of the workspace's lint configuration, compiled only by
//! the clippy step (`cfg(clippy)`). Each case carries an `#[expect]`, so
//! the step fails with `unfulfilled_lint_expectations` as soon as a
//! `clippy.toml` entry stops catching it. An `#[expect]` turns an
//! off-by-default lint on where it stands, so for X000, X002 and X006 these
//! cases pin only that clippy still recognises the shape; the configuration
//! that turns those lints on is checked by `tests/lint_policy.rs`.
//! DESIGN.md ("Determinism invariants") maps each case to its invariant.

#![allow(dead_code, reason = "fixtures are linted, never called")]

use std::time::Instant as Tick;

// A waiver must say why (X000).
#[expect(clippy::allow_attributes_without_reason, reason = "fixture")]
mod reasonless {
    #[allow(unused)]
    fn waived() {}
}

// Raw threads and channels go through the shims (X001).
#[expect(clippy::disallowed_methods, reason = "fixture")]
fn thread_spawn() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn thread_builder_spawn() -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().spawn(|| {})
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn thread_scope() {
    std::thread::scope(|_| {});
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn channel() -> (std::sync::mpsc::Sender<u32>, std::sync::mpsc::Receiver<u32>) {
    std::sync::mpsc::channel()
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn sync_channel() -> (std::sync::mpsc::SyncSender<u32>, std::sync::mpsc::Receiver<u32>) {
    std::sync::mpsc::sync_channel(1)
}

// Every unsafe block states why it is sound (X002).
#[expect(clippy::undocumented_unsafe_blocks, reason = "fixture")]
fn unsafe_block(p: *mut f32) {
    unsafe { *p = 1.0 }
}

// Hashed containers never reach pinned bytes (X005).
#[expect(clippy::disallowed_types, reason = "fixture")]
fn hash_map() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

#[expect(clippy::disallowed_types, reason = "fixture")]
fn hash_set() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

// Library code of a modeled crate does not panic (X006).
#[expect(clippy::unwrap_used, reason = "fixture")]
fn unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::expect_used, reason = "fixture")]
fn expect(v: Option<u32>) -> u32 {
    v.expect("fixture")
}

#[expect(clippy::panic, reason = "fixture")]
fn panic() {
    panic!("fixture")
}

// Only a timing module reads the wall clock (X007), through any alias and
// as a function pointer too.
#[expect(clippy::disallowed_methods, reason = "fixture")]
fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn system_time_now() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn aliased_now() -> Tick {
    Tick::now()
}

#[expect(clippy::disallowed_methods, reason = "fixture")]
fn now_as_fn_pointer() -> fn() -> Tick {
    Tick::now
}
