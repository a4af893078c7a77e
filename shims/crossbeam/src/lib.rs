//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! One slice of the real crate is provided: `crossbeam::thread::scope` —
//! scoped threads with the crossbeam signature (the spawn closure receives
//! the scope, so spawned threads can spawn siblings, and `scope` returns
//! `thread::Result` instead of propagating child panics). It is the one
//! door every thread in the workspace goes through: the `rayon` shim's
//! worker pools and Kripke's scoped sweeps are built on it.

// The blessed thread layer: the workspace bans raw `std::thread` and `mpsc`
// (clippy.toml), and this crate and `rayon` are where threads start.
#![allow(clippy::disallowed_methods, reason = "the shim is the workspace's thread layer")]

/// Scoped threads in the crossbeam style, layered over `std::thread::scope`.
pub mod thread {
    /// Handle to a scope in which threads can be spawned; passed both to the
    /// `scope` closure and to every spawned thread's closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    // A plain copyable wrapper so spawned closures can receive the scope.
    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    /// Handle to a scoped thread, joinable before the scope ends.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread scoped to the enclosing `scope` call. As with
        /// crossbeam, the closure receives the scope so it can spawn more
        /// threads itself.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = *self;
            ScopedJoinHandle(self.inner.spawn(move || f(&scope)))
        }
    }

    /// Run `f` with a scope handle; all threads spawned in the scope are
    /// joined before `scope` returns. A panic in any unjoined child (or in
    /// `f` itself) surfaces as `Err` carrying the panic payload, mirroring
    /// crossbeam's contract rather than `std`'s re-panic.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_borrow_and_nest() {
        let data = [1u32, 2, 3];
        let total = super::thread::scope(|s| {
            let h1 = s.spawn(|s2| {
                // Nested spawn from inside a scoped thread, as crossbeam allows.
                let h = s2.spawn(|_| data.iter().sum::<u32>());
                h.join().unwrap()
            });
            let h2 = s.spawn(|_| data.len() as u32);
            h1.join().unwrap() + h2.join().unwrap()
        })
        .unwrap();
        assert_eq!(total, 6 + 3);
    }

    #[test]
    fn scope_reports_child_panic_as_err() {
        let r = super::thread::scope(|s| {
            s.spawn(|_| panic!("child panic"));
        });
        assert!(r.is_err());
    }
}
