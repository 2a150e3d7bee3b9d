//! `osql-chk`: the workspace's concurrency correctness toolkit.
//!
//! Three tools in one zero-dependency crate:
//!
//! 1. **Shim sync primitives** ([`Mutex`], [`Condvar`], [`RwLock`],
//!    [`atomic`], [`thread::spawn`], [`oneshot`]) that compile to plain
//!    `std::sync` in normal builds, but under `--cfg osql_model` route
//!    every acquire/release/wait/notify/load/store through a
//!    deterministic scheduler so the [`model`] explorer can enumerate
//!    thread interleavings and replay failing ones.
//! 2. **Lock-order analysis** ([`lockorder`]): debug/test builds record
//!    the cross-thread lock acquisition-edge graph and panic with both
//!    offending stacks the moment a cycle (potential deadlock) appears.
//! 3. **The workspace lint gate** ([`lint`], run by the root
//!    `tests/structure.rs` and the `workspace-lint` binary) enforcing the
//!    repo's concurrency hygiene policies — no raw `std::sync` primitives
//!    in checked crates, no ad-hoc poison handling, no unannotated
//!    wall-clock reads in logical-trace code — and the structural rules
//!    of [`lint::RULES`].
//!
//! Model checking quickstart:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-chk --test model
//! ```

pub mod atomic;
pub mod lint;
pub mod lockorder;
#[cfg(osql_model)]
pub mod model;
pub mod oneshot;
#[cfg(osql_model)]
mod sched;
pub mod sync;
pub mod thread;

pub use sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitOutcome,
};

/// The workspace's single poison-policy decision point for code still on
/// raw `std::sync::Mutex` (non-checked crates, scoped-thread helpers).
///
/// **Policy:** a poisoned mutex means some thread panicked while holding
/// the guard. Every shared structure in this workspace is either
/// (a) repaired on next use (caches, registries re-derive entries), or
/// (b) torn down wholesale when a worker dies (the runtime replaces the
/// response channel, the server fails the request). In both cases the
/// data under the lock is still the best available state, and refusing to
/// proceed would turn one failed request into a poisoned-forever process.
/// So: recover the guard, never propagate the poison. The `chk` shim
/// types bake this same policy into `lock()`/`read()`/`write()`; this
/// helper is the sanctioned spelling for the remaining std-mutex sites,
/// and `workspace-lint` bans hand-rolled `lock().unwrap()` /
/// `lock().unwrap_or_else(..)` everywhere else.
pub fn lock_or_recover<T: ?Sized>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_recover_recovers_poison() {
        let m = std::sync::Arc::new(std::sync::Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_or_recover(&m), 7);
    }

    #[test]
    fn shim_mutex_and_condvar_roundtrip() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut flag = m.lock();
        while !*flag {
            flag = cv.wait(flag);
        }
        drop(flag);
        t.join().unwrap();
    }

    #[test]
    fn shim_rwlock_readers_and_writer() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn oneshot_delivers_and_reports_lost_sender() {
        let (tx, rx) = oneshot::channel();
        tx.send(42);
        assert_eq!(rx.recv(), Ok(42));

        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(oneshot::RecvError));
    }

    #[test]
    fn shim_atomics_basic_ops() {
        use atomic::{AtomicBool, AtomicU64, Ordering};
        let a = AtomicU64::new(0);
        a.fetch_add(3, Ordering::SeqCst);
        a.fetch_max(2, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        let b = AtomicBool::new(false);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
    }
}
