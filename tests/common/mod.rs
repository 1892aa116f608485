//! Helpers the root test files share; each declares `mod common;`.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The worker count is one process-wide setting, and libtest runs a
/// binary's tests concurrently: without this lock one test's "4 threads"
/// leg could run at another test's width.
static WIDTH: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-wide worker count, held for a test's
/// whole body. A test that failed while holding it does not fail the
/// tests that take it next.
pub struct Width {
    _held: MutexGuard<'static, ()>,
}

/// Wait for, then hold, the worker count.
pub fn width() -> Width {
    Width {
        _held: WIDTH.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl Width {
    /// Reconfigure the global worker count. The thread-pool shim accepts
    /// repeated configuration (unlike real rayon), which is what lets one
    /// process compare runs at several widths.
    pub fn set(&self, n: usize) {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("thread-pool shim accepts reconfiguration");
    }
}
