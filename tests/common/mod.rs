//! Helpers the root test files share; each declares `mod common;`.

/// Reconfigure the global worker count. The thread-pool shim accepts
/// repeated configuration (unlike real rayon), which is what lets one
/// process compare runs at several widths.
pub fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("thread-pool shim accepts reconfiguration");
}
