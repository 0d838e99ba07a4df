//! The process-wide crash-dump panic hook.
//!
//! [`KemService::spawn`](crate::KemService::spawn) arms the flight
//! recorder and calls [`install_panic_hook`], so any process that runs
//! the service gets the production observability posture for free: the
//! flight recorder is on for the process's whole lifetime, and every
//! panic — contained worker panics included — flushes the panicking
//! thread's flight ring to stderr (and to the `SABER_FLIGHT_DUMP` file
//! when armed) before the normal panic message prints.
//!
//! The hook is installed exactly once per process ([`std::sync::Once`]),
//! chains to the previously installed hook, and increments the
//! `panic.dump` counter exactly once per panic — the regression test in
//! `tests/fault_injection.rs` pins both counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

static HOOK: Once = Once::new();

/// Panics observed by the hook (== flight dumps it emitted).
static PANIC_DUMPS: AtomicU64 = AtomicU64::new(0);

/// Installs the process-wide panic hook (idempotent). On every
/// subsequent panic, on the panicking thread, the hook:
///
/// 1. increments the `panic.dump` counter (the atomic behind
///    [`panic_dump_count`], mirrored as a `saber_trace` counter probe so
///    it lands in the flight ring and any live capture session), then
/// 2. dumps the thread's flight-recorder ring, then
/// 3. chains to the previously installed hook (the normal panic
///    message).
pub fn install_panic_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANIC_DUMPS.fetch_add(1, Ordering::SeqCst);
            saber_trace::counter("service", "panic.dump", 1);
            let _ = saber_trace::flight::dump_current_thread("panic");
            prev(info);
        }));
    });
}

/// Panics the hook has dumped for since process start.
#[must_use]
pub fn panic_dump_count() -> u64 {
    PANIC_DUMPS.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_counts_each_panic_exactly_once_even_when_installed_twice() {
        install_panic_hook();
        install_panic_hook(); // Once-guarded: still one hook.
        let before = panic_dump_count();
        let dumps_before = saber_trace::flight::dump_count();
        let result = std::panic::catch_unwind(|| panic!("obs unit test panic"));
        assert!(result.is_err());
        assert_eq!(panic_dump_count(), before + 1);
        assert_eq!(saber_trace::flight::dump_count(), dumps_before + 1);
    }
}
