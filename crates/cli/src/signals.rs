//! SIGTERM/SIGINT → atomic shutdown flag, with no external crates.
//!
//! The serving library deliberately knows nothing about signals: it
//! takes a `&AtomicBool` and stops when it flips (`kron_serve::Server`
//! forbids unsafe code, and tests flip the flag from a thread). This
//! module is the thin OS-facing shim the binary installs around it: a
//! direct `signal(2)` binding against the libc that std already links,
//! storing into a static flag — the only async-signal-safe thing a
//! handler can do here.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide shutdown flag the handlers set.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    // a relaxed store would also be fine; SeqCst keeps the pairing
    // with the server's load obvious
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    // `signal(2)` from the libc std already links. `sighandler_t` is
    // a plain function pointer; the return value (the previous
    // handler) is deliberately ignored.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Install the SIGTERM/SIGINT handlers (idempotent) and return the flag
/// they set.
pub fn install_shutdown_flag() -> &'static AtomicBool {
    // SAFETY: both signal numbers are valid, and the handler only stores
    // to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    &SHUTDOWN
}
