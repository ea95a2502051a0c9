//! Crate-internal helpers for error paths that have no recovery: the
//! crate denies `clippy::let_underscore_must_use` outside tests, and
//! these are the sanctioned replacements — disconnects stay quiet
//! (peers are allowed to vanish mid-run; chaos tests make them), every
//! other failure is logged so a real fault never disappears.

use std::io;
use std::thread::JoinHandle;

/// Error kinds that mean "the peer went away" — routine during shutdown,
/// failover and chaos runs, not worth a log line.
fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
    )
}

/// Handles an [`io::Result`] whose failure has no recovery path.
pub(crate) fn best_effort(context: &str, res: io::Result<()>) {
    if let Err(e) = res {
        if !is_disconnect(e.kind()) {
            eprintln!("kvs-net: {context}: {e}");
        }
    }
}

/// Joins a thread, logging (instead of swallowing) a panicked peer.
pub(crate) fn join_logged(context: &str, handle: JoinHandle<()>) {
    if handle.join().is_err() {
        eprintln!("kvs-net: {context}: thread panicked");
    }
}
