//! Fixture: a finding covered by BOTH a waiver and a baseline entry.
//! The waiver outranks the ratchet, but the entry must not read stale.

pub fn fan_in() -> u64 {
    let (event_tx, event_rx) = crossbeam::channel::unbounded::<u64>();
    event_tx.send(7).ok();
    event_rx.recv().unwrap_or(0)
}
