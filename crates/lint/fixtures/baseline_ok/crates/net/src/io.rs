//! Fixture: an un-waived unbounded channel, frozen in the baseline.

pub fn fan_in() -> u64 {
    let (event_tx, event_rx) = crossbeam::channel::unbounded::<u64>();
    event_tx.send(7).ok();
    event_rx.recv().unwrap_or(0)
}
