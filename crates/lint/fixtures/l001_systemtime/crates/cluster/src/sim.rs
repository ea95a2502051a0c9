//! Fixture: ambient wall clock inside the deterministic simulator.

pub fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// The live clock portal reads host time too: a zone takes sim time as a
/// parameter instead.
pub fn tick(model: &mut Model) {
    model.advance(kvs_net::clock::wall_ns());
}
