//! Fixture: lock hygiene and channel topology done right (KVS-L007/L010
//! pass).

use parking_lot::Mutex;

pub fn toggle(flag: &Mutex<bool>) {
    let mut guard = flag.lock();
    *guard = !*guard;
}

pub fn parse(s: &str) -> Option<u32> {
    s.parse().ok()
}
