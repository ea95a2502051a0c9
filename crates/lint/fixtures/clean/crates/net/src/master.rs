//! Fixture master: the send-seq comment contract holds (KVS-L008 pass).

pub struct Master {
    /// Monotone per-master send sequence; stamped into `stamps[2]` and
    /// audited per connection by the chaos proxy.
    send_seq: u64,
}

impl Master {
    pub fn new() -> Master {
        Master { send_seq: 0 }
    }

    pub fn next_seq(&mut self) -> u64 {
        let seq = self.send_seq;
        self.send_seq += 1;
        seq
    }
}
