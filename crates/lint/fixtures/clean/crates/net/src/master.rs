//! Fixture master: send-seq and Busy comment contracts hold (KVS-L008
//! pass).

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

    pub fn on_frame(&mut self, kind: super::frame::FrameKind) {
        match kind {
            super::frame::FrameKind::Request => {}
            super::frame::FrameKind::Response => {}
            super::frame::FrameKind::Busy => {
                self.on_busy();
            }
            super::frame::FrameKind::Expired => {}
            super::frame::FrameKind::Write => {}
            super::frame::FrameKind::WriteAck => {}
            super::frame::FrameKind::Rmw => {}
        }
    }

    fn on_busy(&mut self) {
        // Busy re-arms the wall-clock allowance; flow control is never a
        // failure (tests/busy_budget.rs pins the boundary).
    }
}
