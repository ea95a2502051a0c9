//! Fixture: the read coordinator stops recording the in-queue stage
//! (KVS-L011).

pub enum Reply {
    Response,
    Busy,
}

pub struct Coordinator {
    recorder: Recorder,
}

impl Coordinator {
    pub fn reply(&mut self, id: u64, reply: Reply) {
        match reply {
            Reply::Response => self.record(id),
            Reply::Busy => {
                // Busy re-arms the allowance; flow control is never a
                // failure (tests/busy_budget.rs pins the boundary).
                self.back_off(id);
            }
        }
    }

    fn record(&mut self, id: u64) {
        self.recorder.record(id, Stage::MasterToSlave);
        self.recorder.record(id, Stage::InDb);
        self.recorder.record(id, Stage::SlaveToMaster);
    }

    fn back_off(&mut self, _id: u64) {}
}
