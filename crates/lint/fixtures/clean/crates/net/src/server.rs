//! Fixture: response stamps written once, every slot distinct and
//! non-zero (KVS-L011 pass).

pub fn reply(first: u64, dequeued: u64, db_end: u64, payload: Vec<u8>) -> Frame {
    Frame {
        kind: FrameKind::Response,
        id: 9,
        stamps: [first, dequeued, db_end, wall_ns()],
        payload,
    }
}

pub fn refuse(kind: FrameKind, first: u64) -> Frame {
    Frame {
        kind,
        id: 9,
        stamps: [first, wall_ns(), 0, 0],
        payload: Vec::new(),
    }
}

/// A write frame follows the request convention: the master owns the
/// first three slots, the fourth belongs to the slave (KVS-L011 pass).
pub fn send_write(issued: u64, sent: u64, seq: u64, payload: Vec<u8>) -> Frame {
    Frame {
        kind: FrameKind::Write,
        id: 11,
        stamps: [issued, sent, seq, 0],
        payload,
    }
}

/// A write-ack carries all four stage boundaries, distinct and non-zero,
/// exactly like a response (KVS-L011 pass).
pub fn ack_write(first: u64, dequeued: u64, db_end: u64, payload: Vec<u8>) -> Frame {
    Frame {
        kind: FrameKind::WriteAck,
        id: 11,
        stamps: [first, dequeued, db_end, wall_ns()],
        payload,
    }
}
