//! The traced run's span recorder. Spans are recorded from the
//! benchmark's own code around each call into a layer, kept in memory,
//! and written out once the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in microseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Collects spans when tracing is on; every call is a no-op when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Microseconds from the run's origin to `t`.
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span that ran from `start` until now; returns its id
    /// (`0` when tracing is off).
    pub fn close(&mut self, parent: u64, name: &'static str, start: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let (start_us, end_us) = (self.offset_us(start), self.offset_us(Instant::now()));
        self.push(parent, name, start_us, end_us)
    }

    /// Opens a span now so children can name it as parent; its end is
    /// set by [`Tracer::finish`].
    pub fn open(&mut self, parent: u64, name: &'static str) -> u64 {
        let now = self.offset_us(Instant::now());
        self.push(parent, name, now, now)
    }

    pub fn finish(&mut self, id: u64) {
        let now = self.offset_us(Instant::now());
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_us = now;
        }
    }

    /// Records a span with explicit bounds; returns its id.
    pub fn push(&mut self, parent: u64, name: &'static str, start_us: f64, end_us: f64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated `id parent name start_us end_us`
    /// lines after a `#`-prefixed header line.
    pub fn write_tsv(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tparent\tname\tstart_us\tend_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_links_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.close(0, "x", Instant::now()), 0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.close(0, "query", Instant::now());
        let child = on.push(root, "request", 1.0, 2.0);
        assert_eq!((root, child), (1, 2));
        assert_eq!(on.spans()[1].parent, root);
        assert!(on.spans()[0].end_us >= on.spans()[0].start_us);

        let phase = on.open(0, "measure");
        std::thread::sleep(std::time::Duration::from_millis(2));
        on.finish(phase);
        let s = &on.spans()[phase as usize - 1];
        assert_eq!(s.name, "measure");
        assert!(s.end_us - s.start_us >= 2000.0);
    }
}
