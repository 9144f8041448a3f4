//! In-memory spans: name, start, end, parent and request id, written out
//! once the run ends. Spans are recorded by the benchmark around calls into
//! the program's public functions, never inside the program.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one thread; ids are `index + 1` into `spans`.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an already-timed span; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Append another recorder's spans (same epoch), remapping their ids.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one span run one after another on its thread, so
    /// the covered time is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize - 1] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Write every span as one tab-separated line with its self time.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let mut s = Spans::new(Instant::now());
        let top = s.push("top", 0, 100, ROOT, 1);
        let a = s.push("a", 10, 40, top, 1);
        s.push("a.child", 15, 25, a, 1);
        s.push("b", 50, 70, top, 1);
        assert_eq!(s.self_ns(), vec![50, 20, 10, 20]);

        let mut other = Spans::new(Instant::now());
        let p = other.push("p", 0, 10, ROOT, 2);
        other.push("c", 1, 4, p, 2);
        s.absorb(other);
        assert_eq!(s.spans[5].parent, 5);
        assert_eq!(s.self_ns()[4], 7);
    }
}
