//! Trace recording and replay.
//!
//! The paper runs its SPEC workloads trace-driven so that "the different
//! snooping algorithms \[see\] exactly the same traces". Synthetic streams
//! are already timing-independent, but a recorded [`Trace`] additionally
//! lets experiments snapshot a stream to disk (a simple line-oriented text
//! format) and replay it later, e.g. to bisect a divergence between two
//! algorithm implementations.

use std::str::FromStr;

use flexsnoop_engine::Cycles;
use flexsnoop_mem::LineAddr;

use crate::gen::AccessStream;
use crate::MemAccess;

/// A finite recorded access trace for a set of cores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    per_core: Vec<Vec<MemAccess>>,
}

impl Trace {
    /// The most cores a parsed trace may name (core ids `0..MAX_CORES`):
    /// 2^20, the largest ring any workload runs at one core per CMP. The
    /// parser sizes its per-core table from the largest id it reads, so
    /// the bound keeps one bad line from asking for terabytes.
    pub const MAX_CORES: usize = 1 << 20;

    /// Creates an empty trace for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            per_core: vec![Vec::new(); cores],
        }
    }

    /// Records `n` accesses per core from the given streams.
    pub fn record<S: AccessStream>(streams: &mut [S], n: u64) -> Self {
        let per_core = streams
            .iter_mut()
            .map(|s| (0..n).map_while(|_| s.next_access()).collect::<Vec<_>>())
            .collect();
        Self { per_core }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// The longest core's access count: the per-core limit that replays
    /// every recorded access.
    pub fn accesses_per_core(&self) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Appends one access to a core's stream.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn push(&mut self, core: usize, access: MemAccess) {
        self.per_core[core].push(access);
    }

    /// The recorded accesses of one core.
    pub fn core(&self, core: usize) -> &[MemAccess] {
        &self.per_core[core]
    }

    /// Serializes to the text format: one `core r|w line think` per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (core, accesses) in self.per_core.iter().enumerate() {
            for a in accesses {
                let rw = if a.write { 'w' } else { 'r' };
                out.push_str(&format!(
                    "{core} {rw} {:#x} {}\n",
                    a.line.0,
                    a.think.as_u64()
                ));
            }
        }
        out
    }
}

impl FromStr for Trace {
    type Err = String;

    /// Parses the [`Trace::to_text`] format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line, including one
    /// whose core id is not below [`Trace::MAX_CORES`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut per_core: Vec<Vec<MemAccess>> = Vec::new();
        for (no, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |what: &str| format!("line {}: {what}: {raw:?}", no + 1);
            let core: usize = parts
                .next()
                .ok_or_else(|| err("missing core"))?
                .parse()
                .map_err(|_| err("bad core"))?;
            if core >= Trace::MAX_CORES {
                return Err(err("core id not below 2^20"));
            }
            let write = match parts.next().ok_or_else(|| err("missing r/w"))? {
                "r" => false,
                "w" => true,
                _ => return Err(err("bad r/w flag")),
            };
            let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
            let addr = u64::from_str_radix(addr_str.trim_start_matches("0x"), 16)
                .map_err(|_| err("bad address"))?;
            let think: u64 = parts
                .next()
                .ok_or_else(|| err("missing think time"))?
                .parse()
                .map_err(|_| err("bad think time"))?;
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            if per_core.len() <= core {
                per_core.resize(core + 1, Vec::new());
            }
            per_core[core].push(MemAccess {
                line: LineAddr(addr),
                write,
                think: Cycles(think),
            });
        }
        Ok(Trace { per_core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn text_roundtrip() {
        let profile = profiles::specjbb();
        let mut streams = profile.streams(7);
        let trace = Trace::record(&mut streams, 50);
        let text = trace.to_text();
        let parsed: Trace = text.parse().expect("parse own output");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let text = "# header\n\n0 r 0x10 5\n0 w 0x11 6\n";
        let t: Trace = text.parse().unwrap();
        assert_eq!(t.core(0).len(), 2);
        assert!(t.core(0)[1].write);
        assert_eq!(t.core(0)[0].line, LineAddr(0x10));
    }

    #[test]
    fn parser_reports_bad_lines() {
        assert!("x r 0x10 5".parse::<Trace>().is_err());
        assert!("0 q 0x10 5".parse::<Trace>().is_err());
        assert!("0 r zz 5".parse::<Trace>().is_err());
        assert!("0 r 0x10".parse::<Trace>().is_err());
        assert!("0 r 0x10 5 extra".parse::<Trace>().is_err());
    }

    #[test]
    fn parser_bounds_core_ids() {
        let last = format!("{} r 0x1 0", Trace::MAX_CORES - 1);
        assert_eq!(last.parse::<Trace>().unwrap().cores(), Trace::MAX_CORES);
        let text = "0 r 0x1 0\n1099511627776 r 0x1 0\n";
        assert_eq!(
            text.parse::<Trace>().unwrap_err(),
            "line 2: core id not below 2^20: \"1099511627776 r 0x1 0\""
        );
        let first_past = format!("{} r 0x1 0", Trace::MAX_CORES);
        assert!(first_past.parse::<Trace>().is_err());
    }

    #[test]
    fn push_appends() {
        let mut t = Trace::new(2);
        t.push(1, MemAccess::read(LineAddr(9), Cycles(1)));
        assert_eq!(t.core(1).len(), 1);
        assert_eq!(t.core(0).len(), 0);
    }
}
