//! Table formatting for the paper-vs-measured reports.

use std::fmt::Write;

/// A plain-text experiment report: header, paper claim, measured rows.
#[derive(Debug, Default)]
pub struct Report {
    buf: String,
}

impl Report {
    /// Starts a report for one experiment.
    pub fn new(id: &str, title: &str) -> Self {
        let mut r = Report::default();
        let line = "=".repeat(74);
        let _ = writeln!(r.buf, "{line}\n{id}: {title}\n{line}");
        r
    }

    /// Adds the paper's claimed numbers (verbatim from the text).
    pub fn paper(&mut self, claim: &str) -> &mut Self {
        let _ = writeln!(self.buf, "paper    | {claim}");
        self
    }

    /// Adds a measured line.
    pub fn measured(&mut self, line: &str) -> &mut Self {
        let _ = writeln!(self.buf, "measured | {line}");
        self
    }

    /// Adds a note / interpretation line.
    pub fn note(&mut self, line: &str) -> &mut Self {
        let _ = writeln!(self.buf, "note     | {line}");
        self
    }

    /// Adds a blank-prefixed table row.
    pub fn row(&mut self, line: &str) -> &mut Self {
        let _ = writeln!(self.buf, "         | {line}");
        self
    }

    /// Finishes and returns the text.
    pub fn finish(mut self) -> String {
        self.buf.push('\n');
        self.buf
    }
}

/// Formats seconds adaptively (s / ms / µs).
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} µs", seconds * 1e6)
    }
}

/// Formats a fraction as a percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1} %", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_layout() {
        let mut r = Report::new("E0", "smoke");
        r.paper("claimed X");
        r.measured("got Y");
        r.note("shape holds");
        let s = r.finish();
        assert!(s.contains("E0: smoke"));
        assert!(s.contains("paper    | claimed X"));
        assert!(s.contains("measured | got Y"));
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0025), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.5 µs");
        assert_eq!(pct(0.967), "96.7 %");
    }
}
