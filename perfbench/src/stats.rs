//! Order statistics over raw samples, digests, process memory and the
//! small JSON writer the result lines use.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `q` (in percent) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    s[rank(q, s.len()) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The percentile ladder a tail is read from, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Highest ladder percentile that leaves at least ten of `n` samples
/// beyond it. `None` when `n` is too small for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| n >= 1 && n - rank(q, n) >= 10)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Minimal JSON object writer: keys in insertion order, strings escaped.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_str(&mut self.body, k);
        self.body.push(':');
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds an integer.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.body, v);
        self
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.body.push_str(v);
        self
    }

    /// Adds a list of strings.
    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_str(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    /// The rendered object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(800), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn json_escapes() {
        let s = Json::default().str("a\"b", "x\ny").num("n", 1.5).finish();
        assert_eq!(s, "{\"a\\\"b\":\"x\\ny\",\"n\":1.5}");
    }
}
