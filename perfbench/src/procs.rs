//! The end-to-end leg spread over several processes.
//!
//! A process keeps one speed for its whole life: set-up times inside one
//! process agree within a few percent, while processes started seconds
//! apart differ by up to a third. A run therefore starts `PROCESSES` child
//! processes of this binary one after another, each measuring a share of
//! the window, and pools their calls. Each child prints its raw samples on
//! stdout as `key value…` lines; the parent merges them.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Child processes per end-to-end run.
pub const PROCESSES: usize = 5;

/// Raw end-to-end samples of one process, or pooled over several.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub samples_per_s: Vec<f64>,
    pub bytes_per_sample: Vec<f64>,
    pub heap_mb: Vec<f64>,
    /// Rank 0's final train loss, one per process.
    pub final_loss: Vec<f64>,
    /// FNV-1a of the final parameters, one per process.
    pub checksum: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

fn line(s: &mut String, key: &str, v: &[f64]) {
    let _ = write!(s, "{key}");
    for x in v {
        // `{:?}` round-trips an f64 exactly.
        let _ = write!(s, " {x:?}");
    }
    s.push('\n');
}

impl Samples {
    pub fn encode(&self) -> String {
        let mut s = String::new();
        line(&mut s, "setup_s", &self.setup_s);
        line(&mut s, "samples_per_s", &self.samples_per_s);
        line(&mut s, "bytes_per_sample", &self.bytes_per_sample);
        line(&mut s, "heap_mb", &self.heap_mb);
        line(&mut s, "final_loss", &self.final_loss);
        let sums: Vec<String> = self.checksum.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "checksum {}", sums.join(" "));
        let _ = writeln!(s, "ops {} {}", self.attempted, self.failed);
        s
    }

    pub fn decode(text: &str) -> Result<Samples, String> {
        let mut s = Samples::default();
        let mut ops = false;
        for l in text.lines() {
            let mut words = l.split_whitespace();
            let Some(key) = words.next() else { continue };
            let rest: Vec<&str> = words.collect();
            let floats = || -> Result<Vec<f64>, String> {
                rest.iter()
                    .map(|w| w.parse().map_err(|e| format!("{key}: {w:?}: {e}")))
                    .collect()
            };
            let ints = || -> Result<Vec<u64>, String> {
                rest.iter()
                    .map(|w| w.parse().map_err(|e| format!("{key}: {w:?}: {e}")))
                    .collect()
            };
            match key {
                "setup_s" => s.setup_s = floats()?,
                "samples_per_s" => s.samples_per_s = floats()?,
                "bytes_per_sample" => s.bytes_per_sample = floats()?,
                "heap_mb" => s.heap_mb = floats()?,
                "final_loss" => s.final_loss = floats()?,
                "checksum" => s.checksum = ints()?,
                "ops" => {
                    let [a, f] = ints()?[..] else {
                        return Err(format!("ops line {l:?}"));
                    };
                    (s.attempted, s.failed) = (a, f);
                    ops = true;
                }
                _ => return Err(format!("unexpected line {l:?}")),
            }
        }
        if ops {
            Ok(s)
        } else {
            Err("no ops line".into())
        }
    }

    pub fn merge(&mut self, o: Samples) {
        self.setup_s.extend(o.setup_s);
        self.samples_per_s.extend(o.samples_per_s);
        self.bytes_per_sample.extend(o.bytes_per_sample);
        self.heap_mb.extend(o.heap_mb);
        self.final_loss.extend(o.final_loss);
        self.checksum.extend(o.checksum);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Run the end-to-end leg in `PROCESSES` children, one after another,
/// each for `seconds / PROCESSES`, and pool what they measured. Every
/// child has ended when this returns. Stops at the first child that fails;
/// its reason is in the returned failures (and its checks on stderr).
pub fn run_children(workload: &str, seed: u64, seconds: f64) -> (Samples, Vec<String>) {
    let mut all = Samples::default();
    let mut failures = Vec::new();
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return (all, vec![format!("cannot locate own binary: {e}")]),
    };
    let share = (seconds / PROCESSES as f64).to_string();
    for i in 0..PROCESSES {
        let seed = seed.to_string();
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed, "--seconds", &share])
            .args(["--trace", "0", "--child"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("process {i}: cannot start: {e}"));
                break;
            }
        };
        match Samples::decode(&String::from_utf8_lossy(&out.stdout)) {
            Ok(s) => all.merge(s),
            Err(e) => failures.push(format!("process {i}: unreadable output: {e}")),
        }
        if !out.status.success() {
            failures.push(format!("process {i}: {}", out.status));
        }
        if !failures.is_empty() {
            break;
        }
    }
    (all, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_exactly() {
        let s = Samples {
            setup_s: vec![0.1, 1.0 / 3.0],
            samples_per_s: vec![28.123_456_789_012_3],
            bytes_per_sample: vec![],
            heap_mb: vec![140.475_454_330_444_34],
            final_loss: vec![5.278_133_869_171_143],
            checksum: vec![u64::MAX, 0x0207_0093_1003_4160],
            attempted: 192,
            failed: 3,
        };
        let mut d = Samples::decode(&s.encode()).unwrap();
        assert_eq!(d.setup_s, s.setup_s);
        assert_eq!(d.samples_per_s, s.samples_per_s);
        assert!(d.bytes_per_sample.is_empty());
        assert_eq!(d.heap_mb, s.heap_mb);
        assert_eq!(d.final_loss, s.final_loss);
        assert_eq!(d.checksum, s.checksum);
        assert_eq!((d.attempted, d.failed), (192, 3));
        d.merge(Samples::decode(&s.encode()).unwrap());
        assert_eq!(d.checksum.len(), 4);
        assert_eq!(d.attempted, 384);
    }

    #[test]
    fn output_without_ops_line_is_rejected() {
        assert!(Samples::decode("samples_per_s 1.0\n").is_err());
        assert!(Samples::decode("ops 1\n").is_err());
        assert!(Samples::decode("bogus 1\nops 1 0\n").is_err());
    }
}
