//! Synthesizes the week-scale multi-file gzip'd Azure-style trace the
//! headline replay drives: one `.csv.gz` member per simulated day, each
//! in the four-column `app,func,minute,count` grammar the streaming
//! ingester scans. Shared by the `fleet_replay` binary (which
//! writes the day files to disk and replays them crash-resumably) and
//! the `week_replay` bench group (which keeps the compressed parts in
//! memory).
//!
//! Everything is a pure function of the [`WeekTraceSpec`], so a killed
//! binary run, its resumed continuation, and the bench all replay the
//! identical trace.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Shape of a synthesized multi-day trace.
#[derive(Debug, Clone, Copy)]
pub struct WeekTraceSpec {
    /// Days simulated — one gzip'd CSV file each.
    pub days: u32,
    /// Distinct `app,func` streams.
    pub functions: u32,
    /// Minutes between consecutive rows of one function (staggered by
    /// function index so every minute carries ~`functions/row_every`
    /// rows).
    pub row_every: u32,
    /// Seed folded into every row count.
    pub seed: u64,
}

impl WeekTraceSpec {
    /// The headline scale: a 14-day, 10 000-function fleet, ~13 M
    /// arrival events.
    pub fn headline() -> Self {
        Self {
            days: 14,
            functions: 10_000,
            row_every: 60,
            seed: 42,
        }
    }

    /// The downscaled shape quick-bench and the CI smoke replay: two
    /// day files, still multi-file and gzip'd, ~1 M events.
    pub fn downscaled() -> Self {
        Self {
            days: 2,
            functions: 2_000,
            row_every: 20,
            seed: 42,
        }
    }

    /// A short human tag (`14d_10000fn`) naming bench rows and file
    /// sets.
    pub fn tag(&self) -> String {
        format!("{}d_{}fn", self.days, self.functions)
    }

    /// Arrival count for one function-minute: a diurnal sinusoid (peak
    /// mid-day) plus seeded splitmix jitter, always ≥ 1 so every row
    /// emits events.
    fn row_count(&self, function: u32, minute: u64) -> u32 {
        let phase = (minute % 1440) as f64 / 1440.0;
        let diurnal = 1.0 + 0.8 * (std::f64::consts::TAU * phase).sin();
        let mut x = (function as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(minute)
            .wrapping_add(self.seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        (2.0 * diurnal) as u32 + (x % 4) as u32
    }

    /// The plain CSV text of one day (day 0 carries the header, like a
    /// real multi-file export where only the first shard keeps it —
    /// though the ingester accepts a header on any file).
    pub fn day_csv(&self, day: u32) -> String {
        let mut out = String::new();
        if day == 0 {
            out.push_str("app,func,minute,count\n");
        }
        let base = day as u64 * 1440;
        for m in 0..1440u64 {
            let minute = base + m;
            for f in (0..self.functions)
                .filter(|f| (minute + *f as u64).is_multiple_of(self.row_every as u64))
            {
                let app = f / 100;
                writeln!(out, "a{app},f{f},{minute},{}", self.row_count(f, minute)).unwrap();
            }
        }
        out
    }

    /// One day, gzip'd (stored blocks: the scan's decompression
    /// benchmark measures the inflate path, not a compressor).
    pub fn day_gz(&self, day: u32) -> Vec<u8> {
        flate::gzip_compress(self.day_csv(day).as_bytes(), flate::CompressMode::Stored)
    }

    /// All day parts, compressed, generated in parallel.
    pub fn gz_parts(&self, threads: usize) -> Vec<Vec<u8>> {
        freedom_parallel::par_run(self.days as usize, threads, |d| self.day_gz(d as u32))
    }

    /// Writes `day01.csv.gz` … into `dir` (created if missing) and
    /// returns the paths in day order. Existing files are overwritten:
    /// the content is a pure function of the spec, and a stale file
    /// from a different spec must not survive.
    pub fn write_day_files(&self, dir: &Path, threads: usize) -> std::io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let parts = self.gz_parts(threads);
        let mut paths = Vec::with_capacity(parts.len());
        for (d, gz) in parts.iter().enumerate() {
            let path = dir.join(format!("day{:02}.csv.gz", d + 1));
            fs::write(&path, gz)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freedom::fleet::StreamTrace;

    #[test]
    fn downscaled_week_trace_ingests_and_counts() {
        let spec = WeekTraceSpec {
            days: 2,
            functions: 40,
            row_every: 30,
            seed: 7,
        };
        let parts = spec.gz_parts(2);
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let trace = StreamTrace::from_csv_parts(&refs).unwrap();
        assert_eq!(trace.n_functions(), 40);
        // ~2 days × 1440 min × (40/30 rows/min) × mean count ≈ 3.3/row.
        assert!(trace.len() > 8_000, "{}", trace.len());
        // Deterministic: regenerating scans to the same shape.
        let again = StreamTrace::from_csv_parts(&refs).unwrap();
        assert_eq!(trace.len(), again.len());
        assert_eq!(trace.horizon_nanos(), again.horizon_nanos());
    }
}
