//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <week_gz|storm|autotune> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that times each layer by
//! calling its public entry points from here and prints an attribution
//! table whose rows add up to the untraced cost. Either way the last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), and the process exits non-zero when an output check
//! fails. See `README.md` for why each workload exists.

mod autotune;
mod measure;
mod replay;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<String, String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .cloned()
                .ok_or_else(|| format!("missing {flag}"))
        };
        let workload = value("--workload")?;
        let seed = value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(format!(
            "e2ebench/out/spans-{}-seed{}.json",
            self.workload, self.seed
        ))
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (threads available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome = match args.workload.as_str() {
        "week_gz" => replay::run(replay::Kind::WeekGz, &args),
        "storm" => replay::run(replay::Kind::Storm, &args),
        "autotune" => autotune::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    let line = outcome.finish(args.trace);
    println!("{line}");
    if !outcome.checks.passed() {
        std::process::exit(1);
    }
}
