//! `perfbench --workload <bulk|tree|durable|share> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced).

use std::process::ExitCode;

use perfbench::harness::{Params, Scale};

/// Set-ups per pass before the loop; `setup_s` is the median of these and
/// of any rebuilds.
const SETUPS: usize = 3;

fn parse() -> Result<(String, Params, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let params = Params {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scale: Scale::Full,
        setups: SETUPS,
        sabotage: None,
    };
    Ok((workload, params, trace))
}

fn main() -> ExitCode {
    let (workload, params, trace) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&workload, &params, trace) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<34} {:>14.3} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
