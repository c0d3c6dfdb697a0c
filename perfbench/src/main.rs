//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <distinct_n8|cuts_certified|served_cuts> --seed N
//!           --seconds S --trace <0|1> [--facepoint PATH] [--out DIR]
//! ```
//!
//! Prints a `#`-prefixed summary (host fingerprint, every metric with
//! median, quartiles and sample count, the output checks and, when
//! traced, per-span totals), writes the same as a results file plus the
//! spans under `--out`, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reruns the workload with spans on
//! and reports the per-layer metrics. The final line holds the metrics
//! `BENCHMARK.json` lists for the mode ([`report::END_TO_END`],
//! [`report::PER_LAYER`]); workload-specific figures are in the summary
//! and the results file only. See `README.md`.
#![forbid(unsafe_code)]

mod host;
mod inproc;
mod openloop;
mod probes;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time per pass.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `facepoint` binary the served workload starts.
    pub facepoint: PathBuf,
    /// Where results, spans and server stores go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Measurement time of one pass. The traced run makes two passes
    /// (untraced, then traced) and gives each half the time, so it takes
    /// about as long as an untraced run.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sums the traced run's spans per name into `report` and writes them
/// to `spans-<workload>-<seed>.tsv` under the output directory.
pub fn finish_trace(ctx: &Ctx, report: &mut report::Report, spans: Vec<trace::Span>) {
    report.layers = trace::totals(&spans);
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.tsv", ctx.workload, ctx.seed));
    if let Err(e) = trace::write_tsv(&path, &spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    if !["distinct_n8", "cuts_certified", "served_cuts"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        facepoint: PathBuf::from(value("--facepoint").unwrap_or("target/release/facepoint")),
        out_dir: PathBuf::from(value("--out").unwrap_or(".bench_out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    if ctx.workload == "served_cuts" && !ctx.facepoint.is_file() {
        eprintln!(
            "perfbench: no facepoint binary at {}",
            ctx.facepoint.display()
        );
        return ExitCode::from(2);
    }
    let start = host::cpu_ticks();
    let mut report = match ctx.workload.as_str() {
        "distinct_n8" => inproc::distinct_n8(&ctx),
        "cuts_certified" => inproc::cuts_certified(&ctx),
        _ => served::served_cuts(&ctx),
    };
    let steal = host::steal_since(start);
    report.host.push(("cpu_steal_share", format!("{steal:.4}")));
    report.workload = ctx.workload.clone();
    report.seed = ctx.seed;
    report.trace = ctx.trace;
    let path = ctx.out_dir.join(format!(
        "result-{}-{}-trace{}.json",
        ctx.workload, ctx.seed, ctx.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, report.render_results() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    print!("{}", report.render_text());
    println!("{}", report.render_verdict());
    ExitCode::SUCCESS
}
