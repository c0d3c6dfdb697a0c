//! Host fingerprint recorded with every result.

use facepoint_core::Fnv128Stream;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `nproc`, available parallelism, resolved engine workers, CPU model,
/// source revision and seed.
pub fn fingerprint(workers: usize, seed: u64) -> Vec<(&'static str, String)> {
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc),
        ("available_parallelism", parallelism.to_string()),
        ("engine_workers", workers.to_string()),
        ("cpu", cpu),
        ("commit", revision()),
        ("seed", seed.to_string()),
    ]
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine from
/// `/proc/stat`. Steal is time the hypervisor gave this machine's
/// virtual CPUs to someone else; its share over a run says how much of
/// the run's wall time was not the host's to spend.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Machine-wide CPU steal share since `start` (a [`cpu_ticks`]
/// reading); 0 where `/proc/stat` is unavailable.
pub fn steal_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) => {
            steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
        }
        _ => 0.0,
    }
}

/// The git commit when run inside a git work tree, else an FNV-128
/// digest of the sources the benchmark builds (`tree:<hex>`), so runs
/// from an exported checkout still name the code they measured.
fn revision() -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut digest = Fnv128Stream::new();
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        let mut words: Vec<u64> = path.to_string_lossy().bytes().map(u64::from).collect();
        words.extend(bytes.chunks(8).map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        }));
        digest.words(&words);
    }
    format!("tree:{:032x}", digest.finish())
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() && (name == "target" || name.starts_with('.')) {
                continue;
            }
            if p.is_dir()
                || name.ends_with(".rs")
                || name.ends_with(".toml")
                || name == "Cargo.lock"
            {
                collect(&p, out);
            }
        }
    }
}
