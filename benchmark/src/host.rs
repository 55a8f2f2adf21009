//! Host and provenance block: where a set of numbers was measured.

use std::fs;

/// One data/unified cache level as the kernel reports it for cpu0.
#[derive(Debug, Clone)]
pub struct Cache {
    pub level: u32,
    pub bytes: u64,
}

/// Everything needed to interpret (and distrust) a recorded number.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub caches: Vec<Cache>,
    pub ram_bytes: u64,
    pub rustc: String,
    pub commit: String,
}

fn read_trim(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Parses the kernel's `48K` / `2048K` / `260M` cache-size spelling.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1u64 << 20),
        'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

impl Host {
    /// Reads the host description. `rustc` and the git commit cannot be
    /// read from inside the binary; `run.sh` passes them through the
    /// environment.
    pub fn detect() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mut caches = Vec::new();
        for idx in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let (Some(level), Some(kind), Some(size)) = (
                read_trim(&format!("{base}/level")),
                read_trim(&format!("{base}/type")),
                read_trim(&format!("{base}/size")),
            ) else {
                continue;
            };
            if kind == "Instruction" {
                continue;
            }
            if let (Ok(level), Some(bytes)) = (level.parse(), parse_size(&size)) {
                caches.push(Cache { level, bytes });
            }
        }
        let ram_kb = proc_field(&meminfo, "MemTotal")
            .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
            .unwrap_or(0);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into()),
            caches,
            ram_bytes: ram_kb * 1024,
            rustc: std::env::var("FTCG_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            commit: std::env::var("FTCG_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    /// Reported last-level cache size (0 when the kernel exposes none).
    pub fn llc_bytes(&self) -> u64 {
        self.caches
            .iter()
            .max_by_key(|c| c.level)
            .map_or(0, |c| c.bytes)
    }

    /// The caches as `L1 48K, L2 2048K, ...`.
    pub fn cache_line(&self) -> String {
        self.caches
            .iter()
            .map(|c| format!("L{} {}K", c.level, c.bytes >> 10))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The block every run prints ahead of its numbers.
    pub fn print(&self, seed: u64) {
        println!("host: nproc={} cpu=\"{}\"", self.nproc, self.cpu_model);
        println!(
            "host: caches=[{}] ram={:.1} GiB",
            self.cache_line(),
            self.ram_bytes as f64 / (1u64 << 30) as f64
        );
        println!(
            "host: rustc=\"{}\" commit={} seed={seed}",
            self.rustc, self.commit
        );
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    proc_field(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
