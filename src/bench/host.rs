//! Host identification for bench entries.
//!
//! Timings only mean something relative to the machine that produced
//! them, so every bench entry carries the host's shape. Deliberately
//! coarse: core count, architecture, OS.

use serde::json::Value;

/// The machine a bench entry was measured on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HostInfo {
    /// Available parallelism (what `threads = 0` resolves against).
    pub(crate) cores: usize,
    /// Target architecture (compile-time, e.g. `x86_64`).
    pub(crate) arch: String,
    /// Operating system (compile-time, e.g. `linux`).
    pub(crate) os: String,
}

impl HostInfo {
    /// Detects the current host.
    pub(crate) fn detect() -> HostInfo {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostInfo {
            cores,
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
        }
    }

    /// Renders as a JSON object (fixed field order).
    pub(crate) fn to_json(&self) -> String {
        let (arch, os) = (Value::Str(self.arch.clone()), Value::Str(self.os.clone()));
        format!("{{\"cores\":{},\"arch\":{arch},\"os\":{os}}}", self.cores)
    }

    /// Parses back from a JSON value.
    pub(crate) fn from_value(v: &Value) -> Result<HostInfo, String> {
        let missing = |key: &str| format!("host missing `{key}`");
        let s = |key| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| missing(key))
        };
        let cores = v.get("cores").and_then(Value::as_f64);
        let cores = cores.filter(|c| *c >= 0.0 && c.fract() == 0.0);
        Ok(HostInfo {
            cores: cores.ok_or_else(|| missing("cores"))? as usize,
            arch: s("arch")?.into(),
            os: s("os")?.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    #[test]
    fn detect_and_roundtrip() {
        let h = HostInfo::detect();
        assert!(h.cores >= 1);
        let back = HostInfo::from_value(&json::parse(&h.to_json()).unwrap()).unwrap();
        assert_eq!(back, h);
    }
}
