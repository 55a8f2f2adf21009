//! Host identification for bench entries.
//!
//! Timings only mean something relative to the machine that produced
//! them, so every bench entry carries the host's shape. Deliberately
//! coarse: core count, architecture, OS.

use serde::json::Value;

/// The machine a bench entry was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        HostInfo {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
        }
    }

    /// Renders as a JSON object (fixed field order).
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"arch\":{},\"os\":{}}}",
            self.cores,
            Value::Str(self.arch.clone()),
            Value::Str(self.os.clone())
        )
    }

    /// Parses back from a JSON value.
    pub(crate) fn from_value(v: &Value) -> Result<HostInfo, String> {
        let s = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host missing `{key}`"))
        };
        Ok(HostInfo {
            cores: v
                .get("cores")
                .and_then(Value::as_f64)
                .filter(|c| *c >= 0.0 && c.fract() == 0.0)
                .ok_or("host missing `cores`")? as usize,
            arch: s("arch")?,
            os: s("os")?,
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
