//! Peak resident set size of this process.

/// Peak resident set (`VmHWM`) in MiB, parsed from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 4 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 4 pages\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb().expect("Linux exposes /proc/self/status");
        assert!(mb > 0.0);
    }
}
