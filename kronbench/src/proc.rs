//! Process-level readings from `/proc/self` (Linux; zero elsewhere).

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU time this process (all threads) has used, in µs.
/// `/proc/self/stat` counts clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_us() -> f64 {
    const TICK_US: f64 = 1e6 / 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // the command name (field 2) may contain spaces: count from
            // the closing parenthesis, after which utime and stime are
            // the 12th and 13th fields
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) * TICK_US)
        })
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn readings_are_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() > 0.0);
        assert!(cores() >= 1);
    }
}
