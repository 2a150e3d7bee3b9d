//! What `/proc` says about this process: peak memory, CPU time, context
//! switches. Linux only; every reader returns `None` elsewhere so a run on
//! another system reports zeros instead of failing.

use std::collections::BTreeMap;

fn status_field_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// User + system CPU time of the whole process, in milliseconds.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields are counted after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // after ')': state is field 3, utime 14, stime 15 → skip 11, take 2
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI
    Some((utime + stime) as f64 * 10.0)
}

fn ctx_switches_in(status: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        status.lines().find(|l| l.starts_with(name))?[name.len()..]
            .trim()
            .parse()
            .ok()
    };
    Some(field("voluntary_ctxt_switches:")? + field("nonvoluntary_ctxt_switches:")?)
}

/// Context switches of the calling thread so far.
pub fn thread_ctx_switches() -> Option<u64> {
    ctx_switches_in(&std::fs::read_to_string("/proc/thread-self/status").ok()?)
}

/// Context switches so far of every live thread, by thread id.
pub fn task_ctx_switches() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        if let Some(n) = ctx_switches_in(&status) {
            out.insert(tid, n);
        }
    }
    out
}

/// Switches between two snapshots, over threads alive in both. Threads
/// that lived only in between (the load generator's clients) report their
/// own count through [`thread_ctx_switches`].
pub fn ctx_switch_delta(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> u64 {
    after
        .iter()
        .filter_map(|(tid, n)| before.get(tid).map(|b| n.saturating_sub(*b)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t12\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(204_800));
        assert_eq!(ctx_switches_in(status), Some(15));
        assert_eq!(ctx_switches_in("Name:\tx\n"), None);
    }

    #[test]
    fn delta_counts_only_threads_in_both_snapshots() {
        let before = BTreeMap::from([(1, 10), (2, 5)]);
        let after = BTreeMap::from([(1, 14), (3, 100)]);
        assert_eq!(ctx_switch_delta(&before, &after), 4);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_readers_work_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_ms().is_some());
        assert!(thread_ctx_switches().is_some());
        assert!(!task_ctx_switches().is_empty());
    }
}
