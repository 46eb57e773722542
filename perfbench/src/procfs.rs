//! Process and per-thread CPU time and peak memory from `/proc/self`.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second for `/proc` CPU fields (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime in milliseconds from the text of a `stat` file.
fn stat_cpu_ms(stat: &str) -> Option<f64> {
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) are 12 and 13 after pid and comm.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_SEC)
}

/// CPU milliseconds this process has used so far, all threads together.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    stat_cpu_ms(&stat).expect("parse /proc/self/stat")
}

/// One live thread: its kernel name (truncated to 15 bytes) and CPU so far.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub name: String,
    pub cpu_ms: f64,
}

/// CPU per live thread of this process, keyed by thread id. Threads that
/// exit while the directory is read are skipped.
pub fn threads() -> BTreeMap<u32, ThreadCpu> {
    let mut out = BTreeMap::new();
    let dir = fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let path = entry.path();
        let (Ok(name), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("stat")),
        ) else {
            continue;
        };
        if let Some(cpu_ms) = stat_cpu_ms(&stat) {
            let name = name.trim_end().to_owned();
            out.insert(tid, ThreadCpu { name, cpu_ms });
        }
    }
    out
}

/// CPU milliseconds used between two [`threads`] snapshots by threads
/// whose name starts with `prefix`, and how many such threads were live
/// at the end. A thread born in between counts from zero.
pub fn thread_group_delta(
    before: &BTreeMap<u32, ThreadCpu>,
    after: &BTreeMap<u32, ThreadCpu>,
    prefix: &str,
) -> (f64, usize) {
    let mut cpu = 0.0;
    let mut live = 0;
    for (tid, t) in after.iter().filter(|(_, t)| t.name.starts_with(prefix)) {
        live += 1;
        cpu += t.cpu_ms - before.get(tid).map_or(0.0, |b| b.cpu_ms);
    }
    (cpu, live)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_name() {
        let stat = "42 (tokq node 1) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(stat_cpu_ms(stat), Some(3000.0));
    }
}
