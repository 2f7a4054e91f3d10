//! Host, configuration and process-resource readings recorded with every
//! result, so numbers from different hosts are never compared silently.

use std::fmt::Write as _;
use std::path::Path;

/// Shot-executor worker threads used by every dynamic job.
pub const SHOT_WORKERS: usize = 1;

/// Everything that identifies where and how a result was measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Per-core L2 size in KiB (0 when `/sys` does not say).
    pub l2_kib: u64,
    /// Shared L3 size in KiB (0 when `/sys` does not say).
    pub l3_kib: u64,
    /// Widest vector extension the CPU reports.
    pub simd_detected: &'static str,
    /// Whether the array engine's AVX2/FMA kernels run (`QDT_SIMD` can
    /// force the scalar fallback).
    pub simd_active: bool,
    /// Raw `QDT_THREADS` (kernel threads; unset means sequential).
    pub qdt_threads: Option<String>,
    /// Raw `QDT_SIMD`.
    pub qdt_simd: Option<String>,
    /// The git commit, when the checkout has a `.git` directory.
    pub commit: String,
    /// FNV-1a digest of the library sources, which identifies the code
    /// measured even in a checkout without git metadata.
    pub source_digest: String,
}

impl HostInfo {
    /// Reads the host and configuration of the running process.
    pub fn detect() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
            simd_detected: simd_detected(),
            simd_active: qdt::array::simd_active(),
            qdt_threads: std::env::var("QDT_THREADS").ok(),
            qdt_simd: std::env::var("QDT_SIMD").ok(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(),
        }
    }

    /// `QDT_THREADS` as a kernel thread count (1 when unset or invalid).
    pub fn kernel_threads(&self) -> usize {
        self.qdt_threads
            .as_deref()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1)
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        let opt = |v: &Option<String>| match v {
            Some(s) => format!("\"{}\"", escape(s)),
            None => "null".into(),
        };
        format!(
            "{{\"nproc\": {}, \"l2_kib\": {}, \"l3_kib\": {}, \"simd_detected\": \"{}\", \
             \"simd_active\": {}, \"QDT_THREADS\": {}, \"QDT_SIMD\": {}, \"shot_workers\": {}, \
             \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc,
            self.l2_kib,
            self.l3_kib,
            self.simd_detected,
            self.simd_active,
            opt(&self.qdt_threads),
            opt(&self.qdt_simd),
            SHOT_WORKERS,
            escape(&self.commit),
            self.source_digest
        )
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Size in KiB of the unified or data cache at `level`, from cpu0's
/// `/sys` cache description.
fn cache_kib(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(dir) = std::fs::read_dir(base) else {
        return 0;
    };
    for entry in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).unwrap_or_default();
        let kind = read("type");
        if read("level").trim() == level.to_string() && kind.trim() != "Instruction" {
            let size = read("size");
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024),
                    None => (size, 1),
                },
            };
            return digits.parse::<u64>().map_or(0, |v| v * scale);
        }
    }
    0
}

fn simd_detected() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return "sse4.2";
        }
    }
    "scalar"
}

/// The commit `.git/HEAD` names, if the working directory is a git
/// checkout with a loose or packed ref.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus the
/// lock file, visited in sorted order.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Process CPU time (user + system, all threads, exited ones included) in
/// seconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
///
/// `/proc/self/stat` holds the same sum, but in 10 ms ticks: too coarse
/// for one pass of a few hundred milliseconds.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux), and the clock id is a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    #[allow(clippy::cast_precision_loss)]
    let seconds = ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
    seconds
}

/// Runs a fixed slice of single-threaded CPU work (complex rotations on
/// an L1-resident buffer, then a chain of dependent integer multiplies;
/// about 70 µs on a 2.0 GHz Xeon) and returns its wall time in seconds.
///
/// The benchmark runs it between jobs to see how fast the shared host
/// lets this process run at that moment. It touches no `qdt` code, so
/// changes to the program under test never change what it measures.
pub fn speed_probe() -> f64 {
    let start = std::time::Instant::now();
    let mut re = [1.0f64; 256];
    let mut im = [0.0f64; 256];
    let (c, s) = (0.6f64, 0.8f64);
    for _ in 0..256 {
        for k in 0..256 {
            let (a, b) = (re[k], im[k]);
            re[k] = a * c - b * s;
            im[k] = a * s + b * c;
        }
        std::hint::black_box((&mut re, &mut im));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..16384u64 {
        h = (h ^ k).wrapping_mul(0x0100_0000_01b3);
    }
    std::hint::black_box(h);
    start.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present");
    kib / 1024.0
}
