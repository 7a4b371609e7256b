//! Resource readings behind the spans and the end-to-end metrics: CPU
//! clocks, resident memory from `/proc`, and a counting global allocator.
//!
//! The allocator lives in this binary only, so the library crates stay
//! allocator-agnostic. It counts only while [`set_counting`] is on, which
//! the harness does for traced jobs alone: untraced jobs, which give the
//! end-to-end metrics, pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("flockbench reads /proc and the 64-bit Linux clock_gettime ABI");

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// relaxed statistics that never influence the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count growth only: a shrink reuses bytes already counted.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and bytes requested while counting was on.
pub fn allocations() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked at compile time above) and the clock
    // ids are the kernel's constants for the calling process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of the whole process, every thread included
/// (the kernel's per-process clock: the `/proc/self/stat` utime + stime
/// sum at nanosecond rather than tick resolution).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The `kB` value of `key` in a `/proc` status-style file, read into a
/// stack buffer so a reading inside a span allocates nothing.
fn proc_kb(path: &str, key: &str) -> u64 {
    let mut buf = [0u8; 8192];
    let Ok(mut file) = std::fs::File::open(path) else {
        return 0;
    };
    let mut len = 0;
    while len < buf.len() {
        match file.read(&mut buf[len..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => len += n,
        }
    }
    let text = std::str::from_utf8(&buf[..len]).unwrap_or("");
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_kb("/proc/self/status", "VmRSS:") * 1024
}

/// Peak resident set size of the process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    proc_kb("/proc/self/status", "VmHWM:") * 1024
}

/// Installed memory of the host in kB (`MemTotal`).
pub fn mem_total_kb() -> u64 {
    proc_kb("/proc/meminfo", "MemTotal:")
}
