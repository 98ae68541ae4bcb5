//! What the benchmark asks of the operating system: CPU affinity,
//! resource usage, and the `/proc` counters behind the provenance block.
//!
//! Like `crates/server/src/poll.rs`, this goes to the kernel through the
//! stable syscall ABI — the build has no `libc` crate.

use std::io;
use std::process::Command;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const SCHED_SETAFFINITY: usize = 203;
    pub const SCHED_GETAFFINITY: usize = 204;
    pub const GETRUSAGE: usize = 98;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const SCHED_SETAFFINITY: usize = 122;
    pub const SCHED_GETAFFINITY: usize = 123;
    pub const GETRUSAGE: usize = 165;
}

/// Raw three-argument syscall, returning the kernel's value (negative
/// errno on failure).
///
/// # Safety
///
/// The caller must uphold the invoked syscall's contract (valid pointers
/// and lengths).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(nr: usize, a1: usize, a2: usize, a3: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// As the x86_64 variant.
///
/// # Safety
///
/// The caller must uphold the invoked syscall's contract.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall3(nr: usize, a1: usize, a2: usize, a3: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a1 as isize => ret,
        in("x1") a2,
        in("x2") a3,
        options(nostack),
    );
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the length passed.
    check(unsafe {
        syscall3(
            nr::SCHED_GETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_mut_ptr() as usize,
        )
    })?;
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread — and every thread it spawns afterwards — to
/// `cpu`, then confirm through the thread's `/proc` status (for the main
/// thread that is `/proc/self/status`) that the kernel agrees.
pub fn pin_to(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu {cpu} is beyond the {}-cpu mask", MASK_WORDS * 64),
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the length passed; the
    // kernel only reads it.
    check(unsafe {
        syscall3(
            nr::SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_ptr() as usize,
        )
    })?;
    let seen = proc_status_field("Cpus_allowed_list")?;
    if seen != cpu.to_string() {
        return Err(io::Error::other(format!(
            "asked for cpu {cpu}, /proc reports Cpus_allowed_list={seen}"
        )));
    }
    Ok(())
}

/// Pin to the highest allowed CPU (the one least likely to take the host's
/// interrupts and housekeeping). Returns `(cpu, allowed cpu count)`.
pub fn pin_highest() -> io::Result<(usize, usize)> {
    let allowed = allowed_cpus()?;
    let cpu = *allowed
        .last()
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    pin_to(cpu)?;
    Ok((cpu, allowed.len()))
}

/// A field of the calling thread's status file; process-wide fields
/// (`VmHWM`) read the same from any thread.
fn proc_status_field(field: &str) -> io::Result<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| io::Error::other(format!("/proc/thread-self/status has no {field}")))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn rss_peak_mb() -> io::Result<f64> {
    let v = proc_status_field("VmHWM")?;
    let kb: f64 = v
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| io::Error::other(format!("unparsable VmHWM `{v}`")))?;
    Ok(kb / 1024.0)
}

/// What the process — every thread, exited ones included — has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    pub user_us: u64,
    pub sys_us: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// `getrusage(RUSAGE_SELF)`. (The per-thread `/proc/self/task/*/status`
/// counters would lose the client threads, which exit with their round.)
pub fn usage() -> io::Result<Usage> {
    // struct rusage: two `struct timeval { long sec; long usec }` (ru_utime,
    // ru_stime) then 14 longs, of which the last two are ru_nvcsw and
    // ru_nivcsw; 144 bytes on both supported targets.
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is a live, writable 144-byte buffer; RUSAGE_SELF is 0.
    check(unsafe { syscall3(nr::GETRUSAGE, 0, ru.as_mut_ptr() as usize, 0) })?;
    let us = |sec: i64, usec: i64| (sec * 1_000_000 + usec) as u64;
    Ok(Usage {
        user_us: us(ru[0], ru[1]),
        sys_us: us(ru[2], ru[3]),
        ctx_switches: (ru[16] + ru[17]) as u64,
    })
}

/// From here on the allocator keeps what is freed: every block under
/// 32 MiB comes from the heap, and the heap is never trimmed. By default
/// glibc moves its mmap threshold as large blocks are freed, so whether a
/// block allocated again and again is warm heap or a fresh zero mapping
/// differs run by run. A no-op off glibc.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator tunables; both values are
        // within the ranges glibc accepts.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Where and how a result was produced; printed with every output.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu: usize,
    pub kernel: String,
    pub rustc: String,
    pub git_sha: String,
}

impl Provenance {
    pub fn collect(cpu: usize, nproc: usize) -> Provenance {
        // The tree this binary was built from. Git's upward search for a
        // repository stops at that tree, so a checkout that is not a
        // repository reads as "unknown" instead of borrowing a parent's SHA.
        let tree = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("benchmark/ sits in the tree's root")
            .to_path_buf();
        let ceiling = tree.parent().unwrap_or(&tree).to_path_buf();
        let run = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Provenance {
            nproc,
            cpu,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            rustc: run(Command::new("rustc").arg("-V")),
            git_sha: run(Command::new("git")
                .arg("-C")
                .arg(&tree)
                .args(["rev-parse", "--short=12", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", &ceiling)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_a_cpu_outside_the_allowed_set_is_refused() {
        let allowed = allowed_cpus().unwrap();
        assert!(!allowed.is_empty());
        // The mask holds 1024 CPUs; the sandbox has far fewer.
        let absent = (0..MASK_WORDS * 64)
            .rev()
            .find(|c| !allowed.contains(c))
            .unwrap();
        assert!(pin_to(absent).is_err());
        assert!(pin_to(MASK_WORDS * 64).is_err());
        // The refusal left this thread's affinity alone.
        assert_eq!(allowed_cpus().unwrap(), allowed);
    }

    #[test]
    fn pinning_restricts_the_calling_thread_and_its_children() {
        // Affinity is per thread: do it on a scratch thread so the test
        // harness's other threads keep theirs.
        std::thread::spawn(|| {
            let (cpu, n) = pin_highest().unwrap();
            assert!(n >= 1);
            assert_eq!(allowed_cpus().unwrap(), vec![cpu]);
            let child = std::thread::spawn(|| allowed_cpus().unwrap());
            assert_eq!(child.join().unwrap(), vec![cpu]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn process_counters_read_and_advance() {
        assert!(rss_peak_mb().unwrap() > 0.0);
        let before = usage().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        // A thread that sleeps and exits: its switches must still count.
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(2)))
            .join()
            .unwrap();
        let after = usage().unwrap();
        assert!(after.user_us + after.sys_us > before.user_us + before.sys_us);
        assert!(after.ctx_switches > before.ctx_switches);
    }
}
