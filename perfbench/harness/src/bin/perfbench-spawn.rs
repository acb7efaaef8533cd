//! `perfbench-spawn STDOUT STDERR -- PROGRAM ARGS...` — runs PROGRAM
//! once with stdout and stderr sent to the given files, and prints
//! `wall_ns maxrss_kb exit_code calib_ns spawn_ns` for it.
//!
//! Peak RSS comes from `wait4`. Linux carries the spawning process's
//! RSS high-water mark into the child at `exec`, so the child's peak
//! only reads true when its spawner is smaller than it is. This process
//! stays a few MB; a Python parent does not.
//!
//! Before PROGRAM starts, this process pins itself (and so PROGRAM) to
//! the CPU it is on and times two fixed references on that CPU:
//! `calib_ns`, a float-and-memory loop (the mean of one run before
//! PROGRAM and one after), and `spawn_ns`, starting and reaping a copy
//! of itself that exits at once. They let the caller read PROGRAM's
//! times against the speed the CPU had at that moment.

use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[allow(dead_code)] // filled in by the kernel; only `maxrss` is read
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
#[allow(dead_code)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process, and every child it starts later, to the CPU it is
/// running on now.
fn pin_to_current_cpu() {
    // SAFETY: `sched_getcpu` takes no arguments; `mask` is a live
    // 1024-bit `cpu_set_t` and its size is passed along with it.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// A fixed float-and-cache loop (about 5 ms on a recent x86 core),
/// timed. The buffer is touched once before the clock starts, so page
/// faults stay out of the reading.
fn calibrate() -> u128 {
    let n = 1 << 15;
    let mut v: Vec<f64> = (0..n).map(|i| i as f64 * 1e-6).collect();
    let pass = |v: &mut [f64]| {
        for i in 0..n {
            v[i] = v[i] * 0.999_999 + v[(i * 7919) & (n - 1)] * 1e-3 + 1e-9;
        }
    };
    pass(&mut v);
    let start = Instant::now();
    for _ in 0..100 {
        pass(&mut v);
    }
    std::hint::black_box(&v);
    start.elapsed().as_nanos()
}

/// Starts a copy of this binary that exits at once, and times it to
/// its exit.
fn time_spawn() -> u128 {
    let me = std::env::current_exe().expect("own path is readable");
    let start = Instant::now();
    let status = Command::new(me)
        .arg("--exit")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("own binary starts");
    assert!(status.success(), "--exit copy exits 0");
    start.elapsed().as_nanos()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--exit" {
        return;
    }
    if args.len() < 4 || args[2] != "--" {
        eprintln!("usage: perfbench-spawn STDOUT STDERR -- PROGRAM ARGS...");
        std::process::exit(2);
    }
    pin_to_current_cpu();
    let calib_before = calibrate();
    let spawn_ns = time_spawn();
    let out = File::create(&args[0]).expect("stdout file is writable");
    let err = File::create(&args[1]).expect("stderr file is writable");
    let start = Instant::now();
    #[allow(clippy::zombie_processes)] // reaped by `wait4` below, which also reads its rusage
    let child = Command::new(&args[3])
        .args(&args[4..])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("program starts");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, correctly laid out out-
    // parameters, and `child` has not been waited on, so `wait4` reaps
    // exactly this pid.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_ns = start.elapsed().as_nanos();
    assert_eq!(reaped, child.id() as i32, "wait4 reaps the child");
    let calib_ns = (calib_before + calibrate()) / 2;
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    println!("{wall_ns} {} {code} {calib_ns} {spawn_ns}", usage.maxrss);
}
