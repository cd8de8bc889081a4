//! The reference loop that the timed metrics are scaled by.
//!
//! The CPU a run gets on a shared host changes speed from second to second
//! and from minute to minute (up to 2x between neighbouring minutes), and
//! a run's wall-clock follows it. So each timed call is bracketed by a
//! fixed reference loop, and its wall-clock is scaled by how long the loop
//! took around it:
//!
//! `scaled_ms = wall_ms * NOMINAL_MS / reference_ms`
//!
//! The scaled figure is the call's duration on a machine that runs the
//! loop in `NOMINAL_MS`. The loop is integer work, branches and loads on a
//! 4 KiB table, so it stays in L1 and neither evicts much of the engine's
//! working set nor depends on it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one reference loop: about 1 ms at full speed on a
/// 2-vCPU x86-64 virtual machine.
const ITERATIONS: u32 = 400_000;

/// The loop's duration, in ms, on the machine the scaled figures refer to.
pub const NOMINAL_MS: f64 = 1.0;

/// Runs the reference loop once.
fn reference_loop(iterations: u32) -> u64 {
    let mut table = [0u32; 1024];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (table.len() - 1);
        table[j] = table[j].wrapping_add(i);
        if table[j] & 1 == 0 {
            acc = acc.wrapping_add(x);
        } else {
            acc ^= x.rotate_left(7);
        }
    }
    acc ^ table.iter().map(|&v| u64::from(v)).sum::<u64>()
}

/// Wall-clock of one reference loop, in ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(reference_loop(black_box(ITERATIONS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Times calls against the reference loop, which runs before the first
/// call and after each one.
pub struct Clock {
    before: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            before: reference_ms(),
        }
    }

    /// Runs `f`; returns its result, its wall-clock in ms, and the mean
    /// reference-loop time around it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = f();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        (out, wall_ms, self.lap())
    }

    /// Ends a call timed by hand: runs the loop again and returns the mean
    /// reference-loop time around the call.
    pub fn lap(&mut self) -> f64 {
        let after = reference_ms();
        let reference = (self.before + after) / 2.0;
        self.before = after;
        reference
    }
}

/// `wall` scaled to the nominal reference speed.
pub fn scaled(wall: f64, reference_ms: f64) -> f64 {
    wall * NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_scales_by_the_loop_around_the_call() {
        let mut clock = Clock::start();
        let (v, wall, reference) = clock.time(|| 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0 && reference > 0.0);
        assert_eq!(scaled(3.0, 2.0 * NOMINAL_MS), 1.5);
        assert_eq!(reference_loop(1000), reference_loop(1000));
    }
}
