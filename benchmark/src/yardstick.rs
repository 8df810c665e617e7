//! A fixed piece of work that never touches the program under test: the
//! benchmark's yardstick for how fast the host is running right now.
//!
//! The sandbox is a slice of a shared host whose speed drifts by up to a
//! factor of two over minutes (it does not show as steal time, so:
//! neighbours on the sibling hyper-threads and in the shared cache). The
//! drift moves every timing of a run together, and ten runs of the same
//! code then spread by 20–40 % between their quartiles. A slice of this
//! work, timed right beside a measured phase, moves with it, so every
//! end-to-end timing is reported **speed-adjusted**: multiplied by
//! `speed` = [`NOMINAL_S`] ÷ the slices' time (rates are divided by it).
//! On the same ten seeds that cut the spreads to 3–11 % (README.md).
//!
//! A change to the program does not move the yardstick; a change of machine
//! moves both. What the adjustment cannot remove is the difference between
//! how the program and this mix respond to a neighbour.
//!
//! The mix is chosen to slow down the way the program does: dependent loads
//! over an array larger than L2 (page and node decode), integer arithmetic
//! (codecs, checksums), data-dependent branches over small float tuples
//! (dominance tests) and a sort (result windows, merges). A slice allocates
//! nothing, so that it adds no allocator traffic beside `write_mix`'s
//! writer (README.md's fact 4).

use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chasing cycle: 4 MiB of `u32`, past L2.
const CHAIN: usize = 1 << 20;
const CHASE_STEPS: usize = 300_000;
const ARITH_STEPS: usize = 3_000_000;
const POINTS: usize = 3_000;
const SORT_KEYS: usize = 60_000;

/// What one slice takes on the sizing sandbox when the host is quiet:
/// `speed` 1 means "as fast as that".
pub const NOMINAL_S: f64 = 0.040;

/// The host's speed over `slices` (seconds each): 1 at the nominal, 0.5
/// when everything takes twice as long.
pub fn speed(slices: &[f64]) -> f64 {
    let mean = slices.iter().sum::<f64>() / slices.len().max(1) as f64;
    if mean > 0.0 {
        NOMINAL_S / mean
    } else {
        1.0
    }
}

pub struct Yardstick {
    chain: Vec<u32>,
    points: Vec<[f64; 3]>,
    at: u32,
    /// Buffers of a slice, kept so that none allocates.
    window: Vec<[f64; 3]>,
    keys: Vec<u64>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// The same data whatever the seed of the run: the yardstick must not
    /// vary with the inputs.
    pub fn new() -> Yardstick {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Sattolo's algorithm: one cycle through every entry.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            chain.swap(i, j);
        }
        let unit = |s: &mut u64| (xorshift(s) >> 11) as f64 / (1u64 << 53) as f64;
        let points = (0..POINTS)
            .map(|_| {
                // Anti-correlated: a large skyline, so the window loop below
                // does real work.
                let a = unit(&mut state);
                let b = unit(&mut state) * (1.0 - a);
                [a, b, 1.0 - a - b + 0.05 * unit(&mut state)]
            })
            .collect();
        Yardstick {
            chain,
            points,
            at: 0,
            window: Vec::with_capacity(POINTS),
            keys: Vec::with_capacity(SORT_KEYS),
        }
    }

    /// Runs one slice of the work and returns how long it took, in seconds.
    pub fn slice(&mut self) -> f64 {
        let started = Instant::now();

        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        self.at = black_box(at);

        let mut state = u64::from(at) | 1;
        let mut sum = 0u64;
        for _ in 0..ARITH_STEPS {
            sum = sum.wrapping_add(xorshift(&mut state) & 0xFF);
        }
        black_box(sum);

        // A block-nested-loop skyline: what the query kernel's window does.
        let window = &mut self.window;
        window.clear();
        for p in &self.points {
            let dominates = |a: &[f64; 3], b: &[f64; 3]| {
                a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
            };
            if window.iter().any(|w| dominates(w, p)) {
                continue;
            }
            window.retain(|w| !dominates(p, w));
            window.push(*p);
        }
        black_box(window.len());

        self.keys.clear();
        self.keys
            .extend((0..SORT_KEYS).map(|_| xorshift(&mut state)));
        self.keys.sort_unstable();
        black_box(self.keys[SORT_KEYS / 2]);

        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle() {
        let r = Yardstick::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = r.chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN);
    }
}
