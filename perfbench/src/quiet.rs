//! The host-interference filter behind every latency figure.
//!
//! On a shared virtual machine the hypervisor periodically runs other
//! guests on this guest's cores. It shows in `/proc/stat` as steal
//! time, arrives in bursts of 10–30% lasting tens of seconds, and slows
//! every request while it lasts (by up to 2× on a two-vCPU guest). A
//! run that happens to overlap a burst would otherwise read as a
//! regression of the code.
//!
//! The timed phase is therefore cut into one-second blocks, each tagged
//! with the steal share the host saw during it, and each timed sample
//! with the block its tick started in. The latency, throughput and CPU
//! figures come from the *selected* blocks: every block whose steal
//! share is at most [`QUIET_STEAL`], topped up with the next-quietest
//! blocks while the selection holds fewer than the ticks the figures
//! need. The timed phase itself runs on (up to a cap) until the quiet
//! blocks hold enough ticks, so a burst delays a run instead of
//! skewing it, and a quiet run reports every block.

use std::time::Duration;

/// Wall length of one block.
pub const BLOCK: Duration = Duration::from_secs(1);

/// Steal share of host CPU time at or below which a block is quiet.
/// An idle two-vCPU guest typically reads 0–2%; blocks between 2% and
/// 6% already run measurably slower.
pub const QUIET_STEAL: f64 = 0.02;

/// One closed block of the timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Block {
    /// Share of host CPU time stolen during the block.
    pub steal: f64,
    /// Timed ticks that started in the block.
    pub ticks: usize,
}

/// Marks the selected blocks: the quiet ones, topped up in order of
/// rising steal until they hold `need` ticks (or every block is in).
pub fn select(blocks: &[Block], need: usize) -> Vec<bool> {
    let mut chosen: Vec<bool> = blocks.iter().map(|b| b.steal <= QUIET_STEAL).collect();
    let mut held = ticks_in(blocks, &chosen);
    let mut order: Vec<usize> = (0..blocks.len()).filter(|&i| !chosen[i]).collect();
    order.sort_by(|&a, &b| blocks[a].steal.total_cmp(&blocks[b].steal));
    for i in order {
        if held >= need {
            break;
        }
        chosen[i] = true;
        held += blocks[i].ticks;
    }
    chosen
}

/// Ticks held by quiet blocks.
pub fn quiet_ticks(blocks: &[Block]) -> usize {
    blocks
        .iter()
        .filter(|b| b.steal <= QUIET_STEAL)
        .map(|b| b.ticks)
        .sum()
}

/// Ticks held by the chosen blocks.
pub fn ticks_in(blocks: &[Block], chosen: &[bool]) -> usize {
    blocks
        .iter()
        .zip(chosen)
        .filter(|(_, &c)| c)
        .map(|(b, _)| b.ticks)
        .sum()
}

/// Samples tagged with the block they were taken in.
#[derive(Debug, Clone, Default)]
pub struct Tagged(Vec<(usize, f64)>);

impl Tagged {
    /// Records one sample taken in `block`.
    pub fn push(&mut self, block: usize, value: f64) {
        self.0.push((block, value));
    }

    /// The samples taken in chosen blocks.
    pub fn pick(&self, chosen: &[bool]) -> Vec<f64> {
        self.0
            .iter()
            .filter(|(b, _)| chosen.get(*b).copied().unwrap_or(false))
            .map(|&(_, v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(steal: f64, ticks: usize) -> Block {
        Block { steal, ticks }
    }

    #[test]
    fn quiet_run_keeps_every_block() {
        let blocks = [b(0.0, 10), b(0.01, 10), b(0.02, 10)];
        assert_eq!(select(&blocks, 20), vec![true, true, true]);
        assert_eq!(quiet_ticks(&blocks), 30);
    }

    #[test]
    fn bursts_are_dropped_when_quiet_blocks_hold_enough() {
        let blocks = [b(0.01, 10), b(0.20, 5), b(0.0, 10), b(0.12, 5)];
        assert_eq!(select(&blocks, 20), vec![true, false, true, false]);
        assert_eq!(quiet_ticks(&blocks), 20);
    }

    #[test]
    fn noisy_run_is_topped_up_with_its_quietest_blocks() {
        let blocks = [b(0.10, 10), b(0.30, 10), b(0.05, 10), b(0.20, 10)];
        let chosen = select(&blocks, 20);
        assert_eq!(chosen, vec![true, false, true, false]);
        assert_eq!(ticks_in(&blocks, &chosen), 20);
        assert_eq!(quiet_ticks(&blocks), 0);
        // Asking for more than the run holds takes every block.
        assert_eq!(select(&blocks, 100), vec![true; 4]);
    }

    #[test]
    fn tagged_samples_follow_their_block() {
        let mut t = Tagged::default();
        t.push(0, 1.0);
        t.push(1, 2.0);
        t.push(1, 3.0);
        t.push(7, 4.0);
        assert_eq!(t.pick(&[false, true]), vec![2.0, 3.0]);
        assert_eq!(t.pick(&[true, false]), vec![1.0]);
    }
}
