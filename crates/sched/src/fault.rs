//! Deterministic fault injection for campaign chaos testing.
//!
//! The paper's headline run spans 650k cores — a regime where node
//! failures, stragglers, and I/O errors are routine. A [`FaultPlan`]
//! injects those failure modes into the *production* campaign path
//! (not a mock): fit panics and stalls fire inside the node loop, and
//! image-load errors fire inside [`celeste_survey::io::ImageStore`]
//! via [`celeste_survey::io::LoadFaults`]. Every decision is a pure
//! function of `(seed, task, attempt)` — independent of thread
//! interleaving — so chaos suites are reproducible and flake-free.
//!
//! Enable via [`CampaignConfig::faults`](crate::CampaignConfig).

use std::time::Duration;

/// The shared mixing step behind every fault decision and backoff
/// jitter draw; `celeste_survey`'s image-load faults use the same one.
pub use celeste_survey::sampling::mix64;

/// A deterministic uniform draw in `[0, 1)` from `(seed, salt, a, b)`.
#[inline]
pub fn roll(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    let h = mix64(seed ^ mix64(salt) ^ mix64(a).rotate_left(17) ^ b);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_PANIC: u64 = 0xFA17_0001;
const SALT_SLOW: u64 = 0xFA17_0002;
const SALT_HANG: u64 = 0xFA17_0003;

/// A seeded schedule of injected faults for one campaign run. All
/// rates are probabilities in `[0, 1]` evaluated per `(task,
/// attempt)` (or per `(key, load)` for I/O), so reissued attempts
/// draw fresh decisions and retries can heal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed behind every decision in this plan.
    pub seed: u64,
    /// Probability an image load fails with `IoError::Injected`.
    pub io_error_rate: f64,
    /// Cap on injected load failures per image key (keep it below the
    /// retry budget so tasks heal; raise it to force quarantine).
    pub io_max_per_key: u32,
    /// Probability a region fit panics mid-attempt.
    pub panic_rate: f64,
    /// Probability a region fit is artificially slowed by `slow_for`.
    pub slow_rate: f64,
    /// Stall applied to slow tasks (on the campaign clock).
    pub slow_for: Duration,
    /// Probability a finished attempt hangs past its lease deadline
    /// (the holder stalls until the supervisor has reissued the task,
    /// so its late completion arrives on an expired lease).
    pub hang_rate: f64,
}

impl Default for FaultPlan {
    /// All faults disabled.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            io_error_rate: 0.0,
            io_max_per_key: 1,
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_for: Duration::from_millis(20),
            hang_rate: 0.0,
        }
    }
}

impl FaultPlan {
    /// Whether attempt `attempt` of task `task_id` panics.
    pub fn should_panic(&self, task_id: u64, attempt: u32) -> bool {
        roll(self.seed, SALT_PANIC, task_id, attempt as u64) < self.panic_rate
    }

    /// Whether attempt `attempt` of task `task_id` is slowed.
    pub fn should_slow(&self, task_id: u64, attempt: u32) -> bool {
        roll(self.seed, SALT_SLOW, task_id, attempt as u64) < self.slow_rate
    }

    /// Whether attempt `attempt` of task `task_id` hangs past its
    /// lease deadline.
    pub fn should_hang(&self, task_id: u64, attempt: u32) -> bool {
        roll(self.seed, SALT_HANG, task_id, attempt as u64) < self.hang_rate
    }

    /// Tasks among `task_ids` whose first `max_attempts` attempts all
    /// panic — the set a campaign with this plan must quarantine.
    /// Chaos tests compute this to pin quarantine decisions exactly.
    pub fn quarantined_by_panics(&self, task_ids: &[u64], max_attempts: u32) -> Vec<u64> {
        task_ids
            .iter()
            .copied()
            .filter(|&id| (1..=max_attempts).all(|a| self.should_panic(id, a)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_functions_of_inputs() {
        let plan = FaultPlan {
            seed: 99,
            panic_rate: 0.5,
            hang_rate: 0.3,
            slow_rate: 0.3,
            ..Default::default()
        };
        for task in 0..50u64 {
            for attempt in 1..4u32 {
                assert_eq!(
                    plan.should_panic(task, attempt),
                    plan.should_panic(task, attempt)
                );
            }
        }
        // Different salts decorrelate the fault kinds: over many
        // tasks, panic and hang decisions must not be identical.
        let panics: Vec<bool> = (0..200).map(|t| plan.should_panic(t, 1)).collect();
        let hangs: Vec<bool> = (0..200).map(|t| plan.should_hang(t, 1)).collect();
        assert_ne!(panics, hangs);
        // Rates are roughly honored.
        let frac = panics.iter().filter(|&&p| p).count() as f64 / 200.0;
        assert!((0.3..0.7).contains(&frac), "panic fraction {frac}");
    }

    #[test]
    fn quarantine_prediction_matches_per_attempt_rolls() {
        let plan = FaultPlan {
            seed: 5,
            panic_rate: 0.7,
            ..Default::default()
        };
        let ids: Vec<u64> = (0..40).collect();
        let q = plan.quarantined_by_panics(&ids, 2);
        assert!(!q.is_empty() && q.len() < ids.len());
        for id in ids {
            let expect = plan.should_panic(id, 1) && plan.should_panic(id, 2);
            assert_eq!(q.contains(&id), expect);
        }
    }
}
