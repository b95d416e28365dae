//! Cost deltas for experiment reporting.

use powersparse_congest::sim::Metrics;

/// The communication cost of one algorithm run, as a delta between two
/// engine metric snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds consumed (including charged rounds).
    pub rounds: u64,
    /// Of which charged analytically (see the
    /// [substitutions](crate::params#substitutions)).
    pub charged_rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
}

impl RunReport {
    /// The cost between two snapshots (`before` taken first).
    pub fn delta(before: &Metrics, after: &Metrics) -> Self {
        Self {
            rounds: after.rounds - before.rounds,
            charged_rounds: after.charged_rounds - before.charged_rounds,
            messages: after.messages - before.messages,
            bits: after.bits - before.bits,
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds ({} charged), {} msgs, {} bits",
            self.rounds, self.charged_rounds, self.messages, self.bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_congest::sim::{SimConfig, Simulator};
    use powersparse_graphs::generators;

    #[test]
    fn delta_computes_differences() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let before = sim.metrics().clone();
        sim.charge_rounds(7);
        let report = RunReport::delta(&before, sim.metrics());
        assert_eq!(report.rounds, 7);
        assert_eq!(report.charged_rounds, 7);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn display_is_readable() {
        let r = RunReport {
            rounds: 10,
            charged_rounds: 2,
            messages: 5,
            bits: 80,
        };
        assert_eq!(r.to_string(), "10 rounds (2 charged), 5 msgs, 80 bits");
    }
}
