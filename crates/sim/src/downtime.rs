//! End-to-end live-migration downtime timelines.
//!
//! §II-A and the Guay et al. references put SR-IOV live-migration downtime
//! in the *seconds* because the VF must be detached before and re-attached
//! after the move, and §VI argues the network reconfiguration term must not
//! add minutes of path recomputation on top. The timeline model composes:
//!
//! ```text
//! downtime = detach + max(resume-side work) + attach
//!            where the resume-side work overlaps the memory copy only
//!            partially: reconfiguration starts when the SM is signalled.
//! ```

use crate::des::SimTime;
use crate::smp_sim::{SmpLatencyModel, SmpReplay};

/// Parameters of the migration timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DowntimeModel {
    /// Detaching the SR-IOV VF from the running VM (driver unbind).
    pub detach: SimTime,
    /// Re-attaching a VF at the destination (driver probe).
    pub attach: SimTime,
    /// Final stop-and-copy round of the live migration.
    pub stop_and_copy: SimTime,
    /// Latency parameters for replaying the reconfiguration SMPs.
    pub smp: SmpLatencyModel,
    /// Path-computation time charged before any SMP can be sent (zero for
    /// the vSwitch method; minutes for a traditional reconfiguration).
    pub path_computation: SimTime,
}

impl Default for DowntimeModel {
    fn default() -> Self {
        Self {
            // §II-A: direct-device-assignment migration downtime is in the
            // order of seconds; the detach/attach pair dominates.
            detach: SimTime::from_us(400_000.0),
            attach: SimTime::from_us(600_000.0),
            stop_and_copy: SimTime::from_us(30_000.0),
            smp: SmpLatencyModel::default(),
            path_computation: SimTime::ZERO,
        }
    }
}

/// A computed migration timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationTimeline {
    /// Named phases with their durations, in order.
    pub phases: Vec<(String, SimTime)>,
    /// Total VM downtime.
    pub downtime: SimTime,
    /// The network-reconfiguration share of the downtime.
    pub reconfiguration: SimTime,
}

impl MigrationTimeline {
    /// Composes the timeline for a migration whose reconfiguration sent
    /// the given `(hops, directed)` SMPs.
    #[must_use]
    pub fn compose(model: &DowntimeModel, smps: &[(usize, bool)]) -> Self {
        let replay = SmpReplay::run_records(smps, &model.smp);
        let reconfiguration = model.path_computation + replay.makespan;
        let phases = vec![
            ("detach-vf".to_string(), model.detach),
            ("stop-and-copy".to_string(), model.stop_and_copy),
            ("reconfigure-network".to_string(), reconfiguration),
            ("attach-vf".to_string(), model.attach),
        ];
        let downtime = phases.iter().fold(SimTime::ZERO, |acc, (_, d)| acc + *d);
        Self {
            phases,
            downtime,
            reconfiguration,
        }
    }

    /// The reconfiguration share of total downtime, in `[0, 1]`.
    #[must_use]
    pub fn reconfiguration_share(&self) -> f64 {
        if self.downtime.as_ns() == 0 {
            return 0.0;
        }
        self.reconfiguration.as_ns() as f64 / self.downtime.as_ns() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vswitch_reconfig_is_negligible_share() {
        // One SMP, three hops: the vSwitch best case.
        let model = DowntimeModel::default();
        let timeline = MigrationTimeline::compose(&model, &[(3, false)]);
        assert!(timeline.reconfiguration_share() < 0.001);
        assert_eq!(timeline.phases.len(), 4);
    }

    #[test]
    fn traditional_reconfig_dominates() {
        // Minutes of path computation swamp the timeline (§VI-B: "it would
        // take several minutes to complete").
        let model = DowntimeModel {
            path_computation: SimTime::from_us(60_000_000.0), // 60 s
            ..DowntimeModel::default()
        };
        let smps: Vec<(usize, bool)> = vec![(3, true); 336_960]; // Table I worst row
        let timeline = MigrationTimeline::compose(&model, &smps);
        assert!(timeline.reconfiguration_share() > 0.9);
        assert!(timeline.downtime > SimTime::from_us(60_000_000.0));
    }

    #[test]
    fn downtime_sums_phases() {
        let model = DowntimeModel::default();
        let t = MigrationTimeline::compose(&model, &[]);
        let sum = t.phases.iter().fold(SimTime::ZERO, |a, (_, d)| a + *d);
        assert_eq!(t.downtime, sum);
    }
}
