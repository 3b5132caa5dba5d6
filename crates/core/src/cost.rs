//! Table I rows and the full-vs-vSwitch SMP comparison.
//!
//! [`Table1Row::for_subnet`] derives, from an actual configured subnet, the
//! quantities the paper tabulates: consumed LIDs, minimum LFT blocks per
//! switch, the `n·m` SMP floor of a full reconfiguration, and the
//! one-to-`2n` range of the vSwitch method.

use ib_subnet::{lft::min_blocks_for, Subnet};

/// One row of the paper's Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// End nodes (HCAs).
    pub nodes: usize,
    /// Physical switches (`n`).
    pub switches: usize,
    /// Consumed LIDs.
    pub lids: usize,
    /// Minimum LFT blocks per switch (`m`).
    pub min_lft_blocks_per_switch: usize,
    /// Minimum SMPs for a full reconfiguration (`n · m`).
    pub min_smps_full_rc: usize,
    /// Minimum SMPs for a LID swap/copy (always 1).
    pub min_smps_vswitch: usize,
    /// Maximum SMPs for a LID swap/copy (`2 · n`).
    pub max_smps_vswitch: usize,
}

impl Table1Row {
    /// Derives the row from a configured subnet.
    #[must_use]
    pub fn for_subnet(subnet: &Subnet) -> Self {
        let switches = subnet.num_physical_switches();
        let lids = subnet.num_lids();
        let m = subnet.topmost_lid().map_or(0, min_blocks_for);
        Self {
            nodes: subnet.num_hcas(),
            switches,
            lids,
            min_lft_blocks_per_switch: m,
            min_smps_full_rc: switches * m,
            min_smps_vswitch: 1,
            max_smps_vswitch: 2 * switches,
        }
    }

    /// Builds the row from raw counts (`harness cost-model`'s sweep).
    #[must_use]
    pub fn from_counts(nodes: usize, switches: usize, lids: usize) -> Self {
        let m = lids.div_ceil(ib_types::LFT_BLOCK_SIZE);
        Self {
            nodes,
            switches,
            lids,
            min_lft_blocks_per_switch: m,
            min_smps_full_rc: switches * m,
            min_smps_vswitch: 1,
            max_smps_vswitch: 2 * switches,
        }
    }

    /// Worst-case vSwitch SMPs as a share of the full-reconfiguration
    /// floor — the improvement metric §VII-C quotes (33.3% for 324 nodes,
    /// 0.96% for 11664).
    #[must_use]
    pub fn worst_case_ratio(&self) -> f64 {
        if self.min_smps_full_rc == 0 {
            return 0.0;
        }
        self.max_smps_vswitch as f64 / self.min_smps_full_rc as f64
    }
}

/// The paper's Table I, as published, for regression-testing our derived
/// rows against: `(nodes, switches, lids, min blocks, min SMPs full RC,
/// min swap SMPs, max swap SMPs)`.
pub const PAPER_TABLE1: [(usize, usize, usize, usize, usize, usize, usize); 4] = [
    (324, 36, 360, 6, 216, 1, 72),
    (648, 54, 702, 11, 594, 1, 108),
    (5832, 972, 6804, 107, 104004, 1, 1944),
    (11664, 1620, 13284, 208, 336960, 1, 3240),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mad::CostModel;

    #[test]
    fn from_counts_reproduces_published_table() {
        for &(nodes, switches, lids, m, full, min_v, max_v) in &PAPER_TABLE1 {
            let row = Table1Row::from_counts(nodes, switches, lids);
            assert_eq!(row.min_lft_blocks_per_switch, m, "{nodes} nodes");
            assert_eq!(row.min_smps_full_rc, full, "{nodes} nodes");
            assert_eq!(row.min_smps_vswitch, min_v);
            assert_eq!(row.max_smps_vswitch, max_v, "{nodes} nodes");
        }
    }

    #[test]
    fn worst_case_ratios_match_paper_quotes() {
        // §VII-C: 72/216 = 33.3% for 324 nodes; 3240/336960 = 0.96% for
        // 11664 nodes.
        let small = Table1Row::from_counts(324, 36, 360);
        assert!((small.worst_case_ratio() - 0.3333).abs() < 1e-3);
        let large = Table1Row::from_counts(11664, 1620, 13284);
        assert!((large.worst_case_ratio() - 0.0096).abs() < 1e-4);
    }

    #[test]
    fn savings_grow_with_subnet_size() {
        let ratios: Vec<f64> = PAPER_TABLE1
            .iter()
            .map(|&(n, s, l, ..)| Table1Row::from_counts(n, s, l).worst_case_ratio())
            .collect();
        for w in ratios.windows(2) {
            assert!(w[1] < w[0], "the relative cost must shrink as subnets grow");
        }
    }

    #[test]
    fn vswitch_distribution_always_cheaper() {
        let model = CostModel::default();
        for &(n, s, l, ..) in &PAPER_TABLE1 {
            let row = Table1Row::from_counts(n, s, l);
            let full = model.full_distribution_us(row.switches, row.min_lft_blocks_per_switch);
            let vsw = model.vswitch_reconfig_destination_us(row.switches, 2);
            assert!(vsw < full);
            let vsw_directed = model.vswitch_reconfig_directed_us(row.switches, 2);
            assert!(vsw < vsw_directed, "destination routing must win");
        }
    }
}
