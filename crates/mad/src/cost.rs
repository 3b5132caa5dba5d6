//! The §VI analytic cost model.
//!
//! * Equation 1: `RCt = PCt + LFTDt`
//! * Equation 2: `LFTDt = n · m · (k + r)` (no pipelining)
//! * Equation 3: `RCt = PCt + n · m · (k + r)`
//! * Equation 4: `vSwitch_RCt = n' · m' · (k + r)`
//! * Equation 5: `vSwitch_RCt = n' · m' · k` (destination-routed SMPs)
//!
//! where `n` = switches updated, `m` = LFT blocks per switch, `k` = mean
//! network traversal time per SMP, `r` = mean directed-route processing
//! overhead per SMP.

/// Parameters of the SMP cost model. Times are in microseconds; the paper
/// treats `k` and `r` as topology-averaged constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Mean time for one SMP to traverse the network to its switch (µs).
    pub k_us: f64,
    /// Mean extra time added per SMP by directed-route processing (µs).
    pub r_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Defaults in the ballpark of QDR IB management latencies: a few µs
        // of fabric traversal, and directed routing roughly doubling it.
        Self {
            k_us: 5.0,
            r_us: 4.0,
        }
    }
}

impl CostModel {
    /// Cost of one SMP (µs) under this model.
    #[must_use]
    pub fn per_smp_us(&self, directed: bool) -> f64 {
        if directed {
            self.k_us + self.r_us
        } else {
            self.k_us
        }
    }

    /// Equation 2/3's distribution term `n · m · (k + r)` in µs.
    #[must_use]
    pub fn full_distribution_us(&self, switches: usize, blocks_per_switch: usize) -> f64 {
        (switches * blocks_per_switch) as f64 * self.per_smp_us(true)
    }

    /// Equation 3: full traditional reconfiguration in µs, given a measured
    /// or modeled path-computation time.
    #[must_use]
    pub fn traditional_reconfig_us(
        &self,
        path_computation_us: f64,
        switches: usize,
        blocks_per_switch: usize,
    ) -> f64 {
        path_computation_us + self.full_distribution_us(switches, blocks_per_switch)
    }

    /// Equation 4: vSwitch reconfiguration with directed-routed SMPs, in µs.
    /// `m_prime` is 1 or 2 per §VI-B.
    #[must_use]
    pub fn vswitch_reconfig_directed_us(&self, switches_updated: usize, m_prime: usize) -> f64 {
        debug_assert!(m_prime == 1 || m_prime == 2);
        (switches_updated * m_prime) as f64 * self.per_smp_us(true)
    }

    /// Equation 5: vSwitch reconfiguration with destination-routed SMPs —
    /// `r` eliminated — in µs.
    #[must_use]
    pub fn vswitch_reconfig_destination_us(&self, switches_updated: usize, m_prime: usize) -> f64 {
        debug_assert!(m_prime == 1 || m_prime == 2);
        (switches_updated * m_prime) as f64 * self.per_smp_us(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: CostModel = CostModel {
        k_us: 5.0,
        r_us: 4.0,
    };

    #[test]
    fn per_smp_distinguishes_routing() {
        assert_eq!(MODEL.per_smp_us(true), 9.0);
        assert_eq!(MODEL.per_smp_us(false), 5.0);
    }

    #[test]
    fn equation3_sums_terms() {
        // 36 switches * 6 blocks * 9 µs + PCt.
        let rc = MODEL.traditional_reconfig_us(12_000.0, 36, 6);
        assert!((rc - (12_000.0 + 216.0 * 9.0)).abs() < 1e-9);
    }

    #[test]
    fn equation4_vs_equation5() {
        let e4 = MODEL.vswitch_reconfig_directed_us(10, 2);
        let e5 = MODEL.vswitch_reconfig_destination_us(10, 2);
        assert!(e5 < e4);
        assert!((e4 - 180.0).abs() < 1e-9);
        assert!((e5 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn vswitch_always_beats_full_distribution() {
        // For any subnet with >= 1 block per switch, n'·m'·k <= n·m·(k+r).
        for n in [1usize, 36, 1620] {
            for m in [1usize, 6, 208] {
                let full = MODEL.full_distribution_us(n, m);
                let vsw = MODEL.vswitch_reconfig_destination_us(n, 2.min(m.max(1)));
                assert!(vsw <= full, "n={n} m={m}");
            }
        }
    }
}
