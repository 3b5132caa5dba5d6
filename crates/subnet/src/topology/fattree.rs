//! Regular fat trees built from fixed-radix switches, including the four
//! evaluation topologies of the paper (Table I / Fig. 7), all based on
//! 36-port switches:
//!
//! | preset | levels | hosts | switches |
//! |---|---|---|---|
//! | [`paper_324`]   | 2 | 324   | 36   |
//! | [`paper_648`]   | 2 | 648   | 54   |
//! | [`paper_5832`]  | 3 | 5832  | 972  |
//! | [`paper_11664`] | 3 | 11664 | 1620 |

use ib_types::PortNum;

use crate::subnet::Subnet;

use super::BuiltTopology;

/// Builds a two-level fat tree.
///
/// Every leaf switch carries `hosts_per_leaf` hosts on its down ports and
/// one uplink to *each* of the `num_spines` spine switches, so leaf radix is
/// `hosts_per_leaf + num_spines` and spine radix is `num_leaves`.
///
/// `paper_324` is `two_level(18, 18, 18)` (spines half-populated);
/// `paper_648` is `two_level(36, 18, 18)` (fully-provisioned 36-port tree).
#[must_use]
pub fn two_level(num_leaves: usize, hosts_per_leaf: usize, num_spines: usize) -> BuiltTopology {
    let mut subnet = Subnet::new();
    let leaf_radix = (hosts_per_leaf + num_spines) as u8;
    let spine_radix = num_leaves as u8;

    let leaves: Vec<_> = (0..num_leaves)
        .map(|i| subnet.add_switch(format!("leaf-{i}"), leaf_radix))
        .collect();
    let spines: Vec<_> = (0..num_spines)
        .map(|i| subnet.add_switch(format!("spine-{i}"), spine_radix))
        .collect();

    let mut hosts = Vec::with_capacity(num_leaves * hosts_per_leaf);
    for (li, &leaf) in leaves.iter().enumerate() {
        // Down ports 1..=hosts_per_leaf carry hosts.
        for h in 0..hosts_per_leaf {
            let host = subnet.add_hca(format!("host-{}", li * hosts_per_leaf + h));
            subnet
                .connect(leaf, PortNum::new(h as u8 + 1), host, PortNum::new(1))
                .expect("fat-tree host wiring");
            hosts.push(host);
        }
        // Up ports hosts_per_leaf+1.. carry one link per spine.
        for (si, &spine) in spines.iter().enumerate() {
            subnet
                .connect(
                    leaf,
                    PortNum::new((hosts_per_leaf + si) as u8 + 1),
                    spine,
                    PortNum::new(li as u8 + 1),
                )
                .expect("fat-tree spine wiring");
        }
    }

    let built = BuiltTopology {
        subnet,
        hosts,
        switch_levels: vec![leaves, spines],
        name: format!("fat-tree-2L-{}", num_leaves * hosts_per_leaf),
    };
    debug_assert!(built.subnet.validate(true).is_ok());
    built
}

/// Builds a three-level fat tree organized in pods.
///
/// Each pod holds `leaves_per_pod` leaf switches (each with `hosts_per_leaf`
/// hosts and one uplink to every one of the pod's `mids_per_pod` middle
/// switches) and `mids_per_pod` middle switches, each with
/// `leaves_per_pod` core uplinks. Core switch `(m, j)` — for
/// `m < mids_per_pod`, `j < leaves_per_pod` — connects to middle switch `m`
/// of every pod, giving `mids_per_pod * leaves_per_pod` cores.
///
/// `paper_5832` is `three_level(18, 18, 18, 18)`;
/// `paper_11664` is `three_level(36, 18, 18, 18)`.
#[must_use]
pub fn three_level(
    num_pods: usize,
    leaves_per_pod: usize,
    hosts_per_leaf: usize,
    mids_per_pod: usize,
) -> BuiltTopology {
    let mut subnet = Subnet::new();
    let num_cores = mids_per_pod * leaves_per_pod;
    let leaf_radix = (hosts_per_leaf + mids_per_pod) as u8;
    let mid_radix = (leaves_per_pod + leaves_per_pod) as u8;
    let core_radix = num_pods as u8;

    let mut leaves = Vec::with_capacity(num_pods * leaves_per_pod);
    let mut mids = Vec::with_capacity(num_pods * mids_per_pod);
    for p in 0..num_pods {
        for l in 0..leaves_per_pod {
            leaves.push(subnet.add_switch(format!("leaf-{p}-{l}"), leaf_radix));
        }
        for m in 0..mids_per_pod {
            mids.push(subnet.add_switch(format!("mid-{p}-{m}"), mid_radix));
        }
    }
    let cores: Vec<_> = (0..num_cores)
        .map(|c| subnet.add_switch(format!("core-{c}"), core_radix))
        .collect();

    let mut hosts = Vec::with_capacity(num_pods * leaves_per_pod * hosts_per_leaf);
    for p in 0..num_pods {
        for l in 0..leaves_per_pod {
            let leaf = leaves[p * leaves_per_pod + l];
            for h in 0..hosts_per_leaf {
                let idx = (p * leaves_per_pod + l) * hosts_per_leaf + h;
                let host = subnet.add_hca(format!("host-{idx}"));
                subnet
                    .connect(leaf, PortNum::new(h as u8 + 1), host, PortNum::new(1))
                    .expect("fat-tree host wiring");
                hosts.push(host);
            }
            for m in 0..mids_per_pod {
                let mid = mids[p * mids_per_pod + m];
                subnet
                    .connect(
                        leaf,
                        PortNum::new((hosts_per_leaf + m) as u8 + 1),
                        mid,
                        PortNum::new(l as u8 + 1),
                    )
                    .expect("fat-tree mid wiring");
            }
        }
        for m in 0..mids_per_pod {
            let mid = mids[p * mids_per_pod + m];
            for j in 0..leaves_per_pod {
                let core = cores[m * leaves_per_pod + j];
                subnet
                    .connect(
                        mid,
                        PortNum::new((leaves_per_pod + j) as u8 + 1),
                        core,
                        PortNum::new(p as u8 + 1),
                    )
                    .expect("fat-tree core wiring");
            }
        }
    }

    let built = BuiltTopology {
        subnet,
        hosts,
        switch_levels: vec![leaves, mids, cores],
        name: format!("fat-tree-3L-{}", num_pods * leaves_per_pod * hosts_per_leaf),
    };
    debug_assert!(built.subnet.validate(true).is_ok());
    built
}

/// The paper's 324-node, 36-switch two-level fat tree.
#[must_use]
pub fn paper_324() -> BuiltTopology {
    two_level(18, 18, 18)
}

/// The paper's 648-node, 54-switch two-level fat tree.
#[must_use]
pub fn paper_648() -> BuiltTopology {
    two_level(36, 18, 18)
}

/// The paper's 5832-node, 972-switch three-level fat tree.
#[must_use]
pub fn paper_5832() -> BuiltTopology {
    three_level(18, 18, 18, 18)
}

/// The paper's 11664-node, 1620-switch three-level fat tree.
#[must_use]
pub fn paper_11664() -> BuiltTopology {
    three_level(36, 18, 18, 18)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_two_level_shape() {
        let t = two_level(4, 3, 2);
        assert_eq!(t.num_hosts(), 12);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.leaves().len(), 4);
        t.subnet.validate(true).unwrap();
        // Links: 12 host links + 4 leaves * 2 spines.
        assert_eq!(t.subnet.num_links(), 12 + 8);
    }

    #[test]
    fn small_three_level_shape() {
        let t = three_level(2, 2, 2, 2);
        assert_eq!(t.num_hosts(), 8);
        // 4 leaves + 4 mids + 4 cores.
        assert_eq!(t.num_switches(), 12);
        t.subnet.validate(true).unwrap();
        // 8 host + 8 leaf-mid + 8 mid-core links.
        assert_eq!(t.subnet.num_links(), 24);
    }

    #[test]
    fn paper_324_matches_table1_row() {
        let t = paper_324();
        assert_eq!(t.num_hosts(), 324);
        assert_eq!(t.num_switches(), 36);
        t.subnet.validate(true).unwrap();
    }

    #[test]
    fn paper_648_matches_table1_row() {
        let t = paper_648();
        assert_eq!(t.num_hosts(), 648);
        assert_eq!(t.num_switches(), 54);
        t.subnet.validate(true).unwrap();
    }

    #[test]
    #[ignore = "builds a 6804-node graph; run with --ignored"]
    fn paper_5832_matches_table1_row() {
        let t = paper_5832();
        assert_eq!(t.num_hosts(), 5832);
        assert_eq!(t.num_switches(), 972);
        t.subnet.validate(true).unwrap();
    }

    #[test]
    #[ignore = "builds a 13284-node graph; run with --ignored"]
    fn paper_11664_matches_table1_row() {
        let t = paper_11664();
        assert_eq!(t.num_hosts(), 11664);
        assert_eq!(t.num_switches(), 1620);
        t.subnet.validate(true).unwrap();
    }

    #[test]
    fn leaf_switches_match_level_zero() {
        let t = two_level(4, 3, 2);
        let mut from_subnet = t.subnet.leaf_switches();
        from_subnet.sort();
        let mut from_builder = t.leaves().to_vec();
        from_builder.sort();
        assert_eq!(from_subnet, from_builder);
    }

    #[test]
    fn no_leaf_radix_overflow_in_presets() {
        // 36-port switches throughout: every node's port array is <= 37.
        let t = paper_324();
        for n in t.subnet.nodes() {
            assert!(n.num_external_ports() <= 36, "{} too wide", n.name);
        }
    }
}
