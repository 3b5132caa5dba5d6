//! Pins for the one-kernel rule (a full compute is the repair of every
//! column of an empty baseline):
//!
//! * **Golden fingerprints** — `compute` of every engine on a spread of
//!   fabrics and fault states hashes to pinned values, one over the LFTs and
//!   one over the VL assignment. Worker-count invariance
//!   (`parallel_compute.rs`) compares a commit to itself; this compares it
//!   to its parent.
//! * **DFSSSP's lanes** — its layering may lift other paths than it used
//!   to, but never onto more lanes, and it fits a 12×12 torus in its
//!   budget.
//! * **Sticky idempotence** — re-routing columns that are already what the
//!   kernel would pick moves nothing: every column of a fresh compute, and
//!   the dirty set of a repair that has just run.

use ib_observe::Observer;
use ib_routing::dfsssp::verify_layers_acyclic;
use ib_routing::testutil::{assert_full_reachability, assign_lids};
use ib_routing::{EngineKind, RoutingOptions, RoutingTables, SwitchGraph, VlAssignment};
use ib_subnet::topology::{fattree, torus, BuiltTopology};
use ib_subnet::NodeId;
use ib_types::{Lid, PortNum};

const TREE_ENGINES: [EngineKind; 5] = [
    EngineKind::FatTree,
    EngineKind::MinHop,
    EngineKind::UpDown,
    EngineKind::Dfsssp,
    EngineKind::Lash,
];
const ANY_TOPOLOGY_ENGINES: [EngineKind; 4] = [
    EngineKind::MinHop,
    EngineKind::UpDown,
    EngineKind::Dfsssp,
    EngineKind::Lash,
];

/// The fabrics under test, LIDs assigned, with the engines that route them.
fn fabrics() -> Vec<(&'static str, BuiltTopology, &'static [EngineKind])> {
    let mut out: Vec<(&'static str, BuiltTopology, &'static [EngineKind])> = vec![
        ("paper_324", fattree::paper_324(), &TREE_ENGINES),
        (
            "two_level_4_3_2",
            fattree::two_level(4, 3, 2),
            &TREE_ENGINES,
        ),
        (
            "three_level_4_4_4_4",
            fattree::three_level(4, 4, 4, 4),
            &TREE_ENGINES,
        ),
        (
            "torus_4x4",
            torus::torus_2d(4, 4, 1, true),
            &ANY_TOPOLOGY_ENGINES,
        ),
    ];
    for (_, t, _) in &mut out {
        assign_lids(t);
    }
    out
}

/// Every switch–switch cable, once, in (switch, port) order of its
/// lower-indexed end.
fn cables(t: &BuiltTopology) -> Vec<(NodeId, PortNum)> {
    let switches = t.all_switches();
    let mut out = Vec::new();
    for (i, &sw) in switches.iter().enumerate() {
        for (port, remote) in t.subnet.node(sw).connected_ports() {
            if switches[i + 1..].contains(&remote.node) {
                out.push((sw, port));
            }
        }
    }
    out
}

/// Three cables on three distinct switches: the fabric stays connected.
fn three_cables(t: &BuiltTopology) -> Vec<(NodeId, PortNum)> {
    let mut seen = Vec::new();
    let picked: Vec<_> = cables(t)
        .into_iter()
        .filter(|&(sw, _)| {
            let fresh = !seen.contains(&sw);
            seen.push(sw);
            fresh
        })
        .take(3)
        .collect();
    assert_eq!(picked.len(), 3);
    picked
}

/// Every switch-facing cable of the first switch: the fabric splits.
fn sever_first_switch(t: &BuiltTopology) -> Vec<(NodeId, PortNum)> {
    let first = t.all_switches()[0];
    t.subnet
        .node(first)
        .connected_ports()
        .filter(|(_, remote)| t.subnet.node(remote.node).is_switch())
        .map(|(port, _)| (first, port))
        .collect()
}

fn down(t: &mut BuiltTopology, links: &[(NodeId, PortNum)]) {
    for &(node, port) in links {
        t.subnet.set_link_down(node, port).unwrap();
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the LFTs in switch-index order (allocated length included)
/// and the decision count.
fn lft_hash(g: &SwitchGraph, tables: &RoutingTables) -> u64 {
    let mut h = Fnv::new();
    assert_eq!(tables.lfts.len(), g.len());
    for s in 0..g.len() {
        let entries = tables.lfts[&g.node_id(s)].entries();
        h.u64(entries.len() as u64);
        for e in entries {
            h.u64(e.map_or(u64::MAX, |p| u64::from(p.raw())));
        }
    }
    h.u64(tables.decisions);
    h.0
}

/// FNV-1a over the VL assignment: its shape, then the map sorted by key.
fn lane_hash(vls: &VlAssignment) -> u64 {
    let mut h = Fnv::new();
    let mut lanes: Vec<(u64, u64)> = match vls {
        VlAssignment::SingleVl => Vec::new(),
        VlAssignment::PerDestination(m) => m
            .iter()
            .map(|(&lid, l)| (u64::from(lid), u64::from(l.raw())))
            .collect(),
        VlAssignment::PerSwitchPair(m) => m
            .iter()
            .map(|(&(a, b), l)| (u64::from(a) << 32 | u64::from(b), u64::from(l.raw())))
            .collect(),
        VlAssignment::PerSourceDestination(m) => m
            .iter()
            .map(|(&(a, lid), l)| (u64::from(a) << 32 | u64::from(lid), u64::from(l.raw())))
            .collect(),
    };
    lanes.sort_unstable();
    h.u64(match vls {
        VlAssignment::SingleVl => 0,
        VlAssignment::PerDestination(_) => 1,
        VlAssignment::PerSwitchPair(_) => 2,
        VlAssignment::PerSourceDestination(_) => 3,
    });
    for (k, l) in lanes {
        h.u64(k);
        h.u64(l);
    }
    h.0
}

/// `(fabric/state/engine, LFT hash, lane hash)`, both generated at commit
/// 17b9da3, whose single fingerprints still matched the ones generated at
/// 5ae2471, before the engines' compute/repair twins were merged. DFSSSP's
/// lane hashes on `paper_324/three_cables_down` and on every
/// `three_level_4_4_4_4` and `torus_4x4` state were re-pinned when its
/// layering moved onto the counted CDG, whose canonical cycle search lifts
/// other paths; its LFTs did not move.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("paper_324/pristine/fat-tree", 0xebd3dbec7605da1b, 0x86e090be1da44c40),
    ("paper_324/pristine/minhop", 0x87823bb5b89ad87b, 0x86e090be1da44c40),
    ("paper_324/pristine/up-down", 0xfcb46a7a71d9ea6c, 0xa8c7f832281a39c5),
    ("paper_324/pristine/dfsssp", 0x05c5ae5a0afbcca3, 0xb77e931414768b02),
    ("paper_324/pristine/lash", 0x70c541367904c2ee, 0xa8c7f832281a39c5),
    ("paper_324/three_cables_down/fat-tree", 0x97e147fc704d73ce, 0x86e090be1da44c40),
    ("paper_324/three_cables_down/minhop", 0x93654bac40b73e3f, 0x86e090be1da44c40),
    ("paper_324/three_cables_down/up-down", 0x2f1ba8049496956b, 0xa8c7f832281a39c5),
    ("paper_324/three_cables_down/dfsssp", 0xae5f91d87ce89271, 0x22ab3c4e23a6ac82),
    ("paper_324/three_cables_down/lash", 0x1d67cfaf721f0345, 0xa8c7f832281a39c5),
    ("paper_324/first_switch_severed/fat-tree", 0xe7113954aad22f68, 0x86e090be1da44c40),
    ("paper_324/first_switch_severed/minhop", 0xd89550bcb37abde8, 0x86e090be1da44c40),
    ("paper_324/first_switch_severed/up-down", 0x935f2f0f1233f002, 0xa8c7f832281a39c5),
    ("paper_324/first_switch_severed/dfsssp", 0xdde1b2ef1045952a, 0x9215c829a6840546),
    ("paper_324/first_switch_severed/lash", 0xc7566e191ebe2ee5, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/pristine/fat-tree", 0x24671e2f218ea209, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/pristine/minhop", 0x016b5ea0fa09c0c9, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/pristine/up-down", 0x981d8ce19970d148, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/pristine/dfsssp", 0x1873e67df9a87dcc, 0x6e9c0f2cd9d65190),
    ("two_level_4_3_2/pristine/lash", 0xc0cedfcae8203e3d, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/three_cables_down/fat-tree", 0x0ba51f91bcd9bf88, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/three_cables_down/minhop", 0x0ba51f91bcd9bf88, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/three_cables_down/up-down", 0x0ba51f91bcd9bf88, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/three_cables_down/dfsssp", 0x0ba51f91bcd9bf88, 0x6e9c0f2cd9d65190),
    ("two_level_4_3_2/three_cables_down/lash", 0x551d2506a98ce640, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/first_switch_severed/fat-tree", 0x1a86699bf13f62b8, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/first_switch_severed/minhop", 0xa23c91134d67c2b9, 0xc9fae9e3803e4563),
    ("two_level_4_3_2/first_switch_severed/up-down", 0xbf6aa9c0079805be, 0xa8c7f832281a39c5),
    ("two_level_4_3_2/first_switch_severed/dfsssp", 0x50e338371e572e9f, 0xc0a2dcda217758c6),
    ("two_level_4_3_2/first_switch_severed/lash", 0xc1e2895107d400dc, 0xa8c7f832281a39c5),
    ("three_level_4_4_4_4/pristine/fat-tree", 0xadadc1e63458b5ce, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/pristine/minhop", 0x734c8b9d180123ce, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/pristine/up-down", 0x9a43d44036071ece, 0xa8c7f832281a39c5),
    ("three_level_4_4_4_4/pristine/dfsssp", 0x85ce9bf27a219568, 0xe819a76e4fec1977),
    ("three_level_4_4_4_4/pristine/lash", 0x59b84a730bd64da1, 0x186763d57a1381c6),
    ("three_level_4_4_4_4/three_cables_down/fat-tree", 0xa957282c05e88177, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/three_cables_down/minhop", 0xfe065ab514901bf7, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/three_cables_down/up-down", 0x42746bfe8761c9d0, 0xa8c7f832281a39c5),
    ("three_level_4_4_4_4/three_cables_down/dfsssp", 0x3ad0c79adf497503, 0x1e75ae4b0a694810),
    ("three_level_4_4_4_4/three_cables_down/lash", 0x98836c84ee5dabea, 0xd07d0fcbb566d3f2),
    ("three_level_4_4_4_4/first_switch_severed/fat-tree", 0x73c28be600f29f23, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/first_switch_severed/minhop", 0xc9fd9df7271e67a3, 0x07e40d8854c165d4),
    ("three_level_4_4_4_4/first_switch_severed/up-down", 0x469a35bd366302af, 0xa8c7f832281a39c5),
    ("three_level_4_4_4_4/first_switch_severed/dfsssp", 0x8fe6ed43e3b16935, 0x4ccc4a3a00116e64),
    ("three_level_4_4_4_4/first_switch_severed/lash", 0x7a3ebbf1fb0e0578, 0xfc3676ac81eb8266),
    ("torus_4x4/pristine/minhop", 0xf34d8d3d7e57afb0, 0x8d55249dde7ccbb4),
    ("torus_4x4/pristine/up-down", 0x50f0c1fea3f4028b, 0xa8c7f832281a39c5),
    ("torus_4x4/pristine/dfsssp", 0x574daf589962f810, 0xed8499a4ecd062c7),
    ("torus_4x4/pristine/lash", 0xce76f4ae3c594b59, 0x7b2d260ed1b2c45f),
    ("torus_4x4/three_cables_down/minhop", 0x071d4a56df2a6fbd, 0x8d55249dde7ccbb4),
    ("torus_4x4/three_cables_down/up-down", 0x95ef0f38332c6b39, 0xa8c7f832281a39c5),
    ("torus_4x4/three_cables_down/dfsssp", 0x831d95107f557e5d, 0x8406175f0083d1e1),
    ("torus_4x4/three_cables_down/lash", 0xdae80c460750b9bd, 0xda52f23177d39d7c),
    ("torus_4x4/first_switch_severed/minhop", 0x82963d20da2aaf5a, 0x8d55249dde7ccbb4),
    ("torus_4x4/first_switch_severed/up-down", 0xc5bc3221c382e859, 0xa8c7f832281a39c5),
    ("torus_4x4/first_switch_severed/dfsssp", 0xe5fbf2946f6c4bb9, 0x7148f4b5c1e5df52),
    ("torus_4x4/first_switch_severed/lash", 0xa871d948b6479cd4, 0x077d8db9c83f549c),
];

/// The fault states every fabric is routed in: `(name, links down)`.
fn states(pristine: &BuiltTopology) -> [(&'static str, Vec<(NodeId, PortNum)>); 3] {
    [
        ("pristine", Vec::new()),
        ("three_cables_down", three_cables(pristine)),
        ("first_switch_severed", sever_first_switch(pristine)),
    ]
}

/// Every `(fabric/state/engine, tables)` the golden table covers, in its
/// order.
fn computed() -> Vec<(String, SwitchGraph, RoutingTables)> {
    let mut out = Vec::new();
    for (name, pristine, engines) in fabrics() {
        for (state, links) in states(&pristine) {
            let mut t = pristine.clone();
            down(&mut t, &links);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            for &kind in engines {
                let tables = kind
                    .build()
                    .compute(&t.subnet)
                    .unwrap_or_else(|e| panic!("{name}/{state}/{kind}: {e}"));
                out.push((format!("{name}/{state}/{kind}"), g.clone(), tables));
            }
        }
    }
    out
}

#[test]
fn compute_matches_the_fingerprints_of_the_forked_engines() {
    let actual: Vec<(String, u64, u64)> = computed()
        .into_iter()
        .map(|(tag, g, tables)| {
            let lfts = lft_hash(&g, &tables);
            (tag, lfts, lane_hash(&tables.vls))
        })
        .collect();
    let golden: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(k, lfts, lanes)| (k.to_string(), lfts, lanes))
        .collect();
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|(k, lfts, lanes)| format!("    (\"{k}\", {lfts:#018x}, {lanes:#018x}),\n"))
            .collect();
        panic!("fingerprints moved; the table as computed now:\n{table}");
    }
}

/// DFSSSP's lanes used per fabric, in the order of [`states`], measured
/// at commit 17b9da3.
const DFSSSP_LANES: &[(&str, [usize; 3])] = &[
    ("paper_324", [2, 3, 2]),
    ("two_level_4_3_2", [2, 2, 2]),
    ("three_level_4_4_4_4", [5, 5, 5]),
    ("torus_4x4", [4, 4, 4]),
];

#[test]
fn dfsssp_never_uses_more_lanes_than_its_pinned_count() {
    for (name, pristine, _) in fabrics() {
        let (_, pinned) = DFSSSP_LANES.iter().find(|(n, _)| *n == name).unwrap();
        for ((state, links), &pinned) in states(&pristine).into_iter().zip(pinned) {
            let mut t = pristine.clone();
            down(&mut t, &links);
            let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
            let used = tables.vls.lanes_used();
            assert!(used <= pinned, "{name}/{state}: {used} lanes > {pinned}");
        }
    }
}

#[test]
fn dfsssp_layers_a_12x12_torus_within_its_lane_budget() {
    let mut t = torus::torus_2d(12, 12, 1, true);
    assign_lids(&mut t);
    let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
    assert!(tables.vls.lanes_used() <= 15, "{}", tables.vls.lanes_used());
    assert_full_reachability(&t.subnet, &tables);
    verify_layers_acyclic(&t.subnet, &tables).unwrap();
}

fn repair(
    kind: EngineKind,
    g: &SwitchGraph,
    tables: &mut RoutingTables,
    dirty: &[Lid],
) -> ib_routing::SpliceLog {
    kind.build()
        .repair_with_graph(
            g,
            RoutingOptions::default(),
            tables,
            dirty,
            &Observer::disabled(),
        )
        .unwrap_or_else(|e| panic!("{kind} repair: {e}"))
}

#[test]
fn repairing_every_column_of_a_fresh_compute_moves_nothing() {
    for (name, pristine, engines) in fabrics() {
        for links in [Vec::new(), three_cables(&pristine)] {
            let mut t = pristine.clone();
            down(&mut t, &links);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            for &kind in engines {
                let fresh = kind.build().compute(&t.subnet).unwrap();
                let mut tables = fresh.clone();
                let log = repair(kind, &g, &mut tables, &t.subnet.lids());
                let tag = format!("{name}/{} down/{kind}", links.len());
                assert_eq!(log.cells, Vec::new(), "{tag}");
                assert_eq!(tables.lfts, fresh.lfts, "{tag}");
                assert_eq!(tables.vls, fresh.vls, "{tag}");
            }
        }
    }
}

#[test]
fn repeating_a_repair_moves_nothing() {
    for (name, mut t, engines) in fabrics() {
        for &kind in engines {
            let mut tables = kind.build().compute(&t.subnet).unwrap();
            // The first cable some installed route crosses, and the columns
            // that cross it from either end.
            let (cable, dirty) = cables(&t)
                .into_iter()
                .find_map(|(node, port)| {
                    let far = t.subnet.neighbor(node, port).unwrap();
                    let dirty: Vec<Lid> = t
                        .subnet
                        .lids()
                        .into_iter()
                        .filter(|&lid| {
                            tables.lfts[&node].get(lid) == Some(port)
                                || tables.lfts[&far.node].get(lid) == Some(far.port)
                        })
                        .collect();
                    (!dirty.is_empty()).then_some(((node, port), dirty))
                })
                .expect("some cable carries a route");
            t.subnet.set_link_down(cable.0, cable.1).unwrap();
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let first = repair(kind, &g, &mut tables, &dirty);
            assert!(!first.cells.is_empty(), "{name}/{kind}: the fault moved");
            // Cells only: DFSSSP restarts every dirty path on its base lane,
            // so a repeat may settle the same routes on other lanes.
            let lfts = tables.lfts.clone();
            let second = repair(kind, &g, &mut tables, &dirty);
            assert_eq!(second.cells, Vec::new(), "{name}/{kind}");
            assert_eq!(tables.lfts, lfts, "{name}/{kind}");
            t.subnet.set_link_up(cable.0, cable.1).unwrap();
        }
    }
}

/// `(fabric/engine/workers, LFT hash, log length)` of the sticky repair in
/// [`sticky_repairs_match_their_fingerprints`], generated at commit
/// d32ccc8, before the fat-tree and Min-Hop engines shared one host-lane
/// fill.
#[rustfmt::skip]
const REPAIR_GOLDEN: &[(&str, u64, usize)] = &[
    ("paper_324/fat-tree/1", 0x124c29f7c747a67e, 104),
    ("paper_324/fat-tree/2", 0x124c29f7c747a67e, 104),
    ("paper_324/minhop/1", 0x429b2efc6a27d946, 40),
    ("paper_324/minhop/2", 0x429b2efc6a27d946, 40),
    ("two_level_4_3_2/fat-tree/1", 0xea7ce23bb7bb284d, 25),
    ("two_level_4_3_2/fat-tree/2", 0xea7ce23bb7bb284d, 25),
    ("two_level_4_3_2/minhop/1", 0xf0619831093f884d, 25),
    ("two_level_4_3_2/minhop/2", 0xf0619831093f884d, 25),
    ("three_level_4_4_4_4/fat-tree/1", 0x458ead84c58dc6c3, 109),
    ("three_level_4_4_4_4/fat-tree/2", 0x458ead84c58dc6c3, 109),
    ("three_level_4_4_4_4/minhop/1", 0x7a0bc24ec5355c5c, 105),
    ("three_level_4_4_4_4/minhop/2", 0x7a0bc24ec5355c5c, 105),
    ("torus_4x4/minhop/1", 0x9437579a0a39fd9a, 34),
    ("torus_4x4/minhop/2", 0x9437579a0a39fd9a, 34),
];

/// The repair the SM answers a link-down with, pinned byte for byte: the
/// pristine tables of every tree fixture (and the 4×4 torus for Min-Hop)
/// repaired on the `three_cables_down` graph, with every destination dirty
/// except every third — the clean host columns seed Min-Hop's port loads,
/// and the carried distance field scopes the fat-tree's visit. At 1 and 2
/// workers.
#[test]
fn sticky_repairs_match_their_fingerprints() {
    let mut actual: Vec<(String, u64, usize)> = Vec::new();
    for (name, pristine, engines) in fabrics() {
        let degraded = {
            let mut t = pristine.clone();
            down(&mut t, &three_cables(&pristine));
            t
        };
        let g = SwitchGraph::build(&degraded.subnet).unwrap();
        let lids = degraded.subnet.lids();
        let dirty: Vec<Lid> = (lids.iter().enumerate())
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &lid)| lid)
            .collect();
        let kinds = [EngineKind::FatTree, EngineKind::MinHop];
        for kind in kinds.into_iter().filter(|k| engines.contains(k)) {
            let before = kind.build().compute(&pristine.subnet).unwrap();
            for workers in [1usize, 2] {
                let mut tables = before.clone();
                let log = kind
                    .build()
                    .repair_with_graph(
                        &g,
                        RoutingOptions::default().with_workers(workers),
                        &mut tables,
                        &dirty,
                        &Observer::disabled(),
                    )
                    .unwrap_or_else(|e| panic!("{name}/{kind}/{workers}: {e}"));
                let tag = format!("{name}/{kind}/{workers}");
                actual.push((tag, lft_hash(&g, &tables), log.cells.len()));
            }
        }
    }
    let golden: Vec<(String, u64, usize)> = REPAIR_GOLDEN
        .iter()
        .map(|&(k, lfts, cells)| (k.to_string(), lfts, cells))
        .collect();
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|(k, lfts, cells)| format!("    (\"{k}\", {lfts:#018x}, {cells}),\n"))
            .collect();
        panic!("repair fingerprints moved; the table as computed now:\n{table}");
    }
}
