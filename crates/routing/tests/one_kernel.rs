//! Pins for the one-kernel rule (a full compute is the repair of every
//! column of an empty baseline):
//!
//! * **Golden fingerprints** — `compute` of every engine on a spread of
//!   fabrics and fault states hashes to a value generated at the commit
//!   *before* the engines' compute/repair twins were merged. Worker-count
//!   invariance (`parallel_compute.rs`) compares a commit to itself; this
//!   compares it to its parent.
//! * **Sticky idempotence** — re-routing columns that are already what the
//!   kernel would pick moves nothing: every column of a fresh compute, and
//!   the dirty set of a repair that has just run.

use ib_observe::Observer;
use ib_routing::testutil::assign_lids;
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

/// FNV-1a over the LFTs in switch-index order (allocated length included),
/// the VL map sorted by key, and the decision count.
fn fingerprint(g: &SwitchGraph, tables: &RoutingTables) -> u64 {
    let mut h = Fnv::new();
    assert_eq!(tables.lfts.len(), g.len());
    for s in 0..g.len() {
        let entries = tables.lfts[&g.node_id(s)].entries();
        h.u64(entries.len() as u64);
        for e in entries {
            h.u64(e.map_or(u64::MAX, |p| u64::from(p.raw())));
        }
    }
    let mut lanes: Vec<(u64, u64)> = match &tables.vls {
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
    h.u64(match &tables.vls {
        VlAssignment::SingleVl => 0,
        VlAssignment::PerDestination(_) => 1,
        VlAssignment::PerSwitchPair(_) => 2,
        VlAssignment::PerSourceDestination(_) => 3,
    });
    for (k, l) in lanes {
        h.u64(k);
        h.u64(l);
    }
    h.u64(tables.decisions);
    h.0
}

/// `(fabric/state/engine, fingerprint)`, generated at the parent of the
/// one-kernel change (commit 5ae2471) by running this test with an empty
/// table and copying the printed one.
const GOLDEN: &[(&str, u64)] = &[
    ("paper_324/pristine/fat-tree", 0x6e08e3c3ed8b522a),
    ("paper_324/pristine/minhop", 0x10b3fd37f98ef3ca),
    ("paper_324/pristine/up-down", 0xfdf819770d088fac),
    ("paper_324/pristine/dfsssp", 0x9c41979643adc9e8),
    ("paper_324/pristine/lash", 0x63c08c4abc012c0e),
    ("paper_324/three_cables_down/fat-tree", 0x9135e064ef0e11c7),
    ("paper_324/three_cables_down/minhop", 0x282ba14369f35906),
    ("paper_324/three_cables_down/up-down", 0x1f65e639345cae8b),
    ("paper_324/three_cables_down/dfsssp", 0x3a99665c3b87a675),
    ("paper_324/three_cables_down/lash", 0x3a573d21fa6af785),
    (
        "paper_324/first_switch_severed/fat-tree",
        0xc8768d7bace68391,
    ),
    ("paper_324/first_switch_severed/minhop", 0xfb22b6b744190011),
    ("paper_324/first_switch_severed/up-down", 0x2487491feeeb9082),
    ("paper_324/first_switch_severed/dfsssp", 0x5edace6808abb38d),
    ("paper_324/first_switch_severed/lash", 0xe663d9b58162c725),
    ("two_level_4_3_2/pristine/fat-tree", 0x6e661c081773748f),
    ("two_level_4_3_2/pristine/minhop", 0xce9d6f06e4e9fc4f),
    ("two_level_4_3_2/pristine/up-down", 0xa4a4489a70f0cdc8),
    ("two_level_4_3_2/pristine/dfsssp", 0x6aeb162aefcb3ad9),
    ("two_level_4_3_2/pristine/lash", 0x2d334976f55c23dd),
    (
        "two_level_4_3_2/three_cables_down/fat-tree",
        0xbfdb660293de84ee,
    ),
    (
        "two_level_4_3_2/three_cables_down/minhop",
        0xbfdb660293de84ee,
    ),
    (
        "two_level_4_3_2/three_cables_down/up-down",
        0x8963c39456fd1408,
    ),
    (
        "two_level_4_3_2/three_cables_down/dfsssp",
        0xc663619f81783d1d,
    ),
    ("two_level_4_3_2/three_cables_down/lash", 0xcda2d21432fa5bc0),
    (
        "two_level_4_3_2/first_switch_severed/fat-tree",
        0x1bbb868e998e4e1e,
    ),
    (
        "two_level_4_3_2/first_switch_severed/minhop",
        0x49297c172b4b6c3f,
    ),
    (
        "two_level_4_3_2/first_switch_severed/up-down",
        0x0df693aacd0ba37e,
    ),
    (
        "two_level_4_3_2/first_switch_severed/dfsssp",
        0x2601f6945eb34adc,
    ),
    (
        "two_level_4_3_2/first_switch_severed/lash",
        0x0524b4fd70fa745c,
    ),
    ("three_level_4_4_4_4/pristine/fat-tree", 0x2569ed7e44388a13),
    ("three_level_4_4_4_4/pristine/minhop", 0xd0f1805d72e2b813),
    ("three_level_4_4_4_4/pristine/up-down", 0x688f7e5907bc696e),
    ("three_level_4_4_4_4/pristine/dfsssp", 0xceccaaf07eecfd85),
    ("three_level_4_4_4_4/pristine/lash", 0xdf3937fb4e43a6aa),
    (
        "three_level_4_4_4_4/three_cables_down/fat-tree",
        0xeb7cfeaef326a832,
    ),
    (
        "three_level_4_4_4_4/three_cables_down/minhop",
        0x1cf000a4916892b2,
    ),
    (
        "three_level_4_4_4_4/three_cables_down/up-down",
        0x3d464c6fb863dcb0,
    ),
    (
        "three_level_4_4_4_4/three_cables_down/dfsssp",
        0x2498b31ff4b9336d,
    ),
    (
        "three_level_4_4_4_4/three_cables_down/lash",
        0x97583311cf3c3115,
    ),
    (
        "three_level_4_4_4_4/first_switch_severed/fat-tree",
        0xc9da5b6180b3965e,
    ),
    (
        "three_level_4_4_4_4/first_switch_severed/minhop",
        0x2cde8d52ef736ede,
    ),
    (
        "three_level_4_4_4_4/first_switch_severed/up-down",
        0xa69cc171c55309af,
    ),
    (
        "three_level_4_4_4_4/first_switch_severed/dfsssp",
        0x9d288f4842f78f6f,
    ),
    (
        "three_level_4_4_4_4/first_switch_severed/lash",
        0x632a2dbcafb81ecf,
    ),
    ("torus_4x4/pristine/minhop", 0x3ff57565ea0abe2d),
    ("torus_4x4/pristine/up-down", 0x06b0d74834bad4ab),
    ("torus_4x4/pristine/dfsssp", 0x7649f52b7635c4a7),
    ("torus_4x4/pristine/lash", 0xd6616f67976d37d3),
    ("torus_4x4/three_cables_down/minhop", 0xd64a3bdd989a5500),
    ("torus_4x4/three_cables_down/up-down", 0xd41c4e6d0829f999),
    ("torus_4x4/three_cables_down/dfsssp", 0xb4764788299c6f9a),
    ("torus_4x4/three_cables_down/lash", 0xd00de8bfad0200d4),
    ("torus_4x4/first_switch_severed/minhop", 0xafcdcb59d91196bf),
    ("torus_4x4/first_switch_severed/up-down", 0x40e4ba03b45b5ab9),
    ("torus_4x4/first_switch_severed/dfsssp", 0x6a852923aba15e2a),
    ("torus_4x4/first_switch_severed/lash", 0x11c0cbd66369e7cd),
];

#[test]
fn compute_matches_the_fingerprints_of_the_forked_engines() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (name, pristine, engines) in fabrics() {
        let states: [(&str, Vec<(NodeId, PortNum)>); 3] = [
            ("pristine", Vec::new()),
            ("three_cables_down", three_cables(&pristine)),
            ("first_switch_severed", sever_first_switch(&pristine)),
        ];
        for (state, links) in states {
            let mut t = pristine.clone();
            down(&mut t, &links);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            for &kind in engines {
                let tables = kind
                    .build()
                    .compute(&t.subnet)
                    .unwrap_or_else(|e| panic!("{name}/{state}/{kind}: {e}"));
                actual.push((format!("{name}/{state}/{kind}"), fingerprint(&g, &tables)));
            }
        }
    }
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n"))
            .collect();
        panic!("fingerprints moved; the table as computed now:\n{table}");
    }
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
