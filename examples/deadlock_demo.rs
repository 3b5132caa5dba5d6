//! Deadlock, made visible (§VI-C): a cyclic routing function wedges a
//! credit-gated fabric; IB timeouts recover it with packet loss; virtual
//! lanes (DFSSSP) avoid it outright.
//!
//! ```sh
//! cargo run --example deadlock_demo
//! ```

use ib_vswitch::prelude::*;
use ib_vswitch::routing::cdg::Cdg;
use ib_vswitch::routing::graph::SwitchGraph;
use ib_vswitch::sim::credit::{run, CreditSimConfig, Flow};
use ib_vswitch::topology::torus;

fn main() {
    // A 4x4 torus: rings everywhere. Bring it up with plain Min-Hop
    // (shortest paths, no deadlock avoidance).
    let mut t = torus::torus_2d(4, 4, 1, true);
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::MinHop,
            smp_mode: SmpMode::Directed,
            ..SmConfig::default()
        },
    );
    sm.bring_up(&mut t.subnet).expect("bring-up");

    // The CDG says: cycle.
    let g = SwitchGraph::build(&t.subnet).expect("graph");
    let tables = EngineKind::MinHop
        .build()
        .compute(&t.subnet)
        .expect("routing");
    let cdg = Cdg::from_tables(&g, &tables, |_| true);
    let cycle = cdg.find_cycle(0);
    println!(
        "min-hop on 4x4 torus: CDG has {} dependencies, cycle: {}",
        cdg.dependencies(0),
        cycle.map_or("none".into(), |c| format!("{} channels", c.len()))
    );

    // All-to-all traffic, tight buffers.
    let mut flows = Vec::new();
    for &a in &t.hosts {
        for &b in &t.hosts {
            if a != b {
                flows.push(Flow {
                    src: a,
                    dst: t.subnet.node(b).ports[1].lid.unwrap(),
                    packets: 20,
                });
            }
        }
    }
    let base = CreditSimConfig {
        credits_per_channel: 1,
        ..CreditSimConfig::default()
    };

    println!("\n== min-hop, one VL, no timeout ==");
    let report = run(&t.subnet, &flows, &tables.vls, &base).expect("sim");
    println!("  {report:?}");

    println!("\n== min-hop, one VL, IB timeout enabled ==");
    let report = run(
        &t.subnet,
        &flows,
        &tables.vls,
        &CreditSimConfig {
            timeout_rounds: Some(64),
            max_rounds: 2_000_000,
            ..base
        },
    )
    .expect("sim");
    println!("  {report:?}");
    println!("  (the §VI-C position: rare deadlocks resolved by timeouts, at the cost of drops)");

    println!("\n== dfsssp: lanes split the cycle ==");
    let mut t2 = torus::torus_2d(4, 4, 1, true);
    let mut sm2 = SubnetManager::new(
        t2.hosts[0],
        SmConfig {
            engine: EngineKind::Dfsssp,
            smp_mode: SmpMode::Directed,
            ..SmConfig::default()
        },
    );
    sm2.bring_up(&mut t2.subnet).expect("bring-up");
    let tables2 = EngineKind::Dfsssp
        .build()
        .compute(&t2.subnet)
        .expect("routing");
    let mut flows2 = Vec::new();
    for &a in &t2.hosts {
        for &b in &t2.hosts {
            if a != b {
                flows2.push(Flow {
                    src: a,
                    dst: t2.subnet.node(b).ports[1].lid.unwrap(),
                    packets: 20,
                });
            }
        }
    }
    let report = run(&t2.subnet, &flows2, &tables2.vls, &base).expect("sim");
    println!("  {report:?}");
    println!("  lanes in use: {}", tables2.vls.lanes_used());
}
