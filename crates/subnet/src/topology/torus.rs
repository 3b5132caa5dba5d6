//! Torus and mesh topologies.
//!
//! The reconfiguration method is topology agnostic; tori and meshes give the
//! test suite structured non-tree fabrics (with cycles, so Up*/Down*, LASH
//! and DFSSSP have real work to do).

use ib_types::PortNum;

use crate::subnet::Subnet;

use super::BuiltTopology;

/// Builds a 2-D torus (or mesh when `wrap` is false) of switches with
/// `hosts_per_switch` hosts on each switch.
///
/// Switch `(r, c)` links +row, -row, +col, -col neighbors on ports 1–4 and
/// hosts on ports 5..`.
#[must_use]
pub fn torus_2d(rows: usize, cols: usize, hosts_per_switch: usize, wrap: bool) -> BuiltTopology {
    assert!(rows >= 2 && cols >= 2, "torus needs at least 2x2");
    let mut subnet = Subnet::new();
    let radix = (4 + hosts_per_switch) as u8;
    let sw_at = |r: usize, c: usize| r * cols + c;

    let switches: Vec<_> = (0..rows * cols)
        .map(|i| subnet.add_switch(format!("sw-{}-{}", i / cols, i % cols), radix))
        .collect();

    // Horizontal rings: port 1 = +col side, port 2 = -col side.
    for r in 0..rows {
        for c in 0..cols {
            let next_c = (c + 1) % cols;
            if next_c != 0 || wrap {
                // Avoid double-cabling 2-switch rings: the wrap link of a
                // 2-wide ring is the same pair already cabled.
                if cols == 2 && next_c == 0 {
                    continue;
                }
                subnet
                    .connect(
                        switches[sw_at(r, c)],
                        PortNum::new(1),
                        switches[sw_at(r, next_c)],
                        PortNum::new(2),
                    )
                    .expect("torus row wiring");
            }
        }
    }
    // Vertical rings: port 3 = +row side, port 4 = -row side.
    for c in 0..cols {
        for r in 0..rows {
            let next_r = (r + 1) % rows;
            if next_r != 0 || wrap {
                if rows == 2 && next_r == 0 {
                    continue;
                }
                subnet
                    .connect(
                        switches[sw_at(r, c)],
                        PortNum::new(3),
                        switches[sw_at(next_r, c)],
                        PortNum::new(4),
                    )
                    .expect("torus column wiring");
            }
        }
    }

    let mut hosts = Vec::with_capacity(rows * cols * hosts_per_switch);
    for (i, &sw) in switches.iter().enumerate() {
        for h in 0..hosts_per_switch {
            let host = subnet.add_hca(format!("host-{}", i * hosts_per_switch + h));
            subnet
                .connect(sw, PortNum::new(5 + h as u8), host, PortNum::new(1))
                .expect("torus host wiring");
            hosts.push(host);
        }
    }

    let built = BuiltTopology {
        subnet,
        hosts,
        switch_levels: vec![switches],
        name: format!("{}-{rows}x{cols}", if wrap { "torus" } else { "mesh" }),
    };
    debug_assert!(built.subnet.validate(true).is_ok());
    built
}

/// Builds a 3-D torus of `x * y * z` switches with `hosts_per_switch`
/// hosts each. Dimension rings use ports 1-2 (x), 3-4 (y), 5-6 (z); hosts
/// start at port 7. Rings of length 2 get a single link.
#[must_use]
pub fn torus_3d(x: usize, y: usize, z: usize, hosts_per_switch: usize) -> BuiltTopology {
    assert!(x >= 2 && y >= 2 && z >= 2, "3-D torus needs 2x2x2 minimum");
    let mut subnet = Subnet::new();
    let radix = (6 + hosts_per_switch) as u8;
    let at = |i: usize, j: usize, k: usize| (i * y + j) * z + k;

    let switches: Vec<_> = (0..x * y * z)
        .map(|idx| {
            let (i, jk) = (idx / (y * z), idx % (y * z));
            subnet.add_switch(format!("sw-{i}-{}-{}", jk / z, jk % z), radix)
        })
        .collect();

    // One ring per dimension per line; (plus_port, minus_port) per dim.
    let dims: [(usize, u8, u8); 3] = [(0, 1, 2), (1, 3, 4), (2, 5, 6)];
    for (dim, plus, minus) in dims {
        let (dx, dy, dz) = match dim {
            0 => (1, 0, 0),
            1 => (0, 1, 0),
            _ => (0, 0, 1),
        };
        let len = [x, y, z][dim];
        for i in 0..x {
            for j in 0..y {
                for k in 0..z {
                    let pos = [i, j, k][dim];
                    let next = (pos + 1) % len;
                    // Only the "owner" of the edge cables it; skip the
                    // duplicate wrap on 2-long rings.
                    if next == 0 && len == 2 {
                        continue;
                    }
                    let (ni, nj, nk) = match dim {
                        0 => ((i + dx) % x, j, k),
                        1 => (i, (j + dy) % y, k),
                        _ => (i, j, (k + dz) % z),
                    };
                    subnet
                        .connect(
                            switches[at(i, j, k)],
                            PortNum::new(plus),
                            switches[at(ni, nj, nk)],
                            PortNum::new(minus),
                        )
                        .expect("3-D torus wiring");
                }
            }
        }
    }

    let mut hosts = Vec::with_capacity(x * y * z * hosts_per_switch);
    for (i, &sw) in switches.iter().enumerate() {
        for h in 0..hosts_per_switch {
            let host = subnet.add_hca(format!("host-{}", i * hosts_per_switch + h));
            subnet
                .connect(sw, PortNum::new(7 + h as u8), host, PortNum::new(1))
                .expect("3-D torus host wiring");
            hosts.push(host);
        }
    }

    let built = BuiltTopology {
        subnet,
        hosts,
        switch_levels: vec![switches],
        name: format!("torus3d-{x}x{y}x{z}"),
    };
    debug_assert!(built.subnet.validate(true).is_ok());
    built
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_3x3_link_count() {
        let t = torus_2d(3, 3, 1, true);
        t.subnet.validate(true).unwrap();
        // 9 row links + 9 col links + 9 host links.
        assert_eq!(t.subnet.num_links(), 27);
        assert_eq!(t.num_hosts(), 9);
        assert_eq!(t.num_switches(), 9);
    }

    #[test]
    fn mesh_3x3_link_count() {
        let t = torus_2d(3, 3, 1, false);
        t.subnet.validate(true).unwrap();
        // 6 row links + 6 col links + 9 host links.
        assert_eq!(t.subnet.num_links(), 21);
    }

    #[test]
    fn degenerate_2x2_has_no_duplicate_wrap() {
        let t = torus_2d(2, 2, 1, true);
        t.subnet.validate(true).unwrap();
        // 2 row + 2 col + 4 host links.
        assert_eq!(t.subnet.num_links(), 8);
    }

    #[test]
    fn torus_3d_shape() {
        let t = torus_3d(2, 2, 3, 1);
        t.subnet.validate(true).unwrap();
        assert_eq!(t.num_switches(), 12);
        assert_eq!(t.num_hosts(), 12);
        // Links: x rings (2-long, 1 link each): y*z=6; y rings: x*z=6;
        // z rings (3-long): x*y*3=12; hosts: 12.
        assert_eq!(t.subnet.num_links(), 6 + 6 + 12 + 12);
    }

    #[test]
    fn torus_3d_cube_shape() {
        let t = torus_3d(3, 3, 3, 0);
        t.subnet.validate(true).unwrap();
        assert_eq!(t.num_switches(), 27);
        // 3 dims x 9 lines x 3 links per ring.
        assert_eq!(t.subnet.num_links(), 81);
    }

    #[test]
    fn torus_has_cycles() {
        // A 3x3 torus has 18 switch-switch links but only 8 would fit a
        // tree of 9 switches: the surplus guarantees cycles for the
        // deadlock-analysis tests to chew on.
        let t = torus_2d(3, 3, 0, true);
        assert!(t.subnet.num_links() > t.num_switches() - 1);
    }
}
