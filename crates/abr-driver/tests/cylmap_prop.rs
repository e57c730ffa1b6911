//! Property tests for the cylinder-level address maps: the
//! [`CylinderMap`] organ-pipe permutation and the label's
//! virtual↔physical sector mapping around the reserved-region
//! discontinuity, over randomized geometries drawn from a seeded
//! [`SimRng`].

use abr_disk::{DiskLabel, Geometry, Partition, ReservedArea};
use abr_driver::cylmap::CylinderMap;
use abr_sim::SimRng;

/// Build a rearranged label for an arbitrary geometry, or `None` when no
/// block-aligned reserved placement exists for it.
fn rearranged_label(g: Geometry, n_reserved: u32, spb: u32) -> Option<DiskLabel> {
    let reserved = ReservedArea::centered_aligned(&g, n_reserved, spb)?;
    let virtual_geometry = g.with_cylinders(g.cylinders - n_reserved);
    Some(DiskLabel {
        physical: g,
        partitions: vec![Partition {
            start_sector: 0,
            n_sectors: virtual_geometry.total_sectors(),
        }],
        reserved: Some(reserved),
    })
}

/// Virtual sectors worth probing: the ends of the virtual disk plus
/// every sector adjacent to a reserved-region boundary cylinder.
fn boundary_sectors(label: &DiskLabel) -> Vec<u64> {
    let g = &label.physical;
    let spc = g.sectors_per_cylinder();
    let r = label.reserved.expect("rearranged label");
    let boundary = u64::from(r.start_cylinder) * spc;
    let vtotal = label.virtual_geometry().total_sectors();
    let mut probes = vec![0, vtotal - 1, vtotal / 2];
    for s in [
        boundary.saturating_sub(spc),
        boundary.saturating_sub(1),
        boundary,
        boundary + 1,
        boundary + spc - 1,
    ] {
        probes.push(s);
    }
    probes.retain(|&s| s < vtotal);
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// A geometry of 10..200 cylinders, 1..9 tracks and 16..64 sectors per
/// track, and a reserved size in 1..40 cylinders below half the disk.
fn arb_geometry(rng: &mut SimRng) -> (Geometry, u32) {
    let cylinders = 10 + rng.below(190) as u32;
    let g = Geometry {
        cylinders,
        tracks_per_cylinder: 1 + rng.below(8) as u32,
        sectors_per_track: 16 + rng.below(48) as u32,
        rpm: 3600,
    };
    let n_reserved = 1 + rng.below(u64::from(cylinders / 2 - 1).min(39)) as u32;
    (g, n_reserved)
}

/// virtual→physical→virtual is the identity for every virtual
/// sector, including the sectors hugging the reserved boundary,
/// and the physical image never lands inside the reserved region.
#[test]
fn label_round_trips_virtual_sectors() {
    let mut rng = SimRng::new(1);
    for _ in 0..256 {
        let (g, n_reserved) = arb_geometry(&mut rng);
        let Some(label) = rearranged_label(g, n_reserved, 16) else {
            // No aligned placement for this geometry: nothing to test.
            continue;
        };
        let r = label.reserved.expect("rearranged label");
        for vsector in boundary_sectors(&label) {
            let psector = label.virtual_to_physical(vsector);
            assert!(
                !r.contains_cylinder(g.cylinder_of(psector)),
                "virtual sector {vsector} mapped into the reserved region (physical {psector})"
            );
            assert!(psector < g.total_sectors());
            assert_eq!(label.physical_to_virtual(psector), Some(vsector));
        }
    }
}

/// physical→virtual is `None` exactly on the reserved cylinders and
/// round-trips everywhere else.
#[test]
fn label_round_trips_physical_sectors() {
    let mut rng = SimRng::new(2);
    for _ in 0..256 {
        let (g, n_reserved) = arb_geometry(&mut rng);
        let Some(label) = rearranged_label(g, n_reserved, 16) else {
            continue;
        };
        let r = label.reserved.expect("rearranged label");
        let spc = g.sectors_per_cylinder();
        let res_start = u64::from(r.start_cylinder) * spc;
        let res_end = res_start + u64::from(r.n_cylinders) * spc;
        // Probe both boundary cylinders of the reserved region and the
        // disk's ends.
        let probes = [
            0,
            res_start.saturating_sub(1),
            res_start,
            res_end - 1,
            res_end,
            g.total_sectors() - 1,
        ];
        for psector in probes.into_iter().filter(|&p| p < g.total_sectors()) {
            let inside = psector >= res_start && psector < res_end;
            match label.physical_to_virtual(psector) {
                None => assert!(
                    inside,
                    "physical {psector} outside the reserved region mapped to None"
                ),
                Some(v) => {
                    assert!(
                        !inside,
                        "reserved physical {psector} got virtual address {v}"
                    );
                    assert_eq!(label.virtual_to_physical(v), psector);
                }
            }
        }
    }
}

/// The organ-pipe cylinder permutation is a bijection that pins the
/// label cylinder and sends the uniquely hottest cylinder to the
/// middle of the disk.
#[test]
fn organ_pipe_is_a_permutation() {
    let mut rng = SimRng::new(3);
    for _ in 0..256 {
        let n = 2 + rng.index(38);
        let mut counts: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let hot_idx = 1 + rng.index(39);
        let hot = 1 + hot_idx % (n - 1); // any cylinder but the pinned label
        let max = counts.iter().copied().max().unwrap_or(0);
        counts[hot] = max + 1; // uniquely hottest
        let m = CylinderMap::organ_pipe(&counts);
        assert_eq!(m.len() as usize, n);
        assert_eq!(m.physical(0), 0, "label cylinder must stay pinned");
        assert_eq!(
            m.physical(hot as u32),
            n as u32 / 2,
            "hottest cylinder must go to the middle"
        );
        let mut image: Vec<u32> = (0..n as u32).map(|v| m.physical(v)).collect();
        image.sort_unstable();
        assert_eq!(image, (0..n as u32).collect::<Vec<_>>());
        // Determinism: the same counts always produce the same map.
        assert_eq!(m, CylinderMap::organ_pipe(&counts));
    }
}
