//! Machine-wide storage-invariant checks shared by the ring and directory
//! simulators.
//!
//! The paper's Figure 2(b) compatibility matrix bounds what copies of a
//! line may coexist; [`check_line`] verifies one line across a whole
//! machine and names the violated invariant specifically (at most one
//! supplier, at most one dirty copy, pairwise compatibility), so a
//! per-retirement oracle can print an actionable message rather than a
//! generic "states incompatible". [`check_all`] applies the same checks
//! to every resident line, one L2 set at a time — the final-state scan
//! both simulators expose as `validate_coherence`.

use crate::cmp::CmpCaches;
use crate::state::CoherState;
use crate::LineAddr;

/// One valid copy of a line: `(line, cmp index, core index, state)`.
type Resident = (LineAddr, usize, usize, CoherState);

/// Checks the Figure 2(b) storage invariants for one line across every
/// CMP of the machine.
///
/// # Errors
///
/// Returns a message naming the first violated invariant:
///
/// * more than one supplier-state (`SG`/`E`/`D`/`T`) copy machine-wide,
/// * more than one dirty (`D`/`T`) copy machine-wide,
/// * any pair of copies incompatible under the Figure 2(b) matrix
///   (which also covers "at most one local master per CMP").
pub fn check_line(cmps: &[CmpCaches], line: LineAddr) -> Result<(), String> {
    // The per-retirement oracle checks one line at a time, so it probes
    // every L2 for it; the whole-machine sweep, `check_all`, gathers
    // copies set by set instead.
    let mut copies: Vec<Resident> = Vec::new();
    for (n, cmp) in cmps.iter().enumerate() {
        for core in 0..cmp.cores() {
            let st = cmp.state_of(core, line);
            if st.is_valid() {
                copies.push((line, n, core, st));
            }
        }
    }
    check_copies(&copies)
}

/// The checks of [`check_line`] on every valid copy of one line, listed
/// in `(cmp, core)` order.
fn check_copies(copies: &[Resident]) -> Result<(), String> {
    let Some(&(line, ..)) = copies.first() else {
        return Ok(());
    };
    let suppliers = copies.iter().filter(|c| c.3.is_supplier()).count();
    if suppliers > 1 {
        return Err(format!(
            "{line}: {suppliers} supplier-state copies: {}",
            render_copies(copies, |s| s.is_supplier())
        ));
    }
    let dirty = copies.iter().filter(|c| c.3.is_dirty()).count();
    if dirty > 1 {
        return Err(format!(
            "{line}: {dirty} dirty copies: {}",
            render_copies(copies, |s| s.is_dirty())
        ));
    }
    for (i, &(_, na, ca, a)) in copies.iter().enumerate() {
        for &(_, nb, cb, b) in &copies[i + 1..] {
            if !a.compatible_with(b, na == nb) {
                return Err(format!(
                    "{line}: {a} at cmp{na}/core{ca} incompatible with {b} at cmp{nb}/core{cb}"
                ));
            }
        }
    }
    Ok(())
}

fn render_copies(copies: &[Resident], pick: impl Fn(CoherState) -> bool) -> String {
    copies
        .iter()
        .filter(|(_, _, _, s)| pick(*s))
        .map(|(_, n, c, s)| format!("{s}@cmp{n}/core{c}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Checks every resident line of the machine as [`check_line`] would,
/// one L2 set at a time: the set's copies in every CMP and core are
/// gathered and sorted by `(line, cmp, core)`, and each line's run of
/// copies is checked. Each copy is visited once, rather than every L2
/// being probed for every resident line.
///
/// # Errors
///
/// Returns the violation of the lowest-addressed violating line, so the
/// report is deterministic.
///
/// # Panics
///
/// Panics if the CMPs' L2s do not all have one geometry.
pub fn check_all(cmps: &[CmpCaches]) -> Result<(), String> {
    let Some(first) = cmps.first() else {
        return Ok(());
    };
    let geometry = first.l2_geometry();
    assert!(
        cmps.iter().all(|cmp| cmp.l2_geometry() == geometry),
        "every CMP's L2s must have one geometry"
    );
    // On a million-node ring most CMPs are never accessed and hold no
    // arrays to sweep.
    let active: Vec<(usize, &CmpCaches)> = cmps
        .iter()
        .enumerate()
        .filter(|(_, cmp)| !cmp.is_idle())
        .collect();
    let mut copies: Vec<Resident> = Vec::new();
    let mut lowest: Option<(LineAddr, String)> = None;
    for set in 0..geometry.sets {
        copies.clear();
        for &(n, cmp) in &active {
            copies.extend(cmp.l2_set(set).map(|(core, line, st)| (line, n, core, st)));
        }
        copies.sort_unstable_by_key(|&(line, n, core, _)| (line, n, core));
        for run in copies.chunk_by(|a, b| a.0 == b.0) {
            let line = run[0].0;
            if lowest.as_ref().is_some_and(|(low, _)| line > *low) {
                break;
            }
            if let Err(what) = check_copies(run) {
                lowest = Some((line, what));
                break;
            }
        }
    }
    lowest.map_or(Ok(()), |(_, what)| Err(what))
}

/// A canonical snapshot of every resident line: `(line, cmp, core, state)`
/// in sorted order. Two runs that ended in the same storage state produce
/// equal snapshots, so this is the unit the differential harness diffs.
pub fn state_snapshot(cmps: &[CmpCaches]) -> Vec<(LineAddr, usize, usize, CoherState)> {
    let mut snap: Vec<(LineAddr, usize, usize, CoherState)> = cmps
        .iter()
        .enumerate()
        .flat_map(|(n, cmp)| {
            (0..cmp.cores())
                .flat_map(move |c| cmp.l2_lines(c).map(move |(line, st)| (line, n, c, st)))
        })
        .collect();
    snap.sort_unstable_by_key(|&(line, n, c, st)| (line, n, c, st as u8));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use flexsnoop_engine::SplitMix64;
    use CoherState::*;

    fn machine() -> Vec<CmpCaches> {
        (0..2)
            .map(|_| {
                CmpCaches::new(
                    2,
                    CacheGeometry::from_entries(4, 2),
                    CacheGeometry::from_entries(16, 4),
                )
            })
            .collect()
    }

    #[test]
    fn clean_sharing_passes() {
        let mut m = machine();
        m[0].fill(0, LineAddr(1), Sg);
        m[0].fill(1, LineAddr(1), S);
        m[1].fill(0, LineAddr(1), Sl);
        assert!(check_line(&m, LineAddr(1)).is_ok());
        assert!(check_all(&m).is_ok());
    }

    #[test]
    fn two_suppliers_are_named() {
        // The second supplier in another CMP, then in the same CMP.
        for (cmp, core, second) in [(1, 0, "D@cmp1/core0"), (0, 1, "D@cmp0/core1")] {
            let mut m = machine();
            m[0].fill(0, LineAddr(2), E);
            m[cmp].fill(core, LineAddr(2), D);
            let err = check_line(&m, LineAddr(2)).unwrap_err();
            assert!(err.contains("2 supplier-state copies"), "{err}");
            assert!(err.contains("E@cmp0/core0"), "{err}");
            assert!(err.contains(second), "{err}");
            assert_eq!(check_all(&m), Err(err));
        }
    }

    #[test]
    fn two_dirty_copies_are_reported_as_suppliers_first() {
        let mut m = machine();
        m[0].fill(0, LineAddr(3), D);
        m[1].fill(0, LineAddr(3), T);
        let err = check_line(&m, LineAddr(3)).unwrap_err();
        // D and T are both supplier states, so the supplier check fires.
        assert!(err.contains("supplier"), "{err}");
    }

    #[test]
    fn incompatible_pair_is_located() {
        let mut m = machine();
        m[0].fill(0, LineAddr(4), E);
        m[1].fill(1, LineAddr(4), S);
        let err = check_line(&m, LineAddr(4)).unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
        assert!(err.contains("cmp1/core1"), "{err}");
    }

    #[test]
    fn check_all_finds_the_bad_line_among_good_ones() {
        let mut m = machine();
        m[0].fill(0, LineAddr(1), Sg);
        m[0].fill(0, LineAddr(2), E);
        m[1].fill(0, LineAddr(2), E);
        let err = check_all(&m).unwrap_err();
        assert!(
            err.contains("line2") || err.contains("0x2") || err.contains('2'),
            "{err}"
        );
    }

    #[test]
    fn snapshot_is_canonical() {
        let mut a = machine();
        a[1].fill(0, LineAddr(9), Sl);
        a[0].fill(0, LineAddr(5), E);
        let mut b = machine();
        b[0].fill(0, LineAddr(5), E);
        b[1].fill(0, LineAddr(9), Sl);
        assert_eq!(state_snapshot(&a), state_snapshot(&b));
        assert_eq!(state_snapshot(&a).len(), 2);
    }

    /// `check_all` as it was before the per-set sweep, kept as the
    /// reference: every resident line, in address order, through
    /// `check_line`.
    fn check_all_by_line(cmps: &[CmpCaches]) -> Result<(), String> {
        let mut lines: Vec<LineAddr> = cmps
            .iter()
            .flat_map(|cmp| (0..cmp.cores()).flat_map(|c| cmp.l2_lines(c).map(|(l, _)| l)))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            check_line(cmps, line)?;
        }
        Ok(())
    }

    /// Four CMPs of two cores; each L2 has 8 sets of 8 ways.
    fn wide_machine() -> Vec<CmpCaches> {
        (0..4)
            .map(|_| {
                CmpCaches::new(
                    2,
                    CacheGeometry::from_entries(4, 2),
                    CacheGeometry::from_entries(64, 8),
                )
            })
            .collect()
    }

    /// Fills `line` in a legal Figure 2(b) configuration: absent, one
    /// `E` or `D` copy, or shared (at most one `SG` or `T` copy, at most
    /// one `SL` per CMP and none beside the supplier, any number of `S`).
    fn fill_legal(rng: &mut SplitMix64, m: &mut [CmpCaches], line: LineAddr) {
        let mut slots: Vec<(usize, usize)> = (0..4).flat_map(|n| [(n, 0), (n, 1)]).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        match rng.next_below(3) {
            0 => {}
            1 => {
                let (n, c) = slots[0];
                m[n].fill(c, line, if rng.chance(0.5) { E } else { D });
            }
            _ => {
                let mut local_master = [false; 4];
                if rng.chance(0.5) {
                    let (n, c) = slots[0];
                    m[n].fill(c, line, if rng.chance(0.5) { Sg } else { T });
                    local_master[n] = true;
                }
                for &(n, c) in &slots[1..] {
                    match rng.next_below(3) {
                        0 => {}
                        1 => {
                            m[n].fill(c, line, S);
                        }
                        _ if !local_master[n] => {
                            m[n].fill(c, line, Sl);
                            local_master[n] = true;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn set_sweep_matches_the_line_by_line_reference() {
        let mut failures = 0;
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(seed);
            let mut m = wide_machine();
            for line in 0..48 {
                fill_legal(&mut rng, &mut m, LineAddr(line));
            }
            assert_eq!(check_all(&m), Ok(()), "seed {seed}");
            assert_eq!(check_all_by_line(&m), Ok(()), "seed {seed}");
            // Up to four violations on untouched lines, so over several
            // sets, each pair of copies in two CMPs: two suppliers, two
            // dirty copies, or an incompatible pair.
            let mut lines: Vec<u64> = (48..112).collect();
            for _ in 0..rng.next_below(5) {
                let line = LineAddr(lines.swap_remove(rng.next_below(lines.len() as u64) as usize));
                let [a, b] = match rng.next_below(3) {
                    0 => [Sg, E],
                    1 => [D, T],
                    _ => [E, S],
                };
                let n = rng.next_below(4) as usize;
                let other = (n + 1 + rng.next_below(3) as usize) % 4;
                m[n].fill(rng.next_below(2) as usize, line, a);
                m[other].fill(rng.next_below(2) as usize, line, b);
            }
            let swept = check_all(&m);
            assert_eq!(swept, check_all_by_line(&m), "seed {seed}");
            failures += usize::from(swept.is_err());
        }
        assert!(failures > 200, "{failures} machines with a violation");
    }
}
