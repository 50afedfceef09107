//! `PlannedList::build` against the build it replaced, kept here as the
//! reference: the representation decided by a per-element chunk count
//! (a bitmap iff a list has at least one member per bitmap word of the
//! chunks it touches; the empty list is the empty bitmap) and filled by
//! the kernels' `from_sorted_slice`. For every list the build must pick
//! the same representation, with the same members, chunk count, footprint
//! and fields.

use fast_set_intersection::index::PlannedList;
use fast_set_intersection::SortedSet;
use fsi_kernels::{ArraySet, BitmapSet, WORDS_PER_CHUNK};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const C: u32 = 1 << 16;

/// The chunks a sorted list touches, counted one member at a time.
fn chunks_per_element(elems: &[u32]) -> usize {
    let mut ids: Vec<u32> = elems.iter().map(|x| x >> 16).collect();
    ids.dedup();
    ids.len()
}

/// The reference build: the rule on the per-element chunk count, then the
/// representation's own builder.
fn reference(elems: &[u32]) -> PlannedList {
    let bitmap = if elems.len() < WORDS_PER_CHUNK {
        elems.is_empty()
    } else {
        elems.len() >= chunks_per_element(elems) * WORDS_PER_CHUNK
    };
    if bitmap {
        PlannedList::Bitmap(BitmapSet::from_sorted_slice(elems))
    } else {
        PlannedList::Array(ArraySet::from_sorted_slice(elems))
    }
}

fn num_chunks(list: &PlannedList) -> usize {
    match list {
        PlannedList::Array(array) => array.num_chunks(),
        PlannedList::Bitmap(bitmap) => bitmap.num_chunks(),
    }
}

/// Asserts the build equals the reference on `elems`, and both hold
/// exactly `elems`.
fn check(elems: &[u32]) {
    let set = SortedSet::from_unsorted(elems.to_vec());
    assert_eq!(set.as_slice(), elems, "inputs are sorted and distinct");
    let (built, expect) = (PlannedList::build(&set), reference(elems));
    let what = |l: &PlannedList| l.bitmap().is_some();
    assert_eq!(
        what(&built),
        what(&expect),
        "representation, n={}",
        elems.len()
    );
    let chunks = chunks_per_element(elems);
    assert_eq!(num_chunks(&built), chunks);
    assert_eq!(num_chunks(&expect), chunks);
    assert_eq!(built.size_in_bytes(), expect.size_in_bytes());
    let bytes = match built {
        PlannedList::Array(_) => 2 * elems.len() + 6 * chunks + 4,
        PlannedList::Bitmap(_) => 4 * chunks + 8 * WORDS_PER_CHUNK * chunks,
    };
    assert_eq!(built.size_in_bytes(), bytes);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    built.extend_into(&mut a);
    expect.extend_into(&mut b);
    assert_eq!(a, elems);
    assert_eq!(b, elems);
    // Every field: chunk ids, run starts, and the low halves or words.
    assert_eq!(format!("{built:?}"), format!("{expect:?}"));
}

/// `n` members spread evenly over chunk `id`.
fn even(id: u32, n: u32) -> impl Iterator<Item = u32> {
    let step = C / n.max(1);
    (0..n).map(move |i| (id << 16) + i * step)
}

#[test]
fn edge_shapes_build_as_the_reference_does() {
    let per = WORDS_PER_CHUNK as u32;
    let mut lists: Vec<Vec<u32>> = vec![
        // Empty, and either side of one chunk's word count.
        vec![],
        vec![7],
        even(0, per - 1).collect(),
        even(0, per).collect(),
        even(3, per + 1).collect(),
        // A whole chunk, and the chunk 0xFFFF up to `u32::MAX`.
        (0..C).collect(),
        (u32::MAX - C + 1..=u32::MAX).collect(),
        even(0xFFFF, per).collect(),
        even(0xFFFF, per - 1).chain([u32::MAX]).collect(),
        // Runs straddling a 2¹⁶ boundary.
        (C - 600..C + 600).collect(),
        (5 * C - 1024..5 * C + 1024).collect(),
        (5 * C - 1023..5 * C + 1024).collect(),
    ];
    for chunks in [1u32, 2, 3, 5] {
        for gap in [1u32, 2, 7] {
            // Exactly 1024 members per touched chunk, and one fewer in
            // total, over chunks `gap` apart: empty chunks between them
            // make the span longer than the chunks touched.
            let full: Vec<u32> = (0..chunks).flat_map(|c| even(c * gap, per)).collect();
            let short: Vec<u32> = full.iter().copied().skip(1).collect();
            lists.extend([full, short]);
            // Dense in a few chunks, one member in a far one.
            let far: Vec<u32> = (0..chunks)
                .flat_map(|c| even(c * gap, 2 * per))
                .chain([0xFFFF << 16])
                .collect();
            lists.push(far);
        }
    }
    for list in &lists {
        check(list);
    }
    // Both representations and both sides of the rule are exercised.
    let bitmaps = lists
        .iter()
        .filter(|l| reference(l).bitmap().is_some())
        .count();
    assert!(bitmaps > 5 && bitmaps + 5 < lists.len(), "{bitmaps}");
}

/// A list over chunks starting at `first`, each `gaps[i]` chunks past the
/// last, holding `sizes[i]` random members (fewer after duplicates merge).
fn random_list(first: u32, gaps: &[u32], sizes: &[usize], seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = BTreeSet::new();
    let mut id = first;
    for (&gap, &size) in gaps.iter().zip(sizes) {
        id += gap;
        if id > 0xFFFF {
            break;
        }
        for _ in 0..size {
            set.insert((id << 16) | rng.gen_range(0..C));
        }
    }
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_lists_build_as_the_reference_does(
        first in 0u32..=0xFFFF,
        gaps in vec(0u32..4, 1..6),
        sizes in vec(0usize..2600, 1..6),
        seed in any::<u64>(),
    ) {
        // Half the lists start near the top of the id space.
        let first = if seed % 2 == 0 { first % 8 } else { 0xFFFF - first % 8 };
        check(&random_list(first, &gaps, &sizes, seed));
    }
}
