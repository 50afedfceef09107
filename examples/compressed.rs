//! Compressed-domain execution: skip-augmented block postings the kernels
//! probe without full decode.
//!
//! Two acts:
//!
//! 1. build [`BlockPostings`] for each codec and compare footprints with
//!    the flat `u32` lists;
//! 2. intersect *in the compressed domain* — pair and k-way — and check
//!    the result against the flat kernels.
//!
//! Serving does not plan over block postings (a decode-then-probe walk
//! never priced below the flat gallop); a query engine that wants them
//! pins `Strategy::CompressedGallop(codec)` — see `docs/compress.md`.
//!
//! Run with: `cargo run --release --example compressed`

use fast_set_intersection::compress::{BlockCodec, BlockPostings, BLOCK_LEN};
use fast_set_intersection::workloads::Zipf;
use fast_set_intersection::{
    reference_intersection, KIntersect, PairIntersect, SetIndex, SortedSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Zipf-clustered set: the dense head produces the tiny gaps block
/// compression exists for.
fn clustered(rng: &mut StdRng, n: usize, universe: usize) -> SortedSet {
    let z = Zipf::new(universe, 1.0);
    let mut vals: Vec<u32> = (0..4 * n).map(|_| z.sample(rng) as u32).collect();
    vals.sort_unstable();
    vals.dedup();
    vals.truncate(n);
    SortedSet::from_sorted_unchecked(vals)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x2011);
    let sets: Vec<SortedSet> = [80_000, 90_000, 100_000]
        .iter()
        .map(|&n| clustered(&mut rng, n, 2_000_000))
        .collect();

    // --- Act 1: space. Blocks of 128 gaps + a 16-byte skip entry each. ----
    println!(
        "block postings ({}-element blocks) vs flat u32:\n",
        BLOCK_LEN
    );
    println!(
        "{:<8} {:>12} {:>14} {:>8}",
        "codec", "bytes", "bytes/posting", "vs u32"
    );
    let n_total: usize = sets.iter().map(|s| s.len()).sum();
    for codec in BlockCodec::ALL {
        let bytes: usize = sets
            .iter()
            .map(|s| BlockPostings::from_slice(codec, s.as_slice()).size_in_bytes())
            .sum();
        let bpp = bytes as f64 / n_total as f64;
        println!(
            "{:<8} {:>12} {:>14.3} {:>7.2}x",
            codec.label(),
            bytes,
            bpp,
            4.0 / bpp
        );
    }
    println!(
        "{:<8} {:>12} {:>14.3} {:>7.2}x\n",
        "flat",
        n_total * 4,
        4.0,
        1.0
    );

    // --- Act 2: intersect without decoding. -------------------------------
    let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
    let expect = reference_intersection(&slices);
    let posts: Vec<BlockPostings> = sets
        .iter()
        .map(|s| BlockPostings::from_slice(BlockCodec::Packed, s.as_slice()))
        .collect();
    let pair = posts[0].intersect_pair_sorted(&posts[1]);
    assert_eq!(pair, reference_intersection(&slices[..2]));
    let refs: Vec<&BlockPostings> = posts.iter().collect();
    let kway = BlockPostings::intersect_k_sorted(&refs);
    assert_eq!(kway, expect);
    println!(
        "compressed-domain k-way over {} lists: {} results, identical to the flat kernels",
        posts.len(),
        kway.len()
    );
}
