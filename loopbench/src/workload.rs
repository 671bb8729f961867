//! The three traffic mixes and the seeded inputs they draw.
//!
//! Each workload fixes its schedule of `(entry point, clique size)` slots
//! independently of the seed, so every seed prices the same cost mix;
//! the seed only draws the payloads, through `cc-workloads`.

use cc_server::Request;
use cc_workloads::{EntryPoint, RequestMix, ENTRY_POINTS};

use crate::check::{self, Expected};

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `SmallKeyCensus` at n = 256: 525 KB request frames, one in flight.
    CensusWire,
    /// `RouteOptimized` and `Sort` at n = 128, one in flight.
    EngineRouteSort,
    /// Six entry points over small sizes, from two connections.
    MixedFleet,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::CensusWire,
    Workload::EngineRouteSort,
    Workload::MixedFleet,
];

/// `mixed_fleet` sizes, hottest first; their weights are Zipf (θ = 1)
/// scaled to integers: 1, 1/2, 1/3, 1/4 → 12, 6, 4, 3 slots of 25.
const MIXED_SIZES: [(usize, usize); 4] = [(16, 12), (24, 6), (32, 4), (48, 3)];

/// `mixed_fleet`'s entry points; `SmallKeyCensus` is left out because
/// it rejects cliques below n ≈ 128.
const MIXED_ENTRIES: [EntryPoint; 6] = [
    EntryPoint::Route,
    EntryPoint::RouteOptimized,
    EntryPoint::Sort,
    EntryPoint::GlobalIndices,
    EntryPoint::Select,
    EntryPoint::Mode,
];

/// One prepared request: the input the server receives and the answer
/// the benchmark computed for it without the program.
pub struct Prepared {
    pub entry: EntryPoint,
    pub request: Request,
    pub expected: Expected,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusWire => "census_wire",
            Workload::EngineRouteSort => "engine_route_sort",
            Workload::MixedFleet => "mixed_fleet",
        }
    }

    /// Client connections, one client thread each.
    pub fn connections(self) -> usize {
        match self {
            Workload::MixedFleet => 2,
            _ => 1,
        }
    }

    /// The seed-independent slot sequence; the run cycles through it.
    /// Every slot gets its own payload, so a run's distinct inputs are
    /// exactly `schedule().len()`.
    pub fn schedule(self) -> Vec<(EntryPoint, usize)> {
        match self {
            Workload::CensusWire => vec![(EntryPoint::SmallKeyCensus, 256); 24],
            Workload::EngineRouteSort => [
                EntryPoint::RouteOptimized,
                EntryPoint::RouteOptimized,
                EntryPoint::RouteOptimized,
                EntryPoint::Sort,
            ]
            .iter()
            .cycle()
            .take(16)
            .map(|&e| (e, 128))
            .collect(),
            Workload::MixedFleet => {
                // Smooth weighted round robin spreads each size's slots
                // evenly over the 25-slot size cycle; 25 and 6 are
                // coprime, so 150 slots pair every size slot with every
                // entry point exactly once. Two cycles are drawn.
                let total: usize = MIXED_SIZES.iter().map(|&(_, w)| w).sum();
                let mut credit = [0i64; MIXED_SIZES.len()];
                let sizes: Vec<usize> = (0..total)
                    .map(|_| {
                        for (c, &(_, w)) in credit.iter_mut().zip(&MIXED_SIZES) {
                            *c += w as i64;
                        }
                        let pick = (0..credit.len())
                            .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                            .expect("sizes are non-empty");
                        credit[pick] -= total as i64;
                        MIXED_SIZES[pick].0
                    })
                    .collect();
                let cycle = total * MIXED_ENTRIES.len();
                (0..2 * cycle)
                    .map(|i| (MIXED_ENTRIES[i % MIXED_ENTRIES.len()], sizes[i % total]))
                    .collect()
            }
        }
    }

    /// The distinct clique sizes, in order of first use.
    pub fn sizes(self) -> Vec<usize> {
        let mut sizes = Vec::new();
        for (_, n) in self.schedule() {
            if !sizes.contains(&n) {
                sizes.push(n);
            }
        }
        sizes
    }

    /// Draws every slot's payload from `seed` and computes its expected
    /// answer.
    pub fn prepare(self, seed: u64) -> Vec<Prepared> {
        self.schedule()
            .into_iter()
            .enumerate()
            .map(|(slot, (entry, n))| prepare_one(entry, n, slot_seed(seed, slot as u64)))
            .collect()
    }
}

/// Draws one `entry` request at size `n` through `cc-workloads`.
pub fn prepare_one(entry: EntryPoint, n: usize, seed: u64) -> Prepared {
    let mut weights = [0u32; 7];
    let index = ENTRY_POINTS
        .iter()
        .position(|&e| e == entry)
        .expect("entry point is listed");
    weights[index] = 1;
    let request = RequestMix::new(vec![n])
        .with_weights(weights)
        .generate(1, seed)
        .pop()
        .expect("one request generated");
    let expected = check::expect(&request);
    Prepared {
        entry,
        request,
        expected,
    }
}

/// Per-slot payload seed: splitmix64 of the run seed and slot index.
pub fn slot_seed(seed: u64, slot: u64) -> u64 {
    let mut x = seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_schedule_pairs_every_size_slot_with_every_entry() {
        let schedule = Workload::MixedFleet.schedule();
        assert_eq!(schedule.len(), 300);
        for &(n, w) in &MIXED_SIZES {
            for entry in MIXED_ENTRIES {
                let hits = schedule.iter().filter(|&&s| s == (entry, n)).count();
                assert_eq!(hits, 2 * w, "{entry:?} at n = {n}");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = prepare_one(EntryPoint::Sort, 16, slot_seed(7, 3));
        let b = prepare_one(EntryPoint::Sort, 16, slot_seed(7, 3));
        let c = prepare_one(EntryPoint::Sort, 16, slot_seed(8, 3));
        assert_eq!(a.request, b.request);
        assert_ne!(a.request, c.request);
    }
}
