//! Answers computed apart from the program, and the reply checks.
//!
//! Nothing here calls into the program's own verification
//! (`RoutingInstance::verify_delivery`) or protocols: sorts use `std`,
//! counts use a hash map, and routes compare multisets the benchmark
//! builds from the instance's sends.

use std::collections::HashMap;
use std::sync::Mutex;

use cc_core::routing::RoutedMessage;
use cc_core::sorting::TaggedKey;
use cc_core::{NodeId, Outcome};
use cc_server::Request;
use cc_workloads::{EntryPoint, ENTRY_POINTS};

/// What a correct reply holds.
pub enum Expected {
    /// Per destination, every message addressed to it, sorted.
    Route(Vec<Vec<RoutedMessage>>),
    /// Every input key tagged with its origin, in the paper's total order
    /// (key, origin node, index at origin).
    Sort(Vec<TaggedKey>),
    /// Per node and input position, the key's rank among distinct values.
    Indices(Vec<Vec<u64>>),
    Select(u64),
    /// The top multiplicity and every value that reaches it.
    Mode {
        count: u64,
        keys: Vec<u64>,
    },
    Census {
        totals: Vec<u64>,
        prefix: Vec<Vec<u64>>,
    },
}

/// Computes the expected answer of `request` with `std` alone.
pub fn expect(request: &Request) -> Expected {
    match request {
        Request::Route(inst) | Request::RouteOptimized(inst) => {
            let mut by_dst: Vec<Vec<RoutedMessage>> = vec![Vec::new(); inst.n()];
            for sends in inst.all_sends() {
                for m in sends {
                    by_dst[m.dst.index()].push(m.clone());
                }
            }
            for list in &mut by_dst {
                list.sort_unstable();
            }
            Expected::Route(by_dst)
        }
        Request::Sort(keys) => Expected::Sort(tagged_sorted(keys)),
        Request::GlobalIndices(keys) => {
            let mut distinct: Vec<u64> = keys.iter().flatten().copied().collect();
            distinct.sort_unstable();
            distinct.dedup();
            Expected::Indices(
                keys.iter()
                    .map(|list| {
                        list.iter()
                            .map(|k| distinct.partition_point(|d| d < k) as u64)
                            .collect()
                    })
                    .collect(),
            )
        }
        Request::Select { keys, rank } => {
            let mut all: Vec<u64> = keys.iter().flatten().copied().collect();
            all.sort_unstable();
            // An out-of-range rank expects the service's error; the
            // generator never draws one, so any answer is then wrong.
            Expected::Select(all.get(*rank as usize).copied().unwrap_or(u64::MAX))
        }
        Request::Mode(keys) => {
            let freq = counts(keys);
            let count = freq.values().copied().max().unwrap_or(0);
            let mut top: Vec<u64> = freq
                .into_iter()
                .filter(|&(_, c)| c == count)
                .map(|(k, _)| k)
                .collect();
            top.sort_unstable();
            Expected::Mode { count, keys: top }
        }
        Request::SmallKeyCensus { keys, key_bits } => {
            let values = 1usize << key_bits;
            let mut totals = vec![0u64; values];
            let mut prefix = Vec::with_capacity(keys.len());
            for list in keys {
                prefix.push(totals.clone());
                for &k in list {
                    if let Some(slot) = totals.get_mut(k as usize) {
                        *slot += 1;
                    }
                }
            }
            Expected::Census { totals, prefix }
        }
    }
}

fn tagged_sorted(keys: &[Vec<u64>]) -> Vec<TaggedKey> {
    let mut all: Vec<TaggedKey> = keys
        .iter()
        .enumerate()
        .flat_map(|(v, list)| {
            list.iter()
                .enumerate()
                .map(move |(p, &k)| TaggedKey::new(k, NodeId::new(v), p as u32))
        })
        .collect();
    all.sort_unstable();
    all
}

fn counts(keys: &[Vec<u64>]) -> HashMap<u64, u64> {
    let mut freq = HashMap::new();
    for &k in keys.iter().flatten() {
        *freq.entry(k).or_insert(0u64) += 1;
    }
    freq
}

/// Compares one outcome with its expected answer.
pub fn check_outcome(expected: &Expected, outcome: &Outcome) -> Result<(), String> {
    match (expected, outcome) {
        (Expected::Route(want), Outcome::Route(got)) => {
            if got.delivered.len() != want.len() {
                return Err(format!(
                    "{} delivery lists for {} nodes",
                    got.delivered.len(),
                    want.len()
                ));
            }
            for (node, (got, want)) in got.delivered.iter().zip(want).enumerate() {
                // The program hands lists back canonically sorted; only an
                // unsorted one needs a sorted copy for the multiset test.
                let same = if got.windows(2).all(|w| w[0] <= w[1]) {
                    got == want
                } else {
                    let mut sorted = got.clone();
                    sorted.sort_unstable();
                    &sorted == want
                };
                if !same {
                    return Err(format!(
                        "node {node} received {} messages, not the {} addressed to it",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Ok(())
        }
        (Expected::Sort(want), Outcome::Sort(got)) => {
            let mut at = 0usize;
            for (node, batch) in got.batches.iter().enumerate() {
                if got.offsets.get(node) != Some(&(at as u64)) {
                    return Err(format!("node {node} offset is not {at}"));
                }
                if want.get(at..at + batch.len()) != Some(batch.as_slice()) {
                    return Err(format!("node {node} batch is not ranks {at}.."));
                }
                at += batch.len();
            }
            if at != want.len() || got.total != want.len() as u64 {
                return Err(format!(
                    "{at} keys placed (total {}), {} expected",
                    got.total,
                    want.len()
                ));
            }
            Ok(())
        }
        (Expected::Indices(want), Outcome::Indices(got)) => same(&got.indices, want, "indices"),
        (Expected::Select(want), Outcome::Select(got)) => same(&got.key, want, "selected key"),
        (Expected::Mode { count, keys }, Outcome::Mode(got)) => {
            if got.count != *count || keys.binary_search(&got.key).is_err() {
                return Err(format!(
                    "mode {} × {}, expected × {count} of {keys:?}",
                    got.key, got.count
                ));
            }
            Ok(())
        }
        (Expected::Census { totals, prefix }, Outcome::SmallKeys(got)) => {
            same(&got.totals, totals, "census totals")?;
            same(&got.prefix, prefix, "census prefixes")
        }
        _ => Err("reply is of another kind than the request".to_owned()),
    }
}

fn same<T: PartialEq>(got: &T, want: &T, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differ from the direct count"))
    }
}

/// The paper's round bounds per entry point, in `ENTRY_POINTS` order:
/// Theorems 3.7 (route, 16), 5.4 (route_optimized, 12) and 4.5 (sort,
/// 37); Corollary 4.6 (global indices, 37 + 1 + 16); selection and mode
/// (sort + 1); the §6.3 census (2).
const ROUND_BOUNDS: [u64; 7] = [16, 12, 37, 54, 38, 38, 2];

/// Round counts seen so far per entry point, shared by every client of a
/// run: constant-round protocols must report the same count for every
/// clique size and every request.
#[derive(Default)]
pub struct Rounds(Mutex<[Option<u64>; 7]>);

impl Rounds {
    pub fn check(&self, entry: EntryPoint, rounds: u64) -> Result<(), String> {
        let index = ENTRY_POINTS
            .iter()
            .position(|&e| e == entry)
            .expect("entry point is listed");
        let bound = ROUND_BOUNDS[index];
        if rounds > bound {
            return Err(format!("{rounds} rounds, above the paper's {bound}"));
        }
        let mut seen = self.0.lock().expect("round ledger holder panicked");
        match seen[index] {
            Some(first) if first != rounds => Err(format!(
                "{rounds} rounds where earlier requests took {first}"
            )),
            _ => {
                seen[index] = Some(rounds);
                Ok(())
            }
        }
    }
}

/// Counts one client's attempted and failed requests.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Adds another client's counts to these.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Checks one reply (`Err` carries a transport or server error) and
    /// counts it; a failure is printed with `label` and counted.
    pub fn record(
        &mut self,
        label: &dyn std::fmt::Display,
        entry: EntryPoint,
        expected: &Expected,
        reply: Result<&Outcome, String>,
        rounds: &Rounds,
    ) -> bool {
        self.attempted += 1;
        let verdict = reply.and_then(|outcome| {
            check_outcome(expected, outcome)?;
            rounds.check(entry, outcome.metrics().comm_rounds())
        });
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {label} ({entry:?}): {why}");
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prepare_one, Prepared};
    use cc_core::CliqueService;

    fn served(p: &Prepared) -> Outcome {
        let mut service = CliqueService::new(p.request.n()).unwrap();
        p.request.serve_on(&mut service).unwrap()
    }

    fn verdict(p: &Prepared, outcome: &Outcome) -> (bool, Tally) {
        let mut tally = Tally::default();
        let ok = tally.record(
            &"test",
            p.entry,
            &p.expected,
            Ok(outcome),
            &Rounds::default(),
        );
        (ok, tally)
    }

    fn assert_counted_failed(p: &Prepared, wrong: &Outcome) {
        let (ok, tally) = verdict(p, wrong);
        assert!(!ok);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn correct_replies_pass_every_check() {
        for entry in ENTRY_POINTS {
            let n = if entry == EntryPoint::SmallKeyCensus {
                128
            } else {
                16
            };
            let p = prepare_one(entry, n, 11);
            let (ok, tally) = verdict(&p, &served(&p));
            assert!(ok, "{entry:?}");
            assert_eq!((tally.attempted, tally.failed), (1, 0));
        }
    }

    #[test]
    fn wrong_replies_count_as_failed() {
        let p = prepare_one(EntryPoint::Sort, 16, 1);
        let mut wrong = served(&p);
        if let Outcome::Sort(o) = &mut wrong {
            o.batches[0].swap(0, 1);
        }
        assert_counted_failed(&p, &wrong);

        let p = prepare_one(EntryPoint::Route, 16, 2);
        let mut wrong = served(&p);
        if let Outcome::Route(o) = &mut wrong {
            let moved = o.delivered[0].pop().unwrap();
            o.delivered[1].push(moved);
        }
        assert_counted_failed(&p, &wrong);

        let p = prepare_one(EntryPoint::Mode, 16, 3);
        let mut wrong = served(&p);
        if let Outcome::Mode(o) = &mut wrong {
            o.count -= 1;
        }
        assert_counted_failed(&p, &wrong);

        let p = prepare_one(EntryPoint::Select, 16, 4);
        let mut wrong = served(&p);
        if let Outcome::Select(o) = &mut wrong {
            o.key ^= 1;
        }
        assert_counted_failed(&p, &wrong);

        let p = prepare_one(EntryPoint::GlobalIndices, 16, 5);
        let mut wrong = served(&p);
        if let Outcome::Indices(o) = &mut wrong {
            o.indices[3][2] += 1;
        }
        assert_counted_failed(&p, &wrong);

        let p = prepare_one(EntryPoint::SmallKeyCensus, 128, 6);
        let mut wrong = served(&p);
        if let Outcome::SmallKeys(o) = &mut wrong {
            o.totals[1] += 1;
        }
        assert_counted_failed(&p, &wrong);

        // A reply of the wrong kind, and a transport error.
        assert_counted_failed(&p, &served(&prepare_one(EntryPoint::Sort, 16, 1)));
        let mut tally = Tally::default();
        assert!(!tally.record(
            &"t",
            p.entry,
            &p.expected,
            Err("reset".into()),
            &Rounds::default()
        ));
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn unsorted_but_complete_deliveries_pass() {
        let p = prepare_one(EntryPoint::RouteOptimized, 16, 9);
        let mut outcome = served(&p);
        if let Outcome::Route(o) = &mut outcome {
            o.delivered[0].reverse();
        }
        assert!(verdict(&p, &outcome).0);
    }

    #[test]
    fn round_counts_must_hold_the_bound_and_stay_constant() {
        let rounds = Rounds::default();
        assert!(rounds.check(EntryPoint::Route, 17).is_err());
        assert!(rounds.check(EntryPoint::Route, 16).is_ok());
        assert!(rounds.check(EntryPoint::Route, 15).is_err());
        assert!(rounds.check(EntryPoint::Sort, 37).is_ok());
        assert!(rounds.check(EntryPoint::Sort, 37).is_ok());
    }
}
