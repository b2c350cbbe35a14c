//! The requests each workload sends, and the seeded order it sends
//! them in.
//!
//! The workload seed (`--seed`) only permutes the order of requests
//! within each round and each client's cycle, so every seed does the
//! same amount of work. The program's own suite seed is the input
//! seed (`--input-seed`, default 0; the holdout is 1).

use std::path::Path;

use heterovliw_core::api::{BusSel, Request, StoreConfig};
use heterovliw_core::explore::SpaceKind;

/// Loops per benchmark of the figure requests (`paper all --loops N`).
pub const FIG_LOOPS: usize = 8;
/// Loops per benchmark of the cold search.
pub const SEARCH_LOOPS: usize = 4;
/// Evaluation budget of the cold search.
pub const SEARCH_BUDGET: u64 = 32;
/// Scale of the untimed warm-up op of the two cold workloads.
pub const WARMUP_LOOPS: usize = 2;
/// Budget of the warm-up search.
pub const WARMUP_BUDGET: u64 = 8;

/// One request plus the key its reference digest is filed under: the
/// wire form of the request without a store, so the key does not depend
/// on where the store lives.
#[derive(Debug, Clone)]
pub struct Op {
    pub key: String,
    pub kind: &'static str,
    pub req: Request,
}

impl Op {
    fn new(req: Request) -> Self {
        Op {
            key: req.to_json_string(),
            kind: req.kind(),
            req,
        }
    }
}

fn params(kind: &str, loops: usize, input_seed: u64) -> Request {
    Request::builder(kind)
        .loops(loops)
        .buses(BusSel::Both)
        .seed(input_seed)
        .build()
        .expect("figure requests take loops, buses and seed")
}

/// `paper all` at `loops`: Table 1, Table 2 and Figures 6–9, both buses.
pub fn figures(loops: usize, input_seed: u64) -> Vec<Op> {
    let mut ops = vec![Op::new(Request::Table1)];
    for kind in ["table2", "figure6", "figure7", "figure8", "figure9"] {
        ops.push(Op::new(params(kind, loops, input_seed)));
    }
    ops
}

/// A racing hill-climb over the extended space, optionally on a store.
pub fn search(loops: usize, budget: u64, input_seed: u64, store: Option<&Path>) -> Op {
    let build = |store: Option<&Path>| {
        let mut b = Request::builder("search")
            .loops(loops)
            .buses(BusSel::Both)
            .seed(input_seed)
            .space(SpaceKind::Extended)
            .budget(budget)
            .racing(true);
        if let Some(dir) = store {
            b = b.store(StoreConfig::at(dir));
        }
        b.build().expect("search takes every search knob")
    };
    let key = build(None).to_json_string();
    let req = build(store);
    Op {
        key,
        kind: req.kind(),
        req,
    }
}

/// The cold search of the search-store workload.
pub fn cold_search(input_seed: u64, store: Option<&Path>) -> Op {
    search(SEARCH_LOOPS, SEARCH_BUDGET, input_seed, store)
}

/// The daemon mix: the `paper all` request set and the cold search's
/// request.
pub fn daemon_mix(input_seed: u64) -> Vec<Op> {
    let mut ops = figures(FIG_LOOPS, input_seed);
    ops.push(cold_search(input_seed, None));
    ops
}

/// SplitMix64: a small, well-mixed generator for seeded orders.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A permutation of `0..n` fixed by `(seed, round)` (Fisher–Yates).
pub fn order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut state = seed ^ round.wrapping_mul(0xd6e8_feb8_6659_fd93);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_permutations_and_repeat() {
        for seed in 0..20 {
            for round in 0..5 {
                let mut o = order(6, seed, round);
                assert_eq!(o, order(6, seed, round));
                o.sort_unstable();
                assert_eq!(o, (0..6).collect::<Vec<_>>());
            }
        }
        assert_ne!(order(6, 0, 0), order(6, 1, 0));
    }

    #[test]
    fn keys_ignore_the_store() {
        let a = cold_search(0, None);
        let b = cold_search(0, Some(Path::new("some/dir")));
        assert_eq!(a.key, b.key);
        assert_ne!(a.req, b.req);
    }
}
