//! Output checks: committed reference digests, exact counts, and the
//! tally behind `success_rate`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use heterovliw_core::api::Response;

use crate::digest::ResponseDigest;
use crate::mix::Op;

/// Reference digests and exact counts captured at the benchmark's
/// introduction, for input seeds 0 and 1.
const COMMITTED: &str = include_str!("../refs/digests.tsv");

/// Reference digests by request key, plus named exact counts.
#[derive(Debug, Default)]
pub struct Refs {
    digests: BTreeMap<String, ResponseDigest>,
    counts: BTreeMap<String, u64>,
}

impl Refs {
    /// The committed references of `input_seed` (empty if none).
    pub fn committed(input_seed: u64) -> Result<Self, String> {
        let mut refs = Refs::default();
        for (n, line) in COMMITTED.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("refs/digests.tsv line {}: malformed", n + 1);
            let seed: u64 = f.get(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            if seed != input_seed {
                continue;
            }
            match (f[0], f.len()) {
                ("digest", 6) => {
                    let d = ResponseDigest {
                        text: f[3].to_owned(),
                        body: f[4].to_owned(),
                        meta: f[5].to_owned(),
                    };
                    refs.digests.insert(f[2].to_owned(), d);
                }
                ("count", 4) => {
                    refs.counts
                        .insert(f[2].to_owned(), f[3].parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(refs)
    }

    /// The committed references of `input_seed`, refused unless they
    /// cover every op in `ops`.
    pub fn for_ops(input_seed: u64, ops: &[&Op]) -> Result<Self, String> {
        let committed = Refs::committed(input_seed)?;
        match ops
            .iter()
            .find(|op| !committed.digests.contains_key(&op.key))
        {
            None => Ok(committed),
            Some(op) => Err(format!(
                "input seed {input_seed} has no committed digest for {}: \
                 capture one with `perfbench capture --input-seed {input_seed}`",
                op.key
            )),
        }
    }

    pub fn digest(&self, key: &str) -> Option<&ResponseDigest> {
        self.digests.get(key)
    }

    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.get(name).copied()
    }

    /// Table lines for these references (the capture format).
    pub fn lines(&self, input_seed: u64) -> Vec<String> {
        let mut out = Vec::new();
        for (key, d) in &self.digests {
            out.push(format!(
                "digest\t{input_seed}\t{key}\t{}\t{}\t{}",
                d.text, d.body, d.meta
            ));
        }
        for (name, v) in &self.counts {
            out.push(format!("count\t{input_seed}\t{name}\t{v}"));
        }
        out
    }

    pub fn insert_digest(&mut self, key: String, d: ResponseDigest) {
        self.digests.insert(key, d);
    }

    pub fn insert_count(&mut self, name: &str, v: u64) {
        self.counts.insert(name.to_owned(), v);
    }
}

pub fn digest_of(r: &Response) -> ResponseDigest {
    ResponseDigest::of(&r.text, r.body.as_deref(), r.meta.as_deref())
}

/// Tallies checked responses and records every failure.
#[derive(Debug)]
pub struct Checker {
    refs: Refs,
    state: Mutex<Tally>,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed output checks and exact-count violations, for the log.
    problems: Vec<String>,
    /// Exact-count violations fail the run outright.
    violations: u64,
}

impl Checker {
    pub fn new(refs: Refs) -> Self {
        Checker {
            refs,
            state: Mutex::new(Tally::default()),
        }
    }

    pub fn refs(&self) -> &Refs {
        &self.refs
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, Tally> {
        self.state
            .lock()
            .expect("check tally poisoned by a panicking thread")
    }

    /// Counts one attempted op: it succeeds when the response is ok and
    /// its text, body and meta match the reference byte for byte.
    pub fn response(&self, op: &Op, r: &Response) {
        let good = r.ok && self.refs.digest(&op.key) == Some(&digest_of(r));
        let mut t = self.tally();
        t.attempted += 1;
        if !good {
            t.failed += 1;
            let why = if r.ok {
                "bytes differ from the reference".to_owned()
            } else {
                format!("error {:?}", r.error)
            };
            t.problems.push(format!("{}: {why}", op.key));
        }
    }

    /// Counts an op that produced no response at all.
    pub fn lost(&self, what: &str, err: &str) {
        let mut t = self.tally();
        t.attempted += 1;
        t.failed += 1;
        t.problems.push(format!("{what}: {err}"));
    }

    /// An exact-count self-check; a violation fails the run.
    pub fn exact(&self, what: &str, got: u64, want: u64) {
        if got != want {
            let mut t = self.tally();
            t.violations += 1;
            t.problems
                .push(format!("{what}: got {got}, expected {want}"));
        }
    }

    /// A boolean self-check; a violation fails the run.
    pub fn holds(&self, what: &str, ok: bool) {
        if !ok {
            let mut t = self.tally();
            t.violations += 1;
            t.problems.push(format!("{what}: does not hold"));
        }
    }

    /// `(attempted, failed, violations, problems)`.
    pub fn summary(&self) -> (u64, u64, u64, Vec<String>) {
        let t = self.tally();
        (t.attempted, t.failed, t.violations, t.problems.clone())
    }
}
