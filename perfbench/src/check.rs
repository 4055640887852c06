//! Outcome records, digests and the run's pass/fail ledger.

use hinn::core::SearchOutcome;
use hinn::metrics::PrecisionRecall;

/// FNV-1a over 64-bit words: the per-workload outcome digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add(&mut self, o: &Outcome) {
        self.write_u64(o.query as u64);
        self.write_u64(o.neighbors.len() as u64);
        for (&n, &p) in o.neighbors.iter().zip(&o.prob_bits) {
            self.write_u64(n as u64);
            self.write_u64(p);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What a session returned, in the form the wire can carry bit-exactly:
/// neighbor ids best first, and each neighbor's probability bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Global row id of the query.
    pub query: usize,
    pub neighbors: Vec<usize>,
    pub prob_bits: Vec<u64>,
}

impl Outcome {
    pub fn of(query: usize, o: &SearchOutcome) -> Self {
        Self {
            query,
            neighbors: o.neighbors.clone(),
            prob_bits: o
                .neighbors
                .iter()
                .map(|&i| o.probabilities[i].to_bits())
                .collect(),
        }
    }
}

/// The answer a session is scored on: its natural neighbors when the
/// diagnosis finds the search meaningful, else its top-`s` ranking.
pub fn answer(o: &SearchOutcome) -> Vec<usize> {
    o.natural_neighbors().unwrap_or_else(|| o.neighbors.clone())
}

/// Operations attempted and failed, checks broken, and outcome scores.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// One line per broken check; any entry fails the run.
    pub broken: Vec<String>,
    /// Scores of the fixed quality sample.
    pub scores: Vec<PrecisionRecall>,
    /// Digest over every completed session, in completion order.
    pub digest_all: Digest,
    pub digested: usize,
}

impl Ledger {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    pub fn record(&mut self, o: &Outcome) {
        self.digest_all.add(o);
        self.digested += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    pub fn mean_scores(&self) -> PrecisionRecall {
        PrecisionRecall::mean(&self.scores)
    }
}

/// Compare a re-run sample against the timed run's outcomes.
pub fn compare_sample(ledger: &mut Ledger, what: &str, timed: &[Outcome], rerun: &[Outcome]) {
    ledger.check(timed.len() == rerun.len(), || {
        format!("{what}: re-ran {} of {} sessions", rerun.len(), timed.len())
    });
    for (i, (a, b)) in timed.iter().zip(rerun).enumerate() {
        ledger.check(a == b, || {
            format!("{what}: session {i} (query {}) differs on re-run", a.query)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_field() {
        let base = Outcome {
            query: 3,
            neighbors: vec![1, 2],
            prob_bits: vec![10, 20],
        };
        let d = |o: &Outcome| {
            let mut d = Digest::default();
            d.add(o);
            d
        };
        let mut other = base.clone();
        other.prob_bits[1] = 21;
        assert_ne!(d(&base), d(&other));
        let mut other = base.clone();
        other.query = 4;
        assert_ne!(d(&base), d(&other));
        assert_eq!(d(&base), d(&base.clone()));
    }
}
