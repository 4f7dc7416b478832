//! The answer oracle: every answer the program returns is checked, after
//! the clock has stopped.
//!
//! The first time a text is seen its answer is compared, as a multiset,
//! with what the seed's bag-at-a-time evaluator (`disco_runtime::reference`)
//! computes over the *canonical* plan — nothing pushed to a wrapper,
//! nothing rewritten — so the optimizer, the pushdown rules, the wrappers'
//! evaluators and the streaming engine are all on the checked side.  Later
//! occurrences are checked by row count and an order-independent checksum.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use disco_algebra::lower;
use disco_catalog::Catalog;
use disco_optimizer::compile_text;
use disco_oql::parse_query;
use disco_runtime::{reference, resolve_execs, Answer, ExecutionConfig};
use disco_value::Bag;
use disco_wrapper::WrapperRegistry;

/// Row count and an order-independent checksum of a bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of rows.
    pub rows: usize,
    /// Wrapping sum of the rows' hashes: independent of row order (the
    /// union order depends on which source answers first) and sensitive
    /// to multiplicity.
    pub checksum: u64,
}

/// A fixed-key multiplicative hasher, eight bytes at a time, so that
/// checksums repeat across processes and checking an answer costs a
/// fraction of producing it.
struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" + "" and "a" + "b" apart.
            self.word(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }
    fn write_i64(&mut self, n: i64) {
        self.word(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// Fingerprints a bag.
#[must_use]
pub fn fingerprint(bag: &Bag) -> Fingerprint {
    let checksum = bag.iter().fold(0u64, |sum, row| {
        let mut hasher = WordHasher(0xcbf2_9ce4_8422_2325);
        row.hash(&mut hasher);
        sum.wrapping_add(hasher.finish())
    });
    Fingerprint {
        rows: bag.len(),
        checksum,
    }
}

/// Evaluates `text` the slow, obvious way: canonical plan, every wrapper
/// asked for its whole extent, the seed evaluator on top.
///
/// # Errors
///
/// Any compile, lowering, wrapper or evaluation error, as text.
pub fn reference_answer(
    text: &str,
    catalog: &Catalog,
    registry: &WrapperRegistry,
) -> Result<Bag, String> {
    let canonical = compile_text(text, catalog).map_err(|e| e.to_string())?;
    let physical = lower(&canonical).map_err(|e| e.to_string())?;
    let config = ExecutionConfig {
        deadline: None,
        ..ExecutionConfig::default()
    };
    let resolved =
        resolve_execs(&physical, registry, catalog, &config).map_err(|e| e.to_string())?;
    reference::evaluate_physical(&physical, &resolved).map_err(|e| e.to_string())
}

/// Remembers the fingerprint of every text's full answer.
#[derive(Debug, Default)]
pub struct Oracle {
    known: HashMap<String, Fingerprint>,
}

impl Oracle {
    /// An oracle that has seen nothing.
    #[must_use]
    pub fn new() -> Self {
        Oracle::default()
    }

    /// The full answer's fingerprint for `key`, computing the reference
    /// on first use.
    fn expected(
        &mut self,
        key: &str,
        reference: impl FnOnce() -> Result<Bag, String>,
    ) -> Result<(Fingerprint, Option<Bag>), String> {
        if let Some(known) = self.known.get(key) {
            return Ok((*known, None));
        }
        let bag = reference().map_err(|e| format!("reference evaluation failed: {e}"))?;
        let print = fingerprint(&bag);
        self.known.insert(key.to_owned(), print);
        Ok((print, Some(bag)))
    }

    /// Checks a complete answer.  `key` names the text *and* the catalog
    /// state it ran against (`plan_wide` answers change when a source is
    /// added); `reference` computes the expected bag on first use.
    ///
    /// # Errors
    ///
    /// What was wrong with the answer.
    pub fn check_complete(
        &mut self,
        key: &str,
        answer: &Answer,
        reference: impl FnOnce() -> Result<Bag, String>,
    ) -> Result<(), String> {
        if !answer.is_complete() {
            return Err(format!(
                "partial answer although every source was up (unavailable: {:?})",
                answer.unavailable_sources()
            ));
        }
        let (expected, first) = self.expected(key, reference)?;
        let got = fingerprint(answer.data());
        // First occurrence: full multiset comparison against the
        // reference bag, not only its fingerprint.
        if first.is_some_and(|bag| bag != *answer.data()) || got != expected {
            return Err(format!(
                "wrong answer: {} rows (checksum {:x}), expected {} rows (checksum {:x})",
                got.rows, got.checksum, expected.rows, expected.checksum
            ));
        }
        Ok(())
    }

    /// Checks a partial answer and its resubmission (§4): the partial
    /// answer names the repository the benchmark failed (`None` when a
    /// deadline was missed with every source up), holds fewer rows than
    /// the full answer, carries a residual that re-parses, and — after
    /// the source recovered — resubmitting `union(residual, data)`
    /// yields the full answer.
    ///
    /// # Errors
    ///
    /// What was wrong.
    pub fn check_partial(
        &mut self,
        key: &str,
        partial: &Answer,
        resubmitted: &Answer,
        failed_repository: Option<&str>,
        reference: impl FnOnce() -> Result<Bag, String>,
    ) -> Result<(), String> {
        if partial.is_complete() {
            return Err("complete answer although a source was down".into());
        }
        // The failed repository must be reported; on a stalled machine a
        // slow source beside it may have missed the deadline as well.
        if let Some(repository) = failed_repository {
            if !partial
                .unavailable_sources()
                .iter()
                .any(|r| r == repository)
            {
                return Err(format!(
                    "unavailable sources {:?} do not name {repository}",
                    partial.unavailable_sources()
                ));
            }
        }
        let residual = partial
            .residual_oql()
            .ok_or("partial answer has no residual")?;
        parse_query(&residual).map_err(|e| format!("residual does not re-parse: {e}"))?;
        let (expected, _) = self.expected(key, reference)?;
        if partial.data().len() >= expected.rows {
            return Err(format!(
                "partial answer holds {} rows, the full answer {}",
                partial.data().len(),
                expected.rows
            ));
        }
        if !resubmitted.is_complete() {
            return Err("resubmission after recovery is still partial".into());
        }
        let got = fingerprint(resubmitted.data());
        if got != expected {
            return Err(format!(
                "data + resubmit(residual) != full answer: {} rows (checksum {:x}), \
                 expected {} rows (checksum {:x})",
                got.rows, got.checksum, expected.rows, expected.checksum
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_value::Value;

    #[test]
    fn fingerprint_ignores_order_and_counts_duplicates() {
        let a: Bag = [Value::Int(1), Value::Int(2), Value::Int(2)]
            .into_iter()
            .collect();
        let b: Bag = [Value::Int(2), Value::Int(1), Value::Int(2)]
            .into_iter()
            .collect();
        let c: Bag = [Value::Int(1), Value::Int(1), Value::Int(2)]
            .into_iter()
            .collect();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
