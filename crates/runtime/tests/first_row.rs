//! A partial answer's `time_to_first_row` is the first row of the data it
//! keeps: rows of a branch that is lost later leave with that branch.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{branch, federation_with, instant_profile};
use disco_algebra::{lower, CapabilitySet, LogicalExpr};
use disco_runtime::Executor;
use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
use disco_value::Bag;
use disco_wrapper::{AnswerSink, AnswerSummary, RelationalWrapper, Wrapper, WrapperError};

/// A relational source that pushes its first chunk, stalls for 300 ms and
/// then reports itself unavailable.
struct LostAfterAChunk(RelationalWrapper);

/// Forwards the first chunk only.
struct FirstChunk<'a> {
    sink: &'a mut dyn AnswerSink,
    pushed: bool,
}

impl AnswerSink for FirstChunk<'_> {
    fn push(&mut self, chunk: Bag) -> bool {
        let first = !self.pushed;
        self.pushed = true;
        first && self.sink.push(chunk)
    }

    fn is_cancelled(&self) -> bool {
        self.sink.is_cancelled()
    }

    fn pause(&mut self, delay: Duration) -> bool {
        self.sink.pause(delay)
    }
}

impl Wrapper for LostAfterAChunk {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn kind(&self) -> &str {
        self.0.kind()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.0.capabilities()
    }

    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let mut first = FirstChunk {
            sink,
            pushed: false,
        };
        let _ = self.0.submit_into(expr, &mut first);
        sink.pause(Duration::from_millis(300));
        Err(WrapperError::Unavailable {
            endpoint: self.0.name().to_owned(),
        })
    }
}

/// Fails at the parent commit, which reported the lost member's first row
/// (at once) for an answer that holds only the slow member's (after
/// 150 ms).
#[test]
fn a_lost_members_rows_do_not_set_the_first_row_time() {
    let sleepy = NetworkProfile {
        base_latency_us: 150_000,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 0,
        ..NetworkProfile::fast()
    };
    let federation = federation_with(&[instant_profile(3), sleepy], 8, 5);
    // person0 answers first, with one chunk, and is lost 300 ms later.
    let store = Arc::new(RelationalStore::new());
    store.put_table(generator::person_table("person0", 8, 0, 5));
    let link = Arc::new(SimulatedLink::new("r0", instant_profile(3), 5));
    federation
        .registry
        .register(Arc::new(LostAfterAChunk(RelationalWrapper::new(
            "w0", store, link,
        ))));
    // Two like branches, lowered as written: a `mkunion`, each branch
    // one member's call (normalization would fold them into a fan-out).
    let plan = lower(&LogicalExpr::Union(vec![branch(0, -1), branch(1, -1)])).unwrap();
    let answer = Executor::new(federation.registry.clone())
        .with_deadline(Some(Duration::from_secs(20)))
        .execute(&plan, &federation.catalog)
        .unwrap();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r0".to_owned()]);
    assert_eq!(answer.data().len(), 8, "person1's rows only");
    let first_row = answer.time_to_first_row().expect("the answer holds data");
    assert!(
        first_row >= Duration::from_millis(120),
        "the first kept row came from the member that took 150 ms, not {first_row:?}"
    );
    common::assert_no_calls_in_flight();
}
