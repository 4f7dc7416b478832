//! Integration tests for the partial-evaluation query semantics (§1.3, §4):
//! unavailable sources produce answers that are queries, and resubmission
//! after recovery converges to the full answer.

use disco::core::{Availability, CapabilitySet, InterfaceDef, Mediator, NetworkProfile, Value};
use disco::source::generator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Builds a mediator over `n` person sources of 20 rows each and returns
/// the per-source links for failure injection.
fn federation(n: usize) -> (Mediator, Vec<Arc<disco::source::SimulatedLink>>) {
    federation_where(n, |_| CapabilitySet::full())
}

/// [`federation`], the wrapper of source `i` with capabilities `caps(i)`.
fn federation_where(
    n: usize,
    caps: impl Fn(usize) -> CapabilitySet,
) -> (Mediator, Vec<Arc<disco::source::SimulatedLink>>) {
    let mut m = Mediator::new("federation");
    m.define_interface(
        InterfaceDef::new("Person")
            .with_extent_name("person")
            .with_attribute(disco::catalog::Attribute::new(
                "id",
                disco::catalog::TypeRef::Int,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "name",
                disco::catalog::TypeRef::String,
            ))
            .with_attribute(disco::catalog::Attribute::new(
                "salary",
                disco::catalog::TypeRef::Int,
            )),
    )
    .unwrap();
    let mut links = Vec::new();
    for i in 0..n {
        let table = generator::person_table(&format!("person{i}"), 20, i as u64, 7);
        let link = m
            .add_relational_source(
                &format!("person{i}"),
                "Person",
                &format!("r{i}"),
                table,
                NetworkProfile::fast(),
                caps(i),
            )
            .unwrap();
        links.push(link);
    }
    (m, links)
}

const QUERY: &str = "select x.name from x in person where x.salary > 250";

#[test]
fn partial_answers_retain_data_from_every_available_source() {
    let (m, links) = federation(6);
    let full = m.query(QUERY).unwrap();
    assert!(full.is_complete());

    // Take two sources down.
    links[1].set_availability(Availability::Unavailable);
    links[4].set_availability(Availability::Unavailable);
    let partial = m.query(QUERY).unwrap();
    assert!(!partial.is_complete());
    assert_eq!(
        partial.unavailable_sources(),
        &["r1".to_owned(), "r4".to_owned()]
    );
    // Every value in the partial data also appears in the full answer.
    for value in partial.data() {
        assert!(full.data().contains(value), "{value} not in full answer");
    }
    // The partial answer misses exactly the contribution of r1 and r4.
    assert!(partial.data().len() < full.data().len() || full.data().is_empty());
    // The residual query mentions only the unavailable extents.
    let residual = partial.residual_oql().unwrap();
    assert!(residual.contains("person1"));
    assert!(residual.contains("person4"));
    assert!(!residual.contains("person0"));
}

/// §1's availability claim: with each source up with probability `p`, an
/// all-or-nothing mediator answers only when every source is up, so its
/// expected share of the data decays as `p^n`; a partial answer keeps the
/// data of every source that answered, so its share never falls below
/// the all-or-nothing one.  Seeded per (n, p); no link sleeps.
#[test]
fn e1_partial_fraction_dominates_all_or_nothing() {
    const TRIALS: usize = 10;
    for p in [0.99f64, 0.9] {
        for n in [1usize, 2, 4, 8] {
            let (m, links) = federation(n);
            let full_rows = m.query(QUERY).unwrap().data().len().max(1) as f64;
            let mut rng = StdRng::seed_from_u64((n as u64) << 8 | (p * 100.0) as u64);
            let (mut partial_sum, mut strict_sum) = (0.0, 0.0);
            for _ in 0..TRIALS {
                let mut all_up = true;
                for link in &links {
                    let up = rng.gen_bool(p);
                    all_up &= up;
                    link.set_availability(if up {
                        Availability::Available
                    } else {
                        Availability::Unavailable
                    });
                }
                let answer = m.query(QUERY).unwrap();
                assert_eq!(answer.is_complete(), all_up, "n {n}, p {p}");
                partial_sum += answer.data().len() as f64 / full_rows;
                strict_sum += if all_up { 1.0 } else { 0.0 };
            }
            assert!(
                partial_sum + 1e-9 >= strict_sum,
                "n {n}, p {p}: partial {partial_sum} < all-or-nothing {strict_sum}"
            );
        }
    }
}

#[test]
fn resubmission_after_recovery_equals_the_original_answer() {
    let (m, links) = federation(5);
    let full = m.query(QUERY).unwrap();

    links[2].set_availability(Availability::Unavailable);
    let partial = m.query(QUERY).unwrap();
    assert!(!partial.is_complete());

    links[2].set_availability(Availability::Available);
    let recovered = m.resubmit(&partial).unwrap();
    assert!(recovered.is_complete());
    assert_eq!(
        recovered.data(),
        full.data(),
        "resubmission converges to the full answer"
    );
}

#[test]
fn repeated_resubmission_converges_as_sources_recover_one_by_one() {
    let (m, links) = federation(4);
    let full = m.query(QUERY).unwrap();
    for link in &links {
        link.set_availability(Availability::Unavailable);
    }
    let mut answer = m.query(QUERY).unwrap();
    assert!(answer.data().is_empty());
    // Recover one source at a time, resubmitting the latest partial answer.
    for (i, link) in links.iter().enumerate() {
        link.set_availability(Availability::Available);
        answer = m.resubmit(&answer).unwrap();
        if i + 1 < links.len() {
            assert!(
                !answer.is_complete(),
                "still missing {} sources",
                links.len() - i - 1
            );
        }
    }
    assert!(answer.is_complete());
    assert_eq!(answer.data(), full.data());
}

#[test]
fn all_sources_unavailable_returns_the_whole_query_as_residual() {
    let (m, links) = federation(3);
    for link in &links {
        link.set_availability(Availability::Unavailable);
    }
    let answer = m.query(QUERY).unwrap();
    assert!(!answer.is_complete());
    assert!(answer.data().is_empty());
    assert_eq!(answer.unavailable_sources().len(), 3);
    let residual = answer.residual_oql().unwrap();
    for i in 0..3 {
        assert!(residual.contains(&format!("person{i}")));
    }
}

#[test]
fn slow_sources_past_the_deadline_become_unavailable() {
    let (mut m, links) = federation(3);
    m.set_deadline(Some(Duration::from_millis(40)));
    // r1 answers only after 300 ms of real delay.
    links[1].set_profile(
        NetworkProfile::fast()
            .with_availability(Availability::Slow { extra_ms: 300 })
            .with_real_sleep(true),
    );
    let answer = m.query(QUERY).unwrap();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r1".to_owned()]);

    // With a generous deadline the same source is merely slow, not
    // unavailable.
    m.set_deadline(Some(Duration::from_secs(5)));
    let answer = m.query(QUERY).unwrap();
    assert!(answer.is_complete());
}

#[test]
fn partial_answers_are_valid_oql_and_reparse() {
    let (m, links) = federation(4);
    links[0].set_availability(Availability::Unavailable);
    links[3].set_availability(Availability::Unavailable);
    let partial = m.query(QUERY).unwrap();
    let text = partial.as_query_text();
    disco::oql::parse_query(&text).expect("partial answer must be valid OQL");
}

#[test]
fn aggregates_over_partially_available_federations_stay_residual() {
    let (m, links) = federation(3);
    links[1].set_availability(Availability::Unavailable);
    // A sum over all sources cannot be answered partially without changing
    // its meaning; the answer keeps an aggregate over a residual union but
    // still evaluates the available branches to data.
    let answer = m.query("sum(select x.salary from x in person)").unwrap();
    assert!(!answer.is_complete());
    let residual = answer.residual_oql().unwrap();
    assert!(residual.contains("sum("));
    assert!(residual.contains("person1"));
    // Once the source recovers, resubmission gives the exact total.
    links[1].set_availability(Availability::Available);
    let full_direct = m.query("sum(select x.salary from x in person)").unwrap();
    let recovered = m.resubmit(&answer).unwrap();
    assert_eq!(recovered.data(), full_direct.data());
}

#[test]
fn queries_touching_only_available_sources_are_unaffected() {
    let (m, links) = federation(4);
    links[3].set_availability(Availability::Unavailable);
    // person0 does not involve r3 at all.
    let answer = m
        .query("select x.name from x in person0 where x.salary > 250")
        .unwrap();
    assert!(answer.is_complete());
    assert!(answer.unavailable_sources().is_empty());
}

#[test]
fn value_level_check_mary_sam_partial_shape() {
    // The exact §1.3 example, phrased through the public API.
    let mut m = Mediator::new("intro");
    m.register_person_demo().unwrap();
    let full = m
        .query("select x.name from x in person where x.salary > 10")
        .unwrap();
    assert_eq!(
        *full.data(),
        [Value::from("Mary"), Value::from("Sam")]
            .into_iter()
            .collect()
    );
}

/// §4 over explicit unions of like branches, which normalization folds
/// into one node classed by capability (one wrapper is get-only): with two
/// sources down the residual texts are those the planner gave before the
/// fold, and resubmitting after recovery gives the full answer.
#[test]
fn residuals_of_explicit_unions_of_like_branches_keep_their_text() {
    let (m, links) = federation_where(3, |i| match i {
        1 => CapabilitySet::get_only(),
        _ => CapabilitySet::full(),
    });
    let cases = [
        (
            "select x.name from x in union(person0, person1, person2) where x.salary > 250",
            "union(select x.name from x in person1 where x.salary > 250, \
             select x.name from x in person2 where x.salary > 250)",
        ),
        (
            "select x.name from x in union(person0, person*, person2) where x.salary > 250",
            "union(select x.name from x in person1 where x.salary > 250, \
             select x.name from x in person2 where x.salary > 250, \
             select x.name from x in person2 where x.salary > 250)",
        ),
    ];
    for (text, residual) in cases {
        let full = m.query(text).unwrap();
        assert!(full.is_complete());
        for link in &links[1..] {
            link.set_availability(Availability::Unavailable);
        }
        let partial = m.query(text).unwrap();
        assert_eq!(partial.residual_oql().as_deref(), Some(residual), "{text}");
        for link in &links[1..] {
            link.set_availability(Availability::Available);
        }
        let recovered = m.resubmit(&partial).unwrap();
        assert!(recovered.is_complete(), "{text}");
        assert_eq!(recovered.data(), full.data(), "{text}");
    }
}
