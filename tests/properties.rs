//! Property-based integration tests: for randomly generated federations
//! and data, the mediator's answers must equal a naive in-memory
//! computation, must not depend on wrapper capabilities, and partial
//! answers followed by resubmission must converge to the full answer.
//!
//! Cases are generated with a seeded deterministic RNG (the offline `rand`
//! shim) rather than proptest — the build environment has no crates.io
//! access.  Every failure reproduces from its printed seed.

use disco::core::{
    Availability, CapabilitySet, InterfaceDef, Mediator, NetworkProfile, Table, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthetic person row.
#[derive(Debug, Clone)]
struct PersonRow {
    name: String,
    salary: i64,
}

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..9usize);
    (0..len)
        .map(|_| char::from(b'a' + u8::try_from(rng.gen_range(0..26u32)).unwrap()))
        .collect()
}

fn random_federation(rng: &mut StdRng) -> Vec<Vec<PersonRow>> {
    let sources = rng.gen_range(1..5usize);
    (0..sources)
        .map(|_| {
            let rows = rng.gen_range(0..12usize);
            (0..rows)
                .map(|_| PersonRow {
                    name: random_name(rng),
                    salary: rng.gen_range(0..500i64),
                })
                .collect()
        })
        .collect()
}

fn person_interface() -> InterfaceDef {
    InterfaceDef::new("Person")
        .with_extent_name("person")
        .with_attribute(disco::catalog::Attribute::new(
            "name",
            disco::catalog::TypeRef::String,
        ))
        .with_attribute(disco::catalog::Attribute::new(
            "salary",
            disco::catalog::TypeRef::Int,
        ))
}

fn build_mediator(sources: &[Vec<PersonRow>], caps: CapabilitySet) -> Mediator {
    let mut m = Mediator::new("prop");
    m.define_interface(person_interface()).unwrap();
    for (i, rows) in sources.iter().enumerate() {
        let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
        for row in rows {
            table
                .insert_values([
                    ("name", Value::from(row.name.clone())),
                    ("salary", Value::Int(row.salary)),
                ])
                .unwrap();
        }
        m.add_relational_source(
            &format!("person{i}"),
            "Person",
            &format!("r{i}"),
            table,
            NetworkProfile::fast(),
            caps,
        )
        .unwrap();
    }
    m
}

/// The reference answer computed naively in memory.
fn reference_answer(sources: &[Vec<PersonRow>], threshold: i64) -> Vec<String> {
    let mut names: Vec<String> = sources
        .iter()
        .flatten()
        .filter(|r| r.salary > threshold)
        .map(|r| r.name.clone())
        .collect();
    names.sort();
    names
}

fn answer_names(answer: &disco::runtime::Answer) -> Vec<String> {
    let mut names: Vec<String> = answer
        .data()
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    names.sort();
    names
}

const CASES: u64 = 24;

#[test]
fn mediator_answers_match_naive_evaluation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let m = build_mediator(&sources, CapabilitySet::full());
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let answer = m.query(&query).unwrap();
        assert!(answer.is_complete(), "seed {seed}");
        assert_eq!(
            answer_names(&answer),
            reference_answer(&sources, threshold),
            "seed {seed}"
        );
    }
}

#[test]
fn answers_do_not_depend_on_wrapper_capabilities() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x10_0000 + seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let full = build_mediator(&sources, CapabilitySet::full());
        let minimal = build_mediator(&sources, CapabilitySet::get_only());
        let a = full.query(&query).unwrap();
        let b = minimal.query(&query).unwrap();
        assert_eq!(a.data(), b.data(), "seed {seed}");
    }
}

#[test]
fn partial_plus_resubmission_equals_full_answer() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x20_0000 + seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let down_index = rng.gen_range(0..4usize);

        // Re-build the mediator keeping the per-source links.
        let mut m = Mediator::new("prop");
        m.define_interface(person_interface()).unwrap();
        let mut links = Vec::new();
        for (i, rows) in sources.iter().enumerate() {
            let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
            for row in rows {
                table
                    .insert_values([
                        ("name", Value::from(row.name.clone())),
                        ("salary", Value::Int(row.salary)),
                    ])
                    .unwrap();
            }
            links.push(
                m.add_relational_source(
                    &format!("person{i}"),
                    "Person",
                    &format!("r{i}"),
                    table,
                    NetworkProfile::fast(),
                    CapabilitySet::full(),
                )
                .unwrap(),
            );
        }
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let full = m.query(&query).unwrap();

        let down = down_index % links.len();
        links[down].set_availability(Availability::Unavailable);
        let partial = m.query(&query).unwrap();
        // Partial data never invents values.
        for value in partial.data() {
            assert!(full.data().contains(value), "seed {seed}");
        }
        links[down].set_availability(Availability::Available);
        let recovered = m.resubmit(&partial).unwrap();
        assert!(recovered.is_complete(), "seed {seed}");
        assert_eq!(answer_names(&recovered), answer_names(&full), "seed {seed}");
    }
}

#[test]
fn aggregates_match_naive_sums() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x30_0000 + seed);
        let sources = random_federation(&mut rng);
        let m = build_mediator(&sources, CapabilitySet::full());
        let expected: i64 = sources.iter().flatten().map(|r| r.salary).sum();
        let answer = m.query("sum(select x.salary from x in person)").unwrap();
        let got = answer.data().iter().next().unwrap().as_int().unwrap();
        assert_eq!(got, expected, "seed {seed}");
        let count = m.query("count(select x.name from x in person)").unwrap();
        let total: i64 = sources.iter().map(|s| s.len() as i64).sum();
        assert_eq!(
            count.data().iter().next().unwrap().as_int().unwrap(),
            total,
            "seed {seed}"
        );
    }
}
