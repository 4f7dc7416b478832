//! Integer arithmetic and integer sums from OQL text: a result outside
//! the `i64` range is a typed error — never a panic, never a silently
//! wrapped value — and the same error whether the expression runs
//! through the vectorized kernels, the per-row evaluator, a wrapper or
//! the reference evaluator; an all-integer `sum` is exact.

use disco::algebra::{lower, AggKind, LogicalExpr};
use disco::core::{
    Attribute, CapabilitySet, InterfaceDef, Mediator, NetworkProfile, Table, TypeRef, Value,
};
use disco::runtime::{evaluate_physical, reference, ResolvedExecs};
use disco::value::Bag;

/// The paper's person demo (Mary 200, Sam 50) behind wrappers with the
/// given capabilities: `full` evaluates pushed expressions at the source,
/// `get_only` leaves every operator to the mediator.
fn person_demo(caps: &CapabilitySet) -> Mediator {
    let mut m = Mediator::new("arith");
    m.define_interface(
        InterfaceDef::new("Person")
            .with_extent_name("person")
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    for (i, (name, salary)) in [("Mary", 200), ("Sam", 50)].into_iter().enumerate() {
        let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
        table
            .insert_values([("name", Value::from(name)), ("salary", Value::Int(salary))])
            .unwrap();
        m.add_relational_source(
            &format!("person{i}"),
            "Person",
            &format!("r{i}"),
            table,
            NetworkProfile::fast(),
            *caps,
        )
        .unwrap();
    }
    m
}

#[test]
fn integer_overflow_in_oql_is_an_error_for_every_operator() {
    let queries = [
        "select x.salary + 9223372036854775807 from x in person",
        "select 0 - 9223372036854775807 - x.salary from x in person",
        "select x.salary * 9223372036854775807 from x in person",
        // `i64::MIN / -1`, spelled without a negative literal.
        "select (0 - 9223372036854775807 - 1) / (0 - 1) from x in person",
    ];
    for caps in [CapabilitySet::full(), CapabilitySet::get_only()] {
        let m = person_demo(&caps);
        for query in queries {
            let err = m.query(query).expect_err(query);
            assert!(
                err.to_string().contains("integer overflow"),
                "{query}: {err}"
            );
        }
        // In range, the same operators still answer.
        let answer = m.query("select x.salary * 2 - 1 from x in person").unwrap();
        assert_eq!(
            *answer.data(),
            [Value::Int(399), Value::Int(99)].into_iter().collect()
        );
    }
}

#[test]
fn integer_sums_are_exact_and_overflow_checked() {
    // 2^53 + 1 is the first integer an `f64` accumulator cannot hold.
    const BEYOND_F64: i64 = 9_007_199_254_740_993;
    for caps in [CapabilitySet::full(), CapabilitySet::get_only()] {
        let m = person_demo(&caps);
        let answer = m
            .query(
                "sum(select x.salary - x.salary + 9007199254740993 \
                 from x in person where x.salary > 100)",
            )
            .unwrap();
        assert_eq!(
            *answer.data(),
            [Value::Int(BEYOND_F64)].into_iter().collect()
        );
        let err = m
            .query("sum(select x.salary - x.salary + 9223372036854775807 from x in person)")
            .expect_err("two i64::MAX summands overflow");
        assert!(err.to_string().contains("integer overflow"), "{err}");
    }

    // The engine and the reference evaluator fold through one accumulator.
    let sum_of = |values: Vec<Value>| {
        let plan = lower(&LogicalExpr::Aggregate {
            func: AggKind::Sum,
            input: Box::new(LogicalExpr::Data(values.into_iter().collect::<Bag>())),
        })
        .unwrap();
        let resolved = ResolvedExecs::default();
        let engine = evaluate_physical(&plan, &resolved).map_err(|e| e.to_string());
        let oracle = reference::evaluate_physical(&plan, &resolved).map_err(|e| e.to_string());
        assert_eq!(engine, oracle);
        engine.map(|bag| bag.iter().next().cloned().expect("one aggregate row"))
    };
    assert_eq!(
        sum_of(vec![Value::Int(BEYOND_F64 - 1), Value::Int(1)]),
        Ok(Value::Int(BEYOND_F64))
    );
    assert_eq!(
        sum_of(vec![Value::Int(1), Value::Float(0.5), Value::Int(2)]),
        Ok(Value::Float(3.5))
    );
    assert!(sum_of(vec![Value::Int(i64::MAX), Value::Int(1)])
        .unwrap_err()
        .contains("integer overflow"));
}
