//! Mediator composition (Fig. 1): mediators accessing other mediators.
//!
//! "This distributed architecture permits DBAs to develop mediators
//! independently and permits mediators to be combined."  A lower-level
//! mediator is exposed to an upper-level mediator through
//! [`MediatorWrapper`], a wrapper whose `submit_into` translates the pushed
//! algebra expression back to OQL and runs it on the inner mediator.
//! Together with [`disco_catalog::CatalogComponent`] this reproduces the
//! A/M/C/W/D topology of Fig. 1.

use std::sync::Arc;
use std::time::Duration;

use disco_algebra::{logical_to_oql, CapabilitySet, LogicalExpr, OperatorKind};
use disco_catalog::{CatalogComponent, MediatorAdvertisement};
use disco_oql::print_expr;
use disco_wrapper::{AnswerSink, AnswerSummary, Wrapper, WrapperError};

use crate::Mediator;

/// A wrapper that forwards pushed expressions to another mediator.
///
/// The inner mediator is a full DISCO mediator, so this wrapper advertises
/// `get`, `select` and `project` with composition (joins across the inner
/// mediator's own sources are left to the inner mediator's optimizer by
/// shipping the corresponding OQL).
pub struct MediatorWrapper {
    name: String,
    inner: Arc<Mediator>,
}

impl MediatorWrapper {
    /// Creates a wrapper named `name` over `inner`.
    pub fn new(name: impl Into<String>, inner: Arc<Mediator>) -> Self {
        MediatorWrapper {
            name: name.into(),
            inner,
        }
    }

    /// The wrapped mediator.
    #[must_use]
    pub fn inner(&self) -> &Arc<Mediator> {
        &self.inner
    }
}

impl std::fmt::Debug for MediatorWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediatorWrapper")
            .field("name", &self.name)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Wrapper for MediatorWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "mediator"
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::new([
            OperatorKind::Get,
            OperatorKind::Select,
            OperatorKind::Project,
        ])
        .with_composition(true)
    }

    /// Runs the pushed expression on the inner mediator and delivers its
    /// whole answer as one chunk.
    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        self.capabilities()
            .accepts_named(expr, &self.name)
            .map_err(WrapperError::Capability)?;
        let started = std::time::Instant::now();
        let oql = pushed_expr_to_oql(expr);
        let answer = self.inner.query(&oql).map_err(|err| {
            WrapperError::Algebra(disco_algebra::AlgebraError::Unsupported(format!(
                "inner mediator {} failed: {err}",
                self.inner.name()
            )))
        })?;
        if !answer.is_complete() {
            // The inner mediator could not reach some of *its* sources; for
            // the outer mediator this inner mediator counts as unavailable,
            // propagating partial evaluation up the hierarchy.
            return Err(WrapperError::Unavailable {
                endpoint: self.inner.name().to_owned(),
            });
        }
        sink.push(answer.data().clone());
        Ok(AnswerSummary {
            rows_scanned: answer.stats().rows_transferred,
            latency: started.elapsed().max(Duration::from_micros(1)),
        })
    }
}

/// Renders a pushed expression as OQL for the inner mediator, keeping rows
/// as structs: a projection onto a single attribute must still return
/// `struct(attr: …)` tuples (not bare values), because the outer mediator
/// continues to address the attribute by name.
fn pushed_expr_to_oql(expr: &LogicalExpr) -> String {
    fn render(expr: &LogicalExpr) -> Option<String> {
        match expr {
            LogicalExpr::Get { collection } => Some(collection.clone()),
            LogicalExpr::Filter { input, predicate } => {
                let inner = render(input)?;
                let pred = print_expr(&disco_algebra::scalar_to_oql(predicate, Some("t")));
                Some(format!("select t from t in {inner} where {pred}"))
            }
            LogicalExpr::Project { input, columns } => {
                // Projection keeps struct shape regardless of arity.
                let fields = columns
                    .iter()
                    .map(|c| format!("{c}: t.{c}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                match input.as_ref() {
                    LogicalExpr::Filter {
                        input: inner,
                        predicate,
                    } => {
                        let base = render(inner)?;
                        let pred = print_expr(&disco_algebra::scalar_to_oql(predicate, Some("t")));
                        Some(format!(
                            "select struct({fields}) from t in {base} where {pred}"
                        ))
                    }
                    other => {
                        let base = render(other)?;
                        Some(format!("select struct({fields}) from t in {base}"))
                    }
                }
            }
            _ => None,
        }
    }
    render(expr).unwrap_or_else(|| print_expr(&logical_to_oql(expr)))
}

/// A small helper that registers a mediator's interfaces with a catalog
/// component (the C box of Fig. 1).
pub fn advertise(mediator: &Mediator, catalog: &mut CatalogComponent) {
    let interfaces: Vec<String> = mediator
        .catalog()
        .interfaces()
        .map(|i| i.name().to_owned())
        .collect();
    let mut advertisement = MediatorAdvertisement::new(mediator.name())
        .with_extent_count(mediator.catalog().stats().extents);
    for interface in interfaces {
        advertisement = advertisement.with_interface(interface);
    }
    catalog.advertise(advertisement);
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_catalog::{Attribute, InterfaceDef, MetaExtent, Repository, TypeRef};
    use disco_source::{NetworkProfile, Table};
    use disco_value::{Bag, Value};

    /// Builds a two-level hierarchy: the `hr` mediator integrates the two
    /// person sources; the `corp` mediator integrates `hr` as one source.
    fn hierarchy() -> (Arc<Mediator>, Mediator) {
        let mut hr = Mediator::new("hr");
        hr.register_person_demo().unwrap();
        let hr = Arc::new(hr);

        let mut corp = Mediator::new("corp");
        corp.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        corp.register_repository(Repository::new("r_hr")).unwrap();
        corp.register_wrapper(Arc::new(MediatorWrapper::new("w_hr", Arc::clone(&hr))))
            .unwrap();
        // The lower mediator's collection is its implicit `person` extent;
        // in the upper mediator it appears as the extent `person_hr`, with
        // a transformation map relating the two names (§2.2.2).
        corp.register_extent(
            MetaExtent::new("person_hr", "Person", "w_hr", "r_hr").with_map(
                disco_catalog::TypeMap::builder()
                    .relation("person", "person_hr")
                    .build()
                    .unwrap(),
            ),
        )
        .unwrap();
        (hr, corp)
    }

    #[test]
    fn queries_flow_through_the_mediator_hierarchy() {
        let (_hr, corp) = hierarchy();
        let answer = corp
            .query("select x.name from x in person where x.salary > 10")
            .unwrap();
        assert!(answer.is_complete());
        assert_eq!(
            *answer.data(),
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn upper_mediator_can_combine_local_and_remote_sources() {
        let (_hr, mut corp) = hierarchy();
        let mut t = Table::new("person_local", ["name", "salary"]);
        t.insert_values([("name", Value::from("Olga")), ("salary", Value::Int(400))])
            .unwrap();
        corp.add_relational_source(
            "person_local",
            "Person",
            "r_local",
            t,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
        let answer = corp
            .query("select x.name from x in person where x.salary > 10")
            .unwrap();
        assert_eq!(answer.data().len(), 3);
    }

    #[test]
    fn catalog_component_tracks_advertisements() {
        let (hr, corp) = hierarchy();
        let mut component = CatalogComponent::new();
        advertise(&hr, &mut component);
        advertise(&corp, &mut component);
        assert_eq!(component.len(), 2);
        let person_mediators = component.mediators_for_interface("Person");
        assert_eq!(person_mediators.len(), 2);
        assert!(component.total_extents() >= 3);
    }

    /// A sink that keeps every chunk it is handed.
    #[derive(Default)]
    struct Chunks(Vec<Bag>);

    impl AnswerSink for Chunks {
        fn push(&mut self, rows: Bag) -> bool {
            self.0.push(rows);
            true
        }
    }

    #[test]
    fn mediator_wrapper_rejects_unsupported_pushes() {
        let (hr, _corp) = hierarchy();
        let wrapper = MediatorWrapper::new("w_hr", hr);
        assert_eq!(wrapper.kind(), "mediator");
        let join = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("person0")),
            right: Box::new(LogicalExpr::get("person1")),
            on: vec![("name".into(), "name".into())],
        };
        let mut sink = Chunks::default();
        assert!(matches!(
            wrapper.submit_into(&join, &mut sink).unwrap_err(),
            WrapperError::Capability(_)
        ));
        assert!(sink.0.is_empty());
    }

    /// Pins what streaming through the inner query must change on
    /// purpose: today the inner answer arrives whole, as one chunk.
    #[test]
    fn mediator_wrapper_delivers_the_inner_answer_as_one_chunk() {
        let (hr, _corp) = hierarchy();
        let inner = hr.query("person").unwrap();
        let wrapper = MediatorWrapper::new("w_hr", hr);
        let mut sink = Chunks::default();
        let summary = wrapper
            .submit_into(&LogicalExpr::get("person"), &mut sink)
            .unwrap();
        assert_eq!(sink.0, vec![inner.data().clone()]);
        assert_eq!(sink.0[0].len(), 2);
        assert_eq!(summary.rows_scanned, inner.stats().rows_transferred);
    }

    #[test]
    fn an_inner_partial_answer_is_an_unavailable_source() {
        let mut hr = Mediator::new("hr");
        hr.register_person_demo().unwrap();
        let mut t = Table::new("person2", ["name", "salary"]);
        t.insert_values([("name", Value::from("Ada")), ("salary", Value::Int(90))])
            .unwrap();
        hr.add_relational_source(
            "person2",
            "Person",
            "r2",
            t,
            NetworkProfile::unavailable(),
            CapabilitySet::full(),
        )
        .unwrap();
        let wrapper = MediatorWrapper::new("w_hr", Arc::new(hr));
        let mut sink = Chunks::default();
        let err = wrapper
            .submit_into(&LogicalExpr::get("person"), &mut sink)
            .unwrap_err();
        assert!(
            matches!(&err, WrapperError::Unavailable { endpoint } if endpoint == "hr"),
            "{err:?}"
        );
        assert!(sink.0.is_empty(), "a partial inner answer delivers nothing");
    }
}
