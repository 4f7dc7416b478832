//! Prepared plans: the executable form a plan-cache hit runs (§3.3).
//!
//! A cached plan runs many times, and most of what resolving its `exec`
//! calls takes does not depend on the execution: which calls are
//! distinct, each extent's transformation map, the fields a call's rows
//! must carry, the keys the calibration store records a call under.  A
//! [`PreparedPlan`] does that work once, on the miss that plans the text,
//! and keeps the physical plan — nothing else of the optimizer's
//! [`Plan`]: not its logical tree.
//!
//! The **call table** lists the plan's distinct calls in plan order, and
//! shares rather than copies: a call's shipped expression is the `Arc`
//! the plan's `exec` node holds, and like-typed extents share one
//! [`CallShape`].  A member of a fan-out (an interface's extent) ships its
//! class template's expression with its own extent's name; the call
//! holds its own copy, built here, and shares the names with the plan,
//! while the table records which call each member's is, so that the
//! pipeline finds it by the member's index.  A class's members share one
//! [`CallShape`], built once.  What can change while the catalog does not
//! — the wrapper handle the registry binds to a name — is looked up per
//! execution, so a wrapper re-registered under its name is the one called.
//! A call's calibration keys are rendered the first time the call is
//! recorded, on the call worker, so a miss does not render every call on
//! the query thread.
//!
//! **Patched, not planned again.**  When an extent is added to or
//! removed from an interface a cached plan reads, the plan cache patches
//! the entry ([`disco_optimizer::Optimizer::patch`]): the fan-out's member
//! list is replaced and the call table spliced — every untouched
//! [`Call`] is shared with the entry it came from, a removed member's
//! call is dropped and an added member's is made as above.  A class whose
//! template is named after a new first member gets a template call of its
//! own, and its members' calls point to it.  A table one of whose calls
//! serves two places of the plan is not spliced; the text is planned
//! again instead.
//!
//! There is one resolution path: [`Executor::execute`] and
//! [`resolve_execs_streamed`] prepare a table for the plan they are given
//! and run it, exactly as a hit runs the cached one.
//!
//! [`Executor::execute`]: crate::Executor::execute
//! [`resolve_execs_streamed`]: crate::resolve_execs_streamed

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use disco_algebra::{FanOut, LogicalExpr, Member, PhysicalExpr, ScalarExpr};
use disco_catalog::{Catalog, TypeMap};
use disco_optimizer::{
    physical_bytes, CacheEntry, CalibrationKey, Patch, Plan, PlanMemo, NODE_BYTES,
};
use disco_wrapper::expected_after_expr;

use crate::exec::ExecKey;
use crate::Result;

/// A plan ready to execute: the physical plan and its call table, built
/// against the catalog generation the plan was optimized for.  This is
/// what the mediator's and the server's plan caches hold; see the module
/// documentation.
///
/// Two prepared plans are equal when they are for the same text and
/// generation, hold equal physical plans and list equal calls in the same
/// order, with each fan-out member's call at the same place.
#[derive(Debug)]
pub struct PreparedPlan {
    query: Option<String>,
    catalog_generation: u64,
    physical: Arc<PhysicalExpr>,
    pub(crate) calls: Arc<CallTable>,
    memo: Arc<PlanMemo>,
}

impl PartialEq for PreparedPlan {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query
            && self.catalog_generation == other.catalog_generation
            && self.physical == other.physical
            && *self.calls == *other.calls
    }
}

impl PreparedPlan {
    /// Prepares `plan` against `catalog`, the catalog it was optimized
    /// against.  The plan's logical tree is dropped; what patching it
    /// needs is kept ([`Plan::memo`]).
    ///
    /// # Errors
    ///
    /// An extent or interface a call names that `catalog` does not hold.
    pub fn new(plan: Plan, catalog: &Catalog) -> Result<Self> {
        let calls = Arc::new(CallTable::new(&plan.physical, catalog)?);
        let memo = Arc::clone(plan.memo());
        Ok(PreparedPlan {
            query: plan.query,
            catalog_generation: plan.catalog_generation,
            physical: Arc::new(plan.physical),
            calls,
            memo,
        })
    }

    /// The physical plan.
    #[must_use]
    pub fn physical(&self) -> &PhysicalExpr {
        &self.physical
    }
}

impl CacheEntry for PreparedPlan {
    fn query_text(&self) -> Option<&str> {
        self.query.as_deref()
    }

    fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }

    fn memo(&self) -> &Arc<PlanMemo> {
        &self.memo
    }

    fn bytes(&self) -> usize {
        let query = self.query.as_ref().map_or(0, String::capacity);
        std::mem::size_of::<Self>()
            + query
            + physical_bytes(&self.physical)
            + self.calls.bytes()
            + self.memo.bytes()
    }

    /// The plan with the patch's member lists and its call table spliced
    /// to match; a patch that changes no node shares the plan and the
    /// table.
    fn patched(&self, patch: &Patch, catalog: &Catalog) -> Option<Self> {
        let (physical, calls) = if patch.is_empty() {
            (Arc::clone(&self.physical), Arc::clone(&self.calls))
        } else {
            let mut physical = (*self.physical).clone();
            if !patch.apply_physical(&mut physical) {
                return None;
            }
            let calls = self.calls.patched(&self.physical, &physical, catalog)?;
            (Arc::new(physical), Arc::new(calls))
        };
        Some(PreparedPlan {
            query: self.query.clone(),
            catalog_generation: patch.generation(),
            physical,
            calls,
            memo: Arc::clone(patch.memo()),
        })
    }
}

/// The distinct `exec` calls of one physical plan, in plan order, with
/// every lookup that does not depend on the execution done.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallTable {
    calls: Vec<Arc<Call>>,
    /// Indices into `calls` sorted by extent, plan order among the calls
    /// to one extent: a structural lookup is a binary search.
    by_extent: Vec<usize>,
    /// Per fan-out of the plan, by the address of its templates: the
    /// index of each member's call (none for a member reading no source).
    fan_outs: Vec<(usize, Vec<Option<usize>>)>,
    /// Whether a call serves two places of the plan.
    shared: bool,
}

impl PartialEq for CallTable {
    fn eq(&self, other: &Self) -> bool {
        self.calls.len() == other.calls.len()
            && self.calls.iter().zip(&other.calls).all(|(a, b)| **a == **b)
            && self.fan_outs.len() == other.fan_outs.len()
            && (self.fan_outs.iter().zip(&other.fan_outs)).all(|((_, a), (_, b))| a == b)
    }
}

impl CallTable {
    /// The call table of `plan` against `catalog`.
    pub(crate) fn new(plan: &PhysicalExpr, catalog: &Catalog) -> Result<Self> {
        let mut found = Found::default();
        found.visit(plan, false);
        let Found {
            specs,
            fan_outs,
            shared,
            ..
        } = found;
        let mut shapes: Vec<Arc<CallShape>> = Vec::new();
        // The shape of each class of a fan-out, by interface: its members
        // share it while their maps are alike.
        let mut class_shapes: Vec<((&LogicalExpr, &str), Arc<CallShape>)> = Vec::new();
        let mut fields: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        let mut templates: Vec<Arc<TemplateCall>> = Vec::new();
        let mut calls = Vec::with_capacity(specs.len());
        for spec in specs {
            let meta = catalog.extent(&spec.extent)?;
            let interface = meta.interface();
            let class_key = match spec.shipped {
                Shipped::Member(template) => Some((&**template, interface)),
                _ => None,
            };
            let known = class_key.and_then(|key| {
                class_shapes
                    .iter()
                    .find(|((t, i), shape)| {
                        std::ptr::eq(*t, key.0) && *i == key.1 && shape.map == *meta.map()
                    })
                    .map(|(_, shape)| Arc::clone(shape))
            });
            let shape = match known {
                Some(shape) => shape,
                None => {
                    if !fields.contains_key(interface) {
                        fields.insert(interface, field_names(catalog, interface)?);
                    }
                    let shape = CallShape {
                        map: meta.map().clone(),
                        expected: expected_after_expr(spec.shipped.expr(), &fields[interface]),
                    };
                    let shape = match shapes.iter().find(|known| ***known == shape) {
                        Some(known) => Arc::clone(known),
                        None => {
                            let shape = Arc::new(shape);
                            shapes.push(Arc::clone(&shape));
                            shape
                        }
                    };
                    if let Some(key) = class_key {
                        class_shapes.push((key, Arc::clone(&shape)));
                    }
                    shape
                }
            };
            let template = match spec.shipped {
                Shipped::Member(template) => {
                    let known = templates
                        .iter()
                        .position(|t| Arc::ptr_eq(&t.expr, template));
                    let at = known.unwrap_or_else(|| {
                        templates.push(Arc::new(TemplateCall {
                            expr: Arc::clone(template),
                            keys: OnceLock::new(),
                        }));
                        templates.len() - 1
                    });
                    Some(Arc::clone(&templates[at]))
                }
                _ => None,
            };
            let expr = match spec.shipped {
                Shipped::Exec(expr) => Arc::clone(expr),
                _ => Arc::new(spec.shipped().into_owned()),
            };
            calls.push(Arc::new(Call {
                repository: spec.repository,
                extent: spec.extent,
                wrapper: spec.wrapper,
                template,
                expr,
                shape,
                calibration: OnceLock::new(),
            }));
        }
        let mut table = CallTable {
            calls,
            by_extent: Vec::new(),
            fan_outs,
            shared,
        };
        table.index();
        Ok(table)
    }

    /// This table, of the plan `old`, spliced for `new`: `old` with other
    /// member lists, a member kept where its extent's name is the same
    /// `Arc`.  Each fan-out left alone keeps its calls; a patched one
    /// keeps the calls of the members it kept and gets a call made for
    /// each other member — in the order the table of `new` lists them.
    /// `None` when a call serves two places of the plan, or the plans'
    /// fan-outs do not pair up.
    pub(crate) fn patched(
        &self,
        old: &PhysicalExpr,
        new: &PhysicalExpr,
        catalog: &Catalog,
    ) -> Option<CallTable> {
        if self.shared {
            return None;
        }
        let (olds, news) = (fan_outs_of(old), fan_outs_of(new));
        if olds.len() != self.fan_outs.len() || news.len() != olds.len() {
            return None;
        }
        let grown = (news.iter().zip(&olds))
            .map(|(new, old)| new.members.len().saturating_sub(old.members.len()))
            .sum::<usize>();
        let mut calls = Vec::with_capacity(self.calls.len() + grown);
        // The patched runs: first old call, old length, new length, and
        // where the run starts now.
        let mut runs: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut next = 0;
        for ((old_node, new_node), (_, indices)) in olds.iter().zip(&news).zip(&self.fan_outs) {
            if Arc::ptr_eq(&old_node.members, &new_node.members) {
                continue;
            }
            let first = indices.first().copied().flatten()?;
            let contiguous = (indices.iter().enumerate()).all(|(i, at)| *at == Some(first + i));
            if !contiguous || first < next {
                return None;
            }
            calls.extend(self.calls[next..first].iter().cloned());
            next = first + indices.len();
            let made = Self::spliced(
                &old_node.members,
                new_node,
                &self.calls[first..next],
                catalog,
            )?;
            runs.push((first, indices.len(), made.len(), calls.len()));
            calls.extend(made);
        }
        calls.extend(self.calls[next..].iter().cloned());
        // Where an old call outside the runs is now.
        let moved = |at: usize| -> Option<usize> {
            let mut now = at;
            for &(first, before, after, _) in &runs {
                if at >= first + before {
                    now = now + after - before;
                } else if at >= first {
                    return None;
                }
            }
            Some(now)
        };
        let mut runs = runs.iter();
        let mut fan_outs = Vec::with_capacity(self.fan_outs.len());
        for ((old_node, new_node), (_, indices)) in olds.iter().zip(&news).zip(&self.fan_outs) {
            let at = if Arc::ptr_eq(&old_node.members, &new_node.members) {
                let moved = |i: &Option<usize>| match i {
                    Some(i) => moved(*i).map(Some),
                    None => Some(None),
                };
                indices.iter().map(moved).collect::<Option<_>>()?
            } else {
                let &(.., made, start) = runs.next()?;
                (start..start + made).map(Some).collect()
            };
            fan_outs.push((new_node.templates.as_ptr() as usize, at));
        }
        let mut table = CallTable {
            calls,
            by_extent: Vec::new(),
            fan_outs,
            shared: false,
        };
        table.index();
        Some(table)
    }

    /// The calls of `node`'s members, whose members were `old` with the
    /// calls `calls`: a kept member's (the same names) as it was — shared,
    /// unless its class's template was named anew, which a class's
    /// members' calls share — another's made from an old call of its
    /// class.
    fn spliced(
        old: &[Member],
        node: &FanOut,
        calls: &[Arc<Call>],
        catalog: &Catalog,
    ) -> Option<Vec<Arc<Call>>> {
        // Per class: an old member's call, and its template's call now.
        let mut classes: Vec<Option<(&Arc<Call>, Arc<TemplateCall>)>> =
            vec![None; node.templates.len()];
        for (m, call) in old.iter().zip(calls) {
            let class = classes.get_mut(m.class)?;
            if class.is_none() {
                let known = call.template.as_ref()?;
                let now = template_call(&node.templates[m.class])?;
                let template = match Arc::ptr_eq(&known.expr, now) {
                    true => Arc::clone(known),
                    false => Arc::new(TemplateCall {
                        expr: Arc::clone(now),
                        keys: OnceLock::new(),
                    }),
                };
                *class = Some((call, template));
            }
        }
        let mut out = Vec::with_capacity(node.members.len());
        let mut at = 0;
        for member in node.members.iter() {
            while old.get(at).is_some_and(|o| {
                !Arc::ptr_eq(&o.extent, &member.extent) && o.extent <= member.extent
            }) {
                at += 1;
            }
            let (model, template) = classes.get(member.class)?.as_ref()?;
            let call = match old.get(at) {
                Some(o) if Arc::ptr_eq(&o.extent, &member.extent) => {
                    at += 1;
                    let kept = &calls[at - 1];
                    match kept.template.as_ref() {
                        Some(t) if Arc::ptr_eq(t, template) => Arc::clone(kept),
                        _ => Arc::new(kept.with_template(template)),
                    }
                }
                _ => Arc::new(model.for_member(member, template, catalog)?),
            };
            out.push(call);
        }
        Some(out)
    }

    /// The heap bytes the table keeps, estimated; shipped expressions
    /// shared with the plan are the plan's.
    fn bytes(&self) -> usize {
        const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
        let mut shape: Option<&Arc<CallShape>> = None;
        let calls: usize = self
            .calls
            .iter()
            .map(|call| {
                let own_expr = call
                    .template
                    .as_ref()
                    .map_or(0, |_| call.expr.size() * NODE_BYTES);
                let keys = call.calibration.get().map_or(0, CalibrationKey::bytes);
                let shape_bytes = match shape.replace(&call.shape) {
                    Some(known) if Arc::ptr_eq(known, &call.shape) => 0,
                    _ => call.shape.bytes(),
                };
                ARC_HEADER + std::mem::size_of::<Call>() + own_expr + keys + shape_bytes
            })
            .sum();
        let index = self.by_extent.capacity() * std::mem::size_of::<usize>();
        let fan_outs: usize = self
            .fan_outs
            .iter()
            .map(|(_, at)| at.capacity() * std::mem::size_of::<Option<usize>>())
            .sum();
        self.calls.capacity() * std::mem::size_of::<Arc<Call>>() + calls + index + fan_outs
    }

    /// Rebuilds `by_extent` (a stable sort keeps plan order per extent).
    fn index(&mut self) {
        let calls = &self.calls;
        self.by_extent = (0..calls.len()).collect();
        self.by_extent
            .sort_by(|&a, &b| calls[a].extent.cmp(&calls[b].extent));
    }

    /// The calls, in plan order.
    pub(crate) fn calls(&self) -> &[Arc<Call>] {
        &self.calls
    }

    /// The index of the call shipping `expr` to `extent` of `repository`.
    pub(crate) fn position(
        &self,
        repository: &str,
        extent: &str,
        expr: &LogicalExpr,
    ) -> Option<usize> {
        let calls = &self.calls;
        let first = self
            .by_extent
            .partition_point(|&i| *calls[i].extent < *extent);
        self.by_extent[first..]
            .iter()
            .copied()
            .take_while(|&i| *calls[i].extent == *extent)
            .find(|&i| calls[i].is(repository, extent, expr))
    }

    /// The index of the call of member `i` of `node`: where the table
    /// recorded it, when `node` is the fan-out it was prepared from (its
    /// template is the call's, which the table keeps alive, so another
    /// fan-out at a reused address fails the check); else found by what
    /// the member ships.
    pub(crate) fn member(&self, node: &FanOut, i: usize) -> Option<usize> {
        let member = &node.members[i];
        let template = template_call(&node.templates[member.class])?;
        let at = node.templates.as_ptr() as usize;
        let recorded = self
            .fan_outs
            .iter()
            .find(|(key, _)| *key == at)
            .and_then(|(_, calls)| calls.get(i).copied().flatten())
            .filter(|&c| {
                let call = &self.calls[c];
                call.template
                    .as_ref()
                    .is_some_and(|t| Arc::ptr_eq(&t.expr, template))
                    && *call.extent == *member.extent
                    && *call.repository == *member.repository
            });
        recorded.or_else(|| {
            self.position(
                &member.repository,
                &member.extent,
                &template.instance(member),
            )
        })
    }

    /// Appends a call nobody prepared: a resolution filled in by hand.
    pub(crate) fn push_unprepared(&mut self, key: ExecKey) {
        self.calls.push(Arc::new(Call {
            repository: key.repository,
            extent: key.extent,
            wrapper: Arc::from(""),
            template: None,
            expr: key.expr,
            shape: Arc::default(),
            calibration: OnceLock::new(),
        }));
        self.index();
    }
}

/// The names of `interface`'s attributes, inherited ones included.
fn field_names(catalog: &Catalog, interface: &str) -> Result<Vec<String>> {
    let attributes = catalog.attributes_of(interface)?;
    Ok(attributes.iter().map(|a| a.name().to_owned()).collect())
}

/// The fan-outs of `plan`, in the order the call table records them.
fn fan_outs_of(plan: &PhysicalExpr) -> Vec<&FanOut> {
    fn visit<'a>(plan: &'a PhysicalExpr, out: &mut Vec<&'a FanOut>) {
        match plan {
            PhysicalExpr::FanOut(node) => out.push(node),
            _ => plan.for_each_child(&mut |child| visit(child, out)),
        }
    }
    let mut out = Vec::new();
    visit(plan, &mut out);
    out
}

/// The expression the `exec` of a fan-out's branch template ships; `None`
/// for a branch that reads no source.
fn template_call(template: &PhysicalExpr) -> Option<&Arc<LogicalExpr>> {
    let mut call = None;
    template.walk(&mut |node| {
        if let PhysicalExpr::Exec { logical, .. } = node {
            call = Some(logical);
        }
    });
    call
}

/// The call of a fan-out class's template, shared by its members' calls.
#[derive(Debug)]
pub(crate) struct TemplateCall {
    /// The expression the template's `exec` ships.
    expr: Arc<LogicalExpr>,
    /// Its calibration keys with the collection marked, and the mark,
    /// rendered when the first member's call is recorded.
    keys: OnceLock<(char, CalibrationKey)>,
}

/// One distinct call of a prepared plan.
#[derive(Debug)]
pub(crate) struct Call {
    pub(crate) repository: Arc<str>,
    pub(crate) extent: Arc<str>,
    /// The wrapper's name; its handle is looked up per execution.
    pub(crate) wrapper: Arc<str>,
    /// A fan-out member's: its class template's call.
    template: Option<Arc<TemplateCall>>,
    /// The shipped expression (mediator name space): the `exec` node's,
    /// or the template's with the member's names.
    pub(crate) expr: Arc<LogicalExpr>,
    pub(crate) shape: Arc<CallShape>,
    calibration: OnceLock<CalibrationKey>,
}

impl PartialEq for Call {
    fn eq(&self, other: &Self) -> bool {
        self.repository == other.repository
            && self.extent == other.extent
            && self.wrapper == other.wrapper
            && self.template.as_ref().map(|t| &*t.expr) == other.template.as_ref().map(|t| &*t.expr)
            && self.expr == other.expr
            && self.shape == other.shape
    }
}

impl Call {
    /// The call of `member`, a member of this call's class whose template
    /// call is `template`: the template's, shipped with the member's
    /// names, its shape this call's when the two extents' interfaces and
    /// maps are alike.
    fn for_member(
        &self,
        member: &Member,
        template: &Arc<TemplateCall>,
        catalog: &Catalog,
    ) -> Option<Call> {
        let meta = catalog.extent(&member.extent).ok()?;
        let interface = meta.interface();
        let alike = catalog
            .extent(&self.extent)
            .is_ok_and(|known| known.interface() == interface && self.shape.map == *meta.map());
        let shape = if alike {
            Arc::clone(&self.shape)
        } else {
            let fields = field_names(catalog, interface).ok()?;
            Arc::new(CallShape {
                map: meta.map().clone(),
                expected: expected_after_expr(&template.expr, &fields),
            })
        };
        Some(Call {
            repository: Arc::clone(&member.repository),
            extent: Arc::clone(&member.extent),
            wrapper: Arc::clone(&member.wrapper),
            template: Some(Arc::clone(template)),
            expr: Arc::new(template.expr.instance(member)),
            shape,
            calibration: OnceLock::new(),
        })
    }

    /// This call, its class's template call `template`.
    fn with_template(&self, template: &Arc<TemplateCall>) -> Call {
        Call {
            repository: Arc::clone(&self.repository),
            extent: Arc::clone(&self.extent),
            wrapper: Arc::clone(&self.wrapper),
            template: Some(Arc::clone(template)),
            expr: Arc::clone(&self.expr),
            shape: Arc::clone(&self.shape),
            calibration: self.calibration.clone(),
        }
    }

    /// Whether this is the call of an `exec` node with these fields.  A
    /// prepared plan's node and its call share the shipped expression, so
    /// the pointers are compared first; the structural comparison is for
    /// nested submits, duplicate calls and resolutions built by hand.
    pub(crate) fn is(&self, repository: &str, extent: &str, expr: &LogicalExpr) -> bool {
        *self.repository == *repository
            && *self.extent == *extent
            && (std::ptr::eq(&*self.expr, expr) || *self.expr == *expr)
    }

    /// The keys the calibration store records this call under, rendered
    /// by the first execution that records it — a member's spliced from
    /// its class template's.
    pub(crate) fn calibration_key(&self) -> &CalibrationKey {
        self.calibration.get_or_init(|| match &self.template {
            Some(template) => {
                let (mark, keys) = template
                    .keys
                    .get_or_init(|| CalibrationKey::marked(&template.expr));
                keys.named(*mark, &self.extent)
            }
            None => CalibrationKey::of(&self.expr),
        })
    }
}

/// How a call's rows are brought into the mediator's name space and
/// checked: the extent's transformation map, and the fields every row
/// must carry after the shipped expression.  Like-typed extents share one.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct CallShape {
    pub(crate) map: TypeMap,
    pub(crate) expected: Vec<String>,
}

impl CallShape {
    /// The heap bytes the shape keeps, estimated.
    fn bytes(&self) -> usize {
        let expected: usize = self
            .expected
            .iter()
            .map(|f| std::mem::size_of::<String>() + f.capacity())
            .sum();
        let entries = self.map.attributes().len() + usize::from(self.map.relation().is_some());
        std::mem::size_of::<Self>() + entries * NODE_BYTES + expected
    }
}

/// The expression a call ships, where the plan holds it.
#[derive(Clone, Copy)]
enum Shipped<'a> {
    /// An `exec` node's, which the call table shares.
    Exec(&'a Arc<LogicalExpr>),
    /// A `submit`'s inside an aggregate sub-plan.
    Nested(&'a LogicalExpr),
    /// A fan-out class template's, shipped with a member's names.
    Member(&'a Arc<LogicalExpr>),
    /// An `Extents` class template's inside an aggregate sub-plan,
    /// shipped with a member's names.
    NestedMember(&'a LogicalExpr),
}

impl<'a> Shipped<'a> {
    /// The expression, or for a member its template's.
    fn expr(self) -> &'a LogicalExpr {
        match self {
            Shipped::Exec(expr) | Shipped::Member(expr) => expr,
            Shipped::Nested(expr) | Shipped::NestedMember(expr) => expr,
        }
    }
}

/// Collects the distinct `exec` calls of a physical plan, including those
/// nested inside correlated-aggregate sub-plans and a fan-out's members',
/// as `(key, wrapper name, shipped expression)` in plan order.
#[must_use]
pub fn collect_exec_calls(plan: &PhysicalExpr) -> Vec<(ExecKey, String, LogicalExpr)> {
    let mut found = Found::default();
    found.visit(plan, false);
    found
        .specs
        .iter()
        .map(|spec| {
            let expr = spec.shipped().into_owned();
            let key = ExecKey {
                repository: Arc::clone(&spec.repository),
                extent: Arc::clone(&spec.extent),
                expr: Arc::new(expr.clone()),
            };
            (key, spec.wrapper.to_string(), expr)
        })
        .collect()
}

/// One call of a plan as its walk finds it.
struct Spec<'a> {
    repository: Arc<str>,
    wrapper: Arc<str>,
    extent: Arc<str>,
    shipped: Shipped<'a>,
}

impl Spec<'_> {
    /// The expression shipped, a member's with its names.
    fn shipped(&self) -> std::borrow::Cow<'_, LogicalExpr> {
        let template = match self.shipped {
            Shipped::Member(template) => &**template,
            Shipped::NestedMember(template) => template,
            shipped => return std::borrow::Cow::Borrowed(shipped.expr()),
        };
        std::borrow::Cow::Owned(template.instance(&Member {
            repository: Arc::clone(&self.repository),
            wrapper: Arc::clone(&self.wrapper),
            extent: Arc::clone(&self.extent),
            class: 0,
        }))
    }
}

/// The distinct calls of a plan, in plan order.  Two calls are the same
/// call when they ship the same expression to the same extent of the same
/// repository; the expression is compared structurally, never rendered.
#[derive(Default)]
struct Found<'a> {
    specs: Vec<Spec<'a>>,
    /// Positions in `specs`, per extent: a call is compared against the
    /// calls to its own extent only.
    seen: BTreeMap<&'a str, Vec<usize>>,
    fan_outs: Vec<(usize, Vec<Option<usize>>)>,
    /// Whether a call was found twice.
    shared: bool,
}

impl<'a> Found<'a> {
    /// Adds `spec` unless it is a call already found; its index.
    fn push(&mut self, key: &'a str, spec: Spec<'a>) -> usize {
        let same_extent = self.seen.entry(key).or_default();
        let specs = &self.specs;
        let known = same_extent.iter().copied().find(|&at| {
            let other = &specs[at];
            other.repository == spec.repository
                && match (other.shipped, spec.shipped) {
                    (Shipped::Member(a), Shipped::Member(b)) if Arc::ptr_eq(a, b) => true,
                    _ => other.shipped() == spec.shipped(),
                }
        });
        self.shared |= known.is_some();
        known.unwrap_or_else(|| {
            same_extent.push(self.specs.len());
            self.specs.push(spec);
            self.specs.len() - 1
        })
    }

    /// Finds the calls of `plan`; the `exec` of a fan-out's template
    /// (`in_template`) is its members'.
    fn visit(&mut self, plan: &'a PhysicalExpr, in_template: bool) {
        match plan {
            PhysicalExpr::Exec {
                repository,
                wrapper,
                extent,
                logical,
            } if !in_template => {
                let spec = Spec {
                    repository: Arc::from(repository.as_str()),
                    wrapper: Arc::from(wrapper.as_str()),
                    extent: Arc::from(extent.as_str()),
                    shipped: Shipped::Exec(logical),
                };
                self.push(extent, spec);
            }
            PhysicalExpr::FanOut(node) => {
                for template in &node.templates {
                    self.visit(template, true);
                }
                let calls = node.members.iter().map(|member| {
                    let template = template_call(&node.templates[member.class])?;
                    let spec = Spec {
                        repository: Arc::clone(&member.repository),
                        wrapper: Arc::clone(&member.wrapper),
                        extent: Arc::clone(&member.extent),
                        shipped: Shipped::Member(template),
                    };
                    Some(self.push(&member.extent, spec))
                });
                let calls = calls.collect();
                self.fan_outs
                    .push((node.templates.as_ptr() as usize, calls));
            }
            // Sub-plans inside a shipped expression never contain submits
            // (they are pushable operators only), but the mediator-side
            // operators carry scalars, and an aggregate sub-plan inside one
            // hides further submits.
            PhysicalExpr::FilterOp { predicate, .. } => self.in_scalar(predicate),
            PhysicalExpr::MapOp { projection, .. } => self.in_scalar(projection),
            PhysicalExpr::NestedLoopJoin {
                predicate: Some(predicate),
                ..
            } => self.in_scalar(predicate),
            PhysicalExpr::HashJoin {
                left_key,
                right_key,
                residual,
                ..
            } => {
                for scalar in [left_key, right_key].into_iter().chain(residual) {
                    self.in_scalar(scalar);
                }
            }
            _ => {}
        }
        if !matches!(plan, PhysicalExpr::FanOut(_)) {
            plan.for_each_child(&mut |child| self.visit(child, in_template));
        }
    }

    /// Finds every `submit` inside the aggregate sub-plans of `expr`.
    fn in_scalar(&mut self, expr: &'a ScalarExpr) {
        match expr {
            ScalarExpr::Agg(_, plan) => self.in_plan(plan, false),
            ScalarExpr::Binary { left, right, .. } => {
                self.in_scalar(left);
                self.in_scalar(right);
            }
            ScalarExpr::Not(inner) | ScalarExpr::Field(inner, _) => self.in_scalar(inner),
            ScalarExpr::StructLit(fields) => {
                for (_, e) in fields {
                    self.in_scalar(e);
                }
            }
            ScalarExpr::Call(_, args) => {
                for a in args {
                    self.in_scalar(a);
                }
            }
            ScalarExpr::Const(_) | ScalarExpr::Attr(_) | ScalarExpr::Var(_) => {}
        }
    }

    /// [`Found::in_scalar`] for a logical sub-plan: its own `submit`s — an
    /// `Extents` node's members' in the place of its templates' — and
    /// those its scalars hide.
    fn in_plan(&mut self, plan: &'a LogicalExpr, in_template: bool) {
        match plan {
            LogicalExpr::Submit {
                repository,
                wrapper,
                extent,
                expr,
            } if !in_template => {
                let spec = Spec {
                    repository: Arc::from(repository.as_str()),
                    wrapper: Arc::from(wrapper.as_str()),
                    extent: Arc::from(extent.as_str()),
                    shipped: Shipped::Nested(expr),
                };
                self.push(extent, spec);
            }
            LogicalExpr::Extents(node) => {
                for template in &node.templates {
                    self.in_plan(template, true);
                }
                for member in node.members.iter() {
                    let mut shipped = None;
                    node.templates[member.class].walk(&mut |e| {
                        if let LogicalExpr::Submit { expr, .. } = e {
                            shipped = Some(&**expr);
                        }
                    });
                    let Some(shipped) = shipped else { continue };
                    let spec = Spec {
                        repository: Arc::clone(&member.repository),
                        wrapper: Arc::clone(&member.wrapper),
                        extent: Arc::clone(&member.extent),
                        shipped: Shipped::NestedMember(shipped),
                    };
                    self.push(&member.extent, spec);
                }
                return;
            }
            LogicalExpr::Filter { predicate, .. } => self.in_scalar(predicate),
            LogicalExpr::MapProject { projection, .. } => self.in_scalar(projection),
            LogicalExpr::Join {
                predicate: Some(p), ..
            } => self.in_scalar(p),
            _ => {}
        }
        plan.for_each_child(&mut |child| self.in_plan(child, in_template));
    }
}
