//! Transformation rules over the logical algebra (§3.1–3.2).
//!
//! "Transformation rules rewrite logical expressions to equivalent logical
//! expressions."  The DISCO-specific rules push operators through the
//! `submit` boundary onto wrappers; they are only applied when the
//! wrapper's capability set accepts the resulting expression ("the
//! transformation rule consults the wrapper interface with a call to the
//! submit-functionality method").
//!
//! **The rule contract.**  Every rule is a function
//! `&mut LogicalExpr [, &dyn CapabilityLookup] -> bool` over the node it is
//! handed: it returns `true` iff it rewrote the node, and a node it returns
//! `false` for is left exactly as it was found.  A rewrite *moves* the
//! subtrees it rearranges ([`std::mem::take`] leaves the empty union, which
//! owns no memory, in the vacated slot) and allocates only the nodes it
//! creates; a capability-checked rule builds the pushed shape tentatively
//! in place, asks the wrapper, and puts the pieces back when refused.
//!
//! **Passes.**  [`normalize`] and [`push_to_wrappers`] drive the rules with
//! [`LogicalExpr::rewrite_in_place`]: one bottom-up pass applies a fixed
//! chain of rules (first that fires wins) at every node, and passes repeat
//! until one rewrites nothing, at most [`MAX_PASSES`] times.  The result
//! depends on that application order, so the chains are part of the
//! planner's observable behaviour; the end-of-pass test is the flag the
//! pass returns, which is why the flag must be truthful.
//!
//! **Extents nodes.**  The rules rewrite an [`Extents`] node's templates,
//! which are its children: distributing an operator over the node wraps
//! each template once, whatever the number of members.  A template names
//! no wrapper until its node's classes are formed, and a capability-checked
//! rule handed an unclassed node forms them ([`classify_extents`]) and
//! rewrites the templates with itself, so that each class's template is
//! rewritten as each of its members' branches would be.  Forming classes
//! changes no branch, so the rule keeps them only if it pushed something.

use std::sync::Arc;

use crate::capability::CapabilitySet;
use crate::logical::{Extents, LogicalExpr, Member};
use crate::scalar::ScalarExpr;

/// The most passes a fixpoint loop over the rules makes.
pub const MAX_PASSES: usize = 64;

/// Looks up the capability set of a wrapper by name.
pub trait CapabilityLookup {
    /// The capabilities of `wrapper`, or `None` if unknown (treated as
    /// `get`-only).
    fn capabilities(&self, wrapper: &str) -> Option<CapabilitySet>;

    /// A counter that moves whenever a name may have been bound to other
    /// capabilities: a plan checked against the lookup at one version
    /// need not be checked again at the same version.  A lookup that
    /// never changes keeps the default.
    fn version(&self) -> u64 {
        0
    }
}

impl CapabilityLookup for std::collections::BTreeMap<String, CapabilitySet> {
    fn capabilities(&self, wrapper: &str) -> Option<CapabilitySet> {
        self.get(wrapper).copied()
    }
}

/// The capabilities the rules plan `wrapper` with: an unknown wrapper's
/// are `get` only.
pub fn caps_of(lookup: &dyn CapabilityLookup, wrapper: &str) -> CapabilitySet {
    lookup
        .capabilities(wrapper)
        .unwrap_or_else(CapabilitySet::get_only)
}

/// The input slot of a unary operator the rules rearrange.
fn input_of(expr: &mut LogicalExpr) -> Option<&mut LogicalExpr> {
    match expr {
        LogicalExpr::Filter { input, .. }
        | LogicalExpr::Project { input, .. }
        | LogicalExpr::MapProject { input, .. }
        | LogicalExpr::Bind { input, .. } => Some(input),
        _ => None,
    }
}

/// `outer(inner(e)) → inner(outer(e))` for two unary operators, by moving
/// their boxes.  Applying it twice restores the original node.
fn swap_with_input(expr: &mut LogicalExpr) {
    let slot = input_of(expr).expect("a unary operator");
    let mut inner = std::mem::take(slot);
    let inner_slot = input_of(&mut inner).expect("a unary operator below it");
    std::mem::swap(slot, inner_slot);
    *inner_slot = std::mem::take(expr);
    *expr = inner;
}

/// `op(submit(r, e)) → submit(r, op(e))` when `r`'s wrapper accepts `op(e)`.
///
/// The pushed shape is built tentatively in place — `expr` becomes `op(e)`
/// — so the wrapper is consulted on the very expression that would be
/// shipped, without cloning it; a refusal swaps the pieces back.
fn push_into_submit(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    let Some(slot) = input_of(expr) else {
        return false;
    };
    // An unclassed template's submit names no wrapper to ask.
    if !matches!(slot, LogicalExpr::Submit { wrapper, .. } if !wrapper.is_empty()) {
        return false;
    }
    let mut submit = std::mem::take(slot);
    let LogicalExpr::Submit {
        wrapper,
        expr: shipped,
        ..
    } = &mut submit
    else {
        unreachable!("checked to be a submit above");
    };
    std::mem::swap(slot, &mut **shipped);
    let accepted = caps_of(lookup, wrapper)
        .accepts_named(expr, wrapper)
        .is_ok();
    if accepted {
        **shipped = std::mem::take(expr);
        *expr = submit;
    } else {
        let slot = input_of(expr).expect("the operator checked above");
        std::mem::swap(slot, &mut **shipped);
        *slot = submit;
    }
    accepted
}

/// `rule`, a capability-checked rule, handed an unclassed [`Extents`]
/// node: forms its classes ([`classify_extents`]) and rewrites its
/// templates with `rule`, keeping the classes only if that rewrote one.
/// `None` for any other node.
fn push_into_node(
    expr: &mut LogicalExpr,
    lookup: &dyn CapabilityLookup,
    rule: fn(&mut LogicalExpr, &dyn CapabilityLookup) -> bool,
) -> Option<bool> {
    if !matches!(expr, LogicalExpr::Extents(node) if !node.is_classified()) {
        return None;
    }
    let unclassed = expr.clone();
    classify_extents(expr, lookup);
    let pushed = expr.rewrite_in_place(&|e| rule(e, lookup));
    if !pushed {
        *expr = unclassed;
    }
    Some(pushed)
}

/// R1 — push a filter into a `submit` when the wrapper supports it:
/// `select(p, submit(r, e))  →  submit(r, select(p, e))`.
/// Like every capability-checked rule, it rewrites an unclassed
/// [`Extents`] node with its classes formed, and keeps them only if it
/// pushed something.
pub fn push_filter_into_submit(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    push_into_node(expr, lookup, push_filter_into_submit).unwrap_or_else(|| {
        matches!(expr, LogicalExpr::Filter { .. }) && push_into_submit(expr, lookup)
    })
}

/// R2 — push a projection into a `submit` when the wrapper supports it:
/// `project(a…, submit(r, e))  →  submit(r, project(a…, e))`.
pub fn push_project_into_submit(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    push_into_node(expr, lookup, push_project_into_submit).unwrap_or_else(|| {
        matches!(expr, LogicalExpr::Project { .. }) && push_into_submit(expr, lookup)
    })
}

/// R3 — merge two submits to the *same* repository and wrapper into one
/// source-side join (the §3.2 employee/manager example):
/// `join(submit(r,e1), submit(r,e2), on) → submit(r, join(e1, e2, on))`.
pub fn push_join_into_submit(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    if let Some(pushed) = push_into_node(expr, lookup, push_join_into_submit) {
        return pushed;
    }
    let LogicalExpr::SourceJoin { left, right, .. } = expr else {
        return false;
    };
    let (
        LogicalExpr::Submit {
            repository: lr,
            wrapper: lw,
            ..
        },
        LogicalExpr::Submit {
            repository: rr,
            wrapper: rw,
            ..
        },
    ) = (left.as_ref(), right.as_ref())
    else {
        return false;
    };
    if lr != rr || lw != rw {
        // The submit operator has RPC semantics: it cannot accept data from
        // another data source, so cross-source joins stay at the mediator.
        return false;
    }
    // As in `push_into_submit`: `expr` becomes `join(e1, e2, on)` while
    // the wrapper is asked, and both submits are put back on a refusal.
    let mut left_submit = std::mem::take(&mut **left);
    let mut right_submit = std::mem::take(&mut **right);
    let (
        LogicalExpr::Submit {
            wrapper,
            expr: left_shipped,
            ..
        },
        LogicalExpr::Submit {
            expr: right_shipped,
            ..
        },
    ) = (&mut left_submit, &mut right_submit)
    else {
        unreachable!("checked to be submits above");
    };
    std::mem::swap(&mut **left, &mut **left_shipped);
    std::mem::swap(&mut **right, &mut **right_shipped);
    let accepted = caps_of(lookup, wrapper)
        .accepts_named(expr, wrapper)
        .is_ok();
    if accepted {
        **left_shipped = std::mem::take(expr);
        *expr = left_submit;
    } else {
        let LogicalExpr::SourceJoin { left, right, .. } = expr else {
            unreachable!("checked to be a join above");
        };
        std::mem::swap(&mut **left, &mut **left_shipped);
        std::mem::swap(&mut **right, &mut **right_shipped);
        **left = left_submit;
        **right = right_submit;
    }
    accepted
}

/// `op(union(e1, …, en)) → union(op(e1), …, op(en))`, and likewise into
/// the templates of an [`Extents`] node: every branch but the last moves
/// under a copy of the operator node (one node and its payload, copied
/// while its input slot is empty); the last reuses the original.
fn distribute_over_union(expr: &mut LogicalExpr) -> bool {
    let Some(input) = input_of(expr) else {
        return false;
    };
    let mut input = std::mem::take(input);
    let (LogicalExpr::Union(items)
    | LogicalExpr::Extents(Extents {
        templates: items, ..
    })) = &mut input
    else {
        *input_of(expr).expect("the operator matched above") = input;
        return false;
    };
    let mut items = std::mem::take(items);
    if let Some(last) = items.pop() {
        for item in &mut items {
            let mut operator = expr.clone();
            *input_of(&mut operator).expect("a copy of the operator") = std::mem::take(item);
            *item = operator;
        }
        *input_of(expr).expect("the operator matched above") = last;
        items.push(std::mem::take(expr));
    }
    *expr = match input {
        LogicalExpr::Extents(Extents { members, name, .. }) => LogicalExpr::Extents(Extents {
            members,
            templates: items,
            name,
        }),
        _ => LogicalExpr::Union(items),
    };
    true
}

/// R4 — distribute `bind` over `union`:
/// `bind(x, union(e1,…)) → union(bind(x,e1),…)`.
pub fn distribute_bind_over_union(expr: &mut LogicalExpr) -> bool {
    matches!(expr, LogicalExpr::Bind { .. }) && distribute_over_union(expr)
}

/// R5 — distribute a filter over `union`:
/// `select(p, union(e1,…)) → union(select(p,e1),…)`.
pub fn distribute_filter_over_union(expr: &mut LogicalExpr) -> bool {
    matches!(expr, LogicalExpr::Filter { .. }) && distribute_over_union(expr)
}

/// R6 — distribute a projection (plain or generalized) over `union`.
pub fn distribute_project_over_union(expr: &mut LogicalExpr) -> bool {
    matches!(
        expr,
        LogicalExpr::Project { .. } | LogicalExpr::MapProject { .. }
    ) && distribute_over_union(expr)
}

/// R7 — push a filter through a `bind` when its predicate only references
/// the bound variable:
/// `select(x.a > k, bind(x, e)) → bind(x, select(a > k, e))`.
///
/// The predicate is rewritten from environment form (`Var("x").a`) to
/// source form (`Attr("a")`), which is always pushable.
pub fn push_filter_through_bind(expr: &mut LogicalExpr) -> bool {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return false;
    };
    let LogicalExpr::Bind { var, .. } = input.as_ref() else {
        return false;
    };
    if !rewrite_env_predicate(predicate, var) {
        return false;
    }
    swap_with_input(expr);
    true
}

/// R8 — swap a filter below a plain projection when the predicate only
/// uses projected columns:
/// `select(p, project(a…, e)) → project(a…, select(p, e))`.
pub fn push_filter_below_project(expr: &mut LogicalExpr) -> bool {
    let LogicalExpr::Filter { input, predicate } = expr else {
        return false;
    };
    let LogicalExpr::Project { columns, .. } = input.as_ref() else {
        return false;
    };
    if !predicate.references_only(columns) {
        return false;
    }
    swap_with_input(expr);
    true
}

/// R9 — swap a plain projection below a filter when the predicate only
/// uses projected columns:
/// `project(a…, select(p, e)) → select(p, project(a…, e))`.
///
/// This is the inverse of [`push_filter_below_project`] and is therefore
/// *not* part of [`normalize`]; the optimizer applies it through
/// [`push_project_past_filter`] when a wrapper can accept projections but
/// not selections, so that the projection can still reach the `submit`.
pub fn push_project_below_filter(expr: &mut LogicalExpr) -> bool {
    let LogicalExpr::Project { input, columns } = expr else {
        return false;
    };
    let LogicalExpr::Filter { predicate, .. } = input.as_ref() else {
        return false;
    };
    if !predicate.references_only(columns) {
        return false;
    }
    swap_with_input(expr);
    true
}

/// R9 then R2 — a projection blocked by a filter that cannot be pushed may
/// still reach the wrapper by commuting below the filter first:
/// `project(a…, select(p, submit(r, e))) → select(p, submit(r, project(a…, e)))`.
///
/// The swap is kept only if a push happened anywhere below it; otherwise
/// it is undone and the rule reports `false` — the one combination of
/// rules that could rewrite a node and end up where it started.
pub fn push_project_past_filter(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    if let Some(pushed) = push_into_node(expr, lookup, push_project_past_filter) {
        return pushed;
    }
    if !push_project_below_filter(expr) {
        return false;
    }
    let pushed = expr.rewrite_in_place(&|inner| push_project_into_submit(inner, lookup));
    if !pushed {
        swap_with_input(expr);
    }
    pushed
}

/// R10 — flatten nested unions and drop empty data branches:
/// `union(union(a,b), data(), c) → union(a, b, c)`; then fold a union
/// whose branches each read at most one source (its gets naming that
/// source's extent), two or more of them alike once those names are set
/// aside, into one nameless [`Extents`] node: the one place an explicit
/// union's branches are classed.  Each branch is a member in branch order
/// (one reading no source with empty names, a nested node's members as
/// they are), and each class of alike branches one template with its
/// names blanked, which [`classify_extents`] splits by capability.
pub fn simplify_union(expr: &mut LogicalExpr) -> bool {
    let LogicalExpr::Union(items) = expr else {
        return false;
    };
    let drop_empty_data = items.len() > 1;
    let is_empty_data =
        |item: &LogicalExpr| matches!(item, LogicalExpr::Data(bag) if bag.is_empty());
    let flattens = items.iter().any(|item| {
        matches!(item, LogicalExpr::Union(_)) || (drop_empty_data && is_empty_data(item))
    });
    if flattens {
        let mut flat = Vec::with_capacity(items.len());
        for item in items.drain(..) {
            match item {
                LogicalExpr::Union(nested) => flat.extend(nested),
                data if drop_empty_data && is_empty_data(&data) => {}
                other => flat.push(other),
            }
        }
        *items = flat;
        if items.len() < 2 {
            *expr = items
                .pop()
                .unwrap_or(LogicalExpr::Data(disco_value::Bag::new()));
            return true;
        }
    }
    fold(expr) || flattens
}

/// Folds the union `expr` into one node (see [`simplify_union`]); `false`,
/// leaving it untouched, when the fold does not fire.
fn fold(expr: &mut LogicalExpr) -> bool {
    let LogicalExpr::Union(items) = expr else {
        return false;
    };
    let nested = |item: &LogicalExpr| matches!(item, LogicalExpr::Extents(_));
    let foldable = |item: &LogicalExpr| nested(item) || source_of(item).is_some();
    let alike_later = |i: usize| {
        let item = &items[i];
        nested(item)
            || items[i + 1..]
                .iter()
                .any(|other| item.same_but_names(other))
    };
    if !items.iter().all(foldable) || !(0..items.len()).any(alike_later) {
        return false;
    }
    let none: Arc<str> = Arc::from("");
    let blank = Member {
        repository: Arc::clone(&none),
        wrapper: Arc::clone(&none),
        extent: none,
        class: 0,
    };
    let mut templates: Vec<LogicalExpr> = Vec::new();
    let mut class_of = |template: LogicalExpr| {
        let known = templates.iter().position(|t| *t == template);
        known.unwrap_or_else(|| {
            templates.push(template);
            templates.len() - 1
        })
    };
    let mut members = Vec::with_capacity(items.len());
    for mut item in items.drain(..) {
        if let LogicalExpr::Extents(node) = item {
            let classes: Vec<usize> = (node.templates.iter())
                .map(|template| class_of(template.instance(&blank)))
                .collect();
            members.extend(node.members.iter().map(|m| Member {
                class: classes[m.class],
                ..m.clone()
            }));
            continue;
        }
        let mut member = match source_of(&item).flatten() {
            Some((r, w, e)) => Member {
                repository: Arc::from(r),
                wrapper: Arc::from(w),
                extent: Arc::from(e),
                class: 0,
            },
            None => blank.clone(),
        };
        item.name_after(&blank);
        member.class = class_of(item);
        members.push(member);
    }
    *expr = LogicalExpr::Extents(Extents {
        members: Arc::from(members),
        templates,
        name: None,
    });
    true
}

/// The repository, wrapper and extent of the one source `branch` reads
/// (`Some(None)` when it reads none); `None` when it reads two, or gets
/// a collection other than that source's extent.
fn source_of(branch: &LogicalExpr) -> Option<Option<(&str, &str, &str)>> {
    let (mut source, mut sources) = (None, 0);
    branch.walk(&mut |e| match e {
        LogicalExpr::Submit {
            repository,
            wrapper,
            extent,
            ..
        } => {
            source = Some((repository.as_str(), wrapper.as_str(), extent.as_str()));
            sources += 1;
        }
        LogicalExpr::Extents(_) => sources += 2,
        _ => {}
    });
    let mut own = sources < 2;
    branch.walk(&mut |e| {
        if let LogicalExpr::Get { collection } = e {
            own &= source.is_some_and(|(_, _, extent)| extent == collection);
        }
    });
    own.then_some(source)
}

/// Forms the classes of an unclassed [`Extents`] node: members of one
/// template whose wrappers have equal capabilities share a class, in
/// order of first appearance, and each class's template — a copy of its
/// members' one — names its first member, so that the capability-checked
/// rules ask that member's wrapper for all of them.  Returns `true` iff it
/// formed them.
pub fn classify_extents(expr: &mut LogicalExpr, lookup: &dyn CapabilityLookup) -> bool {
    let LogicalExpr::Extents(node) = expr else {
        return false;
    };
    if node.is_classified() {
        return false;
    }
    let mut classes: Vec<(usize, CapabilitySet, usize)> = Vec::new();
    let mut members: Vec<Member> = node.members.to_vec();
    for (i, member) in members.iter_mut().enumerate() {
        let key = (member.class, caps_of(lookup, &member.wrapper));
        let known = (classes.iter()).position(|&(template, caps, _)| (template, caps) == key);
        member.class = known.unwrap_or_else(|| {
            classes.push((key.0, key.1, i));
            classes.len() - 1
        });
    }
    node.templates = classes
        .iter()
        .map(|&(template, _, first)| node.templates[template].instance(&members[first]))
        .collect();
    node.members = Arc::from(members);
    true
}

/// Rewrites an environment-form predicate over a single variable into
/// source form, in place: `Var(var).field → Attr(field)`.  Returns `false`
/// — and leaves the predicate untouched — when it mentions any other
/// variable, a bare `Var`, a struct, an aggregate or a call.
pub fn rewrite_env_predicate(predicate: &mut ScalarExpr, var: &str) -> bool {
    fn rewritable(predicate: &ScalarExpr, var: &str) -> bool {
        match predicate {
            ScalarExpr::Const(_) | ScalarExpr::Attr(_) => true,
            ScalarExpr::Field(base, _) => matches!(base.as_ref(), ScalarExpr::Var(v) if v == var),
            ScalarExpr::Binary { left, right, .. } => {
                rewritable(left, var) && rewritable(right, var)
            }
            ScalarExpr::Not(inner) => rewritable(inner, var),
            ScalarExpr::Var(_)
            | ScalarExpr::StructLit(_)
            | ScalarExpr::Agg(..)
            | ScalarExpr::Call(..) => false,
        }
    }
    fn rewrite(predicate: &mut ScalarExpr) {
        match predicate {
            ScalarExpr::Field(_, field) => *predicate = ScalarExpr::Attr(std::mem::take(field)),
            ScalarExpr::Binary { left, right, .. } => {
                rewrite(left);
                rewrite(right);
            }
            ScalarExpr::Not(inner) => rewrite(inner),
            _ => {}
        }
    }
    let rewrites = rewritable(predicate, var);
    if rewrites {
        rewrite(predicate);
    }
    rewrites
}

/// Whether `expr` is a **push site**: a `submit`, or a filter, projection
/// or source join over push sites — the only nodes R1–R3 and
/// [`push_project_past_filter`] rewrite, and what they rewrite them into.
#[must_use]
pub fn is_push_site(expr: &LogicalExpr) -> bool {
    match expr {
        LogicalExpr::Submit { .. } => true,
        LogicalExpr::Filter { input, .. } | LogicalExpr::Project { input, .. } => {
            is_push_site(input)
        }
        LogicalExpr::SourceJoin { left, right, .. } => is_push_site(left) && is_push_site(right),
        _ => false,
    }
}

/// Repeats [`LogicalExpr::rewrite_in_place`] passes of `chain` over `plan`
/// until one rewrites nothing, at most [`MAX_PASSES`] times.
pub fn rewrite_to_fixpoint(plan: &mut LogicalExpr, chain: &impl Fn(&mut LogicalExpr) -> bool) {
    for _ in 0..MAX_PASSES {
        if !plan.rewrite_in_place(chain) {
            break;
        }
    }
}

/// Applies every *capability-independent* simplification rule bottom-up to
/// a fixpoint (distribution over unions and into `Extents` templates,
/// filter/bind commutation, union flattening).  Capability-dependent
/// pushdowns are applied separately by the optimizer so that it can cost
/// alternatives.
#[must_use]
pub fn normalize(expr: &LogicalExpr) -> LogicalExpr {
    let mut plan = expr.clone();
    rewrite_to_fixpoint(&mut plan, &|e| {
        distribute_bind_over_union(e)
            || distribute_filter_over_union(e)
            || distribute_project_over_union(e)
            || push_filter_through_bind(e)
            || push_filter_below_project(e)
            || simplify_union(e)
    });
    plan
}

/// Applies the capability-dependent pushdown rules (R1–R3) bottom-up to a
/// fixpoint, consulting `lookup` before each push.
#[must_use]
pub fn push_to_wrappers(expr: &LogicalExpr, lookup: &dyn CapabilityLookup) -> LogicalExpr {
    let mut plan = expr.clone();
    push_to_wrappers_in_place(&mut plan, lookup);
    plan
}

/// [`push_to_wrappers`] on `plan` itself.
pub fn push_to_wrappers_in_place(plan: &mut LogicalExpr, lookup: &dyn CapabilityLookup) {
    rewrite_to_fixpoint(plan, &|e| {
        push_filter_into_submit(e, lookup)
            || push_project_into_submit(e, lookup)
            || push_join_into_submit(e, lookup)
            || push_project_past_filter(e, lookup)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::OperatorKind;
    use crate::scalar::ScalarOp;
    use std::collections::BTreeMap;

    fn lookup_with(wrapper: &str, caps: CapabilitySet) -> BTreeMap<String, CapabilitySet> {
        let mut m = BTreeMap::new();
        m.insert(wrapper.to_owned(), caps);
        m
    }

    fn salary_gt_10_env() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(10i64),
        )
    }

    fn salary_gt_10_src() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        )
    }

    /// Applies `rule`, asserting the contract: `true` means the node
    /// changed, `false` means it is exactly what it was.
    fn apply(expr: &mut LogicalExpr, rule: impl Fn(&mut LogicalExpr) -> bool) -> bool {
        let before = expr.clone();
        let rewrote = rule(expr);
        assert_eq!(
            rewrote,
            *expr != before,
            "flag and effect disagree on {before}"
        );
        rewrote
    }

    #[test]
    fn filter_pushes_into_capable_submit_only() {
        let expr = LogicalExpr::get("person0")
            .submit("r0", "w_full", "person0")
            .filter(salary_gt_10_src());
        let full = lookup_with("w_full", CapabilitySet::full());
        let mut rewritten = expr.clone();
        assert!(apply(&mut rewritten, |e| push_filter_into_submit(e, &full)));
        assert_eq!(
            rewritten.to_string(),
            "submit(r0, select((salary > 10), get(person0)))"
        );
        // A pushed filter is no longer a filter over a submit.
        assert!(!apply(&mut rewritten, |e| push_filter_into_submit(
            e, &full
        )));
        let get_only = lookup_with("w_full", CapabilitySet::get_only());
        assert!(!apply(&mut expr.clone(), |e| push_filter_into_submit(
            e, &get_only
        )));
        // Unknown wrappers default to get-only.
        let empty: BTreeMap<String, CapabilitySet> = BTreeMap::new();
        assert!(!apply(&mut expr.clone(), |e| push_filter_into_submit(
            e, &empty
        )));
        // The projection rule does not fire on a filter.
        assert!(!apply(&mut expr.clone(), |e| push_project_into_submit(
            e, &full
        )));
    }

    #[test]
    fn refused_pushes_leave_the_node_untouched() {
        let narrowed_filter = LogicalExpr::get("person0")
            .project(["name", "salary"])
            .submit("r0", "w0", "person0")
            .filter(salary_gt_10_src());
        let narrowed_project = LogicalExpr::get("person0")
            .filter(salary_gt_10_src())
            .submit("r0", "w0", "person0")
            .project(["name"]);
        let refusing = [
            CapabilitySet::get_only(),
            // No composition: one operator over the get at most.
            CapabilitySet::new([
                OperatorKind::Get,
                OperatorKind::Select,
                OperatorKind::Project,
            ]),
            // `>` is not among the comparisons the wrapper evaluates.
            CapabilitySet::full().with_comparisons([crate::ComparisonKind::Eq]),
        ];
        for (i, caps) in refusing.into_iter().enumerate() {
            let lookup = lookup_with("w0", caps);
            assert!(
                !apply(&mut narrowed_filter.clone(), |e| push_filter_into_submit(
                    e, &lookup
                )),
                "capability set {i}"
            );
            // The wrapper is asked about the whole expression it would
            // receive, so the shipped filter's `>` refuses the projection too.
            assert!(
                !apply(&mut narrowed_project.clone(), |e| push_project_into_submit(
                    e, &lookup
                )),
                "capability set {i}"
            );
        }
    }

    #[test]
    fn project_pushes_into_capable_submit() {
        let mut expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .project(["name"]);
        let caps = lookup_with(
            "w0",
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        );
        assert!(apply(&mut expr, |e| push_project_into_submit(e, &caps)));
        assert_eq!(expr.to_string(), "submit(r0, project(name, get(person0)))");
    }

    #[test]
    fn join_pushes_only_for_same_repository() {
        let mut join_same = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
            right: Box::new(LogicalExpr::get("manager0").submit("r0", "w0", "manager0")),
            on: vec![("dept".into(), "dept".into())],
        };
        let refused = join_same.clone();
        let caps = lookup_with("w0", CapabilitySet::full());
        assert!(apply(&mut join_same, |e| push_join_into_submit(e, &caps)));
        assert_eq!(
            join_same.to_string(),
            "submit(r0, join(get(employee0), get(manager0), dept=dept))"
        );
        assert_eq!(
            join_same,
            LogicalExpr::SourceJoin {
                left: Box::new(LogicalExpr::get("employee0")),
                right: Box::new(LogicalExpr::get("manager0")),
                on: vec![("dept".into(), "dept".into())],
            }
            .submit("r0", "w0", "employee0")
        );
        // A wrapper without join support refuses and both submits return.
        let no_join = lookup_with(
            "w0",
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Select]).with_composition(true),
        );
        assert!(!apply(&mut refused.clone(), |e| push_join_into_submit(
            e, &no_join
        )));
        // Different repositories: semijoin-style shipping is impossible,
        // the join stays at the mediator.
        let mut join_cross = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
            right: Box::new(LogicalExpr::get("manager1").submit("r1", "w0", "manager1")),
            on: vec![("dept".into(), "dept".into())],
        };
        assert!(!apply(&mut join_cross, |e| push_join_into_submit(e, &caps)));
    }

    #[test]
    fn union_distribution_rules() {
        let union = LogicalExpr::Union(vec![
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
            LogicalExpr::get("person1").submit("r1", "w0", "person1"),
        ]);
        let mut distributed = LogicalExpr::Bind {
            var: "x".into(),
            input: Box::new(union),
        };
        assert!(apply(&mut distributed, distribute_bind_over_union));
        assert_eq!(
            distributed.to_string(),
            "union(bind(x, submit(r0, get(person0))), bind(x, submit(r1, get(person1))))"
        );
        assert!(!apply(&mut distributed, distribute_bind_over_union));
        let mut filtered = LogicalExpr::Filter {
            input: Box::new(distributed.clone()),
            predicate: salary_gt_10_env(),
        };
        assert!(!apply(&mut filtered, distribute_bind_over_union));
        assert!(apply(&mut filtered, distribute_filter_over_union));
        match &filtered {
            LogicalExpr::Union(items) => {
                assert_eq!(items.len(), 2);
                for item in items {
                    assert!(matches!(item, LogicalExpr::Filter { predicate, .. }
                        if *predicate == salary_gt_10_env()));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut mapped = LogicalExpr::MapProject {
            input: Box::new(distributed.clone()),
            projection: ScalarExpr::var_field("x", "name"),
        };
        assert!(apply(&mut mapped, distribute_project_over_union));
        let mut projected = distributed.project(["name"]);
        assert!(apply(&mut projected, distribute_project_over_union));
        // An operator over the empty union is the empty union.
        let mut over_nothing = LogicalExpr::Union(Vec::new()).bind("x");
        assert!(apply(&mut over_nothing, distribute_bind_over_union));
        assert_eq!(over_nothing, LogicalExpr::Union(Vec::new()));
    }

    #[test]
    fn filter_pushes_through_bind_with_attr_rewrite() {
        let mut expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x")
            .filter(salary_gt_10_env());
        assert!(apply(&mut expr, push_filter_through_bind));
        assert_eq!(
            expr,
            LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(salary_gt_10_src())
                .bind("x")
        );
    }

    #[test]
    fn filter_referencing_two_vars_does_not_push_through_bind() {
        let two_var_pred = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        let mut expr = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x")
            .filter(two_var_pred);
        assert!(!apply(&mut expr, push_filter_through_bind));
    }

    #[test]
    fn filter_below_project_requires_column_subset() {
        let mut ok = LogicalExpr::get("person0")
            .project(["name", "salary"])
            .filter(salary_gt_10_src());
        assert!(apply(&mut ok, push_filter_below_project));
        assert_eq!(
            ok,
            LogicalExpr::get("person0")
                .filter(salary_gt_10_src())
                .project(["name", "salary"])
        );
        // R9 is its inverse.
        assert!(apply(&mut ok, push_project_below_filter));
        assert!(!apply(&mut ok, push_project_below_filter));
        let mut missing = LogicalExpr::get("person0")
            .project(["name"])
            .filter(salary_gt_10_src());
        assert!(!apply(&mut missing, push_filter_below_project));
        let mut missing = LogicalExpr::get("person0")
            .filter(salary_gt_10_src())
            .project(["name"]);
        assert!(!apply(&mut missing, push_project_below_filter));
    }

    #[test]
    fn project_past_filter_keeps_the_swap_only_when_something_was_pushed() {
        let plan = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .filter(salary_gt_10_src())
            .project(["name", "salary"]);
        let projects = lookup_with(
            "w0",
            CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true),
        );
        let mut pushed = plan.clone();
        assert!(apply(&mut pushed, |e| push_project_past_filter(
            e, &projects
        )));
        assert_eq!(
            pushed.to_string(),
            "select((salary > 10), submit(r0, project(name, salary, get(person0))))"
        );
        // Nothing to push: the swap is undone and the rule says so.
        let get_only = lookup_with("w0", CapabilitySet::get_only());
        assert!(!apply(&mut plan.clone(), |e| push_project_past_filter(
            e, &get_only
        )));
    }

    #[test]
    fn union_simplification() {
        let mut nested = LogicalExpr::Union(vec![
            LogicalExpr::Union(vec![LogicalExpr::get("a"), LogicalExpr::get("b")]),
            LogicalExpr::Data(disco_value::Bag::new()),
            LogicalExpr::get("c"),
        ]);
        assert!(apply(&mut nested, simplify_union));
        assert_eq!(nested.to_string(), "union(get(a), get(b), get(c))");
        // Already-flat unions are left alone.
        assert!(!apply(&mut nested, simplify_union));
        // A union of one item is that item; of nothing but empty data, empty data.
        let mut single = LogicalExpr::Union(vec![LogicalExpr::Union(vec![LogicalExpr::get("a")])]);
        assert!(apply(&mut single, simplify_union));
        assert_eq!(single, LogicalExpr::get("a"));
        let empty = || LogicalExpr::Data(disco_value::Bag::new());
        let mut nothing = LogicalExpr::Union(vec![empty(), empty()]);
        assert!(apply(&mut nothing, simplify_union));
        assert_eq!(nothing, empty());
        // A lone empty data branch is kept.
        assert!(!apply(
            &mut LogicalExpr::Union(vec![empty()]),
            simplify_union
        ));
    }

    #[test]
    fn normalize_produces_per_source_pipelines() {
        // The compiled shape of the paper's intro query over two sources:
        // map(x.name, select(x.salary>10, bind(x, union(submit, submit)))).
        let compiled = LogicalExpr::Bind {
            var: "x".into(),
            input: Box::new(LogicalExpr::Union(vec![
                LogicalExpr::get("person0").submit("r0", "w0", "person0"),
                LogicalExpr::get("person1").submit("r1", "w0", "person1"),
            ])),
        }
        .filter(salary_gt_10_env())
        .map_project(ScalarExpr::var_field("x", "name"));
        let normalized = normalize(&compiled);
        // After normalization the union — folded into one node — is
        // outermost and each branch has a source-form filter below its bind.
        let LogicalExpr::Extents(node) = &normalized else {
            panic!("expected a node at top, got {normalized}");
        };
        assert_eq!(node.templates.len(), 1);
        match &node.to_union() {
            LogicalExpr::Union(items) => {
                assert_eq!(items.len(), 2);
                for item in items {
                    let text = item.to_string();
                    assert!(text.contains("select((salary > 10)"), "branch: {text}");
                    assert!(text.starts_with("map("), "branch: {text}");
                }
            }
            other => panic!("expected union at top, got {other}"),
        }
    }

    #[test]
    fn push_to_wrappers_respects_per_wrapper_capabilities() {
        // person0's wrapper supports select+project+compose; person1's only get.
        let mut lookup = BTreeMap::new();
        lookup.insert(
            "w_full".to_owned(),
            CapabilitySet::new([
                OperatorKind::Get,
                OperatorKind::Select,
                OperatorKind::Project,
            ])
            .with_composition(true),
        );
        lookup.insert("w_min".to_owned(), CapabilitySet::get_only());
        let plan = LogicalExpr::Union(vec![
            LogicalExpr::get("person0")
                .submit("r0", "w_full", "person0")
                .filter(salary_gt_10_src())
                .project(["name"]),
            LogicalExpr::get("person1")
                .submit("r1", "w_min", "person1")
                .filter(salary_gt_10_src())
                .project(["name"]),
        ]);
        let pushed = push_to_wrappers(&plan, &lookup);
        let text = pushed.to_string();
        assert!(
            text.contains("submit(r0, project(name, select((salary > 10), get(person0))))"),
            "full wrapper branch should be fully pushed: {text}"
        );
        assert!(
            text.contains("project(name, select((salary > 10), submit(r1, get(person1))))"),
            "get-only wrapper branch should stay at the mediator: {text}"
        );
    }

    /// The node over `person0..person{n}`, wrappers `w_full` and `w_min`
    /// alternating (two capability classes, interleaved).
    fn extents(n: usize) -> LogicalExpr {
        LogicalExpr::Extents(Extents::new((0..n).map(|i| {
            let wrapper = if i % 2 == 0 { "w_full" } else { "w_min" };
            (
                Arc::from(format!("r{i}").as_str()),
                Arc::from(wrapper),
                Arc::from(format!("person{i}").as_str()),
            )
        })))
    }

    /// The union the node stands for, branch by branch.
    fn union_of_branches(n: usize) -> LogicalExpr {
        LogicalExpr::Union(
            (0..n)
                .map(|i| {
                    let wrapper = if i % 2 == 0 { "w_full" } else { "w_min" };
                    let extent = format!("person{i}");
                    LogicalExpr::get(&extent).submit(format!("r{i}"), wrapper, &extent)
                })
                .collect(),
        )
    }

    #[test]
    fn an_extents_node_rewrites_as_the_union_of_its_branches() {
        let mut lookup = lookup_with("w_full", CapabilitySet::full());
        lookup.insert("w_min".to_owned(), CapabilitySet::get_only());
        let query = |from: LogicalExpr| {
            from.project(["name", "salary"])
                .bind("x")
                .filter(salary_gt_10_env())
                .map_project(ScalarExpr::var_field("x", "name"))
        };
        let node = normalize(&query(extents(5)));
        let union = normalize(&query(union_of_branches(5)));
        // One template, whatever the number of members, printed as the
        // union; the union folds into the very node.
        let LogicalExpr::Extents(template) = &node else {
            panic!("the node stays one node: {node}");
        };
        assert_eq!(template.templates.len(), 1);
        assert_eq!(node, union);
        // The capability rules form the classes before pushing.
        let pushed = push_to_wrappers(&node, &lookup);
        let LogicalExpr::Extents(classed) = &pushed else {
            panic!("pushing keeps the node: {pushed}");
        };
        assert_eq!(classed.templates.len(), 2);
        let classes: Vec<usize> = classed.members.iter().map(|m| m.class).collect();
        assert_eq!(classes, [0, 1, 0, 1, 0]);
        assert_eq!(
            pushed.to_string(),
            push_to_wrappers(&union, &lookup).to_string()
        );
    }

    #[test]
    fn a_union_of_like_branches_folds_into_a_node_in_branch_order() {
        // `shipped` submitted to the source of `person{i}`.
        let at = |i: usize, shipped: LogicalExpr| {
            shipped.submit(format!("r{i}"), "w0", format!("person{i}"))
        };
        let person = |i: usize| at(i, LogicalExpr::get(format!("person{i}")));
        // The node `items` fold into, if they do.
        let fold = |items: Vec<LogicalExpr>| {
            let mut plan = LogicalExpr::Union(items);
            apply(&mut plan, simplify_union);
            match plan {
                LogicalExpr::Extents(node) => Some(node),
                _ => None,
            }
        };
        let classes = |node: &Extents| node.members.iter().map(|m| m.class).collect::<Vec<_>>();
        let name = |i: usize| person(i).project(["name"]);
        let union = vec![name(0), crate::data_of(["Sam"]), name(1), name(2)];
        let node = fold(union.clone()).expect("three alike branches fold");
        assert_eq!(classes(&node), [0, 1, 0, 0]);
        assert_eq!((node.name.as_deref(), &*node.members[1].extent), (None, ""));
        // Lowered, the node is a fan-out that prints as the union.
        let (node, union) = (LogicalExpr::Extents(node), LogicalExpr::Union(union));
        let physical = crate::lower(&node).unwrap();
        assert!(matches!(physical, crate::PhysicalExpr::FanOut(_)));
        let lowered = crate::lower(&union).unwrap();
        assert_eq!(physical.to_string(), lowered.to_string());
        assert_eq!(physical.to_logical().to_string(), union.to_string());
        // No two alike; shipped expressions alike but for their gets, or
        // not; a branch shipping a get of another collection than its
        // extent's.
        assert!(fold(vec![name(0), person(1)]).is_none());
        let above = |i: usize, bound: i64| {
            let salary = ScalarExpr::attr("salary");
            let predicate = ScalarExpr::binary(ScalarOp::Gt, salary, ScalarExpr::constant(bound));
            at(i, LogicalExpr::get(format!("person{i}")).filter(predicate))
        };
        assert!(fold(vec![above(0, 1), above(1, 1)]).is_some());
        assert!(fold(vec![above(0, 1), above(1, 2)]).is_none());
        assert!(fold(vec![
            person(0),
            person(2),
            at(1, LogicalExpr::get("person9"))
        ])
        .is_none());
        // A nested node's members join the node: union(person0, person*, student0).
        let names = |i: usize| [format!("r{i}"), "w0".into(), format!("person{i}")];
        let star =
            Extents::new((0..2).map(|i| names(i).map(|name| Arc::from(name.as_str())).into()));
        let student = LogicalExpr::get("student0").submit("r9", "w0", "student0");
        let items = vec![
            person(0),
            LogicalExpr::Extents(star.named("person*")),
            student,
        ];
        let node = fold(items).expect("a nested node folds");
        assert_eq!((classes(&node), node.templates.len()), (vec![0; 4], 1));
        assert_eq!(
            LogicalExpr::Extents(node).to_string(),
            "union(submit(r0, get(person0)), submit(r0, get(person0)), \
             submit(r1, get(person1)), submit(r9, get(student0)))"
        );
    }
}
