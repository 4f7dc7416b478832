//! The plan search by decisions (§3.1): every strategy costed, no
//! alternative's tree built.  A pushdown pass rewrites each maximal push
//! site ([`rules::is_push_site`]) on its own; the site of a class template
//! of an [`Extents`](disco_algebra::Extents) node is rewritten once per
//! strategy for all the class's members ([`materialise`]), a site outside
//! any node for itself.  One walk of the classed, normalized plan costs
//! every strategy with the formulas of [`CostModel::cost`], bit for bit,
//! each member over its own `exec` estimates, summed in member order.
//! ARCHITECTURE.md has the design.

use std::sync::Arc;

use disco_algebra::{is_hash_join, rules, CapabilityLookup, Extents, LogicalExpr, Member};

use crate::calibration::{CalibrationKey, Estimator};
use crate::cost::{default_exec_rows, CostModel, PlanCost};
use crate::patch::NODE_BYTES;
use crate::planner::{materialise, PlanAlternative, STRATEGIES};

const N: usize = STRATEGIES.len();

/// What a search found that a later search of the same plan with other
/// members can reuse: the classes, in the order the walk met their sites,
/// and per member of each [`Extents`] node, in walk order, the site cost
/// of each distinct rewrite of its class.
#[derive(Debug)]
pub(crate) struct SearchMemo {
    classes: Arc<[Class]>,
    costs: Vec<PlanCost>,
}

impl SearchMemo {
    /// The heap bytes the memo keeps, estimated.
    pub(crate) fn bytes(&self) -> usize {
        let classes: usize = self.classes.iter().map(Class::bytes).sum();
        classes + self.costs.capacity() * std::mem::size_of::<PlanCost>()
    }
}

/// The distinct alternatives in strategy order, the index of the cheapest
/// — by time, then tree size, the first on a tie — and what a later
/// search of the plan can reuse.
pub(crate) fn search(
    normalized: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
    model: &CostModel,
) -> (Vec<PlanAlternative>, usize, SearchMemo) {
    let mut members = 0;
    normalized.walk(&mut |e| {
        if let LogicalExpr::Extents(node) = e {
            members += node.members.len();
        }
    });
    let mut search = Search::new(lookup, model, None);
    search.costs.reserve_exact(members * N);
    let costs = search.walk(normalized);
    let (alternatives, winner) = search.decide(&costs);
    let mut memo = SearchMemo {
        classes: Arc::from(search.classes),
        costs: search.costs,
    };
    memo.costs.shrink_to_fit();
    (alternatives, winner, memo)
}

/// [`search`] of `patched`, which is `old` — the plan `memo` was found
/// for — with other members in some of its [`Extents`] nodes: each member
/// the two nodes share (its extent's name the same `Arc`) is costed as
/// `memo` costed it; each other member is costed afresh.  The result is
/// bit for bit what [`search`] finds for `patched` over the calibration
/// `memo` was found with, provided each node's classes first appear in
/// their order.  `None` when the two plans do not walk alike.
pub(crate) fn search_again(
    patched: &LogicalExpr,
    old: &LogicalExpr,
    memo: &SearchMemo,
    lookup: &dyn CapabilityLookup,
    model: &CostModel,
) -> Option<(Vec<PlanAlternative>, usize, SearchMemo)> {
    let mut nodes = Vec::new();
    old.walk(&mut |e| {
        if let LogicalExpr::Extents(node) = e {
            nodes.push(node);
        }
    });
    let mut members = 0;
    patched.walk(&mut |e| {
        if let LogicalExpr::Extents(node) = e {
            members += node.members.len();
        }
    });
    let mut search = Search::new(
        lookup,
        model,
        Some(Again {
            memo,
            nodes: nodes.into_iter(),
            at: 0,
        }),
    );
    search.costs.reserve_exact(members * N);
    let costs = search.walk(patched);
    let again = search.again.as_ref().expect("searching again");
    if search.mismatch || again.at != memo.costs.len() || again.nodes.len() > 0 {
        return None;
    }
    let (alternatives, winner) = search.decide(&costs);
    let mut costs = search.costs;
    costs.shrink_to_fit();
    Some((
        alternatives,
        winner,
        SearchMemo {
            classes: Arc::clone(&memo.classes),
            costs,
        },
    ))
}

struct Search<'p, 'a> {
    lookup: &'a dyn CapabilityLookup,
    model: &'a CostModel,
    estimator: Estimator<'a>,
    /// The push site each class was met at, in the order met: a node's
    /// template's, or a site outside any node.
    sites: Vec<*const LogicalExpr>,
    /// The classes built, one per site (none when searching again).
    classes: Vec<Class>,
    /// Searching again: the memo the classes and the costs of the members
    /// kept come from.
    again: Option<Again<'a>>,
    /// The member whose branch is being costed, inside a node.
    member: Option<&'p Member>,
    /// Inside a node searched again, the site index of each class.
    node_classes: Vec<Option<usize>>,
    /// The member being costed is one the memo costed: the memo's costs
    /// from its first site cost on, and how many the site took.
    known: Option<(&'a [PlanCost], usize)>,
    /// The site costs of each member, in walk order.
    costs: Vec<PlanCost>,
    /// The plan walked is not the one the memo was found for.
    mismatch: bool,
    /// Its calibration keys as they are spliced.
    keys: CalibrationKey,
    /// Each strategy's tree size.
    sizes: [usize; N],
}

/// A search again: the memo, the old plan's nodes still to meet, and the
/// memo's costs still to meet, from `at`.
struct Again<'a> {
    memo: &'a SearchMemo,
    nodes: std::vec::IntoIter<&'a Extents>,
    at: usize,
}

/// A class: the push site of a node's class template, or a site outside
/// any node, with its distinct rewrites and each strategy's one.
#[derive(Debug)]
struct Class {
    rewrites: Vec<Rewrite>,
    of: [usize; N],
}

#[derive(Debug)]
struct Rewrite {
    /// The rewritten site.
    tree: LogicalExpr,
    /// The calibration keys of its calls, in order — a template's with
    /// its extent's name marked (and the mark).
    keys: Vec<(Option<char>, CalibrationKey)>,
}

impl<'p, 'a> Search<'p, 'a> {
    fn new(
        lookup: &'a dyn CapabilityLookup,
        model: &'a CostModel,
        again: Option<Again<'a>>,
    ) -> Self {
        Search {
            lookup,
            model,
            estimator: model.store().read(),
            sites: Vec::new(),
            classes: Vec::new(),
            again,
            member: None,
            node_classes: Vec::new(),
            known: None,
            costs: Vec::new(),
            mismatch: false,
            keys: CalibrationKey::default(),
            sizes: [0; N],
        }
    }

    /// The distinct alternatives of the strategies' `costs`, in strategy
    /// order, and the index of the cheapest.
    fn decide(&self, costs: &[PlanCost; N]) -> (Vec<PlanAlternative>, usize) {
        // Equal rewrites in every class: the same tree as an earlier strategy.
        let classes = self.all_classes();
        let kept: Vec<usize> = (0..N)
            .filter(|&s| (0..s).all(|t| classes.iter().any(|c| c.of[s] != c.of[t])))
            .collect();
        let winner = (0..kept.len()).min_by(|&a, &b| {
            let (a, b) = (kept[a], kept[b]);
            (costs[a].time_ms.total_cmp(&costs[b].time_ms)).then(self.sizes[a].cmp(&self.sizes[b]))
        });
        let alternatives = kept.iter().map(|&s| PlanAlternative {
            strategy: STRATEGIES[s],
            cost: costs[s],
        });
        (alternatives.collect(), winner.unwrap_or(0))
    }

    /// The classes met: built, or the memo's.
    fn all_classes(&self) -> &[Class] {
        match &self.again {
            Some(again) => &again.memo.classes[..self.sites.len().min(again.memo.classes.len())],
            None => &self.classes,
        }
    }

    /// Every strategy's cost of `e`.
    fn walk(&mut self, e: &'p LogicalExpr) -> [PlanCost; N] {
        use LogicalExpr as L;
        if rules::is_push_site(e) {
            return self.site(e);
        }
        self.sizes = self.sizes.map(|size| size + 1);
        let model = self.model;
        match e {
            // Not lowerable: lowering the winner reports it.
            L::Get { .. } => [PlanCost::zero(); N],
            L::Data(bag) => [model.scan(bag.len()); N],
            L::Filter { input, .. } => self.walk(input).map(|c| model.filter(c)),
            L::Project { input, .. }
            | L::MapProject { input, .. }
            | L::Bind { input, .. }
            | L::Flatten(input) => self.walk(input).map(|c| model.per_row(c)),
            L::Distinct(input) => self.walk(input).map(|c| model.distinct(c)),
            L::Aggregate { input, .. } => self.walk(input).map(|c| model.aggregate(c)),
            L::SourceJoin { left, right, .. } | L::Join { left, right, .. } => {
                let hash = matches!(e, L::Join { predicate, .. }
                    if is_hash_join(left, right, predicate.as_ref()));
                let (l, r) = (self.walk(left), self.walk(right));
                std::array::from_fn(|s| match hash {
                    true => model.hash_join(l[s], r[s]),
                    false => model.loop_join(l[s], r[s]),
                })
            }
            L::Union(items) => items.iter().fold([PlanCost::zero(); N], |mut total, item| {
                for (total, c) in total.iter_mut().zip(self.walk(item)) {
                    total.add(c);
                }
                total
            }),
            L::Extents(node) => self.members(node),
            L::Submit { .. } => unreachable!("a submit is a push site"),
        }
    }

    /// Each member's branch, in member order, as the union's.  Searching
    /// again, a member the old node holds too is costed as the memo
    /// costed it, the memo's costs of the old members between skipped.
    fn members(&mut self, node: &'p Extents) -> [PlanCost; N] {
        let old = match &mut self.again {
            Some(again) => match again.nodes.next() {
                Some(old) if old.templates.len() == node.templates.len() => Some(old),
                _ => {
                    self.mismatch = true;
                    return [PlanCost::zero(); N];
                }
            },
            None => None,
        };
        if old.is_some() {
            // The node's classes are met in class order — the order its
            // members' first appearances meet them in — so that an old
            // member skipped before any of its class is costed has its
            // costs' width known.
            self.node_classes = (node.templates.iter())
                .map(|template| first_push_site(template).map(|site| self.site_index(site)))
                .collect();
        }
        let mut next_old = 0;
        let mut total = [PlanCost::zero(); N];
        for m in node.members.iter() {
            if let Some(old) = old {
                next_old = self.skip_old(&old.members, next_old, Some(m));
                if old.members.get(next_old).is_some_and(|o| same(o, m)) {
                    let again = self.again.as_ref().expect("searching again");
                    match again.memo.costs.get(again.at..) {
                        Some(costs) => self.known = Some((costs, 0)),
                        None => self.mismatch = true,
                    }
                    next_old += 1;
                }
            }
            self.member = Some(m);
            let branch = self.walk(&node.templates[m.class]);
            self.member = None;
            if let Some((_, taken)) = self.known.take() {
                self.again.as_mut().expect("searching again").at += taken;
            }
            for (total, c) in total.iter_mut().zip(branch) {
                total.add(c);
            }
        }
        if let Some(old) = old {
            if self.skip_old(&old.members, next_old, None) != old.members.len() {
                self.mismatch = true;
            }
        }
        total
    }

    /// Skips the old members from `from` on that come before `to` and are
    /// not it — all of them without `to` — and the memo's costs of them;
    /// the index of the first not skipped.  A member whose class template
    /// has no push site cannot be skipped: its costs' width is not known.
    fn skip_old(&mut self, old: &[Member], from: usize, to: Option<&Member>) -> usize {
        let mut at = from;
        while let Some(o) = old.get(at) {
            if to.is_some_and(|to| same(o, to) || o.extent > to.extent) {
                break;
            }
            let width = self
                .node_classes
                .get(o.class)
                .copied()
                .flatten()
                .and_then(|site| {
                    self.again
                        .as_ref()
                        .and_then(|again| again.memo.classes.get(site))
                        .map(|class| class.rewrites.len())
                });
            let Some(width) = width else {
                self.mismatch = true;
                return old.len();
            };
            self.again.as_mut().expect("searching again").at += width;
            at += 1;
        }
        at
    }

    /// Every strategy's cost of the maximal push site `site`: a class's,
    /// costed with the names of the member being costed, if any.
    fn site(&mut self, site: &'p LogicalExpr) -> [PlanCost; N] {
        let at = self.site_index(site);
        let class = match &self.again {
            Some(again) => again.memo.classes.get(at),
            None => self.classes.get(at),
        };
        let Some(class) = class else {
            self.mismatch = true;
            return [PlanCost::zero(); N];
        };
        let width = class.rewrites.len();
        let mut costs = [PlanCost::zero(); N];
        match &mut self.known {
            Some((memo, taken)) => match memo.get(*taken..*taken + width) {
                Some(memoized) => {
                    costs[..width].copy_from_slice(memoized);
                    *taken += width;
                }
                None => self.mismatch = true,
            },
            None => {
                let mut keys = std::mem::take(&mut self.keys);
                for (cost, rewrite) in costs.iter_mut().zip(&class.rewrites) {
                    *cost = self.site_cost(&rewrite.tree, &mut rewrite.keys.iter(), &mut keys);
                }
                self.keys = keys;
            }
        }
        if self.member.is_some() {
            self.costs.extend_from_slice(&costs[..width]);
        }
        for (size, r) in self.sizes.iter_mut().zip(class.of) {
            *size += class.rewrites[r].tree.size();
        }
        class.of.map(|r| costs[r])
    }

    /// The index of `site`'s class: the class met there, or the next one
    /// (built, or the memo's when searching again).
    fn site_index(&mut self, site: &'p LogicalExpr) -> usize {
        let known = self.sites.iter().position(|of| std::ptr::eq(*of, site));
        known.unwrap_or_else(|| {
            if self.again.is_none() {
                let class = Class::new(site, self.member.is_some(), self.lookup);
                self.classes.push(class);
            }
            self.sites.push(site);
            self.sites.len() - 1
        })
    }

    /// The cost of `tree`, a class's rewrite or a node of one; `execs` are
    /// the keys of its calls.
    fn site_cost<'c>(
        &self,
        tree: &LogicalExpr,
        execs: &mut impl Iterator<Item = &'c (Option<char>, CalibrationKey)>,
        keys: &mut CalibrationKey,
    ) -> PlanCost {
        use LogicalExpr as L;
        let model = self.model;
        match tree {
            L::Submit {
                repository, expr, ..
            } => {
                let (mark, key) = execs.next().expect("keys per exec of the rewrite");
                let estimate = match (self.member, mark) {
                    (Some(member), Some(mark)) => {
                        key.name_into(*mark, &member.extent, keys);
                        self.estimator.estimate(&member.repository, keys)
                    }
                    _ => self.estimator.estimate(repository, key),
                };
                model.exec(estimate, default_exec_rows(expr, model.params()))
            }
            L::Filter { input, .. } => model.filter(self.site_cost(input, execs, keys)),
            L::Project { input, .. } => model.per_row(self.site_cost(input, execs, keys)),
            L::SourceJoin { left, right, .. } => {
                let l = self.site_cost(left, execs, keys);
                let r = self.site_cost(right, execs, keys);
                model.loop_join(l, r)
            }
            _ => unreachable!("a push site holds submits, filters, projections and joins"),
        }
    }
}

/// The first maximal push site of `tree`, in walk order.
fn first_push_site(tree: &LogicalExpr) -> Option<&LogicalExpr> {
    if rules::is_push_site(tree) {
        return Some(tree);
    }
    let mut found = None;
    tree.for_each_child(&mut |child| {
        if found.is_none() {
            found = first_push_site(child);
        }
    });
    found
}

/// Whether `a` and `b` are the same member of two versions of a node: a
/// patch keeps a member's names, so its extent's name is the same `Arc`.
fn same(a: &Member, b: &Member) -> bool {
    Arc::ptr_eq(&a.extent, &b.extent) && a.class == b.class
}

impl Class {
    /// The class of `site`; a template's (`template`) has its extent's
    /// name marked in its keys.
    fn new(site: &LogicalExpr, template: bool, lookup: &dyn CapabilityLookup) -> Self {
        let mut rewrites: Vec<Rewrite> = Vec::new();
        let of = std::array::from_fn(|s| {
            let mut tree = site.clone();
            materialise(STRATEGIES[s], &mut tree, lookup);
            let known = rewrites.iter().position(|rewrite| rewrite.tree == tree);
            known.unwrap_or_else(|| {
                let mut keys = Vec::new();
                exec_keys(&tree, template, &mut keys);
                rewrites.push(Rewrite { tree, keys });
                rewrites.len() - 1
            })
        });
        Class { rewrites, of }
    }

    /// The heap bytes the class keeps, estimated.
    fn bytes(&self) -> usize {
        let rewrites = self.rewrites.iter().map(|rewrite| {
            let keys: usize = rewrite.keys.iter().map(|(_, key)| key.bytes()).sum();
            rewrite.tree.size() * NODE_BYTES + keys
        });
        std::mem::size_of::<Self>() + rewrites.sum::<usize>()
    }
}

/// Pushes the calibration keys of the `exec` calls of `tree` to `out`,
/// a template's (`marked`) with its collections marked.
fn exec_keys(tree: &LogicalExpr, marked: bool, out: &mut Vec<(Option<char>, CalibrationKey)>) {
    match tree {
        LogicalExpr::Submit { expr, .. } if marked => {
            let (mark, key) = CalibrationKey::marked(expr);
            out.push((Some(mark), key));
        }
        LogicalExpr::Submit { expr, .. } => out.push((None, CalibrationKey::of(expr))),
        _ => tree.for_each_child(&mut |child| exec_keys(child, marked, out)),
    }
}
