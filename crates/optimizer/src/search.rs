//! The plan search by decisions (§3.1): every strategy costed, no
//! alternative's tree built.  A pushdown pass rewrites each maximal push
//! site ([`rules::is_push_site`]) on its own; the site of a class template
//! of an [`Extents`](disco_algebra::Extents) node is rewritten once per
//! strategy for all the class's members ([`materialise`]), a site outside
//! any node for itself.  One walk of the classed, normalized plan costs
//! every strategy with the formulas of [`CostModel::cost`], bit for bit,
//! each member over its own `exec` estimates, summed in member order.
//! ARCHITECTURE.md has the design.

use disco_algebra::{is_hash_join, rules, CapabilityLookup, LogicalExpr, Member};

use crate::calibration::{CalibrationKey, Estimator};
use crate::cost::{default_exec_rows, CostModel, PlanCost};
use crate::planner::{materialise, PlanAlternative, STRATEGIES};

const N: usize = STRATEGIES.len();

/// The distinct alternatives in strategy order, and the index of the
/// cheapest — by time, then tree size, the first on a tie.
pub(crate) fn search(
    normalized: &LogicalExpr,
    lookup: &dyn CapabilityLookup,
    model: &CostModel,
) -> (Vec<PlanAlternative>, usize) {
    let mut search = Search {
        lookup,
        model,
        estimator: model.store().read(),
        classes: Vec::new(),
        member: None,
        keys: CalibrationKey::default(),
        sizes: [0; N],
    };
    let costs = search.walk(normalized);
    // Equal rewrites in every class: the same tree as an earlier strategy.
    let classes = &search.classes;
    let kept: Vec<usize> = (0..N)
        .filter(|&s| (0..s).all(|t| classes.iter().any(|(_, c)| c.of[s] != c.of[t])))
        .collect();
    let winner = (0..kept.len()).min_by(|&a, &b| {
        let (a, b) = (kept[a], kept[b]);
        (costs[a].time_ms.total_cmp(&costs[b].time_ms)).then(search.sizes[a].cmp(&search.sizes[b]))
    });
    let alternatives = kept.iter().map(|&s| PlanAlternative {
        strategy: STRATEGIES[s],
        cost: costs[s],
    });
    (alternatives.collect(), winner.unwrap_or(0))
}

struct Search<'p, 'a> {
    lookup: &'a dyn CapabilityLookup,
    model: &'a CostModel,
    estimator: Estimator<'a>,
    /// The classes costed so far, each by the push site it was built
    /// from: a node's template's, or a site outside any node.
    classes: Vec<(*const LogicalExpr, Class)>,
    /// The member whose branch is being costed, inside a node.
    member: Option<&'p Member>,
    /// Its calibration keys as they are spliced.
    keys: CalibrationKey,
    /// Each strategy's tree size.
    sizes: [usize; N],
}

/// A class: the push site of a node's class template, or a site outside
/// any node, with its distinct rewrites and each strategy's one.
struct Class {
    rewrites: Vec<Rewrite>,
    of: [usize; N],
}

struct Rewrite {
    /// The rewritten site.
    tree: LogicalExpr,
    /// The calibration keys of its calls, in order — a template's with
    /// its extent's name marked (and the mark).
    keys: Vec<(Option<char>, CalibrationKey)>,
}

impl<'p> Search<'p, '_> {
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
            // Each member's branch, in member order, as the union's.
            L::Extents(node) => node
                .members
                .iter()
                .fold([PlanCost::zero(); N], |mut total, m| {
                    self.member = Some(m);
                    let branch = self.walk(&node.templates[m.class]);
                    self.member = None;
                    for (total, c) in total.iter_mut().zip(branch) {
                        total.add(c);
                    }
                    total
                }),
            L::Submit { .. } => unreachable!("a submit is a push site"),
        }
    }

    /// Every strategy's cost of the maximal push site `site`: a class's,
    /// costed with the names of the member being costed, if any.
    fn site(&mut self, site: &'p LogicalExpr) -> [PlanCost; N] {
        let known = self
            .classes
            .iter()
            .position(|(of, _)| std::ptr::eq(*of, site));
        if known.is_none() {
            let class = Class::new(site, self.member.is_some(), self.lookup);
            self.classes.push((site, class));
        }
        let class = &self.classes[known.unwrap_or(self.classes.len() - 1)].1;
        let mut keys = std::mem::take(&mut self.keys);
        let mut costs = [PlanCost::zero(); N];
        for (cost, rewrite) in costs.iter_mut().zip(&class.rewrites) {
            *cost = self.site_cost(&rewrite.tree, &mut rewrite.keys.iter(), &mut keys);
        }
        self.keys = keys;
        for (size, r) in self.sizes.iter_mut().zip(class.of) {
            *size += class.rewrites[r].tree.size();
        }
        class.of.map(|r| costs[r])
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
