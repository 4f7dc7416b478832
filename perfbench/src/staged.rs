//! The staged replay of a traced pass: the stages `Mediator::query` and
//! `Session::query` run inside one call — parse, resolve, compile, plan
//! cache, optimize, lower, resolve the `exec` calls, combine — called one
//! by one from here, through each crate's public functions, so that each
//! gets its own span.  Spans *inside* the engine are a later change.

use std::collections::BTreeMap;
use std::sync::Arc;

use disco_algebra::{lower, PhysicalExpr};
use disco_catalog::{CatalogHandle, Repository};
use disco_optimizer::{compile_query, Optimizer, PlanCache};
use disco_oql::{parse_query, resolve_query};
use disco_runtime::{
    collect_exec_calls, evaluate_physical_with, resolve_execs, ExecutionConfig, Executor,
    MemBudget, PipelineMetrics, PipelineOptions,
};
use disco_value::{ChunkBuilder, RunReader, RunWriter, Value};
use disco_wrapper::WrapperRegistry;

use crate::driver::{Bed, Log};
use crate::gen::{Op, Workload};
use crate::stats::nproc;
use crate::trace::Recorder;

/// `disco-value` over the workload's own source rows: columnar decode
/// and the spill codec.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn value_layer(
    workload: &Workload,
    rec: &mut Recorder,
    log: &mut Log,
) -> Result<(), String> {
    let rows: Vec<Value> = workload
        .table(0)
        .rows()
        .iter()
        .map(|row| Value::Struct(row.clone()))
        .collect();
    for round in 0..5u64 {
        let mut builder = ChunkBuilder::new();
        for field in ["id", "name", "salary"] {
            builder.add_field(field);
        }
        let (decoded, decode_ms) = rec.time("value.chunk_decode", None, round, || {
            rows.chunks(1024)
                .map(|batch| builder.build(batch).map_or(0, |chunk| chunk.len()))
                .sum::<usize>()
        });
        if decoded != rows.len() {
            return Err("source rows did not decode into columnar chunks".into());
        }
        log.push(
            "value.chunk_decode_ns_per_row",
            decode_ms * 1e6 / rows.len() as f64,
        );
        let (run, encode_ms) = rec.time("value.spill_encode", None, round, || {
            let mut writer = RunWriter::new(Vec::new());
            for row in &rows {
                writer.push(std::slice::from_ref(row))?;
            }
            writer.finish()
        });
        let run = run.map_err(|e| e.to_string())?;
        let megabytes = run.len() as f64 / 1e6;
        log.push("value.spill_encode_mb_s", megabytes / (encode_ms / 1000.0));
        let (read, decode_ms) = rec.time("value.spill_decode", None, round, || {
            let mut reader = RunReader::new(run.as_slice());
            let mut records = 0usize;
            while reader.next_record()?.is_some() {
                records += 1;
            }
            std::io::Result::Ok(records)
        });
        if read.map_err(|e| e.to_string())? != rows.len() {
            return Err("spill run did not read back every row".into());
        }
        log.push("value.spill_decode_mb_s", megabytes / (decode_ms / 1000.0));
    }
    Ok(())
}

/// The staged replay: the same stages `Mediator::query` / `Session::query`
/// run, called one by one from here so each gets its own span.
pub(crate) struct Stager<'a> {
    bed: &'a Bed,
    registry: WrapperRegistry,
    config: ExecutionConfig,
    cache: PlanCache,
    handle: CatalogHandle,
    probes: u64,
    /// Breaker state per text, measured once by a never-tripping budget.
    state_bytes: BTreeMap<String, usize>,
}

impl<'a> Stager<'a> {
    pub(crate) fn new(bed: &'a Bed, workload: &Workload) -> Self {
        let config = ExecutionConfig {
            deadline: workload.deadline().or(bed.mediator.deadline()),
            calibration: Some(Arc::clone(bed.mediator.calibration())),
            source_pool: bed.pool.clone(),
            ..ExecutionConfig::default()
        };
        Stager {
            bed,
            registry: bed.registry().clone(),
            config,
            cache: PlanCache::new(),
            // A private handle: timing `update` must not bump the
            // generation the server's plan cache is keyed on.
            handle: CatalogHandle::new((*bed.catalog()).clone()),
            probes: 0,
            state_bytes: BTreeMap::new(),
        }
    }

    /// The optimizer the program's entry points build per query: the
    /// shared registry and calibration store, the mediator's cost
    /// constants.
    fn optimizer(&self) -> Optimizer {
        Optimizer::with_store(
            self.registry.clone(),
            Arc::clone(self.bed.mediator.calibration()),
        )
        .with_cost_params(self.bed.mediator.cost_params())
    }

    /// The two children a plan-cache hit runs inside the whole call —
    /// the cache lookup and the streamed execution — called right after
    /// the whole call, for the same operation, so that the entry point's
    /// self time is a paired difference.  Returns their total, in ms.
    pub(crate) fn children(
        &mut self,
        op: &Op<'_>,
        op_id: u64,
        rec: &mut Recorder,
        log: &mut Log,
    ) -> Result<f64, String> {
        let catalog = self.bed.catalog();
        let generation = catalog.generation();
        let calibration = Arc::clone(self.bed.mediator.calibration());
        if self.cache.get(op.text, generation).is_none() {
            // Not timed: a miss is the staged replay's business.
            let plan = self
                .optimizer()
                .optimize_text(op.text, &catalog)
                .map_err(|e| e.to_string())?;
            self.cache.put(&plan);
        }
        let (plan, get_ms) = rec.time("optimizer.cache_get", None, op_id, || {
            self.cache.get(op.text, generation)
        });
        let plan = plan.ok_or("a plan just cached is gone")?;
        let mut executor = Executor::new(self.registry.clone())
            .with_deadline(self.config.deadline)
            .with_calibration(calibration);
        if let Some(pool) = &self.bed.pool {
            executor = executor.with_source_pool(Arc::clone(pool));
        }
        let (answer, execute_ms) = rec.time("runtime.execute", None, op_id, || {
            executor.execute(&plan.physical, &catalog)
        });
        answer.map_err(|e| e.to_string())?;
        log.push("runtime.execute_ms", execute_ms);
        Ok(get_ms + execute_ms)
    }

    #[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
    pub(crate) fn replay(
        &mut self,
        op: &Op<'_>,
        rec: &mut Recorder,
        log: &mut Log,
    ) -> Result<(), String> {
        let op_id = (1u64 << 60) | op.index;
        let text = op.text;
        let catalog = self.bed.catalog();
        let generation = catalog.generation();

        // -- catalog: snapshot on every op, a copy-on-write update on
        // every 8th.
        let (_, snapshot_ms) = rec.time("catalog.snapshot", None, op_id, || self.handle.snapshot());
        log.push("catalog.snapshot_us", snapshot_ms * 1000.0);
        if self.probes.is_multiple_of(8) {
            let name = format!("r_probe{}", self.probes);
            let (updated, update_ms) = rec.time("catalog.update", None, op_id, || {
                self.handle
                    .update(|c| c.add_repository(Repository::new(&name)))
            });
            updated.map_err(|e| e.to_string())?;
            log.push("catalog.update_ms", update_ms);
        }
        self.probes += 1;

        // -- the stages of one query, in the order the program runs them.
        let root = rec.open("staged", None, op_id);
        let (ast, parse_ms) = rec.time("oql.parse", Some(root), op_id, || parse_query(text));
        let ast = ast.map_err(|e| e.to_string())?;
        let (resolved_ast, resolve_ast_ms) = rec.time("oql.resolve", Some(root), op_id, || {
            resolve_query(&ast, &catalog)
        });
        resolved_ast.map_err(|e| e.to_string())?;
        // `compile_query` resolves again itself; its own share is the
        // difference.
        let (compiled, compile_ms) = rec.time("optimizer.compile", Some(root), op_id, || {
            compile_query(&ast, &catalog)
        });
        let compiled = compiled.map_err(|e| e.to_string())?;
        rec.time("optimizer.cache_get", Some(root), op_id, || {
            self.cache.get(text, generation)
        });
        let optimizer = self.optimizer();
        let (plan, optimize_ms) = rec.time("optimizer.optimize", Some(root), op_id, || {
            optimizer.optimize_logical(&compiled, generation)
        });
        let mut plan = plan.map_err(|e| e.to_string())?;
        plan.query = Some(text.to_owned());
        rec.time("optimizer.cache_put", Some(root), op_id, || {
            self.cache.put(&plan);
        });
        let (lowered, lower_ms) =
            rec.time("algebra.lower", Some(root), op_id, || lower(&plan.logical));
        lowered.map_err(|e| e.to_string())?;
        let physical: &PhysicalExpr = &plan.physical;
        let (resolved, resolve_ms) = rec.time("runtime.resolve", Some(root), op_id, || {
            resolve_execs(physical, &self.registry, &catalog, &self.config)
        });
        let resolved = resolved.map_err(|e| e.to_string())?;
        if !resolved.all_available() {
            // A stalled machine made a sleeping source miss the deadline:
            // nothing to combine, so this operation is not replayed.
            rec.close(root);
            log.add("staged_skipped", 1.0);
            return Ok(());
        }
        let (combined, combine_ms) = rec.time("runtime.combine", Some(root), op_id, || {
            evaluate_physical_with(
                physical,
                &resolved,
                &PipelineMetrics::new(),
                PipelineOptions::default(),
            )
        });
        let rows = combined.map_err(|e| e.to_string())?.len();
        rec.close(root);

        let own_compile_ms = (compile_ms - resolve_ast_ms).max(0.0);
        log.push("oql.parse_us", parse_ms * 1000.0);
        log.push("oql.resolve_us", resolve_ast_ms * 1000.0);
        log.push("optimizer.compile_us", own_compile_ms * 1000.0);
        log.push("optimizer.optimize_us", optimize_ms * 1000.0);
        log.push("optimizer.alternatives", plan.alternatives.len() as f64);
        log.push("optimizer.plan_nodes", plan.logical.size() as f64);
        log.push("algebra.lower_us", lower_ms * 1000.0);
        log.push("runtime.resolve_ms", resolve_ms);
        log.push("runtime.combine_ms", combine_ms);
        log.add("staged_optimizer_ms", own_compile_ms + optimize_ms);
        log.add("staged_resolve_ms", resolve_ms);
        log.add("staged_combine_ms", combine_ms);
        log.add(
            "staged_total_ms",
            parse_ms + compile_ms + optimize_ms + lower_ms + resolve_ms + combine_ms,
        );

        // -- combine variants over the same resolved rows: the tracked
        // numbers of the parallel spine and of spilling.  Neither is a
        // default, so neither moves an end-to-end metric.
        let threaded = PipelineOptions {
            threads: nproc(),
            ..PipelineOptions::default()
        };
        let (out, tn_ms) = rec.time("runtime.combine_tn", None, op_id, || {
            evaluate_physical_with(physical, &resolved, &PipelineMetrics::new(), threaded)
        });
        if out.map_err(|e| e.to_string())?.len() != rows {
            return Err(format!(
                "threaded combine of {text:?} changed the row count"
            ));
        }
        log.push("runtime.combine_ms_tn", tn_ms);

        let state = match self.state_bytes.get(text) {
            Some(state) => *state,
            None => {
                // A budget that never trips tracks the breaker state
                // without spilling it.
                let probe = PipelineMetrics::new();
                let options = PipelineOptions {
                    mem_budget: MemBudget::Bytes(usize::MAX / 2),
                    ..PipelineOptions::default()
                };
                evaluate_physical_with(physical, &resolved, &probe, options)
                    .map_err(|e| e.to_string())?;
                let state = probe.peak_tracked_bytes();
                self.state_bytes.insert(text.to_owned(), state);
                state
            }
        };
        let budget = (state / 10).max(4096);
        let budgeted_metrics = PipelineMetrics::new();
        let budgeted = PipelineOptions {
            mem_budget: MemBudget::Bytes(budget),
            ..PipelineOptions::default()
        };
        let (out, budgeted_ms) = rec.time("runtime.combine_budgeted", None, op_id, || {
            evaluate_physical_with(physical, &resolved, &budgeted_metrics, budgeted)
        });
        if out.map_err(|e| e.to_string())?.len() != rows {
            return Err(format!(
                "budgeted combine of {text:?} changed the row count"
            ));
        }
        log.push("runtime.combine_ms_budgeted", budgeted_ms);
        log.push(
            "runtime.bytes_spilled",
            budgeted_metrics.bytes_spilled() as f64,
        );
        log.push(
            "runtime.peak_over_budget",
            budgeted_metrics.peak_tracked_bytes() as f64 / budget as f64,
        );

        // -- the wrappers alone: every shipped expression submitted
        // directly, one after the other.
        let mut submit_ms = 0.0;
        for (_, wrapper_name, shipped) in collect_exec_calls(physical) {
            let wrapper = self
                .registry
                .wrapper(&wrapper_name)
                .ok_or_else(|| format!("wrapper {wrapper_name} is not registered"))?;
            let (answered, call_ms) =
                rec.time("wrapper.submit", None, op_id, || wrapper.submit(&shipped));
            answered.map_err(|e| e.to_string())?;
            submit_ms += call_ms;
        }
        log.push("wrapper.submit_ms", submit_ms);
        Ok(())
    }
}
