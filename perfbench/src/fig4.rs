//! `fig4-partition`: every Figure 4 partition point of the four MPEG routines, plus the
//! combined application's dynamically remapped run (Figure 4(d)).
//!
//! Layout dominates here and nowhere else: each op builds a conflict graph and assigns
//! columns, then replays one long uninterrupted trace under a static mapping.

use crate::harness::{digest_of, Counts, Ledger, OpOut, SerialWorkload, TracedPhase};
use crate::layers::{common, complete, counter_deltas, read_counters, Layers, ENGINE_COUNTERS};
use crate::tracer::Tracer;
use ccache_core::dynamic::PhaseResult;
use ccache_core::partition::{run_partition_point, select_scratchpad_vars};
use ccache_core::report::{figure4d_table, partition_table};
use ccache_core::{
    pack_scratchpad_first, page_aligned, relocate, run_dynamic, CacheMapping, DynamicRunResult,
    Figure4dResult, PartitionConfig, PartitionPoint, PartitionSweep, RegionMapping, ReplayEngine,
    RunResult,
};
use ccache_exp::presets::fig4_spec;
use ccache_exp::JobOutcome;
use ccache_layout::dynamic::units_for;
use ccache_layout::{
    assign_columns, conflict_graph_from_trace, plan_phases, ConflictGraph, LayoutOptions,
    WeightOptions,
};
use ccache_sim::backend::BackendKind;
use ccache_sim::{ColumnMask, Tint};
use ccache_telemetry::Registry;
use ccache_trace::{SymbolTable, Trace, VarId};
use ccache_workloads::mpeg::{run_combined, run_dequant, run_idct, run_phases, run_plus};
use ccache_workloads::{MpegConfig, WorkloadRun};
use column_caching::Session;
use std::collections::{BTreeMap, BTreeSet};

/// Where the partition experiment places the scratchpad block and the other variables
/// (the layout `run_partition_point` uses; the stitched-result check keeps them equal).
const SCRATCHPAD_BASE: u64 = 0x4_0000;
const GENERAL_BASE: u64 = 0x10_0000;

/// Cache-column counts of each routine's partition points.
const POINTS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
enum Fig4Result {
    Point(PartitionPoint),
    Dynamic(DynamicRunResult),
}

/// The seeded MPEG inputs and the first result of every op.
pub struct Fig4 {
    routines: Vec<WorkloadRun>,
    phases: Vec<(String, Trace)>,
    symbols: SymbolTable,
    config: PartitionConfig,
    first: Vec<Option<Fig4Result>>,
}

fn run_counts(r: &RunResult, into: &mut Counts) {
    for (k, v) in [
        ("sim.references", r.references),
        ("sim.hits", r.hits),
        ("sim.misses", r.misses),
        ("sim.writebacks", r.writebacks),
        ("sim.total_cycles", r.total_cycles()),
        ("sim.control_cycles", r.control_cycles),
    ] {
        *into.entry(k).or_default() += v;
    }
}

fn output(result: &Fig4Result, mut counts: Counts) -> OpOut {
    match result {
        Fig4Result::Point(p) => run_counts(&p.result, &mut counts),
        Fig4Result::Dynamic(d) => d
            .phases
            .iter()
            .for_each(|p| run_counts(&p.result, &mut counts)),
    }
    OpOut {
        digest: digest_of(result),
        sim_refs: counts["sim.references"],
        counts,
    }
}

impl Fig4 {
    fn traced_point(
        &self,
        routine: usize,
        cache_columns: usize,
        t: &mut Tracer,
        registry: &Registry,
        counts: &mut Counts,
    ) -> Result<PartitionPoint, String> {
        let workload = &self.routines[routine];
        let config = &self.config;
        let scratchpad_columns = config.columns - cache_columns;
        let column_bytes = config.column_bytes();

        t.enter("placement");
        let scratch_vars = select_scratchpad_vars(
            &workload.trace,
            &workload.symbols,
            scratchpad_columns as u64 * column_bytes,
        );
        let plan = pack_scratchpad_first(
            &workload.symbols,
            &scratch_vars,
            SCRATCHPAD_BASE,
            GENERAL_BASE,
            config.page_size,
        );
        let (trace, symbols) = relocate(&workload.trace, &workload.symbols, &plan);
        t.exit();

        let scratch_set: BTreeSet<VarId> = scratch_vars.iter().copied().collect();
        let mut mapping = CacheMapping::new();
        let scratch_bytes: u64 = scratch_vars
            .iter()
            .filter_map(|v| symbols.region(*v))
            .map(|r| r.size)
            .sum();
        if scratchpad_columns > 0 && scratch_bytes > 0 {
            mapping.map(
                SCRATCHPAD_BASE,
                scratch_bytes,
                RegionMapping::Exclusive {
                    mask: ColumnMask::range(cache_columns, scratchpad_columns),
                    preload: true,
                },
            );
        }
        let weight_opts = WeightOptions {
            column_bytes,
            split_large_variables: true,
            min_accesses: 1,
        };
        let (graph, units) = t.span("layout.conflict_graph", || {
            conflict_graph_from_trace(&trace, &symbols, &weight_opts)
        });
        counts.insert("layout.vertices", graph.vertex_count() as u64);
        counts.insert("layout.edges", graph.edge_count() as u64);

        // The graph restricted to the variables left for the cache columns.
        let mut reduced = ConflictGraph::new();
        let mut reduced_to_unit = Vec::new();
        for (idx, vertex) in graph.vertices() {
            if !scratch_set.contains(&vertex.var) {
                reduced.add_vertex(vertex.clone());
                reduced_to_unit.push(idx);
            }
        }
        for i in 0..reduced_to_unit.len() {
            for j in (i + 1)..reduced_to_unit.len() {
                let w = graph.weight(reduced_to_unit[i], reduced_to_unit[j]);
                if w > 0 {
                    reduced.set_weight(i, j, w);
                }
            }
        }
        let region_of = |unit_idx: usize| {
            let unit = units.unit(unit_idx).expect("unit index valid");
            symbols
                .region(unit.var)
                .map(|r| (r.base + unit.offset, unit.size))
        };
        if cache_columns == 0 {
            for &unit_idx in &reduced_to_unit {
                if let Some((base, size)) = region_of(unit_idx) {
                    mapping.map(base, size, RegionMapping::Uncached);
                }
            }
        } else {
            let layout_opts = LayoutOptions::new(cache_columns, column_bytes);
            let assignment = t
                .span("layout.assign", || assign_columns(&reduced, &layout_opts))
                .map_err(|e| e.to_string())?;
            for (ri, &unit_idx) in reduced_to_unit.iter().enumerate() {
                let column = assignment
                    .column_of_vertex(ri)
                    .ok_or("assignment misses a vertex")?;
                if let Some((base, size)) = region_of(unit_idx) {
                    mapping.map(
                        base,
                        size,
                        RegionMapping::Columns {
                            mask: ColumnMask::single(column),
                        },
                    );
                }
            }
            if scratchpad_columns > 0 {
                mapping.default_mask = Some(ColumnMask::range(0, cache_columns));
            }
        }

        let before = read_counters(registry, ENGINE_COUNTERS);
        t.enter("engine.build");
        let system_config = config.system_config().map_err(|e| e.to_string())?;
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, system_config)
            .map_err(|e| e.to_string())?;
        engine.set_telemetry(registry);
        engine.apply(&mapping).map_err(|e| e.to_string())?;
        t.exit();
        let name = format!("{}-cache{}", workload.name, cache_columns);
        let result = t.span("replay", || engine.replay(&name, &trace));
        counter_deltas(registry, ENGINE_COUNTERS, &before, counts);

        let cycles = if config.include_control {
            result.total_cycles_with_control()
        } else {
            result.total_cycles()
        };
        Ok(PartitionPoint {
            cache_columns,
            scratchpad_columns,
            cycles,
            scratchpad_vars: scratch_vars
                .iter()
                .filter_map(|v| symbols.region(*v).map(|r| r.name.clone()))
                .collect(),
            result,
        })
    }

    fn traced_dynamic(
        &self,
        t: &mut Tracer,
        registry: &Registry,
        counts: &mut Counts,
    ) -> Result<DynamicRunResult, String> {
        let config = &self.config;
        let column_bytes = config.column_bytes();

        t.enter("placement");
        let plan = page_aligned(&self.symbols, GENERAL_BASE, config.page_size);
        let relocated: Vec<(String, Trace, SymbolTable)> = self
            .phases
            .iter()
            .map(|(name, trace)| {
                let (t, s) = relocate(trace, &self.symbols, &plan);
                (name.clone(), t, s)
            })
            .collect();
        t.exit();
        let symbols = &relocated.first().ok_or("no phases")?.2;

        let before = read_counters(registry, ENGINE_COUNTERS);
        t.enter("engine.build");
        let system_config = config.system_config().map_err(|e| e.to_string())?;
        let mut engine = ReplayEngine::new(BackendKind::ColumnCache, system_config)
            .map_err(|e| e.to_string())?;
        engine.set_telemetry(registry);
        t.exit();

        let weight_opts = WeightOptions {
            column_bytes,
            split_large_variables: true,
            min_accesses: 1,
        };
        let layout_opts = LayoutOptions::new(config.columns, column_bytes);
        let phase_traces: Vec<(String, Trace)> = relocated
            .iter()
            .map(|(n, tr, _)| (n.clone(), tr.clone()))
            .collect();
        let plan = t
            .span("layout.plan_phases", || {
                plan_phases(&phase_traces, symbols, &weight_opts, &layout_opts)
            })
            .map_err(|e| e.to_string())?;
        let units = units_for(symbols, &weight_opts);

        let mut phases = Vec::with_capacity(relocated.len());
        let (mut cycles, mut control) = (0u64, 0u64);
        for ((name, trace, _), layout) in relocated.iter().zip(&plan.phases) {
            let assignment = &layout.assignment;
            let mut used = vec![0u64; config.columns];
            for (idx, unit) in units.iter().enumerate() {
                if let Some(col) = assignment.column_of_vertex(idx) {
                    used[col] += unit.size;
                }
            }
            let mut exclusive: Vec<usize> = (0..config.columns)
                .filter(|&c| used[c] > 0 && used[c] <= column_bytes)
                .collect();
            exclusive.truncate(config.columns - 1);
            let mapping = CacheMapping::from_assignment(assignment, &units, symbols, &exclusive);
            t.enter("engine.build");
            let backend = engine.backend_mut();
            let all = ColumnMask::all(backend.config().cache.columns());
            backend
                .define_tint(Tint::DEFAULT, all)
                .map_err(|e| e.to_string())?;
            mapping.apply(backend).map_err(|e| e.to_string())?;
            t.exit();
            let result = t.span("replay", || engine.replay(name, trace));
            cycles += if config.include_control {
                result.total_cycles_with_control()
            } else {
                result.total_cycles()
            };
            control += result.control_cycles;
            phases.push(PhaseResult {
                name: name.clone(),
                result,
                layout_cost: assignment.cost,
                preloaded_columns: exclusive.len(),
            });
        }
        counter_deltas(registry, ENGINE_COUNTERS, &before, counts);
        Ok(DynamicRunResult {
            phases,
            cycles,
            control_cycles: control,
        })
    }

    fn split(&self, op: usize) -> Option<(usize, usize)> {
        (op < self.routines.len() * POINTS).then_some((op / POINTS, op % POINTS))
    }

    fn remember(&mut self, op: usize, result: &Fig4Result) {
        if self.first[op].is_none() {
            self.first[op] = Some(result.clone());
        }
    }

    /// The Figure 4 report tables of one pass of results.
    fn render_report(&self) -> usize {
        let mut chars = 0;
        for (r, routine) in self.routines.iter().enumerate() {
            let points: Vec<PartitionPoint> = (0..POINTS)
                .filter_map(|cc| match &self.first[r * POINTS + cc] {
                    Some(Fig4Result::Point(p)) => Some(p.clone()),
                    _ => None,
                })
                .collect();
            let sweep = PartitionSweep {
                name: routine.name.clone(),
                points,
            };
            chars += partition_table(&sweep).len();
            if r + 1 == self.routines.len() && !sweep.points.is_empty() {
                if let Some(Some(Fig4Result::Dynamic(d))) = self.first.last() {
                    chars += figure4d_table(&Figure4dResult {
                        static_cycles: sweep
                            .points
                            .iter()
                            .map(|p| (p.cache_columns, p.cycles))
                            .collect(),
                        column_cache_cycles: d.cycles,
                        column_cache_control_cycles: d.control_cycles,
                    })
                    .len();
                }
            }
        }
        chars
    }
}

impl SerialWorkload for Fig4 {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let mpeg = MpegConfig::default().with_seed(seed);
        let (routines, (phases, symbols)) = tracer.span("workloads.gen", || {
            (
                vec![
                    run_dequant(&mpeg),
                    run_plus(&mpeg),
                    run_idct(&mpeg),
                    run_combined(&mpeg),
                ],
                run_phases(&mpeg),
            )
        });
        let ops = routines.len() * POINTS + 1;
        Ok(Fig4 {
            routines,
            phases,
            symbols,
            config: PartitionConfig::default(),
            first: vec![None; ops],
        })
    }

    fn ops(&self) -> usize {
        self.first.len()
    }

    fn run(&mut self, op: usize) -> Result<OpOut, String> {
        let result = match self.split(op) {
            Some((r, cc)) => Fig4Result::Point(
                run_partition_point(&self.routines[r], &self.config, cc)
                    .map_err(|e| e.to_string())?,
            ),
            None => Fig4Result::Dynamic(
                run_dynamic(&self.phases, &self.symbols, &self.config)
                    .map_err(|e| e.to_string())?,
            ),
        };
        self.remember(op, &result);
        Ok(output(&result, Counts::new()))
    }

    fn run_traced(
        &mut self,
        op: usize,
        t: &mut Tracer,
        registry: &Registry,
    ) -> Result<OpOut, String> {
        let mut counts = Counts::new();
        t.enter("op");
        let result = match self.split(op) {
            Some((r, cc)) => self
                .traced_point(r, cc, t, registry, &mut counts)
                .map(Fig4Result::Point),
            None => self
                .traced_dynamic(t, registry, &mut counts)
                .map(Fig4Result::Dynamic),
        };
        t.exit();
        let result = result?;
        if op + 1 == self.ops() {
            // Outside the op span: the report is rendered once per pass, not per op.
            t.span("report.render", || self.render_report());
        }
        Ok(output(&result, counts))
    }

    fn verify(&mut self) -> Result<Vec<(usize, String)>, String> {
        let session = Session::builder().build().map_err(|e| e.to_string())?;
        let artefact = session
            .run_spec(&fig4_spec("all"))
            .map_err(|e| e.to_string())?;
        let mut expected: BTreeMap<String, Fig4Result> = BTreeMap::new();
        for (_, outcome) in artefact.entries() {
            match outcome {
                JobOutcome::Partition { point, .. } => {
                    expected.insert(point.result.name.clone(), Fig4Result::Point(point.clone()));
                }
                JobOutcome::Dynamic { run, .. } => {
                    expected.insert("dynamic".into(), Fig4Result::Dynamic(run.clone()));
                }
                _ => {}
            }
        }
        let mut wrong = Vec::new();
        for (op, got) in self.first.iter().enumerate() {
            let Some(got) = got else { continue };
            let key = match got {
                Fig4Result::Point(p) => p.result.name.clone(),
                Fig4Result::Dynamic(_) => "dynamic".into(),
            };
            if expected.get(&key) != Some(got) {
                wrong.push((op, format!("{key} differs from the fig4 spec artefact")));
            }
        }
        Ok(wrong)
    }

    fn extra(&self, _plain: &Ledger) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }

    fn layers(&self, traced: &TracedPhase) -> Layers {
        complete(common(traced))
    }

    fn describe(&self) -> String {
        format!(
            "{} ops per pass: {} routines x cache columns 0..=4 (run_partition_point) + 1 \
             Figure 4(d) remap run (run_dynamic); Paper-scale MPEG, one thread",
            self.ops(),
            self.routines.len()
        )
    }
}
