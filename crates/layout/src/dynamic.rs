//! Dynamic (per-procedure) data layout — Section 3.2.
//!
//! Column mappings can be changed almost instantaneously, so the static layout algorithm
//! can be re-run per procedure (or per program phase) and the tint table remapped before a
//! procedure starts whenever the re-assignment is worthwhile. This module computes a
//! per-phase layout plan and the remapping cost between consecutive phases.

use crate::assignment::{assign_columns, ColumnAssignment, LayoutOptions};
use crate::error::LayoutError;
use crate::weights::{conflict_graph_from_trace, UnitMap, WeightOptions};
use ccache_trace::{SymbolTable, Trace, VarId};

/// Layout computed for one procedure (program phase).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLayout {
    /// Name of the procedure or phase.
    pub name: String,
    /// The column assignment computed from this phase's trace alone.
    pub assignment: ColumnAssignment,
    /// Number of references in the phase (used to weigh the value of remapping).
    pub references: u64,
}

/// A complete dynamic layout plan: one layout per phase plus remap costs between them.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicPlan {
    /// Per-phase layouts, in execution order.
    pub phases: Vec<PhaseLayout>,
    /// `remap_counts[i]` is the number of variables whose column set changes when moving
    /// from phase `i` to phase `i + 1`.
    pub remap_counts: Vec<usize>,
}

impl DynamicPlan {
    /// Total number of variable remappings across all phase transitions.
    pub fn total_remaps(&self) -> usize {
        self.remap_counts.iter().sum()
    }

    /// Returns the phase layout by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseLayout> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Number of variables whose column set differs between two assignments.
///
/// Variables present in only one of the assignments count as changed (they must be mapped
/// or unmapped at the transition).
pub fn remap_count(prev: &ColumnAssignment, next: &ColumnAssignment) -> usize {
    let mut vars: Vec<VarId> = prev.var_columns.keys().copied().collect();
    vars.extend(next.var_columns.keys().copied());
    vars.sort_unstable();
    vars.dedup();
    vars.iter()
        .filter(|v| prev.columns_of(**v) != next.columns_of(**v))
        .count()
}

/// Computes a per-phase layout plan.
///
/// Each phase is described by its name and the trace of references it issues; all phases
/// share one symbol table. Phases whose variables do not overlap need no remapping (their
/// assignments can be merged statically); phases that share variables with different access
/// patterns benefit from remapping, which the plan's `remap_counts` quantifies.
///
/// # Errors
///
/// Propagates any [`LayoutError`] from the per-phase column assignment.
pub fn plan_phases(
    phases: &[(String, Trace)],
    symbols: &SymbolTable,
    weight_options: &WeightOptions,
    layout_options: &LayoutOptions,
) -> Result<DynamicPlan, LayoutError> {
    let mut layouts = Vec::with_capacity(phases.len());
    for (name, trace) in phases {
        let (graph, _units) = conflict_graph_from_trace(trace, symbols, weight_options);
        let assignment = assign_columns(&graph, layout_options)?;
        layouts.push(PhaseLayout {
            name: name.clone(),
            assignment,
            references: trace.len() as u64,
        });
    }
    let remap_counts = layouts
        .windows(2)
        .map(|w| remap_count(&w[0].assignment, &w[1].assignment))
        .collect();
    Ok(DynamicPlan {
        phases: layouts,
        remap_counts,
    })
}

/// Builds the unit map used by a plan (exposed so callers can translate vertex indices of a
/// phase's assignment back to variables and offsets).
pub fn units_for(symbols: &SymbolTable, weight_options: &WeightOptions) -> UnitMap {
    UnitMap::from_symbols(symbols, weight_options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, TraceRecorder};

    /// Two phases: phase 1 hammers a and b together; phase 2 hammers b and c together.
    fn two_phase_setup() -> (Vec<(String, Trace)>, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 256, 8);
        let b = rec.allocate("b", 256, 8);
        let c = rec.allocate("c", 256, 8);
        for i in 0..64u64 {
            rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(b, (i % 32) * 8, 8, AccessKind::Read);
        }
        let (phase1_full, symbols_mid) = rec.clone().finish();
        let phase1 = phase1_full;
        // continue recording phase 2 on a fresh recorder sharing the symbol table layout
        let mut rec2 = rec;
        for i in 0..64u64 {
            rec2.record(b, (i % 32) * 8, 8, AccessKind::Write);
            rec2.record(c, (i % 32) * 8, 8, AccessKind::Read);
        }
        let (full, symbols) = rec2.finish();
        let phase2 = full.slice(phase1.len(), full.len());
        assert_eq!(symbols_mid.len(), symbols.len());
        (
            vec![("phase1".into(), phase1), ("phase2".into(), phase2)],
            symbols,
        )
    }

    #[test]
    fn per_phase_layouts_separate_conflicting_pairs() {
        let (phases, symbols) = two_phase_setup();
        let plan = plan_phases(
            &phases,
            &symbols,
            &WeightOptions::default(),
            &LayoutOptions::new(2, 512),
        )
        .unwrap();
        assert_eq!(plan.phases.len(), 2);
        let p1 = &plan.phases[0].assignment;
        let p2 = &plan.phases[1].assignment;
        // a and b conflict in phase 1, so they get different columns
        assert_ne!(p1.columns_of(VarId(0)), p1.columns_of(VarId(1)));
        // b and c conflict in phase 2
        assert_ne!(p2.columns_of(VarId(1)), p2.columns_of(VarId(2)));
        assert_eq!(p1.cost, 0);
        assert_eq!(p2.cost, 0);
        assert_eq!(plan.phase("phase1").unwrap().references, 128);
        assert!(plan.phase("nope").is_none());
    }

    #[test]
    fn remap_count_detects_changes() {
        let (phases, symbols) = two_phase_setup();
        let plan = plan_phases(
            &phases,
            &symbols,
            &WeightOptions::default(),
            &LayoutOptions::new(2, 512),
        )
        .unwrap();
        assert_eq!(plan.remap_counts.len(), 1);
        // at least one variable changes column set between the phases (c appears, a leaves)
        assert!(plan.remap_counts[0] >= 1);
        assert_eq!(plan.total_remaps(), plan.remap_counts[0]);
    }

    #[test]
    fn remap_count_is_zero_for_identical_assignments() {
        let (phases, symbols) = two_phase_setup();
        let plan = plan_phases(
            &phases,
            &symbols,
            &WeightOptions::default(),
            &LayoutOptions::new(4, 512),
        )
        .unwrap();
        let a = &plan.phases[0].assignment;
        assert_eq!(remap_count(a, a), 0);
    }

    #[test]
    fn units_for_exposes_unit_map() {
        let (_, symbols) = two_phase_setup();
        let units = units_for(&symbols, &WeightOptions::default());
        assert_eq!(units.len(), 3);
    }
}
