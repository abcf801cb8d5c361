//! Dynamic repartitioning: remapping tints between program phases.
//!
//! Demonstrates the software-control interface directly: two phases share a cache, and the
//! tint table is reprogrammed between them. Phase 1 streams through a large input while
//! keeping a FIR coefficient table hot; phase 2 does the same with a histogram table. Each
//! phase wants its hot table protected — and because remapping a tint is a single table
//! write, the protection can follow the program.
//!
//! Run with: `cargo run --example dynamic_remap`

use column_caching::layout::{
    assign_columns, conflict_graph_from_trace, LayoutOptions, WeightOptions,
};
use column_caching::prelude::*;
use column_caching::workloads::kernels::{run_fir, run_histogram, FirConfig, HistogramConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fir = run_fir(&FirConfig::default());
    let hist = run_histogram(&HistogramConfig::default());
    println!(
        "phase 1 (fir): {} refs over {} variables; phase 2 (histogram): {} refs over {} variables",
        fir.trace.len(),
        fir.symbols.len(),
        hist.trace.len(),
        hist.symbols.len()
    );

    // Compute each phase's own column assignment from its conflict graph.
    let opts = WeightOptions::default();
    let layout = LayoutOptions::new(4, 512);
    for run in [&fir, &hist] {
        let (graph, _units) = conflict_graph_from_trace(&run.trace, &run.symbols, &opts);
        let assignment = assign_columns(&graph, &layout)?;
        println!("\nlayout for {} (cost W = {}):", run.name, assignment.cost);
        for region in run.symbols.iter() {
            println!(
                "  {:<14} {:>6} bytes -> columns {:?}",
                region.name,
                region.size,
                assignment.columns_of(region.id)
            );
        }
    }

    // Now run both phases back-to-back on ONE memory system, re-tinting in between.
    let mut system = MemorySystem::with_default_cache();
    let mut total = 0u64;
    for (i, run) in [&fir, &hist].iter().enumerate() {
        // give this phase's hottest variable its own column, everything else the rest
        let ranked = column_caching::core::runner::rank_by_density(&run.trace, &run.symbols);
        let (hot_var, ..) = ranked[0];
        let hot = run.symbols.region(hot_var).unwrap();
        let tint = Tint(10 + i as u32);
        system.make_tint_exclusive(tint, ColumnMask::single(0))?;
        system.tint_range(hot.base..hot.base + hot.size, tint);
        println!(
            "\nphase {}: variable `{}` re-tinted to {} (exclusive column 0), {} page-table entries touched",
            i + 1,
            hot.name,
            tint,
            system.page_table().configured_pages()
        );
        let refs: Vec<(u64, bool)> = run.trace.iter().map(|e| (e.addr, e.is_write())).collect();
        let cycles = system.run_batch(&refs);
        total += cycles;
        println!(
            "phase {} finished: {} cycles, hit rate {:.1}%",
            i + 1,
            cycles,
            system.cache_stats().hit_rate() * 100.0
        );
    }
    println!(
        "\ntotal: {} cycles; tint table remaps performed: {}, TLB entries flushed by re-tinting: {}",
        total,
        system.tints().remaps,
        system.stats().tlb_flushes
    );
    Ok(())
}
