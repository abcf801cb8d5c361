//! The joint search space: cache geometries × column assignments, and the genome
//! operations (encode/decode, mutation, crossover) strategies search it with.
//!
//! A **genome** is a geometry index plus one column per conflict-graph vertex of that
//! geometry. Geometry choices are materialised up front: for each candidate geometry the
//! space builds the unit split (column-sized pieces of large variables), the conflict
//! graph over those units, and the paper's heuristic assignment — the seed every search
//! starts from, which is what guarantees a search never reports a result worse than the
//! heuristic.
//!
//! Every operation is deterministic for a given RNG stream, and every generated genome is
//! valid by construction: columns in range and forced placements respected. Decoding
//! re-validates through [`ccache_layout::validate_vertex_columns`], so a corrupted key
//! cannot smuggle an out-of-space candidate into evaluation.

use crate::error::OptError;
use ccache_layout::{
    assign_columns, conflict_graph_from_trace, ColumnAssignment, ConflictGraph, LayoutOptions,
    UnitMap, WeightOptions,
};
use ccache_sim::{CacheConfig, SystemConfig};
use ccache_trace::{SymbolTable, Trace, VarId};
use rand::{rngs::StdRng, Rng};

/// The geometry knobs a search may vary. Every combination is validated against the
/// template's capacity; combinations the hardware model rejects are silently skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometrySearch {
    /// Candidate column (way) counts. Empty means "template only".
    pub columns: Vec<usize>,
    /// Candidate line sizes in bytes. Empty means "template only".
    pub line_sizes: Vec<u64>,
    /// Candidate TLB entry counts. Empty means "template only".
    pub tlb_entries: Vec<usize>,
}

impl GeometrySearch {
    /// No geometry search: only the template configuration is used, and the search
    /// optimizes column assignments alone.
    pub fn fixed() -> Self {
        GeometrySearch {
            columns: Vec::new(),
            line_sizes: Vec::new(),
            tlb_entries: Vec::new(),
        }
    }

    /// The default joint search: column counts 2/4/8, line sizes 16/32/64 and TLB sizes
    /// 16/64 around the template (invalid combinations are dropped per template).
    pub fn standard() -> Self {
        GeometrySearch {
            columns: vec![2, 4, 8],
            line_sizes: vec![16, 32, 64],
            tlb_entries: vec![16, 64],
        }
    }
}

/// One fully materialised geometry: the validated configuration plus everything needed to
/// express and score assignments under it.
#[derive(Debug, Clone)]
pub struct GeometryChoice {
    /// The validated system configuration.
    pub config: SystemConfig,
    /// Column-sized units of the workload's variables under this geometry.
    pub units: UnitMap,
    /// The conflict graph over those units.
    pub graph: ConflictGraph,
    /// Assignment options (column count, column size, forced placements).
    pub options: LayoutOptions,
    /// The paper's heuristic assignment for this geometry — the search seed.
    pub heuristic: ColumnAssignment,
    /// Vertices a search may move (everything not covered by a forced placement).
    pub free_vertices: Vec<usize>,
}

/// A candidate solution: a geometry and one column per graph vertex of that geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// Index into [`SearchSpace::geometries`].
    pub geometry: usize,
    /// Column of every conflict-graph vertex (same indexing as the geometry's graph).
    pub columns: Vec<usize>,
}

impl Genome {
    /// The canonical byte encoding of this genome, used as the fitness-cache key:
    /// geometry as little-endian `u16`, then one byte per vertex column. Two genomes are
    /// the same candidate if and only if their encodings are equal.
    pub fn encode(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(2 + self.columns.len());
        key.extend_from_slice(&(self.geometry as u16).to_le_bytes());
        key.extend(self.columns.iter().map(|&c| c as u8));
        key
    }
}

/// The materialised search space over one workload.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Every valid geometry, template first.
    pub geometries: Vec<GeometryChoice>,
    /// The workload's symbol table (shared by all geometries).
    pub symbols: SymbolTable,
}

impl SearchSpace {
    /// Builds the space for a workload: the template geometry plus every valid
    /// combination from `search`, each with its unit split, conflict graph and heuristic
    /// assignment. `forced` pins variables to columns in every geometry (combinations
    /// whose column count cannot honour a forced placement are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptySpace`] if no geometry survives validation, and
    /// propagates layout errors from heuristic seeding.
    pub fn build(
        trace: &Trace,
        symbols: &SymbolTable,
        template: SystemConfig,
        search: &GeometrySearch,
        forced: &[(VarId, usize)],
    ) -> Result<SearchSpace, OptError> {
        template.validate()?;
        let capacity = template.cache.capacity_bytes();

        // Enumerate candidate (columns, line, tlb) triples, template first, deduped.
        let columns_list = non_empty_or(&search.columns, template.cache.columns());
        let lines_list = non_empty_or(&search.line_sizes, template.cache.line_size());
        let tlb_list = non_empty_or(&search.tlb_entries, template.tlb_entries);
        let mut triples = vec![(
            template.cache.columns(),
            template.cache.line_size(),
            template.tlb_entries,
        )];
        for &c in &columns_list {
            for &l in &lines_list {
                for &t in &tlb_list {
                    if !triples.contains(&(c, l, t)) {
                        triples.push((c, l, t));
                    }
                }
            }
        }

        // The unit split, conflict graph and heuristic seed depend only on the column
        // count (capacity is fixed, so column_bytes is determined by it) — memoise them
        // so varying line size and TLB entries does not re-scan the whole trace.
        type LayoutParts = (ConflictGraph, UnitMap, LayoutOptions, ColumnAssignment);
        let mut parts_by_columns: std::collections::BTreeMap<usize, Option<LayoutParts>> =
            std::collections::BTreeMap::new();

        let mut geometries = Vec::new();
        for (columns, line, tlb) in triples {
            let Ok(cache) = CacheConfig::builder()
                .capacity_bytes(capacity)
                .columns(columns)
                .line_size(line)
                .replacement(template.cache.replacement())
                .build()
            else {
                continue;
            };
            let config = SystemConfig {
                cache,
                tlb_entries: tlb,
                ..template
            };
            if config.validate().is_err() {
                continue;
            }
            if forced.iter().any(|&(_, col)| col >= columns) {
                continue;
            }
            let parts = parts_by_columns.entry(columns).or_insert_with(|| {
                let weight_options = WeightOptions {
                    column_bytes: cache.column_bytes(),
                    ..WeightOptions::default()
                };
                let (graph, units) = conflict_graph_from_trace(trace, symbols, &weight_options);
                let options = LayoutOptions {
                    columns,
                    column_bytes: cache.column_bytes(),
                    forced: forced.to_vec(),
                    ..LayoutOptions::default()
                };
                let heuristic = assign_columns(&graph, &options).ok()?;
                Some((graph, units, options, heuristic))
            });
            let Some((graph, units, options, heuristic)) = parts.clone() else {
                continue;
            };
            let forced_vars: Vec<VarId> = options.forced.iter().map(|&(v, _)| v).collect();
            let free_vertices: Vec<usize> = graph
                .vertices()
                .filter(|(_, vertex)| !forced_vars.contains(&vertex.var))
                .map(|(idx, _)| idx)
                .collect();
            geometries.push(GeometryChoice {
                config,
                units,
                graph,
                options,
                heuristic,
                free_vertices,
            });
        }
        if geometries.is_empty() {
            return Err(OptError::EmptySpace {
                reason: format!(
                    "no (columns, line, tlb) combination is valid for a {capacity}-byte cache"
                ),
            });
        }
        Ok(SearchSpace {
            geometries,
            symbols: symbols.clone(),
        })
    }

    /// The heuristic-seeded genome of geometry `g` — the candidate every strategy starts
    /// from for that geometry.
    pub fn seeded(&self, g: usize) -> Genome {
        Genome {
            geometry: g,
            columns: self.geometries[g].heuristic.vertex_columns.clone(),
        }
    }

    /// Decodes a canonical key back into a genome, validating it against the space.
    /// Returns `None` for unknown geometries, wrong lengths, out-of-range columns or
    /// violated forced placements — `decode(encode(g)) == Some(g)` for every genome the
    /// space can produce.
    pub fn decode(&self, key: &[u8]) -> Option<Genome> {
        if key.len() < 2 {
            return None;
        }
        let geometry = u16::from_le_bytes([key[0], key[1]]) as usize;
        let geo = self.geometries.get(geometry)?;
        let columns: Vec<usize> = key[2..].iter().map(|&b| b as usize).collect();
        ccache_layout::validate_vertex_columns(&geo.graph, &geo.options, &columns).ok()?;
        Some(Genome { geometry, columns })
    }

    /// `true` if the genome is a member of this space (valid geometry, columns and
    /// forced placements).
    pub fn is_valid(&self, genome: &Genome) -> bool {
        self.geometries.get(genome.geometry).is_some_and(|geo| {
            ccache_layout::validate_vertex_columns(&geo.graph, &geo.options, &genome.columns)
                .is_ok()
        })
    }

    /// A uniformly random genome: random geometry, every free vertex on a random column,
    /// forced vertices pinned.
    pub fn random(&self, rng: &mut StdRng) -> Genome {
        let geometry = rng.random_range(0..self.geometries.len());
        let geo = &self.geometries[geometry];
        let mut columns = geo.heuristic.vertex_columns.clone();
        for &v in &geo.free_vertices {
            columns[v] = rng.random_range(0..geo.options.columns);
        }
        Genome { geometry, columns }
    }

    /// Mutates a genome: occasionally jumps to another geometry (re-seeding from that
    /// geometry's heuristic), then re-rolls one or two free vertices. Forced placements
    /// are never touched, so every output is valid.
    pub fn mutate(&self, genome: &Genome, rng: &mut StdRng) -> Genome {
        let mut out = genome.clone();
        if self.geometries.len() > 1 && rng.random_bool(0.15) {
            let mut g = rng.random_range(0..self.geometries.len() - 1);
            if g >= out.geometry {
                g += 1;
            }
            out = self.seeded(g);
        }
        let geo = &self.geometries[out.geometry];
        if geo.free_vertices.is_empty() {
            return out;
        }
        let flips = 1 + rng.random_range(0..2usize);
        for _ in 0..flips {
            let v = geo.free_vertices[rng.random_range(0..geo.free_vertices.len())];
            out.columns[v] = rng.random_range(0..geo.options.columns);
        }
        out
    }

    /// Uniform crossover. Parents under the same geometry mix per-vertex; parents under
    /// different geometries cannot exchange genes (their vertex sets differ), so one of
    /// them is passed through unchanged.
    pub fn crossover(&self, a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        if a.geometry != b.geometry {
            return if rng.random_bool(0.5) {
                a.clone()
            } else {
                b.clone()
            };
        }
        let columns = a
            .columns
            .iter()
            .zip(&b.columns)
            .map(|(&ca, &cb)| if rng.random_bool(0.5) { ca } else { cb })
            .collect();
        Genome {
            geometry: a.geometry,
            columns,
        }
    }

    /// The number of distinct genomes, or `None` when it overflows `u128` (practically:
    /// "too many to enumerate"). Sum over geometries of `columns ^ free_vertices`.
    pub fn cardinality(&self) -> Option<u128> {
        let mut total: u128 = 0;
        for geo in &self.geometries {
            let mut n: u128 = 1;
            for _ in 0..geo.free_vertices.len() {
                n = n.checked_mul(geo.options.columns as u128)?;
            }
            total = total.checked_add(n)?;
        }
        Some(total)
    }

    /// Every genome, lazily, in a fixed deterministic order: per geometry, the heuristic
    /// seed first, then odometer order over the free vertices (first free vertex the
    /// fastest digit), skipping the combination equal to the seed. Callers take what
    /// they need — a space far larger than any budget costs only the genomes pulled.
    pub fn enumerate(&self) -> impl Iterator<Item = Genome> + '_ {
        (0..self.geometries.len()).flat_map(move |g| {
            let geo = &self.geometries[g];
            let seed = self.seeded(g);
            // `None` once the odometer has wrapped past its last combination; with no
            // free vertices there is exactly one (empty) combination
            let mut odometer = Some(vec![0usize; geo.free_vertices.len()]);
            std::iter::once(seed.clone()).chain(std::iter::from_fn(move || loop {
                let digits = odometer.as_mut()?;
                let mut columns = geo.heuristic.vertex_columns.clone();
                for (slot, &v) in digits.iter().zip(&geo.free_vertices) {
                    columns[v] = *slot;
                }
                if !advance(digits, geo.options.columns) {
                    odometer = None;
                }
                if columns != seed.columns {
                    return Some(Genome {
                        geometry: g,
                        columns,
                    });
                }
            }))
        })
    }
}

/// Steps an odometer of base-`base` digits (least significant first); `false` when it
/// wraps back to all zeros.
fn advance(digits: &mut [usize], base: usize) -> bool {
    for digit in digits.iter_mut() {
        *digit += 1;
        if *digit < base {
            return true;
        }
        *digit = 0;
    }
    false
}

fn non_empty_or<T: Copy>(list: &[T], fallback: T) -> Vec<T> {
    if list.is_empty() {
        vec![fallback]
    } else {
        list.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::{AccessKind, TraceRecorder};
    use rand::SeedableRng;

    fn workload() -> (Trace, SymbolTable) {
        let mut rec = TraceRecorder::new();
        let a = rec.allocate("a", 256, 8);
        let b = rec.allocate("b", 256, 8);
        let c = rec.allocate("c", 1024, 8);
        for i in 0..64u64 {
            rec.record(a, (i % 32) * 8, 8, AccessKind::Read);
            rec.record(b, (i % 32) * 8, 8, AccessKind::Write);
            rec.record(c, (i * 16) % 1024, 8, AccessKind::Read);
        }
        rec.finish()
    }

    fn template() -> SystemConfig {
        SystemConfig {
            page_size: 256,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn fixed_search_yields_exactly_the_template() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        assert_eq!(space.geometries.len(), 1);
        assert_eq!(space.geometries[0].config, template());
        // heuristic seed decodes to itself
        let seed = space.seeded(0);
        assert!(space.is_valid(&seed));
        assert_eq!(space.decode(&seed.encode()), Some(seed));
    }

    #[test]
    fn standard_search_keeps_only_valid_geometries() {
        let (t, s) = workload();
        let space =
            SearchSpace::build(&t, &s, template(), &GeometrySearch::standard(), &[]).unwrap();
        assert!(space.geometries.len() > 1);
        for geo in &space.geometries {
            assert!(geo.config.validate().is_ok());
            assert_eq!(geo.config.cache.capacity_bytes(), 2048);
            assert_eq!(geo.graph.vertex_count(), geo.units.len());
        }
        // the template is always geometry 0
        assert_eq!(space.geometries[0].config, template());
    }

    #[test]
    fn random_mutate_crossover_stay_in_space() {
        let (t, s) = workload();
        let space =
            SearchSpace::build(&t, &s, template(), &GeometrySearch::standard(), &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut genome = space.random(&mut rng);
        for _ in 0..200 {
            assert!(space.is_valid(&genome));
            let other = space.random(&mut rng);
            genome = space.crossover(&space.mutate(&genome, &mut rng), &other, &mut rng);
        }
    }

    #[test]
    fn forced_placements_survive_every_operation() {
        let (t, s) = workload();
        let forced = [(VarId(0), 1usize)];
        let space =
            SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &forced).unwrap();
        let geo = &space.geometries[0];
        // vertex of variable a is pinned to column 1 and absent from free_vertices
        let pinned: Vec<usize> = geo
            .graph
            .vertices()
            .filter(|(_, v)| v.var == VarId(0))
            .map(|(i, _)| i)
            .collect();
        assert!(!pinned.is_empty());
        for &p in &pinned {
            assert!(!geo.free_vertices.contains(&p));
            assert_eq!(geo.heuristic.vertex_columns[p], 1);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut genome = space.seeded(0);
        for _ in 0..100 {
            genome = space.mutate(&genome, &mut rng);
            for &p in &pinned {
                assert_eq!(genome.columns[p], 1);
            }
        }
    }

    #[test]
    fn decode_rejects_corrupt_keys() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        assert_eq!(space.decode(&[]), None);
        assert_eq!(space.decode(&[9, 9]), None); // unknown geometry
        let mut key = space.seeded(0).encode();
        key.push(0); // wrong length
        assert_eq!(space.decode(&key), None);
        let mut key = space.seeded(0).encode();
        key[2] = 200; // column out of range
        assert_eq!(space.decode(&key), None);
    }

    #[test]
    fn enumerate_covers_small_spaces_without_duplicates() {
        let (t, s) = workload();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        let n = space.cardinality().unwrap();
        let genomes: Vec<Genome> = space.enumerate().collect();
        assert_eq!(genomes.len() as u128, n);
        let mut keys: Vec<Vec<u8>> = genomes.iter().map(Genome::encode).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len() as u128, n);
        // a limit truncates deterministically
        let some: Vec<Genome> = space.enumerate().take(5).collect();
        assert_eq!(some.len(), 5);
        assert_eq!(some[0], space.seeded(0));
    }

    #[test]
    fn enumerate_walks_the_seed_then_the_odometer() {
        let (t, s) = workload();
        let columns = GeometrySearch {
            columns: vec![2, 4],
            ..GeometrySearch::fixed()
        };
        let space = SearchSpace::build(&t, &s, template(), &columns, &[]).unwrap();
        // the canonical order, spelled out: per geometry the seed, then every column
        // combination with the first free vertex as the fastest digit, minus the seed
        let mut expected = Vec::new();
        for (g, geo) in space.geometries.iter().enumerate() {
            let seed = space.seeded(g);
            expected.push(seed.clone());
            let (k, c) = (geo.free_vertices.len(), geo.options.columns);
            for n in 0..c.pow(k as u32) {
                let mut columns = geo.heuristic.vertex_columns.clone();
                for (i, &v) in geo.free_vertices.iter().enumerate() {
                    columns[v] = n / c.pow(i as u32) % c;
                }
                if columns != seed.columns {
                    expected.push(Genome {
                        geometry: g,
                        columns,
                    });
                }
            }
        }
        assert!(space.geometries.len() > 1);
        assert_eq!(space.enumerate().collect::<Vec<_>>(), expected);
        for k in [0, 1, 7, expected.len()] {
            assert_eq!(space.enumerate().take(k).collect::<Vec<_>>(), expected[..k]);
        }
    }

    #[test]
    fn enumerate_is_lazy_over_spaces_too_large_to_count() {
        // 80 independently accessed variables: 4^80 > 2^128 assignments
        let mut rec = TraceRecorder::new();
        let vars: Vec<VarId> = (0..80)
            .map(|i| rec.allocate(&format!("v{i}"), 64, 8))
            .collect();
        for round in 0..4u64 {
            for &v in &vars {
                rec.record(v, (round * 8) % 64, 8, AccessKind::Read);
            }
        }
        let (t, s) = rec.finish();
        let space = SearchSpace::build(&t, &s, template(), &GeometrySearch::fixed(), &[]).unwrap();
        assert_eq!(space.cardinality(), None);
        let first: Vec<Genome> = space.enumerate().take(3).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(first[0], space.seeded(0));
        assert!(first.iter().all(|g| space.is_valid(g)));
    }
}
