//! Benchmark profiles: the knobs that shape a generated workload.
//!
//! Each profile mirrors one row of the paper's Table I (10 SPEC JVM98 + 10
//! DaCapo 2009 benchmarks), scaled down so the whole 20-benchmark
//! evaluation matrix finishes in minutes on one machine (the paper's PAGs
//! have ~200k nodes and up to 185k queries; ours are 1–2 orders of
//! magnitude smaller with the same structural mix). What is preserved is
//! the *shape*: the relative heaviness of the benchmarks, the ratio of
//! library to application code, and the density of heap traffic that makes
//! data sharing profitable.

/// Generation parameters for one synthetic benchmark.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Benchmark name (the paper's Table I row it is shaped after).
    pub name: String,
    /// RNG seed — every run of a profile generates the identical program.
    pub seed: u64,
    /// Leaf value classes (no reference fields, type level 1).
    pub value_classes: usize,
    /// Box classes (nested single-field containers, levels 2..).
    pub box_classes: usize,
    /// Array-backed collection classes (Vector-like library code).
    pub collections: usize,
    /// Application classes (queries are issued for their locals).
    pub app_classes: usize,
    /// Generated methods per application class.
    pub methods_per_class: usize,
    /// Statement idioms per generated method body.
    pub idioms_per_method: usize,
    /// Relative idiom weights: `[alloc_chain, container, field, call,
    /// global, wrapper, shared_container, cross_call, ladder]`.
    pub idiom_weights: [u32; 9],
    /// Fraction (percent) of app classes that extend another app class,
    /// creating CHA dispatch fan-out.
    pub subclass_percent: u32,
    /// Per-query budget `B` used when evaluating this benchmark.
    pub budget: u64,
}

impl Profile {
    /// The solver configuration this profile's experiments use: the
    /// default configuration with the profile's budget.
    pub fn solver_config(&self) -> parcfl_core::SolverConfig {
        parcfl_core::SolverConfig::default().with_budget(self.budget)
    }

    /// A moderately larger profile than [`Profile::tiny`]: more classes,
    /// methods and heap traffic, still small enough for the exhaustive
    /// oracle solver of `parcfl-check` to answer every query exactly.
    /// The differential fuzzer alternates between `tiny` and `small` so
    /// counterexamples are found at the smallest scale that exhibits them.
    pub fn small(seed: u64) -> Profile {
        Profile {
            name: "small".into(),
            seed,
            value_classes: 3,
            box_classes: 3,
            collections: 2,
            app_classes: 4,
            methods_per_class: 3,
            idioms_per_method: 5,
            idiom_weights: [2, 3, 3, 2, 1, 2, 4, 2, 1],
            subclass_percent: 30,
            budget: 75_000,
        }
    }

    /// A small default profile for tests.
    pub fn tiny(seed: u64) -> Profile {
        Profile {
            name: "tiny".into(),
            seed,
            value_classes: 2,
            box_classes: 2,
            collections: 1,
            app_classes: 2,
            methods_per_class: 2,
            idioms_per_method: 4,
            idiom_weights: [2, 3, 3, 2, 1, 2, 3, 2, 1],
            subclass_percent: 30,
            budget: 75_000,
        }
    }
}

/// Builds the 20-benchmark suite shaped after Table I.
///
/// Sizes are scaled: the `size` knob tracks each row's query count and the
/// `heap` knob its per-query cost (`#S`/`#Queries`), which in the paper
/// separates e.g. `_202_jess` (25.6k steps/query) from `_201_compress`
/// (3.2k steps/query). Heap-heavy profiles get more container/field idioms
/// — the traffic whose alias computations data sharing amortises.
pub fn table1_profiles() -> Vec<Profile> {
    // (name, app_classes, methods/class, idioms, heap-heavy, collections)
    let rows: [(&str, usize, usize, usize, bool, usize); 20] = [
        ("_200_check", 6, 3, 5, false, 2),
        ("_201_compress", 7, 3, 5, false, 2),
        ("_202_jess", 16, 5, 9, true, 5),
        ("_205_raytrace", 10, 4, 5, true, 3),
        ("_209_db", 7, 3, 5, true, 2),
        ("_213_javac", 20, 5, 9, true, 6),
        ("_222_mpegaudio", 13, 4, 7, true, 4),
        ("_227_mtrt", 10, 4, 5, true, 3),
        ("_228_jack", 13, 4, 6, false, 4),
        ("_999_checkit", 7, 3, 4, false, 2),
        ("avrora", 14, 5, 5, false, 4),
        ("batik", 18, 5, 7, true, 5),
        ("fop", 19, 5, 8, true, 6),
        ("h2", 15, 5, 5, false, 4),
        ("luindex", 12, 4, 5, false, 3),
        ("lusearch", 12, 4, 6, true, 3),
        ("pmd", 16, 5, 5, false, 4),
        ("sunflow", 12, 4, 5, true, 3),
        ("tomcat", 22, 6, 8, true, 7),
        ("xalan", 16, 5, 5, false, 4),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, &(name, app, mpc, idioms, heavy, colls))| Profile {
            name: name.to_string(),
            seed: 0x5EED_0000 + i as u64,
            value_classes: 3 + colls,
            box_classes: if heavy { 7 } else { 3 },
            collections: colls,
            app_classes: app,
            methods_per_class: mpc,
            idioms_per_method: idioms,
            idiom_weights: if heavy {
                // Container/field and shared-container idioms dominate:
                // long alias computations over widely shared structures.
                [1, 3, 3, 2, 1, 2, 5, 3, 1]
            } else {
                [3, 2, 2, 2, 1, 2, 2, 2, 0]
            },
            subclass_percent: 30,
            // Heavy benchmarks: the budget sits just below the cost of the
            // shared-structure query cluster, so that cluster exhausts it —
            // the regime the paper's B = 75,000 creates at its 40x scale
            // (its Table I shows hundreds of early terminations). τU scales
            // with B at the paper's ratio (10,000 : 75,000).
            budget: if heavy { 15_000 } else { 75_000 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_named_profiles() {
        let ps = table1_profiles();
        assert_eq!(ps.len(), 20);
        assert_eq!(ps[0].name, "_200_check");
        assert_eq!(ps[19].name, "xalan");
        // Names unique, seeds unique.
        let mut names: Vec<_> = ps.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 20);
        let mut seeds: Vec<_> = ps.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 20);
    }

    #[test]
    fn heavy_profiles_weight_heap_idioms() {
        let ps = table1_profiles();
        let jess = ps.iter().find(|p| p.name == "_202_jess").unwrap();
        let compress = ps.iter().find(|p| p.name == "_201_compress").unwrap();
        assert!(jess.idiom_weights[1] > compress.idiom_weights[1]);
        assert!(jess.app_classes > compress.app_classes);
    }
}
