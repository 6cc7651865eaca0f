//! Property-based tests over the core invariants:
//!
//! 1. the incremental engine equals the oracle after arbitrary update
//!    sequences (all algorithms);
//! 2. updates classified *safe* never change any result value;
//! 3. duplicate-edge bookkeeping in the store matches a multiset model;
//! 4. insert(e) then delete(e) around arbitrary noise leaves results
//!    where the noise alone would have;
//! 5. the same update stream driven through the engine over different
//!    `DynamicGraph` backends (IA_Hash, IO_Hash, OOC_MMAP) yields identical
//!    algorithm values *and* identical store contents.

use proptest::prelude::*;
use risgraph::algorithms::{reference, Bfs, Sssp, Sswp, Wcc};
use risgraph::prelude::*;
use risgraph::storage::{AnyStore, BackendKind, StoreConfig};
use risgraph_algorithms::Monotonic;
use risgraph_testkit::{oracle, resolve_step, store_fingerprint, Step};

const N: u64 = 24;

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..N, 0..N, 1..5u64).prop_map(|(s, d, w)| Step::Ins(s, d, w)),
        (0..10_000usize).prop_map(Step::Del),
    ]
}

fn apply_steps<A: Monotonic<Value = u64> + Copy>(
    alg: A,
    initial: &[(u64, u64, u64)],
    steps: &[Step],
) -> (Engine, Vec<(u64, u64, u64)>, u64) {
    let engine: Engine = Engine::with_algorithm(alg, N as usize);
    engine.load_edges(initial);
    let mut live = initial.to_vec();
    let mut safe_changed = 0u64;
    for step in steps {
        let Some(u) = resolve_step(&live, *step) else {
            continue;
        };
        let safety = engine.classify(&u);
        let before = if safety == Safety::Safe {
            Some(engine.values_snapshot(0, N as usize))
        } else {
            None
        };
        let (_, _changes) = engine.apply(&u).unwrap();
        if let Some(before) = before {
            if before != engine.values_snapshot(0, N as usize) {
                safe_changed += 1;
            }
        }
        oracle::apply_update(&mut live, &u);
    }
    (engine, live, safe_changed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_bfs(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 0..40),
        steps in proptest::collection::vec(step_strategy(), 0..60),
    ) {
        let alg = Bfs::new(0);
        let (engine, live, safe_changed) = apply_steps(alg, &initial, &steps);
        prop_assert_eq!(safe_changed, 0, "safe updates changed results");
        let want = reference::compute(&alg, N as usize, &live);
        for v in 0..N {
            prop_assert_eq!(engine.value(0, v), want[v as usize], "vertex {}", v);
        }
    }

    #[test]
    fn engine_matches_oracle_sssp(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 0..40),
        steps in proptest::collection::vec(step_strategy(), 0..60),
    ) {
        let alg = Sssp::new(1);
        let (engine, live, safe_changed) = apply_steps(alg, &initial, &steps);
        prop_assert_eq!(safe_changed, 0);
        let want = reference::compute(&alg, N as usize, &live);
        for v in 0..N {
            prop_assert_eq!(engine.value(0, v), want[v as usize], "vertex {}", v);
        }
    }

    #[test]
    fn engine_matches_oracle_sswp(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 0..40),
        steps in proptest::collection::vec(step_strategy(), 0..60),
    ) {
        let alg = Sswp::new(0);
        let (engine, live, safe_changed) = apply_steps(alg, &initial, &steps);
        prop_assert_eq!(safe_changed, 0);
        let want = reference::compute(&alg, N as usize, &live);
        for v in 0..N {
            prop_assert_eq!(engine.value(0, v), want[v as usize], "vertex {}", v);
        }
    }

    #[test]
    fn engine_matches_oracle_wcc(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 0..40),
        steps in proptest::collection::vec(step_strategy(), 0..60),
    ) {
        let alg = Wcc::new();
        let (engine, live, safe_changed) = apply_steps(alg, &initial, &steps);
        prop_assert_eq!(safe_changed, 0);
        let want = reference::compute(&alg, N as usize, &live);
        for v in 0..N {
            prop_assert_eq!(engine.value(0, v), want[v as usize], "vertex {}", v);
        }
    }

    #[test]
    fn store_multiset_semantics(
        ops in proptest::collection::vec((0..8u64, 0..8u64, 0..3u64, proptest::bool::ANY), 0..200),
    ) {
        let store: DefaultStore = GraphStore::with_capacity(8);
        let mut model: std::collections::HashMap<(u64, u64, u64), u32> =
            std::collections::HashMap::new();
        for (s, d, w, is_insert) in ops {
            let e = Edge::new(s, d, w);
            if is_insert {
                store.insert_edge(e).unwrap();
                *model.entry((s, d, w)).or_insert(0) += 1;
            } else {
                let had = model.get(&(s, d, w)).copied().unwrap_or(0);
                let result = store.delete_edge(e);
                if had > 0 {
                    prop_assert!(result.is_ok());
                    if had == 1 {
                        model.remove(&(s, d, w));
                    } else {
                        model.insert((s, d, w), had - 1);
                    }
                } else {
                    prop_assert!(result.is_err());
                }
            }
        }
        for (&(s, d, w), &count) in &model {
            prop_assert_eq!(store.edge_count(Edge::new(s, d, w)), count);
        }
        let total: u32 = model.values().sum();
        prop_assert_eq!(store.num_edges(), total as u64);
    }

    /// Invariant 5: backend-independence. One engine API, four storage
    /// layouts, byte-identical results — the multi-backend claim of
    /// §6.3 as a testable property.
    #[test]
    fn cross_backend_differential(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 0..30),
        steps in proptest::collection::vec(step_strategy(), 0..50),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let mmap_path = std::env::temp_dir().join(format!(
            "risgraph-xbackend-mmap-{}-{case}.blocks",
            std::process::id()
        ));

        let kinds = [
            BackendKind::IaHash,
            BackendKind::IoHash,
            BackendKind::OocMmap {
                path: Some(mmap_path.clone()),
            },
        ];
        let alg = Sssp::new(0);
        let engines: Vec<Engine<AnyStore>> = kinds
            .iter()
            .map(|kind| {
                let store =
                    AnyStore::open(kind, N as usize, StoreConfig::default()).unwrap();
                Engine::from_store(
                    store,
                    vec![std::sync::Arc::new(alg) as DynAlgorithm],
                    Default::default(),
                )
            })
            .collect();
        for e in &engines {
            e.load_edges(&initial);
        }

        let mut live = initial.clone();
        for step in &steps {
            let Some(u) = resolve_step(&live, *step) else {
                continue;
            };
            for e in &engines {
                e.apply(&u).unwrap();
            }
            oracle::apply_update(&mut live, &u);
        }

        // Identical algorithm results on every backend…
        let reference = engines[0].values_snapshot(0, N as usize);
        for (engine, kind) in engines.iter().zip(&kinds).skip(1) {
            prop_assert_eq!(
                &engine.values_snapshot(0, N as usize),
                &reference,
                "values diverged on {}",
                kind.label()
            );
        }
        // …and identical store contents (count-annotated adjacency).
        let want = store_fingerprint(&engines[0], N);
        for (engine, kind) in engines.iter().zip(&kinds).skip(1) {
            prop_assert_eq!(
                &store_fingerprint(engine, N),
                &want,
                "contents diverged on {}",
                kind.label()
            );
        }
        drop(engines);
        risgraph_testkit::remove_ooc_files(&mmap_path);
    }

    #[test]
    fn insert_then_delete_is_identity_on_results(
        initial in proptest::collection::vec((0..N, 0..N, 1..5u64), 5..40),
        extra in (0..N, 0..N, 1..5u64),
    ) {
        let alg = Sssp::new(0);
        let engine: Engine = Engine::with_algorithm(alg, N as usize);
        engine.load_edges(&initial);
        let before = engine.values_snapshot(0, N as usize);
        let e = Edge::new(extra.0, extra.1, extra.2);
        engine.apply(&Update::InsEdge(e)).unwrap();
        engine.apply(&Update::DelEdge(e)).unwrap();
        let after = engine.values_snapshot(0, N as usize);
        prop_assert_eq!(before, after);
    }
}
