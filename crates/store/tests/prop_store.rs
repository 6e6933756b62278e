//! Property-based tests for h5lite: arbitrary trees of groups, datasets and
//! attributes must roundtrip through the binary codec bit-exactly.

use hpacml_store::{Attr, DType, Group, H5File};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum NodePlan {
    DatasetF32 { inner: Vec<usize>, rows: usize },
    DatasetF64 { rows: usize },
    DatasetI64 { rows: usize },
}

fn node_plan() -> impl Strategy<Value = NodePlan> {
    prop_oneof![
        (proptest::collection::vec(1usize..4, 0..3), 0usize..5)
            .prop_map(|(inner, rows)| NodePlan::DatasetF32 { inner, rows }),
        (0usize..5).prop_map(|rows| NodePlan::DatasetF64 { rows }),
        (0usize..5).prop_map(|rows| NodePlan::DatasetI64 { rows }),
    ]
}

fn attr() -> impl Strategy<Value = Attr> {
    prop_oneof![
        any::<i64>().prop_map(Attr::Int),
        (-1e12f64..1e12).prop_map(Attr::Float),
        "[a-z0-9 _/.-]{0,24}".prop_map(Attr::Str),
    ]
}

fn build_group(plans: &[(String, NodePlan)], attrs: &[(String, Attr)]) -> Group {
    let mut g = Group::new();
    for (name, a) in attrs {
        g.set_attr(name.clone(), a.clone());
    }
    for (idx, (name, plan)) in plans.iter().enumerate() {
        // Spread children across a couple of nested groups.
        let target = if idx % 3 == 0 {
            g.group_mut("nested")
        } else {
            &mut g
        };
        match plan {
            NodePlan::DatasetF32 { inner, rows } => {
                let d = target.dataset_mut(name, DType::F32, inner).unwrap();
                let entry: usize = inner.iter().product::<usize>().max(1);
                let payload: Vec<f32> = (0..rows * entry).map(|i| i as f32 * 0.25 - 3.0).collect();
                d.append_f32(&payload).unwrap();
            }
            NodePlan::DatasetF64 { rows } => {
                let d = target.dataset_mut(name, DType::F64, &[]).unwrap();
                let payload: Vec<f64> = (0..*rows).map(|i| i as f64 * 1.5).collect();
                d.append_f64(&payload).unwrap();
            }
            NodePlan::DatasetI64 { rows } => {
                let d = target.dataset_mut(name, DType::I64, &[]).unwrap();
                let payload: Vec<i64> = (0..*rows).map(|i| i as i64 - 2).collect();
                d.append_i64(&payload).unwrap();
            }
        }
    }
    g
}

/// Append `extra[i]` further rows to the `i`-th planned dataset, where
/// `build_group` put it.
fn extend_group(g: &mut Group, plans: &[(String, NodePlan)], extra: &[usize]) {
    for (idx, ((name, plan), &n)) in plans.iter().zip(extra).enumerate() {
        let target = if idx % 3 == 0 {
            g.group_mut("nested")
        } else {
            &mut *g
        };
        match plan {
            NodePlan::DatasetF32 { inner, .. } => {
                let entry: usize = inner.iter().product::<usize>().max(1);
                let payload: Vec<f32> = (0..n * entry).map(|i| 100.0 - i as f32).collect();
                let d = target.dataset_mut(name, DType::F32, inner).unwrap();
                d.append_f32(&payload).unwrap();
            }
            NodePlan::DatasetF64 { .. } => {
                let d = target.dataset_mut(name, DType::F64, &[]).unwrap();
                d.append_f64(&vec![-0.5; n]).unwrap();
            }
            NodePlan::DatasetI64 { .. } => {
                let d = target.dataset_mut(name, DType::I64, &[]).unwrap();
                d.append_i64(&vec![9; n]).unwrap();
            }
        }
    }
}

/// Drop colliding names (BTreeMap children can't collide across kinds).
fn dedup(plans: Vec<(String, NodePlan)>) -> Vec<(String, NodePlan)> {
    let mut seen = std::collections::BTreeSet::new();
    plans
        .into_iter()
        .filter(|(n, _)| n != "nested" && seen.insert(n.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A second flush through the handle that wrote the first — or through
    /// a second handle that reopened the file — lands exactly the tree it
    /// was given, whether that tree extends the first (new rows, changed
    /// attributes: an append, same inode) or replaces it wholesale (a
    /// rewrite).
    #[test]
    fn two_generations_roundtrip(
        first in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", node_plan()), 0..6),
        second in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", node_plan()), 0..6),
        attrs in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", attr()), 0..4),
        extra in proptest::collection::vec(0usize..4, 6),
        (replace, reopen) in (any::<bool>(), any::<bool>()),
        file_tag in 0u32..1_000_000,
    ) {
        use std::os::unix::fs::MetadataExt;
        let (first, second) = (dedup(first), dedup(second));
        let dir = std::env::temp_dir().join("hpacml-store-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g{file_tag}.h5lite"));
        let mut f = H5File::create(&path);
        *f.root_mut() = build_group(&first, &attrs[..attrs.len() / 2]);
        f.flush().unwrap();
        if reopen {
            drop(f);
            f = H5File::open(&path).unwrap();
        }
        let inode = std::fs::metadata(&path).unwrap().ino();
        if replace {
            // The replacement reuses the first tree's paths with other
            // plans and other values, so some dataset is as long as the one
            // on disk without being its extension.
            let names = first.iter().map(|(n, _)| n.clone());
            let reused = names.zip(second.iter().map(|(_, p)| p.clone()));
            let plans = dedup(reused.chain(second.iter().skip(first.len()).cloned()).collect());
            let mut other = build_group(&plans, &attrs);
            extend_group(&mut other, &plans, &extra);
            *f.root_mut() = other;
        } else {
            extend_group(f.root_mut(), &first, &extra);
            for (name, a) in &attrs {
                f.root_mut().set_attr(name.clone(), a.clone());
            }
        }
        let expected = f.root().clone();
        f.flush().unwrap();
        if !replace {
            prop_assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
        }
        drop(f);
        let loaded = H5File::open(&path).unwrap();
        prop_assert!(loaded.recovery().is_none());
        prop_assert_eq!(loaded.root(), &expected);
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_trees_roundtrip(
        plans in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", node_plan()), 0..6),
        attrs in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", attr()), 0..4),
        file_tag in 0u32..1_000_000,
    ) {
        // Dedup names (BTreeMap children can't collide across kinds).
        let mut seen = std::collections::BTreeSet::new();
        let plans: Vec<_> = plans
            .into_iter()
            .filter(|(n, _)| n != "nested" && seen.insert(n.clone()))
            .collect();
        let tree = build_group(&plans, &attrs);

        let dir = std::env::temp_dir().join("hpacml-store-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{file_tag}.h5lite"));
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = tree.clone();
            f.flush().unwrap();
        }
        let loaded = H5File::open(&path).unwrap();
        prop_assert_eq!(loaded.root(), &tree);
        prop_assert_eq!(loaded.size_bytes(), tree.size_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_accumulate_rows(batches in proptest::collection::vec(0usize..6, 1..6)) {
        let mut g = Group::new();
        let d = g.dataset_mut("acc", DType::F32, &[3]).unwrap();
        let mut expected = 0usize;
        for b in &batches {
            d.append_f32(&vec![1.0; b * 3]).unwrap();
            expected += b;
            prop_assert_eq!(d.rows(), expected);
        }
        prop_assert_eq!(d.read_f32().unwrap().len(), expected * 3);
    }
}
