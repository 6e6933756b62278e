//! Groups: named trees of datasets, sub-groups and attributes.

use crate::dataset::{DType, Dataset};
use crate::{Result, StoreError};
use std::collections::BTreeMap;

/// Attribute value attached to a group.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    Int(i64),
    Float(f64),
    Str(String),
}

/// A child of a group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Group(Group),
    Dataset(Dataset),
}

/// A named collection of datasets, sub-groups and attributes — the unit the
/// HPAC-ML runtime creates per annotated region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    attrs: BTreeMap<String, Attr>,
    children: BTreeMap<String, Node>,
}

impl Group {
    pub fn new() -> Self {
        Group::default()
    }

    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Attr)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn set_attr(&mut self, name: impl Into<String>, value: Attr) {
        self.attrs.insert(name.into(), value);
    }

    pub fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.get(name)
    }

    /// Child names in sorted order.
    pub fn child_names(&self) -> impl Iterator<Item = &str> {
        self.children.keys().map(String::as_str)
    }

    /// Get or create a sub-group.
    pub fn group_mut(&mut self, name: &str) -> &mut Group {
        let node = self
            .children
            .entry(name.to_string())
            .or_insert_with(|| Node::Group(Group::new()));
        match node {
            Node::Group(g) => g,
            Node::Dataset(_) => {
                panic!("h5lite: `{name}` already exists as a dataset, not a group")
            }
        }
    }

    /// Look up an existing sub-group.
    pub fn group(&self, name: &str) -> Result<&Group> {
        match self.children.get(name) {
            Some(Node::Group(g)) => Ok(g),
            Some(Node::Dataset(_)) => Err(StoreError::NotFound(format!(
                "`{name}` is a dataset, not a group"
            ))),
            None => Err(StoreError::NotFound(format!("group `{name}`"))),
        }
    }

    /// Get or create a dataset with the given dtype and per-entry shape.
    /// Existing datasets must match the requested dtype.
    pub fn dataset_mut(
        &mut self,
        name: &str,
        dtype: DType,
        inner_shape: &[usize],
    ) -> Result<&mut Dataset> {
        let node = self
            .children
            .entry(name.to_string())
            .or_insert_with(|| Node::Dataset(Dataset::new(dtype, inner_shape.to_vec())));
        match node {
            Node::Dataset(d) => {
                if d.dtype() != dtype {
                    return Err(StoreError::TypeMismatch {
                        expected: dtype,
                        actual: d.dtype(),
                    });
                }
                if d.inner_shape() != inner_shape {
                    return Err(StoreError::ShapeMismatch(format!(
                        "dataset `{name}` has entry shape {:?}, requested {:?}",
                        d.inner_shape(),
                        inner_shape
                    )));
                }
                Ok(d)
            }
            Node::Group(_) => Err(StoreError::NotFound(format!(
                "`{name}` is a group, not a dataset"
            ))),
        }
    }

    /// Look up an existing dataset.
    pub fn dataset(&self, name: &str) -> Result<&Dataset> {
        match self.children.get(name) {
            Some(Node::Dataset(d)) => Ok(d),
            Some(Node::Group(_)) => Err(StoreError::NotFound(format!(
                "`{name}` is a group, not a dataset"
            ))),
            None => Err(StoreError::NotFound(format!("dataset `{name}`"))),
        }
    }

    /// Total payload bytes of every dataset beneath this group — the
    /// "Collected Data Size" column of the paper's Table III.
    pub fn size_bytes(&self) -> usize {
        self.children
            .values()
            .map(|n| match n {
                Node::Group(g) => g.size_bytes(),
                Node::Dataset(d) => d.size_bytes(),
            })
            .sum()
    }

    pub(crate) fn children(&self) -> &BTreeMap<String, Node> {
        &self.children
    }

    pub(crate) fn children_mut(&mut self) -> &mut BTreeMap<String, Node> {
        &mut self.children
    }

    pub(crate) fn attrs_map(&self) -> &BTreeMap<String, Attr> {
        &self.attrs
    }

    pub(crate) fn insert_child(&mut self, name: String, node: Node) {
        self.children.insert(name, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_tree_and_paths() {
        let mut root = Group::new();
        root.group_mut("region_a").group_mut("nested");
        root.group_mut("region_b");
        assert!(root.group("region_a").is_ok());
        let region_a = root.group("region_a").unwrap();
        assert!(region_a.group("nested").is_ok());
        assert!(region_a.group("missing").is_err());
        assert_eq!(
            root.child_names().collect::<Vec<_>>(),
            vec!["region_a", "region_b"]
        );
    }

    #[test]
    fn dataset_creation_and_type_guard() {
        let mut root = Group::new();
        root.dataset_mut("inputs", DType::F32, &[4])
            .unwrap()
            .append_f32(&[0.0; 8])
            .unwrap();
        assert_eq!(root.dataset("inputs").unwrap().rows(), 2);
        assert!(root.dataset_mut("inputs", DType::F64, &[4]).is_err());
        assert!(root.dataset_mut("inputs", DType::F32, &[5]).is_err());
        assert!(root.dataset("nope").is_err());
    }

    #[test]
    fn attrs_roundtrip() {
        let mut g = Group::new();
        g.set_attr("benchmark", Attr::Str("minibude".into()));
        g.set_attr("invocations", Attr::Int(20));
        g.set_attr("rmse", Attr::Float(0.5));
        assert_eq!(g.attr("benchmark"), Some(&Attr::Str("minibude".into())));
        assert_eq!(g.attrs().count(), 3);
    }

    #[test]
    fn size_bytes_sums_tree() {
        let mut root = Group::new();
        root.dataset_mut("a", DType::F32, &[2])
            .unwrap()
            .append_f32(&[0.0; 4])
            .unwrap();
        root.group_mut("g")
            .dataset_mut("b", DType::F64, &[])
            .unwrap()
            .append_f64(&[1.0])
            .unwrap();
        assert_eq!(root.size_bytes(), 16 + 8);
    }

    #[test]
    fn group_dataset_name_collision() {
        let mut root = Group::new();
        root.group_mut("x");
        assert!(root.dataset_mut("x", DType::F32, &[1]).is_err());
        assert!(root.dataset("x").is_err());
        root.dataset_mut("d", DType::F32, &[1]).unwrap();
        assert!(root.group("d").is_err());
    }
}
