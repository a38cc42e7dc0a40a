//! Node-local dataset storage.
//!
//! Every simulated node owns a [`DataStore`]: a map from dataset name (the
//! paper's HDFS paths such as `/user/sort_output` become plain names) to
//! the *fragments* of that dataset the node holds. A fragment carries an
//! ordinal so that globally collecting a dataset reproduces a deterministic
//! order — for job outputs the ordinal is the reducer id, so collecting a
//! distribute job's output yields the partitions in partition order.

use papar_record::batch::Dataset;
use std::collections::HashMap;
use std::sync::Arc;

use crate::{MrError, Result};

/// One stored fragment: a global ordinal plus its data.
///
/// Data is behind an `Arc` so handing fragments to map tasks never copies
/// records — the map phase reads shared immutable data, like mappers over
/// HDFS blocks.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Global position of this fragment within the dataset (scatter chunk
    /// index or reducer id).
    pub ordinal: u32,
    /// The records (shared, immutable).
    pub data: Arc<Dataset>,
}

/// The named datasets held by one node.
///
/// Besides the primary fragments a node owns, the store has a separate
/// *replica* area: copies of fragments whose primary lives on another node,
/// placed there by the cluster's replication policy. Replicas never feed
/// map tasks or collects — they exist purely so a crashed node's primaries
/// can be re-fetched instead of lost.
#[derive(Debug, Default)]
pub struct DataStore {
    data: HashMap<String, Vec<Fragment>>,
    replicas: HashMap<String, Vec<Fragment>>,
}

impl DataStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a fragment to a dataset (created on first use).
    pub fn put(&mut self, name: &str, ordinal: u32, data: Dataset) {
        self.put_arc(name, ordinal, Arc::new(data));
    }

    /// Like [`DataStore::put`] for data already behind an `Arc` (replica
    /// restores share the surviving copy's storage).
    pub fn put_arc(&mut self, name: &str, ordinal: u32, data: Arc<Dataset>) {
        self.data
            .entry(name.to_string())
            .or_default()
            .push(Fragment { ordinal, data });
    }

    /// Stash a replica of another node's fragment.
    pub fn put_replica(&mut self, name: &str, ordinal: u32, data: Arc<Dataset>) {
        self.replicas
            .entry(name.to_string())
            .or_default()
            .push(Fragment { ordinal, data });
    }

    /// Look up a replica by identity.
    pub fn replica(&self, name: &str, ordinal: u32) -> Option<Arc<Dataset>> {
        self.replicas
            .get(name)?
            .iter()
            .find(|f| f.ordinal == ordinal)
            .map(|f| Arc::clone(&f.data))
    }

    /// Look up a primary fragment by identity.
    pub fn primary(&self, name: &str, ordinal: u32) -> Option<Arc<Dataset>> {
        self.data
            .get(name)?
            .iter()
            .find(|f| f.ordinal == ordinal)
            .map(|f| Arc::clone(&f.data))
    }

    /// Identities `(name, ordinal)` of every primary fragment.
    pub fn fragment_ids(&self) -> Vec<(String, u32)> {
        let mut ids: Vec<(String, u32)> = self
            .data
            .iter()
            .flat_map(|(name, frags)| frags.iter().map(move |f| (name.clone(), f.ordinal)))
            .collect();
        ids.sort();
        ids
    }

    /// Identities of every replica held for other nodes.
    pub fn replica_ids(&self) -> Vec<(String, u32)> {
        let mut ids: Vec<(String, u32)> = self
            .replicas
            .iter()
            .flat_map(|(name, frags)| frags.iter().map(move |f| (name.clone(), f.ordinal)))
            .collect();
        ids.sort();
        ids
    }

    /// Number of replica fragments held.
    pub fn replica_count(&self) -> usize {
        self.replicas.values().map(Vec::len).sum()
    }

    /// Simulate a node crash: every primary fragment and every replica is
    /// lost at once.
    pub fn wipe(&mut self) {
        self.data.clear();
        self.replicas.clear();
    }

    /// The local fragments of a dataset, in ordinal order.
    pub fn get(&self, name: &str) -> Option<Vec<&Fragment>> {
        self.data.get(name).map(|frags| {
            let mut v: Vec<&Fragment> = frags.iter().collect();
            v.sort_by_key(|f| f.ordinal);
            v
        })
    }

    /// Like [`DataStore::get`] but with an error naming the dataset.
    pub fn require(&self, name: &str) -> Result<Vec<&Fragment>> {
        self.get(name)
            .ok_or_else(|| MrError::msg(format!("dataset '{name}' not found on this node")))
    }

    /// True when the node holds (possibly empty) fragments for `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.data.contains_key(name)
    }

    /// Remove a dataset — primary fragments and any replicas held for other
    /// nodes — returning the primaries (`None` when none existed here).
    pub fn remove(&mut self, name: &str) -> Option<Vec<Fragment>> {
        self.replicas.remove(name);
        self.data.remove(name)
    }

    /// Names of all stored datasets (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.data.keys().map(String::as_str)
    }

    /// Total records across the local fragments of `name`.
    pub fn record_count(&self, name: &str) -> usize {
        self.data
            .get(name)
            .map(|frags| frags.iter().map(|f| f.data.batch.record_count()).sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::{rec, Batch, Schema};
    use std::sync::Arc;

    fn ds(vals: &[i32]) -> Dataset {
        let schema = Arc::new(Schema::new(vec![("a", FieldType::Integer)]));
        Dataset::new(schema, Batch::Flat(vals.iter().map(|&v| rec![v]).collect()))
    }

    #[test]
    fn put_get_roundtrip_in_ordinal_order() {
        let mut store = DataStore::new();
        store.put("x", 2, ds(&[30]));
        store.put("x", 0, ds(&[10]));
        store.put("x", 1, ds(&[20]));
        let frags = store.get("x").unwrap();
        assert_eq!(
            frags.iter().map(|f| f.ordinal).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn missing_dataset_is_reported() {
        let store = DataStore::new();
        assert!(store.get("nope").is_none());
        let e = store.require("nope").unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn remove_and_contains() {
        let mut store = DataStore::new();
        store.put("x", 0, ds(&[1]));
        assert!(store.contains("x"));
        assert_eq!(store.remove("x").map(|f| f.len()), Some(1));
        assert!(!store.contains("x"));
        assert!(store.remove("x").is_none());
    }

    #[test]
    fn replicas_live_apart_from_primaries() {
        let mut store = DataStore::new();
        store.put("x", 0, ds(&[1, 2]));
        store.put_replica("x", 1, Arc::new(ds(&[3])));
        // Replicas never show up in reads, counts or names.
        assert_eq!(store.get("x").unwrap().len(), 1);
        assert_eq!(store.record_count("x"), 2);
        assert_eq!(store.replica_count(), 1);
        assert_eq!(store.replica("x", 1).unwrap().batch.record_count(), 1);
        assert!(store.replica("x", 0).is_none());
        assert_eq!(store.primary("x", 0).unwrap().batch.record_count(), 2);
        assert!(store.primary("x", 1).is_none());
        assert_eq!(store.fragment_ids(), vec![("x".to_string(), 0)]);
        assert_eq!(store.replica_ids(), vec![("x".to_string(), 1)]);
    }

    #[test]
    fn wipe_loses_everything() {
        let mut store = DataStore::new();
        store.put("x", 0, ds(&[1]));
        store.put_replica("y", 3, Arc::new(ds(&[2])));
        store.wipe();
        assert!(!store.contains("x"));
        assert_eq!(store.replica_count(), 0);
        assert!(store.fragment_ids().is_empty());
    }

    #[test]
    fn record_count_sums_fragments() {
        let mut store = DataStore::new();
        store.put("x", 0, ds(&[1, 2]));
        store.put("x", 1, ds(&[3]));
        assert_eq!(store.record_count("x"), 3);
        assert_eq!(store.record_count("y"), 0);
    }
}
