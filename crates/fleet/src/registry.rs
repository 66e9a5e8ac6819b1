//! Stream-id → shard routing and control-plane bookkeeping.
//!
//! Routing is pure hashing — the data plane never takes a lock to find a
//! stream's shard. The registry's id table is control-plane only
//! (registration, queries, stats enumeration) and sits behind a mutex
//! that ingest never touches: callers that want a lock-free hot path keep
//! the [`StreamKey`] handed back by registration and ingest through it.

use sofia_tensor::Shape;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A registered stream's routing key: the interned id, its shard and
/// the slice shape its model steps on.
///
/// Cloning is a reference-count bump; ingesting through a key involves no
/// registry lookup and no lock.
#[derive(Debug, Clone)]
pub struct StreamKey {
    id: Arc<str>,
    shard: usize,
    shape: Option<Arc<Shape>>,
}

impl StreamKey {
    /// The stream id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The owning shard.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The slice shape the stream's model steps on, as it reported it at
    /// registration (`None` for a model that reports none, whose slices
    /// are not checked).
    pub(crate) fn slice_shape(&self) -> Option<&Shape> {
        self.shape.as_deref()
    }

    pub(crate) fn interned(&self) -> Arc<str> {
        Arc::clone(&self.id)
    }
}

/// Deterministic stream-id hash → shard index.
///
/// Uses FNV-1a rather than the std `DefaultHasher` so the mapping is
/// stable across processes (recovery re-routes streams by id; a
/// process-randomized hash would still work, but a stable one makes shard
/// assignment reproducible and debuggable).
pub fn shard_of(id: &str, shards: usize) -> usize {
    assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche so short ids spread over small shard counts.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % shards as u64) as usize
}

/// Control-plane table of registered streams.
#[derive(Debug)]
pub struct Registry {
    shards: usize,
    table: Mutex<HashMap<Arc<str>, StreamKey>>,
}

impl Registry {
    /// An empty registry routing over `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Registry {
            shards,
            table: Mutex::new(HashMap::new()),
        }
    }

    /// Interns `id`, assigns its shard, and records it with the slice
    /// shape its model steps on. Errors if already present.
    pub fn insert(&self, id: &str, shape: Option<Shape>) -> Result<StreamKey, crate::FleetError> {
        let key = StreamKey {
            id: Arc::from(id),
            shard: shard_of(id, self.shards),
            shape: shape.map(Arc::new),
        };
        let mut table = self.table.lock().expect("registry poisoned");
        if table.contains_key(id) {
            return Err(crate::FleetError::DuplicateStream(id.to_string()));
        }
        table.insert(key.interned(), key.clone());
        Ok(key)
    }

    /// Looks up a registered stream by id.
    pub fn get(&self, id: &str) -> Option<StreamKey> {
        let table = self.table.lock().expect("registry poisoned");
        table.get(id).cloned()
    }

    /// Removes a stream id, freeing it for re-registration (used when a
    /// shard quarantines a panicked model). Returns whether it was
    /// present.
    pub fn remove(&self, id: &str) -> bool {
        let mut table = self.table.lock().expect("registry poisoned");
        table.remove(id).is_some()
    }

    /// All registered stream ids, sorted for deterministic iteration.
    pub fn ids(&self) -> Vec<String> {
        let table = self.table.lock().expect("registry poisoned");
        let mut ids: Vec<String> = table.keys().map(|k| k.to_string()).collect();
        ids.sort();
        ids
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.table.lock().expect("registry poisoned").len()
    }

    /// Whether no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic() {
        for shards in 1..8 {
            for id in ["a", "stream-042", "sensor/room-3", ""] {
                assert_eq!(shard_of(id, shards), shard_of(id, shards));
                assert!(shard_of(id, shards) < shards);
            }
        }
    }

    #[test]
    fn routing_spreads_over_shards() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for i in 0..400 {
            counts[shard_of(&format!("stream-{i:03}"), shards)] += 1;
        }
        // Perfectly uniform would be 100 each; require a loose balance.
        for (s, &c) in counts.iter().enumerate() {
            assert!((50..=150).contains(&c), "shard {s} got {c} of 400");
        }
    }

    #[test]
    fn insert_and_lookup() {
        let r = Registry::new(3);
        let key = r.insert("s1", Some(Shape::new(&[3, 2]))).unwrap();
        assert_eq!(key.id(), "s1");
        assert_eq!(key.shard(), shard_of("s1", 3));
        let again = r.get("s1").unwrap();
        assert_eq!(again.shard(), key.shard());
        assert_eq!(again.slice_shape(), Some(&Shape::new(&[3, 2])));
        assert!(r.get("nope").is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn duplicate_rejected() {
        let r = Registry::new(2);
        r.insert("s1", None).unwrap();
        assert!(matches!(
            r.insert("s1", None),
            Err(crate::FleetError::DuplicateStream(_))
        ));
    }

    #[test]
    fn ids_sorted() {
        let r = Registry::new(2);
        for id in ["b", "a", "c"] {
            r.insert(id, None).unwrap();
        }
        assert_eq!(r.ids(), vec!["a", "b", "c"]);
    }
}
