//! String interning for simulation hot paths.
//!
//! Every per-request hot path in the deployment used to key its maps on
//! heap-allocated `String`s (model names, endpoint names). The [`Interner`]
//! maps each distinct name to a dense [`SymbolId`] (`u32`) exactly once — in
//! deterministic first-intern order, so two runs that intern the same names in
//! the same order assign the same ids — and the rest of the system carries the
//! id. Strings reappear only at the API boundary (request parsing, reports,
//! telemetry output), resolved through [`Interner::resolve`].
//!
//! The module also provides [`IdHashBuilder`], a no-op hasher for maps keyed
//! by ids that are already well-distributed (task ids, request ids): SipHash
//! on a `u64` costs more than the lookup it guards.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A dense interned-name identifier. Ids are assigned sequentially from 0 in
/// first-intern order, so they double as `Vec` indices for per-name state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SymbolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sym-{}", self.0)
    }
}

/// A deterministic string interner: name → dense [`SymbolId`].
///
/// Interning the same sequence of names always yields the same ids, which is
/// what keeps id-keyed simulation state bit-identical with its string-keyed
/// reference behaviour.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, SymbolId>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, returning its id. Re-interning an existing name is a
    /// lookup, not a new id.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = SymbolId(self.names.len() as u32);
        let owned: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&owned));
        self.index.insert(owned, id);
        id
    }

    /// Look up a name without interning it.
    #[inline]
    pub fn get(&self, name: &str) -> Option<SymbolId> {
        self.index.get(name).copied()
    }

    /// Resolve an id back to its name.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    #[inline]
    pub fn resolve(&self, id: SymbolId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Standard 64-bit FNV-1a. The workspace's stable string hash: independent
/// of the std hasher (so values never change across Rust releases), cheap,
/// and shared by the vector embedder's feature hashing and the workload
/// compiler's per-tenant seed derivation.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A pass-through hasher for keys that are already uniformly distributed
/// (dense ids, sequence numbers). Writing a single integer sets the hash to
/// that integer; SipHash's mixing adds nothing but latency on these keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys: FNV-1a, still allocation-free.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = n as u64;
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = n as u64;
    }
}

/// `BuildHasher` for [`IdHasher`]; use as the third type parameter of
/// `HashMap`/`HashSet` keyed by dense integer ids.
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_deterministic_and_dense() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        for name in ["sophia-endpoint", "polaris-endpoint", "sophia-endpoint"] {
            assert_eq!(a.intern(name), b.intern(name));
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.intern("sophia-endpoint"), SymbolId(0));
        assert_eq!(a.intern("polaris-endpoint"), SymbolId(1));
        assert_eq!(a.resolve(SymbolId(0)), "sophia-endpoint");
        assert_eq!(a.get("polaris-endpoint"), Some(SymbolId(1)));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn id_hash_map_behaves_like_a_map() {
        let mut m: HashMap<u64, &str, IdHashBuilder> = HashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&"x"));
        m.remove(&500);
        assert!(!m.contains_key(&500));
    }
}
