//! Gateway middleware: token validation with an introspection cache, and
//! response caching (§3.1.1, §3.1.2, Optimization 2).

use crate::api::GatewayError;
use first_auth::{AuthService, IntrospectionResult, Scope, TokenString};
use first_desim::{IdHashBuilder, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Outcome of authenticating one request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AuthOutcome {
    /// The introspected identity, shared with the cache entry: a cache hit
    /// is one lookup and a reference-count bump, not a copy.
    pub(crate) identity: Arc<IntrospectionResult>,
    /// Latency the auth step added to this request.
    pub(crate) added_latency: SimDuration,
    /// Whether the introspection cache satisfied the request.
    pub(crate) cache_hit: bool,
}

/// Token-validation middleware with an introspection cache.
///
/// Before Optimization 2 every request introspected the token at Globus Auth
/// (~1 s); the cache keeps recently validated tokens so repeated requests pay
/// nothing.
#[derive(Debug)]
pub(crate) struct AuthMiddleware {
    /// Whether the cache is enabled (ablation knob).
    pub(crate) cache_enabled: bool,
    /// Cache entry time-to-live.
    pub(crate) cache_ttl: SimDuration,
    cache: HashMap<String, (SimTime, Arc<IntrospectionResult>)>,
}

impl AuthMiddleware {
    /// Middleware with the cache enabled (production configuration).
    pub(crate) fn new() -> Self {
        AuthMiddleware {
            cache_enabled: true,
            cache_ttl: SimDuration::from_mins(10),
            cache: HashMap::new(),
        }
    }

    /// Middleware with the cache disabled (pre-optimization configuration).
    pub(crate) fn without_cache() -> Self {
        AuthMiddleware {
            cache_enabled: false,
            ..Self::new()
        }
    }

    /// Validate a bearer token, consulting the cache first.
    pub(crate) fn authenticate(
        &mut self,
        auth: &mut AuthService,
        token: &TokenString,
        now: SimTime,
    ) -> Result<AuthOutcome, GatewayError> {
        if self.cache_enabled {
            if let Some((cached_at, identity)) = self.cache.get(&token.0) {
                let fresh = now.saturating_since(*cached_at) < self.cache_ttl;
                let unexpired = now < identity.expires_at;
                if fresh && unexpired {
                    return Ok(AuthOutcome {
                        identity: Arc::clone(identity),
                        added_latency: SimDuration::ZERO,
                        cache_hit: true,
                    });
                }
            }
        }
        let (result, latency) = auth.introspect(token, now);
        match result {
            Ok(identity) => {
                if !identity.scopes.contains(&Scope::InferenceApi)
                    && !identity.scopes.contains(&Scope::Admin)
                {
                    return Err(GatewayError::Forbidden(
                        "token lacks the inference scope".into(),
                    ));
                }
                let identity = Arc::new(identity);
                if self.cache_enabled {
                    self.cache
                        .insert(token.0.clone(), (now, Arc::clone(&identity)));
                }
                Ok(AuthOutcome {
                    identity,
                    added_latency: latency,
                    cache_hit: false,
                })
            }
            Err(e) => Err(GatewayError::Unauthorized(e.to_string())),
        }
    }
}

impl Default for AuthMiddleware {
    fn default() -> Self {
        Self::new()
    }
}

/// A cached gateway response.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResponse {
    /// The response text.
    pub text: String,
    /// Completion tokens of the cached generation.
    pub completion_tokens: u32,
}

const KEY_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One rotate-xor-multiply step of the response-cache key.
#[inline]
fn key_step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Fold `bytes` into `h` eight at a time: the zero-padded tail is one more
/// word, and the length closes the field.
fn key_fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = key_step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    h = key_step(h, u64::from_le_bytes(tail));
    key_step(h, bytes.len() as u64)
}

/// [`ResponseCache::key`] over a prompt written in pieces: the key of the
/// pieces' concatenation, computed without ever holding that text.
#[derive(Debug, Clone)]
pub(crate) struct PromptKeyHasher {
    h: u64,
    /// Bytes written since the last full 8-byte word.
    tail: [u8; 8],
    tail_len: usize,
    len: usize,
}

impl PromptKeyHasher {
    /// Start the key of a prompt for `model`.
    pub(crate) fn new(model: &str) -> Self {
        PromptKeyHasher {
            h: key_fold(KEY_SEED, model.as_bytes()),
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }

    /// Append `bytes` to the prompt.
    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.h = key_step(self.h, u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.h = key_step(
                self.h,
                u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
            );
        }
        let rem = chunks.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    /// The key of the prompt written so far, for a request of `max_tokens`.
    pub(crate) fn finish(&self, max_tokens: u32) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let h = key_step(self.h, u64::from_le_bytes(tail));
        key_step(key_step(h, self.len as u64), u64::from(max_tokens))
    }
}

/// Response cache keyed by (model, prompt) for idempotent repeated requests.
///
/// Eviction keeps the entry set identical to a scan-the-map-for-the-oldest
/// implementation: a full cache evicts the live entry with the smallest
/// `(inserted_at, key)`. The victim comes from the front of `by_age`, a
/// deque of `(time, key)` pairs kept sorted, so the full-cache `put` —
/// every delivery once a deployment has served `capacity` distinct
/// prompts — costs a `pop_front` and a short insert instead of an
/// O(capacity) scan of the map.
///
/// The insert scans from the back and relies on `put` times arriving
/// nearly in order: the gateway puts at each delivery's instant, and one
/// delivery batch is collected in endpoint order rather than time order,
/// so a pair may belong a few places before the back but not far.
/// Replaced entries leave stale pairs behind; they are discarded at the
/// front by checking the map's current insertion time, so the surviving
/// front is exactly the oldest live entry. Ties on the insertion time
/// break deterministically by key, where the scan inherited `HashMap`
/// iteration order.
#[derive(Debug)]
pub struct ResponseCache {
    /// Entry time-to-live.
    pub(crate) ttl: SimDuration,
    /// Maximum entries retained.
    pub(crate) capacity: usize,
    /// Keys are already-mixed 64-bit hashes, so the map skips SipHash and
    /// uses the identity hasher (order is never observed; eviction goes
    /// through `by_age`).
    entries: HashMap<u64, (SimTime, CachedResponse), IdHashBuilder>,
    /// Eviction index: `(inserted_at, key)` pairs in ascending order; may
    /// hold stale pairs for replaced entries (skipped at the front, dropped
    /// when the index outgrows the map).
    by_age: VecDeque<(SimTime, u64)>,
}

impl ResponseCache {
    /// Cache with the given TTL and capacity.
    pub fn new(ttl: SimDuration, capacity: usize) -> Self {
        ResponseCache {
            ttl,
            capacity,
            entries: HashMap::default(),
            by_age: VecDeque::new(),
        }
    }

    /// Hash key for a (model, prompt, max_tokens) triple.
    ///
    /// Runs once per request over the full prompt, so it folds 8 bytes per
    /// step (FxHash-style rotate-xor-multiply) instead of a byte-wise
    /// cryptographic hash; each field's length is folded in so field
    /// boundaries cannot alias.
    pub(crate) fn key(model: &str, prompt: &str, max_tokens: u32) -> u64 {
        let h = key_fold(key_fold(KEY_SEED, model.as_bytes()), prompt.as_bytes());
        key_step(h, u64::from(max_tokens))
    }

    /// Look up a cached response.
    pub(crate) fn get(&self, key: u64, now: SimTime) -> Option<CachedResponse> {
        match self.entries.get(&key) {
            Some((at, resp)) if now.saturating_since(*at) < self.ttl => Some(resp.clone()),
            _ => None,
        }
    }

    /// Insert a response.
    pub fn put(&mut self, key: u64, response: CachedResponse, now: SimTime) {
        let full = self.entries.len() >= self.capacity;
        let added = match self.entries.entry(key) {
            Entry::Occupied(mut slot) => {
                slot.insert((now, response));
                false
            }
            Entry::Vacant(slot) => {
                slot.insert((now, response));
                true
            }
        };
        if full && added {
            // Evict the oldest entry (smallest insertion time, then key),
            // discarding stale pairs whose key was since replaced. Every
            // pair of the new key is stale: its own pair is not filed yet.
            while let Some((t, oldest)) = self.by_age.pop_front() {
                if oldest == key {
                    continue;
                }
                if let Entry::Occupied(slot) = self.entries.entry(oldest) {
                    if slot.get().0 == t {
                        slot.remove();
                        break;
                    }
                }
            }
        }
        // After every pair that sorts at or before the new one.
        let pair = (now, key);
        let at = self.by_age.len() - self.by_age.iter().rev().take_while(|&&p| p > pair).count();
        self.by_age.insert(at, pair);
        // Replacements leave stale pairs behind; rebuild before they dominate.
        if self.by_age.len() > self.entries.len() * 2 + 64 {
            let mut live: Vec<_> = self.entries.iter().map(|(&k, &(t, _))| (t, k)).collect();
            live.sort_unstable();
            self.by_age = live.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use first_auth::{AccessPolicy, Identity, UserId};

    fn auth_setup() -> (AuthService, TokenString) {
        let mut svc = AuthService::new(AccessPolicy::default(), 11);
        svc.enroll_user(&UserId::new("alice"));
        let (tok, _) = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap();
        (svc, tok.token)
    }

    #[test]
    fn cache_eliminates_repeat_introspection_latency() {
        let (mut svc, token) = auth_setup();
        let mut mw = AuthMiddleware::new();
        let first = mw
            .authenticate(&mut svc, &token, SimTime::from_secs(1))
            .unwrap();
        assert!(!first.cache_hit);
        assert!(first.added_latency.as_secs_f64() > 0.5);
        let second = mw
            .authenticate(&mut svc, &token, SimTime::from_secs(2))
            .unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.added_latency, SimDuration::ZERO);
        // Without the cache every request pays the introspection latency.
        let mut legacy = AuthMiddleware::without_cache();
        let a = legacy
            .authenticate(&mut svc, &token, SimTime::from_secs(3))
            .unwrap();
        let a_hit = a.cache_hit;
        let b = legacy
            .authenticate(&mut svc, &token, SimTime::from_secs(4))
            .unwrap();
        assert!(!a_hit && !b.cache_hit);
        assert!(b.added_latency.as_secs_f64() > 0.5);
    }

    #[test]
    fn cache_entries_expire_with_ttl_and_token_expiry() {
        let (mut svc, token) = auth_setup();
        let mut mw = AuthMiddleware::new();
        mw.cache_ttl = SimDuration::from_secs(5);
        mw.authenticate(&mut svc, &token, SimTime::ZERO).unwrap();
        let later = mw
            .authenticate(&mut svc, &token, SimTime::from_secs(10))
            .unwrap();
        assert!(!later.cache_hit, "TTL should have expired the entry");
        // After the token itself expires, even a cached entry must not be used.
        let expired = mw.authenticate(&mut svc, &token, SimTime::from_secs(49 * 3600));
        assert!(matches!(expired, Err(GatewayError::Unauthorized(_))));
    }

    #[test]
    fn invalid_tokens_are_rejected() {
        let (mut svc, _) = auth_setup();
        let mut mw = AuthMiddleware::new();
        let err = mw
            .authenticate(&mut svc, &TokenString::new("bogus"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GatewayError::Unauthorized(_)));
    }

    #[test]
    fn response_cache_hit_and_expiry() {
        let mut cache = ResponseCache::new(SimDuration::from_secs(60), 10);
        let key = ResponseCache::key("llama-70b", "what is the queue policy", 128);
        assert!(cache.get(key, SimTime::ZERO).is_none());
        cache.put(
            key,
            CachedResponse {
                text: "answer".into(),
                completion_tokens: 42,
            },
            SimTime::ZERO,
        );
        assert_eq!(
            cache
                .get(key, SimTime::from_secs(10))
                .unwrap()
                .completion_tokens,
            42
        );
        assert!(cache.get(key, SimTime::from_secs(120)).is_none());
    }

    #[test]
    fn response_cache_evicts_oldest_when_full() {
        let mut cache = ResponseCache::new(SimDuration::from_hours(1), 2);
        for i in 0..3u64 {
            cache.put(
                i,
                CachedResponse {
                    text: format!("r{i}"),
                    completion_tokens: i as u32,
                },
                SimTime::from_secs(i),
            );
        }
        // Entry 0 (oldest) was evicted; 1 and 2 remain.
        assert!(cache.get(0, SimTime::from_secs(10)).is_none());
        assert!(cache.get(1, SimTime::from_secs(10)).is_some());
        assert!(cache.get(2, SimTime::from_secs(10)).is_some());
    }

    mod eviction {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        fn response(tokens: u32) -> CachedResponse {
            CachedResponse {
                text: String::new(),
                completion_tokens: tokens,
            }
        }

        /// The cache's live entries, `key → inserted_at`.
        fn live(cache: &ResponseCache) -> BTreeMap<u64, SimTime> {
            cache.entries.iter().map(|(&k, &(t, _))| (k, t)).collect()
        }

        /// The scan the eviction index stands in for: a full cache drops
        /// the live entry with the smallest `(inserted_at, key)`.
        fn reference_put(model: &mut BTreeMap<u64, SimTime>, cap: usize, key: u64, now: SimTime) {
            if model.len() >= cap && !model.contains_key(&key) {
                let oldest = model.iter().map(|(&k, &t)| (t, k)).min();
                if let Some((_, k)) = oldest {
                    model.remove(&k);
                }
            }
            model.insert(key, now);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random puts: a clock that moves forward with puts placed up
            /// to 3 ms behind it (one delivery batch collected out of time
            /// order), equal instants under different keys, and a key space
            /// small enough that most puts replace a live key, so stale
            /// pairs pile up past the rebuild threshold. After every put
            /// the live key set equals the scan's.
            #[test]
            fn eviction_matches_a_scan_for_the_oldest_live_entry(
                capacity in 1usize..7,
                keys in 2u64..16,
                puts in collection::vec((0u64..64, 0u64..3, 0u64..4), 1..400),
            ) {
                let mut cache = ResponseCache::new(SimDuration::from_hours(1), capacity);
                let mut model = BTreeMap::new();
                let mut clock = 10u64;
                for (i, (key, step, behind)) in puts.into_iter().enumerate() {
                    clock += step;
                    let now = SimTime::from_millis(clock - behind);
                    let key = key % keys;
                    cache.put(key, response(i as u32), now);
                    reference_put(&mut model, capacity, key, now);
                    prop_assert_eq!(live(&cache), model.clone());
                    prop_assert!(cache.by_age.len() <= 2 * cache.entries.len() + 64);
                }
            }
        }

        #[test]
        fn re_puts_rebuild_the_index_without_losing_the_order() {
            let mut cache = ResponseCache::new(SimDuration::from_hours(1), 3);
            let mut model = BTreeMap::new();
            let mut longest = 0;
            // Three live keys re-put round-robin, one instant per pair of
            // puts: every put leaves a stale pair behind.
            for i in 0..300u64 {
                let (key, now) = (i % 3, SimTime::from_millis(i / 2));
                cache.put(key, response(0), now);
                reference_put(&mut model, 3, key, now);
                longest = longest.max(cache.by_age.len());
            }
            assert!(longest > 64, "stale pairs reached the rebuild threshold");
            assert!(cache.by_age.len() < longest, "the index was rebuilt");
            // New keys, each evicting the oldest live entry.
            for key in 100..104 {
                let now = SimTime::from_millis(149);
                cache.put(key, response(0), now);
                reference_put(&mut model, 3, key, now);
                assert_eq!(live(&cache), model);
            }
        }
    }
}
