//! The shared compiled-module cache: compile once, adopt per tenant.
//!
//! The cache stores context-neutral [`ModuleArtifact`]s keyed by
//! `(source hash, cert-config fingerprint, backend name)`. A hit hands
//! back an `Arc` to the artifact; the requesting tenant's context then
//! *adopts* it ([`brook_auto::BrookContext::adopt_artifact`]), which
//! re-stamps a fresh module id and the adopting context's identity —
//! the foreign-module rejection of PR 3 keeps holding on cache hits
//! because no stamped module ever crosses tenants, only artifacts do.
//! Adoption also re-plans an artifact's shared front for another
//! engine; the key still includes the backend, so `cpu` and
//! `cpu-parallel` each run the front of a source they share.

use brook_auto::ModuleArtifact;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache key: what must agree for two tenants to share a compilation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 64-bit hash of the Brook source text.
    pub source_hash: u64,
    /// [`brook_cert::CertConfig::fingerprint`] of the compiling context.
    pub cert_fingerprint: u64,
    /// Backend name (`cpu`, `gles2-packed`, ...): GLSL storage modes and
    /// lane/tier admission differ per backend family, so artifacts are
    /// not shared across them.
    pub backend: &'static str,
}

/// Stable hash of Brook source text (the `source_hash` key component).
pub fn hash_source(source: &str) -> u64 {
    let mut h = DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// A thread-safe compiled-module cache shared by every shard.
#[derive(Default)]
pub struct ModuleCache {
    entries: Mutex<HashMap<CacheKey, Arc<ModuleArtifact>>>,
    hits: Mutex<u64>,
    misses: Mutex<u64>,
}

impl ModuleCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an artifact, or compiles it with `compile` and caches
    /// the result. Only successful compilations are inserted — a failed
    /// compile leaves no entry, so a later corrected submission under a
    /// different source hash (or even a retry after a transient
    /// internal error) starts clean.
    ///
    /// The compile closure runs *outside* the cache lock: a slow
    /// compilation must not stall unrelated tenants. Two tenants racing
    /// to compile the same key may both do the work; the first insert
    /// wins and both get a shared artifact.
    ///
    /// # Errors
    /// Whatever `compile` returns, passed through untouched.
    pub fn get_or_compile<E>(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<ModuleArtifact, E>,
    ) -> Result<Arc<ModuleArtifact>, E> {
        if let Some(hit) = self.entries.lock().expect("cache lock").get(&key) {
            *self.hits.lock().expect("cache lock") += 1;
            return Ok(Arc::clone(hit));
        }
        let artifact = Arc::new(compile()?);
        let mut entries = self.entries.lock().expect("cache lock");
        let entry = entries.entry(key).or_insert_with(|| Arc::clone(&artifact));
        *self.misses.lock().expect("cache lock") += 1;
        Ok(Arc::clone(entry))
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            *self.hits.lock().expect("cache lock"),
            *self.misses.lock().expect("cache lock"),
        )
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_auto::BrookContext;

    const SRC: &str = "kernel void id(float a<>, out float o<>) { o = a; }";

    fn key(source: &str, backend: &'static str) -> CacheKey {
        CacheKey {
            source_hash: hash_source(source),
            cert_fingerprint: BrookContext::cpu().cert_config().fingerprint(),
            backend,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ModuleCache::new();
        let mut ctx = BrookContext::cpu();
        let a = cache
            .get_or_compile(key(SRC, "cpu"), || ctx.compile_artifact(SRC))
            .expect("compile");
        let b = cache
            .get_or_compile(key(SRC, "cpu"), || -> Result<_, brook_auto::BrookError> {
                panic!("must not recompile on a hit")
            })
            .expect("hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_compile_leaves_no_entry() {
        let cache = ModuleCache::new();
        let mut ctx = BrookContext::cpu();
        let bad = "kernel void broken(float a<> { }";
        let err = cache.get_or_compile(key(bad, "cpu"), || ctx.compile_artifact(bad));
        assert!(err.is_err());
        assert!(cache.is_empty(), "failure must not be cached");
        // Same key, corrected behaviour (e.g. a transient failure
        // cleared): compiles fresh.
        let ok = cache.get_or_compile(key(bad, "cpu"), || ctx.compile_artifact(SRC));
        assert!(ok.is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_partition_by_source_config_and_backend() {
        let other_src = "kernel void id2(float a<>, out float o<>) { o = a + 0.0; }";
        let k1 = key(SRC, "cpu");
        assert_ne!(k1, key(other_src, "cpu"));
        assert_ne!(k1, key(SRC, "gles2-packed"));
        let strict = brook_cert::CertConfig {
            max_instructions: 1,
            ..brook_cert::CertConfig::default()
        };
        assert_ne!(
            strict.fingerprint(),
            brook_cert::CertConfig::default().fingerprint()
        );
    }

    #[test]
    fn adopted_artifacts_keep_foreign_module_rejection() {
        let cache = ModuleCache::new();
        let mut t0 = BrookContext::cpu();
        let mut t1 = BrookContext::cpu();
        let artifact = cache
            .get_or_compile(key(SRC, "cpu"), || t0.compile_artifact(SRC))
            .expect("compile");
        let m0 = t0.adopt_artifact(&artifact).expect("adopt t0");
        let m1 = t1.adopt_artifact(&artifact).expect("adopt t1");
        let a0 = t0.stream(&[2]).expect("stream");
        let o0 = t0.stream(&[2]).expect("stream");
        t0.write(&a0, &[1.0, 2.0]).expect("write");
        // Own adoption runs...
        t0.run(
            &m0,
            "id",
            &[brook_auto::Arg::Stream(&a0), brook_auto::Arg::Stream(&o0)],
        )
        .expect("t0 runs its adoption");
        // ...the other tenant's adoption of the *same artifact* does not.
        let err = t0
            .run(
                &m1,
                "id",
                &[brook_auto::Arg::Stream(&a0), brook_auto::Arg::Stream(&o0)],
            )
            .unwrap_err();
        assert!(matches!(err, brook_auto::BrookError::Usage(_)));
    }
}
