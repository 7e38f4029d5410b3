//! Named, cached model handles for the serving layer.
//!
//! A server process serves many tenants, each pinned to a model by name.
//! [`ModelRegistry`] owns the fitted [`MetaPredictor`] handles (inserted
//! in-process or loaded from a checkpoint container), caches
//! them behind [`Arc`]s so concurrent sessions share one copy, and validates
//! every handle against its [`StreamConfig`] **once at registration** — a
//! session open can then never fail on a config/predictor mismatch.

use metaseg::stream::{MetaSegStream, StreamConfig};
use metaseg::MetaSegError;
use metaseg_learners::MetaPredictor;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// One registered model: the stream configuration plus the fitted predictor
/// every session of this model is served with.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    name: String,
    config: StreamConfig,
    predictor: MetaPredictor,
    version: u64,
}

impl ModelEntry {
    /// Registry name of the model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonic version of this entry under its name: `1` for the first
    /// registration, bumped by every [`ModelRegistry::swap`] /
    /// [`ModelRegistry::swap_checkpoint`] (and every replacing
    /// [`ModelRegistry::insert`]). Sessions pin the entry they were opened
    /// with, so a session's engine version never changes mid-stream.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stream configuration sessions of this model run under.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The fitted predictor handle.
    pub fn predictor(&self) -> &MetaPredictor {
        &self.predictor
    }

    /// Opens a fresh per-session streaming engine over this model.
    pub fn open_stream(&self) -> MetaSegStream {
        MetaSegStream::new(self.config, self.predictor.clone())
            .expect("entry was validated at registration")
    }
}

/// Thread-safe name → model map shared by every connection of a server.
///
/// Lock poisoning is recovered from rather than propagated: a thread that
/// panicked mid-registration must not turn every later lookup (and thus
/// every session open on the server) into a panic cascade.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a model under `name`, validating the
    /// predictor against the stream configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::InvalidConfig`] when the predictor does not
    /// fit the configuration (wrong feature dimensionality, window too
    /// shallow, mismatched connectivities).
    pub fn insert(
        &self,
        name: &str,
        config: StreamConfig,
        predictor: MetaPredictor,
    ) -> Result<(), MetaSegError> {
        self.swap(name, config, predictor).map(|_| ())
    }

    /// Hot-swaps the model under `name`: validates the predictor, then
    /// replaces the registered entry **unconditionally**, returning the new
    /// version (`1` for a first registration, previous + 1 for a
    /// replacement — read under the same write lock, so concurrent swaps
    /// never produce duplicate versions).
    ///
    /// Sessions already open keep serving with the entry they pinned at
    /// open — a swap never drops or alters a live session; only sessions
    /// opened afterwards see the new version. That is exactly the rolling
    /// model-upgrade semantics a camera fleet needs: drain old sessions at
    /// their own pace while new ones come up on the new checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::InvalidConfig`] when the predictor does not
    /// fit the configuration; the registered entry is left untouched.
    pub fn swap(
        &self,
        name: &str,
        config: StreamConfig,
        predictor: MetaPredictor,
    ) -> Result<u64, MetaSegError> {
        // Validation = constructing a throwaway engine; registration is cold
        // path, sessions are hot path. Validate before taking the lock so a
        // rejected swap never blocks readers.
        MetaSegStream::new(config, predictor.clone())?;
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        let version = models.get(name).map_or(1, |entry| entry.version + 1);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            config,
            predictor,
            version,
        });
        models.insert(name.to_string(), entry);
        Ok(version)
    }

    /// Hot-reloads a checkpoint container under `name` and swaps it in
    /// unconditionally (no already-registered short-circuit: reload means
    /// *replace*). Returns the new version.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::Learn`] when the checkpoint is not a
    /// container (bare JSON included), truncated, corrupt or undecodable, and
    /// [`MetaSegError::InvalidConfig`] when the decoded predictor does not
    /// fit the configuration; the registered entry is left untouched either
    /// way.
    pub fn swap_checkpoint(
        &self,
        name: &str,
        config: StreamConfig,
        checkpoint: &[u8],
    ) -> Result<u64, MetaSegError> {
        let predictor = MetaPredictor::from_container_bytes(checkpoint)?;
        self.swap(name, config, predictor)
    }

    /// Loads a model from a checkpoint container
    /// ([`MetaPredictor::from_container_bytes`]) and caches it under `name`.
    /// If the name is already registered, the existing handle is kept and
    /// the checkpoint is not parsed again.
    ///
    /// # Errors
    ///
    /// Returns [`MetaSegError::Learn`] when the checkpoint is not a
    /// container (bare JSON included), truncated, corrupt or undecodable, and
    /// [`MetaSegError::InvalidConfig`] when the decoded predictor does not
    /// fit the configuration.
    pub fn load_checkpoint(
        &self,
        name: &str,
        config: StreamConfig,
        checkpoint: &[u8],
    ) -> Result<(), MetaSegError> {
        if self.get(name).is_some() {
            return Ok(());
        }
        let predictor = MetaPredictor::from_container_bytes(checkpoint)?;
        self.insert(name, config, predictor)
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Removes a model by name; existing sessions keep their handle alive
    /// through the [`Arc`].
    pub fn remove(&self, name: &str) -> bool {
        self.models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .is_some()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fitted_model;

    #[test]
    fn insert_validates_and_caches() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let (config, predictor) = fitted_model(2);
        registry
            .insert("default", config, predictor.clone())
            .unwrap();
        assert_eq!(registry.len(), 1);
        let entry = registry.get("default").unwrap();
        assert_eq!(entry.name(), "default");
        assert_eq!(entry.open_stream().series_length(), 2);
        assert!(registry.get("missing").is_none());

        // A predictor deeper than the stream window is rejected.
        let narrow = StreamConfig {
            window: 1,
            ..config
        };
        assert!(registry.insert("bad", narrow, predictor).is_err());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn load_checkpoint_takes_containers_and_rejects_bare_json() {
        let registry = ModelRegistry::new();
        let (config, predictor) = fitted_model(2);
        let container = predictor.to_container_bytes();
        registry.load_checkpoint("bin", config, &container).unwrap();
        assert_eq!(registry.get("bin").unwrap().predictor(), &predictor);
        // Bare JSON is a typed error, on load and on swap alike.
        let json = predictor.to_json();
        assert!(matches!(
            registry.load_checkpoint("json", config, json.as_bytes()),
            Err(MetaSegError::Learn(_))
        ));
        assert!(registry
            .swap_checkpoint("bin", config, json.as_bytes())
            .is_err());
        assert_eq!(registry.get("bin").unwrap().version(), 1);
        // A corrupt container is a typed error, not a panic.
        let mut corrupt = container.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(registry.load_checkpoint("bad", config, &corrupt).is_err());
        // Truncation never panics either.
        assert!(registry
            .load_checkpoint("bad", config, &container[..container.len() / 2])
            .is_err());
        // Failed loads register nothing.
        assert_eq!(registry.len(), 1);
        assert!(registry.get("json").is_none());
        assert!(registry.get("bad").is_none());
        assert!(registry.remove("bin"));
        assert!(!registry.remove("bin"));
    }

    #[test]
    fn swap_bumps_versions_without_touching_pinned_entries() {
        let registry = ModelRegistry::new();
        let (config, predictor) = fitted_model(2);
        registry
            .insert("default", config, predictor.clone())
            .unwrap();
        let pinned = registry.get("default").unwrap();
        assert_eq!(pinned.version(), 1);

        // A hot swap replaces the entry unconditionally and bumps the
        // version…
        let (config_v2, predictor_v2) = fitted_model(3);
        assert_eq!(
            registry.swap("default", config_v2, predictor_v2).unwrap(),
            2
        );
        let current = registry.get("default").unwrap();
        assert_eq!(current.version(), 2);
        assert_eq!(current.open_stream().series_length(), 3);
        // …while the pinned handle (what a live session holds) is untouched.
        assert_eq!(pinned.version(), 1);
        assert_eq!(pinned.open_stream().series_length(), 2);

        // Checkpoint reload is also a replace, not a cache hit — unlike
        // `load_checkpoint`, which short-circuits on a registered name.
        let checkpoint = predictor.to_container_bytes();
        assert_eq!(
            registry
                .swap_checkpoint("default", config, &checkpoint)
                .unwrap(),
            3
        );
        assert_eq!(registry.get("default").unwrap().version(), 3);
        registry
            .load_checkpoint("default", config, b"garbage")
            .unwrap();
        assert_eq!(registry.get("default").unwrap().version(), 3);

        // A rejected swap (predictor deeper than the window) leaves the
        // registered entry untouched.
        let narrow = StreamConfig {
            window: 1,
            ..config
        };
        assert!(registry.swap("default", narrow, predictor).is_err());
        assert_eq!(registry.get("default").unwrap().version(), 3);

        // First registration under a fresh name starts at version 1 again.
        let (config_b, predictor_b) = fitted_model(2);
        assert_eq!(registry.swap("other", config_b, predictor_b).unwrap(), 1);
    }
}
