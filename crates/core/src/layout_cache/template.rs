//! The **compiled-template cache**: the process-wide map from
//! ([`parallax_circuit::structural_hash`], compiler fingerprint) to shared
//! [`CompiledTemplate`]s, serving variational sweeps.
//!
//! Entries are `Arc`-shared — a hit is a pointer clone, never a schedule
//! copy — and weighed in the same qubit/position-sized units as the other
//! layers under the shared `PARALLAX_LAYOUT_CACHE` budget. Most callers
//! reach this layer through the [`crate::template::compiled_template`]
//! front door rather than the raw [`lookup_template`]/[`record_template`]
//! pair.

use super::{configured_capacity, CacheStats, Lru, Oversized};
use crate::template::CompiledTemplate;
use std::sync::{Arc, Mutex, OnceLock};

/// Content address of one compiled template: the circuit's structural
/// fingerprint (angles canonicalized to ordinal slots) and the
/// machine+config fingerprint of the compiler. Two sweep members that
/// differ only in rotation angles share a key; any structural or
/// configuration change does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// [`parallax_circuit::structural_hash`] of the circuit.
    pub structural: u64,
    /// [`crate::ParallaxCompiler::fingerprint`] (machine + config).
    pub compiler: u64,
}

/// A template entry holds a full compiled artifact, so it is charged its
/// qubit count plus one unit per scheduled gate index and move — the same
/// qubit/position-sized units as the other two layers.
fn template_weight(template: &CompiledTemplate) -> usize {
    let result = template.result();
    let schedule: usize =
        result.schedule.layers.iter().map(|l| l.gate_indices.len() + l.moves.len()).sum();
    result.num_qubits + schedule
}

/// LRU from [`TemplateKey`] to shared compiled templates. Entries are
/// `Arc`-shared: a hit is a pointer clone, so sweep traffic never copies
/// the schedule.
type TemplateCache = Lru<TemplateKey, Arc<CompiledTemplate>>;

/// Cache `template` under `key`; an oversized template warns once per
/// process and is not cached.
fn insert_template(cache: &mut TemplateCache, key: TemplateKey, template: Arc<CompiledTemplate>) {
    let weight = template_weight(&template);
    if let Err(Oversized { weight, capacity }) = cache.insert(key, template, weight) {
        static OVERSIZED: std::sync::Once = std::sync::Once::new();
        OVERSIZED.call_once(|| {
            eprintln!(
                "warning: a {weight}-unit compiled template exceeds the whole \
                 template-cache budget ({capacity} qubit-units) and will not be cached; \
                 PARALLAX_LAYOUT_CACHE sizes the layout, plan, and template caches — \
                 raise it to at least the largest sweep circuit's schedule size"
            );
        });
    }
}

fn template_global() -> &'static Mutex<TemplateCache> {
    static CACHE: OnceLock<Mutex<TemplateCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Lru::new(configured_capacity())))
}

/// Look up a process-wide compiled template. `None` means the caller must
/// compile (and should [`record_template`] the result). Most callers want
/// the [`crate::template::compiled_template`] front door instead.
pub fn lookup_template(key: &TemplateKey) -> Option<Arc<CompiledTemplate>> {
    template_global().lock().expect("template cache lock").get(key).cloned()
}

/// Publish a freshly compiled template for process-wide reuse. Compilation
/// happens outside the lock ([`crate::template::compiled_template`]), so
/// concurrent sweeps contend only on the map insert itself.
pub fn record_template(key: TemplateKey, template: Arc<CompiledTemplate>) {
    insert_template(&mut template_global().lock().expect("template cache lock"), key, template);
}

/// Snapshot of the process-wide template cache counters.
pub fn template_cache_stats() -> CacheStats {
    template_global().lock().expect("template cache lock").stats()
}

/// Apply the shared budget to the process-wide instance (the
/// [`super::resize`] hook for this layer).
pub(super) fn set_global_capacity(capacity: usize) {
    template_global().lock().expect("template cache lock").set_capacity(capacity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;
    use parallax_hardware::MachineSpec;

    #[test]
    fn templates_are_shared_and_charged_their_schedule() {
        use crate::{CompilerConfig, ParallaxCompiler};
        let compiler =
            ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(21));
        let mut b = CircuitBuilder::new(3);
        b.h(0).cx(0, 1).cx(1, 2);
        let tpl = Arc::new(CompiledTemplate::compile(&compiler, &b.build()));
        let key = |n: u64| TemplateKey { structural: n, compiler: 1 };
        let w = template_weight(&tpl);
        assert!(w >= 3 + 2, "3 qubits plus at least the two scheduled CZs, got {w}");

        // A hit hands out the shared Arc, never a copy.
        let mut c = TemplateCache::new(2 * w);
        insert_template(&mut c, key(1), Arc::clone(&tpl));
        assert!(Arc::ptr_eq(c.get(&key(1)).unwrap(), &tpl));
        assert_eq!(c.stats().weight, w);

        // An entry outweighing the whole budget is skipped, nothing evicted.
        let mut tiny = TemplateCache::new(w - 1);
        insert_template(&mut tiny, key(1), Arc::clone(&tpl));
        assert_eq!((tiny.stats().len, tiny.stats().evictions), (0, 0));
    }
}
