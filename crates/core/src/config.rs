//! Compiler configuration.

use parallax_graphine::PlacementConfig;
use parallax_hardware::StableHasher;

/// How many AOD move batches the scheduler may commit per layer.
///
/// The paper's Algorithm 1 plans exactly one move per layer
/// ([`SchedulingMode::Single`], the default — every paper preset and
/// experiment table compiles through this path, byte-identical to
/// pre-ablation builds). [`SchedulingMode::MultiMover`] is the "beyond
/// the paper" ablation arm: several moves share a layer when their
/// interference corridors are pairwise disjoint, with ALAP deadlines
/// ordering the candidates. Both modes run the same layer loop; see
/// `docs/SCHEDULING.md` for where they differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// One AOD move batch per layer (paper Algorithm 1, lines 16-17).
    #[default]
    Single,
    /// Batch pairwise-disjoint move plans into one layer, zero-slack
    /// gates first.
    MultiMover,
}

/// Tuning knobs for the Parallax compiler. Defaults follow the paper.
#[derive(Debug, Clone)]
pub struct CompilerConfig {
    /// Seed for every stochastic component (placement annealing, layer
    /// shuffles). Equal seeds give identical compilations.
    pub seed: u64,
    /// GRAPHINE placement settings (step 1).
    pub placement: PlacementConfig,
    /// Return AOD atoms to their home positions after each layer
    /// (Section II-D; ablated in Fig. 12).
    pub return_home: bool,
    /// Hard cap on recursive move iterations before a move is declared
    /// failed and resolved with a trap change (the paper uses 80).
    pub max_move_recursion: usize,
    /// Weight of the out-of-range-interaction criterion in AOD qubit
    /// selection (paper: 0.99).
    pub oor_weight: f64,
    /// Weight of the blockade-serialization criterion (paper: 0.01).
    pub blockade_weight: f64,
    /// Movement batching per layer (paper default: one move per layer).
    pub scheduling: SchedulingMode,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            placement: PlacementConfig::default(),
            return_home: true,
            max_move_recursion: 80,
            oor_weight: 0.99,
            blockade_weight: 0.01,
            scheduling: SchedulingMode::default(),
        }
    }
}

impl CompilerConfig {
    /// Cheap preset for unit tests: fast placement annealing.
    pub fn quick(seed: u64) -> Self {
        Self { seed, placement: PlacementConfig::quick(seed), ..Default::default() }
    }

    /// Disable the home-return behaviour (Fig. 12 ablation arm).
    pub fn without_home_return(mut self) -> Self {
        self.return_home = false;
        self
    }

    /// Enable the multi-mover ablation path.
    pub fn with_multi_mover(mut self) -> Self {
        self.scheduling = SchedulingMode::MultiMover;
        self
    }

    /// Stable structural fingerprint over every tuning knob (floats by bit
    /// pattern), for content-addressed result caching: equal fingerprints
    /// and equal inputs imply bit-identical compilations. Stable across
    /// processes and platforms, unlike `DefaultHasher`. Placement knobs
    /// enter through [`PlacementConfig::fingerprint`], which covers every
    /// result-steering placement field.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.seed)
            .write_u64(self.placement.fingerprint())
            .write_bool(self.return_home)
            .write_usize(self.max_move_recursion)
            .write_f64(self.oor_weight)
            .write_f64(self.blockade_weight)
            .write_bool(self.scheduling == SchedulingMode::MultiMover);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CompilerConfig::default();
        assert!(c.return_home);
        assert_eq!(c.max_move_recursion, 80);
        assert_eq!(c.oor_weight, 0.99);
        assert_eq!(c.blockade_weight, 0.01);
    }

    #[test]
    fn ablation_toggle() {
        let c = CompilerConfig::default().without_home_return();
        assert!(!c.return_home);
        assert_eq!(c.scheduling, SchedulingMode::Single);
        let c = CompilerConfig::default().with_multi_mover();
        assert_eq!(c.scheduling, SchedulingMode::MultiMover);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = CompilerConfig::quick(1).fingerprint();
        assert_eq!(base, CompilerConfig::quick(1).fingerprint());
        assert_ne!(base, CompilerConfig::quick(2).fingerprint());
        assert_ne!(base, CompilerConfig::default().fingerprint());
        assert_ne!(base, CompilerConfig::quick(1).without_home_return().fingerprint());
        let mut c = CompilerConfig::quick(1);
        c.oor_weight = 0.5;
        assert_ne!(base, c.fingerprint());
        assert_ne!(base, CompilerConfig::quick(1).with_multi_mover().fingerprint());
    }

    /// The layout, result and disk caches key on these values, so a change
    /// here re-keys every cached layout and result, on disk too.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(PlacementConfig::quick(1).fingerprint(), 0x273e_61fd_a8fa_9f5f);
        assert_eq!(PlacementConfig::default().fingerprint(), 0x1d11_2337_0e46_a911);
        assert_eq!(CompilerConfig::default().fingerprint(), 0xa527_3a73_08fe_742c);
    }
}
