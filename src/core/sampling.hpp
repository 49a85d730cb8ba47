/// @file
/// The sampled-simulation estimator (--sample / HYMM_SAMPLE): which
/// tile bands a phase simulates and how their measurements extrapolate
/// to the whole phase. `Accelerator::run_layer` runs a layer in
/// sampled mode when `LayerRunRequest::sample` is set; it simulates
/// each selected band in full cycle-accurate detail, back-to-back on
/// the layer's one MemorySystem, and hands the per-band counter deltas
/// to `extrapolate_phase`.
///
/// Bands. A phase's streamed dimension — rows of the streamed CSR for
/// RWP-family phases, columns of the streamed CSC for OP-family phases
/// — splits into near-equal bands; with fraction f and B bands,
/// k = max(1, round(f*B)) bands are chosen by seeded stratified
/// selection (one uniform draw per contiguous stratum of bands, so
/// every part of the degree distribution is represented).
///
/// Estimator. With per-band cycles y_i and non-zeros x_i, the phase
/// estimate is warm-start-corrected: the first band pays the phase's
/// compulsory misses and enters the estimate once, unscaled, while
/// only the warm bands' rate R_warm = sum_{i>=2} y_i / sum_{i>=2} x_i
/// is extrapolated — t = y_1 + R_warm * (X - x_1) for phase total X.
/// Every other additive counter scales the same way (scale_stats,
/// which keeps the stall-bucket invariant exact). A phase's one-time
/// costs (the hybrid's pinned-output writeback) enter once, unscaled.
/// The reported 1-sigma error bar is the ratio-estimator standard
/// error with finite-population correction over the warm bands'
/// residuals e_i = y_i - R_warm*x_i.
///
/// Bias control beyond the warm-start correction: each band restarts
/// its engine (a pipeline drain an exact run pays once per phase), so
/// band_target is lowered until every band holds at least
/// min_band_nnz non-zeros, and phases below min_nnz simulated
/// non-zeros raise their effective fraction toward 1 (an exact phase)
/// — extrapolating tiny phases saves nothing and biases most. The
/// documented and tested accuracy bound (docs/performance.md,
/// tests/test_sampling.cpp) covers the residual bias plus noise;
/// sampled results are labeled `sampled: true`, are never
/// functionally verified, and are never gated against exact
/// snapshots (scripts/perf_compare refuses mixed pairs).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/stats.hpp"

namespace hymm {

/// Knobs of one sampled layer run.
struct SampleOptions {
  /// Fraction of bands simulated per phase, in (0, 1].
  double fraction = 0.25;
  /// Seed of the stratified band selection (combined per phase with a
  /// phase tag, so phases draw independent bands).
  std::uint64_t seed = 42;
  /// Target band count per phase before the fraction is applied; the
  /// effective count is capped by the streamed dimension's extent and
  /// lowered so every band holds at least min_band_nnz non-zeros.
  NodeId band_target = 16;
  /// Minimum non-zeros per band: each band restarts the engine (a
  /// pipeline/window drain an exact run pays only once per phase), so
  /// bands must be large enough to amortize it or the extrapolated
  /// restart cost dominates small phases. Phases too small for even
  /// two such bands collapse to a single band covering everything —
  /// an exact phase simulation.
  std::uint64_t min_band_nnz = 1u << 14;
  /// Adaptive floor: a phase keeps at least this many simulated
  /// non-zeros, raising its effective fraction up to 1 on small
  /// phases. Sampling cannot pay for itself there (the whole phase is
  /// milliseconds) while per-band extrapolation bias is at its worst,
  /// so small phases degrade gracefully toward a full simulation.
  std::uint64_t min_nnz = 1u << 16;
};

/// One phase's sampled measurement and extrapolation.
struct PhaseSampleEstimate {
  std::uint64_t bands_total = 0;      ///< bands the phase was split into
  std::uint64_t bands_simulated = 0;  ///< bands actually simulated
  std::uint64_t nnz_total = 0;        ///< non-zeros of the whole phase
  std::uint64_t nnz_simulated = 0;    ///< non-zeros in simulated bands
  double cycles_estimate = 0.0;       ///< ratio-estimator cycle total
  /// Approximate 1-sigma standard error of cycles_estimate
  /// (finite-population-corrected ratio estimator; 0 when fewer than
  /// two bands were simulated — no variance information).
  double cycles_stderr = 0.0;
  /// Extrapolated counters (cycles, stall vector, DRAM bytes, ...);
  /// the stall-bucket invariant sum(stall_cycles) == cycles holds.
  SimStats stats;
};

/// The sampled-run annotation carried by ExperimentResult and
/// serialized as the "sample" object of hymm-run-report/8.
struct SampleInfo {
  bool enabled = false;   ///< true on sampled runs
  double fraction = 0.0;  ///< requested band fraction
  std::uint64_t seed = 0; ///< band-selection seed
  PhaseSampleEstimate combination;  ///< XW-phase estimate
  PhaseSampleEstimate aggregation;  ///< aggregation-phase estimate

  double cycles_estimate() const {
    return combination.cycles_estimate + aggregation.cycles_estimate;
  }
  /// 1-sigma error of the whole-layer estimate (phases independent).
  double cycles_stderr() const;
  /// Relative half-width of the ~95% interval: 2*sigma / estimate.
  double rel_error_bound() const;
};

/// The deterministic band selection: splits [0, extent) into
/// near-equal bands of at most band_target count and returns the
/// stratified seeded choice of round(fraction * bands) bands (at least
/// one), in ascending order.
struct BandSelection {
  std::uint64_t bands_total = 0;
  std::vector<std::pair<NodeId, NodeId>> selected;  ///< [begin, end) spans
};
BandSelection select_sample_bands(NodeId extent, NodeId band_target,
                                  double fraction, std::uint64_t seed);

/// The bands one phase simulates: select_sample_bands after the
/// adaptive floors of `options` (min_nnz raises the fraction,
/// min_band_nnz lowers the band count), seeded by `options.seed`
/// combined with `phase_tag` so phases draw independent bands.
BandSelection select_phase_bands(const SampleOptions& options, NodeId extent,
                                 std::uint64_t nnz_total,
                                 std::uint64_t phase_tag);

/// One simulated band: its non-zero weight and its counter delta
/// (stats.cycles = cycles the band consumed on the shared machine).
struct BandRun {
  std::uint64_t nnz = 0;
  SimStats stats;
};

/// The phase estimate from its simulated bands (in simulation order;
/// the first is the cold band) plus the phase's one-time costs, which
/// enter once, unscaled (see file comment).
PhaseSampleEstimate extrapolate_phase(const std::vector<BandRun>& runs,
                                      std::uint64_t bands_total,
                                      std::uint64_t nnz_total,
                                      const SimStats& one_time);

/// Sums two independent sub-phase estimates (the hybrid aggregation's
/// region-1 OP and region-2/3 RWP passes): totals add, variances add.
PhaseSampleEstimate combine_estimates(const PhaseSampleEstimate& a,
                                      const PhaseSampleEstimate& b);

}  // namespace hymm
