#include "core/sampling.hpp"

#include <algorithm>
#include <cmath>

namespace hymm {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Warm-start-corrected ratio extrapolation (see sampling.hpp file
// comment). All bands of a phase run back-to-back on one shared
// MemorySystem, so the first band pays the phase's compulsory misses
// (the W matrix, the hot XW rows) and later bands run warm, like the
// bulk of an exact run. With k >= 2 bands the estimate is
//   t = y_1 + R_warm * (X - x_1),   R_warm = sum_{i>=2} y_i / x_i
// — the cold band enters once, unscaled, and only the warm rate is
// extrapolated. With a single band only the plain ratio t = X/x_1 *
// y_1 is available (biased high by the then-extrapolated cold start).
PhaseSampleEstimate extrapolate_bands(const std::vector<BandRun>& runs,
                                      std::uint64_t bands_total,
                                      std::uint64_t nnz_total) {
  PhaseSampleEstimate est;
  est.bands_total = bands_total;
  est.bands_simulated = runs.size();
  est.nnz_total = nnz_total;
  for (const BandRun& r : runs) est.nnz_simulated += r.nnz;
  if (runs.empty()) return est;

  const std::size_t k = runs.size();
  std::uint64_t warm_nnz = 0;
  SimStats warm_sum;
  for (std::size_t i = 1; i < k; ++i) {
    warm_nnz += runs[i].nnz;
    warm_sum.merge_phase(runs[i].stats);
  }

  if (k >= 2 && warm_nnz > 0 && nnz_total >= est.nnz_simulated) {
    const std::uint64_t rest_nnz = nnz_total - runs[0].nnz;
    const double scale = static_cast<double>(rest_nnz) /
                         static_cast<double>(warm_nnz);
    const double ratio = static_cast<double>(warm_sum.cycles) /
                         static_cast<double>(warm_nnz);
    est.stats = runs[0].stats;
    est.stats.merge_phase(scale_stats(warm_sum, scale));
    est.cycles_estimate = static_cast<double>(runs[0].stats.cycles) +
                          ratio * static_cast<double>(rest_nnz);
    // Ratio-estimator standard error over the warm bands, with
    // finite-population correction (kk of BB warm-role bands seen).
    const std::size_t kk = k - 1;
    if (kk >= 2) {
      double se2 = 0.0;
      for (std::size_t i = 1; i < k; ++i) {
        const double e = static_cast<double>(runs[i].stats.cycles) -
                         ratio * static_cast<double>(runs[i].nnz);
        se2 += e * e;
      }
      se2 /= static_cast<double>(kk - 1);
      const double big_b = static_cast<double>(bands_total - 1);
      const double f = static_cast<double>(kk) / big_b;
      est.cycles_stderr =
          big_b * std::sqrt(std::max(0.0, 1.0 - f) * se2 /
                            static_cast<double>(kk));
    }
    return est;
  }

  // Single-band (or degenerate) fallback: plain ratio over everything.
  SimStats sum = runs[0].stats;
  sum.merge_phase(warm_sum);
  double scale = 1.0;
  if (est.nnz_simulated > 0 && nnz_total > 0) {
    scale = static_cast<double>(nnz_total) /
            static_cast<double>(est.nnz_simulated);
  } else if (bands_total > 0) {
    scale = static_cast<double>(bands_total) / static_cast<double>(k);
  }
  est.cycles_estimate = static_cast<double>(sum.cycles) * scale;
  est.stats = scale_stats(sum, scale);
  return est;
}

}  // namespace

double SampleInfo::cycles_stderr() const {
  return std::hypot(combination.cycles_stderr, aggregation.cycles_stderr);
}

double SampleInfo::rel_error_bound() const {
  const double estimate = cycles_estimate();
  return estimate > 0.0 ? 2.0 * cycles_stderr() / estimate : 0.0;
}

BandSelection select_sample_bands(NodeId extent, NodeId band_target,
                                  double fraction, std::uint64_t seed) {
  BandSelection sel;
  if (extent == 0) return sel;
  NodeId bands = std::min<NodeId>(std::max<NodeId>(band_target, 1), extent);
  const NodeId band_size = (extent + bands - 1) / bands;
  bands = (extent + band_size - 1) / band_size;  // drop empty tail bands
  sel.bands_total = bands;
  const auto k = static_cast<std::uint64_t>(std::clamp<double>(
      std::llround(fraction * static_cast<double>(bands)), 1.0,
      static_cast<double>(bands)));
  sel.selected.reserve(k);
  // Stratified selection: one seeded uniform draw per contiguous
  // stratum of bands, so low- and high-index bands (and with them the
  // degree-sorted graph's hubs and tail) are both represented.
  for (std::uint64_t s = 0; s < k; ++s) {
    const std::uint64_t lo = s * bands / k;
    const std::uint64_t hi = (s + 1) * bands / k;
    const std::uint64_t pick =
        lo + splitmix64(seed + 0x9e3779b97f4a7c15ULL * (s + 1)) % (hi - lo);
    const NodeId begin = static_cast<NodeId>(pick) * band_size;
    const NodeId end = std::min<NodeId>(extent, begin + band_size);
    sel.selected.emplace_back(begin, end);
  }
  return sel;
}

BandSelection select_phase_bands(const SampleOptions& options, NodeId extent,
                                 std::uint64_t nnz_total,
                                 std::uint64_t phase_tag) {
  // Adaptive floor (SampleOptions::min_nnz): small phases raise their
  // effective fraction toward 1 — a full simulation — since
  // extrapolating them saves nothing and biases most.
  double fraction = options.fraction;
  if (nnz_total > 0 && options.min_nnz > 0) {
    const double floor_fraction = static_cast<double>(options.min_nnz) /
                                  static_cast<double>(nnz_total);
    fraction = std::min(1.0, std::max(fraction, floor_fraction));
  }
  // Bands must amortize their engine restart (min_band_nnz).
  NodeId band_target = options.band_target;
  if (options.min_band_nnz > 0) {
    band_target = static_cast<NodeId>(std::clamp<std::uint64_t>(
        nnz_total / options.min_band_nnz, 1, band_target));
  }
  return select_sample_bands(extent, band_target, fraction,
                             splitmix64(options.seed ^ phase_tag));
}

PhaseSampleEstimate extrapolate_phase(const std::vector<BandRun>& runs,
                                      std::uint64_t bands_total,
                                      std::uint64_t nnz_total,
                                      const SimStats& one_time) {
  PhaseSampleEstimate est = extrapolate_bands(runs, bands_total, nnz_total);
  est.stats.merge_phase(one_time);
  est.cycles_estimate += static_cast<double>(one_time.cycles);
  return est;
}

PhaseSampleEstimate combine_estimates(const PhaseSampleEstimate& a,
                                      const PhaseSampleEstimate& b) {
  PhaseSampleEstimate out;
  out.bands_total = a.bands_total + b.bands_total;
  out.bands_simulated = a.bands_simulated + b.bands_simulated;
  out.nnz_total = a.nnz_total + b.nnz_total;
  out.nnz_simulated = a.nnz_simulated + b.nnz_simulated;
  out.cycles_estimate = a.cycles_estimate + b.cycles_estimate;
  out.cycles_stderr = std::hypot(a.cycles_stderr, b.cycles_stderr);
  out.stats = a.stats;
  out.stats.merge_phase(b.stats);
  return out;
}

}  // namespace hymm
