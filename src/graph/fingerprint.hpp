/// @file
/// Stable 64-bit content digests for reuse keys. Warm-state checkpoint
/// keys (`combination_checkpoint_key`, core/accelerator.hpp) pair a
/// digest of the streamed inputs with a digest of the timing model,
/// and the sweep executor groups cells that can share one checkpoint
/// build by the same config digest (sweep/sweep.hpp, build classes).
/// Both are plain FNV/splitmix-style digests: stable across processes
/// and platforms (they hash the logical contents, never pointers or
/// iteration order), and cheap relative to one simulated phase.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "graph/csr.hpp"

namespace hymm {

/// Order-sensitive digest of a sparse matrix's full logical content:
/// dimensions, row pointers, column indices and values (hashed by bit
/// pattern, so -0.0 and 0.0 differ — fingerprints are identity checks,
/// not numeric comparisons). Two CsrMatrix objects compare equal iff
/// their fingerprints match (modulo 64-bit collisions).
std::uint64_t graph_fingerprint(const CsrMatrix& matrix);

/// Digest of every AcceleratorConfig field that can change simulated
/// cycle counts, EXCEPT `tiling_threshold` — the threshold only shapes
/// aggregation, so runs that differ in it alone share one combination
/// checkpoint. Observability knobs (trace_path/json_path/
/// obs_sample_interval) are excluded too: they never affect timing,
/// and a run that merely turns tracing on must still hit its key.
std::uint64_t timing_config_hash(const AcceleratorConfig& config);

/// Combines two digests (e.g. a graph fingerprint with a weights-shape
/// digest) into one, non-commutatively.
std::uint64_t fingerprint_combine(std::uint64_t a, std::uint64_t b);

}  // namespace hymm
