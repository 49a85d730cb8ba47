/// @file
/// Stable fingerprints for the tuning cache (docs/schemas.md,
/// `hymm-tune-cache/3`). A cached threshold is only valid for the
/// exact sparse structure it was tuned on and for the exact timing
/// model it was measured under, so cache keys pair a graph
/// fingerprint with a config hash. Both are plain FNV/splitmix-style
/// 64-bit digests: stable across processes and platforms (they hash
/// the logical contents, never pointers or iteration order), and
/// cheap relative to even one candidate simulation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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
/// cycle counts, EXCEPT `tiling_threshold` — the threshold is the
/// *output* of tuning, so including it would make every cached
/// decision key on itself and never hit. Observability knobs
/// (trace_path/json_path/obs_sample_interval) are excluded too: they
/// never affect timing, and a run that merely turns tracing on must
/// still reuse the cached threshold.
std::uint64_t tuning_config_hash(const AcceleratorConfig& config);

/// Combines two digests (e.g. a graph fingerprint with a weights-shape
/// digest) into one, non-commutatively.
std::uint64_t fingerprint_combine(std::uint64_t a, std::uint64_t b);

/// Formats a digest as "0x%016x". JSON numbers are doubles (53-bit
/// integer range), so 64-bit digests are persisted as hex strings.
std::string fingerprint_hex(std::uint64_t digest);

/// Parses the fingerprint_hex format back ("0x" prefix required);
/// nullopt on malformed input.
std::optional<std::uint64_t> parse_fingerprint_hex(std::string_view text);

}  // namespace hymm
