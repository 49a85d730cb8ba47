// Tests for the partition auto-tuner (src/tune/): cost-model
// monotonicity and clamp properties, fingerprint stability, tune-cache
// round-trips with structural invalidation, the JSON value parser the
// cache reads itself back with, and the measured tuner's contract —
// never worse than the fixed baseline, cache-backed repeat runs skip
// simulation entirely, and thread count never changes the decision.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "sweep/sweep.hpp"
#include "tune/cost_model.hpp"
#include "graph/fingerprint.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"

namespace hymm {
namespace {

std::shared_ptr<const PreparedWorkload> cora_workload(double scale = 0.5) {
  const DatasetSpec spec = *find_dataset("CR");
  return std::make_shared<PreparedWorkload>(spec, scale, 42);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// --- JSON parser (obs/json) --------------------------------------

TEST(JsonParse, ParsesScalarsAndStructure) {
  const auto doc = json_parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "n": -3e2})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->get_number("a"), 1.5);
  EXPECT_DOUBLE_EQ(doc->get_number("n"), -300.0);
  EXPECT_EQ(doc->get_string("s"), "x\ny");
  const JsonValue* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array_items.size(), 3u);
  EXPECT_TRUE(b->array_items[0].bool_value);
  EXPECT_FALSE(b->array_items[1].bool_value);
  EXPECT_EQ(b->array_items[2].kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, PreservesMemberOrderAndDecodesEscapes) {
  const auto doc = json_parse(R"({"z": "Aé", "a": "\"\\/"})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object_members.size(), 2u);
  EXPECT_EQ(doc->object_members[0].first, "z");
  EXPECT_EQ(doc->object_members[1].first, "a");
  EXPECT_EQ(doc->get_string("z"), "A\xc3\xa9");  // é as UTF-8
  EXPECT_EQ(doc->get_string("a"), "\"\\/");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{} extra").has_value());
  EXPECT_FALSE(json_parse("{'single': 1}").has_value());
  EXPECT_FALSE(json_parse("[1, 2,]").has_value());
  EXPECT_FALSE(json_parse("01").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
  EXPECT_FALSE(json_parse("{\"k\": \"bad\\q\"}").has_value());
}

TEST(JsonParse, AcceptsEverythingTheValidatorAccepts) {
  const std::string doc =
      R"({"schema": "hymm-tune-cache/1", "entries": [{"threshold": 0.2}]})";
  EXPECT_TRUE(json_is_valid(doc));
  EXPECT_TRUE(json_parse(doc).has_value());
}

TEST(JsonParse, TypedAccessorsFallBackOnWrongTypeOrAbsence) {
  const auto doc = json_parse(R"({"s": "str", "n": 4})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("n", "fb"), "fb");
  EXPECT_DOUBLE_EQ(doc->get_number("s", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc->get_number("missing", 7.0), 7.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

// --- Fingerprints ------------------------------------------------

TEST(Fingerprint, StableAndContentSensitive) {
  const auto w = cora_workload(0.25);
  const std::uint64_t fp1 = graph_fingerprint(w->a_hat());
  const std::uint64_t fp2 = graph_fingerprint(w->a_hat());
  EXPECT_EQ(fp1, fp2);

  // Any value change moves the fingerprint.
  CsrMatrix perturbed = w->a_hat();
  std::vector<Value> values = perturbed.values();
  values.front() += 1.0f;
  perturbed = CsrMatrix::from_parts(perturbed.rows(), perturbed.cols(),
                                    perturbed.row_ptr(), perturbed.col_idx(),
                                    std::move(values));
  EXPECT_NE(fp1, graph_fingerprint(perturbed));

  const std::uint64_t wf1 = workload_fingerprint(*w);
  EXPECT_EQ(wf1, workload_fingerprint(*w));
  const auto other_seed = std::make_shared<PreparedWorkload>(
      *find_dataset("CR"), 0.25, 43);
  EXPECT_NE(wf1, workload_fingerprint(*other_seed));
}

TEST(Fingerprint, ConfigHashIgnoresThresholdAndObservability) {
  AcceleratorConfig base;
  const std::uint64_t h = tuning_config_hash(base);

  AcceleratorConfig threshold = base;
  threshold.tiling_threshold = 0.37;
  EXPECT_EQ(h, tuning_config_hash(threshold));

  AcceleratorConfig observed = base;
  observed.trace_path = "/tmp/trace.json";
  observed.json_path = "/tmp/report.json";
  observed.obs_sample_interval = 1;
  EXPECT_EQ(h, tuning_config_hash(observed));

  AcceleratorConfig resized = base;
  resized.dmb_bytes *= 2;
  EXPECT_NE(h, tuning_config_hash(resized));

  AcceleratorConfig repinned = base;
  repinned.dmb_pin_fraction = 0.5;
  EXPECT_NE(h, tuning_config_hash(repinned));
}

TEST(Fingerprint, HexRoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dULL},
        ~std::uint64_t{0}}) {
    const std::string hex = fingerprint_hex(v);
    EXPECT_EQ(hex.size(), 18u);
    const auto parsed = parse_fingerprint_hex(hex);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(parse_fingerprint_hex("deadbeef").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("0x123").has_value());
  EXPECT_FALSE(parse_fingerprint_hex("0x123456789abcdefg").has_value());
}

// --- Cost model ---------------------------------------------------

TEST(CostModel, DenseRowLines) {
  EXPECT_EQ(dense_row_lines(1), 1u);
  EXPECT_EQ(dense_row_lines(16), 1u);
  EXPECT_EQ(dense_row_lines(17), 2u);
  EXPECT_EQ(dense_row_lines(64), 4u);
}

TEST(CostModel, MonotonicityOverThreshold) {
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;
  const std::vector<CostEstimate> estimates = estimate_candidates(
      w->sort().sorted, config, candidate_thresholds(), 16);
  ASSERT_GE(estimates.size(), 3u);
  for (std::size_t i = 1; i < estimates.size(); ++i) {
    // Growing regions can only shrink the pessimistic region-3
    // traffic and grow the OP region's.
    EXPECT_LE(estimates[i].rwp_cold_bytes, estimates[i - 1].rwp_cold_bytes);
    EXPECT_GE(estimates[i].op_bytes, estimates[i - 1].op_bytes);
    // The MAC lower bound is threshold-independent.
    EXPECT_DOUBLE_EQ(estimates[i].compute_cycles,
                     estimates[0].compute_cycles);
  }
  for (const CostEstimate& e : estimates) {
    EXPECT_GE(e.cycles, e.compute_cycles);
    EXPECT_GE(e.dram_bytes,
              e.op_bytes + e.rwp_hot_bytes + e.rwp_cold_bytes);
  }
  // Threshold 0 disables region 1 entirely.
  EXPECT_EQ(estimates[0].partition.region1_rows, 0u);
  EXPECT_DOUBLE_EQ(estimates[0].op_bytes, 0.0);
}

TEST(CostModel, ClampMakesLargeThresholdsEquivalent) {
  const auto w = cora_workload(0.5);
  AcceleratorConfig tiny;
  tiny.dmb_bytes = 16 * 1024;  // 256 lines: clamps far below 50 % of n
  const CostEstimate half = estimate_hybrid_cost(w->sort().sorted, tiny,
                                                 0.5, 16);
  const CostEstimate full = estimate_hybrid_cost(w->sort().sorted, tiny,
                                                 1.0, 16);
  // Both candidates hit the DMB clamp, so they describe the same
  // partition and the same cost.
  EXPECT_EQ(half.partition.region1_rows, full.partition.region1_rows);
  EXPECT_EQ(half.partition.region2_cols, full.partition.region2_cols);
  EXPECT_DOUBLE_EQ(half.cycles, full.cycles);

  // And the clamp is the partition_regions clamp, bit for bit.
  AcceleratorConfig at_half = tiny;
  at_half.tiling_threshold = 0.5;
  const RegionPartition direct =
      partition_regions(w->sort().sorted, at_half, dense_row_lines(16));
  EXPECT_EQ(half.partition.region1_rows, direct.region1_rows);
  EXPECT_EQ(half.partition.region2_cols, direct.region2_cols);
  EXPECT_EQ(half.partition.nnz_region3, direct.nnz_region3);
}

// --- Tune cache ---------------------------------------------------

TuneCacheEntry sample_entry() {
  TuneCacheEntry e;
  e.graph_fingerprint = 0x1111222233334444ULL;
  e.config_hash = 0x5555666677778888ULL;
  e.mode = "measured";
  e.threshold = 0.35;
  e.cycles = 12345.0;
  e.dataset = "CR";
  return e;
}

TEST(TuneCache, FileRoundTrip) {
  const std::string path = temp_path("tune_cache_roundtrip.json");
  std::remove(path.c_str());
  {
    TuneCache cache(path);
    cache.insert(sample_entry());
    EXPECT_EQ(cache.size(), 1u);
  }
  // A fresh cache object reloads the persisted entry.
  TuneCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 1u);
  const auto hit = reloaded.lookup(0x1111222233334444ULL,
                                   0x5555666677778888ULL, "measured");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->threshold, 0.35);
  EXPECT_DOUBLE_EQ(hit->cycles, 12345.0);
  EXPECT_EQ(hit->dataset, "CR");

  // The persisted document is valid JSON under the schema.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(json_is_valid(buf.str()));
  const auto doc = json_parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("schema"), TuneCache::kSchema);
}

TEST(TuneCache, MismatchedKeysMiss) {
  TuneCache cache;  // memory-only
  cache.insert(sample_entry());
  // Any single key component change invalidates the entry.
  EXPECT_FALSE(cache.lookup(0xdead, 0x5555666677778888ULL, "measured"));
  EXPECT_FALSE(cache.lookup(0x1111222233334444ULL, 0xdead, "measured"));
  EXPECT_FALSE(
      cache.lookup(0x1111222233334444ULL, 0x5555666677778888ULL, "analytic"));
  EXPECT_TRUE(
      cache.lookup(0x1111222233334444ULL, 0x5555666677778888ULL, "measured"));
}

TEST(TuneCache, InsertReplacesSameKey) {
  TuneCache cache;
  cache.insert(sample_entry());
  TuneCacheEntry updated = sample_entry();
  updated.threshold = 0.1;
  cache.insert(updated);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache
                       .lookup(updated.graph_fingerprint, updated.config_hash,
                               updated.mode)
                       ->threshold,
                   0.1);
}

TEST(TuneCache, CorruptOrForeignFilesAreIgnored) {
  const std::string garbage = temp_path("tune_cache_garbage.json");
  {
    std::ofstream out(garbage);
    out << "{ not json";
  }
  EXPECT_EQ(TuneCache(garbage).size(), 0u);

  const std::string foreign = temp_path("tune_cache_foreign.json");
  {
    std::ofstream out(foreign);
    out << R"({"schema": "hymm-run-report/4", "entries": []})" << "\n";
  }
  EXPECT_EQ(TuneCache(foreign).size(), 0u);

  // Previous-schema files are structurally invalidated (the /2 bump
  // added routing fields, the /3 bump removed them), not parsed
  // best-effort.
  for (const std::string version : {"1", "2"}) {
    const std::string outdated =
        temp_path("tune_cache_v" + version + ".json");
    {
      std::ofstream out(outdated);
      out << R"({"schema": "hymm-tune-cache/)" << version
          << R"(", "entries": [)"
          << R"({"graph_fingerprint": "0x0000000000000001",)"
          << R"( "config_hash": "0x0000000000000002",)"
          << R"( "mode": "analytic", "threshold": 0.15}]})"
          << "\n";
    }
    EXPECT_EQ(TuneCache(outdated).size(), 0u) << "schema /" << version;
  }

  // Malformed entries are skipped individually, valid ones kept.
  const std::string partial = temp_path("tune_cache_partial.json");
  {
    std::ofstream out(partial);
    out << R"({"schema": "hymm-tune-cache/3", "entries": [)"
        << R"({"mode": "measured"},)"
        << R"({"graph_fingerprint": "0x0000000000000001",)"
        << R"( "config_hash": "0x0000000000000002",)"
        << R"( "mode": "analytic", "threshold": 0.15}]})"
        << "\n";
  }
  TuneCache cache(partial);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(1, 2, "analytic").has_value());
}

// --- Tuner --------------------------------------------------------

TEST(Tuner, CandidateListCoversBaselineAndDisabledCorner) {
  const std::vector<double> candidates = candidate_thresholds();
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0.0),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0.20),
            candidates.end());
}

TEST(Tuner, OffModeIsAPassThrough) {
  Tuner tuner;
  const auto w = cora_workload(0.25);
  const TuneDecision decision =
      tuner.tune(w, AcceleratorConfig{}, AutotuneMode::kOff);
  EXPECT_DOUBLE_EQ(decision.threshold, AcceleratorConfig{}.tiling_threshold);
  EXPECT_EQ(decision.simulations, 0u);
  EXPECT_EQ(tuner.measured_simulations(), 0u);
}

TEST(Tuner, AnalyticPicksANonDegenerateThreshold) {
  Tuner tuner;
  const auto w = cora_workload(0.5);
  const TuneDecision decision =
      tuner.tune(w, AcceleratorConfig{}, AutotuneMode::kAnalytic);
  EXPECT_GT(decision.threshold, 0.0);  // "no OP region" must not win
  EXPECT_EQ(decision.simulations, 0u);
  EXPECT_FALSE(decision.candidates.empty());
  for (const TuneCandidate& c : decision.candidates) {
    EXPECT_GT(c.model_cycles, 0.0);
    EXPECT_DOUBLE_EQ(c.measured_cycles, 0.0);
  }
}

TEST(Tuner, MeasuredNeverWorseThanFixedAndConsistent) {
  Tuner tuner;
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;
  const TuneDecision decision =
      tuner.tune(w, config, AutotuneMode::kMeasured, 2);
  ASSERT_GT(decision.simulations, 0u);

  // The fixed 20 % baseline was itself simulated; the winner can only
  // tie or beat it.
  const auto fixed = std::find_if(
      decision.candidates.begin(), decision.candidates.end(),
      [&](const TuneCandidate& c) {
        return c.threshold == config.tiling_threshold;
      });
  ASSERT_NE(fixed, decision.candidates.end());
  EXPECT_GT(fixed->measured_cycles, 0.0);
  EXPECT_LE(decision.best_cycles, fixed->measured_cycles);

  // Re-simulating the tuned config reproduces the winning cycles
  // exactly (candidate cells and real runs share one simulator).
  const AcceleratorConfig tuned = Tuner::apply(config, decision);
  ExperimentRequest request;
  request.workload = &w->workload();
  request.a_hat = &w->a_hat();
  request.weights = &w->weights();
  request.reference = &w->reference();
  request.flow = Dataflow::kHybrid;
  request.config = tuned;
  request.sort = &w->sort();
  request.sorted_features = &w->sorted_features();
  const ExperimentResult rerun = run_experiment(request);
  EXPECT_TRUE(rerun.verified);
  EXPECT_DOUBLE_EQ(static_cast<double>(rerun.cycles), decision.best_cycles);
}

TEST(Tuner, CacheMakesSecondMeasuredRunSkipSimulation) {
  const std::string path = temp_path("tune_cache_skip.json");
  std::remove(path.c_str());
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;

  TuneDecision first;
  {
    Tuner tuner(path);
    first = tuner.tune(w, config, AutotuneMode::kMeasured, 2);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_GT(tuner.measured_simulations(), 0u);
  }

  // A fresh tuner bound to the same cache file answers from the cache:
  // zero candidate simulations, identical decision.
  Tuner second(path);
  const TuneDecision repeat =
      second.tune(w, config, AutotuneMode::kMeasured, 2);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.simulations, 0u);
  EXPECT_EQ(second.measured_simulations(), 0u);
  EXPECT_DOUBLE_EQ(repeat.threshold, first.threshold);
  EXPECT_DOUBLE_EQ(repeat.best_cycles, first.best_cycles);

  // A different timing config is a different question — miss.
  AcceleratorConfig resized = config;
  resized.dmb_bytes /= 2;
  const TuneDecision other =
      second.tune(w, resized, AutotuneMode::kMeasured, 2);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_GT(other.simulations, 0u);
}

TEST(Tuner, DecisionIsThreadCountInvariant) {
  const auto w = cora_workload(0.5);
  const AcceleratorConfig config;
  Tuner serial;    // separate tuners: no cache sharing between them
  Tuner parallel;
  const TuneDecision d1 = serial.tune(w, config, AutotuneMode::kMeasured, 1);
  const TuneDecision d4 = parallel.tune(w, config, AutotuneMode::kMeasured, 4);
  EXPECT_DOUBLE_EQ(d1.threshold, d4.threshold);
  EXPECT_DOUBLE_EQ(d1.best_cycles, d4.best_cycles);
  ASSERT_EQ(d1.candidates.size(), d4.candidates.size());
  for (std::size_t i = 0; i < d1.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1.candidates[i].measured_cycles,
                     d4.candidates[i].measured_cycles)
        << "candidate " << d1.candidates[i].threshold;
  }

  // And the tuned run itself is bit-identical at 1 vs 4 workers.
  SweepSpec spec;
  spec.workloads = {w};
  spec.configs = {Tuner::apply(config, d1)};
  spec.flows = {Dataflow::kHybrid};
  SweepOptions one_worker;
  one_worker.threads = 1;
  SweepOptions four_workers;
  four_workers.threads = 4;
  const SweepRun run1 = SweepRunner(one_worker).run(spec);
  const SweepRun run4 = SweepRunner(four_workers).run(spec);
  ASSERT_EQ(run1.cells.size(), 1u);
  ASSERT_EQ(run4.cells.size(), 1u);
  const ExperimentResult& r1 = run1.cells.front().result;
  const ExperimentResult& r4 = run4.cells.front().result;
  EXPECT_EQ(r1.cycles, r4.cycles);
  EXPECT_EQ(r1.stats.mac_ops, r4.stats.mac_ops);
  for (std::size_t i = 0; i < kStallCauseCount; ++i) {
    EXPECT_EQ(r1.stats.stall_cycles[i], r4.stats.stall_cycles[i]);
  }
}

TEST(Tuner, ToTuneInfoCarriesTheDecision) {
  Tuner tuner;
  const auto w = cora_workload(0.25);
  const TuneDecision decision =
      tuner.tune(w, AcceleratorConfig{}, AutotuneMode::kAnalytic);
  const TuneInfo info = to_tune_info(decision);
  EXPECT_TRUE(info.enabled);
  EXPECT_EQ(info.mode, "analytic");
  EXPECT_DOUBLE_EQ(info.threshold, decision.threshold);
  EXPECT_EQ(info.candidates.size(), decision.candidates.size());
  EXPECT_EQ(info.graph_fingerprint,
            fingerprint_hex(decision.graph_fingerprint));
  ASSERT_TRUE(parse_fingerprint_hex(info.config_hash).has_value());
}

}  // namespace
}  // namespace hymm
