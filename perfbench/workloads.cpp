#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <utility>

#include "adapter.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Set-up runs this many times per untraced run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// The timed loop runs at least twice so repetitions can be compared.
constexpr std::size_t kMinRepeats = 2;
// Restored (aggregation-only) calls per layer in the traced phase split.
constexpr int kRestoredRepeats = 3;

// Two-layer GCN on a Table II stand-in: feature_length -> 16 -> 16.
struct GcnDef {
  const char* name;
  const char* abbrev;
  double scale;
};
constexpr std::array<GcnDef, 2> kGcnDefs = {{
    {"physics-comb", "PH", 1.0},
    {"yelp-agg", "YP", 0.04},
}};
const std::vector<hymm::NodeId> kLayerDims = {16, 16};

// photo-dse: HyMM on Amazon-Photo over DMB size x tiling threshold.
// The checkpoint key ignores the threshold, so the grid needs one
// combination build per DMB size and restores it for the other cells.
const std::vector<std::size_t> kDmbKb = {128, 256, 512};
const std::vector<double> kThresholds = {0.05, 0.1, 0.2, 0.35, 0.5};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Moves the calling thread to one CPU of the process's affinity set
// before each timed call, and restores the set when destroyed.
// Host slowdowns on a shared machine hit one vCPU at a time, in phases
// of tens of seconds; rotating makes every run sample every vCPU, so a
// run's fastest call does not depend on where the scheduler parked it.
// Only single-threaded calls rotate: a sweep's worker threads would
// inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the `slot`-th allowed CPU, modulo their count.
  void pin(std::size_t slot) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0 && !warned_) {
      std::fprintf(stderr, "perfbench: could not pin to a CPU; timing unpinned\n");
      warned_ = true;
    }
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  bool warned_ = false;
};

std::string layer_name(Dataflow flow, std::size_t layer) {
  return std::string("core.") + flow_key(flow) + ".L" + std::to_string(layer + 1);
}

Counters sum_total(const std::vector<LayerOutcome>& layers) {
  Counters t;
  for (const LayerOutcome& l : layers) t += l.total();
  return t;
}

bool same_counts(const LayerOutcome& a, const LayerOutcome& b) {
  return a.combination == b.combination && a.aggregation == b.aggregation;
}

// What is wrong with one simulated run, or "" when nothing is.
std::string layers_problem(const std::vector<LayerOutcome>& layers,
                           const std::vector<LayerOutcome>* expected) {
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (!layers[l].stalls_balance()) {
      return "stall buckets do not sum to cycles in layer " + std::to_string(l + 1);
    }
    if (expected != nullptr &&
        (expected->size() != layers.size() || !same_counts(layers[l], (*expected)[l]))) {
      return "modeled counts of layer " + std::to_string(l + 1) +
             " differ from the reference run";
    }
  }
  return "";
}

std::string gcn_problem(const InferenceOutcome& out, const DenseMatrix& golden,
                        const std::vector<LayerOutcome>* expected) {
  if (!matches_golden(out.output, golden)) {
    return "output does not match the golden reference";
  }
  return layers_problem(out.layers, expected);
}

std::string cell_problem(const SweepCellOutcome& cell,
                         const SweepCellOutcome* expected) {
  if (!cell.verified) return "output does not match the golden reference";
  if (expected == nullptr) return layers_problem({cell.layer}, nullptr);
  const std::vector<LayerOutcome> want = {expected->layer};
  return layers_problem({cell.layer}, &want);
}

std::string labelled(const std::string& label, const std::string& problem) {
  return problem.empty() ? problem : label + ": " + problem;
}

// --- per-layer metric table ----------------------------------------

// Every per-layer metric, in output order, with its unit. A traced run
// prints all of them; one a workload does not exercise reads 0.
std::vector<Metric> per_layer_template() {
  std::vector<Metric> m;
  const auto add = [&](std::string name, const char* unit) {
    m.push_back(Metric{std::move(name), 0.0, unit});
  };
  add("graph.build_s", "s");
  add("graph.sort_s", "s");
  add("linalg.normalize_s", "s");
  add("linalg.golden_s", "s");
  add("linalg.interlayer_s", "s");
  for (const Dataflow flow : kFlows) {
    const std::string core = std::string("core.") + flow_key(flow);
    add(core + ".sim_s", "s");
    add(core + ".cycles", "cycles");
    add(core + ".ns_per_cycle", "ns/cycle");
    add(core + ".ff_skip", "ratio");
    for (std::size_t l = 0; l < kLayerDims.size(); ++l) {
      const std::string layer = layer_name(flow, l);
      add(layer + ".comb_s", "s");
      add(layer + ".agg_s", "s");
      add(layer + ".comb_cycles", "cycles");
      add(layer + ".agg_cycles", "cycles");
    }
  }
  add("core.hymm.speedup_vs_op", "x");
  add("core.hymm.speedup_vs_rwp", "x");
  for (const Dataflow flow : kFlows) {
    const std::string sim = std::string("sim.") + flow_key(flow);
    for (std::size_t i = 0; i < kStallCount; ++i) {
      add(sim + ".stall." + stall_key(i), "cycles");
    }
    add(sim + ".dmb_hit_rate", "ratio");
    add(sim + ".dmb_spills", "count");
    add(sim + ".lsq_fwd_ratio", "ratio");
    add(sim + ".alu_util", "ratio");
    add(sim + ".dram_read_mb", "MB");
    add(sim + ".dram_write_mb", "MB");
    add(sim + ".macs", "count");
  }
  add("sweep.cells", "count");
  add("sweep.parallel_eff", "ratio");
  add("sweep.ckpt_hit_ratio", "ratio");
  add("sweep.ckpt_builds", "count");
  add("sweep.ckpt_restores", "count");
  add("sweep.built_cell_s", "s");
  add("sweep.restored_cell_s", "s");
  add("sweep.cpu_s", "s");
  add("sweep.prepare_s", "s");
  add("bench.trace_overhead_s", "s");
  return m;
}

void set_metric(RunResult& r, const std::string& name, double value) {
  for (Metric& m : r.metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

// Whole-run counters of one dataflow, as sim.<flow>.* and core.<flow>.*.
void set_flow_metrics(RunResult& r, Dataflow flow, const Counters& t,
                      double host_s) {
  const std::string core = std::string("core.") + flow_key(flow);
  const std::string sim = std::string("sim.") + flow_key(flow);
  const auto cycles = static_cast<double>(t.cycles);
  set_metric(r, core + ".sim_s", host_s);
  set_metric(r, core + ".cycles", cycles);
  set_metric(r, core + ".ns_per_cycle", ratio(host_s * 1e9, cycles));
  set_metric(r, core + ".ff_skip", ratio(static_cast<double>(t.skipped_cycles), cycles));
  for (std::size_t i = 0; i < kStallCount; ++i) {
    set_metric(r, sim + ".stall." + stall_key(i), static_cast<double>(t.stalls[i]));
  }
  set_metric(r, sim + ".dmb_hit_rate",
             ratio(static_cast<double>(t.dmb_hits),
                   static_cast<double>(t.dmb_hits + t.dmb_misses)));
  set_metric(r, sim + ".dmb_spills", static_cast<double>(t.dmb_spills));
  set_metric(r, sim + ".lsq_fwd_ratio",
             ratio(static_cast<double>(t.lsq_forwards), static_cast<double>(t.lsq_loads)));
  set_metric(r, sim + ".alu_util", ratio(static_cast<double>(t.alu_busy_cycles), cycles));
  set_metric(r, sim + ".dram_read_mb", static_cast<double>(t.dram_read_bytes) / 1e6);
  set_metric(r, sim + ".dram_write_mb", static_cast<double>(t.dram_write_bytes) / 1e6);
  set_metric(r, sim + ".macs", static_cast<double>(t.macs));
}

// The fastest of a run's repetitions. Contention from other tenants of
// the machine comes in phases that slow every call made during them;
// the minimum keeps those phases out of the metric as long as a run
// sees some quiet time (README.md, "Noise").
double fastest(const std::vector<double>& times, const char* label) {
  std::fprintf(stderr, "perfbench: %s host time over %zu repetitions: fastest %.6f s, median %.6f s\n",
               label, times.size(), *std::min_element(times.begin(), times.end()),
               median(times));
  return *std::min_element(times.begin(), times.end());
}

void add_end_to_end(RunResult& r, double sim_s, const std::vector<double>& setup_s,
                    const Counters& hymm_total) {
  r.add("sim_s", sim_s, "s");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("hymm_cycles", static_cast<double>(hymm_total.cycles), "cycles");
  r.add("hymm_dram_mb", static_cast<double>(hymm_total.dram_bytes()) / 1e6, "MB");
  r.add("pass_ratio",
        ratio(static_cast<double>(r.attempted - r.failed),
              static_cast<double>(r.attempted)),
        "ratio");
}

// --- GCN workloads (physics-comb, yelp-agg) --------------------------

GcnInputs gcn_setup(const GcnDef& def, std::uint64_t seed, Tracer* tracer) {
  GcnInputs in;
  {
    Span s(tracer, "graph.build");
    in.workload = build_graph(def.abbrev, def.scale, seed);
  }
  CsrMatrix a_hat;
  {
    Span s(tracer, "linalg.normalize");
    a_hat = normalize(in.workload.adjacency);
  }
  {
    Span s(tracer, "linalg.weights");
    in.model = make_model(std::move(a_hat), in.workload.spec.feature_length,
                          kLayerDims, seed + 7);
  }
  {
    Span s(tracer, "graph.sort");
    sort_inputs(in);
  }
  {
    Span s(tracer, "linalg.golden");
    in.golden = golden_output(in);
  }
  return in;
}

RunResult gcn_untraced(const GcnDef& def, const RunOptions& o) {
  RunResult r;
  CpuRotation cpus;
  std::vector<double> setup_s;
  GcnInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = GcnInputs{};  // free the previous build before timing the next
    cpus.pin(static_cast<std::size_t>(i));
    Span s(nullptr, "setup");
    in = gcn_setup(def, o.seed, nullptr);
    setup_s.push_back(s.stop());
  }

  // Flows take turns, one call at a time, until the deadline passes
  // and every flow has its minimum number of repetitions. Each round
  // shifts every flow to the next CPU, so each flow visits all of them.
  std::array<std::vector<LayerOutcome>, kFlows.size()> first;
  std::array<std::vector<double>, kFlows.size()> flow_s;
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  for (std::size_t call = 0;
       call < kFlows.size() * kMinRepeats || Clock::now() < deadline; ++call) {
    const std::size_t f = call % kFlows.size();
    const bool first_call = flow_s[f].empty();
    cpus.pin(call / kFlows.size() + f);
    Span s(nullptr, "infer");
    const InferenceOutcome out = infer(in, kFlows[f]);
    flow_s[f].push_back(s.stop());
    r.check(labelled(flow_key(kFlows[f]),
                     gcn_problem(out, in.golden, first_call ? nullptr : &first[f])));
    if (first_call) first[f] = out.layers;
  }

  double sim_s = 0.0;
  for (std::size_t f = 0; f < kFlows.size(); ++f) {
    sim_s += fastest(flow_s[f], flow_key(kFlows[f]));
  }
  add_end_to_end(r, sim_s, setup_s, sum_total(first[2]));
  return r;
}

RunResult gcn_traced(const GcnDef& def, const RunOptions& o, Tracer& tr) {
  RunResult r;
  r.metrics = per_layer_template();
  GcnInputs in;
  {
    Span s(&tr, "setup");
    in = gcn_setup(def, o.seed, &tr);
  }

  const std::size_t layers = kLayerDims.size();
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::array<Counters, kFlows.size()> totals;
  for (std::size_t f = 0; f < kFlows.size(); ++f) {
    const Dataflow flow = kFlows[f];
    const bool hybrid = flow == Dataflow::kHybrid;
    const std::string key = flow_key(flow);

    // Untraced call first: the cycles the traced calls must reproduce,
    // and the baseline of the tracing overhead.
    Span untraced_span(nullptr, "infer");
    const InferenceOutcome reference = infer(in, flow);
    untraced_s += untraced_span.stop();
    r.check(labelled(key, gcn_problem(reference, in.golden, nullptr)));

    // Cold pass: GcnModel::run unrolled into its run_layer calls.
    std::deque<CsrMatrix> owned;  // layer inputs after the first
    std::vector<const CsrMatrix*> x = {&in.workload.features};
    std::vector<const CsrMatrix*> x_sorted = {&in.sorted_features};
    InferenceOutcome cold;
    std::vector<double> cold_s;
    Span flow_span(&tr, "core." + key);
    for (std::size_t l = 0; l < layers; ++l) {
      Span layer_span(&tr, layer_name(flow, l));
      cold.layers.push_back(run_layer(in, l, flow, *x[l], hybrid ? x_sorted[l] : nullptr,
                                      nullptr, &cold.output));
      cold_s.push_back(layer_span.stop());
      if (l + 1 < layers) {
        Span s(&tr, "linalg.interlayer");
        x.push_back(&owned.emplace_back(next_layer_input(cold.output)));
        x_sorted.push_back(hybrid ? &owned.emplace_back(sort_rows(in, *x.back())) : nullptr);
      }
    }
    const double flow_s = flow_span.stop();
    traced_s += flow_s;
    r.check(labelled(key + " traced", gcn_problem(cold, in.golden, &reference.layers)));

    // Phase split: rerun each layer against a store primed by a cold
    // run, so later calls restore combination and simulate only
    // aggregation. The median of a few restored calls damps host noise.
    for (std::size_t l = 0; l < layers; ++l) {
      const std::string name = layer_name(flow, l);
      const auto store = make_checkpoint_store();
      {
        Span s(&tr, name + ".prime");
        const LayerOutcome primed =
            run_layer(in, l, flow, *x[l], x_sorted[l], store.get(), nullptr);
        r.check(labelled(name + " prime", same_counts(primed, cold.layers[l])
                                              ? ""
                                              : "checkpointed run differs from the cold run"));
      }
      std::vector<double> restored_s;
      for (int i = 0; i < kRestoredRepeats; ++i) {
        Span s(&tr, name + ".restored");
        const LayerOutcome restored =
            run_layer(in, l, flow, *x[l], x_sorted[l], store.get(), nullptr);
        restored_s.push_back(s.stop());
        std::string problem;
        if (!restored.checkpoint_restored || restored.checkpoint_built) {
          problem = "run did not restore the checkpoint";
        } else if (!same_counts(restored, cold.layers[l])) {
          problem = "restored run differs from the cold run";
        }
        r.check(labelled(name + " restored", problem));
      }
      const double agg_s = median(restored_s);
      set_metric(r, name + ".comb_s", cold_s[l] - agg_s);
      set_metric(r, name + ".agg_s", agg_s);
      set_metric(r, name + ".comb_cycles", static_cast<double>(cold.layers[l].combination.cycles));
      set_metric(r, name + ".agg_cycles", static_cast<double>(cold.layers[l].aggregation.cycles));
    }
    totals[f] = sum_total(cold.layers);
    set_flow_metrics(r, flow, totals[f], flow_s);
  }

  set_metric(r, "graph.build_s", tr.total_seconds("graph.build"));
  set_metric(r, "graph.sort_s", tr.total_seconds("graph.sort"));
  set_metric(r, "linalg.normalize_s", tr.total_seconds("linalg.normalize"));
  set_metric(r, "linalg.golden_s", tr.total_seconds("linalg.golden"));
  set_metric(r, "linalg.interlayer_s", tr.total_seconds("linalg.interlayer"));
  const auto hymm_cycles = static_cast<double>(totals[2].cycles);
  set_metric(r, "core.hymm.speedup_vs_op", ratio(static_cast<double>(totals[0].cycles), hymm_cycles));
  set_metric(r, "core.hymm.speedup_vs_rwp", ratio(static_cast<double>(totals[1].cycles), hymm_cycles));
  set_metric(r, "bench.trace_overhead_s", traced_s - untraced_s);
  return r;
}

// --- photo-dse ---------------------------------------------------------

Prepared dse_setup(std::uint64_t seed, Tracer* tracer) {
  hymm::GcnWorkload workload;
  {
    Span s(tracer, "graph.build");
    workload = build_graph("AP", 1.0, seed);
  }
  Prepared prepared;
  {
    Span s(tracer, "sweep.prepare");
    prepared = prepare(std::move(workload), seed);
  }
  Span s(tracer, "graph.sort");
  warm_sort(prepared);
  return prepared;
}

Counters sweep_total(const SweepOutcome& sweep) {
  Counters t;
  for (const SweepCellOutcome& cell : sweep.cells) t += cell.layer.total();
  return t;
}

void check_cells(RunResult& r, const SweepOutcome& sweep,
                 const SweepOutcome* expected, const std::string& label) {
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const SweepCellOutcome& cell = sweep.cells[i];
    const SweepCellOutcome* want = nullptr;
    if (expected != nullptr) {
      if (expected->cells.size() != sweep.cells.size()) {
        r.check(label + ": grid size differs from the reference sweep");
        continue;
      }
      want = &expected->cells[i];
    }
    r.check(labelled(label + " cell dmb=" + std::to_string(cell.dmb_kb) +
                         "KB threshold=" + std::to_string(cell.threshold),
                     cell_problem(cell, want)));
  }
}

RunResult dse_untraced(const RunOptions& o) {
  RunResult r;
  std::vector<double> setup_s;
  Prepared prepared;
  {
    CpuRotation cpus;
    for (int i = 0; i < kSetupRepeats; ++i) {
      prepared.reset();
      cpus.pin(static_cast<std::size_t>(i));
      Span s(nullptr, "setup");
      prepared = dse_setup(o.seed, nullptr);
      setup_s.push_back(s.stop());
    }
  }

  SweepOutcome first;
  std::vector<double> sim_s;
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  do {
    Span s(nullptr, "sweep");
    SweepOutcome sweep = run_sweep(prepared, kDmbKb, kThresholds, o.workers);
    sim_s.push_back(s.stop());
    const bool first_rep = sim_s.size() == 1;
    check_cells(r, sweep, first_rep ? nullptr : &first, "sweep");
    if (first_rep) first = std::move(sweep);
  } while (sim_s.size() < kMinRepeats || Clock::now() < deadline);

  // Outside the timed loop: one worker must model exactly what N did.
  const SweepOutcome serial = run_sweep(prepared, kDmbKb, kThresholds, 1);
  check_cells(r, serial, &first, "1-worker sweep");

  add_end_to_end(r, fastest(sim_s, "sweep"), setup_s, sweep_total(first));
  return r;
}

RunResult dse_traced(const RunOptions& o, Tracer& tr) {
  RunResult r;
  r.metrics = per_layer_template();
  Prepared prepared;
  {
    Span s(&tr, "setup");
    prepared = dse_setup(o.seed, &tr);
  }

  Span untraced_span(nullptr, "sweep");
  const SweepOutcome untraced = run_sweep(prepared, kDmbKb, kThresholds, o.workers);
  const double untraced_s = untraced_span.stop();
  check_cells(r, untraced, nullptr, "sweep");

  const double cpu_before = cpu_seconds();
  Span sweep_span(&tr, "sweep.run");
  const SweepOutcome sweep = run_sweep(prepared, kDmbKb, kThresholds, o.workers);
  const double wall_s = sweep_span.stop();
  const double cpu_s = cpu_seconds() - cpu_before;
  check_cells(r, sweep, &untraced, "traced sweep");

  double cell_s = 0.0;
  double built_s = 0.0;
  double restored_s = 0.0;
  std::size_t built = 0;
  std::size_t restored = 0;
  Counters comb;
  Counters agg;
  for (const SweepCellOutcome& cell : sweep.cells) {
    cell_s += cell.host_s;
    comb += cell.layer.combination;
    agg += cell.layer.aggregation;
    if (cell.layer.checkpoint_built) {
      built_s += cell.host_s;
      ++built;
    } else if (cell.layer.checkpoint_restored) {
      restored_s += cell.host_s;
      ++restored;
    }
  }
  const auto cells = static_cast<double>(sweep.cells.size());
  const Counters total = sweep_total(sweep);
  set_flow_metrics(r, Dataflow::kHybrid, total, cell_s);
  set_metric(r, "core.hymm.L1.comb_cycles", static_cast<double>(comb.cycles));
  set_metric(r, "core.hymm.L1.agg_cycles", static_cast<double>(agg.cycles));
  set_metric(r, "graph.build_s", tr.total_seconds("graph.build"));
  set_metric(r, "graph.sort_s", tr.total_seconds("graph.sort"));
  set_metric(r, "sweep.prepare_s", tr.total_seconds("sweep.prepare"));
  set_metric(r, "sweep.cells", cells);
  set_metric(r, "sweep.parallel_eff", ratio(cell_s, wall_s * o.workers));
  set_metric(r, "sweep.ckpt_hit_ratio", ratio(static_cast<double>(restored), cells));
  set_metric(r, "sweep.ckpt_builds", static_cast<double>(sweep.checkpoint_builds));
  set_metric(r, "sweep.ckpt_restores", static_cast<double>(restored));
  set_metric(r, "sweep.built_cell_s", ratio(built_s, static_cast<double>(built)));
  set_metric(r, "sweep.restored_cell_s", ratio(restored_s, static_cast<double>(restored)));
  set_metric(r, "sweep.cpu_s", cpu_s);
  set_metric(r, "bench.trace_overhead_s", wall_s - untraced_s);
  return r;
}

const GcnDef* find_gcn(const std::string& name) {
  for (const GcnDef& def : kGcnDefs) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

}  // namespace

void RunResult::check(const std::string& problem) {
  ++attempted;
  if (!problem.empty()) {
    ++failed;
    failures.push_back(problem);
  }
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

bool is_workload(const std::string& name) {
  return find_gcn(name) != nullptr || name == "photo-dse";
}

RunResult run_untraced(const RunOptions& options) {
  if (const GcnDef* def = find_gcn(options.workload)) return gcn_untraced(*def, options);
  return dse_untraced(options);
}

RunResult run_traced(const RunOptions& options, Tracer& tracer) {
  if (const GcnDef* def = find_gcn(options.workload)) {
    return gcn_traced(*def, options, tracer);
  }
  return dse_traced(options, tracer);
}

}  // namespace perfbench
