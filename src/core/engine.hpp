/// @file
/// Engine framework: the component bundle every dataflow engine runs
/// against, and the cycle loop that advances a phase to completion.
#pragma once

#include <algorithm>
#include <memory>

#include "common/config.hpp"
#include "obs/observer.hpp"
#include "sim/address_map.hpp"
#include "sim/dmb.hpp"
#include "sim/dram.hpp"
#include "sim/lsq.hpp"
#include "sim/pe.hpp"
#include "sim/smq.hpp"
#include "sim/stats.hpp"

namespace hymm {

class StateReader;
class StateWriter;

/// Event-driven fast-forward (see DESIGN.md section 5f). kOn skips
/// provably dead stall spans in run_phase; kOff keeps the legacy
/// cycle-by-cycle loop; kCheck runs the legacy loop but DCHECKs every
/// skip the fast path would have taken (span stays quiescent, cause
/// stays constant) — legacy-exact results plus soundness validation.
enum class FastForwardMode { kOff, kOn, kCheck };

/// Process-wide mode. Initialized lazily from the environment:
/// HYMM_NO_FASTFWD=1 selects kOff (and wins over everything),
/// HYMM_FASTFWD_CHECK=1 selects kCheck, default is kOn.
FastForwardMode fast_forward_mode();

/// Test override; pass-through to subsequent fast_forward_mode() calls.
void set_fast_forward_mode(FastForwardMode mode);

/// All hardware component models of one accelerator instance. The
/// bundle persists across phases of a layer so the unified buffer and
/// the LSQ keep their contents between combination and aggregation
/// (Sections III and IV-B).
class MemorySystem {
 public:
  /// Builds every component from the hardware parameters in `config`.
  explicit MemorySystem(const AcceleratorConfig& config);

  /// The hardware parameters this instance was built from.
  const AcceleratorConfig& config() const { return config_; }
  /// Mutable cycle/traffic counters of the current run.
  SimStats& stats() { return stats_; }
  /// Cycle/traffic counters of the current run.
  const SimStats& stats() const { return stats_; }
  /// The counters with `cycles` set to the current clock, for phase
  /// and band deltas (stats_delta).
  SimStats snapshot() const {
    SimStats s = stats_;
    s.cycles = now();
    return s;
  }
  /// Region allocator mapping operands to address ranges.
  AddressMap& address_map() { return address_map_; }
  /// Off-chip memory model.
  Dram& dram() { return dram_; }
  /// Off-chip memory model.
  const Dram& dram() const { return dram_; }
  /// Unified on-chip dense-matrix buffer.
  DenseMatrixBuffer& dmb() { return dmb_; }
  /// Unified on-chip dense-matrix buffer.
  const DenseMatrixBuffer& dmb() const { return dmb_; }
  /// Load/store queue in front of the DMB and DRAM.
  LoadStoreQueue& lsq() { return lsq_; }
  /// Load/store queue in front of the DMB and DRAM.
  const LoadStoreQueue& lsq() const { return lsq_; }
  /// Sparse-matrix queue streaming non-zeros to the engines.
  SparseMatrixQueue& smq() { return smq_; }
  /// Sparse-matrix queue streaming non-zeros to the engines.
  const SparseMatrixQueue& smq() const { return smq_; }
  /// PE array issue model.
  PeArray& pe() { return pe_; }

  /// Current simulated cycle.
  Cycle now() const { return now_; }

  /// Wires the observability context into every component model and
  /// starts counter-track sampling. nullptr detaches. Attaching never
  /// changes timing: hooks only read simulator state.
  void attach_observer(Observer* obs);
  /// The attached observer, or nullptr.
  Observer* observer() const { return obs_; }

  /// Delivers completions / retries / drains for the current cycle.
  /// The phase loop calls this before the engine's tick.
  void tick_components();

  /// True when none of the component ticks at the current cycle made
  /// an observable state change — together with an engine that made no
  /// progress, the precondition for fast-forwarding.
  bool components_quiescent() const {
    return !dram_.ticked_active() && !dmb_.ticked_active() &&
           !lsq_.ticked_active() && !smq_.ticked_active();
  }

  /// Earliest future cycle at which any component changes state on its
  /// own (kNoEvent when nothing is scheduled).
  Cycle next_component_event() const {
    return std::min(std::min(dram_.next_event(now_), dmb_.next_event(now_)),
                    std::min(lsq_.next_event(now_), smq_.next_event(now_)));
  }

  /// Jumps the clock from just after the current (already accounted)
  /// cycle straight to `target`, bulk-charging the skipped span to
  /// `cause`, replaying the periodic footprint samples the span would
  /// have taken (the footprint is constant across a quiescent span)
  /// and emitting one aggregated observer sample in place of the
  /// per-cycle ones. Preserves sum(stall buckets) == cycles.
  void fast_forward_to(Cycle target, StallCause cause);

  /// Forces a counter-track sample right now (end of a phase, so the
  /// final cumulative stall buckets reach the gauges and the trace).
  /// Reads state only; never advances or mutates the simulation.
  void sample_observer();

  /// Snapshot of the current component state for the windowed
  /// time-series (obs/timeseries.hpp). Pure read; the sampler calls it
  /// at due cycles and the fast-forward replay derives skipped-span
  /// samples from it.
  TimeSeriesSample timeseries_sample() const;

  /// Advances to the next cycle.
  void advance() { ++now_; }

  /// Warm-state checkpointing (sim/checkpoint.hpp): serializes the
  /// clock, the stats counters and every component's dynamic state.
  /// The address map is NOT serialized — restore requires a
  /// MemorySystem built from the same config whose regions were
  /// allocated in the same order with the same sizes, which the
  /// checkpoint key guarantees for the combination phase. Restoring
  /// must happen before an observer is attached (checkpointed runs are
  /// observer-free by construction; see Accelerator::run_layer).
  void save_state(StateWriter& w) const;
  /// Restores state saved by save_state; see its contract.
  void load_state(StateReader& r);

 private:
  AcceleratorConfig config_;
  SimStats stats_;
  AddressMap address_map_;
  Dram dram_;
  DenseMatrixBuffer dmb_;
  LoadStoreQueue lsq_;
  SparseMatrixQueue smq_;
  PeArray pe_;
  Cycle now_ = 0;
  Observer* obs_ = nullptr;
  Cycle obs_next_sample_ = 0;
};

/// A dataflow engine: one phase of SpDeMM work expressed as a
/// per-cycle state machine.
class Engine {
 public:
  virtual ~Engine() = default;

  /// All work retired and all queues the engine owns are empty.
  virtual bool done(const MemorySystem& ms) const = 0;

  /// One cycle of engine work at ms.now().
  virtual void tick(MemorySystem& ms) = 0;

  /// Cycle accounting: what the cycle just ticked was spent on. The
  /// phase loop records exactly one cause per cycle, so per-phase
  /// bucket sums equal per-phase cycle counts by construction.
  virtual StallCause cycle_cause() const = 0;

  /// Fast-forward contract (DESIGN.md section 5f). quiescent() is true
  /// when the tick that just ran made zero observable state changes
  /// AND the next tick is guaranteed to repeat that outcome until a
  /// component event or engine event arrives. Engines must return
  /// false whenever they are blocked on a predicate that flips with
  /// bare time (e.g. PeArray::can_issue). The default keeps unported
  /// engines on the legacy cycle-by-cycle path.
  virtual bool quiescent() const { return false; }

  /// Earliest future cycle at which the engine's own timers fire
  /// (kNoEvent when it has none); component events are tracked by the
  /// MemorySystem separately.
  virtual Cycle next_event(Cycle now) const {
    (void)now;
    return kNoEvent;
  }
};

/// Maps a blocked load's wait state to the stall bucket it charges.
/// kReady maps to kDmbMiss: the data arrived this very cycle but the
/// engine observed the pre-tick state — a pipeline ramp bubble charged
/// to the buffer that delayed it.
inline StallCause stall_cause_for(LoadStoreQueue::LoadWait wait) {
  switch (wait) {
    case LoadStoreQueue::LoadWait::kDramFill:
      return StallCause::kDramLatency;
    case LoadStoreQueue::LoadWait::kUnissued:
      return StallCause::kDramBandwidth;
    case LoadStoreQueue::LoadWait::kDmbPending:
    case LoadStoreQueue::LoadWait::kReady:
      return StallCause::kDmbMiss;
  }
  return StallCause::kDmbMiss;
}

/// Runs `engine` until done (plus store/DRAM drain). Throws CheckError
/// when max_cycles elapse first — a hung engine is a bug, not a slow
/// workload. Returns the cycles consumed by this phase.
///
/// Under FastForwardMode::kOn, whole stall spans where the engine and
/// every component are quiescent are jumped in one step; cycle counts,
/// stall vectors and DRAM byte counters are bit-identical to the
/// legacy loop (enforced by tests/test_fastforward.cpp and the
/// HYMM_FASTFWD_CHECK CI leg).
Cycle run_phase(MemorySystem& ms, Engine& engine,
                Cycle max_cycles = 2'000'000'000);

}  // namespace hymm
