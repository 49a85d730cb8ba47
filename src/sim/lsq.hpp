// Load/Store Queue (paper Section IV-B): 128 entries shared by loads
// and stores, store-to-load forwarding for XW produced by the
// combination phase, and latency hiding — younger loads proceed while
// a missed load waits. Store ordering is not tracked (output
// addresses are unique in SpDeMM).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "sim/dmb.hpp"
#include "sim/stats.hpp"

namespace hymm {

// How a store drains into the memory system.
enum class StoreKind {
  kThrough,     // stream to DRAM (final output rows, spill records)
  kAllocate,    // write-allocate in the DMB (combination XW rows)
  kAccumulate,  // near-memory accumulator merge (partial outputs)
};

class Observer;
class StateReader;
class StateWriter;

class LoadStoreQueue {
 public:
  using EntryId = std::uint64_t;

  LoadStoreQueue(const AcceleratorConfig& config, DenseMatrixBuffer& dmb,
                 SimStats& stats);

  // Warm-state checkpointing (sim/checkpoint.hpp): serializes /
  // restores entries, retry descriptors, the store queue and the
  // store-to-load forwarding window (which persists across phases and
  // feeds aggregation-phase forwards). Restore requires a queue built
  // from the same config and the already-restored companion DMB.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

  // Attaches the observability context (read-only hooks; nullptr
  // detaches).
  void set_observer(Observer* obs) { obs_ = obs; }

  // Free entries right now (loads waiting for data + undrained
  // stores both occupy entries).
  std::size_t free_entries() const;

  // Allocates a load entry. Forwarded loads (line matches an
  // undrained store) are ready immediately. Returns nullopt when the
  // queue is full.
  std::optional<EntryId> load(Addr line, TrafficClass cls, Cycle now);

  bool is_ready(EntryId id) const;

  // Why a load entry is (not) ready — drives the engines' cycle
  // accounting. Read-only; never changes timing.
  enum class LoadWait {
    kReady,     // data available this cycle
    kDramFill,  // DMB miss fill in flight from DRAM
    kDmbPending,  // inside the DMB pipeline (hit latency / prefetch)
    kUnissued,  // rejected by the DMB (MSHRs or DRAM read queue full)
  };
  LoadWait load_wait_state(EntryId id) const;

  // Frees a ready load entry after its data was consumed.
  void release_load(EntryId id);

  // Allocates a store entry; stores drain one per cycle. Returns
  // false when the queue is full.
  bool store(Addr line, TrafficClass cls, StoreKind kind, Cycle now);

  // Progress: collect DMB readiness, retry rejected loads, drain one
  // store. Call once per cycle after DenseMatrixBuffer::tick().
  //
  // Retries are event-driven but behave as if every parked load were
  // re-read in id order each tick. A rejected load carries a proof
  // that its line is absent from the DMB; the DMB's join journal
  // (DenseMatrixBuffer::join_epoch) names every line that may have
  // joined a directory since, and only those loads and never-retried
  // ones are read again. Proven-absent loads are read only while the
  // DMB can allocate a miss. Each load still parked after the step
  // counts as one reject for the `lsq.load_rejects` observer counter,
  // so the counter depends on which cycles are ticked (fast-forward
  // mode), not on how the retry is implemented.
  void tick(Cycle now);

  // True when the last tick() changed observable state (marked a load
  // ready, got a retried load accepted, or drained a store). Failed
  // retries and blocked store drains are pure no-ops and repeat
  // identically until a DRAM/DMB event, so they do not count.
  bool ticked_active() const { return tick_active_; }

  // The queue holds no internal timers: every state change is driven
  // by the DMB/DRAM events or by engine action.
  Cycle next_event(Cycle now) const {
    (void)now;
    return kNoEvent;
  }

  bool all_stores_drained() const { return store_queue_.empty(); }
  std::size_t pending_loads() const { return load_entries_.size(); }
  std::size_t pending_stores() const { return store_queue_.size(); }

 private:
  struct LoadEntry {
    Addr line = 0;
    TrafficClass cls = TrafficClass::kCombined;
    Cycle issue_cycle = 0;  // allocation cycle, for latency histograms
    bool issued = false;    // accepted by the DMB
    bool ready = false;
  };

  struct StoreEntry {
    Addr line = 0;
    TrafficClass cls = TrafficClass::kOutput;
    StoreKind kind = StoreKind::kThrough;
  };

  std::size_t capacity_;
  bool forwarding_;

  // A load the DMB has not accepted yet. parked_ holds them in
  // allocation (id) order — the order retries reach the DMB, which
  // fixes hit order and so LRU recency. An accepted load stays behind
  // as a tombstone until the next compaction.
  struct ParkedLoad {
    EntryId id = 0;
    Addr line = 0;
    TrafficClass cls = TrafficClass::kCombined;
    // True when no valid absence proof covers `line`: the load has
    // never been retried, or its line joined a DMB directory since its
    // last reject. Such a load needs a full DenseMatrixBuffer::read()
    // and may hit; any other parked load is rejected for as long as
    // the DMB cannot allocate a miss.
    bool probe = true;
    bool accepted = false;
  };

  // Out-of-line parts of the retry step (tick step 2): reads after a
  // reject, journal restart, and bookkeeping for loads left parked.
  void retry_probes_after_reject(Cycle now);
  void restart_journal();
  void finish_with_parked_loads();
  // Applies the DMB join journal since seen_epoch_: flags every parked
  // load whose line joined a directory.
  void note_joins();
  void flag_joined_lines();
  void flag_probe(ParkedLoad& p);
  // Full read of a `probe` load once the DMB cannot allocate a miss.
  void retry_probe(ParkedLoad& p, Cycle now);
  // Records the absence proof a reject gave p.
  void note_reject(ParkedLoad& p);
  ParkedLoad& parked(EntryId id);
  void accept(ParkedLoad& p);
  void unindex(const ParkedLoad& p);  // drops p from parked_by_line_

  EntryId next_id_ = 1;
  FlatMap<LoadEntry> load_entries_;
  std::vector<ParkedLoad> parked_;
  std::size_t parked_head_ = 0;  // parked_[0, head) are all tombstones
  std::size_t parked_live_ = 0;
  // Ids of the parked loads rejected at least once (between ticks,
  // exactly those older than fresh_from_), by line, for note_joins().
  // A load that has never been retried needs a full read anyway.
  FlatMap<SmallVec<EntryId, 2>> parked_by_line_;
  // Ids of the rejected-before parked loads flagged `probe` since the
  // last retry step, unsorted (never-retried loads are the tail of
  // parked_ from fresh_from_ on).
  std::vector<EntryId> probe_ids_;
  // Join epoch up to which note_joins() has run (kept while
  // parked_by_line_ is not empty).
  std::uint64_t seen_epoch_ = 0;
  // Every load older than fresh_from_ that is still parked was
  // rejected by the last retry step, which proved its line absent at
  // join epoch retry_epoch_. Kept for the checkpoint format.
  EntryId fresh_from_ = 1;
  std::uint64_t retry_epoch_ = 0;
  bool tick_active_ = false;
  std::deque<StoreEntry> store_queue_;
  // Store-to-load forwarding window: the last `capacity_` stored
  // lines. Section IV-B forwards from any matching entry — the store
  // need not still be pending, only not yet replaced. SpDeMM output
  // addresses are written once, so stale-data hazards cannot arise.
  std::deque<Addr> forward_fifo_;
  FlatMap<std::uint32_t> forward_lines_;

  DenseMatrixBuffer& dmb_;
  SimStats& stats_;
  Observer* obs_ = nullptr;
};

}  // namespace hymm
