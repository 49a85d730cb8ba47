#include "sim/lsq.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/hooks.hpp"
#include "sim/checkpoint.hpp"

namespace hymm {

namespace {

// Checkpoint marker for a parked load that has not been retried yet.
constexpr std::uint64_t kNeverProven = ~std::uint64_t{0};

}  // namespace

LoadStoreQueue::LoadStoreQueue(const AcceleratorConfig& config,
                               DenseMatrixBuffer& dmb, SimStats& stats)
    : capacity_(config.lsq_entries),
      forwarding_(config.lsq_store_to_load_forwarding),
      dmb_(dmb),
      stats_(stats) {
  load_entries_.reserve(capacity_ * 2);
  parked_.reserve(capacity_ * 2);
}

std::size_t LoadStoreQueue::free_entries() const {
  const std::size_t used = load_entries_.size() + store_queue_.size();
  return used >= capacity_ ? 0 : capacity_ - used;
}

std::optional<LoadStoreQueue::EntryId> LoadStoreQueue::load(Addr line,
                                                            TrafficClass cls,
                                                            Cycle now) {
  if (free_entries() == 0) return std::nullopt;
  ++stats_.lsq_loads;
  const EntryId id = next_id_++;
  LoadEntry entry;
  entry.line = line;
  entry.cls = cls;
  entry.issue_cycle = now;
  if (forwarding_ && forward_lines_.contains(line)) {
    // A store entry for this line exists (pending or already
    // drained): forward its data without touching the memory system
    // (Section IV-B).
    ++stats_.lsq_forwards;
    HYMM_OBS(obs_, on_lsq_forward());
    entry.issued = true;
    entry.ready = true;
  } else {
    parked_.push_back(ParkedLoad{id, line, cls});
    ++parked_live_;
  }
  load_entries_.emplace(id, entry);
  return id;
}

bool LoadStoreQueue::is_ready(EntryId id) const {
  const LoadEntry* entry = load_entries_.find(id);
  HYMM_DCHECK(entry != nullptr);
  return entry != nullptr && entry->ready;
}

LoadStoreQueue::LoadWait LoadStoreQueue::load_wait_state(EntryId id) const {
  const LoadEntry* entry = load_entries_.find(id);
  HYMM_DCHECK(entry != nullptr);
  if (entry == nullptr || entry->ready) return LoadWait::kReady;
  if (!entry->issued) return LoadWait::kUnissued;
  if (dmb_.has_pending_miss_for(entry->line)) return LoadWait::kDramFill;
  return LoadWait::kDmbPending;
}

void LoadStoreQueue::release_load(EntryId id) {
  const LoadEntry* entry = load_entries_.find(id);
  HYMM_CHECK_MSG(entry != nullptr, "releasing unknown LSQ entry");
  HYMM_CHECK_MSG(entry->ready, "releasing a load that is not ready");
  load_entries_.erase(id);
}

bool LoadStoreQueue::store(Addr line, TrafficClass cls, StoreKind kind,
                           Cycle now) {
  (void)now;
  if (free_entries() == 0) return false;
  ++stats_.lsq_stores;
  store_queue_.push_back(StoreEntry{line, cls, kind});
  ++forward_lines_[line];
  forward_fifo_.push_back(line);
  while (forward_fifo_.size() > capacity_) {
    const Addr oldest = forward_fifo_.front();
    forward_fifo_.pop_front();
    std::uint32_t* count = forward_lines_.find(oldest);
    HYMM_DCHECK(count != nullptr);
    if (--*count == 0) forward_lines_.erase(oldest);
  }
  return true;
}

LoadStoreQueue::ParkedLoad& LoadStoreQueue::parked(EntryId id) {
  const auto it = std::lower_bound(
      parked_.begin() + static_cast<std::ptrdiff_t>(parked_head_),
      parked_.end(), id,
      [](const ParkedLoad& p, EntryId key) { return p.id < key; });
  HYMM_DCHECK(it != parked_.end() && it->id == id);
  return *it;
}

void LoadStoreQueue::flag_probe(ParkedLoad& p) {
  if (p.probe) return;
  p.probe = true;
  probe_ids_.push_back(p.id);
}

void LoadStoreQueue::flag_joined_lines() {
  for (const Addr line : dmb_.joins_since(seen_epoch_)) {
    const SmallVec<EntryId, 2>* ids = parked_by_line_.find(line);
    if (ids == nullptr) continue;
    for (const EntryId id : *ids) flag_probe(parked(id));
  }
  seen_epoch_ = dmb_.join_epoch();
}

inline void LoadStoreQueue::note_joins() {
  // Only loads in parked_by_line_ hold proofs, and the DMB lists joins
  // exactly while that index is not empty.
  if (!parked_by_line_.empty()) flag_joined_lines();
}

void LoadStoreQueue::unindex(const ParkedLoad& p) {
  SmallVec<EntryId, 2>& ids = *parked_by_line_.find(p.line);
  ids.erase_unordered(p.id);
  if (ids.empty()) parked_by_line_.erase(p.line);
}

inline void LoadStoreQueue::accept(ParkedLoad& p) {
  p.accepted = true;
  --parked_live_;
  if (p.id < fresh_from_) unindex(p);
  load_entries_.at(p.id).issued = true;
  tick_active_ = true;
}

void LoadStoreQueue::note_reject(ParkedLoad& p) {
  // The reject proves the line absent; a first reject also indexes the
  // load for note_joins().
  if (p.id >= fresh_from_) parked_by_line_[p.line].push_back(p.id);
  p.probe = false;
}

void LoadStoreQueue::retry_probe(ParkedLoad& p, Cycle now) {
  if (dmb_.read(p.line, p.cls, p.id, now) ==
      DenseMatrixBuffer::ReadResult::kReject) {
    note_reject(p);
  } else {
    accept(p);
  }
}

void LoadStoreQueue::retry_probes_after_reject(Cycle now) {
  ParkedLoad& rejected = parked_[parked_head_];
  note_reject(rejected);
  // The flagged loads, then the never-retried ones: younger than any
  // flagged load, they form the tail of parked_.
  std::sort(probe_ids_.begin(), probe_ids_.end());
  for (const EntryId id : probe_ids_) {
    if (id > rejected.id) retry_probe(parked(id), now);
  }
  probe_ids_.clear();
  auto fresh = std::lower_bound(
      parked_.begin() + static_cast<std::ptrdiff_t>(parked_head_) + 1,
      parked_.end(), fresh_from_,
      [](const ParkedLoad& p, EntryId key) { return p.id < key; });
  for (; fresh != parked_.end(); ++fresh) retry_probe(*fresh, now);
}

void LoadStoreQueue::restart_journal() {
  const bool listing = !parked_by_line_.empty();
  dmb_.reset_journal(listing);
  seen_epoch_ = dmb_.join_epoch();
  // Flags raised this step were all served: a load accepted in the
  // prefix or read after the reject.
  probe_ids_.clear();
}

void LoadStoreQueue::finish_with_parked_loads() {
  HYMM_OBS(obs_, on_lsq_rejects(parked_live_));
  retry_epoch_ = dmb_.join_epoch();
  fresh_from_ = next_id_;
  // Drop tombstones once they outnumber the live loads.
  if (parked_.size() - parked_live_ > parked_live_) {
    std::erase_if(parked_, [](const ParkedLoad& p) { return p.accepted; });
    parked_head_ = 0;
  }
}

void LoadStoreQueue::tick(Cycle now) {
  tick_active_ = false;
  // 1. Data arriving from the DMB.
  for (const std::uint64_t tag : dmb_.ready_waiters()) {
    LoadEntry* entry = load_entries_.find(tag);
    // The waiter may have been forwarded-and-released already only if
    // ids were reused — they are not, so it must exist.
    if (entry != nullptr) {
      entry->ready = true;
      tick_active_ = true;
      // Allocation -> ready latency; forwarded loads never pass
      // through here (they are born ready).
      HYMM_OBS(obs_, observe_load_latency(now - entry->issue_cycle));
    }
  }

  // 2. Issue loads to the DMB (retrying ones it rejected earlier), in
  // id order, with outcomes identical to calling
  // DenseMatrixBuffer::read() on each parked load. Until the DMB
  // rejects one, every parked load is accepted (a hit, a piggyback or
  // a new miss), so that prefix costs one read per accepted load. A
  // reject means the DMB cannot allocate a miss, and nothing frees an
  // MSHR or DRAM read slot within a tick, so after it a load whose line
  // is still proven absent would be rejected without side effects:
  // only `probe` loads are read. A tick with no free slot, no fresh
  // load and no join reads nothing. The common path (every parked load
  // accepted) stays inline here.
  if (!parked_.empty()) {
    note_joins();
    std::size_t i = parked_head_;
    for (; i < parked_.size(); ++i) {
      ParkedLoad& p = parked_[i];
      if (p.accepted) continue;
      // A proven-absent line needs a free slot; no read tells more.
      if (!p.probe && !dmb_.can_allocate_miss()) break;
      const auto result = p.probe ? dmb_.read(p.line, p.cls, p.id, now)
                                  : dmb_.read_absent(p.line, p.cls, p.id, now);
      if (result == DenseMatrixBuffer::ReadResult::kReject) break;
      accept(p);
      // A new MSHR lets younger loads of the same line piggyback.
      if (result == DenseMatrixBuffer::ReadResult::kMiss) note_joins();
    }
    parked_head_ = i;
    if (i < parked_.size()) retry_probes_after_reject(now);
    // The DMB lists joins while some load holds a proof. Reads after
    // the prefix joined nothing, so no listed join is left unread.
    if (!parked_by_line_.empty() || dmb_.listing_joins()) restart_journal();
    if (parked_live_ == 0) {
      // Later loads are fresh whatever fresh_from_ says.
      parked_.clear();
      parked_head_ = 0;
    } else {
      finish_with_parked_loads();
    }
  }

  // 3. Drain one store per cycle.
  if (!store_queue_.empty()) {
    const StoreEntry& s = store_queue_.front();
    bool done = true;
    switch (s.kind) {
      case StoreKind::kThrough:
        done = dmb_.write_through(s.line, s.cls, now);
        break;
      case StoreKind::kAllocate:
        done = dmb_.write_allocate(s.line, s.cls, now);
        break;
      case StoreKind::kAccumulate:
        done = dmb_.accumulate(s.line, now);
        break;
    }
    if (done) {
      store_queue_.pop_front();
      tick_active_ = true;
    }
  }
}

void LoadStoreQueue::save_state(StateWriter& w) const {
  w.put_u64(next_id_);
  // FlatMap iteration order is unspecified; serialize entries sorted
  // by id so identical logical states produce identical bytes.
  std::vector<std::pair<EntryId, LoadEntry>> loads;
  loads.reserve(load_entries_.size());
  load_entries_.for_each([&loads](std::uint64_t id, const LoadEntry& e) {
    loads.emplace_back(id, e);
  });
  std::sort(loads.begin(), loads.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.put_u64(loads.size());
  for (const auto& [id, e] : loads) {
    w.put_u64(id);
    w.put_u64(e.line);
    w.put_u8(static_cast<std::uint8_t>(e.cls));
    w.put_u64(e.issue_cycle);
    w.put_bool(e.issued);
    w.put_bool(e.ready);
  }
  w.put_u64(parked_live_);
  for (std::size_t i = parked_head_; i < parked_.size(); ++i) {
    const ParkedLoad& p = parked_[i];
    if (p.accepted) continue;
    w.put_u64(p.id);
    w.put_u64(p.line);
    w.put_u8(static_cast<std::uint8_t>(p.cls));
    // The join epoch of the load's absence proof.
    w.put_u64(p.id < fresh_from_ ? retry_epoch_ : kNeverProven);
  }
  w.put_u64(store_queue_.size());
  for (const StoreEntry& s : store_queue_) {
    w.put_u64(s.line);
    w.put_u8(static_cast<std::uint8_t>(s.cls));
    w.put_u8(static_cast<std::uint8_t>(s.kind));
  }
  // The forwarding window's line-count map is derived state: it is
  // rebuilt from the FIFO on restore.
  w.put_u64(forward_fifo_.size());
  for (const Addr line : forward_fifo_) w.put_u64(line);
}

void LoadStoreQueue::load_state(StateReader& r) {
  next_id_ = r.get_u64();
  load_entries_.clear();
  const std::uint64_t load_count = r.get_u64();
  load_entries_.reserve(load_count);
  for (std::uint64_t i = 0; i < load_count; ++i) {
    const EntryId id = r.get_u64();
    LoadEntry e;
    e.line = r.get_u64();
    e.cls = static_cast<TrafficClass>(r.get_u8());
    e.issue_cycle = r.get_u64();
    e.issued = r.get_bool();
    e.ready = r.get_bool();
    load_entries_.emplace(id, e);
  }
  parked_.clear();
  parked_by_line_.clear();
  probe_ids_.clear();
  parked_head_ = 0;
  fresh_from_ = next_id_;
  const std::uint64_t parked_count = r.get_u64();
  for (std::uint64_t i = 0; i < parked_count; ++i) {
    ParkedLoad p;
    p.id = r.get_u64();
    p.line = r.get_u64();
    p.cls = static_cast<TrafficClass>(r.get_u8());
    const std::uint64_t proof = r.get_u64();
    if (proof == kNeverProven) {
      fresh_from_ = std::min(fresh_from_, p.id);
    } else {
      HYMM_CHECK_MSG(p.id < fresh_from_ && (i == 0 || proof == retry_epoch_),
                     "inconsistent LSQ retry state in checkpoint");
      retry_epoch_ = proof;
    }
    // The restored DMB journal starts at the saved epoch: only a proof
    // taken at that epoch is still known to hold.
    p.probe = proof != dmb_.journal_floor();
    if (p.id < fresh_from_) {
      parked_by_line_[p.line].push_back(p.id);
      if (p.probe) probe_ids_.push_back(p.id);
    }
    parked_.push_back(p);
  }
  parked_live_ = parked_.size();
  seen_epoch_ = dmb_.join_epoch();
  dmb_.reset_journal(/*listing=*/!parked_by_line_.empty());
  store_queue_.clear();
  const std::uint64_t store_count = r.get_u64();
  for (std::uint64_t i = 0; i < store_count; ++i) {
    StoreEntry s;
    s.line = r.get_u64();
    s.cls = static_cast<TrafficClass>(r.get_u8());
    s.kind = static_cast<StoreKind>(r.get_u8());
    store_queue_.push_back(s);
  }
  forward_fifo_.clear();
  forward_lines_.clear();
  const std::uint64_t fifo_count = r.get_u64();
  for (std::uint64_t i = 0; i < fifo_count; ++i) {
    const Addr line = r.get_u64();
    forward_fifo_.push_back(line);
    ++forward_lines_[line];
  }
  tick_active_ = false;
}

}  // namespace hymm
