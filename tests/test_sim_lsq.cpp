// Tests for the Load/Store Queue: capacity, store-to-load
// forwarding, store draining, miss latency hiding and the
// event-driven retry of loads the DMB rejected.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "obs/observer.hpp"
#include "sim/checkpoint.hpp"
#include "sim/lsq.hpp"

namespace hymm {
namespace {

struct Fixture {
  explicit Fixture(std::size_t entries = 8, bool forwarding = true,
                   std::size_t mshrs = 16) {
    config.lsq_entries = entries;
    config.lsq_store_to_load_forwarding = forwarding;
    config.dmb_mshr_entries = mshrs;
    config.dram_latency = 10;
    config.dmb_hit_latency = 2;
    config.dmb_bytes = 16 * kLineBytes;
    dram = std::make_unique<Dram>(config, stats);
    dmb = std::make_unique<DenseMatrixBuffer>(config, *dram, stats);
    lsq = std::make_unique<LoadStoreQueue>(config, *dmb, stats);
  }

  void step(Cycle t) {
    dram->tick(t);
    dmb->tick(t);
    lsq->tick(t);
  }

  // step() that also returns the DMB waiters that became ready this
  // cycle, in delivery order.
  std::vector<std::uint64_t> step_ready(Cycle t) {
    dram->tick(t);
    dmb->tick(t);
    std::vector<std::uint64_t> ready = dmb->ready_waiters();
    lsq->tick(t);
    return ready;
  }

  LoadStoreQueue::LoadWait wait(LoadStoreQueue::EntryId id) const {
    return lsq->load_wait_state(id);
  }

  void save(StateWriter& w) const {
    dram->save_state(w);
    dmb->save_state(w);
    lsq->save_state(w);
  }

  void restore(const std::vector<std::byte>& bytes) {
    StateReader r(bytes.data(), bytes.size());
    dram->load_state(r);
    dmb->load_state(r);
    lsq->load_state(r);
    ASSERT_TRUE(r.exhausted());
  }

  Cycle run_until_ready(LoadStoreQueue::EntryId id, Cycle from,
                        Cycle limit = 100) {
    for (Cycle t = from; t < from + limit; ++t) {
      step(t);
      if (lsq->is_ready(id)) return t;
    }
    ADD_FAILURE() << "load " << id << " never ready";
    return 0;
  }

  AcceleratorConfig config;
  SimStats stats;
  std::unique_ptr<Dram> dram;
  std::unique_ptr<DenseMatrixBuffer> dmb;
  std::unique_ptr<LoadStoreQueue> lsq;
};

constexpr Addr L(std::uint64_t i) { return 0x1000 + i * kLineBytes; }

TEST(Lsq, LoadMissCompletesThroughDmb) {
  Fixture f;
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(f.lsq->is_ready(*id));
  const Cycle done = f.run_until_ready(*id, 0);
  EXPECT_GE(done, f.config.dram_latency);
  f.lsq->release_load(*id);
  EXPECT_EQ(f.lsq->pending_loads(), 0u);
}

TEST(Lsq, CapacitySharedBetweenLoadsAndStores) {
  Fixture f(/*entries=*/4);
  EXPECT_TRUE(f.lsq->store(L(0), TrafficClass::kOutput,
                           StoreKind::kThrough, 0));
  EXPECT_TRUE(f.lsq->store(L(1), TrafficClass::kOutput,
                           StoreKind::kThrough, 0));
  auto a = f.lsq->load(L(2), TrafficClass::kCombined, 0);
  auto b = f.lsq->load(L(3), TrafficClass::kCombined, 0);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(f.lsq->free_entries(), 0u);
  EXPECT_FALSE(f.lsq->load(L(4), TrafficClass::kCombined, 0).has_value());
  EXPECT_FALSE(f.lsq->store(L(5), TrafficClass::kOutput,
                            StoreKind::kThrough, 0));
}

TEST(Lsq, StoreToLoadForwardingIsImmediate) {
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(f.lsq->is_ready(*id));  // no memory round trip
  EXPECT_EQ(f.stats.lsq_forwards, 1u);
  f.lsq->release_load(*id);
}

TEST(Lsq, ForwardingDisabledGoesToMemory) {
  Fixture f(/*entries=*/8, /*forwarding=*/false);
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(f.lsq->is_ready(*id));
  EXPECT_EQ(f.stats.lsq_forwards, 0u);
  // Store drains first tick and allocates the line, so the load hits.
  f.run_until_ready(*id, 0);
}

TEST(Lsq, ForwardingPersistsAfterDrainUntilReplaced) {
  // Section IV-B forwards from any matching LSQ entry; draining the
  // store does not invalidate it (output addresses are write-once).
  Fixture f(/*entries=*/4);
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  f.step(0);  // store drains into the DMB
  EXPECT_TRUE(f.lsq->all_stores_drained());
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(f.stats.lsq_forwards, 1u);
  EXPECT_TRUE(f.lsq->is_ready(*id));
  f.lsq->release_load(*id);

  // Four newer stores push L(0) out of the 4-entry forward window.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(f.lsq->store(L(i), TrafficClass::kOutput,
                             StoreKind::kThrough, 2));
    f.step(1 + i);
  }
  const auto later = f.lsq->load(L(0), TrafficClass::kCombined, 10);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(f.stats.lsq_forwards, 1u);  // no longer forwardable
  // But the DMB still holds the line, so it is a fast hit.
  const Cycle done = f.run_until_ready(*later, 10);
  EXPECT_LE(done, 10 + f.config.dmb_hit_latency + 1);
}

TEST(Lsq, StoresDrainOnePerCycle) {
  Fixture f;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.lsq->store(L(i), TrafficClass::kOutput,
                             StoreKind::kThrough, 0));
  }
  f.step(0);
  EXPECT_FALSE(f.lsq->all_stores_drained());
  f.step(1);
  f.step(2);
  EXPECT_TRUE(f.lsq->all_stores_drained());
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            3 * kLineBytes);
}

TEST(Lsq, YoungerLoadsOvertakeMissedLoads) {
  // Section IV-B: "While a missed load instruction waits ... subsequent
  // load instructions targeting addresses already present in the LSQ
  // can continue execution."
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(1), TrafficClass::kCombined,
                           StoreKind::kAllocate, 0));
  const auto slow = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  const auto fast = f.lsq->load(L(1), TrafficClass::kCombined, 0);
  ASSERT_TRUE(slow.has_value() && fast.has_value());
  EXPECT_TRUE(f.lsq->is_ready(*fast));   // forwarded immediately
  EXPECT_FALSE(f.lsq->is_ready(*slow));  // still in flight
}

TEST(Lsq, AccumulateStoreReachesAccumulator) {
  Fixture f;
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kPartial,
                           StoreKind::kAccumulate, 0));
  f.step(0);
  EXPECT_EQ(f.stats.dmb_accumulate_misses, 1u);  // allocated fresh
  ASSERT_TRUE(f.lsq->store(L(0), TrafficClass::kPartial,
                           StoreKind::kAccumulate, 1));
  f.step(1);
  EXPECT_EQ(f.stats.dmb_accumulate_hits, 1u);
}

TEST(Lsq, ReleaseUnknownOrUnreadyThrows) {
  Fixture f;
  EXPECT_THROW(f.lsq->release_load(999), CheckError);
  const auto id = f.lsq->load(L(0), TrafficClass::kCombined, 0);
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW(f.lsq->release_load(*id), CheckError);  // not ready yet
}

TEST(Lsq, CountsLoadsAndStores) {
  Fixture f;
  (void)f.lsq->load(L(0), TrafficClass::kCombined, 0);
  (void)f.lsq->store(L(1), TrafficClass::kOutput, StoreKind::kThrough, 0);
  EXPECT_EQ(f.stats.lsq_loads, 1u);
  EXPECT_EQ(f.stats.lsq_stores, 1u);
}

// --- Event-driven retry of DMB-rejected ("parked") loads ---

using LoadWait = LoadStoreQueue::LoadWait;
constexpr TrafficClass kCls = TrafficClass::kCombined;

// Ways a line can join a DMB directory without an MSHR.
enum class Join { kWriteAllocate, kAccumulate, kPrefetch, kPin };

void join_line(Fixture& f, Join kind, Addr line, Cycle now) {
  switch (kind) {
    case Join::kWriteAllocate:
      ASSERT_TRUE(f.dmb->write_allocate(line, kCls, now));
      break;
    case Join::kAccumulate:
      ASSERT_TRUE(f.dmb->accumulate(line, now));
      break;
    case Join::kPrefetch:
      ASSERT_TRUE(f.dmb->prefetch(line, kCls, now));
      break;
    case Join::kPin:
      ASSERT_TRUE(f.dmb->pin_partial(line, now));
      break;
  }
}

// Fills the only MSHR with L(0) at cycle 0, then parks loads of L(1)
// and L(2) at cycle 1 (rejected, so their lines are proven absent).
struct ParkedPair {
  explicit ParkedPair(Fixture& f) {
    a = *f.lsq->load(L(0), kCls, 0);
    f.step(0);
    b = *f.lsq->load(L(1), kCls, 1);
    c = *f.lsq->load(L(2), kCls, 1);
    f.step(1);
  }
  LoadStoreQueue::EntryId a = 0, b = 0, c = 0;
};

TEST(LsqParkedRetry, JoinedLinesHitWhileMshrsAreFullInIdOrder) {
  for (const Join kind : {Join::kWriteAllocate, Join::kAccumulate,
                          Join::kPrefetch, Join::kPin}) {
    SCOPED_TRACE(static_cast<int>(kind));
    Fixture f(/*entries=*/8, /*forwarding=*/false, /*mshrs=*/1);
    const ParkedPair p(f);  // a holds the MSHR; b, c parked
    const auto d = *f.lsq->load(L(3), kCls, 2);
    f.step(2);  // no slot, no join: b, c and d stay parked
    for (const auto id : {p.b, p.c, d}) {
      ASSERT_EQ(f.wait(id), LoadWait::kUnissued);
    }

    // The youngest load's line joins first; b's line does not join.
    join_line(f, kind, L(3), 3);
    join_line(f, kind, L(2), 3);
    const std::uint64_t hits = f.stats.dmb_read_hits;
    f.step(3);
    EXPECT_EQ(f.stats.dmb_read_hits, hits + 2);
    EXPECT_EQ(f.wait(p.a), LoadWait::kDramFill);  // MSHR still busy
    EXPECT_EQ(f.wait(p.b), LoadWait::kUnissued);
    EXPECT_EQ(f.wait(p.c), LoadWait::kDmbPending);
    EXPECT_EQ(f.wait(d), LoadWait::kDmbPending);

    std::vector<std::uint64_t> order;
    for (Cycle t = 4; t < 40 && order.size() < 3; ++t) {
      for (const std::uint64_t tag : f.step_ready(t)) order.push_back(tag);
    }
    // Hits on a prefetch wait for it to land, after the MSHR fill;
    // the other joins deliver them after the hit latency, before it.
    const std::vector<std::uint64_t> expected =
        kind == Join::kPrefetch ? std::vector<std::uint64_t>{p.a, p.c, d}
                                : std::vector<std::uint64_t>{p.c, d, p.a};
    EXPECT_EQ(order, expected);
  }
}

TEST(LsqParkedRetry, SameLineLoadsAllocateThenPiggybackInOneTick) {
  Fixture f(/*entries=*/8, /*forwarding=*/false, /*mshrs=*/1);
  const auto a = *f.lsq->load(L(0), kCls, 0);
  f.step(0);
  const auto b = *f.lsq->load(L(1), kCls, 1);
  const auto c = *f.lsq->load(L(1), kCls, 1);
  f.step(1);
  ASSERT_EQ(f.wait(b), LoadWait::kUnissued);
  ASSERT_EQ(f.wait(c), LoadWait::kUnissued);

  const std::uint64_t misses = f.stats.dmb_read_misses;
  const std::uint64_t read_bytes = f.stats.dram_read_bytes[
      static_cast<std::size_t>(kCls)];
  // The tick that frees the MSHR allocates it for b; c piggybacks.
  const Cycle freed = f.run_until_ready(a, 2);
  EXPECT_EQ(f.wait(b), LoadWait::kDramFill);
  EXPECT_EQ(f.wait(c), LoadWait::kDramFill);
  EXPECT_EQ(f.stats.dmb_read_misses, misses + 2);
  EXPECT_EQ(f.stats.dram_read_bytes[static_cast<std::size_t>(kCls)],
            read_bytes + kLineBytes);  // one fetch for both
  const Cycle b_ready = f.run_until_ready(b, freed + 1);
  EXPECT_TRUE(f.lsq->is_ready(c));
  EXPECT_GE(b_ready, freed + f.config.dram_latency);
}

TEST(LsqParkedRetry, CheckpointWithParkedLoadsResumesBitIdentically) {
  Fixture f(/*entries=*/8, /*forwarding=*/false, /*mshrs=*/1);
  const ParkedPair p(f);
  // Leave a fresh (never retried) load and an unread join behind.
  const auto d = *f.lsq->load(L(3), kCls, 2);
  ASSERT_TRUE(f.dmb->write_allocate(L(2), kCls, 2));

  StateWriter saved;
  f.save(saved);
  Fixture g(/*entries=*/8, /*forwarding=*/false, /*mshrs=*/1);
  g.restore(saved.bytes());
  StateWriter resaved;
  g.save(resaved);
  EXPECT_EQ(resaved.bytes(), saved.bytes());

  const std::uint64_t f_hits = f.stats.dmb_read_hits;
  const std::uint64_t f_misses = f.stats.dmb_read_misses;
  for (Cycle t = 2; t < 60; ++t) {
    if (t == 20) {
      ASSERT_TRUE(f.lsq->load(L(1), kCls, t).has_value());
      ASSERT_TRUE(g.lsq->load(L(1), kCls, t).has_value());
    }
    ASSERT_EQ(f.step_ready(t), g.step_ready(t)) << "cycle " << t;
    for (const auto id : {p.a, p.b, p.c, d}) {
      ASSERT_EQ(f.wait(id), g.wait(id)) << "cycle " << t << " id " << id;
    }
  }
  EXPECT_EQ(f.stats.dmb_read_hits - f_hits, g.stats.dmb_read_hits);
  EXPECT_EQ(f.stats.dmb_read_misses - f_misses, g.stats.dmb_read_misses);
  StateWriter f_end, g_end;
  f.save(f_end);
  g.save(g_end);
  EXPECT_EQ(f_end.bytes(), g_end.bytes());
}

TEST(LsqParkedRetry, RejectCounterCountsEveryParkedLoadPerTick) {
  Fixture f(/*entries=*/8, /*forwarding=*/false, /*mshrs=*/1);
  Observer obs;
  f.lsq->set_observer(&obs);
  const Counter& rejects = obs.metrics().counter("lsq.load_rejects");
  (void)*f.lsq->load(L(0), kCls, 0);
  f.step(0);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(f.lsq->load(L(i), kCls, 1).has_value());
  }
  // Ticks 1..5 reject all three parked loads; only the first one
  // probes the DMB, the rest take the no-change path.
  for (Cycle t = 1; t <= 5; ++t) f.step(t);
  EXPECT_EQ(rejects.value(), 15u);
}

}  // namespace
}  // namespace hymm
