// Tests for the Dense Matrix Buffer: hit/miss paths, MSHR behaviour,
// class-aware eviction, pinning, accumulation and footprint tracking.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "sim/checkpoint.hpp"
#include "sim/dmb.hpp"

namespace hymm {
namespace {

struct Fixture {
  explicit Fixture(std::size_t lines = 4, std::size_t mshrs = 2,
                   EvictionPolicy policy = EvictionPolicy::kLru) {
    config.dmb_bytes = lines * kLineBytes;
    config.dmb_mshr_entries = mshrs;
    config.dmb_hit_latency = 2;
    config.dram_latency = 10;
    config.eviction_policy = policy;
    dram = std::make_unique<Dram>(config, stats);
    dmb = std::make_unique<DenseMatrixBuffer>(config, *dram, stats);
  }

  // Runs one simulated cycle and returns the waiters that became
  // ready during it.
  std::vector<std::uint64_t> step(Cycle t) {
    dram->tick(t);
    dmb->tick(t);
    return dmb->ready_waiters();
  }

  // Steps until `tag` becomes ready (bounded); returns the cycle.
  Cycle wait_for(std::uint64_t tag, Cycle from, Cycle limit = 100) {
    for (Cycle t = from; t < from + limit; ++t) {
      for (const auto ready : step(t)) {
        if (ready == tag) return t;
      }
    }
    ADD_FAILURE() << "tag " << tag << " never became ready";
    return 0;
  }

  AcceleratorConfig config;
  SimStats stats;
  std::unique_ptr<Dram> dram;
  std::unique_ptr<DenseMatrixBuffer> dmb;
};

constexpr Addr L(std::uint64_t i) { return 0x1000 + i * kLineBytes; }

TEST(Dmb, MissThenHitLatency) {
  Fixture f;
  // Cold miss: DRAM latency applies.
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 7, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  const Cycle fill = f.wait_for(7, 0);
  EXPECT_GE(fill, f.config.dram_latency);
  // Now resident: hit latency applies.
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 8, fill),
            DenseMatrixBuffer::ReadResult::kHit);
  EXPECT_EQ(f.wait_for(8, fill + 1), fill + f.config.dmb_hit_latency);
  EXPECT_EQ(f.stats.dmb_read_hits, 1u);
  EXPECT_EQ(f.stats.dmb_read_misses, 1u);
}

TEST(Dmb, SecondaryMissPiggybacksOnMshr) {
  Fixture f;
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 1, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 2, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  // Both waiters complete with ONE DRAM read.
  std::vector<std::uint64_t> ready;
  for (Cycle t = 0; t < 30; ++t) {
    const auto r = f.step(t);
    ready.insert(ready.end(), r.begin(), r.end());
  }
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_EQ(f.stats.dram_read_bytes[static_cast<std::size_t>(
                TrafficClass::kCombined)],
            kLineBytes);
}

TEST(Dmb, MshrExhaustionRejects) {
  Fixture f(/*lines=*/4, /*mshrs=*/2);
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 1, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  EXPECT_EQ(f.dmb->read(L(1), TrafficClass::kCombined, 2, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  EXPECT_EQ(f.dmb->read(L(2), TrafficClass::kCombined, 3, 0),
            DenseMatrixBuffer::ReadResult::kReject);
  EXPECT_TRUE(f.dmb->has_pending_misses());
}

TEST(Dmb, PartialLinesOutliveDataLines) {
  // Section IV-D: eviction retains partial outputs; data lines (W,
  // XW, ...) are victimized first even when the partial is older.
  Fixture f(/*lines=*/2);
  ASSERT_TRUE(f.dmb->accumulate(L(0), 0));  // partial, oldest
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kWeights, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 1));
  EXPECT_TRUE(f.dmb->contains(L(0)));
  EXPECT_FALSE(f.dmb->contains(L(1)));
  EXPECT_TRUE(f.dmb->contains(L(2)));
  EXPECT_EQ(f.stats.dmb_evictions, 1u);
  EXPECT_EQ(f.stats.dmb_partial_spills, 0u);
}

TEST(Dmb, DataLinesShareOneLruAcrossClasses) {
  // The hot working set survives regardless of class: touching the
  // weights line makes the older combined line the victim.
  Fixture f(/*lines=*/2);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kWeights, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 1));
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kWeights, 9, 2),
            DenseMatrixBuffer::ReadResult::kHit);
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 3));
  EXPECT_TRUE(f.dmb->contains(L(0)));
  EXPECT_FALSE(f.dmb->contains(L(1)));
}

TEST(Dmb, DirtyEvictionStallsUnderWriteBackPressure) {
  AcceleratorConfig cfg;
  cfg.dmb_bytes = 1 * kLineBytes;
  cfg.dram_write_buffer_lines = 2;
  SimStats stats;
  Dram dram(cfg, stats);
  DenseMatrixBuffer dmb(cfg, dram, stats);
  // Saturate the write buffer.
  dram.issue_write(0x10000, TrafficClass::kOutput, 0);
  dram.issue_write(0x10040, TrafficClass::kOutput, 0);
  dram.issue_write(0x10080, TrafficClass::kOutput, 0);
  ASSERT_FALSE(dram.can_accept_write(0));
  ASSERT_TRUE(dmb.write_allocate(L(0), TrafficClass::kCombined, 0));
  // Evicting the dirty line would need a write slot: rejected now...
  EXPECT_FALSE(dmb.write_allocate(L(1), TrafficClass::kCombined, 0));
  // ...but succeeds once the channel catches up.
  EXPECT_TRUE(dmb.write_allocate(L(1), TrafficClass::kCombined, 10));
}

TEST(Dmb, DirtyEvictionWritesBack) {
  Fixture f(/*lines=*/1);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 1));
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kCombined)],
            kLineBytes);
}

TEST(Dmb, LruOrderWithinClass) {
  Fixture f(/*lines=*/2);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 1));
  // Touch L(0) so L(1) becomes the LRU victim.
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 9, 2),
            DenseMatrixBuffer::ReadResult::kHit);
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 3));
  EXPECT_TRUE(f.dmb->contains(L(0)));
  EXPECT_FALSE(f.dmb->contains(L(1)));
}

TEST(Dmb, FifoPolicyIgnoresTouches) {
  Fixture f(/*lines=*/2, /*mshrs=*/2, EvictionPolicy::kFifo);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 1));
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 9, 2),
            DenseMatrixBuffer::ReadResult::kHit);
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 3));
  // FIFO: the oldest insertion (L0) is evicted despite the touch.
  EXPECT_FALSE(f.dmb->contains(L(0)));
  EXPECT_TRUE(f.dmb->contains(L(1)));
}

TEST(Dmb, AccumulateHitMergesInPlace) {
  Fixture f;
  ASSERT_TRUE(f.dmb->accumulate(L(0), 0));  // allocates
  EXPECT_EQ(f.stats.dmb_accumulate_misses, 1u);
  EXPECT_EQ(f.stats.partial_bytes_now, kLineBytes);
  ASSERT_TRUE(f.dmb->accumulate(L(0), 1));  // merges
  EXPECT_EQ(f.stats.dmb_accumulate_hits, 1u);
  EXPECT_EQ(f.stats.merge_adds, 1u);
  EXPECT_EQ(f.stats.partial_bytes_now, kLineBytes);  // no growth
}

TEST(Dmb, PartialSpillCountedAndFootprintRetained) {
  Fixture f(/*lines=*/2);
  ASSERT_TRUE(f.dmb->accumulate(L(0), 0));
  ASSERT_TRUE(f.dmb->accumulate(L(1), 0));
  // Third partial evicts one of the first two (both dirty partials).
  ASSERT_TRUE(f.dmb->accumulate(L(2), 1));
  EXPECT_EQ(f.stats.dmb_partial_spills, 1u);
  EXPECT_EQ(f.stats.partial_bytes_now, 3 * kLineBytes);  // still live
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kPartial)],
            kLineBytes);
}

TEST(Dmb, PinnedLinesAreNeverEvicted) {
  Fixture f(/*lines=*/2);
  ASSERT_TRUE(f.dmb->pin_partial(L(0), 0));
  ASSERT_TRUE(f.dmb->pin_partial(L(1), 0));
  EXPECT_EQ(f.dmb->pinned_lines(), 2u);
  // Everything pinned: a new allocation must fail.
  EXPECT_FALSE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 1));
  // Accumulating into a pinned line keeps succeeding.
  EXPECT_TRUE(f.dmb->accumulate(L(0), 2));
  EXPECT_EQ(f.stats.dmb_accumulate_hits, 1u);
}

TEST(Dmb, UnpinWritesOutputsAndShrinksFootprint) {
  Fixture f(/*lines=*/4);
  ASSERT_TRUE(f.dmb->pin_partial(L(0), 0));
  ASSERT_TRUE(f.dmb->pin_partial(L(1), 0));
  EXPECT_EQ(f.stats.partial_bytes_now, 2 * kLineBytes);
  f.dmb->unpin_and_writeback_outputs(5);
  EXPECT_EQ(f.dmb->pinned_lines(), 0u);
  EXPECT_EQ(f.stats.partial_bytes_now, 0u);
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kOutput)],
            2 * kLineBytes);
  EXPECT_EQ(f.dmb->resident_lines(), 0u);
}

TEST(Dmb, WritebackOnePartialDrainsResidents) {
  Fixture f(/*lines=*/4);
  ASSERT_TRUE(f.dmb->accumulate(L(0), 0));
  ASSERT_TRUE(f.dmb->accumulate(L(1), 0));
  EXPECT_TRUE(f.dmb->writeback_one_partial(TrafficClass::kCombined, 1));
  EXPECT_TRUE(f.dmb->writeback_one_partial(TrafficClass::kCombined, 2));
  EXPECT_FALSE(f.dmb->writeback_one_partial(TrafficClass::kCombined, 3));
  EXPECT_EQ(f.stats.partial_bytes_now, 0u);
  EXPECT_EQ(f.stats.dram_write_bytes[static_cast<std::size_t>(
                TrafficClass::kCombined)],
            2 * kLineBytes);
}

TEST(Dmb, FillInstallsCleanLine) {
  Fixture f;
  f.dmb->read(L(0), TrafficClass::kWeights, 1, 0);
  f.wait_for(1, 0);
  EXPECT_TRUE(f.dmb->contains(L(0)));
  // Clean line: evicting it must not write back.
  f.dmb->reset_contents();
  EXPECT_EQ(f.stats.dram_total_write_bytes(), 0u);
}

TEST(Dmb, ResetRequiresUnpinned) {
  Fixture f;
  ASSERT_TRUE(f.dmb->pin_partial(L(0), 0));
  EXPECT_THROW(f.dmb->reset_contents(), CheckError);
  f.dmb->unpin_and_writeback_outputs(1);
  EXPECT_NO_THROW(f.dmb->reset_contents());
}

TEST(Dmb, PrefetchInstallsAfterLatencyWithoutMshr) {
  Fixture f(/*lines=*/4, /*mshrs=*/1);
  // Occupy the single MSHR with an unrelated miss.
  ASSERT_EQ(f.dmb->read(L(9), TrafficClass::kCombined, 1, 0),
            DenseMatrixBuffer::ReadResult::kMiss);
  // A prefetch still goes out (no MSHR needed).
  EXPECT_TRUE(f.dmb->prefetch(L(0), TrafficClass::kCombined, 0));
  // Duplicate prefetches are no-ops.
  EXPECT_FALSE(f.dmb->prefetch(L(0), TrafficClass::kCombined, 0));
  // A demand read of the prefetched line is treated as a hit whose
  // data arrives with the prefetch.
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 2, 1),
            DenseMatrixBuffer::ReadResult::kHit);
  const Cycle done = f.wait_for(2, 1);
  EXPECT_GE(done, f.config.dram_latency);
  EXPECT_TRUE(f.dmb->contains(L(0)));
  // Prefetching a resident line is a no-op.
  EXPECT_FALSE(f.dmb->prefetch(L(0), TrafficClass::kCombined, done));
}

TEST(Dmb, PrefetchCountsBandwidthBytes) {
  Fixture f;
  ASSERT_TRUE(f.dmb->prefetch(L(0), TrafficClass::kCombined, 0));
  EXPECT_EQ(f.stats.dram_read_bytes[static_cast<std::size_t>(
                TrafficClass::kCombined)],
            kLineBytes);
  // No double fetch on the demand access.
  f.dmb->read(L(0), TrafficClass::kCombined, 1, 0);
  EXPECT_EQ(f.stats.dram_read_bytes[static_cast<std::size_t>(
                TrafficClass::kCombined)],
            kLineBytes);
  EXPECT_EQ(f.stats.dmb_read_hits, 1u);
}

TEST(Dmb, DemoteClassMakesItsLinesVictimsFirst) {
  Fixture f(/*lines=*/3);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kWeights, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 1));
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kWeights, 2));
  // Without demotion, LRU would evict L(0); after demoting weights,
  // both weight lines go before the (older-than-L2) combined line.
  f.dmb->demote_class(TrafficClass::kWeights);
  ASSERT_TRUE(f.dmb->write_allocate(L(3), TrafficClass::kCombined, 3));
  ASSERT_TRUE(f.dmb->write_allocate(L(4), TrafficClass::kCombined, 4));
  EXPECT_FALSE(f.dmb->contains(L(0)));
  EXPECT_FALSE(f.dmb->contains(L(2)));
  EXPECT_TRUE(f.dmb->contains(L(1)));
}

TEST(Dmb, DemotePartialClassRejected) {
  Fixture f;
  EXPECT_THROW(f.dmb->demote_class(TrafficClass::kPartial), CheckError);
}

TEST(Dmb, FlushDirtyWritesEachDirtyLineOnce) {
  Fixture f(/*lines=*/4);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kWeights, 0));
  f.dmb->flush_dirty(1);
  EXPECT_EQ(f.stats.dram_total_write_bytes(), 2 * kLineBytes);
  // Second flush: nothing dirty anymore.
  f.dmb->flush_dirty(2);
  EXPECT_EQ(f.stats.dram_total_write_bytes(), 2 * kLineBytes);
}

std::vector<Addr> joins_after(const DenseMatrixBuffer& dmb,
                              std::uint64_t epoch) {
  const auto joins = dmb.joins_since(epoch);
  return {joins.begin(), joins.end()};
}

TEST(DmbJournal, ListsEveryKindOfJoinOnce) {
  Fixture f(/*lines=*/8, /*mshrs=*/2);
  f.dmb->reset_journal(/*listing=*/true);
  const std::uint64_t e0 = f.dmb->join_epoch();
  ASSERT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 1, 0),
            DenseMatrixBuffer::ReadResult::kMiss);  // MSHR allocation
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->accumulate(L(2), 0));
  ASSERT_TRUE(f.dmb->pin_partial(L(3), 0));
  ASSERT_TRUE(f.dmb->prefetch(L(4), TrafficClass::kCombined, 0));
  EXPECT_EQ(joins_after(*f.dmb, e0),
            (std::vector<Addr>{L(0), L(1), L(2), L(3), L(4)}));
  EXPECT_EQ(f.dmb->join_epoch(), e0 + 5);

  // Hits, piggybacks, fills, prefetch installs and evictions add no
  // line to a directory that was absent from all of them.
  const std::uint64_t e1 = f.dmb->join_epoch();
  EXPECT_EQ(f.dmb->read(L(1), TrafficClass::kCombined, 2, 1),
            DenseMatrixBuffer::ReadResult::kHit);
  EXPECT_EQ(f.dmb->read(L(0), TrafficClass::kCombined, 3, 1),
            DenseMatrixBuffer::ReadResult::kMiss);  // piggyback
  for (Cycle t = 1; t <= 20; ++t) f.step(t);  // the fill and prefetch land
  EXPECT_TRUE(f.dmb->contains(L(0)));
  EXPECT_TRUE(f.dmb->contains(L(4)));
  f.dmb->unpin_and_writeback_outputs(30);
  f.dmb->reset_contents();
  EXPECT_EQ(f.dmb->join_epoch(), e1);
  EXPECT_TRUE(joins_after(*f.dmb, e1).empty());
}

TEST(DmbJournal, ListingOffCountsJoinsWithoutListingThem) {
  Fixture f(/*lines=*/8);
  const std::uint64_t e0 = f.dmb->join_epoch();
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->accumulate(L(1), 0));
  EXPECT_EQ(f.dmb->join_epoch(), e0 + 2);
  EXPECT_EQ(f.dmb->journal_floor(), f.dmb->join_epoch());

  f.dmb->reset_journal(/*listing=*/true);
  ASSERT_TRUE(f.dmb->write_allocate(L(2), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(3), TrafficClass::kCombined, 0));
  EXPECT_EQ(joins_after(*f.dmb, e0 + 2), (std::vector<Addr>{L(2), L(3)}));
  EXPECT_EQ(joins_after(*f.dmb, e0 + 3), (std::vector<Addr>{L(3)}));
  // A reset forgets what was listed and raises the floor.
  f.dmb->reset_journal(/*listing=*/false);
  EXPECT_EQ(f.dmb->journal_floor(), e0 + 4);
  EXPECT_TRUE(joins_after(*f.dmb, e0 + 4).empty());
}

TEST(DmbJournal, RestoreSetsTheFloorToTheSavedEpoch) {
  Fixture f(/*lines=*/8);
  f.dmb->reset_journal(/*listing=*/true);
  ASSERT_TRUE(f.dmb->write_allocate(L(0), TrafficClass::kCombined, 0));
  ASSERT_TRUE(f.dmb->write_allocate(L(1), TrafficClass::kCombined, 0));
  StateWriter w;
  f.dmb->save_state(w);

  Fixture g(/*lines=*/8);
  StateReader r(w.bytes().data(), w.bytes().size());
  g.dmb->load_state(r);
  EXPECT_EQ(g.dmb->join_epoch(), f.dmb->join_epoch());
  // The joins before the restore point are not saved.
  EXPECT_EQ(g.dmb->journal_floor(), g.dmb->join_epoch());
  EXPECT_TRUE(joins_after(*g.dmb, g.dmb->journal_floor()).empty());
}

TEST(Dmb, CanAllocateMissTracksFreeMshrs) {
  Fixture f(/*lines=*/8, /*mshrs=*/2);
  EXPECT_TRUE(f.dmb->can_allocate_miss());
  (void)f.dmb->read(L(0), TrafficClass::kCombined, 1, 0);
  (void)f.dmb->read(L(1), TrafficClass::kCombined, 2, 0);
  EXPECT_FALSE(f.dmb->can_allocate_miss());
  EXPECT_EQ(f.dmb->read_absent(L(2), TrafficClass::kCombined, 3, 0),
            DenseMatrixBuffer::ReadResult::kReject);
  f.wait_for(1, 0);
  EXPECT_TRUE(f.dmb->can_allocate_miss());
  EXPECT_EQ(f.dmb->read_absent(L(2), TrafficClass::kCombined, 3, 20),
            DenseMatrixBuffer::ReadResult::kMiss);
}

}  // namespace
}  // namespace hymm
