#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"
#include "mem/ccm.hpp"
#include "mem/dram.hpp"
#include "mem/physical_memory.hpp"

namespace maco::mem {
namespace {

TEST(PhysicalMemory, ReadBackWritten) {
  PhysicalMemory memory;
  const double value = 3.14159;
  memory.write_f64(0x1000, value);
  EXPECT_DOUBLE_EQ(memory.read_f64(0x1000), value);
}

TEST(PhysicalMemory, UntouchedReadsZero) {
  PhysicalMemory memory;
  EXPECT_DOUBLE_EQ(memory.read_f64(0xDEAD000), 0.0);
}

TEST(PhysicalMemory, CrossBlockTransfer) {
  PhysicalMemory memory;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  memory.write(4000, data.data(), data.size());  // spans 3+ blocks
  std::vector<std::uint8_t> out(data.size());
  memory.read(4000, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST(PhysicalMemory, SparseResidency) {
  PhysicalMemory memory;
  memory.write_f64(0, 1.0);
  memory.write_f64(1ull << 40, 2.0);  // far apart: only 2 blocks resident
  EXPECT_EQ(memory.resident_blocks(), 2u);
}

TEST(PhysicalMemory, Fill) {
  PhysicalMemory memory;
  memory.fill(100, 8192, 0xAB);
  std::uint8_t byte = 0;
  memory.read(100 + 8191, &byte, 1);
  EXPECT_EQ(byte, 0xAB);
  memory.read(100 + 8192, &byte, 1);
  EXPECT_EQ(byte, 0);
}

// Access outcomes summed from their AccessResults, as mem::Ccm counts its
// slice's: the tag store keeps no totals of its own.
struct Outcomes {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  SetAssocCache::AccessResult add(const SetAssocCache::AccessResult& result) {
    ++(result.hit ? hits : misses);
    evictions += result.evicted;
    writebacks += result.victim_dirty;
    return result;
  }
};

TEST(Cache, HitAfterMiss) {
  SetAssocCache cache("c", CacheConfig{4096, 4, 64});
  Outcomes outcomes;
  const auto miss = outcomes.add(cache.access(0x1000, false));
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.allocated);
  const auto hit = outcomes.add(cache.access(0x1000, false));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(outcomes.hits, 1u);
  EXPECT_EQ(outcomes.misses, 1u);
}

TEST(Cache, WriteSetsModified) {
  // A write dirties the line whether it installs it or hits it; only a
  // dirty victim needs a write-back. Direct-mapped: 64 sets of one way.
  SetAssocCache cache("c", CacheConfig{4096, 1, 64});
  Outcomes outcomes;
  const std::uint64_t conflict = 64 * 64;
  outcomes.add(cache.access(0x1000, false));
  EXPECT_FALSE(
      outcomes.add(cache.access(0x1000 + conflict, false)).victim_dirty);
  // Evicts the clean conflicting line, then hits with a write.
  outcomes.add(cache.access(0x1000, false));
  outcomes.add(cache.access(0x1000, true));
  EXPECT_TRUE(cache.probe(0x1000));
  EXPECT_TRUE(
      outcomes.add(cache.access(0x1000 + conflict, false)).victim_dirty);
  EXPECT_EQ(outcomes.writebacks, 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  // Direct construction of a conflict set: 4 KiB, 2-way, 64 B lines = 32
  // sets; addresses 32*64 apart map to the same set.
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  cache.access(1 * stride, false);
  cache.access(0 * stride, false);      // refresh way 0
  const auto result = cache.access(2 * stride, false);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim_addr, 1 * stride);
}

TEST(Cache, DirtyVictimNeedsWriteback) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  Outcomes outcomes;
  const std::uint64_t stride = 32 * 64;
  outcomes.add(cache.access(0 * stride, true));  // modified
  outcomes.add(cache.access(1 * stride, false));
  // Evicts way LRU = the modified line.
  outcomes.add(cache.access(2 * stride, false));
  EXPECT_EQ(outcomes.writebacks, 1u);
}

TEST(Cache, LockedLinesSurviveEviction) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  EXPECT_TRUE(cache.lock(0 * stride));
  cache.access(1 * stride, false);
  cache.access(2 * stride, false);  // must evict the unlocked way
  EXPECT_TRUE(cache.probe(0 * stride));
  EXPECT_TRUE(cache.is_locked(0 * stride));
}

TEST(Cache, AllWaysLockedFailsAllocation) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride, false);
  cache.access(1 * stride, false);
  cache.lock(0 * stride);
  cache.lock(1 * stride);
  const auto result = cache.access(2 * stride, false);
  EXPECT_FALSE(result.allocated);
  EXPECT_EQ(cache.locked_lines(), 2u);
}

TEST(Cache, UnlockRestoresEvictability) {
  SetAssocCache cache("c", CacheConfig{4096, 2, 64});
  Outcomes outcomes;
  const std::uint64_t stride = 32 * 64;
  outcomes.add(cache.access(0 * stride, false));
  cache.lock(0 * stride);
  cache.unlock(0 * stride);
  EXPECT_EQ(cache.locked_lines(), 0u);
  outcomes.add(cache.access(1 * stride, false));
  outcomes.add(cache.access(2 * stride, false));
  // With no locks, one of the first two lines has been evicted.
  EXPECT_EQ(outcomes.evictions, 1u);
}

TEST(Cache, FullyAssociativeUpTo256Ways) {
  // Recency ranks are one byte, so 256 ways is the widest set; construction
  // rejects anything wider.
  SetAssocCache cache("c", CacheConfig{256 * 64, 256, 64});
  ASSERT_EQ(cache.sets(), 1u);
  Outcomes outcomes;
  for (std::uint64_t line = 0; line <= 256; ++line) {
    outcomes.add(cache.access(line * 64, false));
  }
  EXPECT_EQ(outcomes.evictions, 1u);
  EXPECT_FALSE(cache.probe(0));  // the least recent line went
  EXPECT_TRUE(cache.probe(256 * 64));
  EXPECT_DEATH(SetAssocCache("c", CacheConfig{257 * 64, 257, 64}),
               "at most 256 ways");
}

TEST(Dram, LatencyAndBandwidth) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  // 64 B at 25.6 GB/s = 2.5 ns transfer + 60 ns latency.
  const sim::TimePs done = dram.access(0, 0x1000, 64);
  EXPECT_NEAR(static_cast<double>(done), 62'500.0, 100.0);
}

TEST(Dram, BackToBackSerializesOnBus) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  const sim::TimePs first = dram.access(0, 0, 1 << 20);  // ~41 us transfer
  const sim::TimePs second =
      dram.access(0, 1 << 20, 1 << 20);  // queued behind it
  EXPECT_GT(second, first);
  EXPECT_NEAR(static_cast<double>(second - first), 40'960'000.0, 50'000.0);
}

TEST(Dram, IdleBusRecovers) {
  DramController dram("d", DramConfig{25.6e9, 60'000});
  dram.access(0, 0x1000, 64);
  // A request far in the future sees an idle bus.
  const sim::TimePs t = 10'000'000;
  const sim::TimePs done = dram.access(t, 0x2000, 64);
  EXPECT_NEAR(static_cast<double>(done - t), 62'500.0, 100.0);
}

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest()
      : dram_("dram", DramConfig{}),
        l3_("l3", CcmConfig{}.l3),
        ccm_(CcmConfig{}, l3_, dram_) {}

  DramController dram_;
  SetAssocCache l3_;
  Ccm ccm_;
};

TEST_F(DirectoryTest, GetSFillsFromDramThenHits) {
  ccm_.handle(CcmReqType::kGetS, 0x1000, 0);
  EXPECT_EQ(ccm_.l3_misses(), 1u);
  EXPECT_EQ(dram_.requests(), 1u);
  ccm_.handle(CcmReqType::kGetS, 0x1000, 100'000);
  EXPECT_EQ(ccm_.l3_hits(), 1u);
  EXPECT_EQ(dram_.requests(), 1u);  // the hit reads no DRAM
}

TEST_F(DirectoryTest, StashWarmsL3) {
  ccm_.handle(CcmReqType::kStash, 0x2000, 0);
  EXPECT_EQ(dram_.requests(), 1u);
  EXPECT_EQ(ccm_.stash_fills(), 1u);
  ccm_.handle(CcmReqType::kGetS, 0x2000, 1'000'000);
  EXPECT_EQ(ccm_.l3_hits(), 1u);
}

TEST_F(DirectoryTest, StashLockPinsLine) {
  ccm_.handle(CcmReqType::kStashLock, 0x3000, 0);
  EXPECT_TRUE(ccm_.line_locked(0x3000));
  ccm_.handle(CcmReqType::kUnlock, 0x3000, 1000);
  EXPECT_FALSE(ccm_.line_locked(0x3000));
}

TEST_F(DirectoryTest, RepeatedStashHitsAreCheap) {
  ccm_.handle(CcmReqType::kStash, 0x5000, 0);
  const sim::TimePs again = ccm_.handle(CcmReqType::kStash, 0x5000, 100'000);
  EXPECT_EQ(again, CcmConfig{}.lookup_latency_ps + CcmConfig{}.l3_latency_ps);
  EXPECT_EQ(ccm_.stash_hits(), 1u);
  EXPECT_EQ(dram_.requests(), 1u);
}

}  // namespace
}  // namespace maco::mem

namespace maco::mem {
namespace {

TEST(StreamingStore, PutFullAllocatesWithoutDramFetch) {
  DramController dram("ss.dram", DramConfig{});
  SetAssocCache l3("ss.l3", CcmConfig{}.l3);
  Ccm ccm(CcmConfig{}, l3, dram);
  ccm.handle(CcmReqType::kPutFull, 0x4000, 0);
  // No fetch: the line lands in L3 without a DRAM read.
  EXPECT_EQ(ccm.l3_misses(), 1u);
  EXPECT_EQ(dram.requests(), 0u);
  // A later read hits the L3.
  ccm.handle(CcmReqType::kGetS, 0x4000, 1000);
  EXPECT_EQ(ccm.l3_hits(), 1u);
  EXPECT_EQ(dram.requests(), 0u);
}

TEST(StreamingStore, PartialLineStoreIsWrittenBack) {
  // A store covering part of a line fetches it and leaves it dirty, so
  // evicting it writes it back. 32 sets of 2 ways: lines 32 apart conflict.
  DramController dram("ps.dram", DramConfig{});
  CcmConfig config;
  config.l3 = CacheConfig{4096, 2, kLineBytes};
  SetAssocCache l3("ps.l3", config.l3);
  Ccm ccm(config, l3, dram);
  const std::uint64_t stride = 32 * kLineBytes;
  ccm.handle(CcmReqType::kGetM, 0, 0);
  ccm.handle(CcmReqType::kGetS, stride, 100'000);
  ccm.handle(CcmReqType::kGetS, 2 * stride, 200'000);  // evicts line 0
  EXPECT_EQ(ccm.l3_evictions(), 1u);
  EXPECT_EQ(ccm.l3_writebacks(), 1u);
  EXPECT_EQ(dram.requests(), 4u);  // three fills and the write-back
}

TEST(SliceInterleave, StripedAddressesUseAllSets) {
  // A slice that only ever sees every 16th line must get all of its
  // sets, or a 16x-strided stream would collapse onto 1/16th of them: the
  // shared store of 16 slices gives slice 0 every 16th set.
  DramController dram("il.dram", DramConfig{});
  CcmConfig config;
  SetAssocCache l3("il.l3", l3_store_config(config, 16));
  Ccm ccm(config, l3, dram);

  // Stream (slice 0's share of) a working set half the slice capacity.
  const std::uint64_t lines = config.l3.size_bytes / kLineBytes / 2;
  for (std::uint64_t i = 0; i < lines; ++i) {
    ccm.handle(CcmReqType::kGetS, i * 16 * kLineBytes, 0);
  }
  // Everything fits: a second pass is all hits.
  for (std::uint64_t i = 0; i < lines; ++i) {
    ccm.handle(CcmReqType::kGetS, i * 16 * kLineBytes, 0);
  }
  EXPECT_EQ(ccm.l3_hits(), lines);
  EXPECT_EQ(ccm.l3_misses(), lines);
}

// Records the address of every DRAM access.
class RecordingDram final : public DramModel {
 public:
  RecordingDram() : DramModel("rec.dram", DramConfig{}) {}
  sim::TimePs access(sim::TimePs now, std::uint64_t addr,
                     std::uint64_t /*bytes*/) override {
    addrs.push_back(addr);
    return now;
  }
  sim::TimePs busy_until() const noexcept override { return 0; }
  std::vector<std::uint64_t> addrs;
};

TEST(SliceInterleave, DirtyVictimWritesBackItsOwnLine) {
  // Slice 11 of 12 holds physical line 12L + 11 as its local line L. With
  // 32 sets of 2 ways, local lines 2, 34 and 66 share a set.
  RecordingDram dram;
  CcmConfig config;
  config.l3 = CacheConfig{4096, 2, kLineBytes};
  SetAssocCache l3("wb.l3", l3_store_config(config, 12));
  Ccm ccm(config, l3, dram);
  const auto physical = [](std::uint64_t local) {
    return (local * 12 + 11) * kLineBytes;
  };
  ccm.handle(CcmReqType::kGetM, physical(2), 0);  // local line 2, dirty
  ccm.handle(CcmReqType::kGetS, physical(34), 100'000);
  ccm.handle(CcmReqType::kGetS, physical(66), 200'000);  // evicts line 2
  ASSERT_EQ(ccm.l3_writebacks(), 1u);
  // Three fills and the write-back, which goes to byte 2,240: the
  // victim's own line, not local line × 12.
  EXPECT_EQ(physical(2), 2240u);
  const std::vector<std::uint64_t> expected{physical(2), physical(34),
                                            physical(2), physical(66)};
  EXPECT_EQ(dram.addrs, expected);
}

TEST(UnqueuedLatency, PteReadsDoNotInheritBusBacklog) {
  DramController dram("uq.dram", DramConfig{});
  SetAssocCache l3("uq.l3", CcmConfig{}.l3);
  Ccm ccm(CcmConfig{}, l3, dram);
  // Push the DRAM bus far into the future with data traffic.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    dram.access(0, i * 4096, 4096);
  }
  const sim::TimePs backlog = dram.busy_until();
  ASSERT_GT(backlog, 100'000u);
  // An unqueued miss must not see the backlog as latency.
  const sim::TimePs latency =
      ccm.handle(CcmReqType::kGetS, 0x9000, 0, /*queue_dram=*/false);
  EXPECT_EQ(ccm.l3_misses(), 1u);
  EXPECT_LT(latency, 100'000u);  // service time, not backlog
}

}  // namespace
}  // namespace maco::mem
