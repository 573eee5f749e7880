#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <string>

#include "vm/page_table.hpp"
#include "vm/tlb.hpp"
#include "vm/walker.hpp"

namespace maco::vm {
namespace {

TEST(PageTable, MapAndTranslate) {
  PageTable pt(0x1000000);
  pt.map(0x10000000, 0x5000);
  const auto pa = pt.translate(0x10000123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, 0x5123u);
}

TEST(PageTable, UnmappedFaults) {
  PageTable pt(0x1000000);
  EXPECT_FALSE(pt.translate(0xdeadbeef000).has_value());
  pt.map(0x2000, 0x9000);
  EXPECT_TRUE(pt.is_mapped(0x2000));
  EXPECT_FALSE(pt.is_mapped(0x3000));
}

TEST(PageTable, RemapOverwrites) {
  PageTable pt(0x1000000);
  pt.map(0x4000, 0x8000);
  pt.map(0x4000, 0xA000);
  EXPECT_EQ(*pt.translate(0x4000), 0xA000u);
  EXPECT_EQ(pt.mapped_page_count(), 1u);
}

TEST(PageTable, WalkTraceHasFourLevels) {
  PageTable pt(0x1000000);
  pt.map(0x7000000000, 0xB000);
  const auto trace = pt.walk(0x7000000042);
  EXPECT_TRUE(trace.valid);
  EXPECT_EQ(trace.levels, 4);
  EXPECT_EQ(trace.phys, 0xB042u);
  // PTE addresses must be distinct and inside the table region.
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(trace.pte_addr[i], 0x1000000u);
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(trace.pte_addr[i], trace.pte_addr[j]);
    }
  }
}

TEST(PageTable, WalkFaultReportsLevel) {
  PageTable pt(0x1000000);
  const auto trace = pt.walk(0x123456789000);
  EXPECT_FALSE(trace.valid);
  EXPECT_EQ(trace.levels, 1);  // root entry empty: one read, then fault
}

TEST(PageTable, SharedInteriorNodes) {
  PageTable pt(0x1000000);
  pt.map(0x10000000, 0x1000);
  const auto nodes_before = pt.node_count();
  pt.map(0x10001000, 0x2000);  // same leaf node
  EXPECT_EQ(pt.node_count(), nodes_before);
}

TEST(AddressSpace, AllocBacksPages) {
  AddressSpace space(3, 0x1000000, 0x100000000);
  const VirtAddr base = space.alloc(10000);
  EXPECT_EQ(page_offset(base), 0u);
  // Every page of the allocation translates.
  for (std::uint64_t off = 0; off < 10000; off += kPageSize) {
    EXPECT_TRUE(space.page_table().translate(base + off).has_value());
  }
  EXPECT_EQ(space.page_table().mapped_page_count(), 3u);  // ceil(10000/4096)
}

TEST(AddressSpace, DistinctAllocationsDisjoint) {
  AddressSpace space(3, 0x1000000, 0x100000000);
  const VirtAddr a = space.alloc(4096);
  const VirtAddr b = space.alloc(4096);
  EXPECT_NE(a, b);
  const auto pa = space.page_table().translate(a);
  const auto pb = space.page_table().translate(b);
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(*pa, *pb);
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb("t", 4);
  EXPECT_FALSE(tlb.lookup(1, 100).has_value());
  tlb.insert(1, 100, 200);
  const auto ppn = tlb.lookup(1, 100);
  ASSERT_TRUE(ppn.has_value());
  EXPECT_EQ(*ppn, 200u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, AsidIsolation) {
  Tlb tlb("t", 4);
  tlb.insert(1, 100, 200);
  EXPECT_FALSE(tlb.lookup(2, 100).has_value());
}

TEST(Tlb, LruEviction) {
  Tlb tlb("t", 2);
  tlb.insert(1, 10, 0);
  tlb.insert(1, 20, 0);
  tlb.lookup(1, 10);       // refresh 10 -> 20 becomes LRU
  tlb.insert(1, 30, 0);    // evicts 20
  EXPECT_TRUE(tlb.contains(1, 10));
  EXPECT_FALSE(tlb.contains(1, 20));
  EXPECT_TRUE(tlb.contains(1, 30));
  EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(Tlb, InvalidateAsid) {
  Tlb tlb("t", 8);
  tlb.insert(1, 10, 0);
  tlb.insert(2, 20, 0);
  tlb.invalidate_asid(1);
  EXPECT_FALSE(tlb.contains(1, 10));
  EXPECT_TRUE(tlb.contains(2, 20));
}

TEST(Tlb, CapacityIsRespected) {
  Tlb tlb("t", 16);
  for (std::uint64_t i = 0; i < 100; ++i) tlb.insert(1, i, i);
  EXPECT_EQ(tlb.size(), 16u);
}

// The textbook LRU the flat Tlb must match operation for operation.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<std::uint64_t> lookup(Asid asid, std::uint64_t vpn) {
    const auto it = find(asid, vpn);
    if (it == entries_.end()) {
      ++misses;
      return std::nullopt;
    }
    ++hits;
    entries_.splice(entries_.begin(), entries_, it);
    return it->ppn;
  }
  bool contains(Asid asid, std::uint64_t vpn) {
    return find(asid, vpn) != entries_.end();
  }
  void insert(Asid asid, std::uint64_t vpn, std::uint64_t ppn) {
    if (const auto it = find(asid, vpn); it != entries_.end()) {
      it->ppn = ppn;
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
    if (entries_.size() == capacity_) {
      entries_.pop_back();
      ++evictions;
    }
    entries_.push_front(Entry{asid, vpn, ppn});
  }
  void invalidate(Asid asid, std::uint64_t vpn) {
    if (const auto it = find(asid, vpn); it != entries_.end()) {
      entries_.erase(it);
    }
  }
  void invalidate_asid(Asid asid) {
    entries_.remove_if([&](const Entry& e) { return e.asid == asid; });
  }
  void invalidate_all() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  struct Entry {
    Asid asid;
    std::uint64_t vpn;
    std::uint64_t ppn;
  };
  std::list<Entry>::iterator find(Asid asid, std::uint64_t vpn) {
    return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.asid == asid && e.vpn == vpn;
    });
  }
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recent
};

TEST(Tlb, MatchesReferenceLruOnRandomOperations) {
  for (const std::size_t capacity : {1, 2, 48, 1024}) {
    Tlb tlb("t", capacity);
    ReferenceLru ref(capacity);
    std::mt19937_64 rng(capacity);
    // Keys from 3 ASIDs over ~2x capacity, so hits, evictions and
    // re-inserts of resident keys all happen often; the flushes are rare
    // enough for the TLB to refill between them.
    constexpr unsigned kAsids = 3;
    const std::uint64_t vpns = 2 * capacity / 3 + 4;
    std::uint64_t resident_reinserts = 0;
    const std::size_t ops = 16 * capacity + 2000;
    for (std::size_t op = 0; op < ops; ++op) {
      const Asid asid = static_cast<Asid>(rng() % kAsids);
      const std::uint64_t vpn = 1000 + rng() % vpns;
      const unsigned roll = static_cast<unsigned>(rng() % 100);
      std::string what = "op " + std::to_string(op) + " cap " +
                         std::to_string(capacity) + ": ";
      if (rng() % (4 * capacity + 64) == 0) {
        what += "invalidate_asid";
        tlb.invalidate_asid(asid);
        ref.invalidate_asid(asid);
      } else if (rng() % (16 * capacity + 256) == 0) {
        what += "invalidate_all";
        tlb.invalidate_all();
        ref.invalidate_all();
      } else if (roll < 40) {
        what += "lookup";
        ASSERT_EQ(tlb.lookup(asid, vpn), ref.lookup(asid, vpn)) << what;
      } else if (roll < 80) {
        what += "insert";
        resident_reinserts += ref.contains(asid, vpn) ? 1 : 0;
        const std::uint64_t ppn = rng();
        tlb.insert(asid, vpn, ppn);
        ref.insert(asid, vpn, ppn);
      } else if (roll < 88) {
        what += "contains";
        ASSERT_EQ(tlb.contains(asid, vpn), ref.contains(asid, vpn)) << what;
      } else {
        what += "invalidate";
        tlb.invalidate(asid, vpn);
        ref.invalidate(asid, vpn);
      }
      ASSERT_EQ(tlb.size(), ref.size()) << what;
      ASSERT_EQ(tlb.hits(), ref.hits) << what;
      ASSERT_EQ(tlb.misses(), ref.misses) << what;
      ASSERT_EQ(tlb.evictions(), ref.evictions) << what;
    }
    EXPECT_GT(ref.hits, 0u) << capacity;
    EXPECT_GT(ref.evictions, 0u) << capacity;
    EXPECT_GT(resident_reinserts, 0u) << capacity;
  }
}

TEST(Walker, ChargesPerLevelLatency) {
  PageTable pt(0x1000000);
  pt.map(0x10000000, 0x5000);
  FixedLatencyOracle memory(10'000);  // 10 ns per PTE read
  PageTableWalker walker(memory, /*walk_cache_entries=*/0);
  const WalkOutcome outcome = walker.walk(1, pt, 0x10000000);
  EXPECT_TRUE(outcome.valid);
  EXPECT_EQ(outcome.memory_accesses, 4);
  EXPECT_EQ(outcome.latency, 40'000u);
}

TEST(Walker, WalkCacheSkipsUpperLevels) {
  PageTable pt(0x1000000);
  pt.map(0x10000000, 0x5000);
  pt.map(0x10001000, 0x6000);  // same 2 MiB region
  FixedLatencyOracle memory(10'000);
  PageTableWalker walker(memory, 16);
  const auto first = walker.walk(1, pt, 0x10000000);
  EXPECT_EQ(first.memory_accesses, 4);
  const auto second = walker.walk(1, pt, 0x10001000);
  EXPECT_TRUE(second.valid);
  EXPECT_EQ(second.memory_accesses, 1);  // leaf only
  EXPECT_EQ(walker.walk_cache_hits(), 1u);
}

TEST(Walker, WalkCacheIsAsidTagged) {
  PageTable pt(0x1000000);
  pt.map(0x10000000, 0x5000);
  FixedLatencyOracle memory(10'000);
  PageTableWalker walker(memory, 16);
  walker.walk(1, pt, 0x10000000);
  const auto other = walker.walk(2, pt, 0x10000000);
  EXPECT_EQ(other.memory_accesses, 4);  // different ASID: no cache reuse
}

TEST(Walker, FaultCounted) {
  PageTable pt(0x1000000);
  FixedLatencyOracle memory(10'000);
  PageTableWalker walker(memory);
  const auto outcome = walker.walk(1, pt, 0xABCDE000);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(walker.faults(), 1u);
}

}  // namespace
}  // namespace maco::vm
