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
    // re-inserts of resident keys all happen often.
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
      if (roll < 45) {
        what += "lookup";
        ASSERT_EQ(tlb.lookup(asid, vpn), ref.lookup(asid, vpn)) << what;
      } else if (roll < 90) {
        what += "insert";
        resident_reinserts += ref.contains(asid, vpn) ? 1 : 0;
        const std::uint64_t ppn = rng();
        tlb.insert(asid, vpn, ppn);
        ref.insert(asid, vpn, ppn);
      } else {
        what += "contains";
        ASSERT_EQ(tlb.contains(asid, vpn), ref.contains(asid, vpn)) << what;
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

// The walk cache before it became a ring: every entry carries the level
// it covers and an LRU tick, a lookup takes the deepest matching level,
// and a fill evicts an invalid slot first, else the smallest tick.
class TickWalkCache {
 public:
  explicit TickWalkCache(std::size_t entries) : cache_(entries) {}

  int cached_depth(Asid asid, VirtAddr va) const {
    int best = -1;
    for (const Entry& entry : cache_) {
      if (!entry.valid || entry.asid != asid) continue;
      if (entry.prefix == prefix_for(va, entry.level) && entry.level > best) {
        best = entry.level;
      }
    }
    return best;
  }

  void fill(Asid asid, VirtAddr va, int level) {
    if (cache_.empty()) return;
    auto victim = std::min_element(cache_.begin(), cache_.end(),
                                   [](const Entry& a, const Entry& b) {
                                     if (a.valid != b.valid) return !a.valid;
                                     return a.tick < b.tick;
                                   });
    *victim = Entry{true, asid, level, prefix_for(va, level), ++tick_};
  }

 private:
  struct Entry {
    bool valid = false;
    Asid asid = 0;
    int level = 0;
    std::uint64_t prefix = 0;
    std::uint64_t tick = 0;
  };
  static std::uint64_t prefix_for(VirtAddr va, int level) {
    const unsigned shift =
        kPageBits + PageTable::kIndexBits * (PageTable::kLevels - 1 - level);
    return va >> shift;
  }
  std::vector<Entry> cache_;
  std::uint64_t tick_ = 0;
};

// Each PTE read costs a latency of its own, so a walk that reads a
// different set of levels shows in the total.
class AddressLatencyOracle final : public MemoryLatencyOracle {
 public:
  sim::TimePs read_latency(PhysAddr addr, std::uint32_t) override {
    return 1'000 + addr % 4'093;
  }
};

TEST(Walker, WalkCacheEvictsInFillOrder) {
  // Six 2 MiB regions: two adjacent, the others under other L1 and L0
  // entries. Eight pages of each are mapped; pages 8 and 9 fault.
  const std::vector<VirtAddr> regions = {0x0000'1000'0000, 0x0000'1020'0000,
                                         0x0000'5000'0000, 0x0080'0000'0000,
                                         0x0080'0020'0000, 0x00ff'ffe0'0000};
  std::vector<PageTable> tables;
  for (unsigned asid = 0; asid < 3; ++asid) {
    tables.emplace_back(0x0100'0000ull * (asid + 1));
    for (const VirtAddr region : regions) {
      for (unsigned page = 0; page < 8; ++page) {
        tables.back().map(region + page * kPageSize,
                          0x4000'0000 + (asid * 64 + page) * kPageSize);
      }
    }
  }
  for (const std::size_t entries : {0u, 1u, 4u, 16u}) {
    AddressLatencyOracle memory;
    PageTableWalker walker(memory, entries);
    TickWalkCache reference(entries);
    std::mt19937_64 rng(entries + 1);
    std::uint64_t hits = 0;
    std::uint64_t pte_reads = 0;
    for (int step = 0; step < 5000; ++step) {
      const auto asid = static_cast<Asid>(rng() % 3);
      const VirtAddr va = regions[rng() % regions.size()] +
                          (rng() % 10) * kPageSize + rng() % kPageSize;
      SCOPED_TRACE(testing::Message() << entries << " entries, step " << step
                                      << ", asid " << asid << ", va " << va);
      const PageTable& table = tables[asid];
      const PageTable::WalkTrace trace = table.walk(va);
      const int depth = reference.cached_depth(asid, va);
      hits += depth >= 0;
      sim::TimePs latency = 0;
      int reads = 0;
      for (int level = depth + 1; level < trace.levels; ++level) {
        latency += memory.read_latency(trace.pte_addr[level],
                                       PageTable::kEntryBytes);
        ++reads;
      }
      pte_reads += reads;
      if (trace.valid) reference.fill(asid, va, PageTable::kLevels - 2);

      const WalkOutcome outcome = walker.walk(asid, table, va);
      ASSERT_EQ(outcome.valid, trace.valid);
      ASSERT_EQ(outcome.latency, latency);
      ASSERT_EQ(outcome.memory_accesses, reads);
      ASSERT_EQ(walker.walk_cache_hits(), hits);
      ASSERT_EQ(walker.pte_reads(), pte_reads);
    }
    // 18 (ASID, region) pairs overflow every cache size tried.
    if (entries > 0) {
      EXPECT_GT(hits, 0u);
      EXPECT_LT(hits, walker.walks() - walker.faults());
    }
  }
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
