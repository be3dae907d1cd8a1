#include <gtest/gtest.h>

#include "ulc/uni_lru_stack.h"

namespace ulc {
namespace {

// DESIGN.md §8 quotes the per-block footprint; keep the two in step.
static_assert(sizeof(UniLruStack::Node) == 48,
              "UniLruStack::Node changed size: update DESIGN.md §8");

TEST(UniLruStack, PushAndFind) {
  UniLruStack s(2);
  auto* a = s.push_top(1, 0);
  auto* b = s.push_top(2, 0);
  EXPECT_EQ(s.find(1), a);
  EXPECT_EQ(s.find(2), b);
  EXPECT_EQ(s.find(3), nullptr);
  EXPECT_EQ(s.head(), b);
  EXPECT_EQ(s.tail(), a);
  EXPECT_EQ(s.level_size(0), 2u);
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, YardstickIsDeepestOfLevel) {
  UniLruStack s(2);
  auto* a = s.push_top(1, 0);
  s.push_top(2, 1);
  auto* c = s.push_top(3, 0);
  EXPECT_EQ(s.yard(0), a);  // deepest level-0 block
  EXPECT_EQ(s.yard(1), s.find(2));
  // Re-reference a (the yardstick): departure walks up to c.
  s.yardstick_departure(a);
  s.move_to_top(a);
  EXPECT_EQ(s.yard(0), c);
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, SingleBlockLevelKeepsYardstickOnMove) {
  UniLruStack s(2);
  auto* a = s.push_top(1, 0);
  s.push_top(2, 1);
  // a is the only level-0 block; moving it to the top keeps it yardstick.
  s.move_to_top(a);
  EXPECT_EQ(s.yard(0), a);
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, SetLevelUpdatesCountsAndYardstick) {
  UniLruStack s(3);
  auto* a = s.push_top(1, 0);
  auto* b = s.push_top(2, 0);
  // Demote the deepest (a) to level 1.
  s.yardstick_departure(a);
  s.set_level(a, 1);
  EXPECT_EQ(s.level_size(0), 1u);
  EXPECT_EQ(s.level_size(1), 1u);
  EXPECT_EQ(s.yard(0), b);
  EXPECT_EQ(s.yard(1), a);  // DemotionSearching: a is deepest level-1 block
  // Demote b too: it is shallower than a, so a stays yardstick of level 1.
  s.yardstick_departure(b);
  s.set_level(b, 1);
  EXPECT_EQ(s.yard(1), a);
  EXPECT_EQ(s.yard(0), nullptr);
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, RecencyStatusFromYardsticks) {
  UniLruStack s(2);
  auto* a = s.push_top(1, 0);   // will be deepest
  auto* b = s.push_top(2, 1);
  auto* c = s.push_top(3, 0);
  auto* d = s.push_top(4, 1);
  // Stack (top->bottom): d c b a. Y0 = a (bottom), Y1 = b.
  EXPECT_EQ(s.recency_status(d), 0u);  // above Y1? d.seq >= Y1.seq -> wait:
  // recency_status = smallest level whose yardstick is at/below the node.
  // Y0 = a is below everything, so every node has status 0 here.
  EXPECT_EQ(s.recency_status(c), 0u);
  EXPECT_EQ(s.recency_status(b), 0u);
  EXPECT_EQ(s.recency_status(a), 0u);
  // Demote a to level 1: now Y0 = c, Y1 = a.
  s.yardstick_departure(a);
  s.set_level(a, 1);
  EXPECT_EQ(s.recency_status(d), 0u);  // above Y0=c
  EXPECT_EQ(s.recency_status(c), 0u);  // is Y0
  EXPECT_EQ(s.recency_status(b), 1u);  // below Y0, above Y1
  EXPECT_EQ(s.recency_status(a), 1u);  // is Y1
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, RecencyStatusOutBelowAllYardsticks) {
  UniLruStack s(1);
  auto* a = s.push_top(1, kLevelOut);
  s.push_top(2, 0);
  // a (uncached) is below the only yardstick -> status out... but the
  // yardstick (block 2) is ABOVE a, so a's status is out.
  EXPECT_EQ(s.recency_status(a), kLevelOut);
}

TEST(UniLruStack, PruneDropsUncachedTail) {
  UniLruStack s(1);
  auto* a = s.push_top(1, kLevelOut);
  auto* b = s.push_top(2, 0);
  s.push_top(3, kLevelOut);
  // Tail is a (uncached, below yardstick b): prune removes it; block 3 is
  // above the yardstick and stays.
  EXPECT_EQ(s.prune(), 1u);
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_NE(s.find(3), nullptr);
  EXPECT_EQ(s.tail(), b);
  EXPECT_TRUE(s.check_consistency());
  (void)a;
}

TEST(UniLruStack, PruneStopsAtCachedBlock) {
  UniLruStack s(2);
  s.push_top(1, kLevelOut);
  s.push_top(2, 0);  // cached block above the uncached tail... wait: deeper
  // Stack: 2(top, L0), 1(bottom, out). Yardstick Y0 = 2.
  // Tail (1) is uncached and below Y0: pruned.
  EXPECT_EQ(s.prune(), 1u);
  // Now make an uncached block sit ABOVE the deepest yardstick:
  auto* c = s.push_top(3, kLevelOut);
  EXPECT_EQ(s.prune(), 0u);  // tail is the yardstick itself, nothing to drop
  EXPECT_NE(s.find(3), nullptr);
  (void)c;
}

TEST(UniLruStack, RemoveRequiresUncached) {
  UniLruStack s(1);
  auto* a = s.push_top(1, 0);
  s.yardstick_departure(a);
  s.set_level(a, kLevelOut);
  s.remove(a);
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_EQ(s.stack_size(), 0u);
  EXPECT_TRUE(s.check_consistency());
}

// The prune loop's stop boundary is exact: a node is dropped only when its
// seq is *strictly* below the deepest yardstick's. tail_->seq == min_seq
// means the tail is that yardstick itself (sequence numbers are unique) and
// it must survive. With no yardsticks left there is no boundary at all and
// the whole stack drains.
TEST(UniLruStack, PruneTailBoundaryAtDeepestYardstickSeq) {
  UniLruStack s(2);
  auto* y1 = s.push_top(1, 1);  // deepest yardstick (minimal yardstick seq)
  s.push_top(2, kLevelOut);     // uncached, above y1: must survive
  auto* y0 = s.push_top(3, 0);  // shallower yardstick (larger seq)
  ASSERT_EQ(s.tail(), y1);
  EXPECT_EQ(s.prune(), 0u);  // tail seq == min yardstick seq: kept
  EXPECT_EQ(s.tail(), y1);
  EXPECT_NE(s.find(2), nullptr);

  // Evict the deepest yardstick out of the hierarchy: the ex-yardstick now
  // sits at the tail strictly below the remaining yardstick, so prune
  // drains it together with block 2 (also below y0).
  s.yardstick_departure(y1);
  s.set_level(y1, kLevelOut);
  EXPECT_EQ(s.prune(), 2u);
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_EQ(s.find(2), nullptr);
  EXPECT_EQ(s.tail(), y0);
  EXPECT_TRUE(s.check_consistency());

  // No yardsticks at all: every uncached node is unreachable and drains.
  s.yardstick_departure(y0);
  s.set_level(y0, kLevelOut);
  EXPECT_EQ(s.prune(), 1u);
  EXPECT_EQ(s.stack_size(), 0u);
  EXPECT_TRUE(s.check_consistency());
}

// I4 (per-level occupancy <= capacity) is a *between-cascades* invariant:
// mid-cascade the level that just received a block transiently holds
// capacity+1 entries and check_consistency(&caps) must report it, while the
// structural invariants (no capacities argument) hold at every step. Each
// cascade stage hands the overflow one level down until the bottom victim
// leaves the hierarchy, which restores I4.
TEST(UniLruStack, ConsistencyCapacitiesDuringDemotionCascade) {
  UniLruStack s(2);
  const std::vector<std::size_t> caps{1, 1};
  auto* a = s.push_top(1, 1);  // L1 resident (and its yardstick)
  auto* b = s.push_top(2, 0);  // L0 resident (and its yardstick)
  EXPECT_TRUE(s.check_consistency(&caps));

  s.push_top(3, 0);  // new block placed at L0: transient L0 overflow
  EXPECT_FALSE(s.check_consistency(&caps));
  EXPECT_TRUE(s.check_consistency());

  // Cascade stage 1: demote L0's victim into L1 — the overflow moves down.
  s.yardstick_departure(b);
  s.set_level(b, 1);
  EXPECT_FALSE(s.check_consistency(&caps));
  EXPECT_TRUE(s.check_consistency());

  // Cascade stage 2: L1's victim leaves the hierarchy; I4 is restored.
  s.yardstick_departure(a);
  s.set_level(a, kLevelOut);
  EXPECT_TRUE(s.check_consistency(&caps));
  EXPECT_EQ(s.level_size(0), 1u);
  EXPECT_EQ(s.level_size(1), 1u);
}

// Slab-backing regression: Node* values handed out by push_top()/find()
// must stay valid across arbitrary later growth (pages never move). This
// pins the no-iterator/pointer-invalidation contract the Node*-shaped API
// depends on.
TEST(UniLruStack, NodePointersStableAcrossGrowth) {
  UniLruStack s(1);
  auto* first = s.push_top(0, 0);
  const BlockId first_block = first->block;
  // Push far past several slab pages (default page = 1024 nodes).
  for (BlockId b = 1; b <= 5000; ++b) s.push_top(b, kLevelOut);
  EXPECT_EQ(s.find(0), first);  // same address, not just same block
  EXPECT_EQ(first->block, first_block);
  EXPECT_EQ(first->level, 0u);
  EXPECT_GT(s.slab_pages(), 1u);
  EXPECT_TRUE(s.check_consistency());
}

// Shrink path: grow the stack across many pages, shrink the working set
// back to a handful of early-allocated blocks, and check that (a) the
// logical invariants (stack_size, level counts, yardstick) hold across the
// shrink and (b) the slab returns its emptied trailing pages.
TEST(UniLruStack, PruneReleasesSlabPagesAfterMassEviction) {
  UniLruStack s(1);
  const BlockId n = 8192;
  for (BlockId b = 0; b < n; ++b) s.push_top(b, 0);
  EXPECT_EQ(s.stack_size(), n);
  EXPECT_EQ(s.level_size(0), n);
  const std::size_t grown_pages = s.slab_pages();
  EXPECT_GE(grown_pages, 8u);

  // Evict every block except the 16 oldest (which occupy the slab's first
  // page) out of the hierarchy.
  for (BlockId b = 16; b < n; ++b) {
    auto* v = s.find(b);
    ASSERT_NE(v, nullptr);
    s.yardstick_departure(v);
    s.set_level(v, kLevelOut);
  }
  // The uncached nodes are above the yardstick (still re-rankable), so they
  // are not prunable yet.
  EXPECT_EQ(s.prune(), 0u);
  EXPECT_EQ(s.stack_size(), n);

  // Re-reference the survivors: the yardstick walks above the uncached
  // nodes, which now lie below it and drain on the next prune.
  for (BlockId b = 0; b < 16; ++b) {
    auto* v = s.find(b);
    ASSERT_NE(v, nullptr);
    s.yardstick_departure(v);
    s.move_to_top(v);
  }
  const std::size_t removed = s.prune();
  EXPECT_EQ(removed, static_cast<std::size_t>(n - 16));
  EXPECT_EQ(s.stack_size(), 16u);
  EXPECT_EQ(s.level_size(0), 16u);
  EXPECT_LT(s.slab_pages(), grown_pages);  // trailing pages released
  EXPECT_GT(s.slab_stats().pages_released, 0u);
  EXPECT_TRUE(s.check_consistency());

  // The survivors are fully functional after the shrink.
  for (BlockId b = 0; b < 16; ++b) ASSERT_NE(s.find(b), nullptr);
  auto* y = s.yard(0);
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->block, 0u);
  s.push_top(n + 1, 0);
  EXPECT_TRUE(s.check_consistency());
}

TEST(UniLruStack, ConsistencyWithCapacities) {
  UniLruStack s(2);
  s.push_top(1, 0);
  s.push_top(2, 0);
  s.push_top(3, 1);
  std::vector<std::size_t> caps{2, 1};
  EXPECT_TRUE(s.check_consistency(&caps));
  std::vector<std::size_t> tight{1, 1};
  EXPECT_FALSE(s.check_consistency(&tight));  // level 0 over capacity
}

}  // namespace
}  // namespace ulc
