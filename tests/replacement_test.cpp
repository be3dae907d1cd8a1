#include <gtest/gtest.h>

#include <set>

#include "measures/next_use.h"
#include "replacement/cache_policy.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

double run_policy(CachePolicy& policy, const Trace& t,
                  const std::vector<std::uint64_t>* next_use = nullptr) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    AccessContext ctx;
    ctx.time = i;
    if (next_use) ctx.next_use = (*next_use)[i];
    policy.access(t[i].block, ctx);
  }
  return policy.hit_ratio();
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto lru = make_lru(2);
  EvictResult ev;
  EXPECT_FALSE(lru->access(1, {}, &ev));
  EXPECT_FALSE(lru->access(2, {}, &ev));
  EXPECT_TRUE(lru->access(1, {}, &ev));  // 1 now MRU
  EXPECT_FALSE(lru->access(3, {}, &ev));
  EXPECT_TRUE(ev.evicted);
  EXPECT_EQ(ev.victim, 2u);
  EXPECT_TRUE(lru->contains(1));
  EXPECT_TRUE(lru->contains(3));
  EXPECT_EQ(lru->size(), 2u);
}

TEST(Lru, EraseRemoves) {
  auto lru = make_lru(4);
  lru->access(1);
  lru->access(2);
  EXPECT_TRUE(lru->erase(1));
  EXPECT_FALSE(lru->erase(1));
  EXPECT_FALSE(lru->contains(1));
  EXPECT_EQ(lru->size(), 1u);
}

TEST(Opt, HandTrace) {
  // Belady on a classic example: capacity 3.
  Trace t("hand");
  for (BlockId b : {7, 0, 1, 2, 0, 3, 0, 4}) t.add(b);
  const auto nu = compute_next_use(t);
  auto opt = make_opt(3);
  std::vector<bool> hits;
  for (std::size_t i = 0; i < t.size(); ++i) {
    AccessContext ctx{i, nu[i]};
    hits.push_back(opt->access(t[i].block, ctx));
  }
  const std::vector<bool> expect = {false, false, false, false,
                                    true,  false, true,  false};
  EXPECT_EQ(hits, expect);
}

// OPT dominance: no on-line policy beats OPT on the same trace and size.
class OptDominanceTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(OptDominanceTest, OptIsUpperBound) {
  const auto [kind, capacity] = GetParam();
  PatternPtr src;
  switch (kind) {
    case 0:
      src = make_uniform_source(0, 300);
      break;
    case 1:
      src = make_zipf_source(0, 300, 1.0, true, 5);
      break;
    case 2:
      src = make_loop_source(0, 150);
      break;
    default:
      src = make_temporal_source(0, 300, 0.1, 4.0);
      break;
  }
  const Trace t = generate(*src, 20000, 77, "w");
  const auto nu = compute_next_use(t);
  auto opt = make_opt(capacity);
  const double opt_hr = run_policy(*opt, t, &nu);
  auto lru = make_lru(capacity);
  EXPECT_LE(run_policy(*lru, t), opt_hr + 1e-9);
  auto lirs = make_lirs(LirsConfig{capacity, 0.05});
  EXPECT_LE(run_policy(*lirs, t), opt_hr + 1e-9);
  auto mq = make_mq(MqConfig{capacity});
  EXPECT_LE(run_policy(*mq, t), opt_hr + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OptDominanceTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(std::size_t{32}, std::size_t{100})));

TEST(Mq, PrefersFrequentBlocks) {
  // Two frequency classes over a cache that fits only half the footprint:
  // the frequent half must hit much more often under MQ.
  std::vector<PatternPtr> sources;
  sources.push_back(make_uniform_source(0, 100));     // hot
  sources.push_back(make_uniform_source(1000, 900));  // cold, weak locality
  auto src = make_mixture_source(std::move(sources), {0.5, 0.5});
  const Trace t = generate(*src, 60000, 9, "freq");
  auto mq = make_mq(MqConfig{200});
  std::uint64_t hot_hits = 0, hot_refs = 0;
  for (const Request& r : t) {
    const bool hit = mq->access(r.block, {});
    if (r.block < 100) {
      ++hot_refs;
      hot_hits += hit ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(hot_hits) / static_cast<double>(hot_refs), 0.9);
}

TEST(Mq, EvictsFromLowestQueueFirst) {
  MqConfig cfg;
  cfg.capacity = 2;
  cfg.queue_count = 4;
  cfg.life_time = 1000;
  auto mq = make_mq(cfg);
  for (int i = 0; i < 4; ++i) mq->access(1, {});  // frequent -> high queue
  mq->access(2, {});                              // cold -> Q0
  mq->access(3, {});                              // eviction needed
  EXPECT_TRUE(mq->contains(1));   // protected by its queue level
  EXPECT_FALSE(mq->contains(2));  // Q0 head was the victim
  EXPECT_TRUE(mq->contains(3));
}

TEST(Mq, LifetimeExpiryDemotesStaleFrequentBlocks) {
  MqConfig cfg;
  cfg.capacity = 3;
  cfg.queue_count = 4;
  cfg.life_time = 1;  // expire almost immediately when unreferenced
  cfg.ghost_capacity = 16;
  auto mq = make_mq(cfg);
  for (int i = 0; i < 4; ++i) mq->access(1, {});
  for (BlockId b = 10; b < 24; ++b) mq->access(b, {});
  // The once-frequent block expired, descended to Q0 and was evicted.
  EXPECT_FALSE(mq->contains(1));
}

TEST(Mq, LongLifetimeProtectsFrequentBlocks) {
  MqConfig cfg;
  cfg.capacity = 3;
  cfg.queue_count = 4;
  cfg.life_time = 100000;
  auto mq = make_mq(cfg);
  for (int i = 0; i < 4; ++i) mq->access(1, {});
  for (BlockId b = 10; b < 24; ++b) mq->access(b, {});
  EXPECT_TRUE(mq->contains(1));  // cold stream churns Q0 only
}

TEST(Mq, GhostFrequencyLiftsHitRate) {
  // Hot set slightly larger than the cache over a large cold stream: the
  // ghost directory lets re-admitted hot blocks resume their frequency and
  // climb out of Q0, so a real Qout must beat a crippled one.
  std::vector<PatternPtr> mk1, mk2;
  for (int v = 0; v < 2; ++v) {
    std::vector<PatternPtr> sources;
    sources.push_back(make_zipf_source(0, 150, 0.6, true, 3));  // hot-ish set
    sources.push_back(make_uniform_source(100000, 20000));      // cold stream
    (v == 0 ? mk1 : mk2)
        .push_back(make_mixture_source(std::move(sources), {0.5, 0.5}));
  }
  const Trace t = generate(*mk1[0], 80000, 21, "g");
  MqConfig with_ghost{/*capacity=*/100, /*queue_count=*/8, /*life_time=*/0,
                      /*ghost_capacity=*/800};
  MqConfig tiny_ghost{/*capacity=*/100, /*queue_count=*/8, /*life_time=*/0,
                      /*ghost_capacity=*/1};
  auto a = make_mq(with_ghost);
  auto b = make_mq(tiny_ghost);
  const double hr_ghost = run_policy(*a, t);
  const double hr_tiny = run_policy(*b, t);
  EXPECT_GT(hr_ghost, hr_tiny);
}

TEST(Mq, BeatsLruOnWeakLocalitySecondLevel) {
  // Second-level cache stream: strip L1 hits by filtering a zipf trace
  // through a small LRU first (the MQ paper's environment).
  auto src = make_zipf_source(0, 2000, 0.9, true, 11);
  const Trace t = generate(*src, 120000, 13, "z");
  auto l1 = make_lru(100);
  Trace filtered("l2");
  for (const Request& r : t) {
    if (!l1->access(r.block, {})) filtered.add(r.block);
  }
  auto mq = make_mq(MqConfig{400});
  auto lru = make_lru(400);
  const double mq_hr = run_policy(*mq, filtered);
  const double lru_hr = run_policy(*lru, filtered);
  EXPECT_GT(mq_hr, lru_hr);
}

TEST(Lirs, BeatsLruOnLoopLargerThanCache) {
  auto src = make_loop_source(0, 120);
  const Trace t = generate(*src, 20000, 1, "loop");
  auto lirs = make_lirs(LirsConfig{100, 0.05});
  auto lru = make_lru(100);
  const double lirs_hr = run_policy(*lirs, t);
  const double lru_hr = run_policy(*lru, t);
  EXPECT_LT(lru_hr, 0.01);   // LRU thrashes the loop
  EXPECT_GT(lirs_hr, 0.5);   // LIRS retains a resident subset
}

TEST(Lirs, SizeNeverExceedsCapacity) {
  auto src = make_zipf_source(0, 500, 1.0, true, 17);
  const Trace t = generate(*src, 30000, 19, "z");
  auto lirs = make_lirs(LirsConfig{64, 0.1});
  for (const Request& r : t) {
    lirs->access(r.block, {});
    ASSERT_LE(lirs->size(), 64u);
  }
}

TEST(Lirs, StaysNearLruOnPureRecencyTraffic) {
  // Where recency is the whole story, LIRS's IRR ranking must not cost
  // more than a whisker of hit ratio against plain LRU.
  auto src = make_temporal_source(0, 800, 0.08, 5.0);
  const Trace t = generate(*src, 40000, 29, "t");
  auto lirs = make_lirs(LirsConfig{300, 0.05});
  auto lru = make_lru(300);
  EXPECT_GT(run_policy(*lirs, t), run_policy(*lru, t) - 0.03);
}

TEST(Mq, SizeNeverExceedsCapacity) {
  // The ghost queue remembers evicted blocks; only resident ones count.
  auto src = make_zipf_source(0, 1000, 0.8, true, 31);
  const Trace t = generate(*src, 30000, 33, "z");
  auto mq = make_mq(MqConfig{100});
  for (const Request& r : t) {
    mq->access(r.block, {});
    ASSERT_LE(mq->size(), 100u);
  }
}

TEST(Policies, EraseOnAllPolicies) {
  std::vector<PolicyPtr> policies;
  policies.push_back(make_lru(8));
  policies.push_back(make_opt(8));
  policies.push_back(make_mq(MqConfig{8}));
  policies.push_back(make_lirs(LirsConfig{8, 0.25}));
  for (auto& policy : policies) {
    for (BlockId b = 0; b < 8; ++b) policy->access(b, {0, kNever});
    ASSERT_TRUE(policy->contains(3)) << policy->name();
    EXPECT_TRUE(policy->erase(3)) << policy->name();
    EXPECT_FALSE(policy->contains(3)) << policy->name();
    EXPECT_FALSE(policy->erase(3)) << policy->name();
  }
}

// Regression for the slab/FlatMap port: a long mixed touch/insert/erase
// churn over a key universe far larger than the cache drives the block index
// through rehashes and tombstone purges and the slab through page carving
// and handle recycling — exactly the conditions under which a call site that
// kept a Value* or node reference across an index mutation would read a
// stale slot. The model tracks residency from EvictResult, so any aliased
// handle or missed index update shows up as a contains() disagreement.
TEST(Policies, ChurnKeepsIndexAndResidencyInAgreement) {
  struct Case {
    const char* label;
    PolicyPtr policy;
  };
  std::vector<Case> cases;
  cases.push_back({"lru", make_lru(64)});
  cases.push_back({"mq", make_mq(MqConfig{64})});
  cases.push_back({"lirs", make_lirs(LirsConfig{64, 0.1})});
  for (auto& c : cases) {
    std::set<BlockId> resident;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    for (std::uint64_t i = 0; i < 20000; ++i) {
      const BlockId b = next() % 4096;  // 64x the cache: constant eviction
      if (next() % 8 == 0) {
        const bool erased = c.policy->erase(b);
        EXPECT_EQ(erased, resident.count(b) != 0) << c.label << " @" << i;
        resident.erase(b);
        continue;
      }
      AccessContext ctx;
      ctx.time = i;
      // touch() hits exactly the resident set (ghost hits in MQ/LIRS
      // report as misses and are admitted below like any other miss).
      const bool hit = c.policy->touch(b, ctx);
      EXPECT_EQ(hit, resident.count(b) != 0) << c.label << " @" << i;
      if (!hit && resident.count(b) == 0) {
        EvictResult ev = c.policy->insert(b, ctx);
        resident.insert(b);
        if (ev.evicted) {
          EXPECT_EQ(resident.erase(ev.victim), 1u) << c.label << " @" << i;
        }
      }
      EXPECT_LE(c.policy->size(), 64u) << c.label << " @" << i;
    }
    // Full sweep: the policy's view of residency must match the model's.
    for (BlockId b = 0; b < 4096; ++b) {
      ASSERT_EQ(c.policy->contains(b), resident.count(b) != 0)
          << c.label << " block " << b;
    }
    EXPECT_EQ(c.policy->size(), resident.size()) << c.label;
  }
}

}  // namespace
}  // namespace ulc
