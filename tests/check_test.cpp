// Shadow-model auditor tests: every real scheme must run clean (and
// transparently) under CheckedHierarchy, and every mutant from
// check/mutations.h must be caught with the expected violation kind.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "check/checked_hierarchy.h"
#include "check/mutations.h"
#include "hierarchy/hierarchy.h"
#include "proto/journal.h"
#include "hierarchy/runner.h"
#include "proto/protocol_sim.h"
#include "replacement/cache_policy.h"
#include "trace/size_table.h"
#include "trace/trace.h"
#include "workloads/paper_presets.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

Trace single_trace() {
  auto src = make_zipf_source(0, 400, 0.9, true, 11);
  return with_writes(generate(*src, 6000, 3, "zipf"), 0.2, 5);
}

Trace loop_trace() {
  auto src = make_loop_source(0, 60);
  return with_writes(generate(*src, 2500, 1, "loop"), 0.25, 7);
}

// Three clients over one block range, so shared blocks exercise the
// multi-client duplication / stale-metadata paths.
Trace multi_trace() {
  std::vector<PatternPtr> sources;
  sources.push_back(make_zipf_source(0, 300, 0.9, true, 21));
  sources.push_back(make_zipf_source(0, 300, 0.8, true, 22));
  sources.push_back(make_loop_source(100, 150));
  return with_writes(
      generate_multi(std::move(sources), {1.0, 1.0, 0.5}, 9000, 13, "multi"),
      0.15, 9);
}

// Mixed-size twins of the traces above: the same reference streams with
// deterministic per-block footprints stamped on (id-stable sizes).
Trace sized_single_trace() {
  Trace t = single_trace();
  stamp_sizes(t, assign_bimodal_sizes(0, 400, 1, 4, 0.25, 17));
  return t;
}

Trace sized_loop_trace() {
  Trace t = loop_trace();
  stamp_sizes(t, assign_bimodal_sizes(0, 60, 1, 4, 0.3, 23));
  return t;
}

Trace sized_multi_trace() {
  Trace t = multi_trace();
  stamp_sizes(t, assign_heavy_tail_sizes(0, 300, 1.1, 12, 19));
  return t;
}

void expect_stats_equal(const HierarchyStats& a, const HierarchyStats& b) {
  EXPECT_EQ(a.references, b.references);
  EXPECT_EQ(a.level_hits, b.level_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.reloads, b.reloads);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.eviction_notices, b.eviction_notices);
  EXPECT_EQ(a.stale_syncs, b.stale_syncs);
  EXPECT_EQ(a.level_hit_bytes, b.level_hit_bytes);
  EXPECT_EQ(a.miss_bytes, b.miss_bytes);
  EXPECT_EQ(a.demotion_bytes, b.demotion_bytes);
  EXPECT_EQ(a.reload_bytes, b.reload_bytes);
  EXPECT_EQ(a.sized, b.sized);
}

// Runs `checked` and `plain` over the trace and requires the auditor to be
// both silent and invisible (statistics identical to the unchecked twin).
void expect_clean(SchemePtr checked_inner, SchemePtr plain, const Trace& t,
                  bool expect_event_checks = true) {
  CheckOptions opt;
  opt.sweep_interval = 32;
  opt.context = t.name();
  CheckedHierarchy checked(std::move(checked_inner), opt);
  EXPECT_EQ(checked.event_checks_active(), expect_event_checks) << checked.name();
  for (const Request& r : t) {
    ASSERT_NO_THROW(checked.access(r)) << checked.name();
    plain->access(r);
  }
  ASSERT_NO_THROW(checked.final_check()) << checked.name();
  expect_stats_equal(checked.stats(), plain->stats());
  EXPECT_EQ(checked.accesses_checked(), t.size());
}

TEST(CheckedHierarchy, IndLruSingleRunsClean) {
  const Trace t = single_trace();
  expect_clean(make_ind_lru({32, 64, 48}), make_ind_lru({32, 64, 48}), t);
}

TEST(CheckedHierarchy, IndLruMultiClientRunsClean) {
  const Trace t = multi_trace();
  expect_clean(make_ind_lru({16, 64}, 3), make_ind_lru({16, 64}, 3), t);
}

TEST(CheckedHierarchy, UniLruRunsClean) {
  const Trace t = single_trace();
  expect_clean(make_uni_lru({24, 40, 36}), make_uni_lru({24, 40, 36}), t);
}

TEST(CheckedHierarchy, UniLruLoopRunsClean) {
  const Trace t = loop_trace();
  expect_clean(make_uni_lru({8, 12, 10}), make_uni_lru({8, 12, 10}), t);
}

TEST(CheckedHierarchy, UniLruMultiInsertionVariantsRunClean) {
  const Trace t = multi_trace();
  for (auto ins : {UniLruInsertion::kMru, UniLruInsertion::kMiddle,
                   UniLruInsertion::kLru}) {
    expect_clean(make_uni_lru_multi(16, 64, 3, ins),
                 make_uni_lru_multi(16, 64, 3, ins), t);
  }
}

TEST(CheckedHierarchy, ReloadUniLruRunsClean) {
  const Trace t = single_trace();
  expect_clean(make_reload_uni_lru({24, 40, 36}), make_reload_uni_lru({24, 40, 36}),
               t);
}

TEST(CheckedHierarchy, MqHierarchyRunsClean) {
  const Trace t = multi_trace();
  expect_clean(make_mq_hierarchy(16, 64, 3), make_mq_hierarchy(16, 64, 3), t);
}

TEST(CheckedHierarchy, UlcSingleRunsClean) {
  const Trace t = single_trace();
  expect_clean(make_ulc({32, 48, 40}), make_ulc({32, 48, 40}), t);
}

TEST(CheckedHierarchy, UlcSingleTwoLevelLoopRunsClean) {
  const Trace t = loop_trace();
  expect_clean(make_ulc({10, 14}), make_ulc({10, 14}), t);
}

TEST(CheckedHierarchy, UlcMultiRunsClean) {
  const Trace t = multi_trace();
  expect_clean(make_ulc_multi(16, 64, 3), make_ulc_multi(16, 64, 3), t);
}

TEST(CheckedHierarchy, UlcMultiThreeRunsClean) {
  const Trace t = multi_trace();
  expect_clean(make_ulc_multi_three(12, 32, 48, 3),
               make_ulc_multi_three(12, 32, 48, 3), t);
}

// The byte laws on traces where they differ from the count laws: every
// scheme must keep its byte twins conserved against the narrated byte flow,
// its byte occupancy under budget at access boundaries, and its internal
// byte accounting in step with the shadow model — on mixed-size traces.
TEST(CheckedHierarchy, MixedSizeSingleClientSchemesRunClean) {
  const Trace t = sized_single_trace();
  expect_clean(make_uni_lru({24, 40, 36}), make_uni_lru({24, 40, 36}), t);
  expect_clean(make_ulc({32, 48, 40}), make_ulc({32, 48, 40}), t);
  expect_clean(make_ind_lru({32, 64, 48}), make_ind_lru({32, 64, 48}), t);
  expect_clean(make_reload_uni_lru({24, 40, 36}), make_reload_uni_lru({24, 40, 36}),
               t);
}

TEST(CheckedHierarchy, MixedSizeMultiClientSchemesRunClean) {
  const Trace t = sized_multi_trace();
  expect_clean(make_ulc_multi(16, 64, 3), make_ulc_multi(16, 64, 3), t);
  expect_clean(make_uni_lru_multi(16, 64, 3, UniLruInsertion::kMru),
               make_uni_lru_multi(16, 64, 3, UniLruInsertion::kMru), t);
  expect_clean(make_mq_hierarchy(16, 64, 3), make_mq_hierarchy(16, 64, 3), t);
  expect_clean(make_ulc_multi_three(12, 32, 48, 3),
               make_ulc_multi_three(12, 32, 48, 3), t);
}

TEST(CheckedHierarchy, JournaledRunsStayCleanAndConserveWritebacks) {
  // With a journal attached through the auditor, every scheme must satisfy
  // the durability laws live (D1–D3 on every access) and its write-back
  // counter must equal the journal's appends.
  const Trace t = sized_single_trace();
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_uni_lru({24, 40, 36}));
  schemes.push_back(make_ulc({32, 48, 40}));
  schemes.push_back(make_ind_lru({32, 64, 48}));
  schemes.push_back(make_reload_uni_lru({24, 40, 36}));
  for (SchemePtr& s : schemes) {
    CheckOptions opt;
    opt.sweep_interval = 32;
    opt.context = t.name();
    CheckedHierarchy checked(std::move(s), opt);
    WritebackJournal journal;
    checked.set_writeback_journal(&journal);
    for (const Request& r : t) ASSERT_NO_THROW(checked.access(r)) << checked.name();
    ASSERT_NO_THROW(checked.final_check()) << checked.name();
    EXPECT_EQ(journal.stats().appended, checked.stats().writebacks)
        << checked.name();
    EXPECT_GT(journal.stats().appended, 0u) << checked.name();
  }
}

TEST(CheckedHierarchy, UnsupportedSchemesFallBackToStatsChecks) {
  const Trace t = single_trace();
  // tempLRU variant and policy-server extensions only get the conservation
  // fallback; they must still run clean and transparently.
  expect_clean(make_ulc({32, 48}, 8), make_ulc({32, 48}, 8), t,
               /*expect_event_checks=*/false);
  expect_clean(make_policy_hierarchy(16, make_lirs(LirsConfig{64}), 1),
               make_policy_hierarchy(16, make_lirs(LirsConfig{64}), 1), t,
               /*expect_event_checks=*/false);
}

TEST(CheckedHierarchy, TransparentUnderRunScheme) {
  // The warmup reset_stats path of the experiment runner must not confuse
  // the auditor, and the checked run must report identical results.
  const Trace t = single_trace();
  auto checked = make_checked(make_ulc({32, 48, 40}), {false, 64, t.name()});
  auto plain = make_ulc({32, 48, 40});
  const CostModel m = CostModel::paper_three_level();
  const RunResult rc = run_scheme(*checked, t, m);
  const RunResult rp = run_scheme(*plain, t, m);
  expect_stats_equal(rc.stats, rp.stats);
  EXPECT_DOUBLE_EQ(rc.t_ave_ms, rp.t_ave_ms);
  EXPECT_STREQ(checked->name(), plain->name());
}

TEST(CheckedHierarchy, PaperPresetsTinyScaleRunClean) {
  // The paper's single-client workload stand-ins, audited end to end for
  // every exclusive scheme (sweeps at a coarser interval — these traces are
  // ~130k references).
  for (const char* name : {"cs", "zipf-small", "sprite"}) {
    const Trace t = make_preset(name);
    CheckOptions opt;
    opt.sweep_interval = 4096;
    opt.context = std::string("preset=") + name;
    std::vector<SchemePtr> schemes;
    schemes.push_back(make_uni_lru({400, 800, 600}));
    schemes.push_back(make_ulc({400, 800, 600}));
    schemes.push_back(make_ind_lru({400, 800, 600}));
    for (SchemePtr& s : schemes) {
      CheckedHierarchy checked(std::move(s), opt);
      for (const Request& r : t) ASSERT_NO_THROW(checked.access(r)) << name;
      ASSERT_NO_THROW(checked.final_check()) << name;
    }
  }
}

TEST(CheckedHierarchy, PaperMultiClientPresetTinyScaleRunsClean) {
  const Trace t = make_preset("httpd-multi", 0.002);  // 7 clients
  CheckOptions opt;
  opt.sweep_interval = 2048;
  opt.context = "preset=httpd-multi scale=0.002";
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_ulc_multi(256, 1024, 7));
  schemes.push_back(make_uni_lru_multi(256, 1024, 7, UniLruInsertion::kMru));
  for (SchemePtr& s : schemes) {
    CheckedHierarchy checked(std::move(s), opt);
    for (const Request& r : t) ASSERT_NO_THROW(checked.access(r));
    ASSERT_NO_THROW(checked.final_check());
  }
}

TEST(CheckedHierarchy, AuditedCountsMatchProtocolMessageCounts) {
  // The narrated demote/reload counters the auditor certifies are the same
  // counts the message-level simulator produces by *playing* the protocol:
  // demotions == Demote messages on the links, per scheme.
  auto src = make_zipf_source(0, 500, 0.9, true, 7);
  const Trace t = generate(*src, 30000, 9, "z");
  const ProtocolConfig cfg = ProtocolConfig::paper_three_level({64, 64, 64});
  for (ProtocolScheme scheme :
       {ProtocolScheme::kUlc, ProtocolScheme::kUniLru, ProtocolScheme::kIndLru}) {
    const ProtocolResult r = run_protocol_sim(scheme, cfg, t);
    SchemePtr ref;
    if (scheme == ProtocolScheme::kUlc) ref = make_ulc(cfg.caps);
    if (scheme == ProtocolScheme::kUniLru) ref = make_uni_lru(cfg.caps);
    if (scheme == ProtocolScheme::kIndLru) ref = make_ind_lru(cfg.caps);
    auto checked = make_checked(std::move(ref), {false, 1024, "proto-xcheck"});
    const RunResult rr = run_scheme(*checked, t, CostModel::paper_three_level(),
                                    cfg.warmup_fraction);
    EXPECT_EQ(r.stats.level_hits, rr.stats.level_hits)
        << protocol_scheme_name(scheme);
    EXPECT_EQ(r.stats.misses, rr.stats.misses) << protocol_scheme_name(scheme);
    EXPECT_EQ(r.stats.demotions, rr.stats.demotions)
        << protocol_scheme_name(scheme);
  }
}

// ---- Mutation tests: the auditor must catch every broken variant ----

std::optional<ViolationKind> violation_of(SchemePtr scheme, const Trace& t,
                                          std::size_t sweep_interval = 8) {
  CheckOptions opt;
  opt.sweep_interval = sweep_interval;
  opt.context = "mutation-test";
  CheckedHierarchy checked(std::move(scheme), opt);
  try {
    for (const Request& r : t) checked.access(r);
    checked.final_check();
  } catch (const AuditViolation& v) {
    return v.kind;
  }
  return std::nullopt;
}

TEST(Mutations, DoublePlaceOnExclusiveSchemeIsExclusivityViolation) {
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kDoublePlace),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kExclusivity);
}

TEST(Mutations, DoublePlaceOnInclusiveSchemeIsDuplicateViolation) {
  const auto kind =
      violation_of(make_mutant(make_ind_lru({8, 16}), Mutation::kDoublePlace),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDuplicate);
}

TEST(Mutations, SkippedDemoteOverflowsTargetLevel) {
  // Dropping the deepest boundary slide leaves the next slide's target level
  // one over capacity — the replay check fires before the stats deltas do.
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kSkipDemote),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kCapacity);
}

TEST(Mutations, SkippedDemoteOnUlcIsCaught) {
  // Needs the zipf trace: a pure loop over more blocks than the aggregate
  // cache degenerates ULC to pass-through (no demotions to drop).
  const auto kind =
      violation_of(make_mutant(make_ulc({8, 12, 10}), Mutation::kSkipDemote),
                   single_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kCapacity);
}

TEST(Mutations, DroppedEvictionOverflowsCapacity) {
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kDropEvict),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kCapacity);
}

TEST(Mutations, SizeLeakOverflowsByteBudgetOnSizedTrace) {
  // "Evict until the newcomer fits" degraded to "evict once": a 4-unit
  // admission pushes several 1-unit victims out but only the first leaves
  // the narration, so the bottom level's byte occupancy exceeds its budget
  // at the end of the access — the byte-capacity law must bite.
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kSizeLeak),
                   sized_loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kCapacity);
}

TEST(Mutations, SizeLeakIsInvisibleAtUnitSize) {
  // The same defect never fires on a unit-size trace: one admission needs at
  // most one victim, so the suppressed second eviction never exists. This is
  // exactly the bug class the pre-refactor (count-capacity) auditor could
  // not express.
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kSizeLeak),
                   loop_trace());
  EXPECT_FALSE(kind.has_value());
}

TEST(Mutations, GhostDemoteIsCaught) {
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kGhostDemote),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kGhost);
}

TEST(Mutations, GhostDemoteOnUlcMultiIsCaught) {
  const auto kind = violation_of(
      make_mutant(make_ulc_multi(8, 24, 3), Mutation::kGhostDemote), multi_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kGhost);
}

TEST(Mutations, ServeOfWrongBlockIsSequencingViolation) {
  // Needs the zipf trace: the loop trace thrashes with no lower-level hits,
  // so uniLRU never emits a serve for the mutant to corrupt.
  const auto kind = violation_of(
      make_mutant(make_uni_lru({8, 12, 10}), Mutation::kServeWrongBlock),
      single_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kSequencing);
}

TEST(Mutations, DroppedMissBreaksConservation) {
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kStatsDrop),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kConservation);
}

TEST(Mutations, LyingResidencyDirectoryDrifts) {
  const auto kind = violation_of(
      make_mutant(make_uni_lru({8, 12, 10}), Mutation::kLyingResidency),
      loop_trace(), /*sweep_interval=*/4);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDrift);
}

TEST(Mutations, CorruptedYardstickIsCaught) {
  const auto kind = violation_of(
      make_mutant(make_uni_lru({8, 12, 10}), Mutation::kMisorderYardstick),
      loop_trace(), /*sweep_interval=*/4);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kYardstick);
}

TEST(Mutations, DroppedDirtyWritebackIsDurabilityViolation) {
  // A dirty victim leaves the hierarchy with its write-back suppressed
  // (narration and counter both): only the durability shadow can see the
  // stale on-disk copy become the sole copy.
  const auto kind =
      violation_of(make_mutant(make_uni_lru({8, 12, 10}), Mutation::kDropDirty),
                   loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDurability);
}

TEST(Mutations, DroppedDirtyWritebackOnUlcIsCaught) {
  const auto kind =
      violation_of(make_mutant(make_ulc({8, 12, 10}), Mutation::kDropDirty),
                   single_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDurability);
}

TEST(Mutations, AckBeforeWriteIsDurabilityViolation) {
  // A clean victim's eviction gains a fabricated write-back (counter bumped
  // to match): acknowledging data that was never dirty.
  const auto kind = violation_of(
      make_mutant(make_uni_lru({8, 12, 10}), Mutation::kAckBeforeWrite),
      loop_trace());
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDurability);
}

TEST(Mutations, ReplayReorderViolatesJournalLaw) {
  // The mutant completes each access's journal write-backs newest-first; the
  // journal's prefix-order law (D3, checked at every access boundary) fires
  // on the first access that writes back two or more blocks. Needs the sized
  // trace so one big admission evicts several dirty victims at once.
  CheckOptions opt;
  opt.sweep_interval = 8;
  opt.context = "mutation-test";
  CheckedHierarchy checked(
      make_mutant(make_uni_lru({8, 12, 10}), Mutation::kReplayReorder), opt);
  WritebackJournal journal(WritebackJournal::Mode::kManual);
  checked.set_writeback_journal(&journal);
  std::optional<ViolationKind> kind;
  try {
    for (const Request& r : sized_loop_trace()) checked.access(r);
    checked.final_check();
  } catch (const AuditViolation& v) {
    kind = v.kind;
  }
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ViolationKind::kDurability);
  EXPECT_GT(journal.stats().replay_reorders, 0u);
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, AbortModeDiesWithReplayContext) {
  const Trace t = loop_trace();
  EXPECT_DEATH(
      {
        CheckOptions opt;
        opt.abort_on_violation = true;
        opt.context = "seed=1 preset=loop";
        CheckedHierarchy checked(
            make_mutant(make_uni_lru({8, 12, 10}), Mutation::kDropEvict), opt);
        for (const Request& r : t) checked.access(r);
      },
      "audit violation.*capacity.*seed=1 preset=loop");
}

}  // namespace
}  // namespace ulc
