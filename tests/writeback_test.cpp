// Write-request handling: placement is identical to reads (paper §5), but
// dirty blocks leaving the hierarchy must be written back to disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "check/checked_hierarchy.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "proto/journal.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "util/prng.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

TEST(Writes, WithWritesMarksRequestedFraction) {
  auto src = make_uniform_source(0, 100);
  const Trace t = with_writes(generate(*src, 20000, 1, "u"), 0.3, 7);
  const TraceStats s = compute_stats(t);
  EXPECT_NEAR(static_cast<double>(s.writes) / 20000.0, 0.3, 0.02);
  // Deterministic.
  const Trace t2 = with_writes(generate(*src, 20000, 1, "u"), 0.3, 7);
  for (std::size_t i = 0; i < t.size(); i += 333) EXPECT_EQ(t[i], t2[i]);
}

TEST(Writes, TraceIoRoundTripsOps) {
  Trace t("ops");
  t.add(1, 0, Op::kRead);
  t.add(2, 1, Op::kWrite);
  t.add(3, 0, Op::kWrite);
  const std::string text = ::testing::TempDir() + "/ulc_ops.txt";
  const std::string bin = ::testing::TempDir() + "/ulc_ops.bin";
  std::string err;
  ASSERT_TRUE(save_trace_text(t, text, &err)) << err;
  ASSERT_TRUE(save_trace_binary(t, bin, &err)) << err;
  for (const std::string& path : {text, bin}) {
    auto loaded = path == text ? load_trace_text(path, &err)
                               : load_trace_binary(path, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    ASSERT_EQ(loaded->size(), 3u);
    EXPECT_EQ((*loaded)[0].op, Op::kRead);
    EXPECT_EQ((*loaded)[1].op, Op::kWrite);
    EXPECT_EQ((*loaded)[1].client, 1u);
    EXPECT_EQ((*loaded)[2].op, Op::kWrite);
  }
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(Writeback, UniLruWritesBackDirtyEvictions) {
  // All-write loop larger than the aggregate: every eviction is dirty.
  auto src = make_loop_source(0, 300);
  const Trace t = with_writes(generate(*src, 10000, 1, "loop"), 1.0, 3);
  auto uni = make_uni_lru({100, 100});
  for (const Request& r : t) uni->access(r);
  const HierarchyStats& s = uni->stats();
  // Once warm, each miss evicts one dirty block.
  EXPECT_GT(s.writebacks, s.misses - 400);
  EXPECT_LE(s.writebacks, s.misses);
}

TEST(Writeback, CleanTrafficWritesNothing) {
  auto src = make_loop_source(0, 300);
  const Trace t = generate(*src, 10000, 1, "loop");  // all reads
  auto uni = make_uni_lru({100, 100});
  auto ulc = make_ulc({100, 100});
  for (const Request& r : t) {
    uni->access(r);
    ulc->access(r);
  }
  EXPECT_EQ(uni->stats().writebacks, 0u);
  EXPECT_EQ(ulc->stats().writebacks, 0u);
}

TEST(Writeback, UlcUncachedWritesGoStraightToDisk) {
  // Fill the hierarchy, then write to fresh (never-cached) blocks: ULC gives
  // them L_out status, so every such write is an immediate write-through.
  auto warm = make_loop_source(0, 20);
  Trace t("w");
  {
    Rng rng(1);
    for (int i = 0; i < 40; ++i) t.add(warm->next(rng), 0, Op::kRead);
    for (BlockId b = 1000; b < 1050; ++b) t.add(b, 0, Op::kWrite);
  }
  auto ulc = make_ulc({10, 10});
  for (const Request& r : t) ulc->access(r);
  EXPECT_EQ(ulc->stats().writebacks, 50u);
}

TEST(Writeback, UlcDirtyDiscardIsWrittenBack) {
  // Mixed load with writes over a churning working set: discarded-dirty
  // blocks must be written back; total writebacks never exceed writes.
  auto src = make_zipf_source(0, 400, 0.8, true, 5);
  const Trace t = with_writes(generate(*src, 30000, 7, "z"), 0.4, 9);
  auto ulc = make_ulc({40, 40});
  for (const Request& r : t) ulc->access(r);
  const HierarchyStats& s = ulc->stats();
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_LE(s.writebacks, compute_stats(t).writes);
}

TEST(Writeback, ReloadSchemeWritesBackBeforeDroppingDirty) {
  // Under eviction-based placement a dirty block cannot be silently dropped
  // and reloaded (the disk copy is stale): crossings of dirty blocks add
  // writebacks on top of uniLRU's.
  auto src = make_loop_source(0, 150);
  const Trace t = with_writes(generate(*src, 20000, 1, "loop"), 1.0, 11);
  auto reload = make_reload_uni_lru({100, 100});
  auto uni = make_uni_lru({100, 100});
  for (const Request& r : t) {
    reload->access(r);
    uni->access(r);
  }
  EXPECT_GT(reload->stats().writebacks, uni->stats().writebacks);
}

TEST(Writeback, CostModelReportsWritebackDiskTime) {
  HierarchyStats s;
  s.resize(2);
  s.references = 100;
  s.level_hits = {60, 20};
  s.misses = 20;
  s.writebacks = 10;
  const CostModel m{{1.0, 10.0}};
  const AccessTimeBreakdown b = compute_access_time(s, m);
  EXPECT_DOUBLE_EQ(b.writeback_disk_ms, 0.1 * 10.0);
  // Off the critical path: not part of total().
  EXPECT_DOUBLE_EQ(b.total(),
                   b.hit_component + b.miss_component + b.demotion_component);
}

TEST(Writeback, MultiClientUlcServerEvictions) {
  // Two clients writing over sets larger than client+server: gLRU evictions
  // of dirty blocks must be written back.
  std::vector<PatternPtr> sources;
  sources.push_back(make_zipf_source(0, 800, 0.7, true, 3));
  sources.push_back(make_zipf_source(10000, 800, 0.7, true, 5));
  Trace t = generate_multi(std::move(sources), {1.0, 1.0}, 30000, 13, "mw");
  t = with_writes(t, 0.5, 15);
  auto scheme = make_ulc_multi(32, 128, 2);
  for (const Request& r : t) scheme->access(r);
  EXPECT_GT(scheme->stats().writebacks, 0u);
}

// Every single-client scheme, for the dirty-data laws below.
std::vector<SchemePtr> single_client_family() {
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_uni_lru({40, 40}));
  schemes.push_back(make_ulc({40, 40}));
  schemes.push_back(make_ind_lru({40, 40}));
  schemes.push_back(make_reload_uni_lru({40, 40}));
  schemes.push_back(make_uni_lru_multi(40, 80, 1, UniLruInsertion::kMru));
  schemes.push_back(make_ulc_multi(40, 80, 1));
  schemes.push_back(make_ulc_multi_three(32, 48, 64, 1));
  schemes.push_back(make_mq_hierarchy(40, 80, 1));
  return schemes;
}

TEST(Writeback, NoBlockIsWrittenBackMoreOftenThanItIsWritten) {
  // A write-back consumes the dirty marking a write left, so per block the
  // journal can never hold more write-backs than there were writes.
  auto src = make_zipf_source(0, 400, 0.8, true, 5);
  const Trace t = with_writes(generate(*src, 20000, 7, "z"), 0.4, 9);
  std::map<BlockId, std::uint64_t> writes;
  for (const Request& r : t)
    if (r.op == Op::kWrite) ++writes[r.block];
  for (SchemePtr& s : single_client_family()) {
    WritebackJournal j;
    s->set_writeback_journal(&j);
    for (const Request& r : t) s->access(r);
    ASSERT_GT(j.entries().size(), 0u) << s->name();
    std::map<BlockId, std::uint64_t> written_back;
    for (const JournalEntry& e : j.entries()) ++written_back[e.block];
    for (const auto& [block, n] : written_back)
      EXPECT_LE(n, writes[block]) << s->name() << " block " << block;
  }
}

TEST(Writeback, ResidentDirtyBlocksAreNotWrittenBack) {
  // Twenty written blocks fit the top level of every scheme: while they
  // stay resident their dirty data stays cached, so nothing reaches disk.
  Trace t("fits");
  for (BlockId b = 0; b < 20; ++b) t.add(b, 0, Op::kWrite);
  for (int pass = 0; pass < 5; ++pass)
    for (BlockId b = 0; b < 20; ++b)
      t.add(b, 0, pass % 2 == 0 ? Op::kRead : Op::kWrite);
  for (SchemePtr& s : single_client_family()) {
    for (const Request& r : t) s->access(r);
    EXPECT_EQ(s->stats().writebacks, 0u) << s->name();
  }
}

// ---- Write-back journal: epoch-stamped append/write/ack lifecycle ----

TEST(Journal, SynchronousModeAcksInAppendOrder) {
  WritebackJournal j;  // synchronous: append implies written + acked
  const std::uint64_t s1 = j.append(7, 0, 4);
  const std::uint64_t s2 = j.append(9, 1, 1);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.state_of(s2), JournalEntryState::kAcked);
  EXPECT_EQ(j.stats().appended, 2u);
  EXPECT_EQ(j.stats().appended_bytes, 5u);
  EXPECT_EQ(j.stats().acked, 2u);
  EXPECT_EQ(j.pending(), 0u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
  const auto replay = j.replay();
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].seq, s1);
  EXPECT_EQ(replay[1].seq, s2);
}

TEST(Journal, ManualModeTracksTheAckPipeline) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 2);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kPending);
  EXPECT_EQ(j.pending(), 1u);
  j.mark_written(s1);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kWritten);
  j.ack(s1);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.pending(), 0u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
}

TEST(Journal, AckOfAnUnwrittenEntryViolatesTheLaw) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 1);
  j.ack(s1);  // never marked written
  EXPECT_EQ(j.stats().ack_before_write, 1u);
  std::string why;
  EXPECT_FALSE(j.laws_hold(why));
  EXPECT_NE(why.find("before"), std::string::npos);
}

TEST(Journal, OutOfOrderAcksViolateThePrefixLaw) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 1);
  const std::uint64_t s2 = j.append(9, 0, 1);
  j.mark_written(s1);
  j.mark_written(s2);
  j.ack(s2);
  j.ack(s1);  // acked behind an already-acked later entry
  EXPECT_EQ(j.stats().replay_reorders, 1u);
  std::string why;
  EXPECT_FALSE(j.laws_hold(why));
}

TEST(Journal, CrashWipesUnackedEntriesAndBumpsTheEpoch) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 1, 3);
  const std::uint64_t s2 = j.append(9, 1, 2);
  const std::uint64_t s3 = j.append(11, 0, 1);  // another level: survives
  j.mark_written(s1);
  j.ack(s1);
  EXPECT_EQ(j.epoch(), 0u);
  const auto wiped = j.crash_wipe(1);
  EXPECT_EQ(wiped.entries, 1u);  // s2 only: s1 was already acked
  EXPECT_EQ(wiped.bytes, 2u);
  EXPECT_EQ(j.epoch(), 1u);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.state_of(s2), JournalEntryState::kLost);
  EXPECT_EQ(j.state_of(s3), JournalEntryState::kPending);
  EXPECT_EQ(j.stats().lost_unacked, 1u);
  EXPECT_EQ(j.stats().lost_unacked_bytes, 2u);
  EXPECT_EQ(j.stats().lost_acked, 0u);
  // An acknowledged write is never lost: the laws still hold after a crash.
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
  // Replay returns exactly the acknowledged prefix, in ack order.
  const auto replay = j.replay();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, s1);
  // New appends carry the post-crash epoch.
  const std::uint64_t s4 = j.append(13, 1, 1);
  EXPECT_EQ(j.entries()[s4 - 1].epoch, 1u);
}

TEST(Journal, RecordLossCountsDirtyDataLostOutsideThePipeline) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  j.record_loss(5, 0, 3);
  EXPECT_EQ(j.stats().dirty_lost, 1u);
  EXPECT_EQ(j.stats().dirty_lost_bytes, 3u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;  // a narrated loss is not a law break
}

void expect_writebacks_journaled(MultiLevelScheme& s, const Trace& t) {
  WritebackJournal j;
  s.set_writeback_journal(&j);
  for (const Request& r : t) s.access(r);
  EXPECT_EQ(j.stats().appended, s.stats().writebacks) << s.name();
  EXPECT_EQ(j.stats().acked, j.stats().appended) << s.name();
  EXPECT_GT(j.stats().appended, 0u) << s.name();
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << s.name() << ": " << why;
}

TEST(Journal, SchemeWritebacksAllReachTheJournal) {
  // Every scheme's write-back counter must equal its journal appends across
  // the whole family, single-client and with three clients sharing one
  // block range — the only way a ULC write-through meets a dirty marking
  // another client left on a stale lower copy.
  auto src = make_zipf_source(0, 400, 0.8, true, 5);
  const Trace t = with_writes(generate(*src, 20000, 7, "z"), 0.4, 9);
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_uni_lru({40, 40}));
  schemes.push_back(make_ulc({40, 40}));
  schemes.push_back(make_ind_lru({40, 40}));
  schemes.push_back(make_reload_uni_lru({40, 40}));
  schemes.push_back(make_uni_lru_multi(40, 80, 1, UniLruInsertion::kMru));
  schemes.push_back(make_ulc_multi(40, 80, 1));
  schemes.push_back(make_ulc_multi_three(32, 48, 64, 1));
  schemes.push_back(make_mq_hierarchy(40, 80, 1));
  for (SchemePtr& s : schemes) expect_writebacks_journaled(*s, t);

  std::vector<PatternPtr> sources;
  for (std::uint64_t c = 0; c < 3; ++c)
    sources.push_back(make_zipf_source(0, 400, 0.8, true, 5 + c));
  const Trace shared = with_writes(
      generate_multi(std::move(sources), {1.0, 1.0, 1.0}, 20000, 7, "zm"), 0.4, 9);
  std::vector<SchemePtr> multi;
  multi.push_back(make_ind_lru({40, 40}, 3));
  multi.push_back(make_uni_lru_multi(40, 80, 3, UniLruInsertion::kMru));
  multi.push_back(make_ulc_multi(40, 80, 3));
  multi.push_back(make_ulc_multi_three(32, 48, 64, 3));
  multi.push_back(make_mq_hierarchy(40, 80, 3));
  for (SchemePtr& s : multi) expect_writebacks_journaled(*s, shared);
}

// Replays `t` under the auditor with a journal attached and, at three
// checkpoints, resyncs the hierarchy: first one resync_drop of a dirty
// block per level, then a resync_level of one level (a different one each
// time). A dirty model kept outside the scheme — a write marks its block, a
// narrated kWriteback clears it — names the dirty blocks resident at the
// resynced level beforehand; the journal must count exactly those as lost.
void expect_resync_losses_counted(SchemePtr inner, const Trace& t,
                                  std::size_t levels, std::size_t clients) {
  CheckOptions opt;
  opt.sweep_interval = 64;
  opt.context = "resync-dirty-loss";
  CheckedHierarchy checked(std::move(inner), opt);
  ASSERT_TRUE(checked.supports_resync());
  WritebackJournal journal;
  checked.set_writeback_journal(&journal);
  std::set<BlockId> dirty;
  std::vector<std::size_t> at;
  auto dirty_at = [&](ClientId client, std::size_t level) {
    std::vector<BlockId> out;
    for (BlockId b : dirty) {
      at.clear();
      checked.audit_resident_levels(client, b, at);
      if (std::find(at.begin(), at.end(), level) != at.end()) out.push_back(b);
    }
    return out;
  };
  std::uint64_t lost_total = 0;
  std::uint64_t drops = 0;
  // A dirty block is lost only with its last copy: while another client's
  // cache or a shared level still holds it, it stays dirty.
  auto cached_anywhere = [&](BlockId b) {
    for (ClientId c = 0; c < clients; ++c) {
      at.clear();
      checked.audit_resident_levels(c, b, at);
      if (!at.empty()) return true;
    }
    return false;
  };
  auto expect_lost = [&](std::vector<BlockId> gone, std::uint64_t before) {
    std::erase_if(gone, cached_anywhere);
    EXPECT_EQ(journal.stats().dirty_lost - before, gone.size()) << checked.name();
    for (BlockId b : gone) dirty.erase(b);
    lost_total += gone.size();
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].op == Op::kWrite) dirty.insert(t[i].block);
    checked.access(t[i]);
    for (const AuditEvent& e : checked.last_events())
      if (e.kind == AuditEvent::Kind::kWriteback) dirty.erase(e.block);
    if (i % 1000 != 999 || i / 1000 > 2) continue;
    const std::size_t k = i / 1000;
    const ClientId client = static_cast<ClientId>(k % clients);
    for (std::size_t level = 0; level < levels; ++level) {
      const std::vector<BlockId> candidates = dirty_at(client, level);
      if (candidates.empty()) continue;
      const std::uint64_t before = journal.stats().dirty_lost;
      EXPECT_TRUE(checked.resync_drop(client, candidates[0], level)) << checked.name();
      expect_lost({candidates[0]}, before);
      ++drops;
    }
    const std::vector<BlockId> wiped = dirty_at(client, k % levels);
    EXPECT_FALSE(wiped.empty()) << checked.name() << " level " << k % levels;
    const std::uint64_t before = journal.stats().dirty_lost;
    (void)checked.resync_level(client, k % levels);
    expect_lost(wiped, before);
  }
  ASSERT_NO_THROW(checked.final_check()) << checked.name();
  EXPECT_GE(drops, levels) << checked.name();
  EXPECT_GT(lost_total, 0u) << checked.name();
  EXPECT_EQ(journal.stats().dirty_lost, lost_total) << checked.name();
  EXPECT_EQ(journal.stats().appended, checked.stats().writebacks) << checked.name();
  std::string why;
  EXPECT_TRUE(journal.laws_hold(why)) << checked.name() << ": " << why;
}

TEST(Journal, WritebackCarriesTheWrittenSize) {
  // Each block is always written with its own size; every journal entry
  // must carry that size, whichever scheme wrote it back.
  auto size_of = [](BlockId b) { return static_cast<SizeUnits>(1 + b % 4); };
  auto src = make_loop_source(0, 300);
  Trace t = with_writes(generate(*src, 10000, 1, "loop"), 1.0, 3);
  Trace sized("sized");
  for (const Request& r : t) sized.add(r.block, r.client, r.op, size_of(r.block));
  for (SchemePtr& s : single_client_family()) {
    WritebackJournal j;
    s->set_writeback_journal(&j);
    for (const Request& r : sized) s->access(r);
    ASSERT_GT(j.entries().size(), 0u) << s->name();
    for (const JournalEntry& e : j.entries())
      ASSERT_EQ(e.size, size_of(e.block)) << s->name() << " block " << e.block;
  }
}

TEST(Journal, ResyncOfCleanDataLosesNothing) {
  // Read-only traffic leaves no dirty marking, so wiping every level of
  // every client reports no loss and writes nothing back.
  auto src = make_zipf_source(0, 160, 0.8, true, 3);
  const Trace t = generate(*src, 4000, 4, "clean");
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_ulc({16, 24, 20}));
  schemes.push_back(make_ulc_multi(12, 36, 1));
  schemes.push_back(make_ulc_multi_three(8, 16, 24, 1));
  for (SchemePtr& s : schemes) {
    ASSERT_TRUE(s->supports_resync()) << s->name();
    WritebackJournal j;
    s->set_writeback_journal(&j);
    for (const Request& r : t) s->access(r);
    std::size_t dropped = 0;
    for (std::size_t level = 0; level < s->stats().level_hits.size(); ++level)
      dropped += s->resync_level(0, level);
    EXPECT_GT(dropped, 0u) << s->name();
    EXPECT_EQ(j.stats().dirty_lost, 0u) << s->name();
    EXPECT_EQ(j.stats().appended, 0u) << s->name();
  }
}

TEST(Journal, LostDirtyDataIsNeverWrittenBackLater) {
  // A resync that wipes every level loses each dirty block once, and the
  // marking goes with it: reading the lost blocks back in brings clean
  // copies, so pushing them out again with reads of other blocks writes
  // none back.
  auto src = make_zipf_source(0, 160, 0.8, true, 3);
  const Trace t = with_writes(generate(*src, 4000, 4, "dirty"), 0.3, 5);
  auto fresh = make_zipf_source(10000, 400, 0.8, true, 7);
  const Trace flush = generate(*fresh, 4000, 8, "flush");  // reads only
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_ulc({16, 24, 20}));
  schemes.push_back(make_ulc_multi(12, 36, 1));
  schemes.push_back(make_ulc_multi_three(8, 16, 24, 1));
  for (SchemePtr& inner : schemes) {
    CheckedHierarchy checked(std::move(inner), CheckOptions{});
    WritebackJournal j;
    checked.set_writeback_journal(&j);
    std::set<BlockId> dirty;
    for (const Request& r : t) {
      if (r.op == Op::kWrite) dirty.insert(r.block);
      checked.access(r);
      for (const AuditEvent& e : checked.last_events())
        if (e.kind == AuditEvent::Kind::kWriteback) dirty.erase(e.block);
    }
    ASSERT_FALSE(dirty.empty()) << checked.name();
    const std::size_t levels = checked.stats().level_hits.size();
    for (std::size_t level = 0; level < levels; ++level)
      (void)checked.resync_level(0, level);
    EXPECT_EQ(j.stats().dirty_lost, dirty.size()) << checked.name();
    const std::uint64_t appended = j.stats().appended;
    for (BlockId b : dirty) checked.access(Request{b, 0, Op::kRead, 1});
    for (const Request& r : flush) checked.access(r);
    EXPECT_EQ(j.stats().appended, appended) << checked.name();
    ASSERT_NO_THROW(checked.final_check()) << checked.name();
  }
}

TEST(Journal, ResyncCountsLostDirtyData) {
  auto src = make_zipf_source(0, 160, 0.8, true, 3);
  const Trace single = with_writes(generate(*src, 4000, 4, "rz"), 0.3, 5);
  expect_resync_losses_counted(make_ulc({16, 24, 20}), single, 3, 1);

  std::vector<PatternPtr> sources;
  for (std::uint64_t c = 0; c < 3; ++c)
    sources.push_back(make_zipf_source(0, 160, 0.8, true, 3 + c));
  const Trace multi = with_writes(
      generate_multi(std::move(sources), {1.0, 1.0, 1.0}, 4000, 4, "rm"), 0.3, 5);
  expect_resync_losses_counted(make_ulc_multi(12, 36, 3), multi, 2, 3);
  expect_resync_losses_counted(make_ulc_multi_three(8, 16, 24, 3), multi, 3, 3);
}

TEST(Journal, ResyncKeepsDirtyDataAnotherClientStillHolds) {
  // Client 0 writes block 1 and client 1 reads it: two copies, one dirty
  // marking. Wiping client 1's cache loses a clean copy, not the data, so
  // when client 0 pushes block 1 out it must still be written back.
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_ulc_multi(4, 8, 2));
  schemes.push_back(make_ulc_multi_three(4, 8, 8, 2));
  for (SchemePtr& inner : schemes) {
    CheckedHierarchy checked(std::move(inner), CheckOptions{});
    WritebackJournal j;
    checked.set_writeback_journal(&j);
    checked.access(Request{1, 0, Op::kWrite, 1});
    checked.access(Request{1, 1, Op::kRead, 1});
    std::vector<std::size_t> at;
    checked.audit_resident_levels(1, 1, at);
    ASSERT_NE(std::find(at.begin(), at.end(), 0u), at.end()) << checked.name();
    (void)checked.resync_level(1, 0);
    EXPECT_EQ(j.stats().dirty_lost, 0u) << checked.name();
    EXPECT_EQ(j.stats().appended, 0u) << checked.name();
    // Client 0 loops over a working set larger than every level together,
    // which cycles block 1 down and out of the hierarchy.
    for (int round = 0; round < 4; ++round)
      for (BlockId b = 100; b < 132; ++b) checked.access(Request{b, 0, Op::kRead, 1});
    for (ClientId c = 0; c < 2; ++c) {
      at.clear();
      checked.audit_resident_levels(c, 1, at);
      EXPECT_TRUE(at.empty()) << checked.name();
    }
    EXPECT_EQ(j.stats().appended, 1u) << checked.name();
    EXPECT_EQ(checked.stats().writebacks, 1u) << checked.name();
    std::string why;
    EXPECT_TRUE(j.laws_hold(why)) << checked.name() << ": " << why;
    ASSERT_NO_THROW(checked.final_check()) << checked.name();
  }
}

}  // namespace
}  // namespace ulc
