// Shadow-model protocol auditor.
//
// CheckedHierarchy wraps any MultiLevelScheme and cross-checks, on every
// access, the scheme's narrated block movements (hierarchy/audit.h) against
// an independently maintained residency model, and the scheme's statistics
// deltas against the events that are supposed to explain them. Periodically
// it sweeps the full shadow state against the scheme's own residency answers
// so silent drift is caught even when every individual narration looked
// locally plausible. The wrapper is transparent: statistics, names and hit
// ratios are exactly the inner scheme's, so any harness can run checked.
//
// The invariants enforced (docs/checking.md has the catalog with paper
// references):
//   exclusivity / per-level duplication, byte-budget capacity accounting
//   (occupancy in SizeUnits, enforced once each access's narration has
//   replayed), serve-matches-request sequencing,
//   bottom-evict-only discipline, ghost movements (acting on absent copies),
//   statistics conservation (hits + misses == references; demotion, reload
//   and write-back counters == narrated transfer counts), residency drift,
//   and the uniLRUstack yardstick laws for ULC schemes.
//
// Violations throw AuditViolation (tests) or abort with the full replay
// context (seed/preset string, reference index, block, client) when
// CheckOptions::abort_on_violation is set — the ULC_ENSURE style, for use
// under a debugger or in CI smoke runs.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace ulc {

enum class ViolationKind : std::uint8_t {
  kExclusivity,   // a second copy appeared under a single-copy regime
  kDuplicate,     // a second copy appeared at one (level, owner) slot
  kCapacity,      // a level's occupancy exceeded its capacity mid-narration
  kSequencing,    // event ordering/shape broke protocol discipline
  kGhost,         // an event moved a copy the shadow model does not hold
  kConservation,  // statistics deltas disagree with the narrated events
  kDrift,         // scheme residency answers disagree with the shadow model
  kYardstick,     // a uniLRUstack yardstick law failed
  kStructure,     // scheme-internal consistency check failed
  kDurability,    // a dirty block was dropped or acked without a write-back
};

const char* violation_kind_name(ViolationKind kind);

class AuditViolation : public std::runtime_error {
 public:
  AuditViolation(ViolationKind violation, std::string message, std::uint64_t ref,
                 BlockId which)
      : std::runtime_error(std::move(message)),
        kind(violation),
        ref_index(ref),
        block(which) {}

  ViolationKind kind;
  std::uint64_t ref_index;  // 0-based reference index for replay
  BlockId block;
};

struct CheckOptions {
  // Abort (ULC_ENSURE style) instead of throwing AuditViolation.
  bool abort_on_violation = false;
  // Run the full drift sweep every N accesses; 0 disables periodic sweeps
  // (final_check() still runs one).
  std::size_t sweep_interval = 256;
  // Free-form replay context echoed in every report (trace name, seed, ...).
  std::string context;
};

class CheckedHierarchy final : public MultiLevelScheme {
 public:
  explicit CheckedHierarchy(SchemePtr inner, CheckOptions options = {});
  ~CheckedHierarchy() override;

  void access(const Request& request) override;
  const HierarchyStats& stats() const override { return inner_->stats(); }
  void reset_stats() override;
  const char* name() const override { return inner_->name(); }

  // The journal hooks into the inner scheme as usual, but the auditor keeps
  // a pointer so it can hold the journal to its ordering laws (D3) at every
  // access boundary and in final_check().
  void set_writeback_journal(WritebackSink* journal) override {
    journal_ = journal;
    inner_->set_writeback_journal(journal);
  }

  // The audit interface forwards to the inner scheme, except the sink: the
  // auditor owns the inner scheme's narration.
  AuditTraits audit_traits() const override { return inner_->audit_traits(); }
  void set_audit_sink(std::vector<AuditEvent>*) override;
  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    inner_->audit_resident_levels(client, block, out);
  }
  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    return inner_->audit_level_size(client, level);
  }
  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    return inner_->audit_level_bytes(client, level);
  }
  bool audit_check_internal() const override {
    return inner_->audit_check_internal();
  }
  std::size_t audit_stack_count() const override {
    return inner_->audit_stack_count();
  }
  const UniLruStack* audit_stack(std::size_t index) const override {
    return inner_->audit_stack(index);
  }

  // Directory resync passes through the auditor so the shadow model tracks
  // the repair: every narrated kLost drops the matching shadow copy, and
  // anything else narrated during a resync is a sequencing violation.
  bool supports_resync() const override { return inner_->supports_resync(); }
  bool resync_drop(ClientId client, BlockId block, std::size_t level) override;
  std::size_t resync_level(ClientId client, std::size_t level) override;

  const MultiLevelScheme& inner() const { return *inner_; }
  std::uint64_t accesses_checked() const { return accesses_; }
  bool event_checks_active() const { return traits_.supported; }

  // The events narrated by the most recent access() (valid until the next
  // access or resync call). Lets a harness that may not install its own
  // sink — the auditor owns the inner scheme's — still read the narration.
  const std::vector<AuditEvent>& last_events() const { return events_; }

  // Full drift sweep + structural checks; called automatically every
  // sweep_interval accesses. Harnesses call it once after a run.
  void final_check();

 private:
  struct Copy {
    ClientId owner = 0;  // meaningful for level 0 only
    std::size_t level = 0;
    SizeUnits size = 1;  // recorded at placement; sizes are id-stable
  };

  [[noreturn]] void fail(ViolationKind kind, const std::string& detail) const;

  std::size_t levels() const { return traits_.capacities.size(); }
  std::size_t& slot_size(std::size_t level, ClientId owner);
  std::size_t slot_size(std::size_t level, ClientId owner) const;
  std::uint64_t& slot_bytes(std::size_t level, ClientId owner);
  std::uint64_t slot_bytes(std::size_t level, ClientId owner) const;
  std::size_t find_copy(BlockId block, std::size_t level, ClientId owner) const;
  void add_copy(BlockId block, std::size_t level, ClientId owner, SizeUnits size);
  // Removes the copy and returns its recorded size (for moves down).
  SizeUnits remove_copy(BlockId block, std::size_t level, ClientId owner,
                        const char* what);
  // The byte-capacity law, checked once the access's narration has fully
  // replayed: occupancy may transiently overshoot a budget mid-access (a
  // sized demote lands before the evictions that make room — unavoidable at
  // block granularity), but never across an access boundary.
  void check_byte_budgets();
  // Shadow levels of `block` visible to `client` (its own level 0 + shared).
  std::vector<std::size_t> visible_levels(BlockId block, ClientId client) const;

  void check_event_shape(const AuditEvent& e) const;
  void replay_events();
  void replay_resync_events();
  // kLost replay: drops the copy; the dirty shadow goes with the last copy.
  void forget_lost_copy(const AuditEvent& e);
  void check_stats_delta(const std::vector<std::size_t>& pre_visible);
  void sweep();
  void check_stack(const UniLruStack& stack, std::size_t index) const;

  SchemePtr inner_;
  CheckOptions options_;
  AuditTraits traits_;

  std::vector<AuditEvent> events_;
  HierarchyStats before_;  // stats snapshot taken at the top of access()
  Request current_{};

  // Shadow residency: every copy of every block, plus per-slot occupancy in
  // copies and in SizeUnits (level 0 is per owner; shared levels have a
  // single slot each).
  std::unordered_map<BlockId, std::vector<Copy>> copies_;
  std::vector<std::vector<std::size_t>> sizes_;
  std::vector<std::vector<std::uint64_t>> bytes_;

  // Durability shadow state: which blocks hold dirty data the hierarchy has
  // not yet written back (D1/D2), and which dirty blocks fully left the
  // hierarchy this access — legal only if a write-back for them was also
  // narrated before the access ended (D1, checked after replay).
  std::unordered_set<BlockId> dirty_shadow_;
  std::vector<BlockId> dirty_exits_;
  WritebackSink* journal_ = nullptr;

  // Per-access byte traffic reconstructed while replaying the narration
  // (moves weighted by the shadow's recorded sizes, charges by the narrated
  // size); check_stats_delta holds the scheme's byte counters to these.
  std::vector<std::uint64_t> replay_demote_bytes_;
  std::vector<std::uint64_t> replay_reload_bytes_;

  std::uint64_t accesses_ = 0;
};

// Convenience factory mirroring the scheme factories.
SchemePtr make_checked(SchemePtr inner, CheckOptions options = {});

}  // namespace ulc
