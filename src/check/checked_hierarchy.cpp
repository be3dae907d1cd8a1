#include "check/checked_hierarchy.h"

#include <algorithm>
#include <sstream>

#include "ulc/uni_lru_stack.h"
#include "util/ensure.h"

namespace ulc {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (std::uint64_t x : v) total += x;
  return total;
}
}  // namespace

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kExclusivity:
      return "exclusivity";
    case ViolationKind::kDuplicate:
      return "duplicate";
    case ViolationKind::kCapacity:
      return "capacity";
    case ViolationKind::kSequencing:
      return "sequencing";
    case ViolationKind::kGhost:
      return "ghost";
    case ViolationKind::kConservation:
      return "conservation";
    case ViolationKind::kDrift:
      return "drift";
    case ViolationKind::kYardstick:
      return "yardstick";
    case ViolationKind::kStructure:
      return "structure";
    case ViolationKind::kDurability:
      return "durability";
  }
  return "?";
}

CheckedHierarchy::CheckedHierarchy(SchemePtr inner, CheckOptions options)
    : inner_(std::move(inner)), options_(std::move(options)) {
  ULC_REQUIRE(inner_ != nullptr, "CheckedHierarchy needs a scheme to wrap");
  traits_ = inner_->audit_traits();
  if (traits_.supported) {
    ULC_REQUIRE(!traits_.capacities.empty(),
                "auditable schemes must declare per-level capacities");
    ULC_REQUIRE(traits_.clients >= 1, "auditable schemes must declare clients");
    sizes_.resize(levels());
    bytes_.resize(levels());
    sizes_[0].assign(traits_.clients, 0);
    bytes_[0].assign(traits_.clients, 0);
    for (std::size_t l = 1; l < levels(); ++l) {
      sizes_[l].assign(1, 0);
      bytes_[l].assign(1, 0);
    }
    inner_->set_audit_sink(&events_);
  }
}

CheckedHierarchy::~CheckedHierarchy() {
  if (traits_.supported) inner_->set_audit_sink(nullptr);
}

void CheckedHierarchy::set_audit_sink(std::vector<AuditEvent>*) {
  ULC_REQUIRE(false, "CheckedHierarchy owns its inner scheme's audit sink");
}

void CheckedHierarchy::fail(ViolationKind kind, const std::string& detail) const {
  std::ostringstream os;
  os << "audit violation [" << violation_kind_name(kind) << "]: " << detail
     << " | scheme=" << inner_->name() << " ref=" << accesses_
     << " block=" << current_.block << " client=" << current_.client;
  if (!options_.context.empty()) os << " context=" << options_.context;
  if (options_.abort_on_violation)
    ensure_fail(violation_kind_name(kind), __FILE__, __LINE__, os.str().c_str());
  throw AuditViolation(kind, os.str(), accesses_, current_.block);
}

std::size_t& CheckedHierarchy::slot_size(std::size_t level, ClientId owner) {
  return level == 0 ? sizes_[0][owner] : sizes_[level][0];
}

std::size_t CheckedHierarchy::slot_size(std::size_t level, ClientId owner) const {
  return level == 0 ? sizes_[0][owner] : sizes_[level][0];
}

std::uint64_t& CheckedHierarchy::slot_bytes(std::size_t level, ClientId owner) {
  return level == 0 ? bytes_[0][owner] : bytes_[level][0];
}

std::uint64_t CheckedHierarchy::slot_bytes(std::size_t level, ClientId owner) const {
  return level == 0 ? bytes_[0][owner] : bytes_[level][0];
}

std::size_t CheckedHierarchy::find_copy(BlockId block, std::size_t level,
                                        ClientId owner) const {
  auto it = copies_.find(block);
  if (it == copies_.end()) return kNpos;
  const std::vector<Copy>& v = it->second;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].level != level) continue;
    if (level != 0 || v[i].owner == owner) return i;
  }
  return kNpos;
}

void CheckedHierarchy::add_copy(BlockId block, std::size_t level, ClientId owner,
                                SizeUnits size) {
  std::vector<Copy>& v = copies_[block];
  if (traits_.exclusive && !v.empty())
    fail(ViolationKind::kExclusivity,
         "a second copy appeared in an exclusive hierarchy");
  if (find_copy(block, level, owner) != kNpos)
    fail(ViolationKind::kDuplicate, "level already holds a copy of this block");
  v.push_back(Copy{owner, level, size});
  ++slot_size(level, owner);
  slot_bytes(level, owner) += size;
}

SizeUnits CheckedHierarchy::remove_copy(BlockId block, std::size_t level,
                                        ClientId owner, const char* what) {
  const std::size_t i = find_copy(block, level, owner);
  if (i == kNpos)
    fail(ViolationKind::kGhost,
         std::string(what) + " acts on a copy the shadow model does not hold");
  std::vector<Copy>& v = copies_[block];
  const SizeUnits size = v[i].size;
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
  if (v.empty()) copies_.erase(block);
  --slot_size(level, owner);
  slot_bytes(level, owner) -= size;
  return size;
}

void CheckedHierarchy::check_byte_budgets() {
  for (std::size_t l = 0; l < levels(); ++l) {
    const std::size_t cap = traits_.capacities[l];
    if (cap == 0) continue;  // elastic: the shared cache sizes itself
    for (std::size_t s = 0; s < bytes_[l].size(); ++s) {
      if (bytes_[l][s] > cap)
        fail(ViolationKind::kCapacity,
             "level occupancy exceeded its byte budget at access end (a "
             "missing eviction or demotion narration)");
    }
  }
}

std::vector<std::size_t> CheckedHierarchy::visible_levels(BlockId block,
                                                          ClientId client) const {
  std::vector<std::size_t> out;
  auto it = copies_.find(block);
  if (it == copies_.end()) return out;
  for (const Copy& c : it->second) {
    if (c.level == 0 && c.owner != client) continue;
    out.push_back(c.level);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CheckedHierarchy::check_event_shape(const AuditEvent& e) const {
  const auto level_ok = [&](std::size_t l) { return l < levels(); };
  const bool from_ok = e.from == kAuditNoLevel || level_ok(e.from);
  const bool to_ok = e.to == kAuditNoLevel || level_ok(e.to);
  if (!from_ok || !to_ok || e.owner >= traits_.clients)
    fail(ViolationKind::kSequencing, "event endpoints out of range");
  switch (e.kind) {
    case AuditEvent::Kind::kServe:
    case AuditEvent::Kind::kEvict:
    case AuditEvent::Kind::kLost:
      if (e.from == kAuditNoLevel)
        fail(ViolationKind::kSequencing, "serve/evict without a source level");
      break;
    case AuditEvent::Kind::kPlace:
      if (e.to == kAuditNoLevel)
        fail(ViolationKind::kSequencing, "placement without a target level");
      break;
    case AuditEvent::Kind::kDemote:
    case AuditEvent::Kind::kDemoteMerge:
    case AuditEvent::Kind::kReload:
    case AuditEvent::Kind::kCharge:
      if (e.from == kAuditNoLevel || e.to == kAuditNoLevel || e.to <= e.from)
        fail(ViolationKind::kSequencing, "downward transfer must move down");
      break;
    case AuditEvent::Kind::kWriteback:
      if (e.from == kAuditNoLevel)
        fail(ViolationKind::kSequencing, "write-back without a source level");
      break;
  }
}

void CheckedHierarchy::replay_events() {
  replay_demote_bytes_.assign(levels(), 0);
  replay_reload_bytes_.assign(levels(), 0);
  bool flushed_current = false;
  const auto charge_links = [&](std::vector<std::uint64_t>& links,
                                const AuditEvent& e, std::uint64_t size) {
    for (std::size_t k = e.from; k < e.to && k < links.size(); ++k)
      links[k] += size;
  };
  for (const AuditEvent& e : events_) {
    check_event_shape(e);
    switch (e.kind) {
      case AuditEvent::Kind::kServe:
        if (e.block != current_.block)
          fail(ViolationKind::kSequencing,
               "serve of a block other than the requested one");
        remove_copy(e.block, e.from, e.owner, "serve");
        break;
      case AuditEvent::Kind::kPlace:
        add_copy(e.block, e.to, e.owner, e.size);
        break;
      case AuditEvent::Kind::kDemote:
      case AuditEvent::Kind::kReload: {
        const SizeUnits moved = remove_copy(e.block, e.from, e.owner, "demote");
        add_copy(e.block, e.to, e.owner, moved);
        charge_links(e.kind == AuditEvent::Kind::kDemote ? replay_demote_bytes_
                                                         : replay_reload_bytes_,
                     e, moved);
        break;
      }
      case AuditEvent::Kind::kDemoteMerge: {
        const SizeUnits moved =
            remove_copy(e.block, e.from, e.owner, "demote-merge");
        if (find_copy(e.block, e.to, e.owner) == kNpos)
          fail(ViolationKind::kGhost,
               "demote-merge into a level holding no shared copy");
        charge_links(replay_demote_bytes_, e, moved);
        break;
      }
      case AuditEvent::Kind::kEvict:
        if (traits_.bottom_evict_only && e.from + 1 != levels() &&
            !e.through_bottom)
          fail(ViolationKind::kSequencing,
               "eviction from an interior level of a demote-before-evict "
               "hierarchy");
        remove_copy(e.block, e.from, e.owner, "evict");
        // A dirty block whose last copy just left the hierarchy must have a
        // write-back narrated within the same access (D1); record it and
        // judge once the full narration has replayed.
        if (dirty_shadow_.count(e.block) != 0 &&
            copies_.find(e.block) == copies_.end())
          dirty_exits_.push_back(e.block);
        break;
      case AuditEvent::Kind::kLost:
        // A resync discovered the copy is gone. Not an eviction: exempt
        // from the bottom-evict-only rule (the copy was found missing, it
        // did not leave through the protocol).
        forget_lost_copy(e);
        break;
      case AuditEvent::Kind::kCharge:
        // A charged transfer moves no copy; its byte weight is narrated.
        charge_links(replay_demote_bytes_, e, e.size);
        break;
      case AuditEvent::Kind::kWriteback: {
        // D2: a write-back may only carry dirty data. The one legal
        // exception is the straight-through write of the current request
        // (an uncacheable block written directly to the storage level).
        const bool write_through =
            current_.op == Op::kWrite && e.block == current_.block;
        if (dirty_shadow_.count(e.block) == 0 && !write_through)
          fail(ViolationKind::kDurability,
               "write-back narrated for a block with no dirty data (ack "
               "before write)");
        if (e.block == current_.block) flushed_current = true;
        dirty_shadow_.erase(e.block);
        break;
      }
    }
  }
  check_byte_budgets();
  // D1: every dirty block that fully left the hierarchy this access must
  // have had its write-back narrated by now (the kWriteback replay above
  // cleared it from the durability shadow).
  for (BlockId b : dirty_exits_) {
    if (dirty_shadow_.count(b) != 0 && copies_.find(b) == copies_.end())
      fail(ViolationKind::kDurability,
           "a dirty block left the hierarchy without a write-back");
  }
  dirty_exits_.clear();
  // A write that leaves the block resident leaves dirty data behind — unless
  // the access already flushed it (a straight-through write whose stale copy
  // another client still holds is clean: the data reached disk).
  if (current_.op == Op::kWrite && !flushed_current &&
      copies_.find(current_.block) != copies_.end())
    dirty_shadow_.insert(current_.block);
}

void CheckedHierarchy::replay_resync_events() {
  for (const AuditEvent& e : events_) {
    check_event_shape(e);
    if (e.kind != AuditEvent::Kind::kLost)
      fail(ViolationKind::kSequencing,
           "directory resync may narrate only kLost events");
    forget_lost_copy(e);
  }
  events_.clear();
}

void CheckedHierarchy::forget_lost_copy(const AuditEvent& e) {
  remove_copy(e.block, e.from, e.owner, "lost");
  // With the last copy gone the dirty data is lost — that is what the
  // journal's loss record is for — so the durability shadow forgets it
  // rather than demanding a write-back. While another copy survives (a
  // second client's cache, a shared level) the block is still dirty and
  // that copy's exit must write it back.
  if (copies_.find(e.block) == copies_.end()) dirty_shadow_.erase(e.block);
}

bool CheckedHierarchy::resync_drop(ClientId client, BlockId block,
                                   std::size_t level) {
  if (!traits_.supported) return inner_->resync_drop(client, block, level);
  events_.clear();
  const bool dropped = inner_->resync_drop(client, block, level);
  replay_resync_events();
  return dropped;
}

std::size_t CheckedHierarchy::resync_level(ClientId client, std::size_t level) {
  if (!traits_.supported) return inner_->resync_level(client, level);
  events_.clear();
  const std::size_t n = inner_->resync_level(client, level);
  replay_resync_events();
  return n;
}

void CheckedHierarchy::check_stats_delta(
    const std::vector<std::size_t>& pre_visible) {
  const HierarchyStats& after = inner_->stats();
  if (after.references != before_.references + 1)
    fail(ViolationKind::kConservation,
         "one access must account exactly one reference");
  if (after.level_hits.size() != before_.level_hits.size() ||
      after.level_hits.size() != levels())
    fail(ViolationKind::kConservation, "level_hits arity changed mid-run");

  // Exactly one of {hit at some level, miss} per access.
  std::size_t hit_level = kNpos;
  std::uint64_t served = after.misses - before_.misses;
  const bool missed = served == 1;
  for (std::size_t l = 0; l < levels(); ++l) {
    const std::uint64_t d = after.level_hits[l] - before_.level_hits[l];
    served += d;
    if (d == 1 && hit_level == kNpos) hit_level = l;
  }
  if (served != 1)
    fail(ViolationKind::kConservation,
         "one access must account exactly one hit or miss");

  // The claimed service point must agree with where the shadow model last
  // saw the block (schemes with stale shared metadata only guarantee
  // membership, not the topmost level).
  if (missed) {
    if (!pre_visible.empty())
      fail(ViolationKind::kDrift,
           "miss claimed for a block the shadow model holds at a visible "
           "level");
  } else {
    const bool member = std::find(pre_visible.begin(), pre_visible.end(),
                                  hit_level) != pre_visible.end();
    if (!member)
      fail(ViolationKind::kDrift,
           "hit claimed at a level the shadow model does not see the block "
           "at");
    if (traits_.exact_hit_level && pre_visible.front() != hit_level)
      fail(ViolationKind::kDrift,
           "hit claimed below the topmost visible copy");
  }

  // Every transfer counter must be explained by the narrated events.
  std::vector<std::uint64_t> demote_links(after.demotions.size(), 0);
  std::vector<std::uint64_t> reload_links(after.reloads.size(), 0);
  std::uint64_t writebacks = 0;
  for (const AuditEvent& e : events_) {
    switch (e.kind) {
      case AuditEvent::Kind::kDemote:
      case AuditEvent::Kind::kDemoteMerge:
      case AuditEvent::Kind::kCharge:
        for (std::size_t k = e.from; k < e.to && k < demote_links.size(); ++k)
          ++demote_links[k];
        break;
      case AuditEvent::Kind::kReload:
        for (std::size_t k = e.from; k < e.to && k < reload_links.size(); ++k)
          ++reload_links[k];
        break;
      case AuditEvent::Kind::kWriteback:
        ++writebacks;
        break;
      default:
        break;
    }
  }
  for (std::size_t k = 0; k < demote_links.size(); ++k) {
    if (after.demotions[k] - before_.demotions[k] != demote_links[k])
      fail(ViolationKind::kConservation,
           "demotion counter disagrees with the narrated transfers");
  }
  for (std::size_t k = 0; k < reload_links.size(); ++k) {
    if (after.reloads[k] - before_.reloads[k] != reload_links[k])
      fail(ViolationKind::kConservation,
           "reload counter disagrees with the narrated reloads");
  }
  if (after.writebacks - before_.writebacks != writebacks)
    fail(ViolationKind::kConservation,
         "writeback counter disagrees with the narrated write-backs");
  if (sum(after.level_hits) + after.misses != after.references)
    fail(ViolationKind::kConservation, "hits + misses must equal references");

  // Byte conservation: the byte twins must move by exactly the traffic the
  // narration carried — the served block's size for the hit/miss twin, the
  // replayed per-link byte flow for the transfer twins. At unit size this
  // degenerates to the count checks above; on mixed-size traces it catches
  // a scheme that counts a sized block at the wrong weight.
  if (missed) {
    if (after.miss_bytes - before_.miss_bytes != current_.size)
      fail(ViolationKind::kConservation,
           "miss byte counter disagrees with the requested block's size");
  } else if (after.level_hit_bytes[hit_level] -
                 before_.level_hit_bytes[hit_level] !=
             current_.size) {
    fail(ViolationKind::kConservation,
         "hit byte counter disagrees with the requested block's size");
  }
  for (std::size_t k = 0; k < replay_demote_bytes_.size() &&
                          k < after.demotion_bytes.size();
       ++k) {
    if (after.demotion_bytes[k] - before_.demotion_bytes[k] !=
        replay_demote_bytes_[k])
      fail(ViolationKind::kConservation,
           "demotion byte counter disagrees with the narrated byte flow");
  }
  for (std::size_t k = 0; k < replay_reload_bytes_.size() &&
                          k < after.reload_bytes.size();
       ++k) {
    if (after.reload_bytes[k] - before_.reload_bytes[k] !=
        replay_reload_bytes_[k])
      fail(ViolationKind::kConservation,
           "reload byte counter disagrees with the narrated byte flow");
  }
}

void CheckedHierarchy::sweep() {
  // Occupancy: shadow slot sizes and byte usage against the scheme's own
  // accounting.
  for (std::size_t l = 0; l < levels(); ++l) {
    if (l == 0) {
      for (ClientId c = 0; c < traits_.clients; ++c) {
        if (inner_->audit_level_size(c, 0) != sizes_[0][c])
          fail(ViolationKind::kDrift, "client cache occupancy drifted");
        if (inner_->audit_level_bytes(c, 0) != bytes_[0][c])
          fail(ViolationKind::kDrift, "client cache byte occupancy drifted");
      }
    } else if (inner_->audit_level_size(0, l) != sizes_[l][0]) {
      fail(ViolationKind::kDrift, "shared level occupancy drifted");
    } else if (inner_->audit_level_bytes(0, l) != bytes_[l][0]) {
      fail(ViolationKind::kDrift, "shared level byte occupancy drifted");
    }
  }
  check_byte_budgets();
  // Membership: every shadow copy must be visible to the scheme and vice
  // versa, per queried client. Together with the occupancy equality above,
  // membership each way implies the resident sets are identical.
  std::vector<std::size_t> reported;
  // Order-independent set comparison: ulc-lint: allow(unordered-iteration)
  for (const auto& [block, block_copies] : copies_) {  // ulc-lint: allow(unordered-iteration)
    std::vector<ClientId> queried{0};
    for (const Copy& c : block_copies) {
      if (c.level == 0 && c.owner != 0) queried.push_back(c.owner);
    }
    for (ClientId c : queried) {
      reported.clear();
      inner_->audit_resident_levels(c, block, reported);
      std::sort(reported.begin(), reported.end());
      if (reported != visible_levels(block, c))
        fail(ViolationKind::kDrift,
             "scheme residency answers disagree with the shadow model");
    }
  }
  if (!inner_->audit_check_internal())
    fail(ViolationKind::kStructure, "scheme-internal consistency check failed");
  for (std::size_t i = 0; i < inner_->audit_stack_count(); ++i) {
    const UniLruStack* stack = inner_->audit_stack(i);
    if (stack != nullptr) check_stack(*stack, i);
  }
}

// The yardstick laws in their transient-tolerant form (DESIGN.md I3/I4):
// Y_i is the *deepest* stack node with level status i, carries that level
// status, exists iff the level is populated, and the per-level population
// the stack accounts matches an independent walk. Note that strict seq
// ordering across yardsticks (seq Y_0 > seq Y_1 > ...) is NOT an invariant:
// LLD placement may legitimately cache the most recent block at a deep
// level (docs/checking.md works the example).
void CheckedHierarchy::check_stack(const UniLruStack& stack,
                                   std::size_t index) const {
  const std::size_t stack_levels = stack.levels();
  std::vector<const UniLruStack::Node*> deepest(stack_levels, nullptr);
  std::vector<std::size_t> counts(stack_levels, 0);
  std::uint64_t last_seq = 0;
  bool first = true;
  for (const UniLruStack::Node* n = stack.tail(); n != nullptr; n = stack.prev(n)) {
    if (!first && n->seq <= last_seq)
      fail(ViolationKind::kStructure,
           "uniLRUstack order is not strictly recency-sorted");
    last_seq = n->seq;
    first = false;
    if (n->level == kLevelOut) continue;
    if (n->level >= stack_levels)
      fail(ViolationKind::kStructure, "stack node carries an invalid level");
    ++counts[n->level];
    if (deepest[n->level] == nullptr) deepest[n->level] = n;
  }
  for (std::size_t l = 0; l < stack_levels; ++l) {
    const UniLruStack::Node* yard = stack.yard(l);
    const std::string where =
        "stack " + std::to_string(index) + " level " + std::to_string(l);
    if (counts[l] == 0) {
      if (yard != nullptr)
        fail(ViolationKind::kYardstick, where + ": yardstick for an empty level");
      continue;
    }
    if (yard == nullptr)
      fail(ViolationKind::kYardstick, where + ": populated level lost its yardstick");
    if (yard != deepest[l])
      fail(ViolationKind::kYardstick,
           where + ": yardstick is not the deepest block of its level");
    if (stack.level_size(l) != counts[l])
      fail(ViolationKind::kYardstick,
           where + ": level population disagrees with the stack walk");
  }
}

void CheckedHierarchy::access(const Request& request) {
  current_ = request;
  before_ = inner_->stats();
  std::vector<std::size_t> pre_visible;
  if (traits_.supported) {
    pre_visible = visible_levels(request.block, request.client);
    events_.clear();
  }
  inner_->access(request);
  if (traits_.supported) {
    replay_events();
    check_stats_delta(pre_visible);
    // D3: the journal's own ordering laws — no ack before the write landed,
    // acks in append order, no acknowledged entry ever lost — must hold at
    // every access boundary.
    if (journal_ != nullptr) {
      std::string why;
      if (!journal_->laws_hold(why))
        fail(ViolationKind::kDurability,
             "write-back journal law violated: " + why);
    }
  } else {
    // Statistics-conservation fallback for schemes without event support.
    const HierarchyStats& after = inner_->stats();
    if (after.references != before_.references + 1 ||
        sum(after.level_hits) + after.misses != after.references)
      fail(ViolationKind::kConservation,
           "hits + misses must equal references");
  }
  ++accesses_;
  if (traits_.supported && options_.sweep_interval > 0 &&
      accesses_ % options_.sweep_interval == 0) {
    sweep();
  }
}

void CheckedHierarchy::reset_stats() { inner_->reset_stats(); }

void CheckedHierarchy::final_check() {
  if (traits_.supported) sweep();
  if (journal_ != nullptr) {
    std::string why;
    if (!journal_->laws_hold(why))
      fail(ViolationKind::kDurability,
           "write-back journal law violated: " + why);
  }
}

SchemePtr make_checked(SchemePtr inner, CheckOptions options) {
  return std::make_unique<CheckedHierarchy>(std::move(inner), std::move(options));
}

}  // namespace ulc
