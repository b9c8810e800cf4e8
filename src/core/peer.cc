#include "core/peer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "util/string_util.h"

namespace pdms {
namespace {

/// Whether a probe from `origin`, `hops` edges long, with `ttl` hops left,
/// is worth sending on into `next`: the copy must still be able to take
/// part in a closure this protocol announces. `origin_is_min` says no
/// peer on the route so far has an id below the origin.
bool ProbeHopUseful(const ClosureFinderOptions& limits, PeerId origin,
                    bool origin_is_min, size_t hops, uint32_t ttl,
                    NodeId next) {
  // Pair: `next` caches the copy for parallel-path detection.
  if (hops + 1 <= limits.max_path_length) return true;
  // Only the smallest peer on a cycle announces it (`HandleProbe`).
  if (!origin_is_min) return false;
  // Close: the copy completes a cycle its origin announces.
  if (next == origin) {
    return hops + 1 >= limits.min_cycle_length &&
           hops + 1 <= limits.max_cycle_length;
  }
  // Extend: a descendant can still close such a cycle in time.
  return next > origin && hops + 2 <= limits.max_cycle_length && ttl >= 2;
}

/// Inserts `id` into the sorted `set`; false when it is already there.
bool InsertSorted(std::vector<FactorId>& set, const FactorId& id) {
  const auto it = std::lower_bound(set.begin(), set.end(), id);
  if (it != set.end() && *it == id) return false;
  set.insert(it, id);
  return true;
}

}  // namespace

uint32_t ValueRankBits(const ValuePrecisionOptions& precision, uint32_t rank) {
  const uint32_t fine = ValueBitsForBudget(precision.error_budget);
  if (fine == 0) return 0;  // budget off: raw doubles everywhere
  if (rank >= 2) return fine;
  // Coarse/mid tiers drop 6/3 fractional bits: an 8x/2x larger step
  // while residuals dwarf the budget anyway.
  const uint32_t drop = rank == 0 ? 6 : 3;
  return fine > drop + 2 ? fine - drop : 2;
}

uint32_t ValueRankTarget(const ValuePrecisionOptions& precision,
                         double residual) {
  const double eps = precision.error_budget;
  if (residual > 64.0 * eps) return 0;
  if (residual > 8.0 * eps) return 1;
  return 2;
}

Peer::Peer(PeerId id, Schema schema, const Digraph* graph,
           const EngineOptions* options)
    : id_(id), schema_(std::move(schema)), graph_(graph), options_(options) {}

// --- Mappings ---------------------------------------------------------------

Status Peer::AddMapping(EdgeId edge, SchemaMapping mapping) {
  const auto it = std::lower_bound(
      state_.mappings.begin(), state_.mappings.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  if (it != state_.mappings.end() && it->first == edge) {
    return Status::AlreadyExists(StrFormat("peer %u already maps edge %u", id_,
                                           edge));
  }
  if (graph_->edge(edge).src != id_) {
    return Status::InvalidArgument(
        StrFormat("edge %u does not start at peer %u", edge, id_));
  }
  state_.mappings.emplace(it, edge, std::move(mapping));
  kernel_stale_ = true;
  return Status::Ok();
}

void Peer::RemoveMapping(EdgeId edge) {
  const auto it = std::lower_bound(
      state_.mappings.begin(), state_.mappings.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  if (it != state_.mappings.end() && it->first == edge) {
    state_.mappings.erase(it);
  }

  // Drop every replica referencing the edge, recompact the SoA pools, then
  // rebuild the indexes, the per-variable slot lists and the belief
  // routing tables. Churn is rare; rounds are hot.
  //
  // The guard pool shares the message pools' slots; align it before
  // compaction (it grows lazily, so it may trail the message pools).
  if (!state_.guard_slot_pool.empty() &&
      state_.guard_slot_pool.size() < state_.var_to_factor_pool.size()) {
    state_.guard_slot_pool.resize(state_.var_to_factor_pool.size());
  }
  // Misbehavior is a property of the *neighbor*, not of the alias
  // session: carry scores and demotions across the session reset below,
  // so churn cannot parole a demoted link.
  std::vector<std::pair<PeerId, GuardLinkState>> carried;
  if (options_->byzantine_guard.enabled) {
    for (const auto& [peer, index] : link_index_) {
      const GuardLinkState& guard = state_.links[index].guard;
      if (!guard.Blank()) carried.emplace_back(peer, guard.Carried());
    }
  }
  std::vector<Replica> old_replicas = std::exchange(state_.replicas, {});
  const auto old_hot = std::exchange(state_.replica_hot, {});
  const auto old_var_to_factor = std::exchange(state_.var_to_factor_pool, {});
  const auto old_factor_to_var = std::exchange(state_.factor_to_var_pool, {});
  const auto old_members = std::exchange(state_.member_pool, {});
  const auto old_owners = std::exchange(state_.member_owner_pool, {});
  const auto old_owned = std::exchange(state_.owned_pos_pool, {});
  const auto old_guard = std::exchange(state_.guard_slot_pool, {});
  // Appends [base, base + count) of `from` to `to`.
  const auto keep = [](auto& to, const auto& from, uint32_t base,
                       uint32_t count) {
    to.insert(to.end(), from.begin() + base, from.begin() + base + count);
  };
  for (uint32_t r = 0; r < old_replicas.size(); ++r) {
    const ReplicaHot& hot = old_hot[r];
    const auto member_begin = old_members.begin() + hot.msg_base;
    if (std::any_of(member_begin, member_begin + hot.member_count,
                    [edge](const MappingVarKey& var) {
                      return var.edge == edge;
                    })) {
      continue;
    }
    ReplicaHot& compacted = state_.replica_hot.emplace_back(hot);
    compacted.msg_base =
        static_cast<uint32_t>(state_.var_to_factor_pool.size());
    compacted.owned_base = static_cast<uint32_t>(state_.owned_pos_pool.size());
    keep(state_.var_to_factor_pool, old_var_to_factor, hot.msg_base,
         hot.member_count);
    keep(state_.factor_to_var_pool, old_factor_to_var, hot.msg_base,
         hot.member_count);
    keep(state_.member_pool, old_members, hot.msg_base, hot.member_count);
    keep(state_.member_owner_pool, old_owners, hot.msg_base,
         hot.member_count);
    keep(state_.owned_pos_pool, old_owned, hot.owned_base, hot.owned_count);
    if (!old_guard.empty()) {
      keep(state_.guard_slot_pool, old_guard, hot.msg_base, hot.member_count);
    }
    state_.replicas.push_back(std::move(old_replicas[r]));
  }
  // The replica set (and with it every route) changed, so the link-local
  // alias numbering is void: clear both session directions and bump the
  // epoch. Every peer of the network processes the same removal, so the
  // sender's new numbering and the receivers' fresh tables stay in
  // lockstep, and in-flight bundles from the old numbering are rejected
  // by their stale epoch rather than misrouted.
  state_.belief_routes.clear();
  state_.links.clear();
  ++state_.alias_epoch;
  for (VarState& var : state_.vars) var.slots.clear();
  RebuildIndexes();
  for (uint32_t r = 0; r < state_.replicas.size(); ++r) RegisterReplica(r);
  for (const auto& [peer, guard] : carried) {
    state_.links[InternLink(peer)].guard = guard;
  }
}

const SchemaMapping* Peer::mapping(EdgeId edge) const {
  const auto it = std::lower_bound(
      state_.mappings.begin(), state_.mappings.end(), edge,
      [](const auto& entry, EdgeId e) { return entry.first < e; });
  return it != state_.mappings.end() && it->first == edge ? &it->second
                                                           : nullptr;
}

std::vector<EdgeId> Peer::OutgoingEdges() const {
  std::vector<EdgeId> edges;
  edges.reserve(state_.mappings.size());
  for (const auto& [edge, mapping] : state_.mappings) edges.push_back(edge);
  return edges;
}

// --- Priors & posteriors ------------------------------------------------------

uint32_t Peer::InternVar(const MappingVarKey& var) {
  const auto [it, inserted] = var_index_.emplace(
      var.Packed(), static_cast<uint32_t>(state_.vars.size()));
  if (inserted) {
    VarState state;
    state.key = var;
    // Interning appends, so each edge's index list stays ascending — the
    // iteration order PiggybackUpdatesFor depends on for determinism.
    edge_vars_[var.edge].push_back(it->second);
    state_.vars.push_back(std::move(state));
  }
  return it->second;
}

const Peer::VarState* Peer::FindVar(const MappingVarKey& var) const {
  const auto it = var_index_.find(var.Packed());
  return it == var_index_.end() ? nullptr : &state_.vars[it->second];
}

void Peer::SetPrior(const MappingVarKey& var, double prior) {
  VarState& state = state_.vars[InternVar(var)];
  state.prior = prior;
  state.has_explicit_prior = true;
  state.evidence_count = 0;
  state.evidence_sum = 0.0;
  state.has_evidence_acc = false;
  kernel_stale_ = true;
}

double Peer::Prior(const MappingVarKey& var) const {
  const VarState* state = FindVar(var);
  return state != nullptr && state->has_explicit_prior
             ? state->prior
             : options_->default_prior;
}

bool Peer::HasEvidence(const MappingVarKey& var) const {
  const VarState* state = FindVar(var);
  return state != nullptr && !state->slots.empty();
}

Belief Peer::PosteriorBelief(const MappingVarKey& var) const {
  // ⊥ rule: a mapping that does not represent the attribute has
  // correctness 0 for it (Section 3.2.1).
  if (var.attribute != MappingVarKey::kWholeMapping) {
    const SchemaMapping* m = mapping(var.edge);
    if (m == nullptr || !m->Apply(var.attribute).has_value()) {
      return Belief{0.0, 1.0};
    }
  }
  return PosteriorOf(FindVar(var));
}

Belief Peer::PosteriorOf(const VarState* state) const {
  Belief posterior = Belief::FromProbability(
      state != nullptr && state->has_explicit_prior ? state->prior
                                                    : options_->default_prior);
  if (state != nullptr) {
    for (const auto& [replica, position] : state->slots) {
      posterior *= state_.factor_to_var_pool
          [state_.replica_hot[replica].msg_base + position];
    }
  }
  return posterior.Normalized();
}

double Peer::Posterior(const MappingVarKey& var) const {
  return PosteriorBelief(var).correct;
}

void Peer::UpdatePriorsFromPosteriors() {
  for (VarState& state : state_.vars) {
    if (state.slots.empty()) continue;
    if (!state.has_evidence_acc) {
      state.has_evidence_acc = true;
      state.evidence_count = 1;
      state.evidence_sum = Prior(state.key);
    }
    ++state.evidence_count;
    state.evidence_sum += Posterior(state.key);
    state.prior =
        state.evidence_sum / static_cast<double>(state.evidence_count);
    state.has_explicit_prior = true;
  }
  kernel_stale_ = true;
}

// --- Embedded message passing -------------------------------------------------

double Peer::EffectiveDelta() const {
  if (options_->delta_override.has_value()) return *options_->delta_override;
  const size_t s = schema_.size();
  return s > 1 ? 1.0 / static_cast<double>(s - 1) : 0.5;
}

namespace {

/// True when the two (closure, root attribute) pairs describe the same
/// factor content — the equality `FactorId::Make` fingerprints.
bool SameFactorContent(const Closure& a, AttributeId a_root, const Closure& b,
                       AttributeId b_root) {
  if (a_root != b_root || a.kind != b.kind || a.source != b.source) {
    return false;
  }
  if (a.kind == Closure::Kind::kParallelPaths &&
      (a.sink != b.sink || a.split != b.split)) {
    return false;
  }
  if (a.edges.size() != b.edges.size()) return false;
  std::vector<EdgeId> a_sorted = a.edges;
  std::vector<EdgeId> b_sorted = b.edges;
  std::sort(a_sorted.begin(), a_sorted.end());
  std::sort(b_sorted.begin(), b_sorted.end());
  return a_sorted == b_sorted;
}

}  // namespace

Status Peer::ValidateFactorContent(const FactorId& id, const Closure& closure,
                                   const AttributeFeedback& feedback) const {
  const auto existing = replica_index_.find(id);
  if (existing == replica_index_.end()) return Status::Ok();
  const Replica& stored = state_.replicas[existing->second];
  const std::span<const MappingVarKey> stored_members =
      Members(existing->second);
  // Position-based update addressing makes the member *sequence*
  // load-bearing across replicas, so content equality requires it
  // verbatim, on top of the closure structure the id fingerprints. A
  // same-id announcement with permuted or substituted members would
  // silently cross-wire remote µ-messages if accepted.
  if (SameFactorContent(stored.closure, stored.root_attribute, closure,
                        feedback.root_attribute) &&
      std::equal(stored_members.begin(), stored_members.end(),
                 feedback.members.begin(), feedback.members.end())) {
    return Status::Ok();
  }
  // Distinct factor content under the same 128-bit id: reject loudly
  // instead of storing it.
  return Status::FailedPrecondition(
      StrFormat("factor fingerprint collision on %s at peer %u",
                id.ToString().c_str(), id_));
}

Status Peer::IngestFeedback(const FeedbackAnnouncement& announcement) {
  // Validate-then-apply, so a collision anywhere in the announcement
  // leaves the peer untouched. The apply phase below cannot fail: fresh
  // ids always ingest, validated existing ids are idempotent no-ops, and
  // entries owning no local member are skipped inside IngestFactor.
  std::vector<std::pair<FactorId, const AttributeFeedback*>> pending;
  for (const AttributeFeedback& feedback : announcement.feedback) {
    if (feedback.sign == FeedbackSign::kNeutral) continue;
    const FactorId id =
        FactorId::Make(announcement.closure, feedback.root_attribute);
    PDMS_RETURN_IF_ERROR(
        ValidateFactorContent(id, announcement.closure, feedback));
    // Also validate against the announcement's own earlier entries: two
    // same-id entries with diverging content would otherwise pass the
    // stored-state check, then collide against each other mid-apply.
    for (const auto& [seen_id, seen] : pending) {
      if (seen_id != id) continue;
      if (seen->root_attribute == feedback.root_attribute &&
          std::equal(seen->members.begin(), seen->members.end(),
                     feedback.members.begin(), feedback.members.end())) {
        continue;
      }
      return Status::FailedPrecondition(
          StrFormat("factor fingerprint collision on %s within one "
                    "announcement at peer %u",
                    id.ToString().c_str(), id_));
    }
    pending.emplace_back(id, &feedback);
  }
  for (const auto& [id, feedback] : pending) {
    const Status applied =
        IngestFactor(id, announcement.closure, *feedback, announcement.delta);
    assert(applied.ok());
    (void)applied;
  }
  return Status::Ok();
}

Status Peer::IngestFactor(const FactorId& id, const Closure& closure,
                          const AttributeFeedback& feedback, double delta) {
  if (replica_index_.count(id) > 0) {
    // Existing id: either the same factor identity (idempotent no-op;
    // sign/∆ deliberately do not participate — they are observations, and
    // a re-observation keeps the first value) or a collision.
    return ValidateFactorContent(id, closure, feedback);
  }
  const bool owns_member = std::any_of(
      feedback.members.begin(), feedback.members.end(),
      [this](const MappingVarKey& var) {
        return graph_->edge_alive(var.edge) && graph_->edge(var.edge).src == id_;
      });
  if (!owns_member) return Status::Ok();

  Replica replica;
  replica.id = id;
  replica.closure = closure;
  replica.root_attribute = feedback.root_attribute;
  replica.sign = feedback.sign;
  replica.delta = delta;
  const size_t n = feedback.members.size();
  ReplicaHot hot;
  hot.msg_base = static_cast<uint32_t>(state_.var_to_factor_pool.size());
  hot.member_count = static_cast<uint32_t>(n);
  hot.owned_base = static_cast<uint32_t>(state_.owned_pos_pool.size());
  hot.delta = delta;
  hot.positive = feedback.sign == FeedbackSign::kPositive;
  state_.var_to_factor_pool.resize(hot.msg_base + n, Belief::Unit());
  state_.factor_to_var_pool.resize(hot.msg_base + n, Belief::Unit());
  state_.member_pool.insert(state_.member_pool.end(), feedback.members.begin(),
                      feedback.members.end());
  for (size_t i = 0; i < n; ++i) {
    const PeerId owner = graph_->edge(feedback.members[i].edge).src;
    state_.member_owner_pool.push_back(owner);
    if (owner == id_) {
      // Own variables start from the locally-known prior instead of the
      // unit message; remote ones stay unit until heard from.
      state_.var_to_factor_pool[hot.msg_base + i] =
          Belief::FromProbability(Prior(feedback.members[i]));
      state_.owned_pos_pool.push_back(static_cast<uint32_t>(i));
      ++hot.owned_count;
    } else {
      replica.other_owners.push_back(owner);
    }
  }
  std::sort(replica.other_owners.begin(), replica.other_owners.end());
  replica.other_owners.erase(
      std::unique(replica.other_owners.begin(), replica.other_owners.end()),
      replica.other_owners.end());

  const auto index = static_cast<uint32_t>(state_.replicas.size());
  state_.replicas.push_back(std::move(replica));
  state_.replica_hot.push_back(hot);
  replica_index_.emplace(id, index);
  RegisterReplica(index);
  kernel_stale_ = true;
  return Status::Ok();
}

uint32_t Peer::InternLink(PeerId peer) {
  const auto it = std::lower_bound(
      link_index_.begin(), link_index_.end(), peer,
      [](const auto& entry, PeerId p) { return entry.first < p; });
  if (it != link_index_.end() && it->first == peer) return it->second;
  const auto index = static_cast<uint32_t>(state_.links.size());
  state_.links.emplace_back().peer = peer;
  link_index_.emplace(it, peer, index);
  return index;
}

void Peer::RegisterReplica(uint32_t r) {
  const Replica& replica = state_.replicas[r];
  const ReplicaHot& hot = state_.replica_hot[r];
  for (uint32_t i = 0; i < hot.owned_count; ++i) {
    const uint32_t pos = state_.owned_pos_pool[hot.owned_base + i];
    state_.vars[InternVar(state_.member_pool[hot.msg_base + pos])]
        .slots.emplace_back(r, pos);
  }
  if (hot.owned_count == 0) return;
  for (PeerId peer : replica.other_owners) {
    // First mention of this factor over the (this -> peer) link: the next
    // session alias is the route's. Each (replica, recipient) pair
    // registers once — replica ids are unique and `other_owners` is
    // deduplicated — and in ascending replica order, so aliases ascend
    // with replica index and each route's group list stays in canonical
    // emission order, the order the determinism guarantee rides on.
    const uint32_t link = InternLink(peer);
    std::vector<FactorId>& sent = state_.links[link].tx.id_of;
    const auto alias = static_cast<uint32_t>(sent.size());
    sent.push_back(replica.id);
    auto it = std::lower_bound(
        state_.belief_routes.begin(), state_.belief_routes.end(), peer,
        [](const BeliefRoute& route, PeerId p) { return route.to < p; });
    if (it == state_.belief_routes.end() || it->to != peer) {
      it = state_.belief_routes.insert(it, BeliefRoute{peer, link, 0, {}});
    }
    it->entry_total += hot.owned_count;
    it->groups.emplace_back(r, alias);
  }
}

void Peer::AbsorbResolved(uint32_t r, uint32_t position, const Belief& belief) {
  const ReplicaHot& hot = state_.replica_hot[r];
  if (position >= hot.member_count) return;  // malformed
  if (state_.member_owner_pool[hot.msg_base + position] == id_) {
    return;  // forged
  }
  state_.var_to_factor_pool[hot.msg_base + position] = belief;
}

void Peer::AbsorbBeliefUpdate(const BeliefUpdate& update) {
  const auto it = replica_index_.find(update.factor);
  if (it == replica_index_.end()) return;  // closure unknown here: ignore
  AbsorbResolved(it->second, update.position, update.belief);
}

Status Peer::AbsorbBeliefBundle(PeerId from, const BeliefMessage& message) {
  // Quantized bundles (value_bits != 0) arrive with every entry's
  // `belief` already holding the dequantized realization of its wire
  // quantum: the codec materializes it on decode, and senders write it at
  // construction (`BeliefMessage::QuantizeValues`) so in-memory
  // transports deliver the same values a socket would. Absorption
  // therefore reads `entry.belief` uniformly for both formats.
  //
  // Everything in a stale-epoch bundle refers to the pre-rebuild
  // numbering — including its ack. Applying such an ack to the fresh
  // transmit session would mark bindings as established that the new
  // receive tables never saw, silencing the full-id fallback for good,
  // so the whole bundle is rejected up front.
  if (message.epoch != state_.alias_epoch) {
    return Status::FailedPrecondition(StrFormat(
        "belief bundle from peer %u carries alias epoch %u, peer %u is at %u",
        from, message.epoch, id_, state_.alias_epoch));
  }
  Link& link = state_.links[InternLink(from)];
  const bool guarded = options_->byzantine_guard.enabled;
  if (guarded) {
    // Hard-quarantined link: nothing in the bundle is trusted — not the
    // entries, not the ack, not the binding declarations. Counted and
    // dropped without a Status (a per-round error would flood the logs
    // for as long as the adversary keeps sending).
    if (link.guard.demote_level >= 2) {
      ++link.guard.dropped_bundles;
      return Status::Ok();
    }
    // Slot histories share the message pools' slots and grow lazily, so
    // replicas ingested since the last bundle get theirs here.
    if (state_.guard_slot_pool.size() < state_.var_to_factor_pool.size()) {
      state_.guard_slot_pool.resize(state_.var_to_factor_pool.size());
    }
  }
  AliasSessionTx& tx = link.tx;
  // The bundle's ack acknowledges *our* transmit session toward the
  // sender. Latest-wins, not max: an honest receiver's ack is monotone
  // and bundles arrive per-sender FIFO, so overwriting never loses
  // ground — while a *forged* high ack is corrected by the next genuine
  // bundle instead of permanently silencing the full-fingerprint
  // fallback (max would ratchet the forgery in forever). Clamping to
  // the aliases assigned so far keeps never-declared ones out either way.
  tx.acked_prefix =
      std::min(message.ack, static_cast<uint32_t>(tx.id_of.size()));
  AliasSessionRx& rx = link.rx;
  Status status = Status::Ok();
  // One entry of a resolved group: straight into the pool, or through the
  // guard stage when it is enabled.
  const auto absorb = [&](uint32_t r, const BeliefEntry& entry) {
    if (!guarded) {
      AbsorbResolved(r, entry.position, entry.belief);
      return;
    }
    AbsorbGuarded(from, link.guard, r, entry, message.value_bits, &status);
  };
  for (const BeliefGroup& group : message.groups) {
    // Entry ranges are untrusted input like everything else in a bundle:
    // a range outside the flat array is rejected, not clamped-and-used.
    if (static_cast<uint64_t>(group.entry_begin) + group.entry_count >
        message.entries.size()) {
      if (status.ok()) {
        status = Status::InvalidArgument(StrFormat(
            "belief group for alias %u addresses entries [%u, %u) beyond "
            "the bundle's %zu",
            group.alias, group.entry_begin,
            group.entry_begin + group.entry_count, message.entries.size()));
      }
      continue;
    }
    // Steady state first: a *bare* alias whose factor is already resolved
    // costs one 4-byte load — no fingerprint hash lookup per update. A
    // group that carries a fingerprint must take the slow path even when
    // cached, so a conflicting rebind is detected instead of silently
    // absorbed under the original binding.
    uint32_t replica = group.id.IsNil() &&
                               group.alias < link.replica_of_alias.size()
                           ? link.replica_of_alias[group.alias]
                           : kNoReplica;
    if (replica == kNoReplica) {
      FactorId id = group.id;
      if (!id.IsNil()) {
        // Binding declaration (first mention / loss refallback). Recorded
        // even when no replica exists here yet — the announcement may
        // still be in flight, and acking the binding is what lets the
        // sender drop the fingerprint once we can use the updates.
        Status bound = rx.Bind(group.alias, id);
        if (!bound.ok()) {
          const StatusCode bound_code = bound.code();
          if (status.ok()) status = std::move(bound);
          // Past the per-session alias cap the binding cannot be stored,
          // but the fingerprint in the group is still a complete, valid
          // address — absorb through it (degrading to PR 3 full-id
          // semantics for the overflow tail; the binding stays unacked,
          // so the sender keeps declaring it). A *conflicting* rebind, by
          // contrast, is dropped outright, mirroring the collision
          // policy: neither identity can be trusted.
          if (bound_code != StatusCode::kOutOfRange) continue;
          const auto overflow = replica_index_.find(id);
          if (overflow != replica_index_.end()) {
            for (const BeliefEntry& entry : message.EntriesOf(group)) {
              absorb(overflow->second, entry);
            }
          }
          continue;
        }
      } else if (group.alias < rx.id_of.size() &&
                 !rx.id_of[group.alias].IsNil()) {
        id = rx.id_of[group.alias];
      } else {
        if (status.ok()) status = rx.Resolve(group.alias).status();
        continue;
      }
      const auto it = replica_index_.find(id);
      if (it == replica_index_.end()) continue;  // closure unknown: ignore
      replica = it->second;
      if (group.alias >= link.replica_of_alias.size()) {
        link.replica_of_alias.resize(group.alias + 1, kNoReplica);
      }
      link.replica_of_alias[group.alias] = replica;
    }
    for (const BeliefEntry& entry : message.EntriesOf(group)) {
      absorb(replica, entry);
    }
  }
  return status;
}

void Peer::AbsorbGuarded(PeerId from, GuardLinkState& guard, uint32_t r,
                         const BeliefEntry& entry, uint32_t value_bits,
                         Status* status) {
  const ReplicaHot& hot = state_.replica_hot[r];
  const GuardScope scope{
      id_, from, state_.round,
      {state_.member_owner_pool.data() + hot.msg_base, hot.member_count},
      {state_.guard_slot_pool.data() + hot.msg_base, hot.member_count}};
  // The guard's checks subsume AbsorbResolved's; it hands back the value
  // to write (damped on a soft-demoted link).
  if (const std::optional<Belief> admitted =
          GuardAdmit(entry, value_bits, scope, guard, status)) {
    state_.var_to_factor_pool[hot.msg_base + entry.position] = *admitted;
  }
}

void Peer::GuardEndOfRound() {
  std::vector<double> clean_means;
  clean_means.reserve(state_.links.size());
  for (const Link& link : state_.links) {
    if (link.guard.demote_level == 0 && link.guard.round_absorbed > 0) {
      clean_means.push_back(link.guard.round_influence /
                            link.guard.round_absorbed);
    }
  }
  const double baseline = GuardOutlierBaseline(clean_means);
  // Each link closes its round from its own record and the shared
  // baseline, and a purge touches only the quarantined peer's own slots,
  // so the walk order does not matter.
  for (Link& link : state_.links) {
    if (GuardCloseRound(link.guard, baseline,
                        options_->byzantine_guard.demote_threshold)) {
      PurgeGuardDeposits(link.peer, state_.member_owner_pool,
                         state_.var_to_factor_pool, state_.guard_slot_pool);
    }
  }
}

double Peer::ComputeRound() {
  // Phase 1: factor -> variable messages for owned members, from the
  // var -> factor state of the previous round (synchronous flooding).
  // Streams only the flat hot array and the SoA pools: no cold replica
  // struct, no per-replica heap vector, no virtual factor dispatch.
  const bool damped = options_->damping > 0.0;
  for (const ReplicaHot& hot : state_.replica_hot) {
    const std::span<const Belief> incoming(
        state_.var_to_factor_pool.data() + hot.msg_base, hot.member_count);
    for (uint32_t i = 0; i < hot.owned_count; ++i) {
      const uint32_t pos = state_.owned_pos_pool[hot.owned_base + i];
      Belief& target = state_.factor_to_var_pool[hot.msg_base + pos];
      Belief computed =
          CycleFeedbackMessage(pos, incoming, hot.positive, hot.delta)
              .Rescaled();
      if (damped) {
        computed = target.DampedToward(computed, 1.0 - options_->damping);
      }
      target = computed;
    }
  }
  // Phase 2: variable -> factor messages for owned variables:
  // µ_{v->f} = prior(v) · Π_{f' ∋ v, f' ≠ f} µ_{f'->v}, computed for all
  // adjacent factors at once via prefix/suffix products (O(deg) per
  // variable instead of O(deg²)). The full product also yields the new
  // posterior, so the convergence residual comes out of the same pass
  // instead of a separate Posterior() sweep. Reads only the flat kernel
  // index and the message pools.
  if (kernel_stale_) RebuildKernel();
  double max_change = 0.0;
  const uint32_t* slots = kernel_slots_.data();
  for (const KernelVar& kernel : kernel_vars_) {
    const size_t k = kernel.slot_count;
    const Belief prior = Belief::FromProbability(kernel.prior);
    ExclusivePrefixSuffixProducts(
        k,
        [&](size_t j) -> const Belief& {
          return state_.factor_to_var_pool[slots[j]];
        },
        &prefix_scratch_, &suffix_scratch_);
    for (size_t j = 0; j < k; ++j) {
      state_.var_to_factor_pool[slots[j]] =
          (prior * prefix_scratch_[j] * suffix_scratch_[j + 1]).Rescaled();
    }
    slots += k;
    // Convergence metric: posterior change over owned variables, with the
    // ⊥ rule applied exactly as in PosteriorBelief.
    const double now =
        kernel.bottom ? 0.0 : (prior * prefix_scratch_[k]).Normalized().correct;
    VarState& var = state_.vars[kernel.var];
    if (var.has_last_posterior) {
      max_change = std::max(max_change, std::abs(now - var.last_posterior));
    } else {
      max_change = 1.0;  // first round with evidence: not converged
    }
    var.last_posterior = now;
    var.has_last_posterior = true;
  }
  // Residual-driven precision step-up (quantized wire values): every
  // outgoing link ratchets toward the tier this round's residual calls
  // for — monotone, so a peer restored from a snapshot continues the
  // same precision trajectory an uninterrupted run would have taken.
  if (options_->value_precision.error_budget > 0.0) {
    const uint32_t target =
        ValueRankTarget(options_->value_precision, max_change);
    for (Link& link : state_.links) {
      if (link.value_rank < target) {
        link.value_rank = static_cast<uint8_t>(target);
      }
    }
  }
  if (options_->byzantine_guard.enabled) GuardEndOfRound();
  // The round clock is maintained unconditionally (the guard's same-round
  // window and the chaos layer's draw key both read it); with both off
  // the increment touches nothing else.
  ++state_.round;
  return max_change;
}

void Peer::RebuildKernel() {
  kernel_vars_.clear();
  kernel_slots_.clear();
  for (uint32_t v = 0; v < state_.vars.size(); ++v) {
    const VarState& var = state_.vars[v];
    if (var.slots.empty()) continue;
    bool bottom = false;
    if (var.key.attribute != MappingVarKey::kWholeMapping) {
      const SchemaMapping* m = mapping(var.key.edge);
      bottom = m == nullptr || !m->Apply(var.key.attribute).has_value();
    }
    KernelVar kernel;
    kernel.prior = Prior(var.key);
    kernel.var = v;
    kernel.slot_count = static_cast<uint32_t>(var.slots.size());
    kernel.bottom = bottom ? 1 : 0;
    kernel_vars_.push_back(kernel);
    for (const auto& [replica, position] : var.slots) {
      kernel_slots_.push_back(state_.replica_hot[replica].msg_base + position);
    }
  }
  kernel_stale_ = false;
}

void Peer::CollectOutgoingBeliefs(std::vector<Outgoing>* out) const {
  // The routing tables already hold recipients in ascending PeerId — the
  // determinism anchor for lossy transports — and every group to emit, so
  // this is a straight pour: no per-round map, no re-bucketing, no alias
  // lookup (the alias was negotiated when the route was built).
  out->clear();
  out->reserve(state_.belief_routes.size());
  const bool quantize = options_->value_precision.error_budget > 0.0;
  const ByzantinePlan& chaos = options_->byzantine;
  const bool adversarial = chaos.Enabled() && chaos.IsAdversary(id_);
  std::vector<FactorId> chaos_group_ids;
  for (const BeliefRoute& route : state_.belief_routes) {
    const Link& link = state_.links[route.link];
    BeliefMessage bundle;
    bundle.epoch = state_.alias_epoch;
    // Piggybacked ack for the reverse session: how much of the sender's
    // numbering *we* have bound (0 until they have sent us anything).
    bundle.ack = link.rx.known_prefix;
    bundle.groups.reserve(route.groups.size());
    bundle.entries.reserve(route.entry_total);
    for (const auto& [replica, alias] : route.groups) {
      const ReplicaHot& hot = state_.replica_hot[replica];
      BeliefGroup group;
      group.alias = alias;
      group.entry_begin = static_cast<uint32_t>(bundle.entries.size());
      group.entry_count = hot.owned_count;
      // Unacknowledged binding: keep declaring the full fingerprint so a
      // dropped first mention degrades to full-id traffic, never to an
      // unknown alias at the receiver.
      if (alias >= link.tx.acked_prefix) group.id = state_.replicas[replica].id;
      for (uint32_t i = 0; i < hot.owned_count; ++i) {
        const uint32_t pos = state_.owned_pos_pool[hot.owned_base + i];
        bundle.entries.push_back(
            BeliefEntry{pos, state_.var_to_factor_pool[hot.msg_base + pos]});
      }
      bundle.groups.push_back(group);
    }
    // Quantize at construction, at the link's current precision tier:
    // every entry gets its wire quantum and the dequantized value the
    // receiver will observe — identically whether the bundle crosses a
    // socket (codec ships the quantum) or an in-memory transport (the
    // struct already carries the dequantized belief).
    if (quantize) {
      bundle.QuantizeValues(
          ValueRankBits(options_->value_precision, link.value_rank));
    }
    // Behavioral chaos: an adversarial peer poisons its own wire *after*
    // quantization, so forged entries stay tier-consistent and have to
    // be caught semantically by receivers, not syntactically. Draws are
    // keyed on (seed, round, global factor id, position) — replayable
    // and identical at every parallelism; local replica state stays
    // honest.
    if (adversarial) {
      chaos_group_ids.clear();
      chaos_group_ids.reserve(route.groups.size());
      for (const auto& [replica, alias] : route.groups) {
        chaos_group_ids.push_back(state_.replicas[replica].id);
      }
      ApplyByzantineFaults(chaos, id_, route.to, state_.round, chaos_group_ids,
                           &bundle);
    }
    Outgoing& outgoing = out->emplace_back();
    outgoing.to = route.to;
    outgoing.payload = std::move(bundle);
  }
}

std::vector<Outgoing> Peer::CollectOutgoingBeliefs() const {
  std::vector<Outgoing> out;
  CollectOutgoingBeliefs(&out);
  return out;
}

std::vector<BeliefUpdate> Peer::PiggybackUpdatesFor(EdgeId edge) const {
  std::vector<BeliefUpdate> updates;
  const auto it = edge_vars_.find(edge);
  if (it == edge_vars_.end()) return updates;
  for (uint32_t v : it->second) {
    for (const auto& [replica, position] : state_.vars[v].slots) {
      updates.push_back(BeliefUpdate{
          state_.replicas[replica].id, position,
          state_.var_to_factor_pool
              [state_.replica_hot[replica].msg_base + position]});
    }
  }
  return updates;
}

std::vector<Peer::ReplicaView> Peer::ReplicaViews() const {
  std::vector<ReplicaView> views;
  views.reserve(state_.replicas.size());
  for (uint32_t r = 0; r < state_.replicas.size(); ++r) {
    const Replica& replica = state_.replicas[r];
    const std::span<const MappingVarKey> members = Members(r);
    views.push_back(ReplicaView{
        replica.id, replica.root_attribute, replica.sign,
        std::vector<MappingVarKey>(members.begin(), members.end()),
        replica.delta, replica.closure.kind});
  }
  return views;
}

std::vector<Peer::GuardLinkView> Peer::GuardViews() const {
  std::vector<GuardLinkView> views;
  views.reserve(state_.links.size());
  for (const Link& link : state_.links) {
    views.push_back(GuardLinkView{link.peer, link.guard});
  }
  return views;
}

uint64_t Peer::guard_rejected_entries() const {
  uint64_t total = 0;
  for (const Link& link : state_.links) {
    total += link.guard.rejections + link.guard.equivocations;
  }
  return total;
}

uint64_t Peer::guard_demoted_links() const {
  uint64_t total = 0;
  for (const Link& link : state_.links) {
    if (link.guard.demote_level >= 1) ++total;
  }
  return total;
}

size_t Peer::RemoteMessageBound() const {
  size_t bound = 0;
  for (const ReplicaHot& hot : state_.replica_hot) {
    bound += hot.owned_count * (hot.member_count - 1);
  }
  return bound;
}

// --- Durable state --------------------------------------------------------------

void Peer::RestoreImage(Image image) {
  state_ = std::move(image);
  RebuildIndexes();
  seen_queries_.clear();
}

void Peer::RebuildIndexes() {
  replica_index_.clear();
  for (uint32_t r = 0; r < state_.replicas.size(); ++r) {
    replica_index_.emplace(state_.replicas[r].id, r);
  }
  // Re-intern in stored order, reproducing the original `InternVar`
  // sequence bit for bit (each edge's index list stays ascending).
  var_index_.clear();
  edge_vars_.clear();
  for (uint32_t v = 0; v < state_.vars.size(); ++v) {
    var_index_.emplace(state_.vars[v].key.Packed(), v);
    edge_vars_[state_.vars[v].key.edge].push_back(v);
  }
  link_index_.clear();
  for (uint32_t i = 0; i < state_.links.size(); ++i) {
    link_index_.emplace_back(state_.links[i].peer, i);
  }
  std::sort(link_index_.begin(), link_index_.end());
  kernel_stale_ = true;
}

// --- Probes & discovery --------------------------------------------------------

std::vector<Outgoing> Peer::StartProbes() const {
  std::vector<Outgoing> out;
  // An attribute-less schema has no images to compare: nothing to probe.
  const auto width = static_cast<uint32_t>(schema_.size());
  if (options_->probe_ttl == 0 || width == 0) return out;
  for (const auto& [edge, mapping] : state_.mappings) {
    const NodeId next = graph_->edge(edge).dst;
    if (!ProbeHopUseful(options_->closure_limits, id_, /*origin_is_min=*/true,
                        /*hops=*/0, options_->probe_ttl, next)) {
      continue;
    }
    ProbeMessage probe;
    probe.origin = id_;
    probe.ttl = options_->probe_ttl - 1;
    probe.route = {edge};
    probe.width = width;
    probe.trail.reserve(width);
    for (AttributeId a = 0; a < width; ++a) {
      probe.trail.push_back(mapping.Apply(a));
    }
    Outgoing& outgoing = out.emplace_back();
    outgoing.to = next;
    outgoing.via = edge;
    outgoing.payload = std::move(probe);
  }
  return out;
}

Status Peer::CheckProbe(const ProbeMessage& probe,
                        std::vector<NodeId>* nodes) const {
  if (probe.route.empty()) {
    return Status::InvalidArgument(StrFormat(
        "probe from peer %u reached peer %u with an empty route",
        probe.origin, id_));
  }
  if (probe.width == 0 ||
      probe.trail.size() != probe.route.size() * probe.width) {
    return Status::InvalidArgument(StrFormat(
        "probe from peer %u carries %zu trail images for %zu hops of width %u",
        probe.origin, probe.trail.size(), probe.route.size(), probe.width));
  }
  // The route must be a walk over this graph from the origin to here.
  nodes->clear();
  nodes->reserve(probe.route.size() + 1);
  nodes->push_back(probe.origin);
  for (EdgeId edge : probe.route) {
    if (edge >= graph_->edge_capacity()) {
      return Status::InvalidArgument(StrFormat(
          "probe from peer %u names edge %u outside the graph (%zu edges)",
          probe.origin, edge, graph_->edge_capacity()));
    }
    if (graph_->edge(edge).src != nodes->back()) {
      return Status::InvalidArgument(StrFormat(
          "probe route from peer %u is not a walk: edge %u does not start at "
          "peer %u",
          probe.origin, edge, nodes->back()));
    }
    nodes->push_back(graph_->edge(edge).dst);
  }
  if (nodes->back() != id_) {
    return Status::InvalidArgument(StrFormat(
        "probe route from peer %u ends at peer %u, not at peer %u",
        probe.origin, nodes->back(), id_));
  }
  return Status::Ok();
}

std::vector<NodeId> Peer::RouteNodes(const std::vector<EdgeId>& route) const {
  std::vector<NodeId> nodes;
  nodes.reserve(route.size() + 1);
  if (!route.empty()) nodes.push_back(graph_->edge(route[0]).src);
  for (EdgeId edge : route) nodes.push_back(graph_->edge(edge).dst);
  return nodes;
}

bool Peer::RoutesIndependent(const std::vector<EdgeId>& a,
                             const std::vector<EdgeId>& b) const {
  for (EdgeId ea : a) {
    if (std::find(b.begin(), b.end(), ea) != b.end()) return false;
  }
  const std::vector<NodeId> nodes_a = RouteNodes(a);
  const std::vector<NodeId> nodes_b = RouteNodes(b);
  // Interior nodes exclude the shared source (front) and sink (back).
  for (size_t i = 1; i + 1 < nodes_a.size(); ++i) {
    for (size_t j = 1; j + 1 < nodes_b.size(); ++j) {
      if (nodes_a[i] == nodes_b[j]) return false;
    }
  }
  return true;
}

std::vector<AttributeFeedback> Peer::CycleFeedback(
    const ProbeMessage& probe) const {
  std::vector<AttributeFeedback> feedback;
  const size_t hops = probe.route.size();
  for (AttributeId a = 0; a < probe.width; ++a) {
    AttributeFeedback entry;
    entry.root_attribute = a;
    entry.members.push_back(MappingVarKey{probe.route[0], a});
    bool broken = false;
    for (size_t hop = 1; hop < hops; ++hop) {
      const std::optional<AttributeId> image = probe.Hop(hop - 1)[a];
      if (!image.has_value()) {
        broken = true;
        break;
      }
      entry.members.push_back(MappingVarKey{probe.route[hop], *image});
    }
    const std::optional<AttributeId> final_image = probe.Hop(hops - 1)[a];
    if (broken || !final_image.has_value()) {
      entry.sign = FeedbackSign::kNeutral;
    } else {
      entry.sign = *final_image == a ? FeedbackSign::kPositive
                                     : FeedbackSign::kNegative;
    }
    feedback.push_back(std::move(entry));
  }
  return feedback;
}

std::vector<AttributeFeedback> Peer::ParallelFeedback(
    const ProbeMessage& first, const ProbeMessage& second) const {
  std::vector<AttributeFeedback> feedback;
  // Same origin, so the same width; the minimum keeps a forged mismatch
  // inside both trails.
  const uint32_t width = std::min(first.width, second.width);
  for (AttributeId a = 0; a < width; ++a) {
    AttributeFeedback entry;
    entry.root_attribute = a;
    bool broken = false;
    auto add_chain = [&](const ProbeMessage& probe) {
      entry.members.push_back(MappingVarKey{probe.route[0], a});
      for (size_t hop = 1; hop < probe.route.size(); ++hop) {
        const std::optional<AttributeId> image = probe.Hop(hop - 1)[a];
        if (!image.has_value()) {
          broken = true;
          return;
        }
        entry.members.push_back(MappingVarKey{probe.route[hop], *image});
      }
    };
    add_chain(first);
    add_chain(second);
    const std::optional<AttributeId> image1 =
        first.Hop(first.route.size() - 1)[a];
    const std::optional<AttributeId> image2 =
        second.Hop(second.route.size() - 1)[a];
    if (broken || !image1.has_value() || !image2.has_value()) {
      entry.sign = FeedbackSign::kNeutral;
    } else {
      entry.sign = *image1 == *image2 ? FeedbackSign::kPositive
                                      : FeedbackSign::kNegative;
    }
    feedback.push_back(std::move(entry));
  }
  return feedback;
}

std::vector<AttributeFeedback> Peer::CoarsenFeedback(
    std::vector<AttributeFeedback> fine) {
  bool any_negative = false;
  bool any_positive = false;
  std::vector<MappingVarKey> members;
  for (const AttributeFeedback& entry : fine) {
    if (entry.sign == FeedbackSign::kNegative) any_negative = true;
    if (entry.sign == FeedbackSign::kPositive) any_positive = true;
    if (members.empty()) {
      for (const MappingVarKey& var : entry.members) {
        members.push_back(MappingVarKey{var.edge, MappingVarKey::kWholeMapping});
      }
    }
  }
  AttributeFeedback coarse;
  coarse.root_attribute = MappingVarKey::kWholeMapping;
  coarse.members = std::move(members);
  coarse.sign = any_negative  ? FeedbackSign::kNegative
                : any_positive ? FeedbackSign::kPositive
                               : FeedbackSign::kNeutral;
  return {std::move(coarse)};
}

void Peer::AnnounceToOwners(const FeedbackAnnouncement& announcement,
                            std::vector<Outgoing>* out) const {
  std::vector<PeerId> owners;
  for (EdgeId edge : announcement.closure.edges) {
    if (graph_->edge_alive(edge)) owners.push_back(graph_->edge(edge).src);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  for (PeerId owner : owners) {
    out->push_back(Outgoing{owner, std::nullopt, announcement});
  }
}

std::vector<Outgoing> Peer::HandleProbe(const ProbeMessage& probe,
                                        Status* status) {
  std::vector<Outgoing> out;
  std::vector<NodeId>& nodes = route_scratch_;
  Status checked = CheckProbe(probe, &nodes);
  if (!checked.ok()) {
    if (status != nullptr) *status = std::move(checked);
    return out;
  }
  const auto& limits = options_->closure_limits;
  const bool origin_is_min =
      *std::min_element(nodes.begin(), nodes.end()) == probe.origin;

  if (probe.origin == id_) {
    // Cycle closed (Section 3.2.1). Only the minimum-id peer on the cycle
    // announces it: every peer's probe traverses the same physical cycle,
    // and rooting the factor at a canonical peer prevents the same
    // comparison from being double-counted as several factors.
    const size_t length = probe.route.size();
    if (origin_is_min && length >= limits.min_cycle_length &&
        length <= limits.max_cycle_length) {
      Closure closure;
      closure.kind = Closure::Kind::kCycle;
      closure.edges = probe.route;
      closure.split = probe.route.size();
      closure.source = id_;
      closure.sink = id_;
      const FactorId base = FactorId::Make(closure, 0);
      if (InsertSorted(state_.announced, base)) {
        FeedbackAnnouncement announcement;
        announcement.closure = std::move(closure);
        announcement.delta = EffectiveDelta();
        announcement.feedback = CycleFeedback(probe);
        if (options_->granularity == Granularity::kCoarse) {
          announcement.feedback =
              CoarsenFeedback(std::move(announcement.feedback));
        }
        AnnounceToOwners(announcement, &out);
      }
    }
    return out;  // Probes stop at their origin.
  }

  // Parallel-path detection (Section 3.3): pair this probe against cached
  // probes from the same origin arriving via an independent route.
  if (probe.route.size() <= limits.max_path_length) {
    // Every origin that gets this far gets an entry, even one that stays
    // empty (`max_cached_probes` 0): snapshots carry these entries.
    auto& origins = state_.probe_cache;
    auto entry = std::lower_bound(
        origins.begin(), origins.end(), probe.origin,
        [](const auto& e, PeerId origin) { return e.first < origin; });
    if (entry == origins.end() || entry->first != probe.origin) {
      entry = origins.emplace(entry, probe.origin, std::vector<ProbeMessage>{});
    }
    std::vector<ProbeMessage>& cache = entry->second;
    for (const ProbeMessage& cached : cache) {
      if (cached.route.size() > limits.max_path_length) continue;
      if (!RoutesIndependent(cached.route, probe.route)) continue;
      // Canonical path order (lexicographically smaller edge sequence
      // first) so the same physical pair always yields the same closure —
      // regardless of probe arrival order across discovery rounds.
      const ProbeMessage* first = &cached;
      const ProbeMessage* second = &probe;
      if (second->route < first->route) std::swap(first, second);
      Closure closure;
      closure.kind = Closure::Kind::kParallelPaths;
      closure.edges = first->route;
      closure.edges.insert(closure.edges.end(), second->route.begin(),
                           second->route.end());
      closure.split = first->route.size();
      closure.source = probe.origin;
      closure.sink = id_;
      const FactorId base = FactorId::Make(closure, 0);
      if (!InsertSorted(state_.announced, base)) continue;
      FeedbackAnnouncement announcement;
      announcement.closure = std::move(closure);
      announcement.delta = EffectiveDelta();
      announcement.feedback = ParallelFeedback(*first, *second);
      if (options_->granularity == Granularity::kCoarse) {
        announcement.feedback =
            CoarsenFeedback(std::move(announcement.feedback));
      }
      AnnounceToOwners(announcement, &out);
    }
    if (cache.size() < options_->max_cached_probes) cache.push_back(probe);
  }

  // Forward along simple routes, and only where the copy can still take
  // part in an announced closure (`ProbeHopUseful`).
  if (probe.ttl == 0) return out;
  const size_t hops = probe.route.size();
  const size_t last_hop = hops - 1;
  for (const auto& [edge, mapping] : state_.mappings) {
    const NodeId next = graph_->edge(edge).dst;
    if (!ProbeHopUseful(limits, probe.origin, origin_is_min, hops, probe.ttl,
                        next)) {
      continue;
    }
    // Simple routes: never revisit an interior node; returning to the
    // origin is allowed (that closes a cycle).
    if (next != probe.origin &&
        std::find(nodes.begin(), nodes.end(), next) != nodes.end()) {
      continue;
    }
    // Built at its exact final size: one route and one trail allocation.
    ProbeMessage forwarded;
    forwarded.origin = probe.origin;
    forwarded.ttl = probe.ttl - 1;
    forwarded.route.reserve(probe.route.size() + 1);
    forwarded.route.assign(probe.route.begin(), probe.route.end());
    forwarded.route.push_back(edge);
    forwarded.width = probe.width;
    forwarded.trail.reserve(probe.trail.size() + probe.width);
    forwarded.trail.assign(probe.trail.begin(), probe.trail.end());
    for (const std::optional<AttributeId>& current : probe.Hop(last_hop)) {
      forwarded.trail.push_back(current.has_value() ? mapping.Apply(*current)
                                                    : std::nullopt);
    }
    out.push_back(Outgoing{next, edge, std::move(forwarded)});
  }
  return out;
}

// --- Queries --------------------------------------------------------------------

bool Peer::GateAllows(EdgeId edge, const SchemaMapping& mapping,
                      AttributeId attribute) const {
  // The ⊥ check here is the one `PosteriorBelief` would repeat for a
  // per-attribute variable, so the posterior comes straight from the
  // variable's state: one hash lookup per (edge, attribute).
  if (!mapping.Apply(attribute).has_value()) return false;
  const MappingVarKey var =
      options_->granularity == Granularity::kCoarse
          ? MappingVarKey{edge, MappingVarKey::kWholeMapping}
          : MappingVarKey{edge, attribute};
  const VarState* state = FindVar(var);
  if (state == nullptr || state->slots.empty()) {
    return options_->forward_without_evidence;
  }
  return PosteriorOf(state).correct > options_->theta;
}

QueryActions Peer::ProcessQuery(const QueryMessage& message,
                                bool piggyback_beliefs) {
  QueryActions actions;
  if (!seen_queries_.insert(message.query_id).second) return actions;
  actions.first_visit = true;

  actions.rows = store_.Execute(message.query);

  if (message.ttl == 0) return actions;
  const std::vector<AttributeId> attributes = message.query.Attributes();
  for (const auto& [edge, mapping] : state_.mappings) {
    const NodeId next = graph_->edge(edge).dst;
    if (std::find(message.visited.begin(), message.visited.end(), next) !=
        message.visited.end()) {
      continue;
    }
    bool allowed = true;
    for (AttributeId attribute : attributes) {
      if (!GateAllows(edge, mapping, attribute)) {
        allowed = false;
        break;
      }
    }
    if (!allowed) {
      actions.blocked_edges.push_back(edge);
      continue;
    }
    Result<Query> translated = message.query.Translate(mapping);
    if (!translated.ok()) {  // ⊥ slipped through: treat as blocked.
      actions.blocked_edges.push_back(edge);
      continue;
    }
    QueryMessage forwarded;
    forwarded.query_id = message.query_id;
    forwarded.origin = message.origin;
    forwarded.ttl = message.ttl - 1;
    forwarded.query = std::move(translated).value();
    forwarded.visited = message.visited;
    forwarded.visited.push_back(id_);
    if (piggyback_beliefs) {
      forwarded.piggyback = PiggybackUpdatesFor(edge);
      // Also relay foreign belief messages riding on the incoming query
      // (gossip-style dissemination, Section 4.3.2).
      forwarded.piggyback.insert(forwarded.piggyback.end(),
                                 message.piggyback.begin(),
                                 message.piggyback.end());
    }
    actions.forwards.push_back(Outgoing{next, edge, std::move(forwarded)});
  }
  return actions;
}

}  // namespace pdms
