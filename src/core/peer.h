#ifndef PDMS_CORE_PEER_H_
#define PDMS_CORE_PEER_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/guard.h"
#include "core/options.h"
#include "factor/factor.h"
#include "graph/digraph.h"
#include "net/message.h"
#include "query/document_store.h"
#include "query/query.h"

namespace pdms {

/// A message a peer wants delivered.
struct Outgoing {
  PeerId to = 0;
  std::optional<EdgeId> via;
  Payload payload;
};

/// Outcome of local query processing.
struct QueryActions {
  /// Rows produced by the local database.
  std::vector<ResultRow> rows;
  /// Translated queries to forward (θ-gate passed).
  std::vector<Outgoing> forwards;
  /// Mapping links the θ-gate blocked.
  std::vector<EdgeId> blocked_edges;
  /// False when the peer had already processed this query id (a duplicate
  /// arrival: no rows, no forwards).
  bool first_visit = false;
};

// --- Adaptive value-precision tiers --------------------------------------------
//
// Under a value error budget (EngineOptions::value_precision) every belief
// link carries a monotone precision tier: coarse quanta while the sending
// peer's residual is large, stepping to fine as convergence nears. The
// tier is transmit-side state only (bundles are self-describing), so
// step-ups survive loss and mixed-precision traffic trivially.

/// Number of value-precision tiers (coarse, mid, fine).
inline constexpr uint32_t kValueRankCount = 3;

/// Fractional log-odds bits a bundle at `rank` uses under `precision`:
/// fine = ValueBitsForBudget(budget), mid/coarse = 3/6 fewer bits
/// (clamped at 2); 0 (raw doubles) at every rank when the budget is off.
uint32_t ValueRankBits(const ValuePrecisionOptions& precision, uint32_t rank);

/// Target tier for a peer whose last round's max posterior change was
/// `residual`: coarse above 64ε, mid above 8ε, fine below. Links only
/// ever step toward this target, never back.
uint32_t ValueRankTarget(const ValuePrecisionOptions& precision,
                         double residual);

/// One autonomous peer database: schema, documents, outgoing mappings, and
/// the peer's fragment of the global factor graph (Section 4.1).
///
/// A peer stores one factor replica per announced (closure, root-attribute)
/// pair touching any of its outgoing mappings, together with the last
/// var->factor message received from each foreign variable. Everything the
/// peer computes uses only this local state plus incoming messages — the
/// decentralization claim of the paper, made literal. Because rounds are
/// strictly peer-local, the engine may execute `ComputeRound` for distinct
/// peers on distinct threads; a single `Peer` is not itself thread-safe.
///
/// The peer's state *is* its image: every durable field lives in one
/// canonical `Image` member, the unit the undo sessions copy and the
/// snapshot layer serializes, so capture is a copy and restore a move.
/// Outside it sit only indexes derived from it, rebuilt by one function.
///
/// Hot-path layout: replicas and mapping variables are interned into dense
/// arrays (`Image::replicas`, `Image::vars`) indexed by 128-bit `FactorId`
/// fingerprints (identity-hashed — no string keys anywhere past ingest),
/// and each variable keeps its (replica, position) slots. *All*
/// per-replica hot state lives in contiguous structure-of-arrays pools
/// addressed by base/length offsets from the flat `ReplicaHot` array: the
/// message pools (slot = `msg_base + position`), the member scope and its
/// owners (same slots), and the owned positions. `ComputeRound` and
/// `AbsorbBeliefUpdate` therefore touch no per-replica heap vectors at all
/// — the cold `Replica` structs exist only for ingest, introspection and
/// rebuilds — and perform no heap allocation after the first round with a
/// given evidence set. Outgoing belief bundles are emitted from
/// per-recipient routing tables precomputed at ingest, with factor
/// identity compressed to link-local session aliases (`Link`).
class Peer {
 public:
  /// `graph` is the shared topology (used only to resolve edge endpoints,
  /// information a real deployment would carry in probe metadata).
  Peer(PeerId id, Schema schema, const Digraph* graph,
       const EngineOptions* options);

  PeerId id() const { return id_; }
  const Schema& schema() const { return schema_; }
  DocumentStore& store() { return store_; }
  const DocumentStore& store() const { return store_; }

  // --- Mappings -------------------------------------------------------------

  /// Registers the outgoing mapping for `edge` (this peer must be its
  /// source). Fails with `AlreadyExists` on duplicates.
  Status AddMapping(EdgeId edge, SchemaMapping mapping);

  /// Drops a mapping and every factor replica that references it (churn).
  void RemoveMapping(EdgeId edge);

  /// The outgoing mapping stored for `edge`, or nullptr.
  const SchemaMapping* mapping(EdgeId edge) const;

  std::vector<EdgeId> OutgoingEdges() const;

  // --- Priors & posteriors ----------------------------------------------------

  /// Sets explicit prior belief for one mapping variable (expert
  /// validation, Section 4.4). Resets the variable's evidence history.
  void SetPrior(const MappingVarKey& var, double prior);
  double Prior(const MappingVarKey& var) const;

  /// Posterior P(var = correct). Follows the ⊥ rule: if the mapping has no
  /// image for the attribute, the posterior is 0 (Section 3.2.1). Without
  /// any feedback evidence, returns the prior.
  double Posterior(const MappingVarKey& var) const;
  Belief PosteriorBelief(const MappingVarKey& var) const;

  /// Whether any factor replica references (edge, attribute).
  bool HasEvidence(const MappingVarKey& var) const;

  /// EM-style prior update (Section 4.4): records the current posterior of
  /// every owned variable with evidence as a new observation and sets
  /// prior = mean of observations (the initial prior counts as the first).
  void UpdatePriorsFromPosteriors();

  // --- Embedded message passing ----------------------------------------------

  /// Ingests an announced closure + feedback (creates factor replicas).
  /// Atomic: every entry is validated against the stored replicas (and the
  /// announcement's own earlier entries) before anything is applied, so a
  /// fingerprint-collision error leaves the peer exactly as it was — no
  /// partially-ingested announcement, no routing tables rebuilt for a
  /// dropped factor.
  Status IngestFeedback(const FeedbackAnnouncement& announcement);

  /// Registers one factor replica under an explicit id. The normal path
  /// (`IngestFeedback`) derives the id from the closure content; this
  /// entry point is the seam for wire-level replay and for exercising the
  /// collision check directly. Fails with `FailedPrecondition` when `id`
  /// is already bound to a replica with *different* factor identity
  /// (closure structure, root attribute, or member sequence — a
  /// fingerprint collision); re-ingesting the same identity is an
  /// idempotent no-op. Sign and ∆ are *observations*, not identity: a
  /// re-announcement of a known factor with a different sign or ∆ keeps
  /// the first observation (first-wins, matching the pre-fingerprint
  /// behavior) rather than being treated as a collision.
  Status IngestFactor(const FactorId& id, const Closure& closure,
                      const AttributeFeedback& feedback, double delta);

  /// Stores a remote var->factor message. O(1): the update addresses the
  /// factor by fingerprint and the variable by member position. This is
  /// the piggyback (full-fingerprint) path; bundled belief traffic goes
  /// through `AbsorbBeliefBundle`.
  void AbsorbBeliefUpdate(const BeliefUpdate& update);

  /// Absorbs one alias-grouped belief bundle from `from`, maintaining the
  /// receive side of the (from -> this) alias session: binding
  /// declarations are recorded, bare aliases resolved, and the bundle's
  /// `ack` advances the transmit session toward `from`. Returns the first
  /// protocol error — stale epoch, unknown or out-of-range alias, alias
  /// rebind — while still absorbing the remaining well-formed groups
  /// (the engine logs and drops; unlike `IngestFeedback`, belief traffic
  /// is idempotent state, so partial absorption cannot corrupt anything).
  /// Updates for factors this peer has no replica of (announcement
  /// lost or not yet delivered) are silently ignored, exactly like the
  /// full-fingerprint path.
  Status AbsorbBeliefBundle(PeerId from, const BeliefMessage& message);

  /// Executes one local inference round: recomputes factor->var messages
  /// from stored var->factor state, then var->factor messages for owned
  /// variables. Returns the max normalized posterior change.
  double ComputeRound();

  /// Remote messages to the other owners of this peer's factor replicas,
  /// bundled per recipient in ascending-PeerId order (the Section 4.3.1
  /// periodic payload). Bundles are emitted straight from the precomputed
  /// routing tables into `*out`, which is cleared first and may be reused
  /// across rounds as an arena — per-bundle sizes are known up front, so
  /// the only allocations are the exact-size group/entry vectors handed to
  /// the transport. Factor identity is carried as the session alias; the
  /// full fingerprint rides along only while the recipient's ack does not
  /// yet cover the alias (first mention, or refallback after loss).
  void CollectOutgoingBeliefs(std::vector<Outgoing>* out) const;
  std::vector<Outgoing> CollectOutgoingBeliefs() const;

  /// Belief updates pertaining to mapping `edge` (for lazy piggybacking,
  /// Section 4.3.2).
  std::vector<BeliefUpdate> PiggybackUpdatesFor(EdgeId edge) const;

  /// Number of factor replicas currently stored.
  size_t replica_count() const { return state_.replicas.size(); }

  // --- Byzantine guard introspection -------------------------------------------

  /// One neighbor link's misbehavior state under the admission guard
  /// (`EngineOptions::byzantine_guard`); all zeros when the guard is off.
  struct GuardLinkView {
    PeerId peer = 0;
    GuardLinkState state;
  };
  /// Per-neighbor guard state, in link-intern order.
  std::vector<GuardLinkView> GuardViews() const;

  /// Totals across links (node/engine stats).
  uint64_t guard_rejected_entries() const;
  /// Links at demote level >= 1.
  uint64_t guard_demoted_links() const;

  /// Read-only summary of one stored factor replica (engine introspection:
  /// global-factor-graph reconstruction, baselines, debugging).
  struct ReplicaView {
    FactorId id;
    AttributeId root_attribute = 0;
    FeedbackSign sign = FeedbackSign::kNeutral;
    std::vector<MappingVarKey> members;
    double delta = 0.1;
    Closure::Kind kind = Closure::Kind::kCycle;
  };
  std::vector<ReplicaView> ReplicaViews() const;

  /// Per-period remote-message bound: Σ over replicas of
  /// own_members · (l − 1). On directed simple cycles a peer owns exactly
  /// one member, so this reduces to the paper's Σ_ci (l_ci − 1) bound
  /// (Section 4.3.1); parallel-path sources own both path heads and get
  /// the correspondingly larger bound.
  size_t RemoteMessageBound() const;

  // --- Probes & discovery -----------------------------------------------------

  /// Emits this peer's initial probes: one per outgoing mapping whose
  /// probe can take part in an announced closure (see `HandleProbe`).
  std::vector<Outgoing> StartProbes() const;

  /// Handles an arriving probe: may complete a cycle, detect parallel
  /// paths (announcing feedback to member owners), and forward the probe.
  /// A copy goes on along a simple route only when it can still take part
  /// in a closure this protocol announces: it is short enough to pair
  /// (`max_path_length`), it closes a cycle of allowed length at an origin
  /// that is the cycle's smallest peer, or it can still do so later.
  /// Dropping the rest changes no closure, cache entry or message order.
  /// A malformed probe — empty route, a trail that is not one `width`-wide
  /// hop per route edge, or a route that is not a walk over this graph
  /// from its origin to this peer — is rejected before anything reads it:
  /// no messages, and the reason in `*status` when given.
  std::vector<Outgoing> HandleProbe(const ProbeMessage& probe,
                                    Status* status = nullptr);

  // --- Queries ----------------------------------------------------------------

  /// Processes an arriving (or locally issued) query: executes it against
  /// the local store and prepares θ-gated forwards. `piggyback_beliefs`
  /// appends this peer's belief messages to forwarded queries (lazy
  /// schedule).
  QueryActions ProcessQuery(const QueryMessage& message,
                            bool piggyback_beliefs);

  /// Whether this peer already processed the given query id.
  bool SawQuery(uint64_t query_id) const {
    return seen_queries_.count(query_id) > 0;
  }

  /// Drops `query_id` from the dedup set. Only safe once the query's
  /// traffic has quiesced (no copy of it can still arrive); the engine
  /// calls it for every peer a finished batch reached, which keeps the set
  /// bounded by the queries in flight.
  void ForgetQuery(uint64_t query_id) { seen_queries_.erase(query_id); }

  // --- Durable state ------------------------------------------------------------

  /// One replicated feedback factor (Section 4.1 local factor graph) —
  /// cold metadata only, touched at ingest, rebuild and introspection
  /// time. Everything a round needs lives in the SoA pools, addressed
  /// through the parallel `ReplicaHot` entry: members and their owners at
  /// [msg_base, msg_base + member_count) of the member pools (the same
  /// slots as the message pools), owned positions at [owned_base,
  /// owned_base + owned_count) of `owned_pos_pool`.
  struct Replica {
    FactorId id;
    Closure closure;
    AttributeId root_attribute = 0;
    FeedbackSign sign = FeedbackSign::kNeutral;
    double delta = 0.1;
    /// Distinct owners of foreign members, ascending (belief recipients).
    std::vector<PeerId> other_owners;
  };

  /// Flat per-replica hot state: every field `ComputeRound` /
  /// `AbsorbBeliefUpdate` needs, in one cache-friendly array — pool
  /// offsets plus the factor function's two parameters (the message math
  /// itself is the free kernel `CycleFeedbackMessage`).
  struct ReplicaHot {
    uint32_t msg_base = 0;
    uint32_t member_count = 0;
    uint32_t owned_base = 0;
    uint32_t owned_count = 0;
    double delta = 0.1;
    bool positive = false;
  };

  /// Precomputed outgoing-belief route: one wire group per replica whose
  /// updates this recipient receives, in emission order. The group's
  /// entries are always the replica's full owned-position set, so only the
  /// replica index and the negotiated session alias are stored.
  struct BeliefRoute {
    PeerId to = 0;
    /// Index of the recipient's link in `Image::links`.
    uint32_t link = 0;
    /// Total entries across `groups` (Σ owned_count), so collect reserves
    /// the bundle's flat entry array without a counting pre-pass.
    uint32_t entry_total = 0;
    /// (replica index, session alias), ascending by replica index — the
    /// canonical emission order the determinism guarantee rides on.
    std::vector<std::pair<uint32_t, uint32_t>> groups;
  };

  /// Everything this peer tracks about one mapping variable: explicit
  /// prior, EM evidence accumulator, previous-round posterior, and the
  /// (replica, member position) slots of every factor that scopes it.
  /// The flags sit together so the struct packs into 72 bytes.
  struct VarState {
    MappingVarKey key;
    double prior = 0.5;
    uint64_t evidence_count = 0;
    double evidence_sum = 0.0;
    double last_posterior = 0.0;
    bool has_explicit_prior = false;
    bool has_evidence_acc = false;
    bool has_last_posterior = false;
    std::vector<std::pair<uint32_t, uint32_t>> slots;
  };

  /// Sentinel in `replica_of_alias`: binding known but factor not (yet)
  /// ingested here, or alias not yet resolved.
  static constexpr uint32_t kNoReplica = static_cast<uint32_t>(-1);

  /// One neighbor link: both directions of its alias session, the
  /// transmit precision tier and the guard record.
  struct Link {
    PeerId peer = 0;
    /// What we send them: the factor behind each alias our route emits.
    AliasSessionTx tx;
    /// What we learned from them; `rx.known_prefix` is the ack we
    /// piggyback back.
    AliasSessionRx rx;
    /// Receive-side alias -> replica-index cache, so steady-state
    /// absorption is a single 4-byte load per group instead of a
    /// fingerprint hash lookup per update.
    std::vector<uint32_t> replica_of_alias;
    /// Transmit-side precision tier under a value error budget: 0 coarse,
    /// 1 mid, 2 fine. Stepped up — never down — at the end of
    /// `ComputeRound` from the peer's residual, so a link's precision
    /// trajectory is monotone and a restored peer continues it
    /// identically. Unused when quantization is off.
    uint8_t value_rank = 0;
    /// Byzantine-guard record (EngineOptions::byzantine_guard); untouched
    /// — and all zero — while the guard is disabled.
    GuardLinkState guard;
  };

  /// The peer's complete mutable state in canonical form: dense arrays
  /// only, no hash tables, no pointers. The peer holds its state as one
  /// `Image`, so a capture is a copy of it and a restore moves one in and
  /// rebuilds the derived indexes (`replica_index_`, `var_index_`,
  /// `edge_vars_`, the link-by-peer index, the round kernel) — two peers
  /// holding equal images are behaviorally identical, bit for bit. The
  /// document store is intentionally excluded: it is configured at
  /// deployment time and never mutated by the protocol. So are the seen
  /// query ids: the engine forgets a batch's ids once the batch quiesces,
  /// and images are only taken between batches.
  struct Image {
    /// Outgoing mappings, flat and sorted by EdgeId (few per peer; binary
    /// search beats a node-based map and iteration stays in EdgeId order,
    /// which probe/query forwarding depends on for determinism).
    std::vector<std::pair<EdgeId, SchemaMapping>> mappings;
    /// Dense replica store, in announcement arrival order (deterministic
    /// under the engine's serial message dispatch), with its flat hot
    /// state in parallel.
    std::vector<Replica> replicas;
    std::vector<ReplicaHot> replica_hot;
    /// SoA message pools, indexed by replica msg_base + member position:
    /// last µ_{member -> factor} per member (unit until heard otherwise),
    /// and µ_{factor -> member}, maintained for *owned* members.
    std::vector<Belief> var_to_factor_pool;
    std::vector<Belief> factor_to_var_pool;
    /// Member scope + member owners, sharing the message pools' slots.
    std::vector<MappingVarKey> member_pool;
    std::vector<PeerId> member_owner_pool;
    /// Owned member positions (ascending per replica), at owned_base.
    std::vector<uint32_t> owned_pos_pool;
    /// Per-recipient outgoing-belief routes, ascending by recipient; built
    /// incrementally at ingest, rebuilt on mapping removal.
    std::vector<BeliefRoute> belief_routes;
    /// One per neighbor, in creation order (it follows replica ingest
    /// order), so `BeliefRoute::link` indexes into it. Cleared and
    /// renegotiated under a bumped epoch on `RemoveMapping` (the engine
    /// removes mappings network-wide, so both endpoints of every session
    /// bump in lockstep).
    std::vector<Link> links;
    uint32_t alias_epoch = 0;
    /// Per-slot guard history, sharing the message pools' slots; sized
    /// only while the guard is enabled (empty otherwise, so the guard-off
    /// footprint is unchanged).
    std::vector<GuardSlot> guard_slot_pool;
    /// Completed `ComputeRound` calls — the guard's same-round clock and
    /// the Byzantine chaos layer's draw key. Always maintained (no
    /// behavioral effect while guard and chaos are off).
    uint64_t round = 0;
    /// Dense per-variable state, in intern order.
    std::vector<VarState> vars;
    /// Closures this peer has already announced (dedup), sorted.
    std::vector<FactorId> announced;
    /// Cached foreign probes for parallel detection, sorted by origin;
    /// each origin's probes in arrival order.
    std::vector<std::pair<PeerId, std::vector<ProbeMessage>>> probe_cache;
  };

  /// A copy of the peer's state. O(state); no effect on the peer.
  Image CaptureImage() const { return state_; }

  /// Replaces the peer's state with `image` and rebuilds every derived
  /// index. Restoring a capture of the same peer is exact: rounds,
  /// bundles, probes and queries behave bitwise-identically to the peer
  /// that was captured.
  void RestoreImage(Image image);

 private:
  /// Index of `var` in `state_.vars`, creating the entry on first sight.
  uint32_t InternVar(const MappingVarKey& var);
  const VarState* FindVar(const MappingVarKey& var) const;

  /// Ok when no replica is stored under `id`, or the stored replica has
  /// exactly the announced factor content (closure structure, root
  /// attribute, member sequence); `FailedPrecondition` on a fingerprint
  /// collision. Pure check — never mutates.
  Status ValidateFactorContent(const FactorId& id, const Closure& closure,
                               const AttributeFeedback& feedback) const;

  /// Records replica `r`'s owned slots on their variables and registers
  /// it with the per-recipient belief routing tables, assigning a session
  /// alias per (recipient, factor) on the way.
  void RegisterReplica(uint32_t r);

  /// The replica's member scope, as a view into the member pool.
  std::span<const MappingVarKey> Members(uint32_t r) const {
    const ReplicaHot& hot = state_.replica_hot[r];
    return {state_.member_pool.data() + hot.msg_base, hot.member_count};
  }

  /// Writes `belief` into the var->factor slot (replica `r`, `position`)
  /// unless the update is malformed or claims a variable this peer owns.
  void AbsorbResolved(uint32_t r, uint32_t position, const Belief& belief);

  /// Admission of one bundle entry from `from` through the guard stage
  /// (`GuardAdmit`), writing the admitted value into the pool. Guard
  /// enabled only; the first violation lands in `*status`.
  void AbsorbGuarded(PeerId from, GuardLinkState& guard, uint32_t r,
                     const BeliefEntry& entry, uint32_t value_bits,
                     Status* status);

  /// End-of-round guard step over every link (`GuardCloseRound`), purging
  /// the deposits of links quarantined this round. Guard enabled only.
  void GuardEndOfRound();

  /// ∆ used by this peer when announcing feedback.
  double EffectiveDelta() const;

  /// Ok when `probe` is well-formed for this peer (see `HandleProbe`);
  /// `*nodes` then holds the route's node sequence (see `RouteNodes`).
  Status CheckProbe(const ProbeMessage& probe,
                    std::vector<NodeId>* nodes) const;

  /// Per-attribute feedback for a closed cycle probe.
  std::vector<AttributeFeedback> CycleFeedback(const ProbeMessage& probe) const;

  /// Per-attribute feedback for two independent parallel-path probes.
  std::vector<AttributeFeedback> ParallelFeedback(
      const ProbeMessage& first, const ProbeMessage& second) const;

  /// Coarse-granularity aggregation of per-attribute feedback.
  static std::vector<AttributeFeedback> CoarsenFeedback(
      std::vector<AttributeFeedback> fine);

  /// Sends `announcement` to every distinct owner of a member mapping.
  void AnnounceToOwners(const FeedbackAnnouncement& announcement,
                        std::vector<Outgoing>* out) const;

  /// Node sequence of a probe route (origin, then successive edge dsts).
  std::vector<NodeId> RouteNodes(const std::vector<EdgeId>& route) const;

  /// True if the two routes share no edge and no interior node.
  bool RoutesIndependent(const std::vector<EdgeId>& a,
                         const std::vector<EdgeId>& b) const;

  /// The θ-gate for a query attribute over this peer's `mapping` for
  /// `edge` (see EngineOptions::forward_without_evidence).
  bool GateAllows(EdgeId edge, const SchemaMapping& mapping,
                  AttributeId attribute) const;

  /// Normalized posterior of a variable from its state (null: no state,
  /// so the default prior alone), without the ⊥ rule — the product
  /// `PosteriorBelief` and `GateAllows` share, multiplied in slot order.
  Belief PosteriorOf(const VarState* state) const;

  PeerId id_;
  Schema schema_;
  const Digraph* graph_;
  const EngineOptions* options_;
  DocumentStore store_;

  /// Every durable field (see `Image`).
  Image state_;

  // Indexes derived from `state_`, rebuilt by `RebuildIndexes`.

  /// Replica index by factor fingerprint (identity-hashed).
  std::unordered_map<FactorId, uint32_t, FactorIdHash> replica_index_;
  /// Variable index by packed (edge, attribute).
  std::unordered_map<uint64_t, uint32_t> var_index_;
  /// Indexes of `state_.vars` entries per mapping edge, ascending
  /// (lazy-schedule piggybacking looks variables up by edge, not by full
  /// key).
  std::unordered_map<EdgeId, std::vector<uint32_t>> edge_vars_;
  /// (peer, index into `state_.links`), ascending by peer — a peer has few
  /// belief neighbors, so binary search touches one cache line where a
  /// hash map chases nodes.
  std::vector<std::pair<PeerId, uint32_t>> link_index_;

  /// Rebuilds the replica, variable and link indexes from `state_` and
  /// marks the round kernel stale.
  void RebuildIndexes();

  /// Index of the link for `peer`, creating it on first sight.
  uint32_t InternLink(PeerId peer);

  /// Round kernel: the variable -> factor half of `ComputeRound` reads
  /// only these flat arrays, with no `var_index_` hash, `mapping()` search
  /// or `replica_hot` chase per variable. One entry per variable with at
  /// least one slot, in `state_.vars` order (the residual's reduction
  /// order).
  /// Derived state, never captured: every mutation of slots, mappings or
  /// priors (`IngestFactor`, `AddMapping`/`RemoveMapping`, `SetPrior`,
  /// `UpdatePriorsFromPosteriors`, `RestoreImage`) marks it stale, and the
  /// next round rebuilds it.
  struct KernelVar {
    /// Resolved prior P(correct): explicit, else the default prior.
    double prior = 0.5;
    /// Index into `state_.vars`.
    uint32_t var = 0;
    /// Number of slots; each entry's flat message-pool indexes follow the
    /// previous entry's in `kernel_slots_`.
    uint32_t slot_count : 31 = 0;
    /// ⊥ rule: the mapping has no image for the attribute, so the
    /// posterior is pinned to 0 (see `PosteriorBelief`).
    uint32_t bottom : 1 = 0;
  };
  std::vector<KernelVar> kernel_vars_;
  std::vector<uint32_t> kernel_slots_;
  bool kernel_stale_ = true;

  /// Rebuilds `kernel_vars_` / `kernel_slots_` from the peer's state.
  void RebuildKernel();

  /// Round scratch (prefix/suffix message products), reused across rounds.
  std::vector<Belief> prefix_scratch_;
  std::vector<Belief> suffix_scratch_;
  /// Probe scratch: the route's node sequence (origin, then every hop's
  /// destination), reused across probes.
  std::vector<NodeId> route_scratch_;

  std::unordered_set<uint64_t> seen_queries_;
};

}  // namespace pdms

#endif  // PDMS_CORE_PEER_H_
