#ifndef PDMS_NET_MESSAGE_H_
#define PDMS_NET_MESSAGE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "factor/belief.h"
#include "graph/closure.h"
#include "graph/digraph.h"
#include "mapping/mapping.h"
#include "query/query.h"
#include "schema/schema.h"
#include "util/status.h"

namespace pdms {

/// Peers are the nodes of the mapping network.
using PeerId = NodeId;

/// Globally addressable fine-granularity mapping variable: the correctness
/// of mapping `edge` for source-schema attribute `attribute` (Section 4.1,
/// fine granularity). Coarse granularity uses attribute == kWholeMapping.
struct MappingVarKey {
  EdgeId edge = 0;
  AttributeId attribute = 0;

  /// Sentinel attribute for coarse (per-mapping) granularity.
  static constexpr AttributeId kWholeMapping = static_cast<AttributeId>(-1);

  /// Bijective 64-bit packing (edge in the high word), used as the hash key
  /// of the peers' flat variable tables.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(edge) << 32) | static_cast<uint64_t>(attribute);
  }

  auto operator<=>(const MappingVarKey&) const = default;
  std::string ToString() const;
};

/// Canonical identity of a feedback factor: a 128-bit content fingerprint
/// of the closure structure plus the root attribute whose transformation
/// chain it scores. All peers derive the same id for the same closure
/// (edge order is canonicalized before hashing), so remote messages can be
/// routed to the right factor replica without central coordination — and
/// without ever putting a string key on the wire or in a hot hash table.
///
/// 128 bits make accidental collisions astronomically unlikely (~2^-64 at
/// a billion factors), but they are still *checked*: ingest compares the
/// announced closure content against any replica already stored under the
/// same id and surfaces a Status on mismatch (see `Peer::IngestFactor`).
struct FactorId {
  uint64_t hi = 0;
  uint64_t lo = 0;

  static FactorId Make(const Closure& closure, AttributeId root_attribute);

  bool IsNil() const { return hi == 0 && lo == 0; }

  auto operator<=>(const FactorId&) const = default;
  /// Fixed-width hex rendering ("hhhhhhhhhhhhhhhh:llllllllllllllll").
  std::string ToString() const;
};

/// Trivial identity hasher for `FactorId` keys: the fingerprint is already
/// uniformly distributed, so hashing it again would only burn cycles.
struct FactorIdHash {
  size_t operator()(const FactorId& id) const noexcept {
    return static_cast<size_t>(id.lo);
  }
};

/// One remote sum-product message µ_{var -> factor} (Section 4.3,
/// "remote message for factor fak from peer p0 to peer pj"). The variable
/// is addressed by its *member position* in the factor's scope: every
/// replica of a factor stores the member order of the announcement that
/// created it (one broadcast per canonicalized closure, so all owners see
/// the same sequence, and ingest rejects a same-id announcement whose
/// member sequence differs — see `Peer::IngestFactor`). A position thus
/// resolves in O(1) at the receiver — no key comparison, no per-update
/// member scan — and costs two bytes on the wire instead of an
/// (edge, attribute) pair.
///
/// Carried individually only where updates cross multiple links (lazy
/// piggybacking on query traffic), where a link-local alias cannot
/// survive relay; direct belief bundles group updates per factor and
/// compress the identity via session aliases instead (`BeliefGroup`).
struct BeliefUpdate {
  FactorId factor;
  uint32_t position = 0;
  Belief belief;
};

// --- Link-local factor-id aliasing --------------------------------------------
//
// A 128-bit fingerprint identifies a factor globally, but between two fixed
// peers the set of factors they exchange beliefs about is tiny — so each
// directed (sender -> recipient) belief session negotiates small-int
// *aliases* for the fingerprints, the way DHT-style P2P databases avoid
// shipping full keys per hop. The protocol is loss-tolerant and needs no
// side channel:
//
//  * The sender assigns aliases densely (0, 1, 2, …) when it first routes a
//    factor toward that recipient, and declares the binding on the wire by
//    sending the full fingerprint *alongside* the alias (`BeliefGroup::id`).
//  * The recipient records bindings and acknowledges the longest contiguous
//    bound prefix on its own reverse bundles (`BeliefMessage::ack`; belief
//    routing is symmetric, so a reverse bundle always exists under the
//    periodic schedule).
//  * Until an alias is covered by the acked prefix, the sender keeps
//    re-declaring the binding — a dropped first mention therefore degrades
//    to full-fingerprint traffic, never to misrouting. Once acked, the
//    group carries the bare alias (1–2 varint bytes instead of 16).
//  * A bare alias the recipient has no binding for, an alias beyond the
//    session bound, or a bundle from a stale epoch is rejected with a
//    `Status` (surfaced like PR 3's fingerprint-collision policy), never
//    guessed at.
//
// Tables are rebuilt deterministically from replica order after
// `Peer::RemoveMapping`, which bumps the session epoch on both sides (the
// engine removes a mapping network-wide), invalidating in-flight bundles
// that still reference the old numbering.

/// Hard bound on aliases per directed session: rejects absurd aliases from
/// forged traffic before they can grow the binding table.
inline constexpr uint32_t kMaxAliasesPerSession = 1u << 20;

/// Sender side of one directed belief session (this peer -> recipient),
/// mirroring `AliasSessionRx`: alias -> fingerprint, assigned densely in
/// first-mention order, so the next free alias is `id_of.size()`.
struct AliasSessionTx {
  std::vector<FactorId> id_of;
  /// Aliases below this are acknowledged by the recipient and are emitted
  /// bare; everything at or above keeps the full-fingerprint fallback.
  uint32_t acked_prefix = 0;
};

/// Receiver side of one directed belief session (sender -> this peer).
struct AliasSessionRx {
  /// alias -> fingerprint; nil entries are holes (binding not yet seen).
  std::vector<FactorId> id_of;
  /// Longest contiguous bound prefix — the value acked back to the sender.
  uint32_t known_prefix = 0;

  /// Records a binding declared on the wire. Fails with `OutOfRange` for
  /// aliases beyond `kMaxAliasesPerSession` and `FailedPrecondition` when
  /// the alias is already bound to a *different* fingerprint (re-declaring
  /// the same binding is an idempotent no-op).
  Status Bind(uint32_t alias, const FactorId& id);

  /// Resolves a bare alias; `NotFound` when no binding is recorded.
  Result<FactorId> Resolve(uint32_t alias) const;
};

/// A TTL-bounded probe sent out to discover cycles and parallel paths
/// (Section 3.2.1: "proactively flooding their neighborhood with probe
/// messages with a certain Time-To-Live"). Peers forward a copy only
/// where it can still take part in a closure they announce (see
/// `Peer::HandleProbe`).
///
/// The probe carries the transitive closure of the mapping operations it
/// traversed: for every attribute of the origin's schema, its current
/// image (or ⊥), plus the full per-hop trail so feedback factors can name
/// the (edge, attribute) variable at each hop. The trail is one flat
/// hop-major array of `width` images per hop — one allocation per probe,
/// however many hops it has travelled. A well-formed probe has a
/// non-empty route, `width >= 1` and exactly one hop per route edge
/// (`trail.size() == route.size() * width`); the codec rejects wire
/// probes whose hop count or hop widths disagree, and `Peer::HandleProbe`
/// rejects the rest. On the wire a trail is a hop count, then each hop
/// as its width and images.
struct ProbeMessage {
  PeerId origin = 0;
  uint32_t ttl = 0;
  /// Mapping edges traversed, in order.
  std::vector<EdgeId> route;
  /// Images per hop: the size of the origin's schema.
  uint32_t width = 0;
  /// trail[h * width + a] = image of origin attribute `a` after h+1 hops.
  std::vector<std::optional<AttributeId>> trail;

  /// Hops recorded in the trail.
  size_t hops() const { return width == 0 ? 0 : trail.size() / width; }
  /// The `width` images after hop `h` (0-based; h < hops()).
  std::span<const std::optional<AttributeId>> Hop(size_t h) const {
    return {trail.data() + h * width, width};
  }
  std::span<std::optional<AttributeId>> Hop(size_t h) {
    return {trail.data() + h * width, width};
  }
};

/// Feedback for one (closure, root attribute): the observed sign and the
/// chain of mapping variables the corresponding factor connects.
/// Neutral feedback is never announced (it generates no factor).
struct AttributeFeedback {
  AttributeId root_attribute = 0;
  FeedbackSign sign = FeedbackSign::kNeutral;
  /// (edge, source-attribute) for every mapping in the closure, in closure
  /// order; the factor's variable scope.
  std::vector<MappingVarKey> members;
};

/// Announcement of a discovered closure with its per-attribute feedback,
/// sent by the discovering peer to every peer owning a member mapping
/// (the `feedbackMessage` of the Section 4.1 pseudocode).
struct FeedbackAnnouncement {
  Closure closure;
  std::vector<AttributeFeedback> feedback;
  /// ∆ estimated by the discovering peer (Section 4.5: ≈ 1/(s−1) for a
  /// schema of s attributes, unless overridden by configuration).
  double delta = 0.1;
};

// --- Quantized belief values (wire format v4) ---------------------------------
//
// A 2-state measure only acts on posteriors through its log-odds
// ln(correct/incorrect): the shared scale cancels under `Rescaled()` /
// `Normalized()`. So when a session opts into a value error budget, each
// entry ships a single fixed-point log-odds quantum q = round(l * 2^bits)
// as a zigzag varint instead of two raw doubles, with the per-bundle
// `value_bits` declaring the precision (0 keeps the legacy raw-double
// encoding — the default, and the fallback when quantization is off).
// Senders quantize at bundle construction and store the *dequantized*
// value back into the entry, so in-memory transports (SimTransport moves
// Payload structs without the codec) and the socket path deliver bitwise
// the same beliefs.

/// Upper bound on fractional log-odds bits a bundle may declare; beyond
/// this a double's mantissa is exhausted and the varint stops paying.
inline constexpr uint32_t kMaxValuePrecisionBits = 44;

/// Quanta are bounded by |log-odds| <= 2^kQuantLogOddsRangeLog2 (doubles
/// saturate near ±745 anyway); a wire quantum outside the declared
/// precision's bound is rejected as forged.
inline constexpr uint32_t kQuantLogOddsRangeLog2 = 10;

/// In-memory sentinels for exactly-one-sided measures ({x,0} / {0,x});
/// on the wire they map to the two reserved value tokens.
inline constexpr int64_t kQuantPosInf = INT64_MAX;
inline constexpr int64_t kQuantNegInf = INT64_MIN;

/// Largest finite |quantum| representable at `bits` fractional bits.
constexpr int64_t QuantBound(uint32_t bits) {
  return int64_t{1} << (kQuantLogOddsRangeLog2 + bits);
}

/// Fractional bits for a target per-value error budget `eps`: the
/// log-odds step 2^-bits is kept at most eps/8, leaving headroom for
/// accumulation across loopy iterations. Returns 0 (raw doubles) for a
/// non-positive budget.
uint32_t ValueBitsForBudget(double eps);

/// Fixed-point log-odds quantum of `belief` at `bits` fractional bits
/// (clamped to ±QuantBound; one-sided measures map to the ±inf
/// sentinels, all-zero measures to 0 — the uniform message).
int64_t QuantizeLogOdds(const Belief& belief, uint32_t bits);

/// The normalized 2-state measure whose log-odds is exactly
/// quant / 2^bits (sentinels yield {1,0} / {0,1}).
Belief DequantizeLogOdds(int64_t quant, uint32_t bits);

/// One position/value entry inside a `BeliefGroup`: the member position
/// (delta-encoded varint on the wire; entries are emitted in ascending
/// position order) and the µ value itself. Under a quantized bundle
/// (`BeliefMessage::value_bits` != 0) `quant` is the wire value and
/// `belief` its dequantized realization; under the raw format `belief`
/// is authoritative and `quant` is unused.
struct BeliefEntry {
  uint32_t position = 0;
  Belief belief;
  int64_t quant = 0;
};

/// All updates of one factor inside a bundle: one alias header + N
/// position/value entries, instead of repeating 16 fingerprint bytes per
/// update. The entries live in the bundle's shared flat array at
/// [entry_begin, entry_begin + entry_count) — one allocation per bundle,
/// not one per factor — and `id` is non-nil while the binding is
/// unacknowledged (first mention, or refallback after loss), nil once the
/// recipient's ack covers the alias and the group travels alias-only.
struct BeliefGroup {
  uint32_t alias = 0;
  uint32_t entry_begin = 0;
  uint32_t entry_count = 0;
  FactorId id;  ///< nil = bare alias (binding already acknowledged)
};

/// A bundle of remote belief messages (periodic schedule, Section 4.3.1),
/// grouped per factor and addressed through the link-local alias session
/// (see "Link-local factor-id aliasing" above). `epoch` stamps the alias
/// numbering generation; `ack` acknowledges the reverse session's bound
/// prefix (piggybacked negotiation — no dedicated ack traffic).
struct BeliefMessage {
  uint32_t epoch = 0;
  uint32_t ack = 0;
  /// Fractional log-odds bits of this bundle's values: 0 = legacy raw
  /// doubles, else a quantized bundle at 2^-value_bits log-odds steps.
  /// Self-describing per bundle, so a link may step precision up
  /// mid-session without any receiver-side state.
  uint32_t value_bits = 0;
  std::vector<BeliefGroup> groups;
  /// All groups' entries, concatenated in group order.
  std::vector<BeliefEntry> entries;

  /// Switches the bundle to the quantized encoding at `bits` fractional
  /// bits: every entry gets its quantum and the dequantized value the
  /// receiver will observe (bits == 0 restores the raw encoding).
  void QuantizeValues(uint32_t bits);

  /// Appends one group with its entries (test/tooling convenience; the
  /// peers' hot path writes the flat arrays directly).
  void AddGroup(uint32_t alias, const FactorId& id,
                std::initializer_list<BeliefEntry> group_entries);

  /// The entries of `group`, as a view into the flat array. The range is
  /// clamped to the array bounds, so a malformed group (forged traffic, a
  /// buggy deserializer) yields a truncated or empty view instead of an
  /// out-of-bounds read; receivers additionally reject such groups with a
  /// Status (see `Peer::AbsorbBeliefBundle`).
  std::span<const BeliefEntry> EntriesOf(const BeliefGroup& group) const {
    const size_t begin = std::min<size_t>(group.entry_begin, entries.size());
    const size_t count =
        std::min<size_t>(group.entry_count, entries.size() - begin);
    return {entries.data() + begin, count};
  }

  /// Individual µ updates carried (the unit the paper's Σ(l−1) bound
  /// counts).
  size_t update_count() const { return entries.size(); }
};

/// A query being propagated through the network (Section 2). The query is
/// always expressed in the *recipient*'s schema: the sender translates it
/// through the mapping link before sending. Under the lazy schedule
/// (Section 4.3.2) remote belief messages piggyback on it.
struct QueryMessage {
  uint64_t query_id = 0;
  PeerId origin = 0;
  uint32_t ttl = 0;
  Query query;
  /// Peers that have already processed this query (loop suppression).
  std::vector<PeerId> visited;
  /// Piggybacked belief messages (lazy schedule; empty otherwise).
  std::vector<BeliefUpdate> piggyback;
};

using Payload =
    std::variant<ProbeMessage, FeedbackAnnouncement, BeliefMessage, QueryMessage>;

/// Payload type indices, used for network statistics.
enum class MessageKind : uint8_t {
  kProbe = 0,
  kFeedback = 1,
  kBelief = 2,
  kQuery = 3,
};
constexpr size_t kMessageKindCount = 4;

std::string_view MessageKindName(MessageKind kind);
MessageKind KindOf(const Payload& payload);

/// A payload in flight: the unit every transport queues, a data frame
/// carries on the wire (`DataFrame`) and a snapshot captures from an inbox.
struct Envelope {
  PeerId from = 0;
  PeerId to = 0;
  /// The mapping link it traveled through (edge id), when applicable.
  std::optional<EdgeId> via;
  uint64_t deliver_at = 0;  ///< network tick of delivery
  /// The sender's per-sender send number, stamped by `SocketTransport`
  /// (0 elsewhere). With (deliver_at, from) it gives a receiver the total
  /// order that reproduces the simulator's per-mailbox arrival order, which
  /// keeps posteriors bitwise-identical across transports.
  uint64_t seq = 0;
  Payload payload;
};

}  // namespace pdms

#endif  // PDMS_NET_MESSAGE_H_
