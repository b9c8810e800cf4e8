#ifndef PDMS_NET_FAULT_INJECTION_H_
#define PDMS_NET_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "net/message.h"
#include "pdms/transport.h"

namespace pdms {

// --- Fault plans ----------------------------------------------------------------
//
// One declarative description of how a network should misbehave, shared by
// the two injection points:
//  * `FaultInjectingTransport` (below) — an envelope-level decorator over
//    any `Transport`, for robustness benches and engine tests; injected
//    faults are *visible* to the engine (a dropped envelope is gone), so
//    runs measure convergence quality, not bitwise equality.
//  * `SocketTransportOptions::link_fault_plan` — frame-level injection on
//    the real TCP links, *below* the retransmission layer; every fault is
//    masked by recovery, so posteriors stay bitwise-identical to the
//    fault-free run (the PR's standing invariant under fire).
//
// All draws are pure functions of (seed, stream, seq, attempt): re-running
// the same plan over the same traffic produces the same faults, and a
// retransmitted frame (attempt+1) gets a fresh draw, so drop_rate < 1
// always lets a frame through eventually.

struct FaultPlan {
  uint64_t seed = 0;

  /// Per-event probabilities in [0, 1].
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  double corrupt_rate = 0.0;  ///< flip one bit (socket: always detected by CRC)

  /// Socket links only: probability of severing the TCP connection after
  /// a write (the reliability layer reconnects and resumes).
  double link_kill_rate = 0.0;

  /// Envelope decorator only: delayed envelopes are held up to this many
  /// extra ticks (0 disables delays).
  uint64_t delay_ticks_max = 0;

  bool Enabled() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           corrupt_rate > 0 || link_kill_rate > 0 || delay_ticks_max > 0;
  }
};

/// The deterministic verdict for one transmission event. Fields are drawn
/// independently; consumers decide precedence (e.g. a dropped frame is
/// never also duplicated).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  bool corrupt = false;
  bool kill_link = false;
  uint64_t delay_ticks = 0;      ///< 0 = none, else in [1, delay_ticks_max]
  uint64_t corrupt_entropy = 0;  ///< bit-position source for the corruptor
};

/// Draws the faults for event `seq` of `stream` on transmission `attempt`.
/// `stream` namespaces independent fault sequences (e.g. one per link);
/// `attempt` distinguishes retransmissions of the same frame.
FaultDecision DrawFaults(const FaultPlan& plan, uint64_t stream, uint64_t seq,
                         uint32_t attempt);

// --- Behavioral (Byzantine) faults ----------------------------------------------
//
// `FaultPlan` perturbs the *channel*; `ByzantinePlan` perturbs the *peers*:
// a seeded set of adversaries forge the belief values inside their own
// outgoing bundles — lies redrawn every round, optional value inversion,
// within-bundle equivocation, and colluding groups that cross-confirm the
// same forged values. Like link faults, every decision is a pure function
// of (seed, round, sender, alias, position), so chaos runs replay exactly
// and stay bitwise parallel-deterministic: forging happens at send time on
// the engine's canonical serial send path, never on a worker thread.

struct ByzantinePlan {
  uint64_t seed = 0;

  /// Per-entry probability that an adversary replaces the true µ value
  /// with a forged log-odds, redrawn every round (so lies oscillate — the
  /// behavior the admission guard's flip detector keys on).
  double lie_probability = 0.0;

  /// Forged values are the *negated* true log-odds instead of random
  /// draws: the adversary pushes each belief toward the opposite verdict.
  bool invert_values = false;

  /// Per-entry probability that an adversary additionally emits a second,
  /// conflicting entry for the same position in the same bundle
  /// (within-round equivocation, directly observable by the receiver).
  double equivocate_rate = 0.0;

  /// The misbehaving peers, ascending. Everyone else sends honestly.
  std::vector<PeerId> adversaries;

  /// Colluding group: forged-value draws omit the sender from the key, so
  /// every adversary forges the *same* value for the same (round, alias,
  /// position) — mutually corroborating lies.
  bool collude = false;

  bool Enabled() const {
    return !adversaries.empty() &&
           (lie_probability > 0 || equivocate_rate > 0);
  }

  /// Binary search over the sorted adversary list.
  bool IsAdversary(PeerId peer) const;
};

/// Rewrites one outgoing belief bundle of an adversary per `plan`: lied
/// entries get forged values (negated true log-odds under
/// `invert_values`, a seeded uniform log-odds otherwise), equivocated
/// entries are duplicated with a second conflicting value for the same
/// position. A no-op for honest senders and disabled plans.
///
/// `group_ids[i]` must be the full factor id of `bundle->groups[i]`:
/// draw keys use *global* factor identity (not the link-local alias), so
/// colluding senders forge identical values for the same factor position
/// — which is why this runs at bundle construction inside the peer,
/// where replica identity is at hand. When the bundle declares a
/// quantization tier the forged entries are re-quantized consistently
/// (an adversary controls its own sender; its wire format stays
/// self-consistent, so forged values must be caught semantically, not
/// syntactically). The adversary's own replica state stays honest; only
/// the wire is poisoned. Returns the number of forged entries.
uint64_t ApplyByzantineFaults(const ByzantinePlan& plan, PeerId sender,
                              PeerId recipient, uint64_t round,
                              std::span<const FactorId> group_ids,
                              BeliefMessage* bundle);

/// Ledger of injected faults by type. The envelope decorator's drops also
/// reach its `TransportStats` (`sent` and `dropped`); duplicates, reorders
/// and delays appear only here.
struct FaultStats {
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
  uint64_t corrupt_rejected = 0;  ///< corruption the codec refused → dropped
  uint64_t delayed = 0;
  uint64_t links_killed = 0;
};

// --- Envelope-level decorator ---------------------------------------------------

/// Wraps any `Transport` and perturbs the envelope stream per a
/// `FaultPlan`: drops, duplicates, adjacent-swap reorders, delays (held
/// envelopes re-enter just before the next tick) and bit-corruptions
/// (payload is encoded, one bit flipped, then strictly re-decoded — a flip
/// the codec rejects becomes a drop, mirroring how the framed wire treats
/// corruption).
///
/// Determinism: decisions are keyed on a per-instance event counter, so a
/// serially-driven run (parallelism 1) replays exactly for a given seed.
/// Under parallel sends the arrival order of events at the decorator is
/// scheduler-dependent, so use serial rounds when comparing runs.
///
/// `stats()` is the inner transport's ledger plus the envelopes this layer
/// dropped itself (plain drops and corruptions the codec rejected), which
/// count as sent and dropped — so `TransportStats::dropped` reports every
/// loss whichever layer caused it. `fault_stats()` breaks the injected
/// faults down by type.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultPlan plan);
  ~FaultInjectingTransport() override;

  std::string_view name() const override { return "fault"; }
  size_t peer_count() const override { return inner_->peer_count(); }
  uint64_t now() const override { return inner_->now(); }
  void AdvanceTick() override;
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;
  // Held (delayed or reordered) envelopes are not drainable yet, so the
  // inner transport alone decides what a drain returns and which peers
  // hold mail; they re-enter it through `Send`/`AdvanceTick`.
  std::vector<Envelope> Drain(PeerId peer) override {
    return inner_->Drain(peer);
  }
  void DrainInto(PeerId peer, std::vector<Envelope>* out) override {
    inner_->DrainInto(peer, out);
  }
  PeerId NextPeerWithMail(PeerId from) const override {
    return inner_->NextPeerWithMail(from);
  }
  bool HasPendingMessages() const override;
  const TransportStats& stats() const override;
  void ResetStats() override;

  Transport& inner() { return *inner_; }
  const FaultPlan& plan() const { return plan_; }
  FaultStats fault_stats() const;

  /// Swaps the active plan mid-run. Lets a bench run discovery fault-free
  /// and then arm faults for the belief rounds alone, mirroring the
  /// paper's Figure 11 setup (only belief messages are lossy).
  void set_plan(const FaultPlan& plan);

 private:
  struct Held {
    PeerId from = 0;
    PeerId to = 0;
    std::optional<EdgeId> via;
    Payload payload;
    uint64_t release_in = 0;  ///< ticks until forwarding
  };

  /// Must hold `mutex_`, like every forward to `inner_`: sends leave this
  /// layer in the order its fault draws were made.
  void FlushReorderSlotLocked();
  void DropLocked(MessageKind kind);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;

  mutable std::mutex mutex_;
  uint64_t event_seq_ = 0;
  std::optional<Held> reorder_slot_;
  std::vector<Held> delayed_;
  FaultStats fault_stats_;
  /// Envelopes this layer dropped, per kind (the `stats()` share).
  std::array<uint64_t, kMessageKindCount> dropped_{};
  mutable TransportStats stats_snapshot_;
};

}  // namespace pdms

#endif  // PDMS_NET_FAULT_INJECTION_H_
