#ifndef PDMS_CORE_GUARD_H_
#define PDMS_CORE_GUARD_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "factor/belief.h"
#include "net/message.h"
#include "util/status.h"

namespace pdms {

// --- Byzantine admission guard (EngineOptions::byzantine_guard) -------------
//
// The guard's policy: admission and scoring of each inbound belief entry,
// the end-of-round outlier/threshold/decay step, and the purge of a
// quarantined neighbor's deposits. `Peer` keeps the storage — one
// `GuardLinkState` per neighbor link, one `GuardSlot` per message-pool
// slot — and calls into this stage only while the guard is enabled.
//
// The tuning is fixed; only the demotion threshold is configurable
// (`ByzantineGuardOptions::demote_threshold`, hard quarantine at twice
// it).

/// Per-round multiplicative decay of a link's score: isolated violations
/// (a delayed duplicate, one early oscillation) wash out, sustained
/// misbehavior accumulates.
inline constexpr double kGuardScoreDecay = 0.9;
/// Score per admission rejection: negative measures, quantization-tier
/// mismatches, out-of-scope positions, writes to a slot the sender does
/// not own.
inline constexpr double kGuardAdmissionWeight = 2.0;
/// Score per conflicting value for one slot within one round
/// (equivocation). Re-sending the same value is not a violation.
inline constexpr double kGuardEquivocationWeight = 4.0;
/// Score per round in which one of the link's slots completed an
/// oscillation streak.
inline constexpr double kGuardOscillationWeight = 1.0;
/// Score per round in which the link was an influence outlier.
inline constexpr double kGuardOutlierWeight = 0.5;
/// Consecutive direction reversals of one slot that make a streak.
inline constexpr uint32_t kGuardOscillationBound = 6;
/// Minimum |Δ log-odds| for a move to count as a reversal; also the floor
/// of the outlier baseline.
inline constexpr double kGuardFlipMagnitude = 0.75;
/// A link whose mean absorbed |Δ log-odds| exceeds this multiple of the
/// clean links' median is an influence outlier.
inline constexpr double kGuardOutlierRatio = 8.0;
/// Log-odds retention on a soft-demoted link: absorbed l becomes 0.25·l.
inline constexpr double kGuardSoftDamping = 0.25;

/// One neighbor link's guard record. All zero while the guard is off.
struct GuardLinkState {
  /// Decaying misbehavior score: violations add their weight,
  /// `kGuardScoreDecay` multiplies at the end of every round.
  double score = 0.0;
  /// 0 normal, 1 soft (absorbed beliefs damped toward uniform), 2 hard
  /// (bundles dropped). Sticky: demotion never reverts, so replay from any
  /// snapshot reaches the same decisions.
  uint8_t demote_level = 0;
  uint64_t rejections = 0;       ///< admission-rejected entries
  uint64_t equivocations = 0;    ///< same-round conflicting values
  uint64_t oscillations = 0;     ///< completed flip streaks
  uint64_t outliers = 0;         ///< influence-outlier rounds
  uint64_t dropped_bundles = 0;  ///< bundles dropped while quarantined
  /// This round's absorbed |Δ log-odds| mass and entry count — the
  /// influence-outlier feed, consumed and reset at the end of the round.
  double round_influence = 0.0;
  uint32_t round_absorbed = 0;
  /// A slot completed an oscillation streak this round; scored once per
  /// round, not once per slot. Never snapshotted: snapshots land at round
  /// barriers, where it is always false.
  bool round_oscillated = false;

  bool operator==(const GuardLinkState&) const = default;

  /// No score, demotion or tally on record (the per-round fields aside).
  bool Blank() const;
  /// The record with its per-round fields reset: what a link keeps across
  /// an alias-session reset, so churn cannot parole a demoted neighbor.
  GuardLinkState Carried() const;
};

/// Admission history of one message-pool slot. Each foreign slot is
/// written by exactly one owner link, so the history needs no per-link
/// dimension.
struct GuardSlot {
  double last_log_odds = 0.0;  ///< last absorbed value
  uint64_t last_round = 0;     ///< receiver round of the last absorb
  uint8_t flips = 0;           ///< consecutive direction reversals
  int8_t last_dir = 0;         ///< sign of the last large move
  bool has_last = false;
};

/// The factor replica one bundle entry addresses, as the guard sees it.
struct GuardScope {
  PeerId self = 0;     ///< the receiving peer
  PeerId from = 0;     ///< the sending neighbor
  uint64_t round = 0;  ///< the receiver's round clock
  /// The replica's member owners and slot histories, by member position.
  std::span<const PeerId> owners;
  std::span<GuardSlot> history;
};

/// Guarded admission of one bundle entry over `link`: semantic validation,
/// equivocation and oscillation tracking, score feeds. Returns the value
/// to store in slot `entry.position` — damped toward uniform on a
/// soft-demoted link — or nullopt when the entry is refused; the first
/// scored violation lands in `*status`.
std::optional<Belief> GuardAdmit(const BeliefEntry& entry,
                                 uint32_t value_bits, const GuardScope& scope,
                                 GuardLinkState& link, Status* status);

/// Influence-outlier baseline of one round: the median of the clean
/// links' mean absorbed |Δ log-odds| (`clean_means`, reordered), floored at
/// `kGuardFlipMagnitude`. 0 — no outlier check — with fewer than three
/// clean links.
double GuardOutlierBaseline(std::vector<double>& clean_means);

/// Closes one link's round: outlier and oscillation scoring, threshold
/// crossings (soft at `demote_threshold`, hard at twice it), decay, and
/// the reset of the per-round fields. Returns true when the link was
/// quarantined this round; the caller then purges its deposits.
bool GuardCloseRound(GuardLinkState& link, double outlier_baseline,
                     double demote_threshold);

/// Resets every slot owned by `peer` to the neutral measure and clears its
/// history (which may trail the pools; it grows lazily). Quarantine stops
/// future bundles; this heals the lies already deposited.
void PurgeGuardDeposits(PeerId peer, std::span<const PeerId> owners,
                        std::span<Belief> values,
                        std::vector<GuardSlot>& history);

}  // namespace pdms

#endif  // PDMS_CORE_GUARD_H_
