#include "core/guard.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace pdms {
namespace {

/// Log-odds used by the admission guard's history (equivocation /
/// oscillation / influence comparisons). One-sided measures map to a
/// saturated constant — only comparisons consume the value, so the exact
/// cap is immaterial as long as it is deterministic.
constexpr double kGuardLogOddsCap = 745.0;

double GuardLogOdds(const Belief& belief) {
  if (belief.correct <= 0.0 && belief.incorrect <= 0.0) return 0.0;
  if (belief.incorrect <= 0.0) return kGuardLogOddsCap;
  if (belief.correct <= 0.0) return -kGuardLogOddsCap;
  return std::log(belief.correct / belief.incorrect);
}

/// Soft demotion: damp a message toward the uniform (unit) message by
/// retaining `kGuardSoftDamping` of its log-odds — elementwise pow keeps
/// the measure scale-free ((c/i)^w) and one-sided measures one-sided.
Belief GuardDamped(const Belief& belief) {
  return Belief{std::pow(belief.correct, kGuardSoftDamping),
                std::pow(belief.incorrect, kGuardSoftDamping)};
}

}  // namespace

bool GuardLinkState::Blank() const {
  return score == 0.0 && demote_level == 0 && rejections == 0 &&
         equivocations == 0 && oscillations == 0 && outliers == 0 &&
         dropped_bundles == 0;
}

GuardLinkState GuardLinkState::Carried() const {
  GuardLinkState carried = *this;
  carried.round_influence = 0.0;
  carried.round_absorbed = 0;
  carried.round_oscillated = false;
  return carried;
}

std::optional<Belief> GuardAdmit(const BeliefEntry& entry,
                                 uint32_t value_bits, const GuardScope& scope,
                                 GuardLinkState& link, Status* status) {
  const Belief& received = entry.belief;
  // Numerically degenerate measures — NaN, ±inf, all-zero — are refused
  // so the pool only ever holds usable values, and counted, but NOT
  // scored: they can be honest fallout of a poisoned upstream product
  // (contradictory one-sided certainties multiply to {0, 0}; huge finite
  // lies overflow to ±inf one hop later), and punishing relays for their
  // neighbors' lies would cascade demotion through the honest
  // subnetwork. Scoring keys on provable protocol violations below.
  const bool nan_measure =
      std::isnan(received.correct) || std::isnan(received.incorrect);
  const bool negative =
      !nan_measure && (received.correct < 0.0 || received.incorrect < 0.0);
  if (nan_measure || std::isinf(received.correct) ||
      std::isinf(received.incorrect) ||
      (!negative && received.correct == 0.0 && received.incorrect == 0.0)) {
    ++link.rejections;
    return std::nullopt;
  }
  // Admission proper: everything the unguarded path silently ignores
  // (malformed positions, forged own-member updates) plus semantic
  // validity is evidence here, rejected and scored instead of dropped.
  bool admitted = !negative;
  const char* reason = "negative measure";
  if (admitted && value_bits != 0) {
    // Declared-tier consistency: the quantum must lie within the
    // bundle's tier and the belief must be exactly its dequantized
    // realization — a sender cannot claim one precision and ship
    // another.
    if (entry.quant != kQuantPosInf && entry.quant != kQuantNegInf &&
        (entry.quant > QuantBound(value_bits) ||
         entry.quant < -QuantBound(value_bits))) {
      admitted = false;
      reason = "quantum outside the declared tier";
    } else {
      const Belief expected = DequantizeLogOdds(entry.quant, value_bits);
      if (received.correct != expected.correct ||
          received.incorrect != expected.incorrect) {
        admitted = false;
        reason = "belief inconsistent with its wire quantum";
      }
    }
  }
  if (admitted && entry.position >= scope.owners.size()) {
    admitted = false;
    reason = "position outside the factor scope";
  }
  if (admitted) {
    // Exactly one peer legitimately writes each slot: the member's
    // owner. Enforcing that here closes third-party overwrites (an
    // adversary poisoning a slot it does not own) and keeps the per-slot
    // equivocation / oscillation history attributable to one link — an
    // impersonator can no longer frame the honest owner.
    const PeerId owner = scope.owners[entry.position];
    if (owner == scope.self) {
      admitted = false;
      reason = "update for a variable this peer owns";
    } else if (owner != scope.from) {
      admitted = false;
      reason = "update for a variable the sender does not own";
    }
  }
  if (!admitted) {
    ++link.rejections;
    link.score += kGuardAdmissionWeight;
    if (status->ok()) {
      *status = Status::InvalidArgument(StrFormat(
          "belief entry rejected at peer %u: %s", scope.self, reason));
    }
    return std::nullopt;
  }

  GuardSlot& slot = scope.history[entry.position];
  const double log_odds = GuardLogOdds(received);
  if (slot.has_last && slot.last_round == scope.round &&
      log_odds != slot.last_log_odds) {
    // Same-round conflicting value for one slot: equivocation. The first
    // value is kept. Re-sending the *same* value (a duplicated envelope)
    // falls through below as a clean idempotent overwrite.
    ++link.equivocations;
    link.score += kGuardEquivocationWeight;
    if (status->ok()) {
      *status = Status::FailedPrecondition(StrFormat(
          "equivocating belief entry at peer %u: conflicting values for one "
          "slot within round %llu",
          scope.self, static_cast<unsigned long long>(scope.round)));
    }
    return std::nullopt;
  }
  if (slot.has_last) {
    const double delta = log_odds - slot.last_log_odds;
    if (std::abs(delta) >= kGuardFlipMagnitude) {
      const int8_t dir = delta > 0.0 ? 1 : -1;
      if (dir == -slot.last_dir) {
        if (++slot.flips >= kGuardOscillationBound) {
          // Count every completed streak, but score at most one
          // oscillation event per link per round (GuardCloseRound):
          // links carry many slots, and per-slot scoring would let a
          // poisoned honest relay — every slot thrashing secondhand —
          // accrue score proportional to its slot count.
          ++link.oscillations;
          link.round_oscillated = true;
          slot.flips = 0;
        }
      } else {
        slot.flips = 0;
      }
      slot.last_dir = dir;
    }
    link.round_influence += std::abs(delta);
  } else {
    link.round_influence += std::abs(log_odds);
  }
  ++link.round_absorbed;
  slot.last_log_odds = log_odds;
  slot.last_round = scope.round;
  slot.has_last = true;
  return link.demote_level >= 1 ? GuardDamped(received) : received;
}

double GuardOutlierBaseline(std::vector<double>& clean_means) {
  // The median deliberately excludes suspects — colluding neighbors
  // cannot vouch each other back under it — and neighborhoods with fewer
  // than three clean reporting links skip the check (no meaningful
  // quorum).
  if (clean_means.size() < 3) return 0.0;
  std::sort(clean_means.begin(), clean_means.end());
  // Floored at the flip magnitude: in a mostly-converged neighborhood the
  // clean median collapses toward zero, and without the floor every link
  // still doing real work would dwarf it and be scored as an "outlier".
  return std::max(clean_means[clean_means.size() / 2], kGuardFlipMagnitude);
}

bool GuardCloseRound(GuardLinkState& link, double outlier_baseline,
                     double demote_threshold) {
  if (outlier_baseline > 0.0 && link.demote_level == 0 &&
      link.round_absorbed > 0 &&
      link.round_influence / link.round_absorbed >
          kGuardOutlierRatio * outlier_baseline) {
    ++link.outliers;
    link.score += kGuardOutlierWeight;
  }
  if (link.round_oscillated) {
    link.score += kGuardOscillationWeight;
    link.round_oscillated = false;
  }
  // Thresholds before decay, so a burst that crossed this round demotes
  // this round; decay then ages whatever remains. Levels only ever rise.
  bool quarantined = false;
  if (link.score >= 2.0 * demote_threshold) {
    quarantined = link.demote_level < 2;
    link.demote_level = 2;
  } else if (link.score >= demote_threshold && link.demote_level < 1) {
    link.demote_level = 1;
  }
  link.score *= kGuardScoreDecay;
  link.round_influence = 0.0;
  link.round_absorbed = 0;
  return quarantined;
}

void PurgeGuardDeposits(PeerId peer, std::span<const PeerId> owners,
                        std::span<Belief> values,
                        std::vector<GuardSlot>& history) {
  for (size_t slot = 0; slot < owners.size(); ++slot) {
    if (owners[slot] != peer) continue;
    values[slot] = Belief::Unit();
    if (slot < history.size()) history[slot] = GuardSlot{};
  }
}

}  // namespace pdms
