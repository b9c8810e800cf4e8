#include "net/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace pdms {
namespace {

/// Distinct salt per fault dimension so the draws are independent.
enum FaultSalt : uint64_t {
  kDropSalt = 0x64726f70u,
  kDuplicateSalt = 0x64757065u,
  kReorderSalt = 0x72656f72u,
  kCorruptSalt = 0x636f7272u,
  kKillSalt = 0x6b696c6cu,
  kDelaySalt = 0x64656c61u,
  kEntropySalt = 0x656e7472u,
};

uint64_t MixDraw(const FaultPlan& plan, uint64_t stream, uint64_t seq,
                 uint32_t attempt, uint64_t salt) {
  uint64_t h = SplitMix64(plan.seed ^ (salt * 0x9e3779b97f4a7c15ull)).Next();
  h = SplitMix64(h ^ (stream * 0xa24baed4963ee407ull)).Next();
  h = SplitMix64(h ^ (seq * 0x9fb21c651e98df25ull)).Next();
  h = SplitMix64(h ^ (static_cast<uint64_t>(attempt) * 0xd6e8feb86659fd93ull))
          .Next();
  return h;
}

bool Bernoulli(const FaultPlan& plan, double rate, uint64_t stream,
               uint64_t seq, uint32_t attempt, uint64_t salt) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const uint64_t h = MixDraw(plan, stream, seq, attempt, salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

}  // namespace

FaultDecision DrawFaults(const FaultPlan& plan, uint64_t stream, uint64_t seq,
                         uint32_t attempt) {
  FaultDecision decision;
  if (!plan.Enabled()) return decision;
  decision.drop =
      Bernoulli(plan, plan.drop_rate, stream, seq, attempt, kDropSalt);
  decision.duplicate = Bernoulli(plan, plan.duplicate_rate, stream, seq,
                                 attempt, kDuplicateSalt);
  decision.reorder =
      Bernoulli(plan, plan.reorder_rate, stream, seq, attempt, kReorderSalt);
  decision.corrupt =
      Bernoulli(plan, plan.corrupt_rate, stream, seq, attempt, kCorruptSalt);
  decision.kill_link =
      Bernoulli(plan, plan.link_kill_rate, stream, seq, attempt, kKillSalt);
  if (plan.delay_ticks_max > 0 &&
      Bernoulli(plan, 0.5, stream, seq, attempt, kDelaySalt)) {
    decision.delay_ticks =
        1 + MixDraw(plan, stream, seq, attempt, kDelaySalt ^ kEntropySalt) %
                plan.delay_ticks_max;
  }
  decision.corrupt_entropy = MixDraw(plan, stream, seq, attempt, kEntropySalt);
  return decision;
}

// --- Behavioral (Byzantine) faults ----------------------------------------------

namespace {

/// Distinct salt per behavioral dimension, disjoint from the link salts.
enum ByzantineSalt : uint64_t {
  kLieSalt = 0x6c696521u,
  kForgeSalt = 0x666f7267u,
  kEquivSalt = 0x65717576u,
  kEquivValueSalt = 0x65717632u,
};

/// Pure draw for one (round, factor, position) event of `stream` — same
/// chained-SplitMix64 construction as the link-fault `MixDraw`, with the
/// 128-bit factor id folded in so draws for distinct factors are
/// independent even at equal positions.
uint64_t ByzantineMix(uint64_t seed, uint64_t stream, uint64_t round,
                      const FactorId& factor, uint32_t position,
                      uint64_t salt) {
  uint64_t h = SplitMix64(seed ^ (salt * 0x9e3779b97f4a7c15ull)).Next();
  h = SplitMix64(h ^ (stream * 0xa24baed4963ee407ull)).Next();
  h = SplitMix64(h ^ (round * 0x9fb21c651e98df25ull)).Next();
  h = SplitMix64(h ^ factor.hi).Next();
  h = SplitMix64(h ^ factor.lo).Next();
  h = SplitMix64(h ^ (static_cast<uint64_t>(position) * 0xd6e8feb86659fd93ull))
          .Next();
  return h;
}

bool ByzantineBernoulli(double rate, uint64_t h) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

/// Normalized 2-state measure with log-odds exactly `l`.
Belief BeliefFromLogOdds(double l) {
  const double p = 1.0 / (1.0 + std::exp(-l));
  return Belief{p, 1.0 - p};
}

/// Log-odds of a measure (±kForgedLogOddsRange for one-sided measures, 0
/// for all-zero ones) — only used to seed forgeries, so saturation
/// behavior just bounds the lie.
constexpr double kForgedLogOddsRange = 8.0;

double ForgeryLogOdds(const Belief& belief) {
  if (belief.correct <= 0.0 && belief.incorrect <= 0.0) return 0.0;
  if (belief.incorrect <= 0.0) return kForgedLogOddsRange;
  if (belief.correct <= 0.0) return -kForgedLogOddsRange;
  return std::log(belief.correct / belief.incorrect);
}

/// A uniform forged log-odds in [-kForgedLogOddsRange, kForgedLogOddsRange].
double DrawForgedLogOdds(uint64_t h) {
  return (static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0) *
         kForgedLogOddsRange;
}

/// The forged entry value: belief + wire quantum, consistent with the
/// bundle's declared precision (the guard's tier check must not get a
/// freebie — adversaries are wire-consistent).
void WriteForgedValue(double log_odds, uint32_t value_bits,
                      BeliefEntry* entry) {
  if (value_bits == 0) {
    entry->belief = BeliefFromLogOdds(log_odds);
    entry->quant = 0;
    return;
  }
  entry->quant = QuantizeLogOdds(BeliefFromLogOdds(log_odds), value_bits);
  entry->belief = DequantizeLogOdds(entry->quant, value_bits);
}

}  // namespace

bool ByzantinePlan::IsAdversary(PeerId peer) const {
  return std::binary_search(adversaries.begin(), adversaries.end(), peer);
}

uint64_t ApplyByzantineFaults(const ByzantinePlan& plan, PeerId sender,
                              PeerId recipient, uint64_t round,
                              std::span<const FactorId> group_ids,
                              BeliefMessage* bundle) {
  if (!plan.Enabled() || !plan.IsAdversary(sender)) return 0;
  // Colluding adversaries omit the sender from the draw key, so every
  // group member forges the same value for the same (recipient, round,
  // factor, position) — mutually corroborating lies at the receiver.
  const uint64_t stream =
      plan.collude ? static_cast<uint64_t>(recipient)
                   : (static_cast<uint64_t>(sender) << 32) | recipient;
  uint64_t forged = 0;
  const bool rebuild = plan.equivocate_rate > 0.0;
  std::vector<BeliefEntry> out;
  if (rebuild) out.reserve(bundle->entries.size());
  for (size_t g = 0; g < bundle->groups.size(); ++g) {
    BeliefGroup& group = bundle->groups[g];
    const FactorId& factor = group_ids[g];
    const uint32_t begin = group.entry_begin;
    const uint32_t count = group.entry_count;
    if (rebuild) group.entry_begin = static_cast<uint32_t>(out.size());
    uint32_t emitted = 0;
    for (uint32_t i = 0; i < count; ++i) {
      BeliefEntry entry = bundle->entries[begin + i];
      const uint64_t lie_draw = ByzantineMix(plan.seed, stream, round, factor,
                                             entry.position, kLieSalt);
      if (ByzantineBernoulli(plan.lie_probability, lie_draw)) {
        const double forged_log_odds =
            plan.invert_values
                ? -ForgeryLogOdds(entry.belief)
                : DrawForgedLogOdds(ByzantineMix(plan.seed, stream, round,
                                                 factor, entry.position,
                                                 kForgeSalt));
        WriteForgedValue(forged_log_odds, bundle->value_bits, &entry);
        ++forged;
      }
      if (rebuild) {
        out.push_back(entry);
        ++emitted;
        const uint64_t equiv_draw = ByzantineMix(
            plan.seed, stream, round, factor, entry.position, kEquivSalt);
        if (ByzantineBernoulli(plan.equivocate_rate, equiv_draw)) {
          // A second, conflicting value for the same position in the same
          // bundle: the within-round equivocation the admission guard
          // detects directly.
          BeliefEntry twin = entry;
          WriteForgedValue(
              DrawForgedLogOdds(ByzantineMix(plan.seed, stream, round, factor,
                                             entry.position,
                                             kEquivValueSalt)),
              bundle->value_bits, &twin);
          out.push_back(twin);
          ++emitted;
          ++forged;
        }
      } else {
        bundle->entries[begin + i] = entry;
      }
    }
    if (rebuild) group.entry_count = emitted;
  }
  if (rebuild) bundle->entries = std::move(out);
  return forged;
}

// --- FaultInjectingTransport ----------------------------------------------------

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<Transport> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan) {}

FaultInjectingTransport::~FaultInjectingTransport() = default;

void FaultInjectingTransport::FlushReorderSlotLocked() {
  if (!reorder_slot_.has_value()) return;
  Held held = std::move(*reorder_slot_);
  reorder_slot_.reset();
  inner_->Send(held.from, held.to, held.via, std::move(held.payload));
}

void FaultInjectingTransport::DropLocked(MessageKind kind) {
  ++dropped_[static_cast<size_t>(kind)];
  FlushReorderSlotLocked();
}

void FaultInjectingTransport::Send(PeerId from, PeerId to,
                                   std::optional<EdgeId> via,
                                   Payload payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!plan_.Enabled()) {
    inner_->Send(from, to, via, std::move(payload));
    return;
  }
  const uint64_t seq = event_seq_++;
  const uint64_t stream = (static_cast<uint64_t>(from) << 32) | to;
  const FaultDecision decision = DrawFaults(plan_, stream, seq, 0);
  ++fault_stats_.events;

  const MessageKind kind = KindOf(payload);
  if (decision.drop) {
    ++fault_stats_.dropped;
    DropLocked(kind);
    return;
  }
  if (decision.corrupt) {
    // Round-trip the payload through the exact codec with one bit flipped:
    // surviving flips reach the engine as plausible-but-wrong messages,
    // rejected flips model the codec refusing the frame (a drop).
    std::vector<uint8_t> bytes;
    EncodePayload(payload, &bytes);
    if (bytes.empty()) {
      ++fault_stats_.corrupt_rejected;
      DropLocked(kind);
      return;
    }
    const uint64_t bit = decision.corrupt_entropy % (bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    Result<Payload> decoded =
        DecodePayload(kind, std::span<const uint8_t>(bytes));
    if (!decoded.ok()) {
      ++fault_stats_.corrupt_rejected;
      DropLocked(kind);
      return;
    }
    payload = std::move(decoded).value();
    ++fault_stats_.corrupted;
  }
  if (decision.reorder) {
    // Hold this envelope back one event: the next send (or the tick
    // boundary) overtakes it — an adjacent swap in the arrival order.
    FlushReorderSlotLocked();
    reorder_slot_ = Held{from, to, via, std::move(payload), 0};
    ++fault_stats_.reordered;
    return;
  }
  if (decision.delay_ticks > 0) {
    delayed_.push_back(Held{from, to, via, std::move(payload),
                            decision.delay_ticks});
    ++fault_stats_.delayed;
    FlushReorderSlotLocked();
    return;
  }
  if (decision.duplicate) {
    Payload copy = payload;
    inner_->Send(from, to, via, std::move(payload));
    inner_->Send(from, to, via, std::move(copy));
    ++fault_stats_.duplicated;
  } else {
    inner_->Send(from, to, via, std::move(payload));
  }
  FlushReorderSlotLocked();
}

void FaultInjectingTransport::AdvanceTick() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Everything held must land before the clock moves: a reordered or
    // delayed envelope is late, never lost.
    FlushReorderSlotLocked();
    size_t kept = 0;
    for (size_t i = 0; i < delayed_.size(); ++i) {
      if (--delayed_[i].release_in == 0) {
        Held held = std::move(delayed_[i]);
        inner_->Send(held.from, held.to, held.via, std::move(held.payload));
      } else {
        if (kept != i) delayed_[kept] = std::move(delayed_[i]);
        ++kept;
      }
    }
    delayed_.resize(kept);
  }
  inner_->AdvanceTick();
}

bool FaultInjectingTransport::HasPendingMessages() const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reorder_slot_.has_value() || !delayed_.empty()) return true;
  }
  return inner_->HasPendingMessages();
}

const TransportStats& FaultInjectingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_snapshot_ = inner_->stats();
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    stats_snapshot_.sent[k] += dropped_[k];
    stats_snapshot_.dropped[k] += dropped_[k];
  }
  return stats_snapshot_;
}

void FaultInjectingTransport::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  dropped_ = {};
  inner_->ResetStats();
}

FaultStats FaultInjectingTransport::fault_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_stats_;
}

void FaultInjectingTransport::set_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
}

}  // namespace pdms
