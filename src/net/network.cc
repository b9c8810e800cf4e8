#include "net/network.h"

namespace pdms {

void SimTransport::Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                        Payload payload) {
  const MessageKind kind = KindOf(payload);
  counters_.CountSendAttempt(kind);
  const bool lossy_kind = !options_.lose_belief_messages_only ||
                          kind == MessageKind::kBelief;
  if (lossy_kind && options_.send_probability < 1.0) {
    bool dropped;
    {
      std::lock_guard<std::mutex> lock(rng_mutex_);
      dropped = !rng_.Bernoulli(options_.send_probability);
    }
    if (dropped) {
      counters_.CountDropped(kind);
      return;
    }
  }
  // Bytes account only what was accepted for delivery (drops excluded).
  counters_.CountPayloadBytes(PayloadWireBreakdown(payload));
  Enqueue(from, to, via, now() + options_.delay_ticks, std::move(payload));
}

}  // namespace pdms
