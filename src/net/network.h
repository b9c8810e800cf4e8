#ifndef PDMS_NET_NETWORK_H_
#define PDMS_NET_NETWORK_H_

#include <cstdint>
#include <mutex>
#include <string_view>

#include "net/message.h"
#include "pdms/transport.h"
#include "util/rng.h"

namespace pdms {

/// Configuration of the simulated transport.
struct NetworkOptions {
  /// Probability that a sent message is actually delivered — the
  /// `P(send)` of the fault-tolerance experiment (Section 5.1.3). Lost
  /// messages vanish silently; the algorithm tolerates this by design.
  double send_probability = 1.0;
  /// Delivery latency in ticks (>= 1: a message sent at tick t becomes
  /// deliverable at t + delay_ticks).
  uint64_t delay_ticks = 1;
  uint64_t seed = 1;
  /// Message loss applies only to belief traffic when true (the paper's
  /// experiment drops inference messages; probes/feedback/query traffic
  /// uses whatever reliability the overlay provides).
  bool lose_belief_messages_only = true;
};

/// Discrete-tick simulated message bus between peers — the default
/// `Transport` implementation.
///
/// Thread-safe per the `Transport` contract: mailboxes are sharded per
/// destination peer behind their own mutexes (see `MailboxTransport`), so
/// concurrent sends to different peers never contend. Loss draws come
/// from one seeded stream guarded by its own mutex (taken only when loss
/// is actually configured): with a serial send order — which the engine
/// guarantees regardless of its compute parallelism — drops and
/// deliveries are identical for the same seed and send sequence.
class SimTransport final : public MailboxTransport {
 public:
  SimTransport(size_t peer_count, const NetworkOptions& options)
      : MailboxTransport(peer_count), options_(options), rng_(options.seed) {}

  std::string_view name() const override { return "sim"; }

  /// Enqueues a message for delivery `delay_ticks` from now; may drop it
  /// per `send_probability`.
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;

  const NetworkOptions& options() const { return options_; }

 private:
  NetworkOptions options_;
  std::mutex rng_mutex_;
  Rng rng_;  // guarded by rng_mutex_
};

}  // namespace pdms

#endif  // PDMS_NET_NETWORK_H_
