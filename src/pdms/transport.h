#ifndef PDMS_PDMS_TRANSPORT_H_
#define PDMS_PDMS_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "net/codec.h"
#include "net/message.h"

namespace pdms {

/// Per-kind traffic counters every `Transport` implementation maintains.
struct TransportStats {
  /// Send attempts, drops included.
  std::array<uint64_t, kMessageKindCount> sent{};
  /// Envelopes lost on the way, whichever layer dropped them (a
  /// `FaultInjectingTransport` adds its own drops to its inner ledger).
  std::array<uint64_t, kMessageKindCount> dropped{};
  std::array<uint64_t, kMessageKindCount> delivered{};
  /// Encoded payload bytes accepted for delivery (drops excluded), per
  /// `PayloadWireBreakdown` — the "bytes moved" of the scale benchmarks.
  uint64_t bytes_sent = 0;
  /// The subset of `bytes_sent` spent on the µ values themselves
  /// (`WireBreakdown::value_bytes`: raw doubles, or quantum varints under
  /// a value error budget) — the share the quantized wire format attacks.
  uint64_t value_bytes_sent = 0;
  /// Everything else: `bytes_sent - value_bytes_sent` (framing varints,
  /// alias headers, fingerprints, positions, probe/feedback structure),
  /// derived from the two measured counters when the stats are read.
  uint64_t header_bytes_sent = 0;
  /// Frames still unacknowledged when the transport shut down and stopped
  /// retransmitting (they may or may not have reached the receiver). Zero
  /// on a clean drain; non-zero means the shutdown deadline
  /// (`SocketTransportOptions::shutdown_drain_ms`) expired first.
  uint64_t frames_dropped_at_shutdown = 0;

  uint64_t TotalSent() const;
};

/// Internal: lock-free counter block behind `TransportStats`, shared by the
/// library transports so concurrent `Send`/`Drain` calls never race on the
/// accounting. Counters use relaxed atomics — they are statistics, not
/// synchronization.
struct AtomicTransportStats {
  std::array<std::atomic<uint64_t>, kMessageKindCount> sent{};
  std::array<std::atomic<uint64_t>, kMessageKindCount> delivered{};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> value_bytes_sent{0};
  std::atomic<uint64_t> frames_dropped_at_shutdown{0};

  /// Counts one envelope of `kind` accepted for delivery, with its bytes.
  /// The transports that use this block never drop an envelope; loss is
  /// injected (and counted) by `FaultInjectingTransport` above them.
  void CountSent(MessageKind kind, const WireBreakdown& wire) {
    sent[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
    bytes_sent.fetch_add(wire.bytes, std::memory_order_relaxed);
    value_bytes_sent.fetch_add(wire.value_bytes, std::memory_order_relaxed);
  }
  void CountDelivered(MessageKind kind, uint64_t count = 1) {
    delivered[static_cast<size_t>(kind)].fetch_add(count,
                                                   std::memory_order_relaxed);
  }

  /// Relaxed snapshot into `out` (`header_bytes_sent` derived); exact when
  /// the transport is quiescent.
  void SnapshotTo(TransportStats* out) const;
  void Reset();
};

/// Internal: the per-peer mailboxes both library transports queue into.
///
/// Invariant: every mailbox is kept in the order it drains, and that order
/// has non-decreasing `deliver_at`, so the envelopes due at a tick are
/// always a prefix. A drain moves that prefix out, or, when the whole queue
/// is due (every round of a one-tick schedule), swaps the queue with the
/// caller's buffer and keeps the caller's old buffer as the mailbox's
/// capacity. Draining an empty mailbox touches no counter.
///
/// Each mailbox is a vector behind its own mutex, so concurrent enqueues
/// for different peers never contend and drains of distinct peers proceed
/// independently. One bit per peer, in atomic 64-bit words, is set while
/// that peer's mailbox is non-empty: an enqueue sets it on the empty ->
/// non-empty transition and a drain that empties the queue clears it, both
/// under the mailbox's lock. `NextWithMail` finds the next set bit, so a
/// driver's scan costs the mailboxes holding mail, not the network size.
class Mailboxes {
 public:
  explicit Mailboxes(size_t peer_count)
      : boxes_(peer_count), mail_bits_((peer_count + 63) / 64) {}

  size_t size() const { return boxes_.size(); }

  /// Appends `envelope` to `envelope.to`'s mailbox. The caller guarantees
  /// that its `deliver_at` is no smaller than any queued there, so send
  /// order is drain order (`SimTransport`: the tick only moves between
  /// phases and the delay is constant).
  void Append(Envelope envelope) {
    const PeerId to = envelope.to;
    std::lock_guard<std::mutex> lock(boxes_[to].mutex);
    std::vector<Envelope>& queue = boxes_[to].queue;
    if (queue.empty()) SetMailBit(to);
    queue.push_back(std::move(envelope));
  }

  /// Inserts `envelope` at its (deliver_at, from, seq) place in
  /// `envelope.to`'s mailbox, scanning back from the tail (`SocketTransport`:
  /// frames arrive nearly in that order).
  void Insert(Envelope envelope);

  /// Replaces `*out` with the envelopes of `peer` due at tick `now`, in
  /// drain order, and counts them as delivered in `counters`.
  void DrainInto(PeerId peer, uint64_t now, std::vector<Envelope>* out,
                 AtomicTransportStats& counters);

  /// The smallest peer >= `from` whose mailbox is non-empty, else `size()`.
  PeerId NextWithMail(PeerId from) const;

  /// Copies every queued envelope, in peer order and then drain order.
  std::vector<Envelope> Capture();

  /// Replaces every mailbox's contents with `envelopes`, given in any
  /// order; each lands at its (deliver_at, from, seq) place.
  void Replace(std::vector<Envelope> envelopes);

 private:
  struct Mailbox {
    std::mutex mutex;
    std::vector<Envelope> queue;
  };

  /// Must hold `boxes_[peer].mutex`.
  void SetMailBit(PeerId peer) {
    mail_bits_[peer / 64].fetch_or(uint64_t{1} << (peer % 64),
                                   std::memory_order_release);
  }
  void ClearMailBit(PeerId peer) {
    mail_bits_[peer / 64].fetch_and(~(uint64_t{1} << (peer % 64)),
                                    std::memory_order_release);
  }

  std::vector<Mailbox> boxes_;
  /// Bit p set iff mailbox p is non-empty (maintained under its lock).
  std::vector<std::atomic<uint64_t>> mail_bits_;
};

/// How messages move between peers — the provider side of the public API.
///
/// The engine computes *what* the peers exchange (probes, feedback
/// announcements, belief updates, queries); a `Transport` decides *how*
/// the envelopes travel: with what delay, what loss, over what substrate.
/// Implementations ship with the library (`SimTransport`, the in-process
/// discrete-tick simulator; `SocketTransport`, framed TCP; and the
/// `FaultInjectingTransport` decorator, the one source of envelope loss)
/// and can be supplied by applications through `PdmsBuilder::WithTransport`.
///
/// Contract (exercised by the shared conformance test):
///  * `Send` may drop (recording `dropped`) but never reorders messages
///    between the same (from, to) pair.
///  * `Drain(p)` returns every envelope deliverable to `p` at the current
///    tick, in send order, and removes them from the queue.
///  * `HasPendingMessages()` is true iff any envelope is queued, whether
///    deliverable now or in the future.
///  * Ticks only move forward; `Send` after `AdvanceTick` never delivers
///    into the past.
///
/// Thread-safety contract (required since round execution went parallel):
///  * `Send` may be called concurrently from any number of threads.
///  * `Drain`/`DrainInto` may be called concurrently for *distinct*
///    peers, and concurrently with `Send` (a concurrently sent message
///    lands either in this drain or a later one, never nowhere).
///  * `AdvanceTick`, `NextPeerWithMail`, `stats()` and `ResetStats` are
///    driver-side: callers must not overlap them with `Send`/`Drain`. The
///    engine only invokes them between parallel phases.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Short stable identifier, e.g. "sim", "instant" or "socket".
  virtual std::string_view name() const = 0;

  virtual size_t peer_count() const = 0;

  /// Current discrete time.
  virtual uint64_t now() const = 0;
  virtual void AdvanceTick() = 0;

  /// Enqueues a message from `from` to `to`; `via` names the mapping link
  /// it logically travels through, when applicable.
  virtual void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                    Payload payload) = 0;

  /// Removes and returns all messages deliverable to `peer` now.
  virtual std::vector<Envelope> Drain(PeerId peer) = 0;

  /// `Drain` into a caller-owned buffer: replaces `*out` with the
  /// envelopes deliverable to `peer` now. A transport may keep `*out`'s
  /// previous buffer (its contents discarded) as mailbox capacity, so a
  /// caller that drains every round into the same buffer moves messages
  /// without reallocating. The default forwards to `Drain`.
  virtual void DrainInto(PeerId peer, std::vector<Envelope>* out) {
    *out = Drain(peer);
  }

  /// True if any queue still holds messages (deliverable or future).
  virtual bool HasPendingMessages() const = 0;

  /// The smallest peer >= `from` whose queue may hold messages, or any
  /// value >= `peer_count()` when none does. Lets a driver that drains
  /// peers in ascending order skip the empty mailboxes: it may only skip
  /// peers whose queue is empty, never one holding a message (deliverable
  /// or future). The default returns `from` — "maybe" for every peer — so
  /// a transport that does not track its mailboxes keeps the every-peer
  /// scan.
  virtual PeerId NextPeerWithMail(PeerId from) const { return from; }

  virtual const TransportStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

/// Configuration of the in-process simulated transport.
struct NetworkOptions {
  /// Delivery latency in ticks: a message sent at tick t becomes
  /// deliverable at t + delay_ticks. 0 makes it deliverable in the same
  /// tick — the "instant" transport, for convergence-only workloads that
  /// need no tick-per-hop waiting.
  uint64_t delay_ticks = 1;
};

/// The library's in-process transport: lossless per-destination mailboxes
/// with a fixed delivery delay. Delay 0 is the "instant" transport and the
/// reference implementation for the Transport conformance contract; loss
/// comes only from wrapping it in a `FaultInjectingTransport`.
///
/// Envelopes are stamped with non-decreasing delivery ticks (the tick only
/// moves between phases and the delay is constant), so appending keeps
/// each `Mailboxes` queue in drain order, which is send order. A drain
/// costs the due prefix, `NextPeerWithMail` the mailboxes holding mail,
/// and `HasPendingMessages` is "any mail bit set" — no per-message counter.
class SimTransport final : public Transport {
 public:
  SimTransport(size_t peer_count, const NetworkOptions& options)
      : delay_ticks_(options.delay_ticks), mailboxes_(peer_count) {}

  /// "instant" at delay 0, "sim" otherwise.
  std::string_view name() const override {
    return delay_ticks_ == 0 ? "instant" : "sim";
  }
  size_t peer_count() const override { return mailboxes_.size(); }
  uint64_t now() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void AdvanceTick() override {
    now_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Enqueues a message for delivery `delay_ticks` from now.
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;

  /// Removes and returns the envelopes deliverable to `peer` at the
  /// current tick (deliver_at <= now), in send order. A fully due
  /// mailbox hands its buffer over and reserves a new one as large as
  /// the batch it just delivered.
  std::vector<Envelope> Drain(PeerId peer) override;
  void DrainInto(PeerId peer, std::vector<Envelope>* out) override;

  /// True if any queue still holds messages (deliverable or future): any
  /// mail bit set, O(peers / 64).
  bool HasPendingMessages() const override;

  /// Exact: the smallest peer >= `from` whose mailbox is non-empty, else
  /// `peer_count()`.
  PeerId NextPeerWithMail(PeerId from) const override;

  const TransportStats& stats() const override;
  void ResetStats() override;

 private:
  const uint64_t delay_ticks_;
  std::atomic<uint64_t> now_{0};
  Mailboxes mailboxes_;
  AtomicTransportStats counters_;
  mutable TransportStats stats_snapshot_;
};

}  // namespace pdms

#endif  // PDMS_PDMS_TRANSPORT_H_
