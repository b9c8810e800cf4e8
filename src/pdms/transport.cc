#include "pdms/transport.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <tuple>

namespace pdms {

uint64_t TransportStats::TotalSent() const {
  uint64_t total = 0;
  for (uint64_t s : sent) total += s;
  return total;
}

void AtomicTransportStats::SnapshotTo(TransportStats* out) const {
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    out->sent[k] = sent[k].load(std::memory_order_relaxed);
    out->dropped[k] = 0;
    out->delivered[k] = delivered[k].load(std::memory_order_relaxed);
  }
  out->bytes_sent = bytes_sent.load(std::memory_order_relaxed);
  out->value_bytes_sent = value_bytes_sent.load(std::memory_order_relaxed);
  out->header_bytes_sent = out->bytes_sent - out->value_bytes_sent;
  out->frames_dropped_at_shutdown =
      frames_dropped_at_shutdown.load(std::memory_order_relaxed);
}

void AtomicTransportStats::Reset() {
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    sent[k].store(0, std::memory_order_relaxed);
    delivered[k].store(0, std::memory_order_relaxed);
  }
  bytes_sent.store(0, std::memory_order_relaxed);
  value_bytes_sent.store(0, std::memory_order_relaxed);
  frames_dropped_at_shutdown.store(0, std::memory_order_relaxed);
}

namespace {

/// The drain order `Mailboxes::Insert` keeps: tick, then sender, then the
/// sender's own send number.
bool DrainsBefore(const Envelope& a, const Envelope& b) {
  return std::tie(a.deliver_at, a.from, a.seq) <
         std::tie(b.deliver_at, b.from, b.seq);
}

}  // namespace

void Mailboxes::Insert(Envelope envelope) {
  const PeerId to = envelope.to;
  std::lock_guard<std::mutex> lock(boxes_[to].mutex);
  std::vector<Envelope>& queue = boxes_[to].queue;
  if (queue.empty()) SetMailBit(to);
  auto at = queue.end();
  while (at != queue.begin() && DrainsBefore(envelope, *(at - 1))) --at;
  queue.insert(at, std::move(envelope));
}

void Mailboxes::DrainInto(PeerId peer, uint64_t now,
                          std::vector<Envelope>* out,
                          AtomicTransportStats& counters) {
  assert(peer < boxes_.size());
  out->clear();
  {
    std::lock_guard<std::mutex> lock(boxes_[peer].mutex);
    std::vector<Envelope>& queue = boxes_[peer].queue;
    if (queue.empty()) return;
    if (queue.back().deliver_at <= now) {
      // Everything is due: hand the queue over and keep the caller's
      // (cleared) buffer as the mailbox's capacity — topped up to what
      // was just delivered, so a caller that drains into fresh vectors
      // does not make every later Send regrow the queue.
      out->swap(queue);
      if (queue.capacity() < out->size()) queue.reserve(out->size());
      ClearMailBit(peer);
    } else {
      const auto split = std::partition_point(
          queue.begin(), queue.end(),
          [now](const Envelope& e) { return e.deliver_at <= now; });
      if (split == queue.begin()) return;
      out->assign(std::make_move_iterator(queue.begin()),
                  std::make_move_iterator(split));
      queue.erase(queue.begin(), split);
    }
  }
  std::array<uint64_t, kMessageKindCount> delivered{};
  for (const Envelope& envelope : *out) {
    ++delivered[static_cast<size_t>(KindOf(envelope.payload))];
  }
  for (size_t k = 0; k < kMessageKindCount; ++k) {
    if (delivered[k] != 0) {
      counters.CountDelivered(static_cast<MessageKind>(k), delivered[k]);
    }
  }
}

PeerId Mailboxes::NextWithMail(PeerId from) const {
  for (size_t word = from / 64; word < mail_bits_.size(); ++word) {
    uint64_t bits = mail_bits_[word].load(std::memory_order_acquire);
    if (word == from / 64) bits &= ~uint64_t{0} << (from % 64);
    if (bits != 0) {
      return static_cast<PeerId>(word * 64 + std::countr_zero(bits));
    }
  }
  return static_cast<PeerId>(size());
}

std::vector<Envelope> Mailboxes::Capture() {
  std::vector<Envelope> envelopes;
  for (Mailbox& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mutex);
    envelopes.insert(envelopes.end(), box.queue.begin(), box.queue.end());
  }
  return envelopes;
}

void Mailboxes::Replace(std::vector<Envelope> envelopes) {
  for (PeerId peer = 0; peer < boxes_.size(); ++peer) {
    std::lock_guard<std::mutex> lock(boxes_[peer].mutex);
    boxes_[peer].queue.clear();
    ClearMailBit(peer);
  }
  // In drain order, each insert lands at its queue's tail.
  std::sort(envelopes.begin(), envelopes.end(), DrainsBefore);
  for (Envelope& envelope : envelopes) Insert(std::move(envelope));
}

void SimTransport::Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                        Payload payload) {
  assert(to < mailboxes_.size());
  counters_.CountSent(KindOf(payload), PayloadWireBreakdown(payload));
  Envelope envelope;
  envelope.from = from;
  envelope.to = to;
  envelope.via = via;
  envelope.deliver_at = now() + delay_ticks_;
  envelope.payload = std::move(payload);
  mailboxes_.Append(std::move(envelope));
}

std::vector<Envelope> SimTransport::Drain(PeerId peer) {
  std::vector<Envelope> due;
  DrainInto(peer, &due);
  return due;
}

void SimTransport::DrainInto(PeerId peer, std::vector<Envelope>* out) {
  mailboxes_.DrainInto(peer, now(), out, counters_);
}

bool SimTransport::HasPendingMessages() const {
  return NextPeerWithMail(0) < peer_count();
}

PeerId SimTransport::NextPeerWithMail(PeerId from) const {
  return mailboxes_.NextWithMail(from);
}

const TransportStats& SimTransport::stats() const {
  counters_.SnapshotTo(&stats_snapshot_);
  return stats_snapshot_;
}

void SimTransport::ResetStats() { counters_.Reset(); }

}  // namespace pdms
