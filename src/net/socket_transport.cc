#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pdms {
namespace {

/// epoll user-data sentinels for the two non-connection descriptors.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = ~0ull;

/// Cap on bytes staged into a link's write buffer per flush pass, so a
/// large retransmit ring never balloons the buffer.
constexpr size_t kMaxStagedOutBytes = 1 << 20;

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status ParsePort(const std::string& address, const std::string& port,
                 uint16_t* out) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(port.c_str(), &end, 10);
  if (port.empty() || end == port.c_str() || *end != '\0' || value > 65535) {
    return Status::InvalidArgument(
        StrFormat("address '%s' has no valid port", address.c_str()));
  }
  *out = static_cast<uint16_t>(value);
  return Status::Ok();
}

}  // namespace

// --- Address helpers ------------------------------------------------------------

Status ParseSocketAddress(const std::string& address, sockaddr_storage* out,
                          socklen_t* out_len) {
  std::memset(out, 0, sizeof(*out));
  if (!address.empty() && address.front() == '[') {
    const size_t close = address.find("]:");
    if (close == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("address '%s' is not [ipv6]:port", address.c_str()));
    }
    const std::string host = address.substr(1, close - 1);
    uint16_t port = 0;
    PDMS_RETURN_IF_ERROR(ParsePort(address, address.substr(close + 2), &port));
    auto* v6 = reinterpret_cast<sockaddr_in6*>(out);
    v6->sin6_family = AF_INET6;
    if (inet_pton(AF_INET6, host.c_str(), &v6->sin6_addr) != 1) {
      return Status::InvalidArgument(
          StrFormat("address '%s' has no valid IPv6 host", address.c_str()));
    }
    v6->sin6_port = htons(port);
    *out_len = sizeof(sockaddr_in6);
    return Status::Ok();
  }
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("address '%s' is not ip:port", address.c_str()));
  }
  const std::string host = address.substr(0, colon);
  if (host.find(':') != std::string::npos) {
    return Status::InvalidArgument(StrFormat(
        "address '%s': IPv6 hosts must be bracketed, [host]:port",
        address.c_str()));
  }
  uint16_t port = 0;
  PDMS_RETURN_IF_ERROR(ParsePort(address, address.substr(colon + 1), &port));
  auto* v4 = reinterpret_cast<sockaddr_in*>(out);
  v4->sin_family = AF_INET;
  if (inet_pton(AF_INET, host.c_str(), &v4->sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("address '%s' has no valid IPv4 host", address.c_str()));
  }
  v4->sin_port = htons(port);
  *out_len = sizeof(sockaddr_in);
  return Status::Ok();
}

std::string RenderSocketAddress(const sockaddr_storage& addr) {
  if (addr.ss_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&addr);
    char host[INET6_ADDRSTRLEN] = {};
    inet_ntop(AF_INET6, &v6->sin6_addr, host, sizeof(host));
    return StrFormat("[%s]:%u", host,
                     static_cast<unsigned>(ntohs(v6->sin6_port)));
  }
  const auto* v4 = reinterpret_cast<const sockaddr_in*>(&addr);
  char host[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &v4->sin_addr, host, sizeof(host));
  return StrFormat("%s:%u", host, static_cast<unsigned>(ntohs(v4->sin_port)));
}

uint16_t SocketAddressPort(const sockaddr_storage& addr) {
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  return 0;
}

// --- Construction --------------------------------------------------------------

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      rx_session_(options_.shard_addresses.size(), 0),
      rx_next_expected_(options_.shard_addresses.size(), 1),
      rx_acked_(options_.shard_addresses.size(), 0),
      inboxes_(options_.peer_count),
      send_seq_(new std::atomic<uint64_t>[options_.peer_count]) {
  for (size_t i = 0; i < options_.peer_count; ++i) {
    send_seq_[i].store(0, std::memory_order_relaxed);
  }
  links_.reserve(options_.shard_addresses.size());
  for (size_t i = 0; i < options_.shard_addresses.size(); ++i) {
    links_.push_back(std::make_unique<Link>());
    links_.back()->shard = static_cast<uint32_t>(i);
    links_.back()->conn_id = next_conn_id_.fetch_add(1);
  }
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::Create(
    SocketTransportOptions options) {
  if (options.peer_count == 0) {
    return Status::InvalidArgument("socket transport needs at least one peer");
  }
  if (options.shard_addresses.empty()) {
    return Status::InvalidArgument("socket transport needs shard addresses");
  }
  if (options.local_shard >= options.shard_addresses.size()) {
    return Status::OutOfRange(
        StrFormat("local shard %u beyond the %zu configured shards",
                  options.local_shard, options.shard_addresses.size()));
  }
  if (!options.shard_of.empty()) {
    if (options.shard_of.size() != options.peer_count) {
      return Status::InvalidArgument(
          "shard_of must assign every peer (or be empty)");
    }
    for (uint32_t shard : options.shard_of) {
      if (shard >= options.shard_addresses.size()) {
        return Status::OutOfRange(
            StrFormat("peer assigned to unknown shard %u", shard));
      }
    }
  }
  if (options.delay_ticks == 0) {
    return Status::InvalidArgument(
        "socket transport needs delay_ticks >= 1 (same-tick delivery "
        "cannot be flushed through a real wire)");
  }
  if (options.retransmit_timeout_ms <= 0 ||
      options.reconnect_backoff_initial_ms <= 0 ||
      options.reconnect_backoff_max_ms <
          options.reconnect_backoff_initial_ms) {
    return Status::InvalidArgument(
        "retransmit/backoff windows must be positive and ordered");
  }
  if (options.shutdown_drain_ms < 0) {
    return Status::InvalidArgument("shutdown_drain_ms must be >= 0");
  }
  std::unique_ptr<SocketTransport> transport(
      new SocketTransport(std::move(options)));
  PDMS_RETURN_IF_ERROR(transport->Initialize());
  return transport;
}

std::unique_ptr<SocketTransport> SocketTransport::CreateLoopback(
    size_t peer_count) {
  SocketTransportOptions options;
  options.peer_count = peer_count;
  options.shard_addresses = {"127.0.0.1:0"};
  auto created = Create(std::move(options));
  if (!created.ok()) {
    PDMS_LOG_ERROR << "loopback socket transport failed: "
                   << created.status().ToString();
    return nullptr;
  }
  return std::move(created).value();
}

Status SocketTransport::Initialize() {
  sockaddr_storage bind_addr{};
  socklen_t bind_len = 0;
  PDMS_RETURN_IF_ERROR(ParseSocketAddress(
      options_.shard_addresses[options_.local_shard], &bind_addr, &bind_len));

  listen_fd_ = socket(bind_addr.ss_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind_addr.ss_family == AF_INET6) {
    // Dual-stack: an IPv6 listener also accepts IPv4 dialers (as
    // v4-mapped addresses).
    const int off = 0;
    setsockopt(listen_fd_, IPPROTO_IPV6, IPV6_V6ONLY, &off, sizeof(off));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&bind_addr), bind_len) <
      0) {
    return Status::Unavailable(
        StrFormat("bind(%s): %s",
                  options_.shard_addresses[options_.local_shard].c_str(),
                  std::strerror(errno)));
  }
  if (listen(listen_fd_, 64) < 0) {
    return Status::Internal(StrFormat("listen: %s", std::strerror(errno)));
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  local_address_ = RenderSocketAddress(bound);
  options_.shard_addresses[options_.local_shard] = local_address_;

  // A fresh session id per transport incarnation: the handshake uses it to
  // distinguish "same peer reconnecting" (keep the receive cursor) from
  // "peer restarted" (adopt its announced cursor).
  static std::atomic<uint64_t> incarnation{0};
  const uint64_t entropy =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      ((incarnation.fetch_add(1) + 1) * 0x9e3779b97f4a7c15ull) ^
      reinterpret_cast<uintptr_t>(this);
  session_id_ = SplitMix64(entropy).Next();
  if (session_id_ == 0) session_id_ = 1;

  epoll_fd_ = epoll_create1(0);
  wake_fd_ = eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal(
        StrFormat("epoll/eventfd: %s", std::strerror(errno)));
  }
  Watch(EPOLL_CTL_ADD, listen_fd_, kListenTag, EPOLLIN);
  Watch(EPOLL_CTL_ADD, wake_fd_, kWakeTag, EPOLLIN);

  loop_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

template <typename Done>
Result<bool> SocketTransport::AwaitLoop(int timeout_ms, Done done) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  const bool held = barrier_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        return loop_failed_.load(std::memory_order_acquire) || done();
      });
  if (loop_failed_.load(std::memory_order_acquire)) return loop_error();
  return held;
}

void SocketTransport::Shutdown() {
  bool expected = false;
  if (!shutdown_started_.compare_exchange_strong(expected, true)) return;
  // Linger briefly so frames staged just before shutdown — a node's final
  // round mark, say — survive an in-flight retransmit cycle. Without this a
  // faulted final frame dies with the process and the peer waits out its
  // full mark timeout instead of finishing. The loop thread keeps
  // retransmitting while we wait; peers ack at the transport layer, so the
  // drain does not depend on anyone consuming the frames upstream.
  (void)AwaitLoop(options_.shutdown_drain_ms, [this] {
    return unacked_frames_.load(std::memory_order_acquire) == 0;
  });
  const uint64_t undrained = unacked_frames_.load(std::memory_order_acquire);
  if (undrained > 0) {
    counters_.frames_dropped_at_shutdown.fetch_add(undrained,
                                                   std::memory_order_relaxed);
    PDMS_LOG_WARNING << "shutdown drain deadline ("
                     << options_.shutdown_drain_ms << "ms) expired with "
                     << undrained << " frames unacked";
  }
  stop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
}

SocketTransport::~SocketTransport() {
  Shutdown();
  for (const auto& link : links_) {
    if (link->fd >= 0) close(link->fd);
  }
  for (const auto& connection : connections_) {
    if (connection->fd >= 0) close(connection->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

// --- Driver-side API -----------------------------------------------------------

void SocketTransport::Send(PeerId from, PeerId to, std::optional<EdgeId> via,
                           Payload payload) {
  const MessageKind kind = KindOf(payload);
  const WireBreakdown breakdown = PayloadWireBreakdown(payload);
  counters_.CountSent(kind, breakdown);

  Envelope envelope{
      .from = from,
      .to = to,
      .via = via,
      .deliver_at = now() + options_.delay_ticks,
      .seq = send_seq_[from].fetch_add(1, std::memory_order_relaxed),
      .payload = std::move(payload)};

  const uint32_t shard = shard_of(to);
  if (shard == options_.local_shard) {
    loopback_sent_.fetch_add(1, std::memory_order_release);
  }
  data_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  StageFrameOnLink(shard, Frame{std::move(envelope)}, /*is_data=*/true);
  WakeLoop();
}

std::vector<Envelope> SocketTransport::Drain(PeerId peer) {
  std::vector<Envelope> due;
  DrainInto(peer, &due);
  return due;
}

void SocketTransport::DrainInto(PeerId peer, std::vector<Envelope>* out) {
  if (peer >= inboxes_.size()) {
    out->clear();
    return;
  }
  inboxes_.DrainInto(peer, now(), out, counters_);
}

PeerId SocketTransport::NextPeerWithMail(PeerId from) const {
  return inboxes_.NextWithMail(from);
}

bool SocketTransport::BarrierSatisfied() const {
  return loopback_sent_.load(std::memory_order_acquire) ==
         loopback_received_.load(std::memory_order_acquire);
}

Status SocketTransport::AwaitLoopback() {
  PDMS_ASSIGN_OR_RETURN(
      const bool quiesced,
      AwaitLoop(options_.barrier_timeout_ms,
                [this] { return BarrierSatisfied(); }));
  if (!quiesced) {
    return Status::DeadlineExceeded(StrFormat(
        "tick barrier: %llu self-addressed frames undelivered after %dms",
        static_cast<unsigned long long>(
            loopback_sent_.load(std::memory_order_acquire) -
            loopback_received_.load(std::memory_order_acquire)),
        options_.barrier_timeout_ms));
  }
  return Status::Ok();
}

Status SocketTransport::AdvanceTickWithStatus() {
  Status result = AwaitLoopback();
  if (!result.ok()) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (barrier_status_.ok()) barrier_status_ = result;
  }
  // The clock advances regardless: a degraded caller may prefer limping on
  // over deadlock, and the sticky status records what happened.
  now_.fetch_add(1, std::memory_order_release);
  return result;
}

void SocketTransport::AdvanceTick() {
  const Status status = AdvanceTickWithStatus();
  if (!status.ok()) {
    PDMS_LOG_WARNING << "socket transport tick: " << status.ToString();
  }
}

Status SocketTransport::barrier_status() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return barrier_status_;
}

bool SocketTransport::HasPendingMessages() const {
  return inboxes_.NextWithMail(0) < inboxes_.size() ||
         outstanding_data_.load(std::memory_order_acquire) > 0 ||
         !BarrierSatisfied();
}

const TransportStats& SocketTransport::stats() const {
  counters_.SnapshotTo(&stats_snapshot_);
  return stats_snapshot_;
}

void SocketTransport::ResetStats() { counters_.Reset(); }

Status SocketTransport::SetShardAddress(uint32_t shard, std::string address) {
  if (shard >= links_.size()) {
    return Status::OutOfRange(StrFormat("unknown shard %u", shard));
  }
  Link& link = *links_[shard];
  if (link.connected.load(std::memory_order_acquire) ||
      link.dial_requested.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        StrFormat("shard %u link already dialing", shard));
  }
  sockaddr_storage parsed{};
  socklen_t parsed_len = 0;
  PDMS_RETURN_IF_ERROR(ParseSocketAddress(address, &parsed, &parsed_len));
  std::lock_guard<std::mutex> lock(address_mutex_);
  options_.shard_addresses[shard] = std::move(address);
  return Status::Ok();
}

Status SocketTransport::ConnectAll() {
  for (const auto& link : links_) {
    link->dial_requested.store(true, std::memory_order_release);
  }
  WakeLoop();
  PDMS_ASSIGN_OR_RETURN(
      const bool connected,
      AwaitLoop(options_.connect_timeout_ms, [this] {
        for (const auto& link : links_) {
          if (!link->connected.load(std::memory_order_acquire) &&
              !link->abandoned.load(std::memory_order_acquire)) {
            return false;
          }
        }
        return true;
      }));
  if (!connected) {
    return Status::Unavailable(
        StrFormat("not all shards reachable within %dms",
                  options_.connect_timeout_ms));
  }
  return Status::Ok();
}

Status SocketTransport::loop_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return error_;
}

Status SocketTransport::AbandonShard(uint32_t shard) {
  if (shard >= links_.size()) {
    return Status::OutOfRange(StrFormat("unknown shard %u", shard));
  }
  if (shard == options_.local_shard) {
    return Status::InvalidArgument("cannot abandon the local shard");
  }
  links_[shard]->abandoned.store(true, std::memory_order_release);
  WakeLoop();
  return Status::Ok();
}

bool SocketTransport::IsAbandoned(uint32_t shard) const {
  return shard < links_.size() &&
         links_[shard]->abandoned.load(std::memory_order_acquire);
}

Status SocketTransport::ReadmitShard(uint32_t shard, std::string address) {
  if (shard >= links_.size()) {
    return Status::OutOfRange(StrFormat("unknown shard %u", shard));
  }
  if (shard == options_.local_shard) {
    return Status::InvalidArgument("cannot readmit the local shard");
  }
  Link& link = *links_[shard];
  if (!link.abandoned.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        StrFormat("shard %u is not quarantined", shard));
  }
  sockaddr_storage parsed{};
  socklen_t parsed_len = 0;
  PDMS_RETURN_IF_ERROR(ParseSocketAddress(address, &parsed, &parsed_len));
  {
    std::lock_guard<std::mutex> lock(address_mutex_);
    options_.shard_addresses[shard] = std::move(address);
  }
  link.readmit_requested.store(true, std::memory_order_release);
  WakeLoop();
  // Block until the loop lifts the quarantine: frames staged to a shard
  // whose `abandoned` flag is still set are silently dropped, and callers
  // stage the re-admission handshake right after this returns.
  PDMS_ASSIGN_OR_RETURN(const bool cleared, AwaitLoop(5000, [&link] {
    return !link.abandoned.load(std::memory_order_acquire);
  }));
  if (!cleared) {
    return Status::DeadlineExceeded(
        StrFormat("event loop did not readmit shard %u in time", shard));
  }
  return Status::Ok();
}

std::vector<Envelope> SocketTransport::CaptureInboxes() {
  return inboxes_.Capture();
}

Status SocketTransport::RestoreInboxes(std::vector<Envelope> frames) {
  for (const Envelope& frame : frames) {
    if (frame.to >= inboxes_.size()) {
      return Status::OutOfRange(StrFormat(
          "captured frame addressed to unknown peer %u", frame.to));
    }
  }
  inboxes_.Replace(std::move(frames));
  NotifyBarrier();
  return Status::Ok();
}

void SocketTransport::SetNow(uint64_t tick) {
  now_.store(tick, std::memory_order_release);
}

void SocketTransport::SetControlHandler(ControlHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mutex_);
  handler_ = std::move(handler);
}

Status SocketTransport::SendControl(uint32_t shard, const Frame& frame) {
  if (shard >= links_.size()) {
    return Status::OutOfRange(StrFormat("unknown shard %u", shard));
  }
  StageFrameOnLink(shard, frame, /*is_data=*/false);
  WakeLoop();
  return Status::Ok();
}

Status SocketTransport::SendOnConnection(uint64_t connection,
                                         const Frame& frame) {
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  frame_bytes_sent_.fetch_add(bytes.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(control_outbox_mutex_);
    control_outbox_.emplace_back(connection, std::move(bytes));
  }
  WakeLoop();
  return Status::Ok();
}

FaultStats SocketTransport::link_fault_stats() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return link_fault_stats_;
}

void SocketTransport::StageFrameOnLink(uint32_t shard, const Frame& frame,
                                       bool is_data) {
  Link& link = *links_[shard];
  if (link.abandoned.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(link.mutex);
  TxEntry entry;
  entry.is_data = is_data;
  // Sequence assignment and staging share the lock so ring order is
  // ascending-seq by construction.
  entry.seq = link.tx_next_seq++;
  EncodeFrame(frame, entry.seq, &entry.bytes);
  frame_bytes_sent_.fetch_add(entry.bytes.size(), std::memory_order_relaxed);
  // Self-link data is excluded: loopback delivery is tracked exactly by the
  // loopback_sent_/received_ barrier, and waiting for our own acks would
  // keep HasPendingMessages true after every message was already drained.
  if (is_data && shard != options_.local_shard) {
    outstanding_data_.fetch_add(1, std::memory_order_release);
  }
  unacked_frames_.fetch_add(1, std::memory_order_release);
  link.pending.push_back(std::move(entry));
}

void SocketTransport::Watch(int op, int fd, uint64_t tag, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = tag;
  epoll_ctl(epoll_fd_, op, fd, &event);
}

void SocketTransport::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void SocketTransport::NotifyBarrier() {
  // Lock/unlock pairs the notification with any waiter's predicate check,
  // so a wakeup between check and wait cannot be lost.
  { std::lock_guard<std::mutex> lock(barrier_mutex_); }
  barrier_cv_.notify_all();
}

void SocketTransport::FailLoop(Status status) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.ok()) error_ = status;
  }
  loop_failed_.store(true, std::memory_order_release);
  PDMS_LOG_ERROR << "socket transport event loop: " << status.ToString();
  NotifyBarrier();
}

// --- Event loop ----------------------------------------------------------------

void SocketTransport::LoopMain() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    LoopStartDials();
    LoopDrainControlOutbox();
    for (const auto& link : links_) {
      if (link->fd >= 0 && !link->connect_in_progress) LoopFlushLink(*link);
    }
    LoopCheckRetransmitTimers();
    const int count = epoll_wait(epoll_fd_, events, 64, 10);
    for (int i = 0; i < count; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t n =
            read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (tag == kListenTag) {
        LoopHandleListen();
        continue;
      }
      bool handled = false;
      for (const auto& link : links_) {
        if (link->conn_id == tag && link->fd >= 0) {
          LoopHandleLinkEvent(*link, events[i].events);
          handled = true;
          break;
        }
      }
      if (handled) continue;
      for (size_t c = 0; c < connections_.size(); ++c) {
        if (connections_[c]->conn_id == tag) {
          LoopHandleConnectionEvent(c, events[i].events);
          break;
        }
      }
    }
    NotifyBarrier();
  }
}

void SocketTransport::LoopStartDials() {
  if (loop_failed_.load(std::memory_order_acquire)) return;
  const auto now_time = std::chrono::steady_clock::now();
  for (size_t shard = 0; shard < links_.size(); ++shard) {
    Link& link = *links_[shard];
    if (link.abandoned.load(std::memory_order_acquire)) {
      // Discard anything staged before (or during) the quarantine; a
      // pending readmission then lifts the flag with a clean slate and
      // falls through to the ordinary dial path below.
      LoopPurgeAbandoned(link);
      if (!link.readmit_requested.load(std::memory_order_acquire)) continue;
      link.readmit_requested.store(false, std::memory_order_release);
      link.backoff_ms = 0;
      link.next_attempt = {};
      link.dial_deadline_set = false;
      link.abandoned.store(false, std::memory_order_release);
      link.dial_requested.store(true, std::memory_order_release);
      // ReadmitShard blocks on this transition.
      NotifyBarrier();
    }
    if (link.fd >= 0) continue;
    bool wants_dial =
        link.dial_requested.load(std::memory_order_acquire) ||
        !link.ring.empty();
    if (!wants_dial) {
      std::lock_guard<std::mutex> lock(link.mutex);
      wants_dial = !link.pending.empty();
    }
    if (!wants_dial || now_time < link.next_attempt) continue;

    // Only the *first* connection is deadline-bound: a shard that was
    // reachable once is assumed to be restarting, and the link retries
    // with backoff until it returns (or is abandoned).
    if (!link.ever_connected) {
      if (!link.dial_deadline_set) {
        link.dial_deadline =
            now_time + std::chrono::milliseconds(options_.connect_timeout_ms);
        link.dial_deadline_set = true;
      } else if (now_time > link.dial_deadline) {
        FailLoop(Status::Unavailable(
            StrFormat("shard %zu unreachable after %dms", shard,
                      options_.connect_timeout_ms)));
        return;
      }
    }

    sockaddr_storage addr{};
    socklen_t addr_len = 0;
    {
      std::lock_guard<std::mutex> lock(address_mutex_);
      const std::string& target =
          shard == options_.local_shard ? local_address_
                                        : options_.shard_addresses[shard];
      const Status parsed = ParseSocketAddress(target, &addr, &addr_len);
      if (!parsed.ok() || SocketAddressPort(addr) == 0) {
        // Address not yet announced (ephemeral remote): retry shortly.
        link.next_attempt = now_time + std::chrono::milliseconds(50);
        continue;
      }
    }
    const int fd = socket(addr.ss_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      link.next_attempt = now_time + std::chrono::milliseconds(100);
      continue;
    }
    const int rc =
        connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len);
    if (rc == 0 || errno == EINPROGRESS) {
      link.fd = fd;
      link.connect_in_progress = true;
      Watch(EPOLL_CTL_ADD, fd, link.conn_id, EPOLLIN | EPOLLOUT);
    } else {
      close(fd);
      link.next_attempt = now_time + std::chrono::milliseconds(100);
    }
  }
}

void SocketTransport::LoopCheckRetransmitTimers() {
  const auto now_time = std::chrono::steady_clock::now();
  for (const auto& link_ptr : links_) {
    Link& link = *link_ptr;
    if (link.fd < 0 || link.connect_in_progress) continue;
    if (!link.awaiting_ack && link.ring.empty()) continue;
    if (now_time > link.progress_deadline) {
      LoopScheduleReconnect(link, "no ack progress");
    }
  }
}

void SocketTransport::LoopPurgeAbandoned(Link& link) {
  uint64_t data_dropped = 0;
  uint64_t total_dropped = 0;
  const auto drop = [&](auto& entries) {
    for (const TxEntry& entry : entries) {
      if (entry.is_data && link.shard != options_.local_shard) ++data_dropped;
      ++total_dropped;
    }
    entries.clear();
  };
  LoopDisconnectLink(link);
  drop(link.ring);
  {
    std::lock_guard<std::mutex> lock(link.mutex);
    drop(link.pending);
    // The purged sequences are gone for good. Advance the resume cursor
    // past them so the hello after a readmission announces where traffic
    // actually restarts, instead of a base the receiver would wait on
    // forever (costing it a gap-drop + reconnect to re-learn).
    link.cursor_seq = link.tx_next_seq;
  }
  if (data_dropped > 0) {
    outstanding_data_.fetch_sub(data_dropped, std::memory_order_release);
  }
  if (total_dropped > 0) {
    unacked_frames_.fetch_sub(total_dropped, std::memory_order_release);
  }
  if (data_dropped > 0 || total_dropped > 0) {
    NotifyBarrier();
  }
}

void SocketTransport::LoopCloseStream(ByteStream& stream) {
  if (stream.fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, stream.fd, nullptr);
    close(stream.fd);
    stream.fd = -1;
  }
  stream.assembler = FrameAssembler();
  stream.out.clear();
  stream.out_offset = 0;
}

void SocketTransport::LoopDisconnectLink(Link& link) {
  LoopCloseStream(link);
  link.connect_in_progress = false;
  link.awaiting_ack = false;
  link.kill_after_flush = false;
  link.connected.store(false, std::memory_order_release);
}

void SocketTransport::LoopScheduleReconnect(Link& link, const char* reason) {
  LoopDisconnectLink(link);
  // Rewind to the ring base: everything unacked goes out again after the
  // next handshake; the receiver's cursor discards what it already has.
  if (!link.ring.empty()) link.cursor_seq = link.ring.front().seq;

  link.backoff_ms =
      link.backoff_ms == 0
          ? options_.reconnect_backoff_initial_ms
          : std::min(link.backoff_ms * 2, options_.reconnect_backoff_max_ms);
  // Deterministic jitter (up to +50%) de-synchronizes competing redials.
  const uint64_t draw =
      SplitMix64(session_id_ ^
                 (static_cast<uint64_t>(link.shard) * 0xa24baed4963ee407ull) ^
                 (++link.redials * 0x9fb21c651e98df25ull))
          .Next();
  const int jitter =
      link.backoff_ms > 1 ? static_cast<int>(draw % (link.backoff_ms / 2 + 1))
                          : 0;
  link.next_attempt = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(link.backoff_ms + jitter);
  if (link.ever_connected) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    PDMS_LOG_WARNING << "shard " << link.shard << " link down (" << reason
                     << "); redialing in " << link.backoff_ms << "ms";
  }
  NotifyBarrier();
}

void SocketTransport::LoopFlushLink(Link& link) {
  // Adopt staged frames into the retransmit ring (ascending seq).
  {
    std::lock_guard<std::mutex> lock(link.mutex);
    if (!link.pending.empty()) {
      if (link.ring.empty()) link.cursor_seq = link.pending.front().seq;
      for (TxEntry& entry : link.pending) {
        link.ring.push_back(std::move(entry));
      }
      link.pending.clear();
    }
  }
  if (link.fd < 0 || link.connect_in_progress) return;
  if (!link.awaiting_ack) LoopPullRingIntoOut(link);
  if (!LoopFlushStream(link)) {
    LoopScheduleReconnect(link, std::strerror(errno));
  } else if (link.kill_after_flush && link.out.empty()) {
    link.kill_after_flush = false;
    LoopScheduleReconnect(link, "injected link kill");
  }
}

bool SocketTransport::LoopReadStream(ByteStream& stream) {
  uint8_t buffer[65536];
  for (;;) {
    const ssize_t n = recv(stream.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      stream.assembler.Feed(std::span<const uint8_t>(buffer, n));
      continue;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool SocketTransport::LoopFlushStream(ByteStream& stream) {
  while (stream.out_offset < stream.out.size()) {
    const ssize_t n =
        ::send(stream.fd, stream.out.data() + stream.out_offset,
               stream.out.size() - stream.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      stream.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  const bool backlogged = stream.out_offset < stream.out.size();
  if (!backlogged) {
    stream.out.clear();
    stream.out_offset = 0;
  }
  Watch(EPOLL_CTL_MOD, stream.fd, stream.conn_id,
        EPOLLIN | (backlogged ? EPOLLOUT : 0u));
  return true;
}

void SocketTransport::LoopArmProgressDeadline(Link& link) {
  link.progress_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.retransmit_timeout_ms);
}

void SocketTransport::LoopAppendSessionFrame(ByteStream& stream,
                                             const Frame& frame) {
  const size_t before = stream.out.size();
  EncodeFrame(frame, &stream.out);
  frame_bytes_sent_.fetch_add(stream.out.size() - before,
                              std::memory_order_relaxed);
}

void SocketTransport::LoopPullRingIntoOut(Link& link) {
  if (link.ring.empty()) return;
  const FaultPlan& plan = options_.link_fault_plan;
  const uint64_t stream =
      (static_cast<uint64_t>(options_.local_shard) << 32) | link.shard;
  bool advanced = false;
  auto append = [&link](const std::vector<uint8_t>& bytes) {
    link.out.insert(link.out.end(), bytes.begin(), bytes.end());
  };
  while (link.cursor_seq <= link.ring.back().seq &&
         link.out.size() < kMaxStagedOutBytes) {
    TxEntry& entry = link.ring[link.cursor_seq - link.ring.front().seq];
    const uint32_t attempt = entry.tries++;
    if (attempt > 0) {
      frames_retransmitted_.fetch_add(1, std::memory_order_relaxed);
    }
    advanced = true;
    if (plan.Enabled()) {
      const FaultDecision decision =
          DrawFaults(plan, stream, entry.seq, attempt);
      std::lock_guard<std::mutex> lock(fault_mutex_);
      ++link_fault_stats_.events;
      if (decision.kill_link) {
        link.kill_after_flush = true;
        ++link_fault_stats_.links_killed;
      }
      if (decision.reorder && link.cursor_seq < link.ring.back().seq) {
        // Adjacent swap: the next frame overtakes this one on the wire;
        // the receiver sees a gap, drops the early frame and recovers
        // both by retransmission.
        TxEntry& next =
            link.ring[link.cursor_seq + 1 - link.ring.front().seq];
        ++next.tries;
        append(next.bytes);
        append(entry.bytes);
        ++link_fault_stats_.reordered;
        link.cursor_seq += 2;
        continue;
      }
      if (decision.drop) {
        ++link_fault_stats_.dropped;
        link.cursor_seq += 1;
        continue;
      }
      if (decision.corrupt) {
        // Flip one bit past the length prefix: framing survives, the CRC
        // (or the seq/body it covers) is provably violated, and the
        // receiver turns the frame into a reconnect + retransmit.
        std::vector<uint8_t> mangled = entry.bytes;
        const uint64_t bit =
            32 + decision.corrupt_entropy % ((mangled.size() - 4) * 8);
        mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        append(mangled);
        ++link_fault_stats_.corrupted;
        link.cursor_seq += 1;
        continue;
      }
      if (decision.duplicate) {
        append(entry.bytes);
        append(entry.bytes);
        ++link_fault_stats_.duplicated;
        link.cursor_seq += 1;
        continue;
      }
    }
    append(entry.bytes);
    link.cursor_seq += 1;
  }
  if (advanced) LoopArmProgressDeadline(link);
}

void SocketTransport::LoopHandleLinkEvent(Link& link, uint32_t events) {
  if (link.connect_in_progress) {
    int error = 0;
    socklen_t len = sizeof(error);
    getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0 || (events & (EPOLLERR | EPOLLHUP))) {
      LoopScheduleReconnect(link, "connect failed");
      return;
    }
    link.connect_in_progress = false;
    SetNoDelay(link.fd);
    // Handshake: announce our session and where the retransmit ring
    // resumes. The link is usable once the peer's ack arrives.
    HelloFrame hello;
    hello.shard = options_.local_shard;
    hello.shard_count = shard_count();
    hello.peer_count = options_.peer_count;
    hello.session_id = session_id_;
    hello.next_seq =
        link.ring.empty() ? link.cursor_seq : link.ring.front().seq;
    LoopAppendSessionFrame(link, Frame{hello});
    link.awaiting_ack = true;
    LoopArmProgressDeadline(link);
    LoopFlushLink(link);
    return;
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    LoopScheduleReconnect(link, "link reset");
    return;
  }
  if (events & EPOLLIN) {
    if (!LoopReadStream(link)) {
      LoopScheduleReconnect(link, "link closed");
      return;
    }
    // The dialer side of a link only ever receives acks.
    for (;;) {
      auto next = link.assembler.Next();
      if (!next.ok()) {
        LoopScheduleReconnect(link, "corrupt ack stream");
        return;
      }
      if (!next->has_value()) break;
      if (const auto* ack = std::get_if<LinkAckFrame>(&**next)) {
        LoopHandleAck(link, *ack);
        if (link.fd < 0) return;  // reconnect scheduled mid-parse
      }
    }
  }
  if (events & EPOLLOUT) LoopFlushLink(link);
}

void SocketTransport::LoopHandleAck(Link& link, const LinkAckFrame& ack) {
  if (ack.session_id != session_id_) return;  // stale incarnation
  const uint64_t base =
      link.ring.empty() ? link.cursor_seq : link.ring.front().seq;
  const uint64_t upper = base + link.ring.size();
  if (ack.next_expected < base || ack.next_expected > upper) {
    LoopScheduleReconnect(link, "implausible ack");
    return;
  }
  uint64_t trimmed_data = 0;
  uint64_t trimmed_total = 0;
  bool progressed = ack.next_expected > base;
  while (!link.ring.empty() && link.ring.front().seq < ack.next_expected) {
    if (link.ring.front().is_data && link.shard != options_.local_shard) {
      ++trimmed_data;
    }
    ++trimmed_total;
    link.ring.pop_front();
  }
  if (link.cursor_seq < ack.next_expected) {
    link.cursor_seq = ack.next_expected;
  }
  if (link.awaiting_ack) {
    // Handshake complete; the peer told us where to resume.
    link.awaiting_ack = false;
    link.ever_connected = true;
    link.backoff_ms = 0;
    link.connected.store(true, std::memory_order_release);
    progressed = true;
  }
  if (progressed) LoopArmProgressDeadline(link);
  if (trimmed_data > 0) {
    outstanding_data_.fetch_sub(trimmed_data, std::memory_order_release);
  }
  if (trimmed_total > 0) {
    unacked_frames_.fetch_sub(trimmed_total, std::memory_order_release);
  }
  NotifyBarrier();
  LoopFlushLink(link);
}

void SocketTransport::LoopHandleListen() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    SetNoDelay(fd);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connection->conn_id = next_conn_id_.fetch_add(1);
    connection->remote_shard = shard_count();  // unknown until hello
    Watch(EPOLL_CTL_ADD, fd, connection->conn_id, EPOLLIN);
    connections_.push_back(std::move(connection));
  }
}

void SocketTransport::LoopHandleHello(Connection& connection,
                                      const HelloFrame& hello) {
  if (hello.peer_count != options_.peer_count ||
      hello.shard_count != shard_count()) {
    PDMS_LOG_WARNING << "hello topology mismatch: remote has "
                     << hello.peer_count << " peers across "
                     << hello.shard_count << " shards";
  }
  if (hello.shard >= shard_count()) return;  // client connection
  connection.remote_shard = hello.shard;
  connection.greeted = true;
  const uint32_t shard = hello.shard;
  if (rx_session_[shard] != hello.session_id) {
    // A new peer incarnation: adopt its announced cursor. (A reconnect of
    // the same session keeps ours — that is what makes redelivery of
    // already-accepted frames a skip instead of a double-apply.)
    rx_session_[shard] = hello.session_id;
    rx_next_expected_[shard] = hello.next_seq;
  } else if (hello.next_seq > rx_next_expected_[shard]) {
    rx_next_expected_[shard] = hello.next_seq;
  }
  rx_acked_[shard] = 0;  // force a fresh ack on this connection
  LoopStageAck(connection);
}

void SocketTransport::LoopStageAck(Connection& connection) {
  if (!connection.greeted) return;
  const uint32_t shard = connection.remote_shard;
  if (rx_acked_[shard] == rx_next_expected_[shard]) return;
  LinkAckFrame ack;
  ack.shard = options_.local_shard;
  ack.session_id = rx_session_[shard];
  ack.next_expected = rx_next_expected_[shard];
  LoopAppendSessionFrame(connection, Frame{ack});
  rx_acked_[shard] = rx_next_expected_[shard];
}

bool SocketTransport::LoopDispatchSequenced(Connection& connection,
                                            Frame frame, uint64_t seq) {
  const uint32_t shard = connection.remote_shard;
  uint64_t& expected = rx_next_expected_[shard];
  if (seq < expected) {
    // Redelivery of an already-accepted frame (duplicate or retransmit
    // overlap): skip, the periodic ack re-educates the sender.
    duplicate_frames_skipped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (seq > expected) {
    PDMS_LOG_WARNING << "sequence gap from shard " << shard << " (got " << seq
                     << ", expected " << expected
                     << "); dropping connection for retransmit";
    return false;
  }
  expected = seq + 1;
  if (shard < links_.size() &&
      links_[shard]->abandoned.load(std::memory_order_acquire) &&
      !std::holds_alternative<RejoinFrame>(frame)) {
    // Quarantined shard: keep acking so its transport does not spin on
    // retransmits, but deliver nothing. A rejoin request is the one
    // exception — it is precisely how a restarted shard asks the
    // quarantine to be lifted, so it still reaches the control handler.
    return true;
  }
  if (auto* data = std::get_if<DataFrame>(&frame)) {
    LoopDeliverData(std::move(*data), shard);
    return true;
  }
  if (std::holds_alternative<LinkAckFrame>(frame) ||
      std::holds_alternative<HelloFrame>(frame)) {
    return true;  // session frames are never sequenced; ignore defensively
  }
  // Invoked under the lock so SetControlHandler(nullptr) doubles as a
  // barrier: once it returns, no invocation is in flight and the owner's
  // state (condition variables included) is safe to destroy.
  std::lock_guard<std::mutex> lock(handler_mutex_);
  if (handler_) handler_(std::move(frame), connection.conn_id, shard);
  return true;
}

void SocketTransport::LoopDeliverData(Envelope data, uint32_t remote_shard) {
  if (data.to >= options_.peer_count || !IsLocalPeer(data.to)) {
    PDMS_LOG_WARNING << "dropping data frame for non-local peer " << data.to;
    return;
  }
  inboxes_.Insert(std::move(data));
  if (remote_shard == options_.local_shard) {
    loopback_received_.fetch_add(1, std::memory_order_release);
  }
  NotifyBarrier();
}

void SocketTransport::LoopHandleConnectionEvent(size_t index,
                                                uint32_t events) {
  Connection& connection = *connections_[index];
  bool close_connection = false;
  if (events & (EPOLLERR | EPOLLHUP)) {
    close_connection = true;
  } else if (events & EPOLLIN) {
    // An orderly close or error still lets the frames already read through.
    close_connection = !LoopReadStream(connection);
    for (;;) {
      auto next = connection.assembler.Next();
      if (!next.ok()) {
        // Corrupt or malformed stream: drop the connection. A shard link
        // behind it will reconnect and retransmit; a client just failed.
        PDMS_LOG_WARNING << "closing connection: "
                         << next.status().ToString();
        close_connection = true;
        break;
      }
      if (!next->has_value()) break;
      Frame frame = std::move(**next);
      const uint64_t seq = connection.assembler.last_seq();
      if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
        LoopHandleHello(connection, *hello);
        continue;
      }
      if (seq == 0) {
        // Session-control lane: query RPCs from clients (and, on shard
        // links, nothing else we care about).
        if (std::holds_alternative<DataFrame>(frame) ||
            std::holds_alternative<LinkAckFrame>(frame)) {
          continue;
        }
        ControlHandler handler;
        {
          std::lock_guard<std::mutex> lock(handler_mutex_);
          handler = handler_;
        }
        if (handler) {
          handler(std::move(frame), connection.conn_id,
                  connection.greeted ? connection.remote_shard
                                     : shard_count());
        }
        continue;
      }
      if (!connection.greeted) {
        PDMS_LOG_WARNING << "sequenced frame before hello; dropping "
                            "connection";
        close_connection = true;
        break;
      }
      if (!LoopDispatchSequenced(connection, std::move(frame), seq)) {
        close_connection = true;
        break;
      }
    }
    if (!close_connection) LoopStageAck(connection);
  }
  if (!close_connection &&
      ((events & EPOLLOUT) != 0 ||
       connection.out_offset < connection.out.size())) {
    close_connection = !LoopFlushStream(connection);
  }
  if (close_connection) {
    LoopCloseStream(connection);
    connections_.erase(connections_.begin() + static_cast<long>(index));
    NotifyBarrier();
  }
}

void SocketTransport::LoopDrainControlOutbox() {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> staged;
  {
    std::lock_guard<std::mutex> lock(control_outbox_mutex_);
    staged.swap(control_outbox_);
  }
  for (auto& [conn_id, bytes] : staged) {
    Connection* target = nullptr;
    for (const auto& connection : connections_) {
      if (connection->conn_id == conn_id) {
        target = connection.get();
        break;
      }
    }
    if (target == nullptr) continue;  // recipient hung up; best-effort lane
    target->out.insert(target->out.end(), bytes.begin(), bytes.end());
    Watch(EPOLL_CTL_MOD, target->fd, target->conn_id, EPOLLIN | EPOLLOUT);
  }
}

}  // namespace pdms
