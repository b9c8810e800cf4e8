#ifndef PDMS_NET_SOCKET_TRANSPORT_H_
#define PDMS_NET_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/fault_injection.h"
#include "net/message.h"
#include "pdms/transport.h"
#include "util/status.h"

namespace pdms {

// --- Address helpers ------------------------------------------------------------

/// Parses "host:port" into a socket address. IPv4 hosts use dotted quads
/// ("127.0.0.1:9000"); IPv6 hosts must be bracketed ("[::1]:9000").
Status ParseSocketAddress(const std::string& address, sockaddr_storage* out,
                          socklen_t* out_len);

/// Renders a socket address back to the textual form `ParseSocketAddress`
/// accepts (IPv6 bracketed).
std::string RenderSocketAddress(const sockaddr_storage& addr);

/// The port of a parsed address, host byte order (0 for unset/unknown).
uint16_t SocketAddressPort(const sockaddr_storage& addr);

/// Configuration of one `SocketTransport` instance — one *shard* of the
/// peer network, exchanging real framed TCP traffic with the other shards.
struct SocketTransportOptions {
  /// Total peers across all shards (the engine's node count).
  size_t peer_count = 0;

  /// Which shard this instance hosts.
  uint32_t local_shard = 0;

  /// Listen address of every shard, "ip:port" or "[ipv6]:port"; index ==
  /// shard id. The local entry may use port 0 (ephemeral) — the bound
  /// address is reported by `local_address()` and remote entries can be
  /// filled in later via `SetShardAddress` (before traffic starts). An
  /// IPv6 listen address accepts IPv4 dialers too (dual-stack).
  std::vector<std::string> shard_addresses = {"127.0.0.1:0"};

  /// shard_of[p] = owning shard of peer p. Empty = every peer is local
  /// (single-shard loopback).
  std::vector<uint32_t> shard_of;

  /// Ticks between send and deliverability, mirroring the in-process
  /// `SimTransport`'s `NetworkOptions::delay_ticks` in pdms/transport.h
  /// (1 = deliverable next tick).
  uint64_t delay_ticks = 1;

  /// How long the *initial* dial of a shard may retry before the transport
  /// reports failure. Once a link has connected at least once, reconnects
  /// retry forever (with backoff) — a restarted peer resumes the stream.
  int connect_timeout_ms = 15000;

  /// Upper bound on the `AdvanceTick` loopback barrier; on timeout the
  /// tick still advances but `barrier_status()` turns non-OK and
  /// `AdvanceTickWithStatus` reports DeadlineExceeded to the caller.
  int barrier_timeout_ms = 120000;

  /// A link with unacked frames that sees no ack progress for this long is
  /// torn down and redialed (retransmitting from the last acked frame).
  int retransmit_timeout_ms = 250;

  /// Reconnect backoff window: the first retry waits the initial delay,
  /// doubling (plus deterministic jitter) up to the max.
  int reconnect_backoff_initial_ms = 20;
  int reconnect_backoff_max_ms = 1000;

  /// How long `Shutdown` (and the destructor) lingers for unacked frames
  /// to drain before giving up on them. Frames still unacked when the
  /// deadline expires are counted in
  /// `TransportStats::frames_dropped_at_shutdown`. 0 = no linger.
  int shutdown_drain_ms = 2000;

  /// Frame-level fault injection on outbound link traffic, applied *below*
  /// the retransmission layer: every injected drop/corruption/kill is
  /// repaired by recovery, so delivered traffic — and the engine's
  /// posteriors — are identical to a fault-free run. Session frames
  /// (hello/ack) are exempt; `delay_ticks_max` is ignored here.
  FaultPlan link_fault_plan;
};

/// Async socket-backed `Transport`: CRC-checked length-prefixed frames
/// (src/net/codec.h) over TCP, an epoll event loop on a dedicated thread,
/// and per-shard outgoing links. Single-shard "loopback" mode routes every
/// envelope through a real self-connection and is a drop-in replacement
/// for `SimTransport` in lossless configurations.
///
/// Reliability: each link carries monotone per-frame sequence numbers and
/// keeps every unacked frame in a retransmit ring. The receiver
/// acknowledges cumulatively (`LinkAckFrame`); duplicates are skipped by
/// sequence, gaps and corrupt frames tear the connection down, and the
/// dialer reconnects with capped exponential backoff, replaying the ring
/// from the last cumulative ack. The hello handshake carries a session id:
/// the acceptor keeps its receive cursor across reconnects of the same
/// session (exactly-once delivery) and resets it for a restarted peer.
///
/// Determinism: the engine's posteriors must be bitwise-identical no matter
/// which transport carries the traffic. Every send is stamped with a
/// per-sender sequence number (`Envelope::seq`), and each arriving frame is
/// inserted into its recipient's inbox at its (deliver_at, from, seq)
/// place, so the inbox is always kept in key order: a drain takes the due
/// prefix and sorts nothing. Within one tick the engine issues sends in
/// ascending-peer order, so this key reproduces exactly the per-mailbox
/// arrival order of the lossless simulator (per-sender order is program
/// order; cross-sender order is ascending peer id) — see
/// `tests/pdms_api_test.cc`'s SocketMatchesSimPosteriorsBitwise. The inboxes
/// are the simulator's own `Mailboxes` (pdms/transport.h), so the drain,
/// the mail bits behind `NextPeerWithMail` and the delivered counting are
/// shared code, and an inbox capture is in key order too. The reliability
/// layer preserves this under faults: retransmission is invisible above
/// the frame layer.
///
/// Tick semantics: `AdvanceTick` is a loopback barrier — it waits until
/// every self-addressed frame staged before the tick has come back through
/// the self connection, then advances the clock. Inter-shard arrival is
/// synchronized one level up by the node daemons' mark exchange
/// (`MarkFrame`) riding the same sequenced links, not by the tick.
///
/// Thread-safety matches the `Transport` contract: `Send` from any thread,
/// `Drain` concurrently for distinct peers and with `Send`; `AdvanceTick`,
/// `stats()`, `ResetStats` are driver-side. The control-plane entry points
/// (`SendControl`, `SendOnConnection`, `AbandonShard`) are safe from any
/// thread; the control handler runs on the event-loop thread and must not
/// block.
class SocketTransport final : public Transport {
 public:
  static Result<std::unique_ptr<SocketTransport>> Create(
      SocketTransportOptions options);

  /// Single-shard loopback instance on an ephemeral port; nullptr when
  /// socket setup fails (no loopback interface).
  static std::unique_ptr<SocketTransport> CreateLoopback(size_t peer_count);

  ~SocketTransport() override;

  std::string_view name() const override { return "socket"; }
  size_t peer_count() const override { return options_.peer_count; }
  uint64_t now() const override { return now_.load(std::memory_order_acquire); }
  void AdvanceTick() override;
  void Send(PeerId from, PeerId to, std::optional<EdgeId> via,
            Payload payload) override;
  std::vector<Envelope> Drain(PeerId peer) override;
  void DrainInto(PeerId peer, std::vector<Envelope>* out) override;
  /// Exact, from the inboxes' mail bits.
  PeerId NextPeerWithMail(PeerId from) const override;
  bool HasPendingMessages() const override;
  const TransportStats& stats() const override;
  void ResetStats() override;

  /// `AdvanceTick` with the barrier outcome surfaced: DeadlineExceeded when
  /// self-addressed frames were still undelivered after
  /// `barrier_timeout_ms` (the tick advances regardless, so a caller can
  /// choose between aborting and limping on).
  Status AdvanceTickWithStatus();

  /// The tick barrier without the tick: blocks until every self-addressed
  /// frame sent so far sits in its inbox. Same errors as
  /// `AdvanceTickWithStatus`, but neither the clock nor the sticky
  /// `barrier_status()` changes.
  Status AwaitLoopback();

  /// First barrier timeout observed (sticky), or OK. Lets drivers using
  /// the plain `Transport` interface detect a degraded clock after the
  /// fact.
  Status barrier_status() const;

  // --- Shard topology ---------------------------------------------------------

  uint32_t local_shard() const { return options_.local_shard; }
  uint32_t shard_count() const {
    return static_cast<uint32_t>(options_.shard_addresses.size());
  }
  uint32_t shard_of(PeerId peer) const {
    return options_.shard_of.empty() ? options_.local_shard
                                     : options_.shard_of[peer];
  }
  bool IsLocalPeer(PeerId peer) const {
    return shard_of(peer) == options_.local_shard;
  }

  /// The bound listen address ("ip:port", port resolved when 0 was asked).
  const std::string& local_address() const { return local_address_; }

  /// Replaces a remote shard's address. Only valid before any traffic has
  /// been staged toward that shard.
  Status SetShardAddress(uint32_t shard, std::string address);

  /// Eagerly dials every shard (including self) and waits until all links
  /// are established or `connect_timeout_ms` passes. Abandoned shards
  /// count as satisfied.
  Status ConnectAll();

  /// First fatal event-loop error (initial dial timeout, listen failure),
  /// or OK. Post-handshake link failures are never fatal — they feed the
  /// reconnect path instead.
  Status loop_error() const;

  /// Quarantines a remote shard: closes its link, discards every staged
  /// and unacked frame toward it, stops redialing it, silently drops any
  /// frame staged for it afterwards, and ignores (while still acking) data
  /// frames arriving from it — except `RejoinFrame`s, which still reach
  /// the control handler so a restarted shard can ask back in. Used by
  /// the node layer when a shard misses its failure-detection deadline;
  /// reversed by `ReadmitShard`. The local shard cannot be abandoned.
  Status AbandonShard(uint32_t shard);

  /// True when `AbandonShard(shard)` was called (and no `ReadmitShard`
  /// has lifted it yet).
  bool IsAbandoned(uint32_t shard) const;

  /// Lifts a quarantine: adopts `address` as the shard's new listen
  /// endpoint (a restarted process binds a fresh ephemeral port), clears
  /// the abandoned flag and redials. The restarted peer presents a new
  /// session id, so both delivery cursors resynchronize through the
  /// ordinary hello handshake — no sequence surgery. Frames staged for
  /// the shard after this call flow normally.
  Status ReadmitShard(uint32_t shard, std::string address);

  // --- Snapshot support (node layer) -------------------------------------------

  /// Copies every undrained inbox entry — the in-flight half of a
  /// consistent cut — in recipient order and then drain order, so one cut
  /// always captures the same sequence. Driver-side: call only at a
  /// quiesced barrier (no concurrent `Send`/`Drain`; the event loop may
  /// run, its deliveries land before or after the whole capture, never
  /// mid-entry).
  std::vector<Envelope> CaptureInboxes();

  /// Replaces all inbox contents with `frames`, given in any order (each
  /// routed by `to` into its drain-order place). Driver-side at a quiesced
  /// barrier, same as `CaptureInboxes`; restoring a capture taken at the
  /// same cut reproduces the exact drain schedule.
  Status RestoreInboxes(std::vector<Envelope> frames);

  /// Forces the transport clock — a snapshot restore must resume at the
  /// captured tick or restored `deliver_at` stamps would sit in the
  /// future forever. Driver-side, before traffic resumes.
  void SetNow(uint64_t tick);

  /// Drains unacked frames (bounded by `shutdown_drain_ms`), then stops
  /// and joins the event loop. Idempotent; the destructor calls it.
  /// Frames still unacked at the deadline are counted in
  /// `stats().frames_dropped_at_shutdown`.
  void Shutdown();

  // --- Control plane (node daemons) -------------------------------------------

  /// Handler for non-data frames (marks, query RPCs), invoked on the
  /// event-loop thread with the originating connection's id and the shard
  /// that connection authenticated as via its hello (`shard_count()` =
  /// ungreeted, e.g. a query client). Set it before traffic starts; it
  /// must not block.
  using ControlHandler =
      std::function<void(Frame frame, uint64_t connection,
                         uint32_t remote_shard)>;
  void SetControlHandler(ControlHandler handler);

  /// Enqueues a control frame on the link to `shard` (sequenced with data
  /// frames staged before it — the property the mark barrier relies on).
  /// Frames to an abandoned shard are dropped without error.
  Status SendControl(uint32_t shard, const Frame& frame);

  /// Enqueues a frame on an accepted connection (query responses). These
  /// ride outside the sequenced stream (best-effort, like the request).
  Status SendOnConnection(uint64_t connection, const Frame& frame);

  // --- Introspection ----------------------------------------------------------

  /// Total framed bytes staged for the wire (length prefixes and frame
  /// headers included, retransmissions excluded) — the measured frame
  /// overhead vs payload-only accounting in `stats().bytes_sent`.
  uint64_t frame_bytes_sent() const {
    return frame_bytes_sent_.load(std::memory_order_relaxed);
  }
  /// Data frames sent since construction (control frames excluded); the
  /// node daemons difference this per step for the mark exchange. Counts
  /// staged frames once — faults and retransmissions don't move it, which
  /// is what keeps mark contents identical under fire.
  uint64_t data_frames_sent() const {
    return data_frames_sent_.load(std::memory_order_relaxed);
  }
  /// Times a link was torn down and redialed after having connected.
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Frames rewritten to the wire after a reconnect rewound the cursor.
  uint64_t frames_retransmitted() const {
    return frames_retransmitted_.load(std::memory_order_relaxed);
  }
  /// Inbound frames skipped as already-delivered duplicates.
  uint64_t duplicate_frames_skipped() const {
    return duplicate_frames_skipped_.load(std::memory_order_relaxed);
  }
  /// Ledger of faults injected by `link_fault_plan` (all zeros when the
  /// plan is disabled).
  FaultStats link_fault_stats() const;

  /// This instance's session id (new per construction; lets tests assert
  /// the restart-detection path).
  uint64_t session_id() const { return session_id_; }

 private:
  /// One staged frame: pristine wire bytes plus its link sequence number.
  /// Lives in `pending` until the event loop adopts it into the ring, and
  /// in the ring until the peer's cumulative ack passes it.
  struct TxEntry {
    uint64_t seq = 0;
    uint32_t tries = 0;  ///< transmissions attempted (fault-draw salt)
    bool is_data = false;
    std::vector<uint8_t> bytes;
  };

  /// The event loop's side of one TCP connection: inbound bytes are
  /// reassembled into frames, outbound bytes wait in `out` until the
  /// socket takes them.
  struct ByteStream {
    int fd = -1;
    uint64_t conn_id = 0;  ///< epoll tag
    FrameAssembler assembler;
    std::vector<uint8_t> out;
    size_t out_offset = 0;  ///< bytes of `out` already sent
  };

  /// Outbound link to one shard. `pending`/`tx_next_seq` are the
  /// cross-thread staging state (guarded by `mutex`); everything else
  /// belongs to the event loop.
  struct Link : ByteStream {
    uint32_t shard = 0;  ///< destination shard of this link
    std::mutex mutex;
    std::vector<TxEntry> pending;
    uint64_t tx_next_seq = 1;  ///< next link sequence number to assign
    std::atomic<bool> dial_requested{false};
    std::atomic<bool> connected{false};  ///< handshake complete
    std::atomic<bool> abandoned{false};
    /// Set by `ReadmitShard`; the event loop clears `abandoned`, resets
    /// the backoff state and redials at the (updated) address.
    std::atomic<bool> readmit_requested{false};

    // Event-loop-owned state.
    bool connect_in_progress = false;
    bool awaiting_ack = false;  ///< hello sent, handshake ack outstanding
    bool ever_connected = false;
    bool kill_after_flush = false;  ///< injected link kill pending
    std::deque<TxEntry> ring;       ///< unacked frames, ascending seq
    uint64_t cursor_seq = 1;        ///< next seq to put on the wire
    int backoff_ms = 0;
    uint64_t redials = 0;  ///< jitter salt
    std::chrono::steady_clock::time_point next_attempt{};
    std::chrono::steady_clock::time_point dial_deadline{};
    std::chrono::steady_clock::time_point progress_deadline{};
    bool dial_deadline_set = false;
  };

  /// Accepted inbound connection (a remote shard's link, or a client).
  struct Connection : ByteStream {
    /// Shard announced by the hello frame; shard_count() = unknown
    /// (e.g. a query client).
    uint32_t remote_shard = 0;
    bool greeted = false;
  };

  explicit SocketTransport(SocketTransportOptions options);
  Status Initialize();

  void LoopMain();
  /// Registers (`EPOLL_CTL_ADD`) or re-arms (`EPOLL_CTL_MOD`) `fd` for
  /// `events` under the epoll tag `tag`.
  void Watch(int op, int fd, uint64_t tag, uint32_t events);
  void WakeLoop();
  bool BarrierSatisfied() const;
  /// Waits up to `timeout_ms` (on `barrier_cv_`) for `done()`; returns
  /// whether it held, or `loop_error()` once the event loop has failed.
  template <typename Done>
  Result<bool> AwaitLoop(int timeout_ms, Done done);
  void NotifyBarrier();
  void FailLoop(Status status);

  // Event-loop internals (definitions in the .cc).
  void LoopStartDials();
  void LoopCheckRetransmitTimers();
  /// Stops watching and closes `stream`'s socket and discards the bytes
  /// buffered either way; a no-op on a closed stream's socket.
  void LoopCloseStream(ByteStream& stream);
  /// `LoopCloseStream` plus the link's connection state: not dialing, no
  /// handshake outstanding, no injected kill pending, not connected.
  void LoopDisconnectLink(Link& link);
  void LoopPurgeAbandoned(Link& link);
  void LoopScheduleReconnect(Link& link, const char* reason);
  /// Reads everything the socket holds into `stream.assembler`; false when
  /// the peer closed the connection or it failed.
  bool LoopReadStream(ByteStream& stream);
  /// Writes as much of `stream.out` as the socket takes, clearing it once
  /// sent, and re-arms EPOLLOUT while bytes remain; false when the socket
  /// failed (`errno` says why).
  bool LoopFlushStream(ByteStream& stream);
  void LoopFlushLink(Link& link);
  /// Restarts the link's no-ack-progress timer (`retransmit_timeout_ms`).
  void LoopArmProgressDeadline(Link& link);
  /// Encodes an unsequenced frame (hello, ack) onto `stream.out`.
  void LoopAppendSessionFrame(ByteStream& stream, const Frame& frame);
  void LoopPullRingIntoOut(Link& link);
  void LoopHandleListen();
  void LoopHandleLinkEvent(Link& link, uint32_t events);
  void LoopHandleAck(Link& link, const LinkAckFrame& ack);
  void LoopHandleConnectionEvent(size_t index, uint32_t events);
  void LoopHandleHello(Connection& connection, const HelloFrame& hello);
  /// Sequenced dispatch for greeted connections; false = protocol
  /// violation (gap), close the connection and let the peer retransmit.
  bool LoopDispatchSequenced(Connection& connection, Frame frame,
                             uint64_t seq);
  void LoopDeliverData(Envelope data, uint32_t remote_shard);
  void LoopStageAck(Connection& connection);
  void LoopDrainControlOutbox();

  void StageFrameOnLink(uint32_t shard, const Frame& frame, bool is_data);

  SocketTransportOptions options_;
  std::string local_address_;
  uint64_t session_id_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Connection>> connections_;  // loop-owned
  std::atomic<uint64_t> next_conn_id_{1};

  // Receive-side link state per remote shard (loop-owned): the session the
  // cursor belongs to, the next expected sequence, and the last value we
  // acked (to elide no-op acks).
  std::vector<uint64_t> rx_session_;
  std::vector<uint64_t> rx_next_expected_;
  std::vector<uint64_t> rx_acked_;

  Mailboxes inboxes_;
  std::unique_ptr<std::atomic<uint64_t>[]> send_seq_;

  // Barrier accounting: self-addressed data frames staged vs re-received
  // through the self connection. Undrained inbox entries (the mail bits)
  // and unacked outbound data frames additionally hold
  // `HasPendingMessages` true.
  std::atomic<uint64_t> loopback_sent_{0};
  std::atomic<uint64_t> loopback_received_{0};
  std::atomic<uint64_t> outstanding_data_{0};
  /// Every staged-and-unacked frame on a live link (control included, self
  /// link included). The destructor lingers until this drains so frames
  /// staged right before shutdown survive an in-flight retransmit cycle.
  std::atomic<uint64_t> unacked_frames_{0};

  std::atomic<uint64_t> now_{0};
  std::atomic<uint64_t> frame_bytes_sent_{0};
  std::atomic<uint64_t> data_frames_sent_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> frames_retransmitted_{0};
  std::atomic<uint64_t> duplicate_frames_skipped_{0};

  // Loop-owned fault ledger, snapshotted under `fault_mutex_`.
  mutable std::mutex fault_mutex_;
  FaultStats link_fault_stats_;

  AtomicTransportStats counters_;
  mutable TransportStats stats_snapshot_;

  mutable std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;

  mutable std::mutex error_mutex_;
  Status error_;
  Status barrier_status_;
  std::atomic<bool> loop_failed_{false};

  std::mutex handler_mutex_;
  ControlHandler handler_;

  std::mutex control_outbox_mutex_;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> control_outbox_;

  std::mutex address_mutex_;  // guards options_.shard_addresses updates

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_started_{false};
  std::thread loop_;
};

}  // namespace pdms

#endif  // PDMS_NET_SOCKET_TRANSPORT_H_
