#ifndef PDMS_NODE_PDMS_NODE_H_
#define PDMS_NODE_PDMS_NODE_H_

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
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/socket_transport.h"
#include "pdms/pdms.h"
#include "store/snapshot.h"
#include "util/status.h"

namespace pdms {

/// Knobs of one `PdmsNode` daemon. The network topology itself — which
/// shard this process is, where the others listen, which peers are local —
/// lives in the `SocketTransport` the node is built over.
struct NodeOptions {
  /// Convergence bound handed to `RunRounds` (the sharded counterpart of
  /// `Session::Converge(max_rounds)`).
  size_t max_rounds = 200;

  /// Artificial hold after each round, in milliseconds. Test hook: keeps
  /// the round loop open long enough for a client to query mid-run.
  int round_delay_ms = 0;

  /// How long to wait for the other shards' mark frames before giving up
  /// on a step (a vanished peer process surfaces as Unavailable here —
  /// unless quarantine, below, degrades around it first).
  int mark_timeout_ms = 120000;

  /// Heartbeat period. While a node waits between rounds (or holds in
  /// `round_delay_ms`), a background thread broadcasts liveness marks
  /// (phase 2) so peers can tell "slow" from "dead". 0 = disabled.
  int heartbeat_interval_ms = 0;

  /// Failure detector: a shard whose mark is awaited and from which
  /// *nothing* (mark or heartbeat) has been heard for this long is
  /// quarantined — its link is abandoned, every mapping with an endpoint
  /// it owns is removed, and the surviving shards finish the run without
  /// it. 0 = disabled (a vanished peer then ends the run with
  /// Unavailable after `mark_timeout_ms`).
  int quarantine_after_ms = 0;

  /// Invoked after every completed inference round with the round number.
  /// Chaos hook: the node-chaos CI job uses it to SIGKILL a shard
  /// mid-run.
  std::function<void(uint64_t round)> round_hook;

  /// Directory for crash-consistent snapshots (see src/store/snapshot.h).
  /// Non-empty = after every round barrier the node checkpoints its
  /// engine state and in-flight traffic there (double-buffered, fsynced),
  /// and `TryRestoreFromState` can resume from the newest valid cut
  /// without re-running discovery. Empty = no persistence.
  std::string state_dir;

  /// After quarantining a shard mid-rounds, how long the survivors hold
  /// the round barrier open for that shard's `RejoinFrame` before
  /// degrading without it. While the grace window is open each survivor
  /// keeps an in-memory ring of recent round cuts; a valid rejoin rolls
  /// everyone back to the restarted shard's snapshot round and the run
  /// resumes in lockstep — converging on the same fixpoint as an
  /// uninterrupted run, with zero re-discovery. 0 = no grace: a
  /// quarantined shard stays out (the pre-recovery behaviour).
  int rejoin_grace_ms = 0;
};

/// One process of a partitioned PDMS deployment: owns the shard of peers
/// its `SocketTransport` marks local, exchanges probe / feedback / belief
/// traffic with the other shards over framed TCP, and serves θ-gated
/// queries from read-only posterior snapshots while rounds are running.
///
/// Lifecycle: `Create` (over a `Pdms` built with a sharded socket
/// transport) → `SetShardAddress`/`Connect` → `RunDiscovery` →
/// `RunRounds` → read posteriors / keep serving queries.
///
/// Cross-shard synchronization is the mark protocol (`MarkFrame`): each
/// step a shard broadcasts a mark carrying what it sent and whether it
/// still holds undelivered traffic, then waits for everyone else's mark of
/// the same step. The transport's sequenced links deliver marks (and the
/// data frames staged before them) exactly once and in order even across
/// faults and reconnects, so the exchange doubles as the cross-shard flush
/// barrier, and all shards advance their transport clocks in lockstep.
/// With the reliable wire and the transport's deterministic
/// (deliver_at, from, seq) drain order, a partitioned run lands on
/// posteriors bitwise-identical to the single-process engine — including
/// under injected link faults (tests/node_test.cc, tests/fault_test.cc).
///
/// Degradation: marks are validated (origin shard must match the link the
/// mark arrived on; replays and forgeries are rejected), heartbeats keep
/// liveness observable between steps, and a silent shard past the
/// quarantine deadline is churned out via the engine's mapping-removal
/// path while the survivors keep serving queries.
class PdmsNode {
 public:
  /// Wraps a built `Pdms` whose transport is a `SocketTransport`. Requires
  /// the periodic schedule with `period_ticks == 1`: shards advance ticks
  /// in lockstep but discovery may cost a different tick count than the
  /// single-process run, so every tick must be a send tick for the round
  /// schedules to agree.
  static Result<std::unique_ptr<PdmsNode>> Create(Pdms pdms,
                                                  NodeOptions options);

  ~PdmsNode();

  /// The transport's bound listen address ("ip:port").
  const std::string& local_address() const {
    return transport_->local_address();
  }

  /// Announces where a remote shard listens (before `Connect`).
  Status SetShardAddress(uint32_t shard, std::string address) {
    return transport_->SetShardAddress(shard, std::move(address));
  }

  /// Dials every shard and waits for the links to establish.
  Status Connect() { return transport_->ConnectAll(); }

  /// Distributed closure discovery: starts the local peers' probes and
  /// tick-steps with per-step mark exchange until every shard reports a
  /// quiet step. Returns the number of distinct factor replicas held by
  /// the *local* peers afterwards.
  Result<size_t> RunDiscovery();

  /// Restores engine state, in-flight traffic and the transport clock from
  /// the newest valid snapshot in `NodeOptions::state_dir`, making
  /// `RunDiscovery` unnecessary — the restored cut already holds every
  /// replica and routing table. Returns the restored round on success;
  /// NotFound when no loadable snapshot exists (torn, CRC-corrupt or
  /// epoch-mismatched files are skipped) — the caller cold-starts through
  /// `RunDiscovery` instead. Call after `Connect`, before `PerformRejoin`.
  Result<uint64_t> TryRestoreFromState();

  /// After a successful `TryRestoreFromState`: broadcasts a `RejoinFrame`
  /// announcing the restored cut and this process's new listen address,
  /// then blocks until every live shard acknowledged re-admission. A shard
  /// that rejects the rejoin fails the call; one that stays silent past
  /// `mark_timeout_ms` is quarantined and the run proceeds without it.
  Status PerformRejoin();

  /// Fingerprint of everything that must match for a snapshot to be
  /// loadable into this deployment (topology, sharding, engine options).
  uint64_t state_epoch() const { return state_epoch_; }

  /// Mark-synchronized inference rounds until the *global* posterior
  /// movement (max over all live shards) stays below tolerance, with the
  /// patience `PdmsEngine::RunToConvergence` uses on a lossless wire — a
  /// partitioned run executes exactly as many rounds as the
  /// single-process one. The posterior snapshot queries are served from
  /// is refreshed after every round.
  Result<ConvergenceReport> RunRounds();

  /// Executes a query request against the current posterior snapshot —
  /// the same path the control plane uses for remote clients, exposed for
  /// in-process callers and tests. Shard-local: θ-gated BFS over edges
  /// whose both endpoints are local.
  QueryResponseFrame ExecuteSnapshotQuery(
      const QueryRequestFrame& request) const;

  /// Shards quarantined so far (ascending).
  std::vector<uint32_t> quarantined() const;

  /// Mark frames rejected by validation (forged origin, replayed index,
  /// unknown shard).
  uint64_t rejected_marks() const {
    return rejected_marks_.load(std::memory_order_relaxed);
  }

  /// Belief entries the Byzantine guard refused to absorb across the
  /// shard's local peers (admission failures plus equivocations).
  /// Always 0 when the guard is disabled.
  uint64_t rejected_beliefs() const {
    return pdms_.engine().GuardRejectedBeliefs();
  }

  /// Links the guard demoted (soft-damped or hard-quarantined) across
  /// the shard's local peers. Always 0 when the guard is disabled.
  uint64_t demoted_links() const {
    return pdms_.engine().GuardDemotedLinks();
  }

  Pdms& pdms() { return pdms_; }
  const Pdms& pdms() const { return pdms_; }
  SocketTransport& transport() { return *transport_; }

  /// Blocking client helper: connects to a node's listen address, sends
  /// one query request frame and waits for the response. Independent of
  /// any transport instance — this is what an external client does.
  static Result<QueryResponseFrame> QueryNode(const std::string& address,
                                              const QueryRequestFrame& request,
                                              int timeout_ms = 30000);

 private:
  /// Read-only posterior view rebuilt after every round: Packed
  /// MappingVarKey → posterior, an entry existing iff the owner has
  /// evidence for the variable (the gate's forward_without_evidence rule
  /// keys off absence).
  struct Snapshot {
    std::unordered_map<uint64_t, double> posteriors;
  };

  PdmsNode(Pdms pdms, SocketTransport* transport, NodeOptions options);

  /// Control-plane dispatch, invoked on the transport's event-loop
  /// thread: validated marks feed `AwaitMarks`, heartbeats refresh
  /// liveness, query requests are answered from the snapshot right here.
  void HandleControlFrame(Frame frame, uint64_t connection,
                          uint32_t remote_shard);

  /// Mark validation against the authenticated link shard; must hold
  /// `control_mutex_`. Returns false for marks that must not enter the
  /// barrier queue (and counts them in `rejected_marks_` when hostile).
  bool AdmitMarkLocked(const MarkFrame& mark, uint32_t remote_shard);

  void BroadcastMark(const MarkFrame& mark);
  /// Collects the other live shards' marks for (phase, index),
  /// quarantining shards that miss the failure-detection deadline along
  /// the way.
  Result<std::vector<MarkFrame>> AwaitMarks(uint32_t phase, uint64_t index);

  /// Degrades around a dead shard: abandons its link and removes every
  /// mapping with an endpoint it owns. Runs on the driver thread with
  /// `control_mutex_` *not* held.
  void QuarantineShard(uint32_t shard);

  /// Whether the rejoin grace window is open: a shard was quarantined
  /// mid-rounds, recovery is enabled, and the deadline has not passed.
  /// Must hold `control_mutex_`. Disarms (and logs) on expiry.
  bool GraceActiveLocked(std::chrono::steady_clock::time_point now);

  /// Checkpoints the consistent cut "rounds 1..`round` executed
  /// everywhere, round-`round` traffic in the inboxes": saves it to the
  /// snapshot store (when configured) and pushes it onto the in-memory
  /// cut ring (when the rejoin grace window is enabled). Driver thread,
  /// called between the round barrier and the next `RunRound`.
  void CaptureCut(uint64_t round, uint64_t quiet, double previous_change,
                  const ConvergenceReport& report);

  /// Survivor side of re-admission, on the driver thread: validates the
  /// request against the cut ring, rolls engine + inboxes + clock back to
  /// the requested round, re-admits the shard's link (before acking —
  /// frames staged to an abandoned shard are dropped), then sends the
  /// verdict. On success `resume_` is set and the round loop restarts
  /// from the rolled-back cut.
  Status ServeRejoin(const RejoinFrame& rejoin);

  /// Sends a rejoin verdict to `shard` (best-effort).
  void SendRejoinVerdict(uint32_t shard, uint64_t round, bool accepted,
                         std::string reason);

  void HeartbeatMain();

  void RebuildSnapshot();
  std::shared_ptr<const Snapshot> CurrentSnapshot() const;

  bool GateAllows(const Peer& owner, EdgeId edge, AttributeId attribute,
                  const Snapshot& snapshot) const;

  Pdms pdms_;
  SocketTransport* transport_;  // owned by the engine inside pdms_
  NodeOptions options_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  mutable std::mutex control_mutex_;
  std::condition_variable control_cv_;
  std::vector<MarkFrame> marks_;
  /// Liveness per shard, guarded by `control_mutex_`. `active_[s]` flips
  /// to false exactly once, on quarantine.
  std::vector<bool> active_;
  std::vector<std::chrono::steady_clock::time_point> last_heard_;
  /// Replay low-water per barrier phase: marks for steps already consumed
  /// are rejected.
  uint64_t consumed_low_[2] = {0, 0};

  std::atomic<uint64_t> rejected_marks_{0};

  // --- Durable-state / re-admission machinery ---------------------------
  /// Deployment fingerprint (ComputeStateEpoch), fixed at Create.
  uint64_t state_epoch_ = 0;
  /// Non-null iff `NodeOptions::state_dir` is set.
  std::unique_ptr<SnapshotStore> store_;
  /// Recent round cuts, oldest first, driver-thread only. Bounded depth;
  /// only maintained while the rejoin grace window is enabled.
  static constexpr size_t kCutRingDepth = 4;
  std::deque<NodeSnapshot> cut_ring_;
  /// Cut to resume the round loop from (engine/inboxes already applied;
  /// only the scalars are read). Set by `TryRestoreFromState` and
  /// `ServeRejoin`, consumed by `RunRounds`. Driver thread only.
  std::optional<NodeSnapshot> resume_;
  /// Rejoin request queued by the control thread for the driver to serve,
  /// and the acks a restarted shard collects. Guarded by `control_mutex_`.
  std::optional<RejoinFrame> pending_rejoin_;
  std::unordered_map<uint32_t, RejoinAckFrame> rejoin_acks_;
  /// Rejoin commit barrier (guarded by `control_mutex_`): set when the
  /// restarted shard announces every survivor has rolled back (phase-3
  /// mark). A survivor holds after its own rollback until this arrives, so
  /// no re-executed traffic can land before a slower survivor's rollback
  /// wipes its inboxes.
  std::optional<uint64_t> rejoin_commit_;
  /// Grace window (guarded by `control_mutex_`): armed when a shard is
  /// quarantined mid-rounds with `rejoin_grace_ms > 0`.
  bool grace_armed_ = false;
  std::chrono::steady_clock::time_point grace_deadline_{};
  /// Set by `AwaitMarks` when it returned early (nothing consumed) because
  /// a rejoin request is pending. Driver thread only.
  bool rejoin_interrupt_ = false;

  std::mutex heartbeat_mutex_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;
  uint64_t heartbeat_index_ = 0;
  std::thread heartbeat_;
};

}  // namespace pdms

#endif  // PDMS_NODE_PDMS_NODE_H_
