#include "node/pdms_node.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_set>

#include "query/query.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pdms {

PdmsNode::PdmsNode(Pdms pdms, SocketTransport* transport, NodeOptions options)
    : pdms_(std::move(pdms)),
      transport_(transport),
      options_(std::move(options)),
      snapshot_(std::make_shared<const Snapshot>()),
      active_(transport->shard_count(), true),
      last_heard_(transport->shard_count(), std::chrono::steady_clock::now()) {
}

PdmsNode::~PdmsNode() {
  {
    std::lock_guard<std::mutex> lock(heartbeat_mutex_);
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // The event loop invokes the control handler; detach it before members
  // (snapshot, queues) start going away.
  if (transport_ != nullptr) transport_->SetControlHandler(nullptr);
}

Result<std::unique_ptr<PdmsNode>> PdmsNode::Create(Pdms pdms,
                                                   NodeOptions options) {
  if (!pdms.valid()) {
    return Status::InvalidArgument("node needs a built Pdms");
  }
  auto* transport = dynamic_cast<SocketTransport*>(&pdms.transport());
  if (transport == nullptr) {
    return Status::InvalidArgument(
        "node needs a Pdms built over a SocketTransport");
  }
  if (options.rejoin_grace_ms < 0) {
    return Status::InvalidArgument("rejoin_grace_ms must be >= 0");
  }
  if (pdms.options().schedule != ScheduleKind::kPeriodic ||
      pdms.options().period_ticks != 1) {
    // Discovery may cost the shards a different tick count than a
    // single-process run, so round schedules only stay aligned when every
    // tick is a send tick.
    return Status::FailedPrecondition(
        "node mode requires the periodic schedule with period_ticks == 1");
  }
  std::vector<bool> is_local(pdms.peer_count(), false);
  for (PeerId p = 0; p < pdms.peer_count(); ++p) {
    is_local[p] = transport->IsLocalPeer(p);
  }
  PDMS_RETURN_IF_ERROR(
      pdms.engine().RestrictToLocalPeers(std::move(is_local)));

  std::unique_ptr<PdmsNode> node(
      new PdmsNode(std::move(pdms), transport, std::move(options)));
  {
    // Everything a snapshot must agree on to be loadable here: topology,
    // shard assignment, and the inference-relevant engine options.
    std::vector<uint32_t> shard_of(node->pdms_.peer_count(), 0);
    for (PeerId p = 0; p < node->pdms_.peer_count(); ++p) {
      shard_of[p] = transport->shard_of(p);
    }
    node->state_epoch_ =
        ComputeStateEpoch(node->pdms_.graph(), shard_of,
                          transport->shard_count(), node->pdms_.options());
  }
  if (!node->options_.state_dir.empty()) {
    node->store_ = std::make_unique<SnapshotStore>(node->options_.state_dir,
                                                   transport->local_shard());
  }
  transport->SetControlHandler(
      [raw = node.get()](Frame frame, uint64_t connection,
                         uint32_t remote_shard) {
        raw->HandleControlFrame(std::move(frame), connection, remote_shard);
      });
  if (node->options_.heartbeat_interval_ms > 0) {
    node->heartbeat_ = std::thread([raw = node.get()] { raw->HeartbeatMain(); });
  }
  return node;
}

// --- Mark protocol --------------------------------------------------------------

void PdmsNode::BroadcastMark(const MarkFrame& mark) {
  for (uint32_t shard = 0; shard < transport_->shard_count(); ++shard) {
    if (shard == transport_->local_shard()) continue;
    const Status status = transport_->SendControl(shard, Frame{mark});
    if (!status.ok()) PDMS_LOG_WARNING << status.message();
  }
}

Result<std::vector<MarkFrame>> PdmsNode::AwaitMarks(uint32_t phase,
                                                    uint64_t index) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.mark_timeout_ms);
  std::unique_lock<std::mutex> lock(control_mutex_);
  for (;;) {
    PDMS_RETURN_IF_ERROR(transport_->loop_error());
    // The barrier is a distinct count over *live* shards: AdmitMarkLocked
    // authenticated every queued mark against the link it arrived on and
    // already rejected duplicates, and quarantine may shrink `expected`
    // while we wait.
    size_t expected = 0;
    for (uint32_t shard = 0; shard < transport_->shard_count(); ++shard) {
      if (shard != transport_->local_shard() && active_[shard]) ++expected;
    }
    std::vector<bool> seen(transport_->shard_count(), false);
    size_t have = 0;
    for (const MarkFrame& mark : marks_) {
      if (mark.phase == phase && mark.index == index && active_[mark.shard] &&
          !seen[mark.shard]) {
        seen[mark.shard] = true;
        ++have;
      }
    }
    if (have >= expected) {
      if (phase != 1 || !GraceActiveLocked(std::chrono::steady_clock::now())) {
        break;
      }
      // Barrier satisfied only because quarantine shrank it, and the
      // rejoin grace window is still open: hold the round here instead of
      // degrading past the cut the restarted shard would need. Nothing is
      // consumed while parked, so a rollback re-awaits the queued marks.
    } else if (options_.quarantine_after_ms > 0) {
      // A shard whose mark is missing and from which nothing — mark or
      // heartbeat — has been heard past the deadline is dead, not slow.
      const auto now = std::chrono::steady_clock::now();
      std::vector<uint32_t> dead;
      for (uint32_t shard = 0; shard < transport_->shard_count(); ++shard) {
        if (shard == transport_->local_shard() || !active_[shard] ||
            seen[shard]) {
          continue;
        }
        if (now - last_heard_[shard] >
            std::chrono::milliseconds(options_.quarantine_after_ms)) {
          dead.push_back(shard);
        }
      }
      if (!dead.empty()) {
        if (phase == 1 && options_.rejoin_grace_ms > 0) {
          // Recovery enabled: keep the round barrier open for a while so
          // a restart of the dead shard can roll us back instead of the
          // run degrading permanently.
          grace_armed_ = true;
          grace_deadline_ =
              now + std::chrono::milliseconds(options_.rejoin_grace_ms);
        }
        for (uint32_t shard : dead) {
          active_[shard] = false;
          // Whatever it queued will never be awaited again.
          marks_.erase(std::remove_if(marks_.begin(), marks_.end(),
                                      [shard](const MarkFrame& m) {
                                        return m.shard == shard;
                                      }),
                       marks_.end());
        }
        // QuarantineShard takes the engine's locks and the transport's;
        // never hold control_mutex_ across it.
        lock.unlock();
        for (uint32_t shard : dead) QuarantineShard(shard);
        lock.lock();
        continue;
      }
    }
    if (have < expected && std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(
          StrFormat("no marks for step %llu after %dms — peer shard gone?",
                    static_cast<unsigned long long>(index),
                    options_.mark_timeout_ms));
    }
    if (phase == 1 && pending_rejoin_.has_value()) {
      // A restarted shard is asking back in. Serving it means rolling the
      // engine back, which restarts the whole round loop — hand control
      // back to RunRounds without consuming anything.
      rejoin_interrupt_ = true;
      return std::vector<MarkFrame>{};
    }
    control_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  std::vector<MarkFrame> collected;
  auto keep = marks_.begin();
  for (auto it = marks_.begin(); it != marks_.end(); ++it) {
    if (it->phase == phase && it->index == index) {
      // Marks from a shard quarantined mid-wait are consumed but dropped.
      if (active_[it->shard]) collected.push_back(*it);
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  marks_.erase(keep, marks_.end());
  if (phase < 2) consumed_low_[phase] = index + 1;
  return collected;
}

bool PdmsNode::AdmitMarkLocked(const MarkFrame& mark, uint32_t remote_shard) {
  const uint32_t shards = transport_->shard_count();
  // `remote_shard` is the identity the link's hello handshake established
  // (== shard_count for ungreeted/client connections): a mark must claim
  // exactly the shard that sent it.
  const bool authentic = remote_shard < shards && mark.shard == remote_shard &&
                         mark.shard != transport_->local_shard();
  if (!authentic || mark.phase > 2) {
    rejected_marks_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!active_[mark.shard]) return false;  // quarantined: ignore, not hostile
  last_heard_[mark.shard] = std::chrono::steady_clock::now();
  if (mark.phase == 2) return false;  // heartbeat: liveness only, never queued
  if (mark.index < consumed_low_[mark.phase]) {
    rejected_marks_.fetch_add(1, std::memory_order_relaxed);
    return false;  // replay of a step already consumed
  }
  for (const MarkFrame& queued : marks_) {
    if (queued.shard == mark.shard && queued.phase == mark.phase &&
        queued.index == mark.index) {
      rejected_marks_.fetch_add(1, std::memory_order_relaxed);
      return false;  // duplicate
    }
  }
  return true;
}

void PdmsNode::HandleControlFrame(Frame frame, uint64_t connection,
                                  uint32_t remote_shard) {
  if (const auto* mark = std::get_if<MarkFrame>(&frame)) {
    {
      std::lock_guard<std::mutex> lock(control_mutex_);
      if (mark->phase == 3) {
        // Rejoin commit: the restarted shard has collected every
        // survivor's ack — all rollbacks are complete, resume sending.
        if (remote_shard < transport_->shard_count() &&
            mark->shard == remote_shard &&
            mark->shard != transport_->local_shard()) {
          rejoin_commit_ = mark->index;
        } else {
          rejected_marks_.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (AdmitMarkLocked(*mark, remote_shard)) {
        marks_.push_back(*mark);
      }
    }
    // Heartbeats woke nobody's predicate but refreshing the waiters is
    // harmless; admitted marks must wake AwaitMarks.
    control_cv_.notify_all();
    return;
  }
  if (const auto* request = std::get_if<QueryRequestFrame>(&frame)) {
    // Served right here on the event-loop thread: the snapshot BFS only
    // reads immutable structure (graph, mappings, stores) plus the
    // mutex-guarded snapshot, so it is safe concurrent with rounds.
    const QueryResponseFrame response = ExecuteSnapshotQuery(*request);
    const Status status =
        transport_->SendOnConnection(connection, Frame{response});
    if (!status.ok()) PDMS_LOG_WARNING << status.message();
    return;
  }
  if (const auto* rejoin = std::get_if<RejoinFrame>(&frame)) {
    // Authenticate against the link identity (same rule as marks), then
    // queue for the driver thread: rolling the engine back cannot happen
    // on the event loop, and the cut ring is driver-owned anyway.
    if (remote_shard < transport_->shard_count() &&
        rejoin->shard == remote_shard &&
        rejoin->shard != transport_->local_shard()) {
      {
        std::lock_guard<std::mutex> lock(control_mutex_);
        pending_rejoin_ = *rejoin;
      }
      control_cv_.notify_all();
    } else {
      rejected_marks_.fetch_add(1, std::memory_order_relaxed);
      PDMS_LOG_WARNING << "rejoin frame claiming shard " << rejoin->shard
                       << " arrived on link " << remote_shard << "; dropped";
    }
    return;
  }
  if (const auto* ack = std::get_if<RejoinAckFrame>(&frame)) {
    if (remote_shard < transport_->shard_count() &&
        ack->shard == remote_shard) {
      {
        std::lock_guard<std::mutex> lock(control_mutex_);
        rejoin_acks_[ack->shard] = *ack;
      }
      control_cv_.notify_all();
    }
    return;
  }
  // Hellos and stray responses need no action.
}

// --- Degradation ----------------------------------------------------------------

void PdmsNode::QuarantineShard(uint32_t shard) {
  PDMS_LOG_WARNING << "shard " << shard
                   << " missed the failure deadline; quarantining and "
                      "degrading to the surviving shards";
  const Status abandoned = transport_->AbandonShard(shard);
  if (!abandoned.ok()) PDMS_LOG_WARNING << abandoned.message();
  // Churn out every mapping with an endpoint the dead shard owns — the
  // survivors keep a consistent, smaller semantic network and the belief
  // network stops waiting on messages that will never come.
  const Digraph& graph = pdms_.graph();
  std::vector<EdgeId> doomed;
  for (EdgeId e : graph.LiveEdges()) {
    const PeerId src = graph.edge(e).src;
    const PeerId dst = graph.edge(e).dst;
    if (transport_->shard_of(src) == shard ||
        transport_->shard_of(dst) == shard) {
      doomed.push_back(e);
    }
  }
  for (EdgeId e : doomed) {
    const Status removed = pdms_.RemoveMapping(e);
    if (!removed.ok()) PDMS_LOG_WARNING << removed.message();
  }
  RebuildSnapshot();
}

bool PdmsNode::GraceActiveLocked(std::chrono::steady_clock::time_point now) {
  if (!grace_armed_) return false;
  if (now < grace_deadline_) return true;
  grace_armed_ = false;
  PDMS_LOG_WARNING << "rejoin grace window (" << options_.rejoin_grace_ms
                   << "ms) expired; continuing without the quarantined shard";
  return false;
}

std::vector<uint32_t> PdmsNode::quarantined() const {
  std::vector<uint32_t> result;
  std::lock_guard<std::mutex> lock(control_mutex_);
  for (uint32_t shard = 0; shard < static_cast<uint32_t>(active_.size());
       ++shard) {
    if (!active_[shard]) result.push_back(shard);
  }
  return result;
}

void PdmsNode::HeartbeatMain() {
  std::unique_lock<std::mutex> lock(heartbeat_mutex_);
  while (!heartbeat_stop_) {
    heartbeat_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.heartbeat_interval_ms));
    if (heartbeat_stop_) break;
    MarkFrame beat;
    beat.shard = transport_->local_shard();
    beat.phase = 2;
    beat.index = heartbeat_index_++;
    lock.unlock();
    BroadcastMark(beat);
    lock.lock();
  }
}

// --- Discovery ------------------------------------------------------------------

Result<size_t> PdmsNode::RunDiscovery() {
  uint64_t frames_before = transport_->data_frames_sent();
  pdms_.engine().StartLocalProbes();
  for (uint64_t step = 0;; ++step) {
    const uint64_t frames_now = transport_->data_frames_sent();
    const uint64_t sent_this_step = frames_now - frames_before;
    frames_before = frames_now;
    const bool pending = transport_->HasPendingMessages();

    MarkFrame mark;
    mark.shard = transport_->local_shard();
    mark.phase = 0;
    mark.index = step;
    mark.frames_sent = sent_this_step;
    mark.pending = pending;
    BroadcastMark(mark);
    PDMS_ASSIGN_OR_RETURN(const std::vector<MarkFrame> marks,
                          AwaitMarks(0, step));

    // Every shard evaluates the same symmetric expression over the same
    // shared samples, so all of them tick (or stop) together.
    bool traffic = sent_this_step > 0 || pending;
    for (const MarkFrame& remote : marks) {
      traffic = traffic || remote.frames_sent > 0 || remote.pending;
    }
    if (!traffic) break;
    pdms_.engine().DeliverTick();
    // A tick barrier that timed out (or a dead event loop) must surface
    // here, not as a silently short discovery.
    PDMS_RETURN_IF_ERROR(transport_->barrier_status());
  }
  RebuildSnapshot();

  size_t local_replicas = 0;
  std::unordered_set<uint64_t> seen;
  for (PeerId p = 0; p < pdms_.peer_count(); ++p) {
    if (!transport_->IsLocalPeer(p)) continue;
    for (const Peer::ReplicaView& view : pdms_.peer(p).ReplicaViews()) {
      if (seen.insert(view.id.lo ^ view.id.hi).second) ++local_replicas;
    }
  }
  return local_replicas;
}

// --- Rounds ---------------------------------------------------------------------

Result<ConvergenceReport> PdmsNode::RunRounds() {
  const EngineOptions& engine_options = pdms_.options();
  // SocketTransport never drops an envelope, so the measured-loss patience
  // rule of RunToConvergence would resolve to 1: keep that fixed value,
  // identical on every shard.
  const size_t patience = engine_options.convergence_patience == 0
                              ? 1
                              : engine_options.convergence_patience;
  ConvergenceReport report;
  size_t quiet = 0;
  double previous_change = 1.0;
  uint64_t round = 0;
  // Resuming from a restored or rolled-back cut: engine, inboxes and the
  // transport clock were already applied; pick up the loop scalars and
  // skip the barrier the cut already crossed.
  const auto take_resume = [&] {
    if (!resume_.has_value()) return false;
    round = resume_->round;
    quiet = static_cast<size_t>(resume_->quiet);
    previous_change = resume_->previous_change;
    report.rounds = round;
    report.belief_updates_sent = resume_->report_updates;
    resume_.reset();
    return true;
  };
  bool skip_barrier = take_resume();
  RebuildSnapshot();
  for (;;) {
    if (!skip_barrier) {
      MarkFrame mark;
      mark.shard = transport_->local_shard();
      mark.phase = 1;
      mark.index = round;
      mark.max_change = previous_change;
      BroadcastMark(mark);
      PDMS_ASSIGN_OR_RETURN(const std::vector<MarkFrame> marks,
                            AwaitMarks(1, round));
      if (rejoin_interrupt_) {
        // A restarted shard asked back in; the barrier consumed nothing.
        rejoin_interrupt_ = false;
        std::optional<RejoinFrame> rejoin;
        {
          std::lock_guard<std::mutex> lock(control_mutex_);
          rejoin.swap(pending_rejoin_);
        }
        if (rejoin.has_value()) {
          const Status served = ServeRejoin(*rejoin);
          if (!served.ok()) {
            PDMS_LOG_WARNING << "rejoin of shard " << rejoin->shard
                             << " not served: " << served.message();
          }
          skip_barrier = take_resume();
        }
        // Either restart from the rolled-back cut or retry this barrier
        // (the re-broadcast mark is a duplicate peers reject harmlessly).
        continue;
      }
      if (round > 0) {
        double global_change = previous_change;
        for (const MarkFrame& remote : marks) {
          global_change = std::max(global_change, remote.max_change);
        }
        quiet = global_change < engine_options.tolerance ? quiet + 1 : 0;
        if (quiet >= patience) {
          report.converged = true;
          break;
        }
      }
      if (round == options_.max_rounds) break;
    }
    skip_barrier = false;
    // This is the consistent cut "rounds 1..`round` executed everywhere,
    // round-`round` traffic sitting in the inboxes": every shard has
    // crossed the round-`round` barrier and nothing else is in flight.
    CaptureCut(round, quiet, previous_change, report);
    const RoundReport step = pdms_.engine().RunRound();
    PDMS_RETURN_IF_ERROR(transport_->barrier_status());
    ++round;
    report.rounds = round;
    report.belief_updates_sent += step.belief_updates_sent;
    previous_change = step.max_posterior_change;
    if (Logger::Get().Enabled(LogLevel::kDebug)) {
      char change_hex[32];
      std::snprintf(change_hex, sizeof(change_hex), "%a",
                    step.max_posterior_change);
      PDMS_LOG_DEBUG << "round " << round << ": updates "
                     << step.belief_updates_sent << ", max_change "
                     << change_hex << ", tick " << transport_->now();
    }
    RebuildSnapshot();
    if (options_.round_hook) options_.round_hook(round);
    if (options_.round_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.round_delay_ms));
    }
  }
  return report;
}

// --- Durable state & re-admission -----------------------------------------------

void PdmsNode::CaptureCut(uint64_t round, uint64_t quiet,
                          double previous_change,
                          const ConvergenceReport& report) {
  const bool ring = options_.rejoin_grace_ms > 0;
  if (store_ == nullptr && !ring) return;
  // Round-`round` frames between local peers ride the event loop, and the
  // shard barrier the caller crossed does not wait for them: the cut must.
  const Status delivered = transport_->AwaitLoopback();
  if (!delivered.ok()) {
    PDMS_LOG_WARNING << "no cut for round " << round << ": "
                     << delivered.message();
    return;
  }
  NodeSnapshot cut;
  cut.state_epoch = state_epoch_;
  cut.round = round;
  cut.tick = transport_->now();
  cut.quiet = quiet;
  cut.previous_change = previous_change;
  cut.report_updates = report.belief_updates_sent;
  cut.engine = pdms_.engine().CaptureImage();
  cut.inbox = transport_->CaptureInboxes();
  // The barrier is not a wall-clock rendezvous: a shard that crossed it
  // first may already be executing the next round, and its frames can land
  // in our inboxes before the capture. This cut's own round-`round` traffic
  // is stamped `tick + 1` (RunRound advances the clock before delivering);
  // anything later belongs to a round a faster shard is already running and
  // is not part of the cut — after a rollback its sender re-executes that
  // round and sends it again.
  const uint64_t cut_horizon = cut.tick + 1;
  const size_t captured = cut.inbox.size();
  std::erase_if(cut.inbox, [cut_horizon](const Envelope& frame) {
    return frame.deliver_at > cut_horizon;
  });
  if (Logger::Get().Enabled(LogLevel::kDebug)) {
    PDMS_LOG_DEBUG << "cut " << round << ": tick " << cut.tick << ", inbox "
                   << cut.inbox.size() << " (" << (captured - cut.inbox.size())
                   << " ahead-of-cut filtered)";
  }
  if (store_ != nullptr) {
    const Status saved = store_->Save(cut);
    if (!saved.ok()) {
      // Snapshotting is best-effort: a failing disk degrades recovery,
      // never the run itself.
      PDMS_LOG_WARNING << "snapshot for round " << round
                       << " not persisted: " << saved.message();
    }
  }
  // After a rollback the restored cut comes through here again; the ring
  // already holds it.
  if (ring && (cut_ring_.empty() || cut_ring_.back().round < round)) {
    cut_ring_.push_back(std::move(cut));
    while (cut_ring_.size() > kCutRingDepth) cut_ring_.pop_front();
  }
}

Result<uint64_t> PdmsNode::TryRestoreFromState() {
  if (store_ == nullptr) {
    return Status::NotFound("no state directory configured");
  }
  auto loaded = store_->Load(state_epoch_);
  if (!loaded.ok()) return loaded.status();
  NodeSnapshot snapshot = std::move(loaded).value();
  const uint64_t round = snapshot.round;
  PDMS_RETURN_IF_ERROR(pdms_.engine().RestoreImage(std::move(snapshot.engine)));
  PDMS_RETURN_IF_ERROR(transport_->RestoreInboxes(std::move(snapshot.inbox)));
  transport_->SetNow(snapshot.tick);
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    // Marks below the restored cut are history; the next barrier this
    // process joins is round + 1.
    consumed_low_[1] = round + 1;
  }
  snapshot.engine = PdmsEngine::EngineImage{};
  snapshot.inbox.clear();
  resume_ = std::move(snapshot);
  RebuildSnapshot();
  PDMS_LOG_INFO << "restored from snapshot: round " << round << ", epoch "
                << state_epoch_;
  return round;
}

Status PdmsNode::PerformRejoin() {
  if (!resume_.has_value()) {
    return Status::FailedPrecondition(
        "PerformRejoin requires a successful TryRestoreFromState");
  }
  const uint64_t round = resume_->round;
  if (transport_->shard_count() <= 1) return Status::Ok();
  RejoinFrame rejoin;
  rejoin.shard = transport_->local_shard();
  rejoin.state_epoch = state_epoch_;
  rejoin.round = round;
  rejoin.address = transport_->local_address();
  for (uint32_t shard = 0; shard < transport_->shard_count(); ++shard) {
    if (shard == transport_->local_shard()) continue;
    const Status sent = transport_->SendControl(shard, Frame{rejoin});
    if (!sent.ok()) PDMS_LOG_WARNING << sent.message();
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.mark_timeout_ms);
  std::unique_lock<std::mutex> lock(control_mutex_);
  for (;;) {
    PDMS_RETURN_IF_ERROR(transport_->loop_error());
    for (const auto& [shard, ack] : rejoin_acks_) {
      if (!ack.accepted) {
        return Status::FailedPrecondition(StrFormat(
            "shard %u rejected rejoin: %s", shard, ack.reason.c_str()));
      }
    }
    std::vector<uint32_t> missing;
    for (uint32_t shard = 0; shard < transport_->shard_count(); ++shard) {
      if (shard == transport_->local_shard() || !active_[shard]) continue;
      if (rejoin_acks_.find(shard) == rejoin_acks_.end()) {
        missing.push_back(shard);
      }
    }
    if (missing.empty()) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // A survivor that never answered is as gone as a shard that missed
      // the failure deadline: quarantine it and resume without it.
      for (uint32_t shard : missing) active_[shard] = false;
      lock.unlock();
      for (uint32_t shard : missing) QuarantineShard(shard);
      lock.lock();
      break;
    }
    control_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  rejoin_acks_.clear();
  lock.unlock();
  // Every survivor has rolled back (their acks prove it) and is holding its
  // round loop for this commit. Only now may anyone send round traffic
  // again: a re-executed frame arriving before a slower survivor's
  // rollback would be wiped by its inbox restore and never re-sent.
  MarkFrame commit;
  commit.shard = transport_->local_shard();
  commit.phase = 3;
  commit.index = round;
  BroadcastMark(commit);
  PDMS_LOG_INFO << "readmitted at round " << round;
  return Status::Ok();
}

void PdmsNode::SendRejoinVerdict(uint32_t shard, uint64_t round, bool accepted,
                                 std::string reason) {
  RejoinAckFrame ack;
  ack.shard = transport_->local_shard();
  ack.round = round;
  ack.accepted = accepted;
  ack.reason = std::move(reason);
  const Status status = transport_->SendControl(shard, Frame{ack});
  if (!status.ok()) PDMS_LOG_WARNING << status.message();
}

Status PdmsNode::ServeRejoin(const RejoinFrame& rejoin) {
  const uint32_t shards = transport_->shard_count();
  if (rejoin.shard >= shards || rejoin.shard == transport_->local_shard()) {
    return Status::InvalidArgument(
        StrFormat("rejoin from impossible shard %u", rejoin.shard));
  }
  // Rejection verdicts are best-effort: they only reach a shard whose link
  // is still live (the fast-restart case); a quarantined requester times
  // out on the missing ack instead.
  if (rejoin.state_epoch != state_epoch_) {
    SendRejoinVerdict(rejoin.shard, rejoin.round, false,
                      "state epoch mismatch — topology or options diverged");
    return Status::FailedPrecondition(
        StrFormat("shard %u rejoined with state epoch %llx, ours is %llx",
                  rejoin.shard,
                  static_cast<unsigned long long>(rejoin.state_epoch),
                  static_cast<unsigned long long>(state_epoch_)));
  }
  const NodeSnapshot* cut = nullptr;
  for (const NodeSnapshot& entry : cut_ring_) {
    if (entry.round == rejoin.round) {
      cut = &entry;
      break;
    }
  }
  if (cut == nullptr) {
    SendRejoinVerdict(
        rejoin.shard, rejoin.round, false,
        StrFormat("cut for round %llu is no longer held",
                  static_cast<unsigned long long>(rejoin.round)));
    return Status::NotFound(
        StrFormat("no ring entry for round %llu",
                  static_cast<unsigned long long>(rejoin.round)));
  }
  PDMS_LOG_INFO << "shard " << rejoin.shard << " rejoining at round "
                << rejoin.round << "; rolling back to that cut";
  // Roll everything back to the requested cut. The ring entry is restored
  // by copy: it stays valid for a repeat attempt.
  PDMS_RETURN_IF_ERROR(pdms_.engine().RestoreImage(cut->engine));
  PDMS_RETURN_IF_ERROR(transport_->RestoreInboxes(cut->inbox));
  transport_->SetNow(cut->tick);
  if (!transport_->IsAbandoned(rejoin.shard)) {
    // Fast restart: the shard came back before the failure detector fired.
    // Tear the stale link down so re-admission dials the new incarnation.
    PDMS_RETURN_IF_ERROR(transport_->AbandonShard(rejoin.shard));
  }
  // Readmit *before* acking: frames staged toward an abandoned shard are
  // silently dropped, and the verdict below must reach it.
  PDMS_RETURN_IF_ERROR(transport_->ReadmitShard(rejoin.shard, rejoin.address));
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    active_[rejoin.shard] = true;
    last_heard_[rejoin.shard] = std::chrono::steady_clock::now();
    consumed_low_[1] = rejoin.round + 1;
    grace_armed_ = false;
    rejoin_commit_.reset();
    // Queued round marks are all from the execution being rolled back:
    // indexes at or below the cut are spent, and later ones describe
    // rounds every shard is about to re-run and re-announce. Letting a
    // stale mark satisfy the re-run's barrier would break the invariant
    // that a mark flushes its round's data frames — the re-sent data
    // travels long after the original mark did.
    marks_.erase(std::remove_if(
                     marks_.begin(), marks_.end(),
                     [](const MarkFrame& mark) { return mark.phase == 1; }),
                 marks_.end());
  }
  SendRejoinVerdict(rejoin.shard, rejoin.round, true, "");
  NodeSnapshot resume;
  resume.state_epoch = state_epoch_;
  resume.round = cut->round;
  resume.tick = cut->tick;
  resume.quiet = cut->quiet;
  resume.previous_change = cut->previous_change;
  resume.report_updates = cut->report_updates;
  resume_ = std::move(resume);
  RebuildSnapshot();
  // Hold here until the restarted shard confirms every survivor rolled
  // back. Resuming earlier would race a slower survivor's inbox restore:
  // our re-executed round traffic could land just before the wipe and
  // vanish from the run for good.
  {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.mark_timeout_ms);
    std::unique_lock<std::mutex> lock(control_mutex_);
    while (!rejoin_commit_.has_value()) {
      PDMS_RETURN_IF_ERROR(transport_->loop_error());
      if (std::chrono::steady_clock::now() >= deadline) {
        PDMS_LOG_WARNING << "no rejoin commit from shard " << rejoin.shard
                         << " after " << options_.mark_timeout_ms
                         << "ms; resuming anyway";
        break;
      }
      control_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
    rejoin_commit_.reset();
  }
  return Status::Ok();
}

// --- Posterior snapshots & queries ----------------------------------------------

void PdmsNode::RebuildSnapshot() {
  auto snapshot = std::make_shared<Snapshot>();
  const Digraph& graph = pdms_.graph();
  for (EdgeId e : graph.LiveEdges()) {
    const PeerId owner = graph.edge(e).src;
    if (!transport_->IsLocalPeer(owner)) continue;
    const Peer& peer = pdms_.peer(owner);
    const SchemaMapping* mapping = peer.mapping(e);
    if (mapping == nullptr) continue;
    const size_t attrs = peer.schema().size();
    for (AttributeId a = 0; a < attrs; ++a) {
      const MappingVarKey var{e, a};
      if (peer.HasEvidence(var)) {
        snapshot->posteriors.emplace(var.Packed(), peer.Posterior(var));
      }
    }
    const MappingVarKey coarse{e, MappingVarKey::kWholeMapping};
    if (peer.HasEvidence(coarse)) {
      snapshot->posteriors.emplace(coarse.Packed(), peer.Posterior(coarse));
    }
  }
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

std::shared_ptr<const PdmsNode::Snapshot> PdmsNode::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

bool PdmsNode::GateAllows(const Peer& owner, EdgeId edge,
                          AttributeId attribute,
                          const Snapshot& snapshot) const {
  // Mirrors Peer::GateAllows, reading the frozen snapshot instead of the
  // live (round-mutated) posterior state.
  const SchemaMapping* mapping = owner.mapping(edge);
  if (mapping == nullptr || !mapping->Apply(attribute).has_value()) {
    return false;
  }
  const EngineOptions& engine_options = pdms_.options();
  const MappingVarKey var =
      engine_options.granularity == Granularity::kCoarse
          ? MappingVarKey{edge, MappingVarKey::kWholeMapping}
          : MappingVarKey{edge, attribute};
  const auto it = snapshot.posteriors.find(var.Packed());
  if (it == snapshot.posteriors.end()) {
    return engine_options.forward_without_evidence;
  }
  return it->second > engine_options.theta;
}

QueryResponseFrame PdmsNode::ExecuteSnapshotQuery(
    const QueryRequestFrame& request) const {
  QueryResponseFrame response;
  response.request_id = request.request_id;
  if (request.origin >= pdms_.peer_count() ||
      !transport_->IsLocalPeer(request.origin)) {
    response.ok = false;
    response.error =
        StrFormat("origin peer %u is not hosted by this node", request.origin);
    return response;
  }
  Result<Query> parsed =
      ParseQuery(request.text, pdms_.peer(request.origin).schema());
  if (!parsed.ok()) {
    response.ok = false;
    response.error = parsed.status().ToString();
    return response;
  }
  const std::shared_ptr<const Snapshot> snapshot = CurrentSnapshot();
  const Digraph& graph = pdms_.graph();

  struct Visit {
    PeerId peer;
    Query query;
    uint32_t ttl;
    std::vector<PeerId> path;  ///< visited list carried by the message
  };
  std::deque<Visit> frontier;
  frontier.push_back(Visit{request.origin, std::move(parsed).value(),
                           request.ttl, {}});
  std::unordered_set<PeerId> processed;
  while (!frontier.empty()) {
    Visit visit = std::move(frontier.front());
    frontier.pop_front();
    if (!processed.insert(visit.peer).second) continue;
    const Peer& peer = pdms_.peer(visit.peer);
    for (const ResultRow& row : peer.store().Execute(visit.query)) {
      std::string rendered = StrFormat("peer=%u doc=%llu", visit.peer,
                                       static_cast<unsigned long long>(row.document));
      for (const std::string& value : row.values) {
        rendered += '|';
        rendered += value;
      }
      response.rows.push_back(std::move(rendered));
    }
    ++response.reached;
    if (visit.ttl == 0) continue;
    for (EdgeId edge : graph.out_edges(visit.peer)) {
      if (!graph.edge_alive(edge)) continue;
      const PeerId next = graph.edge(edge).dst;
      // Shard-local serving: edges leaving the shard are out of this
      // node's jurisdiction (a distributed query fabric would forward).
      if (!transport_->IsLocalPeer(next)) continue;
      if (std::find(visit.path.begin(), visit.path.end(), next) !=
          visit.path.end()) {
        continue;
      }
      bool allowed = true;
      for (AttributeId attribute : visit.query.Attributes()) {
        if (!GateAllows(peer, edge, attribute, *snapshot)) {
          allowed = false;
          break;
        }
      }
      if (!allowed) continue;
      const SchemaMapping* mapping = peer.mapping(edge);
      Result<Query> translated = visit.query.Translate(*mapping);
      if (!translated.ok()) continue;  // ⊥ slipped through: blocked
      Visit forward;
      forward.peer = next;
      forward.query = std::move(translated).value();
      forward.ttl = visit.ttl - 1;
      forward.path = visit.path;
      forward.path.push_back(visit.peer);
      frontier.push_back(std::move(forward));
    }
  }
  return response;
}

// --- Query client ---------------------------------------------------------------

Result<QueryResponseFrame> PdmsNode::QueryNode(
    const std::string& address, const QueryRequestFrame& request,
    int timeout_ms) {
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  PDMS_RETURN_IF_ERROR(ParseSocketAddress(address, &addr, &addr_len));

  const int fd = socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    close(fd);
    return Status::Unavailable(
        StrFormat("connect(%s): %s", address.c_str(), std::strerror(errno)));
  }

  std::vector<uint8_t> bytes;
  EncodeFrame(Frame{request}, &bytes);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return Status::Unavailable(
          StrFormat("send: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }

  FrameAssembler assembler;
  for (;;) {
    uint8_t buffer[4096];
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      close(fd);
      return Status::Unavailable(
          StrFormat("no response within %dms", timeout_ms));
    }
    assembler.Feed(std::span<const uint8_t>(buffer, n));
    auto next = assembler.Next();
    if (!next.ok()) {
      close(fd);
      return next.status();
    }
    if (!next->has_value()) continue;
    close(fd);
    if (auto* reply = std::get_if<QueryResponseFrame>(&**next)) {
      return std::move(*reply);
    }
    return Status::Internal("node answered with an unexpected frame type");
  }
}

}  // namespace pdms
