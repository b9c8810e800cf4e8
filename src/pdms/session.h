#ifndef PDMS_PDMS_SESSION_H_
#define PDMS_PDMS_SESSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/pdms_engine.h"

namespace pdms {

class Session;

/// Observation hook invoked after every inference round a `Session`
/// drives (Step and each Converge iteration). Replaces the old engine-side
/// `TrackVariable`/trajectory plumbing: record whatever you need from the
/// session's read surface — posteriors, transport stats — without the
/// engine knowing about it.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// `round` counts rounds driven by the session, starting at 1.
  virtual void OnRound(size_t round, const RoundReport& report,
                       const Session& session) = 0;
};

/// Bounds for `Session::Converge`. Implicitly constructible from a round
/// count so `session.Converge(200)` reads like the old API; tolerance and
/// patience come from `EngineOptions`.
struct ConvergeLimits {
  size_t max_rounds = 200;

  ConvergeLimits() = default;
  ConvergeLimits(size_t rounds) : max_rounds(rounds) {}  // NOLINT
};

/// The inference / query surface of a `Pdms` instance.
///
/// A session drives the engine through its lifecycle — `Discover()` the
/// closure structure, `Converge()` the decentralized message passing,
/// then `Query()` with θ-gated routing — and notifies registered
/// `RoundObserver`s after every round it executes. Sessions are cheap
/// handles: a `Pdms` hands out its default session via `session()` and
/// independent ones (separate observers, shared engine state) via
/// `NewSession()`.
class Session {
 public:
  /// Internal: applications obtain sessions from `Pdms`.
  explicit Session(PdmsEngine* engine) : engine_(engine) {}

  // --- Lifecycle -------------------------------------------------------------

  /// Sends TTL probes from every peer and processes discovery traffic to
  /// quiescence. Returns the number of distinct factor replicas known
  /// network-wide afterwards.
  size_t Discover();

  /// One synchronized inference round; observers fire once.
  RoundReport Step();

  /// Rounds until posterior movement stays below the configured tolerance
  /// (patience from the measured belief loss) or `limits.max_rounds`;
  /// observers fire after every round.
  ConvergenceReport Converge(ConvergeLimits limits = {});

  // --- Queries ---------------------------------------------------------------

  /// Issues one query from `origin` (expressed in origin's schema) and
  /// drives the network until the query traffic quiesces.
  QueryReport Query(PeerId origin, const ::pdms::Query& query, uint32_t ttl);

  /// Issues a batch of queries concurrently: all requests enter the
  /// network before the first tick, so their traffic interleaves the way
  /// simultaneous real-world queries would. Reports are returned in
  /// request order.
  std::vector<QueryReport> QueryAll(std::span<const QueryRequest> requests);

  // --- Observation -----------------------------------------------------------

  /// Registers `observer` (not owned; must outlive the session or be
  /// removed first).
  void AddObserver(RoundObserver* observer);
  void RemoveObserver(RoundObserver* observer);

  /// Rounds driven by this session so far.
  size_t rounds() const { return rounds_; }

  /// Read surface for observers: posterior P(correct) of a mapping
  /// variable as believed by the mapping's owner.
  double Posterior(EdgeId edge, AttributeId attribute) const;
  double PosteriorCoarse(EdgeId edge) const;

 private:
  void Notify(const RoundReport& report);

  PdmsEngine* engine_;
  std::vector<RoundObserver*> observers_;
  size_t rounds_ = 0;
};

/// Ready-made observer recording per-round posterior trajectories of a
/// fixed set of mapping variables (the Figure 7 instrumentation):
/// `trajectory()[r][i]` is the posterior of `vars[i]` after the (r+1)-th
/// observed round.
class TrajectoryRecorder final : public RoundObserver {
 public:
  explicit TrajectoryRecorder(std::vector<MappingVarKey> vars)
      : vars_(std::move(vars)) {}

  void OnRound(size_t round, const RoundReport& report,
               const Session& session) override;

  const std::vector<std::vector<double>>& trajectory() const {
    return trajectory_;
  }

 private:
  std::vector<MappingVarKey> vars_;
  std::vector<std::vector<double>> trajectory_;
};

}  // namespace pdms

#endif  // PDMS_PDMS_SESSION_H_
