#ifndef PDMS_CORE_OPTIONS_H_
#define PDMS_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "graph/closure.h"
#include "net/fault_injection.h"
#include "pdms/transport.h"

namespace pdms {

/// When peers exchange remote belief messages (Section 4.3).
enum class ScheduleKind : uint8_t {
  /// Every `period_ticks` ticks each peer proactively sends remote
  /// messages to all peers in its local factor graph (Section 4.3.1).
  kPeriodic = 0,
  /// Remote messages piggyback on query traffic only: zero additional
  /// message overhead, convergence speed proportional to query load
  /// (Section 4.3.2).
  kLazy = 1,
};

/// Whether mapping quality is tracked per attribute or per mapping
/// (Section 4.1, "two levels of granularity").
enum class Granularity : uint8_t {
  kFine = 0,    ///< one variable / factor-graph instance per attribute
  kCoarse = 1,  ///< one variable per mapping
};

/// Quantized belief wire values (wire format v4): ship each remote µ as a
/// fixed-point log-odds quantum instead of two raw doubles, trading a
/// bounded per-value error for a multiple-times smaller steady-state
/// wire footprint. Off by default — posteriors stay bitwise-identical to
/// the unquantized engine unless a budget is set.
///
/// Precision adapts to convergence: links start coarse (a step of ~8ε
/// while residuals exceed 64ε) and step up monotonically to the fine tier
/// as the peer's residual shrinks (see `ValueRankTarget`).
struct ValuePrecisionOptions {
  /// Maximum tolerated per-value log-odds error ε. 0 (default) disables
  /// quantization entirely (raw IEEE doubles on the wire). The finest
  /// tier uses `ValueBitsForBudget(ε)` fractional bits, i.e. a
  /// quantization step of at most ε/8.
  double error_budget = 0.0;
};

/// Byzantine-resilient belief admission (off by default). When enabled,
/// every inbound belief entry is validated semantically before it touches
/// replica state — finite normalizable measures, values consistent with
/// the bundle's declared quantization tier, no same-round equivocation —
/// and each neighbor link carries a decaying misbehavior score fed by
/// admission rejections, oscillation and posterior-influence outliers.
/// Crossing `demote_threshold` demotes the link (absorbed beliefs damped
/// toward uniform); crossing twice it quarantines the link (bundles
/// dropped entirely). Demotions are sticky and replay deterministically
/// from round-ordered evidence, so guarded runs stay bitwise
/// parallel-deterministic. With `enabled` false the admission path is
/// byte-for-byte the unguarded one. The weights, decay and detector
/// bounds are fixed (core/guard.h).
struct ByzantineGuardOptions {
  bool enabled = false;
  /// Soft-demotion score; hard quarantine fires at twice it. Must be
  /// positive and finite.
  double demote_threshold = 6.0;
};

/// Configuration of a `PdmsEngine`.
struct EngineOptions {
  /// Prior P(m = correct) for mappings without explicit prior information
  /// (maximum entropy: 0.5, Section 4.4).
  double default_prior = 0.5;
  /// ∆ — probability that two or more mapping errors compensate along a
  /// closure. When unset, each discovering peer estimates ∆ = 1/(s−1)
  /// from its schema size s, the paper's heuristic (Section 4.5: eleven
  /// attributes -> ∆ = 1/10).
  std::optional<double> delta_override;
  /// Semantic threshold θ: a query is forwarded through a mapping only if
  /// every query attribute has posterior correctness > θ (Section 2).
  double theta = 0.5;
  /// Forward queries through mappings that have no feedback evidence yet
  /// (standard-PDMS bootstrap behaviour; ⊥ attributes still block).
  bool forward_without_evidence = true;
  /// TTL for closure-discovery probes (Section 3.2.1). Together with
  /// `closure_limits` it sets how many closures discovery announces; see
  /// there for how the defaults scale.
  uint32_t probe_ttl = 6;
  /// Structural limits honored during discovery. The defaults
  /// (`max_path_length` 6, `max_cycle_length` 8) suit small networks
  /// only: the parallel-path closures over paths of 2-6 mappings grow
  /// combinatorially with the network. On a 200-peer Erdős–Rényi network
  /// with 763 mappings and 6 attributes (`probe_ttl` 4), one random draw
  /// announced 196,307 factors under these defaults and another 294,390
  /// (discovery 5 s, 1.6 GB), against 487 and 594 with `max_path_length`
  /// 1. At 300 peers one run used more than 1.8 GB before it was stopped.
  /// Larger deployments should bound `max_path_length` (the perfbench
  /// workloads set it to 1, cycles only); nothing warns at run time.
  ClosureFinderOptions closure_limits;
  /// Cached foreign probes per (peer, origin) for parallel-path detection.
  size_t max_cached_probes = 128;

  ScheduleKind schedule = ScheduleKind::kPeriodic;
  /// Remote-message period τ in ticks (periodic schedule).
  uint64_t period_ticks = 1;

  /// Worker threads used to execute inference rounds (per-peer
  /// `ComputeRound` and belief-bundle construction fan out across them).
  /// 1 = fully serial (no thread pool is created); 0 = one worker per
  /// hardware thread. Results are identical at every setting: peers only
  /// touch their own state during a round, and the engine issues all
  /// transport sends in canonical peer order.
  size_t parallelism = 1;

  /// Minimum peers per lane before a round fans out to the thread pool:
  /// with fewer, the wake/steal/join overhead outweighs the round work
  /// (1k-peer configs measured 0.90–0.97x serial speed when forced
  /// parallel) and the round runs inline instead. Purely a scheduling
  /// decision — results are identical either way. Set to 1 to fan out
  /// whenever there is at least one peer per lane (e.g. to exercise the
  /// parallel path in small tests; networks with fewer peers than lanes
  /// still run inline).
  size_t min_peers_per_lane = 1024;

  Granularity granularity = Granularity::kFine;

  /// Convergence: max posterior change per round below `tolerance` for
  /// `convergence_patience` consecutive rounds. 0 = auto, from the belief
  /// loss the transport measured during the current `RunToConvergence`
  /// call (`TransportStats::dropped` over the envelopes the engine sent):
  /// 1 when nothing was dropped, else the centralized engine's
  /// ceil(3/P(send)) with P(send) = 1 − measured loss; a run that lost
  /// every envelope never declares convergence.
  double tolerance = 1e-7;
  size_t convergence_patience = 0;
  /// Damping λ in [0,1) on local factor->variable message updates:
  /// message' = λ·old + (1−λ)·computed. Loopy BP on dense evidence graphs
  /// can oscillate (Section 3.1, [15]); damping restores convergence
  /// without moving the fixed point. 0 disables (the paper's plain
  /// schedule).
  double damping = 0.0;

  /// Quantized belief wire values (wire format v4); see
  /// `ValuePrecisionOptions`. Participates in `ComputeStateEpoch`: a
  /// snapshot taken under one budget cannot restore under another.
  ValuePrecisionOptions value_precision;

  /// Byzantine-resilient belief admission (see `ByzantineGuardOptions`).
  /// Participates in `ComputeStateEpoch`: guard state in a snapshot only
  /// restores under the configuration that produced it.
  ByzantineGuardOptions byzantine_guard;

  /// Seeded behavioral chaos: peers listed in the plan forge their
  /// outgoing belief values (lies, inversion, equivocation, collusion) at
  /// bundle send time. Replayable from the seed like the link-level
  /// `FaultPlan`s; see `ByzantinePlan` in net/fault_injection.h.
  ByzantinePlan byzantine;

  /// Delivery delay of the default in-process `SimTransport`.
  NetworkOptions network;
};

}  // namespace pdms

#endif  // PDMS_CORE_OPTIONS_H_
