#ifndef PDMS_PDMS_BUILDER_H_
#define PDMS_PDMS_BUILDER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mapping/mapping_generator.h"
#include "pdms/pdms.h"
#include "pdms/transport.h"

namespace pdms {

/// Fluent, validating constructor for a `Pdms`.
///
///   PDMS_ASSIGN_OR_RETURN(
///       Pdms pdms, PdmsBuilder()
///                      .AddPeer(schema_a)      // becomes PeerId 0
///                      .AddPeer(schema_b)      // becomes PeerId 1
///                      .AddMapping(0, 1, m01)  // becomes EdgeId 0
///                      .WithOptions(options)
///                      .WithInstantTransport()
///                      .Build());
///
/// Peers are numbered in `AddPeer` order, mappings (edges) in `AddMapping`
/// order. `Build()` validates the assembled network — endpoint ranges,
/// duplicate links, mapping/schema arity and attribute ranges — and
/// returns precise `Status` errors instead of the undefined behaviour the
/// old raw parallel-vector construction invited. A builder is single-use:
/// `Build()` consumes its state.
class PdmsBuilder {
 public:
  /// Creates the transport a built `Pdms` will use. Invoked by `Build()`
  /// once the peer count is known.
  using TransportFactory = std::function<std::unique_ptr<Transport>(
      size_t peer_count, const EngineOptions& options)>;

  PdmsBuilder() = default;

  /// Adds a peer holding `schema`; peers are numbered 0, 1, … in call
  /// order.
  PdmsBuilder& AddPeer(Schema schema);

  /// Adds the directed mapping `from -> to`; edges are numbered 0, 1, …
  /// in call order.
  PdmsBuilder& AddMapping(PeerId from, PeerId to, SchemaMapping mapping);

  PdmsBuilder& WithOptions(const EngineOptions& options);

  /// Worker threads for round execution (`EngineOptions::parallelism`):
  /// 1 = serial, 0 = one per hardware thread. Applied at `Build()` time on
  /// top of whatever `WithOptions` supplied, so call order does not matter.
  PdmsBuilder& WithParallelism(size_t parallelism);

  /// Quantized belief wire values (`EngineOptions::value_precision`):
  /// ship remote µ values as adaptive fixed-point log-odds quanta with a
  /// per-value error budget of `eps` (0 restores exact raw doubles, the
  /// default). Applied at `Build()` time on top of whatever
  /// `WithOptions` supplied, so call order does not matter.
  PdmsBuilder& WithValueErrorBudget(double eps);

  /// Byzantine-resilient belief admission
  /// (`EngineOptions::byzantine_guard`): semantic validation of every
  /// inbound belief entry plus per-neighbor misbehavior scoring with
  /// soft/hard link demotion. `Build()` rejects a `demote_threshold` that
  /// is not positive and finite. Applied at `Build()` time on top of
  /// whatever `WithOptions` supplied, so call order does not matter.
  PdmsBuilder& WithByzantineGuard(const ByzantineGuardOptions& guard);

  /// Seeded behavioral chaos (`EngineOptions::byzantine`): the listed
  /// adversaries forge their outgoing belief values per the plan.
  /// `Build()` rejects probabilities outside [0, 1]; the adversary list
  /// is sorted automatically (`ByzantinePlan::IsAdversary` binary
  /// searches it).
  PdmsBuilder& WithByzantinePlan(const ByzantinePlan& plan);

  /// Supplies a custom transport. The factory runs at `Build()` time with
  /// the final peer count.
  PdmsBuilder& WithTransport(TransportFactory factory);

  /// In-process simulator with an explicit delivery delay (also
  /// reachable via `EngineOptions::network`; this override wins). For
  /// message loss wrap a transport in a `FaultInjectingTransport`.
  PdmsBuilder& WithSimTransport(const NetworkOptions& network);

  /// Shorthand for `WithSimTransport({.delay_ticks = 0})`: the zero-delay
  /// "instant" transport.
  PdmsBuilder& WithInstantTransport();

  /// Preloads peers and mappings from a generated synthetic PDMS
  /// (topologies from `topology::`, workloads from `BuildSyntheticPdms`).
  /// Edge ids are preserved because live edges are re-added in ascending
  /// order; a synthetic graph with *removed* (tombstoned) edges would
  /// silently renumber everything after the hole, so that case is
  /// rejected — `Build()` returns `FailedPrecondition` for it.
  static PdmsBuilder FromSynthetic(const SyntheticPdms& synthetic);

  size_t peer_count() const { return schemas_.size(); }
  size_t mapping_count() const { return mappings_.size(); }

  /// Validates and constructs. On failure nothing is built and the status
  /// pinpoints the offending peer / mapping.
  Result<Pdms> Build();

 private:
  struct PendingMapping {
    PeerId from = 0;
    PeerId to = 0;
    SchemaMapping mapping;
  };

  std::vector<Schema> schemas_;
  std::vector<PendingMapping> mappings_;
  EngineOptions options_;
  std::optional<size_t> parallelism_;
  std::optional<double> value_error_budget_;
  std::optional<ByzantineGuardOptions> byzantine_guard_;
  std::optional<ByzantinePlan> byzantine_plan_;
  TransportFactory transport_factory_;
  /// First unsatisfiable request recorded while assembling (e.g. a
  /// FromSynthetic source whose edge ids cannot be reproduced);
  /// reported by Build().
  Status deferred_error_;
};

}  // namespace pdms

#endif  // PDMS_PDMS_BUILDER_H_
