#include "pdms/builder.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "util/string_util.h"

namespace pdms {

PdmsBuilder& PdmsBuilder::AddPeer(Schema schema) {
  schemas_.push_back(std::move(schema));
  return *this;
}

PdmsBuilder& PdmsBuilder::AddMapping(PeerId from, PeerId to,
                                     SchemaMapping mapping) {
  mappings_.push_back(PendingMapping{from, to, std::move(mapping)});
  return *this;
}

PdmsBuilder& PdmsBuilder::WithOptions(const EngineOptions& options) {
  options_ = options;
  return *this;
}

PdmsBuilder& PdmsBuilder::WithParallelism(size_t parallelism) {
  parallelism_ = parallelism;
  return *this;
}

PdmsBuilder& PdmsBuilder::WithValueErrorBudget(double eps) {
  value_error_budget_ = eps;
  return *this;
}

PdmsBuilder& PdmsBuilder::WithByzantineGuard(
    const ByzantineGuardOptions& guard) {
  byzantine_guard_ = guard;
  return *this;
}

PdmsBuilder& PdmsBuilder::WithByzantinePlan(const ByzantinePlan& plan) {
  byzantine_plan_ = plan;
  return *this;
}

PdmsBuilder& PdmsBuilder::WithTransport(TransportFactory factory) {
  transport_factory_ = std::move(factory);
  return *this;
}

PdmsBuilder& PdmsBuilder::WithSimTransport(const NetworkOptions& network) {
  return WithTransport(
      [network](size_t peer_count, const EngineOptions& /*options*/) {
        return std::make_unique<SimTransport>(peer_count, network);
      });
}

PdmsBuilder& PdmsBuilder::WithInstantTransport() {
  return WithTransport(
      [](size_t peer_count, const EngineOptions& /*options*/) {
        return std::make_unique<SimTransport>(
            peer_count, NetworkOptions{.delay_ticks = 0});
      });
}

PdmsBuilder PdmsBuilder::FromSynthetic(const SyntheticPdms& synthetic) {
  PdmsBuilder builder;
  if (synthetic.graph.edge_count() != synthetic.graph.edge_capacity()) {
    // Re-adding only the live edges would renumber everything after the
    // first tombstone while callers keep indexing with the original ids.
    builder.deferred_error_ = Status::FailedPrecondition(StrFormat(
        "synthetic graph has removed edges (%zu live of %zu ever added); "
        "its edge ids cannot be reproduced by sequential AddMapping",
        synthetic.graph.edge_count(), synthetic.graph.edge_capacity()));
    return builder;
  }
  for (const Schema& schema : synthetic.schemas) {
    builder.AddPeer(schema);
  }
  for (EdgeId e : synthetic.graph.LiveEdges()) {
    const Edge& edge = synthetic.graph.edge(e);
    builder.AddMapping(edge.src, edge.dst, synthetic.mappings[e]);
  }
  return builder;
}

Result<Pdms> PdmsBuilder::Build() {
  if (!deferred_error_.ok()) {
    return deferred_error_;
  }
  if (parallelism_.has_value()) {
    options_.parallelism = *parallelism_;
  }
  if (value_error_budget_.has_value()) {
    if (*value_error_budget_ < 0.0) {
      return Status::InvalidArgument(
          "value error budget must be non-negative (0 disables quantization)");
    }
    options_.value_precision.error_budget = *value_error_budget_;
  }
  if (byzantine_guard_.has_value()) {
    const double threshold = byzantine_guard_->demote_threshold;
    if (!std::isfinite(threshold) || threshold <= 0.0) {
      return Status::InvalidArgument(
          "byzantine guard: demote_threshold must be positive and finite");
    }
    options_.byzantine_guard = *byzantine_guard_;
  }
  if (byzantine_plan_.has_value()) {
    ByzantinePlan plan = *byzantine_plan_;
    if (plan.lie_probability < 0.0 || plan.lie_probability > 1.0 ||
        plan.equivocate_rate < 0.0 || plan.equivocate_rate > 1.0) {
      return Status::InvalidArgument(
          "byzantine plan: probabilities must lie in [0, 1]");
    }
    std::sort(plan.adversaries.begin(), plan.adversaries.end());
    plan.adversaries.erase(
        std::unique(plan.adversaries.begin(), plan.adversaries.end()),
        plan.adversaries.end());
    options_.byzantine = std::move(plan);
  }
  if (schemas_.empty()) {
    return Status::FailedPrecondition("a PDMS needs at least one peer");
  }
  const size_t n = schemas_.size();
  if (!options_.byzantine.adversaries.empty() &&
      options_.byzantine.adversaries.back() >= n) {
    return Status::OutOfRange(StrFormat(
        "byzantine plan: adversary %u outside the %zu peers added",
        options_.byzantine.adversaries.back(), n));
  }
  std::set<std::pair<PeerId, PeerId>> links;
  for (size_t i = 0; i < mappings_.size(); ++i) {
    const PendingMapping& pending = mappings_[i];
    if (pending.from >= n || pending.to >= n) {
      return Status::OutOfRange(StrFormat(
          "mapping %zu ('%s'): endpoint %u -> %u outside the %zu peers added",
          i, pending.mapping.name().c_str(), pending.from, pending.to, n));
    }
    if (pending.from == pending.to) {
      return Status::InvalidArgument(StrFormat(
          "mapping %zu ('%s'): self-loop on peer %u (a mapping must relate "
          "two distinct schemas)",
          i, pending.mapping.name().c_str(), pending.from));
    }
    if (!links.emplace(pending.from, pending.to).second) {
      return Status::AlreadyExists(StrFormat(
          "mapping %zu ('%s'): a mapping %u -> %u was already added",
          i, pending.mapping.name().c_str(), pending.from, pending.to));
    }
    const Schema& source = schemas_[pending.from];
    const Schema& target = schemas_[pending.to];
    if (pending.mapping.source_size() != source.size()) {
      return Status::InvalidArgument(StrFormat(
          "mapping %zu ('%s'): covers %zu source attributes but schema '%s' "
          "of peer %u has %zu",
          i, pending.mapping.name().c_str(), pending.mapping.source_size(),
          source.name().c_str(), pending.from, source.size()));
    }
    for (AttributeId a = 0; a < pending.mapping.source_size(); ++a) {
      const std::optional<AttributeId> image = pending.mapping.Apply(a);
      if (image.has_value() && *image >= target.size()) {
        return Status::InvalidArgument(StrFormat(
            "mapping %zu ('%s'): attribute %u maps to %u but schema '%s' of "
            "peer %u has only %zu attributes",
            i, pending.mapping.name().c_str(), a, *image,
            target.name().c_str(), pending.to, target.size()));
      }
    }
  }

  Digraph graph(n);
  std::vector<SchemaMapping> mappings;
  mappings.reserve(mappings_.size());
  for (PendingMapping& pending : mappings_) {
    PDMS_ASSIGN_OR_RETURN(const EdgeId edge,
                          graph.AddEdge(pending.from, pending.to));
    (void)edge;
    mappings.push_back(std::move(pending.mapping));
  }

  std::unique_ptr<Transport> transport;
  if (transport_factory_) {
    transport = transport_factory_(n, options_);
    if (transport == nullptr) {
      return Status::InvalidArgument("transport factory returned null");
    }
  }

  PDMS_ASSIGN_OR_RETURN(
      std::unique_ptr<PdmsEngine> engine,
      PdmsEngine::Create(graph, std::move(schemas_), std::move(mappings),
                         options_, std::move(transport)));
  return Pdms(std::move(engine));
}

}  // namespace pdms
