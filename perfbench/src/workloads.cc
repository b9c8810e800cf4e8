#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "graph/topology.h"
#include "net/codec.h"
#include "net/socket_transport.h"
#include "node/pdms_node.h"
#include "store/snapshot.h"

namespace perfbench {
namespace {

using pdms::AttributeId;
using pdms::EdgeId;
using pdms::Pdms;
using pdms::PeerId;

/// Set-ups per timed run; setup_s is their median.
constexpr size_t kSetupRepeats = 3;
/// Attributes per peer schema, for every workload.
constexpr size_t kAttributes = 6;
/// Share of generated mapping entries that are wrong.
constexpr double kErrorRate = 0.2;
/// The query gate θ (EngineOptions default); fault_f1 flags posteriors ≤ θ.
constexpr double kTheta = 0.5;
/// Round cap of every convergence run; missing it fails the operation. The
/// 4k ER network needs 71-140 rounds on the seeds tried.
constexpr size_t kSolveCap = 400;
/// Answer-quality floor: a fault_f1 below it fails the run. Every workload
/// measures about 0.70 on the default and holdout seeds.
constexpr double kF1Floor = 0.6;
/// Lower bound on queries per timed phase, so query_ms_p90 always has at
/// least 200 samples beyond it.
constexpr size_t kMinQueries = 2000;
/// Queries whose counts feed the query.* per-layer metrics (a fixed prefix
/// of the stream, so those counts repeat exactly).
constexpr size_t kCountedQueries = 2000;
/// Lazy schedule: one Session::Step per this many queries, and the query
/// count after which answer quality is scored.
constexpr size_t kLazyQueriesPerStep = 50;
constexpr size_t kLazyScoredQueries = 10000;
/// Node workload: snapshot queries are timed in bursts of kNodeBurst
/// back-to-back queries, kNodeBursts per run. One snapshot query takes a
/// few microseconds, below the scheduling jitter of a shared host, so a
/// latency sample is the mean over one burst. The traced run also sends
/// kNodeTcpQueries through the TCP query port. That path is not timed end
/// to end: loopback connection set-up and event-loop wake-ups vary
/// several-fold between runs on a shared host, and tens of thousands of
/// connections per run crowd the ephemeral ports with TIME_WAIT sockets.
constexpr size_t kNodeBurst = 50;
constexpr size_t kNodeBursts = 1000;
constexpr size_t kNodeTcpQueries = 2000;
/// Minimum time each codec direction is measured over.
constexpr double kCodecSeconds = 0.2;
/// Checkpoints timed by the store side measurement (median reported).
constexpr size_t kCheckpointRepeats = 5;

enum class Topology { kErdosRenyi, kBarabasiAlbert };
enum class Shape {
  /// Timed rounds start from cold (right after discovery).
  kColdRounds,
  /// Converges first, then times steady periodic rounds.
  kSteadyRounds,
  /// Lazy schedule: a closed-loop query client, one Step per 50 queries.
  kLazyQueries,
  /// Two PdmsNode shards over loopback sockets, checkpointing every round.
  kNodeRounds,
};

struct WorkloadSpec {
  const char* name;
  Topology topology;
  size_t peers;
  /// Longest cycle discovered; also the probe TTL.
  size_t max_cycle;
  double value_error_budget;
  size_t parallelism;
  /// Traced run only: parallelism of the pool cross-check (0 = none). Two
  /// round threads on a shared 4-vCPU host spread 0.30-0.42 between seeds,
  /// so the timed rounds stay serial and the pool is measured here.
  size_t pool_parallelism;
  double damping;
  Shape shape;
  /// Rounds whose traffic and answer quality are counted (periodic
  /// shapes; node: the fixed round count).
  size_t timed_rounds;
  uint32_t query_ttl;
};

const WorkloadSpec kWorkloads[] = {
    {"er4k-cyc4-solve", Topology::kErdosRenyi, 4000, 4, 0.0, 1, 0, 0.5,
     Shape::kColdRounds, 50, 3},
    {"ba10k-quant-steady", Topology::kBarabasiAlbert, 10000, 2, 1e-3, 1, 2,
     0.0, Shape::kSteadyRounds, 50, 1},
    {"er2k-lazy-query", Topology::kErdosRenyi, 2000, 3, 0.0, 1, 0, 0.0,
     Shape::kLazyQueries, 0, 3},
};

/// The durable two-shard deployment, measured in the traced run of
/// er2k-lazy-query (see AddNodeLayers) rather than as a timed workload of
/// its own: its round and query times ride on loopback sockets, event-loop
/// wake-ups and per-round fsyncs to the VM disk, and spread 0.18-0.54
/// between seeds on a shared host, beyond any bound the benchmark can set.
const WorkloadSpec kNodeSpec = {"er1k-node2-durable", Topology::kErdosRenyi,
                                1000, 4, 0.0, 1, 0, 0.5, Shape::kNodeRounds,
                                100, 3};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "fatal: %s\n", what.c_str());
  std::exit(1);
}

// --- Inputs ----------------------------------------------------------------------

struct Inputs {
  pdms::SyntheticPdms synthetic;
  pdms::EngineOptions options;
};

/// Erdős–Rényi G(n, M) with M = 2n directed edges (mean out-degree 2).
/// Unlike G(n, p), every seed gets the same edge count, so a seed changes
/// which network is solved, not how big it is.
pdms::Digraph ErdosRenyiByEdgeCount(size_t peers, pdms::Rng* rng) {
  pdms::Digraph graph(peers);
  const size_t edges = 2 * peers;
  while (graph.edge_count() < edges) {
    const auto from = static_cast<pdms::NodeId>(rng->Index(peers));
    const auto to = static_cast<pdms::NodeId>(rng->Index(peers));
    if (from != to && !graph.HasEdge(from, to)) {
      if (!graph.AddEdge(from, to).ok()) Die("edge generation failed");
    }
  }
  return graph;
}

/// Everything the library receives is generated here from the seed.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  pdms::Rng rng(seed);
  pdms::Digraph graph =
      spec.topology == Topology::kBarabasiAlbert
          ? pdms::topology::BarabasiAlbert(spec.peers, 2, &rng)
          : ErdosRenyiByEdgeCount(spec.peers, &rng);
  pdms::topology::Symmetrize(&graph);
  pdms::MappingNetworkOptions mapping_options;
  mapping_options.attributes_per_schema = kAttributes;
  mapping_options.error_rate = kErrorRate;

  Inputs inputs;
  inputs.synthetic = pdms::BuildSyntheticPdms(graph, mapping_options, &rng);
  pdms::EngineOptions& options = inputs.options;
  options.theta = kTheta;
  options.probe_ttl = static_cast<uint32_t>(spec.max_cycle);
  options.closure_limits.min_cycle_length = 2;
  options.closure_limits.max_cycle_length = spec.max_cycle;
  options.closure_limits.max_path_length = 1;
  options.damping = spec.damping;
  options.parallelism = spec.parallelism;
  options.value_precision.error_budget = spec.value_error_budget;
  if (spec.shape == Shape::kLazyQueries) {
    options.schedule = pdms::ScheduleKind::kLazy;
  }
  if (spec.shape == Shape::kNodeRounds) {
    // Fixed-length node runs: tolerance 0 never reads as converged, so
    // RunRounds executes exactly NodeOptions::max_rounds rounds.
    options.tolerance = 0.0;
  }
  return inputs;
}

/// A deterministic stream of two-attribute projection queries from
/// uniformly drawn origins.
class QueryStream {
 public:
  QueryStream(const pdms::SyntheticPdms& synthetic, uint64_t seed,
              uint32_t ttl)
      : synthetic_(&synthetic), rng_(seed ^ 0x51ED270B27A1F00Dull), ttl_(ttl) {}

  pdms::QueryRequest Next() {
    pdms::QueryRequest request;
    request.origin =
        static_cast<PeerId>(rng_.Index(synthetic_->graph.node_count()));
    const auto first = static_cast<AttributeId>(rng_.Index(kAttributes));
    const auto second = static_cast<AttributeId>(
        (first + 1 + rng_.Index(kAttributes - 1)) % kAttributes);
    request.query = pdms::Query("q");
    request.query.AddProjection(first);
    request.query.AddProjection(second);
    request.ttl = ttl_;
    return request;
  }

  /// The same request in the query language, for the node query port.
  std::string Text(const pdms::QueryRequest& request) const {
    const pdms::Schema& schema = synthetic_->schemas[request.origin];
    std::string text = "SELECT ";
    const std::vector<pdms::Operation>& ops = request.query.operations();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i > 0) text += ", ";
      text += schema.attribute(ops[i].attribute).name;
    }
    return text;
  }

 private:
  const pdms::SyntheticPdms* synthetic_;
  pdms::Rng rng_;
  uint32_t ttl_;
};

/// Posterior of every (live mapping, attribute), in edge order, as
/// believed by the mapping's owner.
std::vector<double> CollectPosteriors(
    const pdms::SyntheticPdms& synthetic,
    const std::function<double(EdgeId, AttributeId)>& posterior) {
  std::vector<double> values;
  for (EdgeId e : synthetic.graph.LiveEdges()) {
    for (AttributeId a = 0; a < kAttributes; ++a) {
      values.push_back(posterior(e, a));
    }
  }
  return values;
}

/// F1 of "posterior ≤ θ" as a detector of the generator's wrong entries.
double FaultF1(const pdms::SyntheticPdms& synthetic,
               const std::vector<double>& posteriors) {
  uint64_t true_positive = 0, false_positive = 0, false_negative = 0;
  size_t i = 0;
  for (EdgeId e : synthetic.graph.LiveEdges()) {
    for (AttributeId a = 0; a < kAttributes; ++a, ++i) {
      const bool flagged = posteriors[i] <= kTheta;
      const bool wrong = !synthetic.ground_truth[e][a];
      if (flagged && wrong) ++true_positive;
      if (flagged && !wrong) ++false_positive;
      if (!flagged && wrong) ++false_negative;
    }
  }
  const double denominator =
      static_cast<double>(2 * true_positive + false_positive + false_negative);
  return denominator == 0.0 ? 0.0
                            : 2.0 * static_cast<double>(true_positive) /
                                  denominator;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A query must be processed by its origin, and an origin with outgoing
/// mappings must either forward through them or θ-block them.
bool QueryOk(const pdms::QueryReport& report, const pdms::QueryRequest& request,
             const pdms::Digraph& graph) {
  if (std::find(report.reached.begin(), report.reached.end(),
                request.origin) == report.reached.end()) {
    return false;
  }
  return graph.out_edges(request.origin).empty() ||
         !report.used_edges.empty() || !report.blocked_edges.empty();
}

// --- Phases ------------------------------------------------------------------------

/// What one timed phase measured.
struct Phase {
  std::vector<double> round_ms;
  std::vector<double> query_ms;
  size_t queries = 0;
  /// Time the queries_per_s denominator covers.
  double query_seconds = 0.0;
  /// Traffic of the counted window's `counted_rounds` rounds, which the
  /// per-round counts divide by.
  size_t counted_rounds = 0;
  uint64_t wire_bytes = 0;
  uint64_t value_bytes = 0;
  uint64_t header_bytes = 0;
  /// Posteriors at the answer-quality checkpoint.
  std::vector<double> posteriors;
  /// Counts over the first kCountedQueries queries.
  uint64_t counted_queries = 0;
  uint64_t query_messages = 0;
  uint64_t peers_reached = 0;
  uint64_t blocked_edges = 0;
  /// Traced in-process phases only: transport counters over the phase, and
  /// the driver-thread transport time inside the timed steps.
  TimedTransport::Counters net;
  uint64_t step_transport_ns = 0;
  std::vector<pdms::RoundReport> reports;
  std::vector<pdms::Payload> recorded;
};

/// Optional instrumentation of an in-process phase; all null when untraced.
struct Instruments {
  Tracer* tracer = nullptr;
  TimedTransport* transport = nullptr;
  RoundLog* log = nullptr;
};

void RunQuery(Pdms& pdms, const pdms::QueryRequest& request,
              const Instruments& instruments, Phase* phase, Outcome* outcome) {
  const Clock::time_point begin = Clock::now();
  pdms::QueryReport report;
  {
    Tracer::Scope span(instruments.tracer, "query.route");
    report = pdms.session().Query(request.origin, request.query, request.ttl);
  }
  phase->query_ms.push_back(MillisBetween(begin, Clock::now()));
  outcome->Attempt(QueryOk(report, request, pdms.graph()),
                   "query from peer " + std::to_string(request.origin));
  if (phase->queries < kCountedQueries) {
    ++phase->counted_queries;
    phase->query_messages += report.messages;
    phase->peers_reached += report.reached.size();
    phase->blocked_edges += report.blocked_edges.size();
  }
  ++phase->queries;
}

void RunStep(Pdms& pdms, const Instruments& instruments, Phase* phase,
             Outcome* outcome) {
  TimedTransport::Counters before;
  if (instruments.transport != nullptr) before = instruments.transport->Snapshot();
  const Clock::time_point begin = Clock::now();
  pdms::RoundReport report;
  {
    Tracer::Scope span(instruments.tracer, "core.step");
    report = pdms.session().Step();
  }
  phase->round_ms.push_back(MillisBetween(begin, Clock::now()));
  if (instruments.transport != nullptr) {
    phase->step_transport_ns +=
        (instruments.transport->Snapshot() - before).driver_ns;
  }
  outcome->Attempt(std::isfinite(report.max_posterior_change),
                   "round with a finite posterior change");
}

/// Starts a phase's accounting: transport statistics and round log.
void ResetAccounting(Pdms& pdms, const Instruments& instruments) {
  pdms.transport().ResetStats();
  if (instruments.log != nullptr) instruments.log->Clear();
}

/// Closes the counted window of a phase: traffic, transport counters,
/// round reports and recorded payloads since the phase began, and the
/// posteriors that answer quality is scored on.
void CloseCountedWindow(Pdms& pdms, const pdms::SyntheticPdms& synthetic,
                        const Instruments& instruments,
                        const TimedTransport::Counters& net_before,
                        Phase* phase) {
  const pdms::TransportStats& stats = pdms.transport().stats();
  phase->counted_rounds = phase->round_ms.size();
  phase->wire_bytes = stats.bytes_sent;
  phase->value_bytes = stats.value_bytes_sent;
  phase->header_bytes = stats.header_bytes_sent;
  if (instruments.transport != nullptr) {
    instruments.transport->set_recording(false);
    phase->net = instruments.transport->Snapshot() - net_before;
    phase->recorded = instruments.transport->TakeRecorded();
  }
  if (instruments.log != nullptr) phase->reports = instruments.log->reports();
  phase->posteriors = CollectPosteriors(
      synthetic, [&pdms](EdgeId e, AttributeId a) { return pdms.Posterior(e, a); });
}

/// Periodic schedule (§4.3.1): (steady shape: converge first), then timed
/// rounds for the first half of the phase (at least `timed_rounds`), then
/// closed-loop queries for the rest (at least kMinQueries). The phases do
/// not interleave: a query drains the belief bundles still in flight, which
/// would move the next round's delivery work into the query. Traffic counts
/// and answer quality cover exactly the first `timed_rounds` rounds.
Phase RunPeriodicPhase(Pdms& pdms, const WorkloadSpec& spec,
                       const pdms::SyntheticPdms& synthetic,
                       QueryStream queries, double seconds,
                       const Instruments& instruments, Outcome* outcome) {
  Phase phase;
  if (spec.shape == Shape::kSteadyRounds) {
    Tracer::Scope span(instruments.tracer, "core.solve");
    const pdms::ConvergenceReport solved =
        pdms.session().Converge(kSolveCap);
    outcome->Attempt(solved.converged, "solve converged within its round cap");
  }
  ResetAccounting(pdms, instruments);
  TimedTransport::Counters net_before;
  if (instruments.transport != nullptr) {
    net_before = instruments.transport->Snapshot();
  }
  const Clock::time_point begin = Clock::now();
  for (size_t r = 0; r < spec.timed_rounds; ++r) {
    // The last counted round's bundles feed the codec measurement.
    if (instruments.transport != nullptr && r + 1 == spec.timed_rounds) {
      instruments.transport->set_recording(true);
    }
    RunStep(pdms, instruments, &phase, outcome);
  }
  CloseCountedWindow(pdms, synthetic, instruments, net_before, &phase);
  // More rounds only add timing samples.
  while (SecondsBetween(begin, Clock::now()) < seconds / 2) {
    RunStep(pdms, instruments, &phase, outcome);
  }

  const Clock::time_point query_begin = Clock::now();
  while (phase.queries < kMinQueries ||
         SecondsBetween(begin, Clock::now()) < seconds) {
    RunQuery(pdms, queries.Next(), instruments, &phase, outcome);
  }
  phase.query_seconds = SecondsBetween(query_begin, Clock::now());
  return phase;
}

/// Lazy schedule (§4.3.2): beliefs travel only piggybacked on queries. A
/// single closed-loop client issues queries one at a time and drives one
/// Session::Step after every kLazyQueriesPerStep of them, for at least
/// kLazyScoredQueries queries and at least `seconds`. Traffic counts and
/// answer quality cover exactly the first kLazyScoredQueries queries and
/// their Steps.
Phase RunLazyPhase(Pdms& pdms, const pdms::SyntheticPdms& synthetic,
                   QueryStream queries, double seconds,
                   const Instruments& instruments, Outcome* outcome) {
  Phase phase;
  ResetAccounting(pdms, instruments);
  TimedTransport::Counters net_before;
  if (instruments.transport != nullptr) {
    net_before = instruments.transport->Snapshot();
  }
  const Clock::time_point begin = Clock::now();
  while (phase.queries < kLazyScoredQueries ||
         SecondsBetween(begin, Clock::now()) < seconds) {
    const bool record_cycle = instruments.transport != nullptr &&
                              phase.queries + kLazyQueriesPerStep ==
                                  kLazyScoredQueries;
    if (record_cycle) instruments.transport->set_recording(true);
    for (size_t q = 0; q < kLazyQueriesPerStep; ++q) {
      RunQuery(pdms, queries.Next(), instruments, &phase, outcome);
    }
    if (record_cycle) instruments.transport->set_recording(false);
    RunStep(pdms, instruments, &phase, outcome);
    if (phase.queries == kLazyScoredQueries) {
      CloseCountedWindow(pdms, synthetic, instruments, net_before, &phase);
    }
  }
  phase.query_seconds = SecondsBetween(begin, Clock::now());
  return phase;
}

Phase RunInProcessPhase(Pdms& pdms, const WorkloadSpec& spec,
                        const Inputs& inputs, uint64_t seed, double seconds,
                        const Instruments& instruments, Outcome* outcome) {
  QueryStream queries(inputs.synthetic, seed, spec.query_ttl);
  if (spec.shape == Shape::kLazyQueries) {
    return RunLazyPhase(pdms, inputs.synthetic, queries, seconds, instruments,
                        outcome);
  }
  return RunPeriodicPhase(pdms, spec, inputs.synthetic, queries, seconds,
                          instruments, outcome);
}

/// End-to-end metrics of a timed phase (plus setup and memory).
void AddEndToEnd(const Phase& phase, const pdms::SyntheticPdms& synthetic,
                 const std::vector<double>& setup_seconds, Outcome* outcome) {
  const double f1 = FaultF1(synthetic, phase.posteriors);
  outcome->Attempt(f1 >= kF1Floor, "fault_f1 at or above its floor");
  const double rounds = static_cast<double>(phase.counted_rounds);
  MetricSet& m = outcome->end_to_end;
  m.Add("setup_s", Median(setup_seconds), "s");
  m.Add("round_ms_p50", Percentile(phase.round_ms, 0.50), "ms");
  m.Add("round_ms_p80", Percentile(phase.round_ms, 0.80), "ms");
  m.Add("wire_bytes_per_round", static_cast<double>(phase.wire_bytes) / rounds,
        "B");
  m.Add("queries_per_s",
        static_cast<double>(phase.queries) / phase.query_seconds, "1/s");
  m.Add("query_ms_p50", Percentile(phase.query_ms, 0.50), "ms");
  m.Add("query_ms_p90", Percentile(phase.query_ms, 0.90), "ms");
  m.Add("fault_f1", f1, "ratio");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("samples: %zu rounds (p80 has %zu beyond), %zu queries (p90 "
              "has %zu beyond), %zu set-ups\n",
              phase.round_ms.size(),
              phase.round_ms.size() -
                  static_cast<size_t>(std::ceil(
                      0.8 * static_cast<double>(phase.round_ms.size()))),
              phase.query_ms.size(),
              phase.query_ms.size() -
                  static_cast<size_t>(std::ceil(
                      0.9 * static_cast<double>(phase.query_ms.size()))),
              setup_seconds.size());
}

/// Per-layer metrics of a traced in-process phase; step and query
/// latencies come from its spans.
void AddPhaseLayers(const Phase& phase, const Tracer& tracer,
                    Outcome* outcome) {
  const double rounds = static_cast<double>(phase.counted_rounds);
  double step_ms_total = 0.0;
  for (double ms : phase.round_ms) step_ms_total += ms;
  uint64_t updates = 0, envelopes = 0;
  for (const pdms::RoundReport& report : phase.reports) {
    updates += report.belief_updates_sent;
    envelopes += report.belief_envelopes_sent;
  }
  const CodecCost codec = MeasureCodec(phase.recorded, kCodecSeconds);
  outcome->CrossCheck(codec.round_trip_ok,
                      "codec re-encodes " + std::to_string(phase.recorded.size()) +
                          " recorded payloads byte-identically");
  const double counted = static_cast<double>(phase.counted_queries);

  MetricSet& m = outcome->layers;
  m.Add("core.step_ms_p50", Median(tracer.DurationsMs("core.step")), "ms");
  m.Add("core.self_ms_per_round",
        (step_ms_total - static_cast<double>(phase.step_transport_ns) / 1e6) /
            static_cast<double>(phase.round_ms.size()),
        "ms");
  m.Add("core.belief_updates_per_round", static_cast<double>(updates) / rounds,
        "count");
  m.Add("core.belief_envelopes_per_round",
        static_cast<double>(envelopes) / rounds, "count");
  m.Add("core.max_posterior_change",
        phase.reports.empty() ? 0.0 : phase.reports.back().max_posterior_change,
        "ratio");
  m.Add("net.send_us_per_round",
        static_cast<double>(phase.net.send_ns) / 1e3 / rounds, "us");
  m.Add("net.drain_us_per_round",
        static_cast<double>(phase.net.drain_ns) / 1e3 / rounds, "us");
  m.Add("net.send_calls_per_round",
        static_cast<double>(phase.net.send_calls) / rounds, "count");
  m.Add("net.value_bytes_per_round",
        static_cast<double>(phase.value_bytes) / rounds, "B");
  m.Add("net.header_bytes_per_round",
        static_cast<double>(phase.header_bytes) / rounds, "B");
  m.Add("net.codec_encode_ns_per_byte", codec.encode_ns_per_byte, "ns/B");
  m.Add("net.codec_decode_ns_per_byte", codec.decode_ns_per_byte, "ns/B");
  m.Add("query.msgs_per_query",
        static_cast<double>(phase.query_messages) / counted, "count");
  m.Add("query.peers_reached_per_query",
        static_cast<double>(phase.peers_reached) / counted, "count");
  m.Add("query.blocked_edges_per_query",
        static_cast<double>(phase.blocked_edges) / counted, "count");
  m.Add("query.route_ms_p50", Median(tracer.DurationsMs("query.route")),
        "ms");
}

/// Store layer side measurement: the checkpoint a durable node takes every
/// round (CaptureImage + SnapshotStore::Save, which encodes and fsyncs),
/// over `engine`'s current state, into `dir`.
void AddCheckpointLayers(const pdms::PdmsEngine& engine, uint64_t state_epoch,
                         const std::string& dir, Outcome* outcome) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  pdms::SnapshotStore store(dir, 0);
  std::vector<double> checkpoint_ms;
  size_t snapshot_bytes = 0;
  for (size_t i = 0; i < kCheckpointRepeats; ++i) {
    const Clock::time_point begin = Clock::now();
    pdms::NodeSnapshot snapshot;
    snapshot.state_epoch = state_epoch;
    snapshot.round = i;
    snapshot.engine = engine.CaptureImage();
    const pdms::Status saved = store.Save(snapshot);
    checkpoint_ms.push_back(MillisBetween(begin, Clock::now()));
    outcome->Attempt(saved.ok(), "checkpoint save: " + saved.ToString());
    snapshot_bytes = pdms::EncodeSnapshot(snapshot).size();
  }
  std::filesystem::remove_all(dir);
  outcome->layers.Add("store.checkpoint_ms", Median(checkpoint_ms), "ms");
  outcome->layers.Add("store.snapshot_bytes",
                      static_cast<double>(snapshot_bytes), "B");
}

void AddOverhead(double traced_round_ms, double untraced_round_ms,
                 double traced_qps, double untraced_qps, Outcome* outcome) {
  std::printf("tracing overhead: round_ms_p50 %.4f traced vs %.4f untraced, "
              "queries_per_s %.1f traced vs %.1f untraced\n",
              traced_round_ms, untraced_round_ms, traced_qps, untraced_qps);
  outcome->layers.Add("trace.round_ms_overhead",
                      traced_round_ms / untraced_round_ms, "ratio");
  outcome->layers.Add("trace.queries_per_s_overhead",
                      untraced_qps / traced_qps, "ratio");
}

double QueriesPerSecond(const Phase& phase) {
  return static_cast<double>(phase.queries) / phase.query_seconds;
}

// --- In-process workloads ------------------------------------------------------

struct SetupTimes {
  double build_s = 0.0;
  double discover_s = 0.0;
  size_t factors = 0;
  uint64_t probe_msgs = 0;
  uint64_t feedback_msgs = 0;
};

/// Builds the network and runs closure discovery. With `timed` non-null the
/// transport is a TimedTransport around SimTransport and *timed points at
/// it; otherwise the builder's default SimTransport is used.
Pdms SetUp(const Inputs& inputs, size_t parallelism, TimedTransport** timed,
           Tracer* tracer, SetupTimes* times) {
  const Clock::time_point begin = Clock::now();
  Pdms pdms;
  {
    Tracer::Scope span(tracer, "pdms.build");
    pdms::PdmsBuilder builder =
        pdms::PdmsBuilder::FromSynthetic(inputs.synthetic);
    builder.WithOptions(inputs.options).WithParallelism(parallelism);
    if (timed != nullptr) {
      builder.WithTransport(
          [timed](size_t peer_count, const pdms::EngineOptions& options)
              -> std::unique_ptr<pdms::Transport> {
            auto transport = std::make_unique<TimedTransport>(
                std::make_unique<pdms::SimTransport>(peer_count,
                                                     options.network));
            *timed = transport.get();
            return transport;
          });
    }
    pdms::Result<Pdms> built = builder.Build();
    if (!built.ok()) Die("build failed: " + built.status().ToString());
    pdms = std::move(built).value();
  }
  const Clock::time_point built_at = Clock::now();
  {
    Tracer::Scope span(tracer, "pdms.discover");
    times->factors = pdms.session().Discover();
  }
  const Clock::time_point end = Clock::now();
  times->build_s = SecondsBetween(begin, built_at);
  times->discover_s = SecondsBetween(built_at, end);
  const pdms::TransportStats& stats = pdms.transport().stats();
  times->probe_msgs =
      stats.sent[static_cast<size_t>(pdms::MessageKind::kProbe)];
  times->feedback_msgs =
      stats.sent[static_cast<size_t>(pdms::MessageKind::kFeedback)];
  return pdms;
}

void AddSetupLayers(const SetupTimes& setup, Outcome* outcome) {
  MetricSet& m = outcome->layers;
  m.Add("pdms.build_s", setup.build_s, "s");
  m.Add("pdms.discover_s", setup.discover_s, "s");
  m.Add("graph.factors", static_cast<double>(setup.factors), "count");
  m.Add("graph.probe_msgs", static_cast<double>(setup.probe_msgs), "count");
  m.Add("graph.feedback_msgs", static_cast<double>(setup.feedback_msgs),
        "count");
}

void RunInProcessTimed(const WorkloadSpec& spec, const Inputs& inputs,
                       const RunOptions& options, Outcome* outcome) {
  std::vector<double> setup_seconds;
  std::optional<Pdms> pdms;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    pdms.reset();  // one network in memory at a time
    SetupTimes times;
    pdms.emplace(SetUp(inputs, spec.parallelism, nullptr, nullptr, &times));
    setup_seconds.push_back(times.build_s + times.discover_s);
  }
  const Phase phase = RunInProcessPhase(*pdms, spec, inputs, options.seed,
                                        options.seconds, Instruments{}, outcome);
  AddEndToEnd(phase, inputs.synthetic, setup_seconds, outcome);
}

void RunInProcessTraced(const WorkloadSpec& spec, const Inputs& inputs,
                        const RunOptions& options, Tracer* tracer,
                        Outcome* outcome) {
  TimedTransport* timed = nullptr;
  SetupTimes setup;
  Pdms pdms = SetUp(inputs, spec.parallelism, &timed, tracer, &setup);
  AddSetupLayers(setup, outcome);

  // The untraced reference measurement: decorator timing off, no observer,
  // no spans. Rolled back afterwards so the traced phase starts from the
  // same post-discovery state. Both phases take half the run time, so the
  // traced run costs about as much as a timed one plus its checks.
  const double phase_seconds = options.seconds / 2;
  timed->set_timing(false);
  Phase untraced;
  {
    pdms::UndoSession undo = pdms.StartUndoSession();
    untraced = RunInProcessPhase(pdms, spec, inputs, options.seed,
                                 phase_seconds, Instruments{}, outcome);
  }
  timed->set_timing(true);
  RoundLog log;
  pdms.session().AddObserver(&log);
  Phase traced;
  {
    pdms::UndoSession undo = pdms.StartUndoSession();
    Tracer::Scope span(tracer, "phase");
    traced = RunInProcessPhase(pdms, spec, inputs, options.seed,
                               phase_seconds,
                               Instruments{tracer, timed, &log}, outcome);
    Tracer::Scope checkpoint(tracer, "store.checkpoint");
    AddCheckpointLayers(pdms.engine(),
                        pdms::ComputeStateEpoch(pdms.graph(), {}, 1,
                                                inputs.options),
                        options.work_dir + "/store", outcome);
  }
  pdms.session().RemoveObserver(&log);
  outcome->CrossCheck(BitwiseEqual(traced.posteriors, untraced.posteriors),
                      "traced posteriors bitwise equal to the untraced run");
  AddPhaseLayers(traced, *tracer, outcome);
  AddOverhead(Median(traced.round_ms), Median(untraced.round_ms),
              QueriesPerSecond(traced), QueriesPerSecond(untraced), outcome);

  // Convergence check from the post-discovery state: the solve must reach
  // tolerance within the round cap.
  const Clock::time_point solve_begin = Clock::now();
  pdms::ConvergenceReport solved;
  {
    Tracer::Scope span(tracer, "core.solve");
    solved = pdms.session().Converge(kSolveCap);
  }
  const double solve_s = SecondsBetween(solve_begin, Clock::now());
  outcome->Attempt(solved.converged, "solve converged within its round cap");
  outcome->layers.Add("core.rounds_to_converge",
                      static_cast<double>(solved.rounds), "count");
  outcome->layers.Add("core.solve_s", solve_s, "s");

  if (spec.pool_parallelism > 1) {
    // Standing invariant: parallel posteriors are bitwise equal to serial.
    SetupTimes pool_setup;
    Pdms pooled =
        SetUp(inputs, spec.pool_parallelism, nullptr, nullptr, &pool_setup);
    const Phase pool_phase = RunInProcessPhase(
        pooled, spec, inputs, options.seed, 0.0, Instruments{}, outcome);
    const std::string p = std::to_string(spec.pool_parallelism);
    outcome->CrossCheck(
        BitwiseEqual(pool_phase.posteriors, untraced.posteriors),
        "parallelism-" + p + " posteriors bitwise equal to the serial run");
    outcome->workload_layers.Add(
        "util.pool_speedup_p" + p,
        Median(untraced.round_ms) / Median(pool_phase.round_ms), "ratio");
  }
  if (spec.shape == Shape::kLazyQueries) {
    outcome->workload_layers.Add("core.lazy_step_ms_p50",
                                 Median(traced.round_ms), "ms");
  }
}

// --- Node workload -------------------------------------------------------------

/// Two PdmsNode shards (peers round-robin) over loopback SocketTransports.
struct NodePair {
  std::unique_ptr<pdms::PdmsNode> nodes[2];
  /// round_hook timestamps, per shard (index r-1 = end of round r).
  std::vector<Clock::time_point> round_ends[2];
  double discover_s = 0.0;
};

std::unique_ptr<NodePair> SetUpNodes(const Inputs& inputs,
                                     const WorkloadSpec& spec,
                                     const std::string& state_root,
                                     Outcome* outcome) {
  auto pair = std::make_unique<NodePair>();
  for (uint32_t shard = 0; shard < 2; ++shard) {
    pdms::PdmsBuilder builder =
        pdms::PdmsBuilder::FromSynthetic(inputs.synthetic);
    builder.WithOptions(inputs.options)
        .WithTransport([shard](size_t peer_count, const pdms::EngineOptions&)
                           -> std::unique_ptr<pdms::Transport> {
          pdms::SocketTransportOptions socket;
          socket.peer_count = peer_count;
          socket.local_shard = shard;
          socket.shard_addresses = {"127.0.0.1:0", "127.0.0.1:0"};
          socket.shard_of.resize(peer_count);
          for (PeerId p = 0; p < peer_count; ++p) socket.shard_of[p] = p % 2;
          auto created = pdms::SocketTransport::Create(std::move(socket));
          if (!created.ok()) return nullptr;
          return std::move(created).value();
        });
    pdms::Result<Pdms> built = builder.Build();
    if (!built.ok()) Die("shard build failed: " + built.status().ToString());

    const std::string state_dir =
        state_root + "/shard-" + std::to_string(shard);
    std::filesystem::remove_all(state_dir);
    std::filesystem::create_directories(state_dir);
    pdms::NodeOptions node_options;
    node_options.max_rounds = spec.timed_rounds;
    node_options.state_dir = state_dir;
    std::vector<Clock::time_point>* ends = &pair->round_ends[shard];
    node_options.round_hook = [ends](uint64_t) {
      ends->push_back(Clock::now());
    };
    pdms::Result<std::unique_ptr<pdms::PdmsNode>> node =
        pdms::PdmsNode::Create(std::move(built).value(), node_options);
    if (!node.ok()) Die("node create failed: " + node.status().ToString());
    pair->nodes[shard] = std::move(node).value();
  }
  for (uint32_t shard = 0; shard < 2; ++shard) {
    const uint32_t other = 1 - shard;
    const pdms::Status addressed = pair->nodes[shard]->SetShardAddress(
        other, pair->nodes[other]->local_address());
    if (!addressed.ok()) Die("set address: " + addressed.ToString());
    const pdms::Status connected = pair->nodes[shard]->Connect();
    if (!connected.ok()) Die("connect: " + connected.ToString());
  }
  const Clock::time_point built_at = Clock::now();
  // Discovery is mark-synchronized across shards: both drivers run at once.
  pdms::Result<size_t> replicas[2] = {pdms::Status::Internal("not run"),
                                      pdms::Status::Internal("not run")};
  std::thread drivers[2];
  for (uint32_t shard = 0; shard < 2; ++shard) {
    drivers[shard] = std::thread([&pair, &replicas, shard] {
      replicas[shard] = pair->nodes[shard]->RunDiscovery();
    });
  }
  for (std::thread& driver : drivers) driver.join();
  pair->discover_s = SecondsBetween(built_at, Clock::now());
  for (uint32_t shard = 0; shard < 2; ++shard) {
    outcome->Attempt(replicas[shard].ok(),
                     "shard " + std::to_string(shard) + " discovery: " +
                         replicas[shard].status().ToString());
  }
  return pair;
}

struct NodePhase {
  Phase phase;
  std::vector<double> skew_ms;
  uint64_t socket_bytes = 0;
  uint64_t socket_frames = 0;
  std::vector<double> tcp_query_ms;
};

/// Both shards run `timed_rounds` checkpointed rounds; then one closed-loop
/// client sends kNodeBursts bursts of kNodeBurst queries, each to the shard
/// hosting its origin, through `PdmsNode::ExecuteSnapshotQuery` (the query
/// port's own path, called in process). The traced run also sends
/// kNodeTcpQueries over the TCP query port. Finally the shards shut down and
/// must drain every frame.
NodePhase RunNodePhase(NodePair& pair, const WorkloadSpec& spec,
                       const Inputs& inputs, uint64_t seed, Tracer* tracer,
                       Outcome* outcome) {
  NodePhase result;
  Phase& phase = result.phase;
  uint64_t socket_bytes_before = 0, socket_frames_before = 0;
  for (auto& node : pair.nodes) {
    node->transport().ResetStats();
    socket_bytes_before += node->transport().frame_bytes_sent();
    socket_frames_before += node->transport().data_frames_sent();
  }
  pdms::Result<pdms::ConvergenceReport> reports[2] = {
      pdms::Status::Internal("not run"), pdms::Status::Internal("not run")};
  // Flush dirty pages left by earlier work (set-up, previous runs) so the
  // checkpoints' fsyncs do not also pay for them.
  ::sync();
  const Clock::time_point begin = Clock::now();
  {
    Tracer::Scope span(tracer, "node.rounds");
    std::thread drivers[2];
    for (uint32_t shard = 0; shard < 2; ++shard) {
      drivers[shard] = std::thread([&pair, &reports, shard] {
        reports[shard] = pair.nodes[shard]->RunRounds();
      });
    }
    for (std::thread& driver : drivers) driver.join();
  }

  bool rounds_ok = true;
  for (uint32_t shard = 0; shard < 2; ++shard) {
    const bool ok = reports[shard].ok() &&
                    reports[shard]->rounds == spec.timed_rounds &&
                    pair.round_ends[shard].size() == spec.timed_rounds;
    outcome->Attempt(ok, "shard " + std::to_string(shard) + " ran " +
                             std::to_string(spec.timed_rounds) + " rounds");
    rounds_ok = rounds_ok && ok;
    outcome->Attempt(pair.nodes[shard]->quarantined().empty(),
                     "shard " + std::to_string(shard) + " quarantined nobody");
  }
  outcome->Attempt(
      reports[0].ok() && reports[1].ok() &&
          reports[0]->rounds == reports[1]->rounds,
      "shards agree on the round count");
  if (rounds_ok) {
    Clock::time_point previous = begin;
    for (size_t r = 0; r < spec.timed_rounds; ++r) {
      const Clock::time_point a = pair.round_ends[0][r];
      const Clock::time_point b = pair.round_ends[1][r];
      const Clock::time_point end = std::max(a, b);
      phase.round_ms.push_back(MillisBetween(previous, end));
      result.skew_ms.push_back(std::fabs(MillisBetween(a, b)));
      previous = end;
    }
  }
  phase.counted_rounds = spec.timed_rounds;
  for (auto& node : pair.nodes) {
    const pdms::TransportStats& stats = node->transport().stats();
    phase.wire_bytes += stats.bytes_sent;
    phase.value_bytes += stats.value_bytes_sent;
    phase.header_bytes += stats.header_bytes_sent;
    result.socket_bytes += node->transport().frame_bytes_sent();
    result.socket_frames += node->transport().data_frames_sent();
  }
  result.socket_bytes -= socket_bytes_before;
  result.socket_frames -= socket_frames_before;
  phase.posteriors = CollectPosteriors(
      inputs.synthetic, [&pair, &inputs](EdgeId e, AttributeId a) {
        const PeerId owner = inputs.synthetic.graph.edge(e).src;
        return pair.nodes[owner % 2]->pdms().Posterior(e, a);
      });

  QueryStream queries(inputs.synthetic, seed, spec.query_ttl);
  const auto make_frame = [&queries](uint64_t id) {
    const pdms::QueryRequest request = queries.Next();
    pdms::QueryRequestFrame frame;
    frame.request_id = id;
    frame.origin = request.origin;
    frame.ttl = request.ttl;
    frame.text = queries.Text(request);
    return frame;
  };
  const auto check = [outcome](const pdms::QueryRequestFrame& frame,
                               const pdms::QueryResponseFrame& response) {
    const bool ok = response.ok && response.reached >= 1 &&
                    response.request_id == frame.request_id;
    outcome->Attempt(ok, "node query from peer " + std::to_string(frame.origin) +
                             ": " + response.error);
    return ok;
  };
  std::vector<pdms::QueryRequestFrame> frames(kNodeBurst);
  std::vector<pdms::QueryResponseFrame> responses(kNodeBurst);
  for (size_t burst = 0; burst < kNodeBursts; ++burst) {
    for (size_t i = 0; i < kNodeBurst; ++i) {
      frames[i] = make_frame(phase.queries + i + 1);
    }
    const Clock::time_point sent = Clock::now();
    {
      Tracer::Scope span(tracer, "node.query_burst");
      for (size_t i = 0; i < kNodeBurst; ++i) {
        responses[i] =
            pair.nodes[frames[i].origin % 2]->ExecuteSnapshotQuery(frames[i]);
      }
    }
    const double burst_ms = MillisBetween(sent, Clock::now());
    phase.query_ms.push_back(burst_ms / kNodeBurst);
    phase.query_seconds += burst_ms / 1e3;
    for (size_t i = 0; i < kNodeBurst; ++i) {
      if (check(frames[i], responses[i]) && phase.queries < kCountedQueries) {
        ++phase.counted_queries;
        phase.peers_reached += responses[i].reached;
      }
      ++phase.queries;
    }
  }
  for (size_t i = 0; tracer != nullptr && i < kNodeTcpQueries; ++i) {
    const pdms::QueryRequestFrame frame = make_frame(phase.queries + i + 1);
    const Clock::time_point sent = Clock::now();
    pdms::Result<pdms::QueryResponseFrame> response =
        pdms::PdmsNode::QueryNode(
            pair.nodes[frame.origin % 2]->local_address(), frame);
    result.tcp_query_ms.push_back(MillisBetween(sent, Clock::now()));
    outcome->Attempt(response.ok() && check(frame, *response),
                     "TCP query: " + response.status().ToString());
  }

  for (auto& node : pair.nodes) node->transport().Shutdown();
  for (uint32_t shard = 0; shard < 2; ++shard) {
    const uint64_t dropped =
        pair.nodes[shard]->transport().stats().frames_dropped_at_shutdown;
    outcome->Attempt(dropped == 0, "shard " + std::to_string(shard) +
                                       " dropped " + std::to_string(dropped) +
                                       " frames at shutdown");
  }
  return result;
}

/// The node, socket and durable-store layers: two shards of a 1k-peer ER
/// graph from the same seed run 100 checkpointed rounds and serve snapshot
/// queries; their merged posteriors must equal an in-process run of the
/// same graph bitwise.
void AddNodeLayers(const RunOptions& options, Tracer* tracer,
                   Outcome* outcome) {
  const WorkloadSpec& spec = kNodeSpec;
  const Inputs inputs = MakeInputs(spec, options.seed);
  const std::string state_root = options.work_dir + "/state";
  std::unique_ptr<NodePair> pair;
  {
    Tracer::Scope span(tracer, "node.setup");
    pair = SetUpNodes(inputs, spec, state_root, outcome);
  }
  NodePhase node;
  {
    Tracer::Scope span(tracer, "node.phase");
    node = RunNodePhase(*pair, spec, inputs, options.seed, tracer, outcome);
  }
  const double rounds = static_cast<double>(spec.timed_rounds);
  MetricSet& m = outcome->workload_layers;
  m.Add("node.discover_s", pair->discover_s, "s");
  m.Add("node.round_ms_p50", Median(node.phase.round_ms), "ms");
  m.Add("node.round_ms_p80", Percentile(node.phase.round_ms, 0.80), "ms");
  m.Add("node.shard_skew_ms_p50", Median(node.skew_ms), "ms");
  m.Add("node.wire_bytes_per_round",
        static_cast<double>(node.phase.wire_bytes) / rounds, "B");
  m.Add("net.socket_bytes_per_round",
        static_cast<double>(node.socket_bytes) / rounds, "B");
  m.Add("net.socket_frames_per_round",
        static_cast<double>(node.socket_frames) / rounds, "count");
  m.Add("node.snapshot_query_ms_p50", Median(node.phase.query_ms), "ms");
  m.Add("node.tcp_query_ms_p50", Median(node.tcp_query_ms), "ms");
  m.Add("node.peers_reached_per_query",
        static_cast<double>(node.phase.peers_reached) /
            static_cast<double>(node.phase.counted_queries),
        "count");
  m.Add("node.fault_f1", FaultF1(inputs.synthetic, node.phase.posteriors),
        "ratio");
  pair.reset();
  std::filesystem::remove_all(state_root);

  // The in-process run of the same graph: the bitwise reference for the
  // sharded posteriors, and the belief bundles the shards' codec encodes.
  TimedTransport* timed = nullptr;
  SetupTimes setup;
  Pdms reference = SetUp(inputs, 1, &timed, nullptr, &setup);
  const Phase in_process = RunPeriodicPhase(
      reference, spec, inputs.synthetic,
      QueryStream(inputs.synthetic, options.seed, spec.query_ttl), 0.0,
      Instruments{nullptr, timed, nullptr}, outcome);
  outcome->CrossCheck(
      BitwiseEqual(node.phase.posteriors, in_process.posteriors),
      "merged two-shard posteriors bitwise equal to the in-process run");
  const CodecCost codec = MeasureCodec(in_process.recorded, kCodecSeconds);
  outcome->CrossCheck(codec.round_trip_ok,
                      "codec re-encodes the node graph's belief bundles "
                      "byte-identically");
  m.Add("node.codec_encode_ns_per_byte", codec.encode_ns_per_byte, "ns/B");
  m.Add("node.codec_decode_ns_per_byte", codec.decode_ns_per_byte, "ns/B");
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

bool RunWorkload(const RunOptions& options, Outcome* outcome) {
  const WorkloadSpec* spec = FindSpec(options.workload);
  if (spec == nullptr) return false;
  const Inputs inputs = MakeInputs(*spec, options.seed);
  std::filesystem::create_directories(options.work_dir);
  if (!options.trace) {
    RunInProcessTimed(*spec, inputs, options, outcome);
    return true;
  }
  Tracer tracer;
  RunInProcessTraced(*spec, inputs, options, &tracer, outcome);
  if (spec->shape == Shape::kLazyQueries) {
    AddNodeLayers(options, &tracer, outcome);
  }
  const std::string spans = options.work_dir + "/spans-" + options.workload +
                            "-seed" + std::to_string(options.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(spans)) Die("cannot write " + spans);
  std::printf("spans written to %s\n", spans.c_str());
  return true;
}

}  // namespace perfbench
