// pdms_node — one shard of a partitioned PDMS as a standalone process.
//
// Runs the Section 5.2 bibliographic workload (six ontologies, automatic
// alignment) across N cooperating processes that exchange probe, feedback
// and belief traffic over framed TCP, then prints the posteriors of the
// locally owned mappings as hex floats (bitwise-comparable against the
// single-process `reference` mode).
//
//   pdms_node serve --shard=0 --shards=2 --announce-dir=/tmp/run1
//       [--max-rounds=100] [--round-delay-ms=0] [--serve-ms=0]
//       [--heartbeat-ms=0] [--quarantine-ms=0]
//       [--state-dir=/tmp/run1/state] [--rejoin-grace-ms=0]
//       [--chaos-seed=0 --chaos-drop=0 --chaos-duplicate=0 --chaos-reorder=0
//        --chaos-corrupt=0 --chaos-link-kill=0] [--kill-after-round=0]
//       [--byzantine-guard=0] [--demote-threshold=6]
//       [--chaos-lie-probability=0 --chaos-lie-seed=0 --chaos-lie-peers=]
//   pdms_node reference [--max-rounds=100] [--byzantine-guard=0]
//       [--demote-threshold=6]
//       [--chaos-lie-probability=0 --chaos-lie-seed=0 --chaos-lie-peers=]
//   pdms_node query --addr=127.0.0.1:PORT --origin=0 --ttl=3
//       --text='SELECT <attr>'
//
// Chaos knobs (CI's node-chaos job): the --chaos-* rates inject seeded
// frame-level faults on the TCP links — all masked by the retransmission
// layer, so posteriors stay bitwise-identical to the fault-free run.
//
// Byzantine knobs: --byzantine-guard=1 turns on semantic belief admission
// and per-neighbor misbehavior scoring; --demote-threshold sets the soft
// demotion score (hard quarantine fires at twice that). The --chaos-lie-*
// flags make the listed peers forge their outgoing belief values with the
// given probability — seeded, so every shard of a run draws identically.
// Guard and chaos config both fold into the state epoch: a node restarted
// with different flags refuses its old snapshots.
// --kill-after-round=K SIGKILLs this process right after round K (a real
// crash, exit 137); peers with --heartbeat-ms/--quarantine-ms set detect
// the silence, quarantine the dead shard and finish the run degraded.
//
// Recovery knobs (CI's node-recovery job): --state-dir makes the shard
// checkpoint a crash-consistent snapshot after every round barrier, and
// on startup restore from it — skipping discovery entirely — then rejoin
// the cluster with a rejoin handshake. Survivors started with
// --rejoin-grace-ms=G hold the round barrier open for up to G ms after
// quarantining a shard, roll back to the restarted shard's snapshot round
// when it asks back in, and the run resumes in lockstep: final posteriors
// stay bitwise-identical to an uninterrupted run.
//
// Shards discover each other through --announce-dir: every serve process
// writes its bound address to <dir>/shard-<k>.addr and polls for the
// others, so no ports need to be agreed on in advance.
//
// Output lines: `P <edge> <attr> <posterior-as-%a>` for every attribute of
// the mapping's source schema. Each mapping is owned by exactly one shard,
// so concatenating the shards' outputs yields every line of the reference
// output exactly once.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bibliographic_pdms.h"
#include "node/pdms_node.h"
#include "util/logging.h"

using namespace pdms;  // NOLINT: tool brevity

namespace {

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

// --- Validated flag parsing ------------------------------------------------
//
// Every numeric flag is parsed strictly: the whole value must be a number,
// negatives are rejected where they make no sense, and rates must lie in
// [0, 1]. A bad value is a usage error (exit 2), never a silent default.

bool ParseWholeUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

int UsageError(const char* flag, const char* expected) {
  std::fprintf(stderr, "pdms_node: invalid value for --%s (expected %s)\n",
               flag, expected);
  std::fprintf(stderr, "usage: pdms_node <serve|reference|query> [--flags]\n");
  return 2;
}

/// Non-negative integer flag bounded to int range; returns -1 and reports
/// a usage error on malformed input.
bool ParseIntFlag(int argc, char** argv, const char* name, const char* fallback,
                  int* out) {
  uint64_t value = 0;
  if (!ParseWholeUint(FlagValue(argc, argv, name, fallback), &value) ||
      value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseU64Flag(int argc, char** argv, const char* name,
                  const char* fallback, uint64_t* out) {
  return ParseWholeUint(FlagValue(argc, argv, name, fallback), out);
}

/// Probability flag: a double in [0, 1].
bool ParseRateFlag(int argc, char** argv, const char* name, double* out) {
  const std::string text = FlagValue(argc, argv, name, "0");
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  *out = value;
  return true;
}

/// Strictly positive double flag (scores, thresholds).
bool ParsePositiveFlag(int argc, char** argv, const char* name,
                       const char* fallback, double* out) {
  const std::string text = FlagValue(argc, argv, name, fallback);
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  if (!(value > 0.0) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Comma-separated peer-id list flag; empty means no peers. Every item
/// must be a whole peer id below `peer_count` — sorted and deduplicated
/// on return.
bool ParsePeerListFlag(int argc, char** argv, const char* name,
                       size_t peer_count, std::vector<PeerId>* out) {
  const std::string text = FlagValue(argc, argv, name, "");
  out->clear();
  if (text.empty()) return true;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    uint64_t id = 0;
    if (!ParseWholeUint(text.substr(begin, end - begin), &id) ||
        id >= peer_count) {
      return false;
    }
    out->push_back(static_cast<PeerId>(id));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

// The bibliographic workload is fixed at six ontologies; the Byzantine
// flags validate peer ids against this up front.
constexpr size_t kBibliographicPeers = 6;

/// Byzantine-resilience flags shared by serve and reference mode, so a
/// guarded shard run stays comparable against a guarded reference run.
struct ByzantineCli {
  ByzantineGuardOptions guard;
  double lie_probability = 0.0;
  uint64_t lie_seed = 0;
  std::vector<PeerId> lie_peers;
};

/// Parses the --byzantine-guard / --demote-threshold / --chaos-lie-*
/// family. Returns 0 on success, a process exit code (usage error)
/// otherwise.
int ParseByzantineCli(int argc, char** argv, ByzantineCli* out) {
  uint64_t guard64 = 0;
  if (!ParseU64Flag(argc, argv, "byzantine-guard", "0", &guard64) ||
      guard64 > 1) {
    return UsageError("byzantine-guard", "0 or 1");
  }
  out->guard.enabled = guard64 == 1;
  if (!ParsePositiveFlag(argc, argv, "demote-threshold", "6",
                         &out->guard.demote_threshold)) {
    return UsageError("demote-threshold", "a positive score");
  }
  if (!ParseRateFlag(argc, argv, "chaos-lie-probability",
                     &out->lie_probability)) {
    return UsageError("chaos-lie-probability", "a probability in [0, 1]");
  }
  if (!ParseU64Flag(argc, argv, "chaos-lie-seed", "0", &out->lie_seed)) {
    return UsageError("chaos-lie-seed", "a non-negative integer");
  }
  if (!ParsePeerListFlag(argc, argv, "chaos-lie-peers", kBibliographicPeers,
                         &out->lie_peers)) {
    return UsageError("chaos-lie-peers",
                      "a comma-separated list of peer ids below 6");
  }
  return 0;
}

EngineOptions WorkloadOptions(double value_budget,
                              const ByzantineCli& byzantine) {
  // Mirrors examples/bibliographic_alignment.cpp; period_ticks stays 1
  // (required by node mode) and the wire is lossless in both modes.
  EngineOptions options;
  options.delta_override = 0.1;
  options.probe_ttl = 4;
  options.closure_limits.max_cycle_length = 4;
  options.closure_limits.max_path_length = 3;
  options.damping = 0.5;
  // Budget participates in the state epoch: a node restarted with a
  // different --value-error-budget refuses its old snapshots.
  options.value_precision.error_budget = value_budget;
  options.byzantine_guard = byzantine.guard;
  if (!byzantine.lie_peers.empty() && byzantine.lie_probability > 0.0) {
    options.byzantine.seed = byzantine.lie_seed;
    options.byzantine.lie_probability = byzantine.lie_probability;
    options.byzantine.adversaries = byzantine.lie_peers;
  }
  return options;
}

void PrintOwnedPosteriors(const Pdms& pdms,
                          const std::vector<Ontology>& family,
                          const SocketTransport* transport) {
  const Digraph& graph = pdms.graph();
  for (EdgeId e : graph.LiveEdges()) {
    const PeerId owner = graph.edge(e).src;
    if (transport != nullptr && !transport->IsLocalPeer(owner)) continue;
    const size_t attrs = family[owner].schema.size();
    for (AttributeId a = 0; a < attrs; ++a) {
      std::printf("P %u %u %a\n", e, a, pdms.Posterior(e, a));
    }
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "pdms_node: %s\n", status.ToString().c_str());
  return 1;
}

int RunReference(int argc, char** argv) {
  uint64_t max_rounds = 0;
  double value_budget = 0.0;
  if (!ParseU64Flag(argc, argv, "max-rounds", "100", &max_rounds)) {
    return UsageError("max-rounds", "a non-negative integer");
  }
  if (!ParseRateFlag(argc, argv, "value-error-budget", &value_budget)) {
    return UsageError("value-error-budget", "a probability in [0, 1]");
  }
  ByzantineCli byzantine;
  if (const int usage = ParseByzantineCli(argc, argv, &byzantine);
      usage != 0) {
    return usage;
  }
  bench::BibliographicPdms workload =
      bench::MakeBibliographicPdms(WorkloadOptions(value_budget, byzantine));
  workload.pdms.session().Discover();
  workload.pdms.session().Converge(max_rounds);
  PrintOwnedPosteriors(workload.pdms, workload.family, nullptr);
  return 0;
}

int RunServe(int argc, char** argv) {
  uint64_t shard64 = 0;
  uint64_t shards64 = 0;
  uint64_t max_rounds = 0;
  uint64_t kill_after_round = 0;
  int round_delay_ms = 0;
  int serve_ms = 0;
  int heartbeat_ms = 0;
  int quarantine_ms = 0;
  int rejoin_grace_ms = 0;
  if (!ParseU64Flag(argc, argv, "shard", "0", &shard64) ||
      shard64 > std::numeric_limits<uint32_t>::max()) {
    return UsageError("shard", "a non-negative integer");
  }
  if (!ParseU64Flag(argc, argv, "shards", "1", &shards64) ||
      shards64 > std::numeric_limits<uint32_t>::max()) {
    return UsageError("shards", "a positive integer");
  }
  if (!ParseU64Flag(argc, argv, "max-rounds", "100", &max_rounds)) {
    return UsageError("max-rounds", "a non-negative integer");
  }
  if (!ParseIntFlag(argc, argv, "round-delay-ms", "0", &round_delay_ms)) {
    return UsageError("round-delay-ms", "a non-negative integer");
  }
  if (!ParseIntFlag(argc, argv, "serve-ms", "0", &serve_ms)) {
    return UsageError("serve-ms", "a non-negative integer");
  }
  if (!ParseIntFlag(argc, argv, "heartbeat-ms", "0", &heartbeat_ms)) {
    return UsageError("heartbeat-ms", "a non-negative integer");
  }
  if (!ParseIntFlag(argc, argv, "quarantine-ms", "0", &quarantine_ms)) {
    return UsageError("quarantine-ms", "a non-negative integer");
  }
  if (!ParseIntFlag(argc, argv, "rejoin-grace-ms", "0", &rejoin_grace_ms)) {
    return UsageError("rejoin-grace-ms", "a non-negative integer");
  }
  if (!ParseU64Flag(argc, argv, "kill-after-round", "0", &kill_after_round)) {
    return UsageError("kill-after-round", "a non-negative integer");
  }
  const uint32_t shard = static_cast<uint32_t>(shard64);
  const uint32_t shards = static_cast<uint32_t>(shards64);
  const std::string announce_dir = FlagValue(argc, argv, "announce-dir", "");
  const std::string state_dir = FlagValue(argc, argv, "state-dir", "");
  FaultPlan chaos;
  if (!ParseU64Flag(argc, argv, "chaos-seed", "0", &chaos.seed)) {
    return UsageError("chaos-seed", "a non-negative integer");
  }
  if (!ParseRateFlag(argc, argv, "chaos-drop", &chaos.drop_rate)) {
    return UsageError("chaos-drop", "a probability in [0, 1]");
  }
  if (!ParseRateFlag(argc, argv, "chaos-duplicate", &chaos.duplicate_rate)) {
    return UsageError("chaos-duplicate", "a probability in [0, 1]");
  }
  if (!ParseRateFlag(argc, argv, "chaos-reorder", &chaos.reorder_rate)) {
    return UsageError("chaos-reorder", "a probability in [0, 1]");
  }
  if (!ParseRateFlag(argc, argv, "chaos-corrupt", &chaos.corrupt_rate)) {
    return UsageError("chaos-corrupt", "a probability in [0, 1]");
  }
  if (!ParseRateFlag(argc, argv, "chaos-link-kill", &chaos.link_kill_rate)) {
    return UsageError("chaos-link-kill", "a probability in [0, 1]");
  }
  double value_budget = 0.0;
  if (!ParseRateFlag(argc, argv, "value-error-budget", &value_budget)) {
    return UsageError("value-error-budget", "a probability in [0, 1]");
  }
  ByzantineCli byzantine;
  if (const int usage = ParseByzantineCli(argc, argv, &byzantine);
      usage != 0) {
    return usage;
  }
  if (shards == 0 || shard >= shards) {
    std::fprintf(stderr, "pdms_node: need 0 <= --shard < --shards\n");
    return 2;
  }
  if (shards > 1 && announce_dir.empty()) {
    std::fprintf(stderr, "pdms_node: multi-shard runs need --announce-dir\n");
    return 2;
  }
  if (!state_dir.empty()) {
    // Create the snapshot directory up front so a typo'd path fails here,
    // not silently round after round.
    if (mkdir(state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "pdms_node: cannot create --state-dir %s: %s\n",
                   state_dir.c_str(), std::strerror(errno));
      return 2;
    }
  }

  // All processes build the identical workload deterministically; only
  // the shard assignment below decides which peers this one runs.
  SocketTransport* transport = nullptr;
  bench::BibliographicPdms workload = bench::MakeBibliographicPdms(
      WorkloadOptions(value_budget, byzantine),
      [&](size_t peer_count, const EngineOptions&)
          -> std::unique_ptr<Transport> {
        SocketTransportOptions transport_options;
        transport_options.peer_count = peer_count;
        transport_options.local_shard = shard;
        transport_options.shard_addresses.assign(shards, "127.0.0.1:0");
        transport_options.shard_of.resize(peer_count);
        for (PeerId p = 0; p < peer_count; ++p) {
          transport_options.shard_of[p] = p % shards;  // round-robin
        }
        transport_options.link_fault_plan = chaos;
        if (chaos.Enabled()) {
          // Tight recovery timers keep chaos runs fast: a dropped tail
          // frame stalls its barrier step only until the retransmit timer.
          transport_options.retransmit_timeout_ms = 50;
          transport_options.reconnect_backoff_initial_ms = 5;
          transport_options.reconnect_backoff_max_ms = 100;
        }
        auto created = SocketTransport::Create(std::move(transport_options));
        if (!created.ok()) {
          std::fprintf(stderr, "pdms_node: %s\n",
                       created.status().ToString().c_str());
          return nullptr;
        }
        transport = created->get();
        return std::move(created).value();
      });
  if (transport == nullptr ||
      workload.pdms.peer_count() != kBibliographicPeers) {
    std::fprintf(stderr, "pdms_node: workload construction failed\n");
    return 1;
  }

  NodeOptions node_options;
  node_options.max_rounds = max_rounds;
  node_options.round_delay_ms = round_delay_ms;
  node_options.heartbeat_interval_ms = heartbeat_ms;
  node_options.quarantine_after_ms = quarantine_ms;
  node_options.state_dir = state_dir;
  node_options.rejoin_grace_ms = rejoin_grace_ms;
  if (kill_after_round > 0) {
    node_options.round_hook = [kill_after_round, shard](uint64_t round) {
      if (round == kill_after_round) {
        std::fprintf(stderr,
                     "pdms_node: shard %u self-SIGKILL after round %llu\n",
                     shard, static_cast<unsigned long long>(round));
        std::fflush(stderr);
        raise(SIGKILL);  // a real crash: no destructors, no goodbyes
      }
    };
  }
  Result<std::unique_ptr<PdmsNode>> node =
      PdmsNode::Create(std::move(workload.pdms), std::move(node_options));
  if (!node.ok()) return Fail(node.status());

  if (shards > 1) {
    // Announce our bound address, then poll for every other shard's.
    const std::string mine =
        announce_dir + "/shard-" + std::to_string(shard) + ".addr";
    const std::string tmp = mine + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pdms_node: cannot write %s\n", tmp.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", (*node)->local_address().c_str());
    std::fclose(f);
    std::rename(tmp.c_str(), mine.c_str());

    for (uint32_t s = 0; s < shards; ++s) {
      if (s == shard) continue;
      const std::string theirs =
          announce_dir + "/shard-" + std::to_string(s) + ".addr";
      std::string address;
      for (int attempt = 0; attempt < 600; ++attempt) {  // up to ~60s
        FILE* in = std::fopen(theirs.c_str(), "r");
        if (in != nullptr) {
          char buffer[128] = {};
          if (std::fgets(buffer, sizeof(buffer), in) != nullptr) {
            address = buffer;
            while (!address.empty() &&
                   (address.back() == '\n' || address.back() == '\r')) {
              address.pop_back();
            }
          }
          std::fclose(in);
          if (!address.empty()) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (address.empty()) {
        std::fprintf(stderr, "pdms_node: shard %u never announced\n", s);
        return 1;
      }
      const Status status = (*node)->SetShardAddress(s, address);
      if (!status.ok()) return Fail(status);
    }
  }

  Status status = (*node)->Connect();
  if (!status.ok()) return Fail(status);
  bool restored = false;
  if (!state_dir.empty()) {
    const Result<uint64_t> round = (*node)->TryRestoreFromState();
    if (round.ok()) {
      std::fprintf(stderr,
                   "pdms_node: shard %u restored from snapshot at round %llu\n",
                   shard, static_cast<unsigned long long>(*round));
      const Status rejoined = (*node)->PerformRejoin();
      if (!rejoined.ok()) return Fail(rejoined);
      restored = true;
    } else if (round.status().code() == StatusCode::kNotFound) {
      std::fprintf(stderr, "pdms_node: shard %u has no snapshot; cold start\n",
                   shard);
    } else {
      // Torn / corrupt snapshots are rejected, surfaced, and fall back to
      // a cold start rather than resuming from bad state.
      std::fprintf(stderr, "pdms_node: shard %u snapshot rejected (%s); "
                           "cold start\n",
                   shard, round.status().ToString().c_str());
    }
  }
  if (!restored) {
    Result<size_t> factors = (*node)->RunDiscovery();
    if (!factors.ok()) return Fail(factors.status());
    std::fprintf(stderr, "pdms_node: shard %u discovered %zu local replicas\n",
                 shard, *factors);
  }
  Result<ConvergenceReport> converged = (*node)->RunRounds();
  if (!converged.ok()) return Fail(converged.status());
  std::fprintf(stderr,
               "pdms_node: shard %u ran %zu rounds (converged=%d "
               "rejected_beliefs=%llu demoted_links=%llu)\n",
               shard, converged->rounds, converged->converged ? 1 : 0,
               static_cast<unsigned long long>((*node)->rejected_beliefs()),
               static_cast<unsigned long long>((*node)->demoted_links()));

  PrintOwnedPosteriors((*node)->pdms(), workload.family,
                       &(*node)->transport());
  std::fflush(stdout);

  if (serve_ms > 0) {
    // Keep answering queries (and keep the listen socket alive) a while.
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
  }
  return 0;
}

int RunQuery(int argc, char** argv) {
  QueryRequestFrame request;
  request.request_id = 1;
  uint64_t origin = 0;
  uint64_t ttl = 0;
  if (!ParseU64Flag(argc, argv, "origin", "0", &origin) ||
      origin > std::numeric_limits<uint32_t>::max()) {
    return UsageError("origin", "a peer id");
  }
  if (!ParseU64Flag(argc, argv, "ttl", "3", &ttl) ||
      ttl > std::numeric_limits<uint32_t>::max()) {
    return UsageError("ttl", "a non-negative integer");
  }
  request.origin = static_cast<PeerId>(origin);
  request.ttl = static_cast<uint32_t>(ttl);
  request.text = FlagValue(argc, argv, "text", "");
  const std::string address = FlagValue(argc, argv, "addr", "");
  if (address.empty() || request.text.empty()) {
    std::fprintf(stderr, "pdms_node: query mode needs --addr and --text\n");
    return 1;
  }
  Result<QueryResponseFrame> response =
      PdmsNode::QueryNode(address, request);
  if (!response.ok()) return Fail(response.status());
  if (!response->ok) {
    std::fprintf(stderr, "pdms_node: query failed: %s\n",
                 response->error.c_str());
    return 1;
  }
  std::printf("reached %llu peers, %zu rows\n",
              static_cast<unsigned long long>(response->reached),
              response->rows.size());
  for (const std::string& row : response->rows) {
    std::printf("%s\n", row.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // PDMS_LOG_LEVEL=debug|info|warning|error raises or lowers the stderr
  // log threshold; the default (warning) keeps posterior output clean.
  if (const char* level = std::getenv("PDMS_LOG_LEVEL")) {
    const std::string name = level;
    if (name == "debug") {
      Logger::Get().set_min_level(LogLevel::kDebug);
    } else if (name == "info") {
      Logger::Get().set_min_level(LogLevel::kInfo);
    } else if (name == "warning") {
      Logger::Get().set_min_level(LogLevel::kWarning);
    } else if (name == "error") {
      Logger::Get().set_min_level(LogLevel::kError);
    } else {
      std::fprintf(stderr, "pdms_node: unknown PDMS_LOG_LEVEL '%s'\n",
                   level);
      return 2;
    }
  }
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "serve") return RunServe(argc, argv);
  if (mode == "reference") return RunReference(argc, argv);
  if (mode == "query") return RunQuery(argc, argv);
  std::fprintf(stderr,
               "usage: pdms_node <serve|reference|query> [--flags]\n"
               "  serve      run one shard (see file comment)\n"
               "  reference  single-process run, same workload\n"
               "  query      client: --addr --origin --ttl --text\n");
  return 2;
}
