#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/guard.h"
#include "net/codec.h"
#include "util/string_util.h"

namespace pdms {
namespace {

/// "PDMSSNP1", little-endian, as the first eight bytes of every file.
constexpr uint64_t kSnapshotMagic = 0x31504e53534d4450ull;

/// ⊥ / nullopt sentinel for optional 32-bit ids on disk.
constexpr uint32_t kNullId32 = 0xffffffffu;

// --- Serialization primitives -------------------------------------------------
//
// The wire codec keeps its byte helpers in an anonymous namespace on
// purpose (they are wire-format internals); the snapshot format is a
// separate, independently-versioned layout, so it carries its own. Only
// the public codec pieces are shared: `Crc32` for payload integrity and
// `EncodePayload`/`DecodePayload` for the message payloads captured in
// transport inboxes and probe caches.

struct Writer {
  std::vector<uint8_t> out;

  void U8(uint8_t v) { out.push_back(v); }
  void Bool(bool v) { out.push_back(v ? 1 : 0); }
  void Fixed32(uint32_t v) {
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
  }
  void Fixed64(uint64_t v) {
    Fixed32(static_cast<uint32_t>(v));
    Fixed32(static_cast<uint32_t>(v >> 32));
  }
  void Double(double v) { Fixed64(std::bit_cast<uint64_t>(v)); }
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
  }
  void String(const std::string& s) {
    Varint(s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
  void Bytes(const std::vector<uint8_t>& b) {
    out.insert(out.end(), b.begin(), b.end());
  }
};

/// Bounds-checked sequential reader. Any out-of-range read trips the
/// sticky `failed` flag and yields zeros; callers check once per
/// milestone instead of threading a Status through every field.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  bool failed() const { return failed_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return !failed_ && pos_ == data_.size(); }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  uint32_t Fixed32() {
    if (!Need(4)) return 0;
    uint32_t v = static_cast<uint32_t>(data_[pos_]) |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 2]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }
  uint64_t Fixed64() {
    const uint64_t lo = Fixed32();
    const uint64_t hi = Fixed32();
    return lo | hi << 32;
  }
  double Double() { return std::bit_cast<double>(Fixed64()); }
  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Need(1)) return 0;
      const uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }
  /// Collection count: bounded by the bytes actually left, so a corrupt
  /// length cannot trigger a huge allocation before the parse fails.
  size_t Count(size_t min_element_bytes) {
    const uint64_t n = Varint();
    const size_t bound =
        min_element_bytes > 0 ? remaining() / min_element_bytes : remaining();
    if (n > bound) {
      failed_ = true;
      return 0;
    }
    return static_cast<size_t>(n);
  }
  std::string String() {
    const size_t n = Count(1);
    if (!Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::span<const uint8_t> Bytes(size_t n) {
    if (!Need(n)) return {};
    std::span<const uint8_t> b = data_.subspan(pos_, n);
    pos_ += n;
    return b;
  }

 private:
  bool Need(size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// --- Field-group helpers ------------------------------------------------------

void PutFactorId(Writer& w, const FactorId& id) {
  w.Fixed64(id.hi);
  w.Fixed64(id.lo);
}

FactorId GetFactorId(Reader& r) {
  FactorId id;
  id.hi = r.Fixed64();
  id.lo = r.Fixed64();
  return id;
}

void PutClosure(Writer& w, const Closure& closure) {
  w.U8(static_cast<uint8_t>(closure.kind));
  w.Varint(closure.edges.size());
  for (EdgeId e : closure.edges) w.Fixed32(e);
  w.Varint(closure.split);
  w.Fixed32(closure.source);
  w.Fixed32(closure.sink);
}

bool GetClosure(Reader& r, Closure* closure) {
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(Closure::Kind::kParallelPaths)) return false;
  closure->kind = static_cast<Closure::Kind>(kind);
  closure->edges.resize(r.Count(4));
  for (EdgeId& e : closure->edges) e = r.Fixed32();
  closure->split = static_cast<size_t>(r.Varint());
  closure->source = r.Fixed32();
  closure->sink = r.Fixed32();
  return !r.failed() && closure->split <= closure->edges.size();
}

void PutPayload(Writer& w, const Payload& payload) {
  std::vector<uint8_t> bytes;
  EncodePayload(payload, &bytes);
  w.U8(static_cast<uint8_t>(KindOf(payload)));
  w.Varint(bytes.size());
  w.Bytes(bytes);
}

Result<Payload> GetPayload(Reader& r) {
  const uint8_t kind = r.U8();
  const size_t size = r.Count(1);
  std::span<const uint8_t> bytes = r.Bytes(size);
  if (r.failed()) return Status::DataLoss("snapshot payload truncated");
  if (kind >= kMessageKindCount) {
    return Status::DataLoss(
        StrFormat("snapshot payload has unknown message kind %u", kind));
  }
  return DecodePayload(static_cast<MessageKind>(kind), bytes);
}

void PutPeerImage(Writer& w, const Peer::Image& image) {
  w.Varint(image.mappings.size());
  for (const auto& [edge, mapping] : image.mappings) {
    w.Fixed32(edge);
    w.String(mapping.name());
    w.Varint(mapping.source_size());
    for (AttributeId a = 0; a < mapping.source_size(); ++a) {
      const std::optional<AttributeId> target = mapping.Apply(a);
      w.Fixed32(target.has_value() ? *target : kNullId32);
    }
  }

  w.Varint(image.replicas.size());
  for (const Peer::Replica& replica : image.replicas) {
    PutFactorId(w, replica.id);
    PutClosure(w, replica.closure);
    w.Fixed32(replica.root_attribute);
    w.U8(static_cast<uint8_t>(replica.sign));
    w.Double(replica.delta);
    w.Varint(replica.other_owners.size());
    for (PeerId p : replica.other_owners) w.Fixed32(p);
  }

  w.Varint(image.replica_hot.size());
  for (const Peer::ReplicaHot& hot : image.replica_hot) {
    w.Fixed32(hot.msg_base);
    w.Fixed32(hot.member_count);
    w.Fixed32(hot.owned_base);
    w.Fixed32(hot.owned_count);
    w.Double(hot.delta);
    w.Bool(hot.positive);
  }

  w.Varint(image.var_to_factor_pool.size());
  for (const Belief& b : image.var_to_factor_pool) {
    w.Double(b.correct);
    w.Double(b.incorrect);
  }
  w.Varint(image.factor_to_var_pool.size());
  for (const Belief& b : image.factor_to_var_pool) {
    w.Double(b.correct);
    w.Double(b.incorrect);
  }

  w.Varint(image.member_pool.size());
  for (const MappingVarKey& key : image.member_pool) {
    w.Fixed32(key.edge);
    w.Fixed32(key.attribute);
  }
  w.Varint(image.member_owner_pool.size());
  for (PeerId p : image.member_owner_pool) w.Fixed32(p);
  w.Varint(image.owned_pos_pool.size());
  for (uint32_t pos : image.owned_pos_pool) w.Fixed32(pos);

  w.Varint(image.belief_routes.size());
  for (const Peer::BeliefRoute& route : image.belief_routes) {
    w.Fixed32(route.to);
    w.Fixed32(route.link);
    w.Fixed32(route.entry_total);
    w.Varint(route.groups.size());
    for (const auto& [replica, alias] : route.groups) {
      w.Fixed32(replica);
      w.Fixed32(alias);
    }
  }

  w.Varint(image.links.size());
  for (const Peer::LinkImage& link : image.links) {
    w.Fixed32(link.peer);
    w.Varint(link.tx_id_by_alias.size());
    for (const FactorId& id : link.tx_id_by_alias) PutFactorId(w, id);
    w.Fixed32(link.tx_acked_prefix);
    w.Varint(link.rx_id_of.size());
    for (const FactorId& id : link.rx_id_of) PutFactorId(w, id);
    w.Fixed32(link.rx_known_prefix);
    w.Varint(link.replica_of_alias.size());
    for (uint32_t replica : link.replica_of_alias) w.Fixed32(replica);
    w.U8(static_cast<uint8_t>(link.value_rank));
    const GuardLinkState& guard = link.guard;
    w.Double(guard.score);
    w.U8(guard.demote_level);
    w.Fixed64(guard.rejections);
    w.Fixed64(guard.equivocations);
    w.Fixed64(guard.oscillations);
    w.Fixed64(guard.outliers);
    w.Fixed64(guard.dropped_bundles);
    w.Double(guard.round_influence);
    w.Fixed32(guard.round_absorbed);
  }
  w.Fixed32(image.alias_epoch);
  w.Varint(image.guard_slot_pool.size());
  for (const GuardSlot& slot : image.guard_slot_pool) {
    w.Double(slot.last_log_odds);
    w.Fixed64(slot.last_round);
    w.U8(slot.flips);
    w.U8(static_cast<uint8_t>(slot.last_dir));
    w.Bool(slot.has_last);
  }
  w.Fixed64(image.round);

  w.Varint(image.vars.size());
  for (const Peer::VarState& var : image.vars) {
    w.Fixed32(var.key.edge);
    w.Fixed32(var.key.attribute);
    w.Double(var.prior);
    w.Bool(var.has_explicit_prior);
    w.Fixed64(var.evidence_count);
    w.Double(var.evidence_sum);
    w.Bool(var.has_evidence_acc);
    w.Double(var.last_posterior);
    w.Bool(var.has_last_posterior);
    w.Varint(var.slots.size());
    for (const auto& [replica, position] : var.slots) {
      w.Fixed32(replica);
      w.Fixed32(position);
    }
  }

  w.Varint(image.announced.size());
  for (const FactorId& id : image.announced) PutFactorId(w, id);

  w.Varint(image.probe_cache.size());
  for (const auto& [origin, probes] : image.probe_cache) {
    w.Fixed32(origin);
    w.Varint(probes.size());
    for (const ProbeMessage& probe : probes) PutPayload(w, Payload(probe));
  }
}

Status GetPeerImage(Reader& r, uint32_t format_version, Peer::Image* image) {
  const auto corrupt = [](const char* what) {
    return Status::DataLoss(
        StrFormat("snapshot peer image corrupt: %s", what));
  };

  image->mappings.clear();
  const size_t mapping_count = r.Count(4);
  image->mappings.reserve(mapping_count);
  for (size_t i = 0; i < mapping_count; ++i) {
    const EdgeId edge = r.Fixed32();
    std::string name = r.String();
    const size_t source_size = r.Count(4);
    SchemaMapping mapping(std::move(name), source_size);
    for (AttributeId a = 0; a < source_size; ++a) {
      const uint32_t target = r.Fixed32();
      if (target == kNullId32) continue;
      const Status set = mapping.Set(a, target);
      if (!set.ok()) return set;
    }
    if (r.failed()) return corrupt("mapping table");
    image->mappings.emplace_back(edge, std::move(mapping));
  }

  image->replicas.clear();
  const size_t replica_count = r.Count(16);
  image->replicas.reserve(replica_count);
  for (size_t i = 0; i < replica_count; ++i) {
    Peer::Replica& replica = image->replicas.emplace_back();
    replica.id = GetFactorId(r);
    if (!GetClosure(r, &replica.closure)) return corrupt("replica closure");
    replica.root_attribute = r.Fixed32();
    const uint8_t sign = r.U8();
    if (sign > static_cast<uint8_t>(FeedbackSign::kNeutral)) {
      return corrupt("replica sign");
    }
    replica.sign = static_cast<FeedbackSign>(sign);
    replica.delta = r.Double();
    replica.other_owners.resize(r.Count(4));
    for (PeerId& p : replica.other_owners) p = r.Fixed32();
  }
  if (r.failed()) return corrupt("replica table");

  image->replica_hot.resize(r.Count(16));
  for (Peer::ReplicaHot& hot : image->replica_hot) {
    hot.msg_base = r.Fixed32();
    hot.member_count = r.Fixed32();
    hot.owned_base = r.Fixed32();
    hot.owned_count = r.Fixed32();
    hot.delta = r.Double();
    hot.positive = r.Bool();
  }

  image->var_to_factor_pool.resize(r.Count(16));
  for (Belief& b : image->var_to_factor_pool) {
    b.correct = r.Double();
    b.incorrect = r.Double();
  }
  image->factor_to_var_pool.resize(r.Count(16));
  for (Belief& b : image->factor_to_var_pool) {
    b.correct = r.Double();
    b.incorrect = r.Double();
  }

  image->member_pool.resize(r.Count(8));
  for (MappingVarKey& key : image->member_pool) {
    key.edge = r.Fixed32();
    key.attribute = r.Fixed32();
  }
  image->member_owner_pool.resize(r.Count(4));
  for (PeerId& p : image->member_owner_pool) p = r.Fixed32();
  image->owned_pos_pool.resize(r.Count(4));
  for (uint32_t& pos : image->owned_pos_pool) pos = r.Fixed32();
  if (r.failed()) return corrupt("message pools");

  image->belief_routes.resize(r.Count(12));
  for (Peer::BeliefRoute& route : image->belief_routes) {
    route.to = r.Fixed32();
    route.link = r.Fixed32();
    route.entry_total = r.Fixed32();
    route.groups.resize(r.Count(8));
    for (auto& [replica, alias] : route.groups) {
      replica = r.Fixed32();
      alias = r.Fixed32();
    }
  }

  image->links.resize(r.Count(12));
  for (Peer::LinkImage& link : image->links) {
    link.peer = r.Fixed32();
    link.tx_id_by_alias.resize(r.Count(16));
    for (FactorId& id : link.tx_id_by_alias) id = GetFactorId(r);
    link.tx_acked_prefix = r.Fixed32();
    link.rx_id_of.resize(r.Count(16));
    for (FactorId& id : link.rx_id_of) id = GetFactorId(r);
    link.rx_known_prefix = r.Fixed32();
    link.replica_of_alias.resize(r.Count(4));
    for (uint32_t& replica : link.replica_of_alias) replica = r.Fixed32();
    link.value_rank = r.U8();
    if (link.value_rank >= kValueRankCount) return corrupt("link value rank");
    GuardLinkState& guard = link.guard;
    guard.score = r.Double();
    guard.demote_level = r.U8();
    if (guard.demote_level > 2) return corrupt("link demote level");
    guard.rejections = r.Fixed64();
    guard.equivocations = r.Fixed64();
    guard.oscillations = r.Fixed64();
    guard.outliers = r.Fixed64();
    guard.dropped_bundles = r.Fixed64();
    guard.round_influence = r.Double();
    guard.round_absorbed = r.Fixed32();
  }
  image->alias_epoch = r.Fixed32();
  image->guard_slot_pool.resize(r.Count(19));
  for (GuardSlot& slot : image->guard_slot_pool) {
    slot.last_log_odds = r.Double();
    slot.last_round = r.Fixed64();
    slot.flips = r.U8();
    slot.last_dir = static_cast<int8_t>(r.U8());
    slot.has_last = r.Bool();
  }
  image->round = r.Fixed64();
  if (r.failed()) return corrupt("alias links");

  image->vars.resize(r.Count(8));
  for (Peer::VarState& var : image->vars) {
    var.key.edge = r.Fixed32();
    var.key.attribute = r.Fixed32();
    var.prior = r.Double();
    var.has_explicit_prior = r.Bool();
    var.evidence_count = r.Fixed64();
    var.evidence_sum = r.Double();
    var.has_evidence_acc = r.Bool();
    var.last_posterior = r.Double();
    var.has_last_posterior = r.Bool();
    var.slots.resize(r.Count(8));
    for (auto& [replica, position] : var.slots) {
      replica = r.Fixed32();
      position = r.Fixed32();
    }
  }

  image->announced.resize(r.Count(16));
  for (FactorId& id : image->announced) id = GetFactorId(r);
  if (format_version < 4) {
    // v3's seen query ids: finished queries, which never arrive again.
    const size_t seen_queries = r.Count(8);
    for (size_t i = 0; i < seen_queries; ++i) r.Fixed64();
  }

  image->probe_cache.clear();
  const size_t origin_count = r.Count(4);
  image->probe_cache.reserve(origin_count);
  for (size_t i = 0; i < origin_count; ++i) {
    auto& [origin, probes] = image->probe_cache.emplace_back();
    origin = r.Fixed32();
    const size_t probe_count = r.Count(2);
    probes.reserve(probe_count);
    for (size_t j = 0; j < probe_count; ++j) {
      PDMS_ASSIGN_OR_RETURN(Payload payload, GetPayload(r));
      ProbeMessage* probe = std::get_if<ProbeMessage>(&payload);
      if (probe == nullptr) return corrupt("probe cache payload kind");
      probes.push_back(std::move(*probe));
    }
  }
  if (r.failed()) return corrupt("var / probe tables");
  return Status::Ok();
}

void PutCapturedFrame(Writer& w, const CapturedFrame& frame) {
  w.Fixed64(frame.seq);
  w.Fixed32(frame.envelope.from);
  w.Fixed32(frame.envelope.to);
  w.Fixed32(frame.envelope.via.has_value() ? *frame.envelope.via : kNullId32);
  w.Fixed64(frame.envelope.deliver_at);
  PutPayload(w, frame.envelope.payload);
}

Status GetCapturedFrame(Reader& r, CapturedFrame* frame) {
  frame->seq = r.Fixed64();
  frame->envelope.from = r.Fixed32();
  frame->envelope.to = r.Fixed32();
  const uint32_t via = r.Fixed32();
  frame->envelope.via =
      via == kNullId32 ? std::nullopt : std::optional<EdgeId>(via);
  frame->envelope.deliver_at = r.Fixed64();
  PDMS_ASSIGN_OR_RETURN(frame->envelope.payload, GetPayload(r));
  return Status::Ok();
}

// --- File IO ------------------------------------------------------------------

Status WriteFileDurably(const std::string& path,
                        std::span<const uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("open(%s): %s", path.c_str(), std::strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      return Status::Internal(
          StrFormat("write(%s): %s", path.c_str(), std::strerror(saved)));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("fsync(%s): %s", path.c_str(), std::strerror(saved)));
  }
  if (::close(fd) != 0) {
    return Status::Internal(
        StrFormat("close(%s): %s", path.c_str(), std::strerror(errno)));
  }
  return Status::Ok();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("open(%s): %s", dir.c_str(), std::strerror(errno)));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Internal(
        StrFormat("fsync(%s): %s", dir.c_str(), std::strerror(saved)));
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> ReadFileFully(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("no snapshot at %s", path.c_str()));
    }
    return Status::Internal(
        StrFormat("open(%s): %s", path.c_str(), std::strerror(errno)));
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      return Status::Internal(
          StrFormat("read(%s): %s", path.c_str(), std::strerror(saved)));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  ::close(fd);
  return bytes;
}

void HashU64(uint64_t& h, uint64_t v) {
  // FNV-1a over the value's eight little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

void HashDouble(uint64_t& h, double v) { HashU64(h, std::bit_cast<uint64_t>(v)); }

}  // namespace

uint64_t ComputeStateEpoch(const Digraph& graph,
                           std::span<const uint32_t> shard_of,
                           uint32_t shard_count,
                           const EngineOptions& options) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  HashU64(h, graph.node_count());
  HashU64(h, shard_count);
  for (uint32_t shard : shard_of) HashU64(h, shard);
  // Every edge ever added, in id order — ids are stable and never reused,
  // so all shards agree regardless of later removals (liveness is state,
  // not identity; it lives in the snapshot's engine image).
  HashU64(h, graph.alive_flags().size());
  for (EdgeId e = 0; e < graph.alive_flags().size(); ++e) {
    HashU64(h, graph.edge(e).src);
    HashU64(h, graph.edge(e).dst);
  }
  // Options that influence inference results. Scheduling knobs
  // (parallelism, min_peers_per_lane) and transport simulation settings
  // are deliberately excluded: results are identical across them.
  HashDouble(h, options.default_prior);
  HashU64(h, options.delta_override.has_value() ? 1 : 0);
  HashDouble(h, options.delta_override.value_or(0.0));
  HashDouble(h, options.theta);
  HashU64(h, options.forward_without_evidence ? 1 : 0);
  HashU64(h, options.probe_ttl);
  HashU64(h, options.closure_limits.max_cycle_length);
  HashU64(h, options.closure_limits.min_cycle_length);
  HashU64(h, options.closure_limits.max_path_length);
  HashU64(h, options.closure_limits.max_closures);
  HashU64(h, options.max_cached_probes);
  HashU64(h, static_cast<uint64_t>(options.schedule));
  HashU64(h, options.period_ticks);
  HashU64(h, static_cast<uint64_t>(options.granularity));
  HashDouble(h, options.tolerance);
  HashU64(h, options.convergence_patience);
  HashDouble(h, options.damping);
  // The value error budget changes what travels on the wire (and thus the
  // posteriors), so snapshots taken under one budget must never be resumed
  // under another. The two fixed words stand for the tier policy
  // (adaptive tiers, no exact tail), once two settings: hashing them keeps
  // the epochs of guard-off snapshots written under that policy, exact or
  // quantized.
  HashDouble(h, options.value_precision.error_budget);
  HashU64(h, 1);
  HashU64(h, 0);
  // The Byzantine guard changes what gets absorbed (and persists demotion
  // state in the image), and the chaos plan changes what goes on the
  // wire: a snapshot taken under one configuration must never be resumed
  // under another.
  const ByzantineGuardOptions& guard = options.byzantine_guard;
  HashU64(h, guard.enabled ? 1 : 0);
  if (guard.enabled) HashDouble(h, guard.demote_threshold);
  const ByzantinePlan& chaos = options.byzantine;
  HashU64(h, chaos.Enabled() ? 1 : 0);
  if (chaos.Enabled()) {
    HashU64(h, chaos.seed);
    HashDouble(h, chaos.lie_probability);
    HashU64(h, chaos.invert_values ? 1 : 0);
    HashDouble(h, chaos.equivocate_rate);
    HashU64(h, chaos.adversaries.size());
    for (PeerId adversary : chaos.adversaries) HashU64(h, adversary);
    HashU64(h, chaos.collude ? 1 : 0);
  }
  return h;
}

std::vector<uint8_t> EncodeSnapshot(const NodeSnapshot& snapshot) {
  Writer payload;
  payload.Varint(snapshot.engine.edge_alive.size());
  for (const bool alive : snapshot.engine.edge_alive) payload.Bool(alive);
  payload.Varint(snapshot.engine.peers.size());
  for (const Peer::Image& peer : snapshot.engine.peers) {
    PutPeerImage(payload, peer);
  }
  payload.Fixed64(snapshot.engine.next_query_id);
  payload.Varint(snapshot.inbox.size());
  for (const CapturedFrame& frame : snapshot.inbox) {
    PutCapturedFrame(payload, frame);
  }

  Writer file;
  file.Fixed64(kSnapshotMagic);
  file.Fixed32(kSnapshotFormatVersion);
  file.Fixed64(snapshot.state_epoch);
  file.Fixed64(snapshot.round);
  file.Fixed64(snapshot.tick);
  file.Fixed64(snapshot.quiet);
  file.Double(snapshot.previous_change);
  file.Fixed64(snapshot.report_updates);
  file.Fixed64(payload.out.size());
  file.Fixed32(Crc32(payload.out));
  file.Bytes(payload.out);
  return std::move(file.out);
}

Result<NodeSnapshot> DecodeSnapshot(std::span<const uint8_t> bytes) {
  Reader header(bytes);
  NodeSnapshot snapshot;
  const uint64_t magic = header.Fixed64();
  const uint32_t version = header.Fixed32();
  snapshot.state_epoch = header.Fixed64();
  snapshot.round = header.Fixed64();
  snapshot.tick = header.Fixed64();
  snapshot.quiet = header.Fixed64();
  snapshot.previous_change = header.Double();
  snapshot.report_updates = header.Fixed64();
  const uint64_t payload_size = header.Fixed64();
  const uint32_t payload_crc = header.Fixed32();
  if (header.failed()) {
    return Status::DataLoss("snapshot truncated inside the header");
  }
  if (magic != kSnapshotMagic) {
    return Status::DataLoss("not a PDMS snapshot (bad magic)");
  }
  if (version < kOldestReadableSnapshotVersion ||
      version > kSnapshotFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot format version %u, this build reads %u to %u", version,
        kOldestReadableSnapshotVersion, kSnapshotFormatVersion));
  }
  if (payload_size != header.remaining()) {
    return Status::DataLoss(
        StrFormat("snapshot payload torn: header says %llu bytes, file has %zu",
                  static_cast<unsigned long long>(payload_size),
                  header.remaining()));
  }
  std::span<const uint8_t> payload_bytes = header.Bytes(payload_size);
  if (Crc32(payload_bytes) != payload_crc) {
    return Status::DataLoss("snapshot payload CRC mismatch");
  }

  Reader payload(payload_bytes);
  snapshot.engine.edge_alive.resize(payload.Count(1));
  for (size_t e = 0; e < snapshot.engine.edge_alive.size(); ++e) {
    snapshot.engine.edge_alive[e] = payload.Bool();
  }
  const size_t peer_count = payload.Count(1);
  snapshot.engine.peers.resize(peer_count);
  for (Peer::Image& peer : snapshot.engine.peers) {
    PDMS_RETURN_IF_ERROR(GetPeerImage(payload, version, &peer));
  }
  snapshot.engine.next_query_id = payload.Fixed64();
  const size_t inbox_count = payload.Count(29);
  snapshot.inbox.resize(inbox_count);
  for (CapturedFrame& frame : snapshot.inbox) {
    PDMS_RETURN_IF_ERROR(GetCapturedFrame(payload, &frame));
  }
  if (!payload.Done()) {
    return Status::DataLoss("snapshot payload has trailing or missing bytes");
  }
  return snapshot;
}

SnapshotStore::SnapshotStore(std::string state_dir, uint32_t shard)
    : state_dir_(std::move(state_dir)), shard_(shard) {}

std::string SnapshotStore::SlotPath(uint32_t slot) const {
  return StrFormat("%s/shard-%u-snap-%u.pdms", state_dir_.c_str(), shard_,
                   slot);
}

Status SnapshotStore::Save(const NodeSnapshot& snapshot) const {
  const std::vector<uint8_t> bytes = EncodeSnapshot(snapshot);
  const std::string final_path =
      SlotPath(static_cast<uint32_t>(snapshot.round % 2));
  const std::string tmp_path = final_path + ".tmp";
  PDMS_RETURN_IF_ERROR(WriteFileDurably(tmp_path, bytes));
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(StrFormat("rename(%s -> %s): %s", tmp_path.c_str(),
                                      final_path.c_str(),
                                      std::strerror(errno)));
  }
  return FsyncDirectory(state_dir_);
}

Result<NodeSnapshot> SnapshotStore::Load(uint64_t state_epoch) const {
  Result<NodeSnapshot> best = Status::NotFound(
      StrFormat("no loadable snapshot for shard %u in %s", shard_,
                state_dir_.c_str()));
  for (uint32_t slot = 0; slot < 2; ++slot) {
    Result<std::vector<uint8_t>> bytes = ReadFileFully(SlotPath(slot));
    if (!bytes.ok()) continue;
    Result<NodeSnapshot> decoded = DecodeSnapshot(bytes.value());
    if (!decoded.ok()) continue;
    if (decoded.value().state_epoch != state_epoch) continue;
    if (!best.ok() || decoded.value().round > best.value().round) {
      best = std::move(decoded);
    }
  }
  return best;
}

}  // namespace pdms
