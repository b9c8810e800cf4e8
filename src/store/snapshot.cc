#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/guard.h"
#include "net/byte_io.h"
#include "net/codec.h"
#include "util/string_util.h"

namespace pdms {
namespace {

/// "PDMSSNP1", little-endian, as the first eight bytes of every file.
constexpr uint64_t kSnapshotMagic = 0x31504e53534d4450ull;

// --- Layout ------------------------------------------------------------------
//
// Each record's layout is one field list (`Fields`), run by a
// `wire::FieldWriter` to encode and a `wire::ByteReader` to decode (see
// net/byte_io.h). The byte primitives are the wire codec's: one varint,
// one fixed-width encoding and one strict reader for both formats. The
// layouts stay separate, because the snapshot format is versioned on its
// own (`kSnapshotFormatVersion`, not `kWireFormatVersion`): a record can
// change on disk without moving the wire, and the reverse. Message
// payloads captured in inboxes and probe caches are stored in their wire
// encoding (`EncodePayload` / `DecodePayload`).

using wire::ByteReader;
using wire::FieldWriter;
using wire::RecordOf;

/// The fixed-width fields in front of the checksummed payload that are not
/// part of `NodeSnapshot`.
struct FileHeader {
  uint64_t magic = kSnapshotMagic;
  uint32_t version = kSnapshotFormatVersion;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
};

template <typename IO>
void HeaderFields(IO& io, auto& header, auto& snapshot) {
  io.Fixed64(header.magic);
  io.Fixed32(header.version);
  io.Fixed64(snapshot.state_epoch);
  io.Fixed64(snapshot.round);
  io.Fixed64(snapshot.tick);
  io.Fixed64(snapshot.quiet);
  io.Double(snapshot.previous_change);
  io.Fixed64(snapshot.report_updates);
  io.Fixed64(header.payload_size);
  io.Fixed32(header.payload_crc);
}

template <typename IO>
void Fields(IO& io, RecordOf<FactorId> auto& id) {
  io.Fixed64(id.hi);
  io.Fixed64(id.lo);
}

template <typename IO>
void Fields(IO& io, RecordOf<MappingVarKey> auto& key) {
  io.Fixed32(key.edge);
  io.Fixed32(key.attribute);
}

template <typename IO>
void Fields(IO& io, RecordOf<Belief> auto& belief) {
  io.Double(belief.correct);
  io.Double(belief.incorrect);
}

template <typename IO>
void Fields(IO& io, RecordOf<std::pair<uint32_t, uint32_t>> auto& pair) {
  io.Fixed32(pair.first);
  io.Fixed32(pair.second);
}

template <typename IO>
void Fields(IO& io, RecordOf<uint32_t> auto& value) {
  io.Fixed32(value);
}

/// A mapping table: name, source size, then each attribute's image.
template <typename IO>
void Fields(IO& io, RecordOf<std::pair<EdgeId, SchemaMapping>> auto& entry) {
  auto& [edge, mapping] = entry;
  io.Fixed32(edge);
  if constexpr (IO::kDecoding) {
    std::string name;
    io.String(name);
    mapping = SchemaMapping(std::move(name), io.Count(4));
    for (AttributeId a = 0; a < mapping.source_size(); ++a) {
      std::optional<AttributeId> target;
      io.Nullable32(target);
      io.Fail(mapping.Set(a, target));
    }
  } else {
    io.String(mapping.name());
    io.Varint(mapping.source_size());
    for (AttributeId a = 0; a < mapping.source_size(); ++a) {
      io.Nullable32(mapping.Apply(a));
    }
  }
}

template <typename IO>
void Fields(IO& io, RecordOf<Closure> auto& closure) {
  io.Ranged(closure.kind, Closure::Kind::kParallelPaths, "closure kind");
  io.List(closure.edges, 4, [&](auto& edge) { io.Fixed32(edge); });
  io.Varint(closure.split);
  io.Fixed32(closure.source);
  io.Fixed32(closure.sink);
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::Replica> auto& replica) {
  Fields(io, replica.id);
  Fields(io, replica.closure);
  io.Fixed32(replica.root_attribute);
  io.Ranged(replica.sign, FeedbackSign::kNeutral, "replica sign");
  io.Double(replica.delta);
  io.List(replica.other_owners, 4, [&](auto& p) { Fields(io, p); });
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::ReplicaHot> auto& hot) {
  io.Fixed32(hot.msg_base);
  io.Fixed32(hot.member_count);
  io.Fixed32(hot.owned_base);
  io.Fixed32(hot.owned_count);
  io.Double(hot.delta);
  io.Bool(hot.positive);
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::BeliefRoute> auto& route) {
  io.Fixed32(route.to);
  io.Fixed32(route.link);
  io.Fixed32(route.entry_total);
  io.List(route.groups, 8, [&](auto& group) { Fields(io, group); });
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::Link> auto& link) {
  const auto each = [&](auto& record) { Fields(io, record); };
  io.Fixed32(link.peer);
  io.List(link.tx.id_of, 16, each);
  io.Fixed32(link.tx.acked_prefix);
  io.List(link.rx.id_of, 16, each);
  io.Fixed32(link.rx.known_prefix);
  io.List(link.replica_of_alias, 4, each);
  io.Ranged(link.value_rank, kValueRankCount - 1, "link value rank");
  auto& guard = link.guard;
  io.Double(guard.score);
  io.Ranged(guard.demote_level, 2, "link demote level");
  io.Fixed64(guard.rejections);
  io.Fixed64(guard.equivocations);
  io.Fixed64(guard.oscillations);
  io.Fixed64(guard.outliers);
  io.Fixed64(guard.dropped_bundles);
  io.Double(guard.round_influence);
  io.Fixed32(guard.round_absorbed);
}

template <typename IO>
void Fields(IO& io, RecordOf<GuardSlot> auto& slot) {
  io.Double(slot.last_log_odds);
  io.Fixed64(slot.last_round);
  io.U8(slot.flips);
  io.U8(slot.last_dir);
  io.Bool(slot.has_last);
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::VarState> auto& var) {
  Fields(io, var.key);
  io.Double(var.prior);
  io.Bool(var.has_explicit_prior);
  io.Fixed64(var.evidence_count);
  io.Double(var.evidence_sum);
  io.Bool(var.has_evidence_acc);
  io.Double(var.last_posterior);
  io.Bool(var.has_last_posterior);
  io.List(var.slots, 8, [&](auto& slot) { Fields(io, slot); });
}

/// A captured message: kind byte, byte length, then its wire encoding.
template <typename IO>
void Fields(IO& io, RecordOf<Payload> auto& payload) {
  if constexpr (IO::kDecoding) {
    MessageKind kind = MessageKind::kProbe;
    io.Ranged(kind, MessageKind::kQuery, "payload message kind");
    const std::span<const uint8_t> bytes = io.Bytes(io.Count(1));
    if (!io.ok()) return;
    Result<Payload> decoded = DecodePayload(kind, bytes);
    if (!decoded.ok()) return io.Fail(decoded.status());
    payload = std::move(decoded).value();
  } else {
    std::vector<uint8_t> bytes;
    EncodePayload(payload, &bytes);
    io.U8(KindOf(payload));
    io.Varint(bytes.size());
    io.Bytes(bytes);
  }
}

using ProbeCacheEntry = std::pair<PeerId, std::vector<ProbeMessage>>;

/// One origin's cached probes, each stored as a captured payload.
template <typename IO>
void Fields(IO& io, RecordOf<ProbeCacheEntry> auto& entry) {
  io.Fixed32(entry.first);
  io.List(entry.second, 2, [&](auto& probe) {
    if constexpr (IO::kDecoding) {
      Payload payload;
      Fields(io, payload);
      ProbeMessage* decoded = std::get_if<ProbeMessage>(&payload);
      if (decoded == nullptr) return io.Malformed("probe cache payload kind");
      probe = std::move(*decoded);
    } else {
      const Payload payload(probe);
      Fields(io, payload);
    }
  });
}

template <typename IO>
void Fields(IO& io, RecordOf<Envelope> auto& frame) {
  io.Fixed64(frame.seq);
  io.Fixed32(frame.from);
  io.Fixed32(frame.to);
  io.Nullable32(frame.via);
  io.Fixed64(frame.deliver_at);
  Fields(io, frame.payload);
}

/// The offsets `RestoreImage` moves in and the next `ComputeRound` indexes
/// the image's arrays with, and the link identities its indexes are
/// rebuilt from. The CRC only proves the bytes are the ones written, so an
/// image whose offsets leave their arrays, or whose links split one
/// neighbor, is refused here rather than misused later.
Status CheckImageBounds(const Peer::Image& image) {
  const auto corrupt = [](const char* what) {
    return Status::DataLoss(StrFormat("peer image %s", what));
  };
  const size_t replicas = image.replicas.size();
  for (const Peer::Replica& replica : image.replicas) {
    if (replica.closure.split > replica.closure.edges.size()) {
      return corrupt("closure split beyond its edges");
    }
  }
  if (image.replica_hot.size() != replicas) {
    return corrupt("replica_hot size differs from replicas");
  }
  const uint64_t slot_count = std::min(
      {image.var_to_factor_pool.size(), image.factor_to_var_pool.size(),
       image.member_pool.size(), image.member_owner_pool.size()});
  for (const Peer::ReplicaHot& hot : image.replica_hot) {
    if (uint64_t{hot.msg_base} + hot.member_count > slot_count) {
      return corrupt("message slots beyond the slot pools");
    }
    if (uint64_t{hot.owned_base} + hot.owned_count >
        image.owned_pos_pool.size()) {
      return corrupt("owned positions beyond owned_pos_pool");
    }
    for (uint32_t i = 0; i < hot.owned_count; ++i) {
      if (image.owned_pos_pool[hot.owned_base + i] >= hot.member_count) {
        return corrupt("owned position beyond member_count");
      }
    }
  }
  for (const Peer::BeliefRoute& route : image.belief_routes) {
    if (route.link >= image.links.size()) {
      return corrupt("belief route link beyond links");
    }
    if (image.links[route.link].peer != route.to) {
      return corrupt("belief route link of another peer");
    }
    for (const auto& [replica, alias] : route.groups) {
      if (replica >= replicas) {
        return corrupt("belief route group beyond replicas");
      }
    }
  }
  for (const Peer::VarState& var : image.vars) {
    for (const auto& [replica, position] : var.slots) {
      if (replica >= replicas ||
          position >= image.replica_hot[replica].member_count) {
        return corrupt("variable slot beyond its replica");
      }
    }
  }
  // The link-by-peer index is rebuilt from `Link::peer`: a neighbor on
  // two links, or a route naming a link of another peer, would split one
  // session over two records.
  std::vector<PeerId> peers;
  peers.reserve(image.links.size());
  for (const Peer::Link& link : image.links) {
    peers.push_back(link.peer);
    for (uint32_t replica : link.replica_of_alias) {
      if (replica >= replicas && replica != Peer::kNoReplica) {
        return corrupt("alias bound beyond replicas");
      }
    }
  }
  std::sort(peers.begin(), peers.end());
  if (std::adjacent_find(peers.begin(), peers.end()) != peers.end()) {
    return corrupt("links name one peer twice");
  }
  return Status::Ok();
}

template <typename IO>
void Fields(IO& io, RecordOf<Peer::Image> auto& image, uint32_t version) {
  const auto each = [&](auto& record) { Fields(io, record); };
  io.List(image.mappings, 4, each);
  io.List(image.replicas, 16, each);
  io.List(image.replica_hot, 16, each);
  io.List(image.var_to_factor_pool, 16, each);
  io.List(image.factor_to_var_pool, 16, each);
  io.List(image.member_pool, 8, each);
  io.List(image.member_owner_pool, 4, each);
  io.List(image.owned_pos_pool, 4, each);
  io.List(image.belief_routes, 12, each);
  io.List(image.links, 12, each);
  io.Fixed32(image.alias_epoch);
  io.List(image.guard_slot_pool, 19, each);
  io.Fixed64(image.round);
  io.List(image.vars, 8, each);
  io.List(image.announced, 16, each);
  if constexpr (IO::kDecoding) {
    if (version < 4) {
      // v3's seen query ids: finished queries, which never arrive again.
      for (size_t n = io.Count(8); n > 0; --n) {
        uint64_t query_id = 0;
        io.Fixed64(query_id);
      }
    }
  }
  io.List(image.probe_cache, 4, each);
  if constexpr (IO::kDecoding) {
    if (io.ok()) io.Fail(CheckImageBounds(image));
  }
}

/// Everything the header's length and CRC cover.
template <typename IO>
void PayloadFields(IO& io, auto& snapshot, uint32_t version) {
  io.List(snapshot.engine.edge_alive, 1,
          [&](auto&& alive) { io.Bool(alive); });
  io.List(snapshot.engine.peers, 1,
          [&](auto& peer) { Fields(io, peer, version); });
  io.Fixed64(snapshot.engine.next_query_id);
  io.List(snapshot.inbox, 29, [&](auto& frame) { Fields(io, frame); });
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
  std::vector<uint8_t> payload;
  FieldWriter payload_writer(&payload);
  PayloadFields(payload_writer, snapshot, kSnapshotFormatVersion);
  FileHeader header;
  header.payload_size = payload.size();
  header.payload_crc = Crc32(payload);

  std::vector<uint8_t> file;
  FieldWriter file_writer(&file);
  HeaderFields(file_writer, std::as_const(header), snapshot);
  file_writer.Bytes(payload);
  return file;
}

Result<NodeSnapshot> DecodeSnapshot(std::span<const uint8_t> bytes) {
  ByteReader file(bytes, StatusCode::kDataLoss);
  FileHeader header;
  NodeSnapshot snapshot;
  HeaderFields(file, header, snapshot);
  if (!file.ok()) {
    return Status::DataLoss("snapshot truncated inside the header");
  }
  if (header.magic != kSnapshotMagic) {
    return Status::DataLoss("not a PDMS snapshot (bad magic)");
  }
  if (header.version < kOldestReadableSnapshotVersion ||
      header.version > kSnapshotFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot format version %u, this build reads %u to %u",
        header.version, kOldestReadableSnapshotVersion,
        kSnapshotFormatVersion));
  }
  if (header.payload_size != file.remaining()) {
    return Status::DataLoss(
        StrFormat("snapshot payload torn: header says %llu bytes, file has %zu",
                  static_cast<unsigned long long>(header.payload_size),
                  file.remaining()));
  }
  const std::span<const uint8_t> payload_bytes = file.Rest();
  if (Crc32(payload_bytes) != header.payload_crc) {
    return Status::DataLoss("snapshot payload CRC mismatch");
  }

  ByteReader payload(payload_bytes, StatusCode::kDataLoss);
  PayloadFields(payload, snapshot, header.version);
  const Status status = payload.Finish("the snapshot payload");
  if (!status.ok()) {
    return Status(status.code(),
                  StrFormat("snapshot payload corrupt: %s",
                            status.message().c_str()));
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
