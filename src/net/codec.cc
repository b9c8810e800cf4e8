#include "net/codec.h"

#include <cassert>
#include <limits>
#include <type_traits>

#include "net/byte_io.h"
#include "util/string_util.h"

namespace pdms {
namespace {

using wire::AppendSink;
using wire::ByteReader;
using wire::CountingSink;
using wire::FieldWriter;
using wire::PutDouble;
using wire::PutFixed16;
using wire::PutFixed32;
using wire::PutFixed64;
using wire::PutString;
using wire::PutVarint;
using wire::RecordOf;

/// Zigzag mapping of a signed value onto the unsigned varint domain
/// (0, -1, 1, -2, … -> 0, 1, 2, 3, …): ascending sequences with small
/// steps encode in one byte, and an out-of-order group or position is
/// merely larger, never wrong.
uint64_t ZigZag(int64_t delta) {
  return (static_cast<uint64_t>(delta) << 1) ^
         static_cast<uint64_t>(delta >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

/// The one writer of µ values: a quantized entry travels as its quantum's
/// `QuantWireToken` varint, every other value (raw bundle entries, query
/// piggybacks) as two raw doubles. Its bytes are also the payload's
/// `value_bytes`.
template <typename Sink>
void PutValue(Sink& sink, const Belief& belief,
              std::optional<int64_t> quant = std::nullopt) {
  const size_t before = sink.size();
  if (quant) {
    PutVarint(sink, QuantWireToken(*quant));
  } else {
    PutDouble(sink, belief.correct);
    PutDouble(sink, belief.incorrect);
  }
  sink.ValueBytes(sink.size() - before);
}

// --- Payload encoding ----------------------------------------------------------

template <typename Sink>
void EncodeProbe(const ProbeMessage& probe, Sink& sink) {
  PutFixed32(sink, probe.origin);
  PutFixed32(sink, probe.ttl);
  PutVarint(sink, probe.route.size());
  for (EdgeId edge : probe.route) PutFixed32(sink, edge);
  const size_t hops = probe.hops();
  PutVarint(sink, hops);
  for (size_t h = 0; h < hops; ++h) {
    PutVarint(sink, probe.width);
    for (const std::optional<AttributeId>& attr : probe.Hop(h)) {
      PutFixed32(sink, attr ? *attr : kNullAttributeWire);
    }
  }
}

template <typename Sink>
void EncodeFeedback(const FeedbackAnnouncement& message, Sink& sink) {
  sink.Byte(static_cast<uint8_t>(message.closure.kind));
  PutVarint(sink, message.closure.split);
  PutFixed32(sink, message.closure.source);
  PutFixed32(sink, message.closure.sink);
  PutVarint(sink, message.closure.edges.size());
  for (EdgeId edge : message.closure.edges) PutFixed32(sink, edge);
  PutDouble(sink, message.delta);
  PutVarint(sink, message.feedback.size());
  for (const AttributeFeedback& entry : message.feedback) {
    PutFixed32(sink, entry.root_attribute);
    sink.Byte(static_cast<uint8_t>(entry.sign));
    PutVarint(sink, entry.members.size());
    for (const MappingVarKey& member : entry.members) {
      PutFixed32(sink, member.edge);
      PutFixed32(sink, member.attribute);
    }
  }
}

template <typename Sink>
void EncodeBelief(const BeliefMessage& message, Sink& sink) {
  // varint(epoch) + varint(ack) + varint(value_bits) + varint(#groups);
  // per group the zigzag alias-delta token (low bit = "full id present"),
  // the optional 16-byte fingerprint, varint(#entries); per entry a
  // zigzag position-delta varint plus the value — two raw doubles under
  // value_bits == 0, else the entry's quantum as one `QuantWireToken`
  // varint.
  const bool quantized = message.value_bits != 0;
  PutVarint(sink, message.epoch);
  PutVarint(sink, message.ack);
  PutVarint(sink, message.value_bits);
  PutVarint(sink, message.groups.size());
  uint32_t previous_alias = 0;
  for (const BeliefGroup& group : message.groups) {
    const bool has_id = !group.id.IsNil();
    const uint64_t token =
        (ZigZag(static_cast<int64_t>(group.alias) -
                static_cast<int64_t>(previous_alias))
         << 1) |
        (has_id ? 1 : 0);
    PutVarint(sink, token);
    previous_alias = group.alias;
    if (has_id) {
      PutFixed64(sink, group.id.hi);
      PutFixed64(sink, group.id.lo);
    }
    const std::span<const BeliefEntry> entries = message.EntriesOf(group);
    assert(entries.size() == group.entry_count &&
           "belief group entry range out of bundle bounds");
    PutVarint(sink, entries.size());
    uint32_t previous_position = 0;
    for (const BeliefEntry& entry : entries) {
      PutVarint(sink, ZigZag(static_cast<int64_t>(entry.position) -
                             static_cast<int64_t>(previous_position)));
      previous_position = entry.position;
      PutValue(sink, entry.belief,
               quantized ? std::optional<int64_t>(entry.quant) : std::nullopt);
    }
  }
}

template <typename Sink>
void EncodeQuery(const QueryMessage& message, Sink& sink) {
  PutFixed64(sink, message.query_id);
  PutFixed32(sink, message.origin);
  PutFixed32(sink, message.ttl);
  PutString(sink, message.query.name());
  PutVarint(sink, message.query.operations().size());
  for (const Operation& op : message.query.operations()) {
    sink.Byte(static_cast<uint8_t>(op.kind));
    PutFixed32(sink, op.attribute);
    PutString(sink, op.literal);
  }
  PutVarint(sink, message.visited.size());
  for (PeerId peer : message.visited) PutFixed32(sink, peer);
  PutVarint(sink, message.piggyback.size());
  for (const BeliefUpdate& update : message.piggyback) {
    PutFixed64(sink, update.factor.hi);
    PutFixed64(sink, update.factor.lo);
    assert(update.position <= std::numeric_limits<uint16_t>::max() &&
           "piggyback position exceeds the uint16 wire field");
    PutFixed16(sink, static_cast<uint16_t>(update.position));
    PutValue(sink, update.belief);
  }
}

template <typename Sink>
void EncodePayloadTo(const Payload& payload, Sink& sink) {
  std::visit(
      [&sink](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, ProbeMessage>) {
          EncodeProbe(message, sink);
        } else if constexpr (std::is_same_v<T, FeedbackAnnouncement>) {
          EncodeFeedback(message, sink);
        } else if constexpr (std::is_same_v<T, BeliefMessage>) {
          EncodeBelief(message, sink);
        } else {
          static_assert(std::is_same_v<T, QueryMessage>);
          EncodeQuery(message, sink);
        }
      },
      payload);
}

// --- Payload decoding ----------------------------------------------------------

void DecodeProbe(ByteReader& reader, ProbeMessage* probe) {
  reader.Fixed32(probe->origin);
  reader.Fixed32(probe->ttl);
  reader.List(probe->route, 4, [&](EdgeId& edge) { reader.Fixed32(edge); });
  const size_t hop_count = reader.Count(1);
  if (!reader.ok()) return;
  // Structure the handlers index by: one hop per route edge, every hop
  // the same non-zero width (the origin's schema size).
  if (hop_count != probe->route.size()) {
    return reader.Malformed(
        StrFormat("probe trail has %zu hops for a route of %zu edges",
                  hop_count, probe->route.size()));
  }
  probe->width = 0;
  probe->trail.clear();
  for (size_t h = 0; h < hop_count; ++h) {
    const size_t attr_count = reader.Count(4);
    if (!reader.ok()) return;
    if (h == 0) {
      if (attr_count == 0) {
        return reader.Malformed("probe trail hop carries no images");
      }
      // Every hop repeats this width, so the whole trail must fit in the
      // input before anything is reserved for it.
      if (attr_count > reader.remaining() / (4 * hop_count)) {
        return reader.Malformed(StrFormat(
            "probe trail of %zu hops x %zu images exceeds the %zu remaining "
            "input bytes",
            hop_count, attr_count, reader.remaining()));
      }
      probe->width = static_cast<uint32_t>(attr_count);
      probe->trail.reserve(hop_count * attr_count);
    } else if (attr_count != probe->width) {
      return reader.Malformed(
          StrFormat("probe trail hop %zu has %zu images, hop 0 has %u", h,
                    attr_count, probe->width));
    }
    for (size_t a = 0; a < attr_count; ++a) {
      uint32_t raw = 0;
      reader.Fixed32(raw);
      probe->trail.push_back(raw == kNullAttributeWire
                                 ? std::nullopt
                                 : std::optional<AttributeId>(raw));
    }
  }
}

void DecodeFeedback(ByteReader& reader, FeedbackAnnouncement* message) {
  Closure& closure = message->closure;
  reader.Ranged(closure.kind, Closure::Kind::kParallelPaths, "closure kind");
  uint64_t split = 0;
  reader.Varint(split);
  reader.Fixed32(closure.source);
  reader.Fixed32(closure.sink);
  reader.List(closure.edges, 4, [&](EdgeId& edge) { reader.Fixed32(edge); });
  if (split > closure.edges.size()) {
    return reader.Malformed(
        StrFormat("closure split %llu beyond its %zu edges",
                  static_cast<unsigned long long>(split),
                  closure.edges.size()));
  }
  closure.split = static_cast<size_t>(split);
  reader.Double(message->delta);
  // Min per entry: fixed32 root + sign byte + member-count varint.
  reader.List(message->feedback, 6, [&](AttributeFeedback& entry) {
    reader.Fixed32(entry.root_attribute);
    reader.Ranged(entry.sign, FeedbackSign::kNeutral, "feedback sign");
    reader.List(entry.members, 8, [&](MappingVarKey& member) {
      reader.Fixed32(member.edge);
      reader.Fixed32(member.attribute);
    });
  });
}

void DecodeBelief(ByteReader& reader, BeliefMessage* message) {
  reader.Varint(message->epoch);
  reader.Varint(message->ack);
  reader.Varint(message->value_bits);
  if (message->value_bits != 0 &&
      (message->value_bits < 2 ||
       message->value_bits > kMaxValuePrecisionBits)) {
    return reader.Malformed(
        StrFormat("belief value format %u outside [2, %u] (0 = raw doubles)",
                  message->value_bits, kMaxValuePrecisionBits));
  }
  const bool quantized = message->value_bits != 0;
  const int64_t quant_bound =
      quantized ? QuantBound(message->value_bits) : 0;
  // Min per group: alias token varint + entry-count varint.
  message->groups.resize(reader.Count(2));
  message->entries.clear();
  int64_t previous_alias = 0;
  for (BeliefGroup& group : message->groups) {
    uint64_t token = 0;
    reader.Varint(token);
    const bool has_id = (token & 1) != 0;
    const int64_t alias = previous_alias + UnZigZag(token >> 1);
    if (alias < 0 || alias >= static_cast<int64_t>(kMaxAliasesPerSession)) {
      return reader.Fail(Status::OutOfRange(
          StrFormat("belief alias %lld outside the per-session bound",
                    static_cast<long long>(alias))));
    }
    group.alias = static_cast<uint32_t>(alias);
    previous_alias = alias;
    group.id = FactorId{};
    if (has_id) {
      reader.Fixed64(group.id.hi);
      reader.Fixed64(group.id.lo);
      if (group.id.IsNil()) {
        return reader.Malformed(
            "belief group declares a nil fingerprint binding");
      }
    }
    // Min per entry: position-delta varint + two 8-byte doubles, or one
    // quantum varint under the quantized format.
    const size_t entry_count = reader.Count(quantized ? 2 : 17);
    group.entry_begin = static_cast<uint32_t>(message->entries.size());
    group.entry_count = static_cast<uint32_t>(entry_count);
    int64_t previous_position = 0;
    for (size_t i = 0; i < entry_count; ++i) {
      uint64_t delta = 0;
      reader.Varint(delta);
      const int64_t position = previous_position + UnZigZag(delta);
      if (position < 0 ||
          position > std::numeric_limits<uint32_t>::max()) {
        return reader.Fail(Status::OutOfRange(
            StrFormat("belief entry position %lld outside 32 bits",
                      static_cast<long long>(position))));
      }
      previous_position = position;
      BeliefEntry entry;
      entry.position = static_cast<uint32_t>(position);
      if (quantized) {
        uint64_t quant_token = 0;
        reader.Varint(quant_token);
        const int64_t quant = QuantFromWireToken(quant_token);
        if (quant != kQuantPosInf && quant != kQuantNegInf &&
            (quant > quant_bound || quant < -quant_bound)) {
          return reader.Fail(Status::OutOfRange(StrFormat(
              "belief quantum %lld outside the %u-bit precision bound",
              static_cast<long long>(quant), message->value_bits)));
        }
        entry.quant = quant;
        entry.belief = DequantizeLogOdds(quant, message->value_bits);
      } else {
        reader.Double(entry.belief.correct);
        reader.Double(entry.belief.incorrect);
      }
      message->entries.push_back(entry);
    }
  }
}

void DecodeQuery(ByteReader& reader, QueryMessage* message) {
  reader.Fixed64(message->query_id);
  reader.Fixed32(message->origin);
  reader.Fixed32(message->ttl);
  std::string name;
  reader.String(name);
  message->query = Query(std::move(name));
  // Min per op: kind byte + fixed32 attribute + literal-length varint.
  const size_t op_count = reader.Count(6);
  for (size_t i = 0; i < op_count; ++i) {
    OpKind kind = OpKind::kProjection;
    reader.Ranged(kind, OpKind::kSelection, "query operation kind");
    uint32_t attribute = 0;
    reader.Fixed32(attribute);
    std::string literal;
    reader.String(literal);
    if (!reader.ok()) return;
    if (kind == OpKind::kSelection) {
      message->query.AddSelection(attribute, std::move(literal));
    } else {
      if (!literal.empty()) {
        return reader.Malformed(
            "query projection carries a selection literal");
      }
      message->query.AddProjection(attribute);
    }
  }
  reader.List(message->visited, 4, [&](PeerId& peer) { reader.Fixed32(peer); });
  // 16 fingerprint bytes + uint16 position + two doubles per update.
  reader.List(message->piggyback, 34, [&](BeliefUpdate& update) {
    reader.Fixed64(update.factor.hi);
    reader.Fixed64(update.factor.lo);
    uint16_t position = 0;
    reader.Fixed16(position);
    update.position = position;
    reader.Double(update.belief.correct);
    reader.Double(update.belief.incorrect);
  });
}

}  // namespace

uint64_t QuantWireToken(int64_t quant) {
  if (quant == kQuantPosInf) return 0;
  if (quant == kQuantNegInf) return 1;
  return ZigZag(quant) + 2;
}

int64_t QuantFromWireToken(uint64_t token) {
  if (token == 0) return kQuantPosInf;
  if (token == 1) return kQuantNegInf;
  return UnZigZag(token - 2);
}

WireBreakdown PayloadWireBreakdown(const Payload& payload) {
  CountingSink sink;
  EncodePayloadTo(payload, sink);
  return sink.counts;
}

void EncodePayload(const Payload& payload, std::vector<uint8_t>* out) {
  AppendSink sink{out};
  EncodePayloadTo(payload, sink);
}

Result<Payload> DecodePayload(MessageKind kind,
                              std::span<const uint8_t> bytes) {
  ByteReader reader(bytes);
  Payload payload;
  switch (kind) {
    case MessageKind::kProbe:
      DecodeProbe(reader, &payload.emplace<ProbeMessage>());
      break;
    case MessageKind::kFeedback:
      DecodeFeedback(reader, &payload.emplace<FeedbackAnnouncement>());
      break;
    case MessageKind::kBelief:
      DecodeBelief(reader, &payload.emplace<BeliefMessage>());
      break;
    case MessageKind::kQuery:
      DecodeQuery(reader, &payload.emplace<QueryMessage>());
      break;
    default:
      return Status::InvalidArgument(
          StrFormat("unknown message kind %u", static_cast<unsigned>(kind)));
  }
  PDMS_RETURN_IF_ERROR(reader.Finish("payload"));
  return payload;
}

// --- Frame codec ---------------------------------------------------------------

namespace {

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xedb88320:
/// `entries[0]` is the classic byte table, and `entries[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so one step folds eight input
/// bytes with eight independent lookups.
struct Crc32Table {
  uint32_t entries[8][256];
  constexpr Crc32Table() : entries{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xff];
      }
    }
  }
};

constexpr Crc32Table kCrc32Table;

// One field list per frame body, run by `EncodeFrame` and
// `DecodeFrameBody` alike. A data frame's list is its routing header; the
// payload behind it goes through the payload codec.

template <typename IO>
void Fields(IO& io, RecordOf<DataFrame> auto& f) {
  io.Varint(f.from);
  io.Varint(f.to);
  io.Optional(f.via);
  io.Varint(f.deliver_at);
  io.Varint(f.seq);
}

template <typename IO>
void Fields(IO& io, RecordOf<HelloFrame> auto& f) {
  io.Varint(f.shard);
  io.Varint(f.shard_count);
  io.Varint(f.peer_count);
  io.Fixed64(f.session_id);
  io.Varint(f.next_seq);
}

template <typename IO>
void Fields(IO& io, RecordOf<MarkFrame> auto& f) {
  io.Varint(f.shard);
  io.Varint(f.phase);
  io.Varint(f.index);
  io.Varint(f.frames_sent);
  io.Varint(f.updates_sent);
  io.Double(f.max_change);
  io.Bool(f.pending);
}

template <typename IO>
void Fields(IO& io, RecordOf<QueryRequestFrame> auto& f) {
  io.Varint(f.request_id);
  io.Varint(f.origin);
  io.Varint(f.ttl);
  io.String(f.text);
}

template <typename IO>
void Fields(IO& io, RecordOf<QueryResponseFrame> auto& f) {
  io.Varint(f.request_id);
  io.Bool(f.ok);
  io.String(f.error);
  io.Varint(f.reached);
  io.List(f.rows, 1, [&](auto& row) { io.String(row); });
}

template <typename IO>
void Fields(IO& io, RecordOf<LinkAckFrame> auto& f) {
  io.Varint(f.shard);
  io.Fixed64(f.session_id);
  io.Varint(f.next_expected);
}

template <typename IO>
void Fields(IO& io, RecordOf<RejoinFrame> auto& f) {
  io.Varint(f.shard);
  io.Fixed64(f.state_epoch);
  io.Varint(f.round);
  io.String(f.address);
}

template <typename IO>
void Fields(IO& io, RecordOf<RejoinAckFrame> auto& f) {
  io.Varint(f.shard);
  io.Varint(f.round);
  io.Bool(f.accepted);
  io.String(f.reason);
}

/// Default-constructs the `Frame` alternative of wire type `type` (the
/// variant's alternatives are in `FrameType` order); false if unknown.
template <size_t I = 0>
bool EmplaceFrame(uint8_t type, Frame* frame) {
  if constexpr (I < std::variant_size_v<Frame>) {
    if (type == I) {
      frame->emplace<I>();
      return true;
    }
    return EmplaceFrame<I + 1>(type, frame);
  } else {
    return false;
  }
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  const auto& t = kCrc32Table.entries;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                        uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return crc ^ 0xffffffffu;
}

FrameType FrameTypeOf(const Frame& frame) {
  return static_cast<FrameType>(frame.index());
}

void EncodeFrame(const Frame& frame, uint64_t link_seq,
                 std::vector<uint8_t>* out) {
  AppendSink sink{out};
  const size_t header_at = out->size();
  PutFixed32(sink, 0);  // length and checksum, backpatched below
  PutFixed32(sink, 0);
  const size_t covered_at = out->size();
  PutVarint(sink, link_seq);
  sink.Byte(kWireFormatVersion);
  sink.Byte(static_cast<uint8_t>(FrameTypeOf(frame)));
  std::visit(
      [&](const auto& f) {
        FieldWriter io(out);
        Fields(io, f);
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>, DataFrame>) {
          sink.Byte(static_cast<uint8_t>(KindOf(f.payload)));
          EncodePayloadTo(f.payload, sink);
        }
      },
      frame);
  const size_t length = out->size() - covered_at;
  assert(length <= kMaxFrameBytes && "frame exceeds kMaxFrameBytes");
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out->data() + covered_at, length));
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + i] = static_cast<uint8_t>(length >> (8 * i));
    (*out)[header_at + 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  EncodeFrame(frame, 0, out);
}

Result<Frame> DecodeFrameBody(std::span<const uint8_t> body) {
  ByteReader reader(body);
  uint8_t version = 0;
  reader.U8(version);
  PDMS_RETURN_IF_ERROR(reader.status());
  if (version != kWireFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("wire format version %u, expected %u", version,
                  kWireFormatVersion));
  }
  uint8_t type = 0;
  reader.U8(type);
  PDMS_RETURN_IF_ERROR(reader.status());
  Frame frame;
  if (!EmplaceFrame(type, &frame)) {
    return Status::InvalidArgument(StrFormat("unknown frame type %u", type));
  }
  std::visit(
      [&reader](auto& f) {
        Fields(reader, f);
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>, DataFrame>) {
          MessageKind kind = MessageKind::kProbe;
          reader.Ranged(kind, MessageKind::kQuery, "payload kind");
          if (!reader.ok()) return;
          Result<Payload> payload = DecodePayload(kind, reader.Rest());
          if (!payload.ok()) return reader.Fail(payload.status());
          f.payload = std::move(payload).value();
        }
      },
      frame);
  PDMS_RETURN_IF_ERROR(reader.Finish("frame"));
  return frame;
}

// --- FrameAssembler ------------------------------------------------------------

void FrameAssembler::Feed(std::span<const uint8_t> data) {
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + offset_);
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Result<std::optional<Frame>> FrameAssembler::Next() {
  const size_t available = buffer_.size() - offset_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();
  ByteReader header(
      std::span<const uint8_t>(buffer_).subspan(offset_, kFrameHeaderBytes));
  uint32_t length = 0;
  uint32_t expected_crc = 0;
  header.Fixed32(length);
  header.Fixed32(expected_crc);
  if (length < 3) {
    return Status::InvalidArgument(
        StrFormat("frame length %u below the seq+version+type header",
                  length));
  }
  if (length > kMaxFrameBytes) {
    return Status::OutOfRange(
        StrFormat("frame length %u exceeds the %zu-byte bound", length,
                  kMaxFrameBytes));
  }
  if (available < kFrameHeaderBytes + length) return std::optional<Frame>();
  const std::span<const uint8_t> covered(
      buffer_.data() + offset_ + kFrameHeaderBytes, length);
  const uint32_t actual_crc = Crc32(covered);
  if (actual_crc != expected_crc) {
    return Status::DataLoss(
        StrFormat("frame checksum mismatch (%08x != %08x) — corrupt stream",
                  actual_crc, expected_crc));
  }
  ByteReader seq_reader(covered);
  uint64_t link_seq = 0;
  seq_reader.Varint(link_seq);
  PDMS_RETURN_IF_ERROR(seq_reader.status());
  PDMS_ASSIGN_OR_RETURN(Frame frame, DecodeFrameBody(seq_reader.Rest()));
  last_seq_ = link_seq;
  offset_ += kFrameHeaderBytes + length;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace pdms
