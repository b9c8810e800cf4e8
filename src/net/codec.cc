#include "net/codec.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/string_util.h"

namespace pdms {
namespace {

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

// --- Encoder sinks -------------------------------------------------------------
//
// One templated encoding pass serves both the size computation (CountingSink)
// and the actual serialization (AppendSink); the two can therefore never
// drift apart. `ValueBytes` books bytes the pass already wrote as µ values
// (see `PutValue`); only the counting sink keeps that split.

struct CountingSink {
  WireBreakdown counts;
  size_t size() const { return counts.bytes; }
  void Byte(uint8_t) { ++counts.bytes; }
  void Bytes(const void*, size_t n) { counts.bytes += n; }
  void ValueBytes(size_t n) { counts.value_bytes += n; }
};

struct AppendSink {
  std::vector<uint8_t>* out;
  size_t size() const { return out->size(); }
  void Byte(uint8_t b) { out->push_back(b); }
  void Bytes(const void* data, size_t n) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out->insert(out->end(), bytes, bytes + n);
  }
  void ValueBytes(size_t) {}
};

template <typename Sink>
void PutVarint(Sink& sink, uint64_t value) {
  while (value >= 0x80) {
    sink.Byte(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  sink.Byte(static_cast<uint8_t>(value));
}

template <typename Sink>
void PutFixed32(Sink& sink, uint32_t value) {
  const uint8_t bytes[4] = {
      static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
      static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
  sink.Bytes(bytes, 4);
}

template <typename Sink>
void PutFixed64(Sink& sink, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  sink.Bytes(bytes, 8);
}

template <typename Sink>
void PutFixed16(Sink& sink, uint16_t value) {
  const uint8_t bytes[2] = {static_cast<uint8_t>(value),
                            static_cast<uint8_t>(value >> 8)};
  sink.Bytes(bytes, 2);
}

template <typename Sink>
void PutDouble(Sink& sink, double value) {
  PutFixed64(sink, std::bit_cast<uint64_t>(value));
}

template <typename Sink>
void PutString(Sink& sink, const std::string& value) {
  PutVarint(sink, value.size());
  sink.Bytes(value.data(), value.size());
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

// --- Strict reader -------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

  Status ReadByte(uint8_t* out) {
    if (remaining() < 1) return Truncated("byte");
    *out = data_[pos_++];
    return Status::Ok();
  }

  /// Minimal-form LEB128 only: overlong encodings (a redundant trailing
  /// zero group, or more than 10 bytes / bits beyond 64) are rejected so
  /// every decoded value re-encodes to the identical bytes.
  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (size_t i = 0; i < 10; ++i) {
      if (remaining() < 1) return Truncated("varint");
      const uint8_t byte = data_[pos_++];
      if (i == 9 && byte > 0x01) {
        return Status::InvalidArgument("varint overflows 64 bits");
      }
      value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) {
          return Status::InvalidArgument("non-minimal varint encoding");
        }
        *out = value;
        return Status::Ok();
      }
    }
    return Status::InvalidArgument("varint longer than 10 bytes");
  }

  Status ReadVarint32(uint32_t* out, const char* what) {
    uint64_t value = 0;
    PDMS_RETURN_IF_ERROR(ReadVarint(&value));
    if (value > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          StrFormat("%s %llu exceeds 32 bits", what,
                    static_cast<unsigned long long>(value)));
    }
    *out = static_cast<uint32_t>(value);
    return Status::Ok();
  }

  /// A container count: additionally bounded by the bytes that could back
  /// `min_element_bytes`-sized elements, so forged counts can never drive
  /// an allocation larger than the input itself.
  Status ReadCount(size_t min_element_bytes, size_t* out, const char* what) {
    uint64_t value = 0;
    PDMS_RETURN_IF_ERROR(ReadVarint(&value));
    const size_t bound =
        min_element_bytes == 0 ? remaining() : remaining() / min_element_bytes;
    if (value > bound) {
      return Status::InvalidArgument(
          StrFormat("%s count %llu exceeds the %zu remaining input bytes",
                    what, static_cast<unsigned long long>(value), remaining()));
    }
    *out = static_cast<size_t>(value);
    return Status::Ok();
  }

  Status ReadFixed32(uint32_t* out) {
    if (remaining() < 4) return Truncated("fixed32");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *out = value;
    return Status::Ok();
  }

  Status ReadFixed64(uint64_t* out) {
    if (remaining() < 8) return Truncated("fixed64");
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *out = value;
    return Status::Ok();
  }

  Status ReadFixed16(uint16_t* out) {
    if (remaining() < 2) return Truncated("fixed16");
    *out = static_cast<uint16_t>(data_[pos_] |
                                 (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return Status::Ok();
  }

  Status ReadDouble(double* out) {
    uint64_t bits = 0;
    PDMS_RETURN_IF_ERROR(ReadFixed64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::Ok();
  }

  Status ReadString(std::string* out, const char* what) {
    size_t length = 0;
    PDMS_RETURN_IF_ERROR(ReadCount(1, &length, what));
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), length);
    pos_ += length;
    return Status::Ok();
  }

  Status ExpectDone(const char* what) {
    if (!Done()) {
      return Status::InvalidArgument(
          StrFormat("%zu trailing bytes after %s", remaining(), what));
    }
    return Status::Ok();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(
        StrFormat("truncated input while reading %s", what));
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// --- Payload decoding ----------------------------------------------------------

Status DecodeProbe(Reader& reader, ProbeMessage* probe) {
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&probe->origin));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&probe->ttl));
  size_t route_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &route_count, "probe route"));
  probe->route.resize(route_count);
  for (EdgeId& edge : probe->route) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&edge));
  }
  size_t hop_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(1, &hop_count, "probe trail"));
  // Structure the handlers index by: one hop per route edge, every hop
  // the same non-zero width (the origin's schema size).
  if (hop_count != route_count) {
    return Status::InvalidArgument(
        StrFormat("probe trail has %zu hops for a route of %zu edges",
                  hop_count, route_count));
  }
  probe->width = 0;
  probe->trail.clear();
  for (size_t h = 0; h < hop_count; ++h) {
    size_t attr_count = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &attr_count, "probe trail hop"));
    if (h == 0) {
      if (attr_count == 0) {
        return Status::InvalidArgument("probe trail hop carries no images");
      }
      // Every hop repeats this width, so the whole trail must fit in the
      // input before anything is reserved for it.
      if (attr_count > reader.remaining() / (4 * hop_count)) {
        return Status::InvalidArgument(StrFormat(
            "probe trail of %zu hops x %zu images exceeds the %zu remaining "
            "input bytes",
            hop_count, attr_count, reader.remaining()));
      }
      probe->width = static_cast<uint32_t>(attr_count);
      probe->trail.reserve(hop_count * attr_count);
    } else if (attr_count != probe->width) {
      return Status::InvalidArgument(
          StrFormat("probe trail hop %zu has %zu images, hop 0 has %u", h,
                    attr_count, probe->width));
    }
    for (size_t a = 0; a < attr_count; ++a) {
      uint32_t raw = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&raw));
      probe->trail.push_back(raw == kNullAttributeWire
                                 ? std::nullopt
                                 : std::optional<AttributeId>(raw));
    }
  }
  return Status::Ok();
}

Status DecodeFeedback(Reader& reader, FeedbackAnnouncement* message) {
  uint8_t kind = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
  if (kind > static_cast<uint8_t>(Closure::Kind::kParallelPaths)) {
    return Status::InvalidArgument(
        StrFormat("unknown closure kind %u", kind));
  }
  message->closure.kind = static_cast<Closure::Kind>(kind);
  uint64_t split = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadVarint(&split));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->closure.source));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->closure.sink));
  size_t edge_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &edge_count, "closure edge"));
  if (split > edge_count) {
    return Status::InvalidArgument(
        StrFormat("closure split %llu beyond its %zu edges",
                  static_cast<unsigned long long>(split), edge_count));
  }
  message->closure.split = static_cast<size_t>(split);
  message->closure.edges.resize(edge_count);
  for (EdgeId& edge : message->closure.edges) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&edge));
  }
  PDMS_RETURN_IF_ERROR(reader.ReadDouble(&message->delta));
  size_t feedback_count = 0;
  // Min per entry: fixed32 root + sign byte + member-count varint.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(6, &feedback_count, "feedback"));
  message->feedback.resize(feedback_count);
  for (AttributeFeedback& entry : message->feedback) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&entry.root_attribute));
    uint8_t sign = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadByte(&sign));
    if (sign > static_cast<uint8_t>(FeedbackSign::kNeutral)) {
      return Status::InvalidArgument(
          StrFormat("unknown feedback sign %u", sign));
    }
    entry.sign = static_cast<FeedbackSign>(sign);
    size_t member_count = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadCount(8, &member_count, "feedback member"));
    entry.members.resize(member_count);
    for (MappingVarKey& member : entry.members) {
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&member.edge));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&member.attribute));
    }
  }
  return Status::Ok();
}

Status DecodeBelief(Reader& reader, BeliefMessage* message) {
  PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&message->epoch, "belief epoch"));
  PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&message->ack, "belief ack"));
  PDMS_RETURN_IF_ERROR(
      reader.ReadVarint32(&message->value_bits, "belief value format"));
  if (message->value_bits != 0 &&
      (message->value_bits < 2 ||
       message->value_bits > kMaxValuePrecisionBits)) {
    return Status::InvalidArgument(
        StrFormat("belief value format %u outside [2, %u] (0 = raw doubles)",
                  message->value_bits, kMaxValuePrecisionBits));
  }
  const bool quantized = message->value_bits != 0;
  const int64_t quant_bound =
      quantized ? QuantBound(message->value_bits) : 0;
  size_t group_count = 0;
  // Min per group: alias token varint + entry-count varint.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(2, &group_count, "belief group"));
  message->groups.resize(group_count);
  message->entries.clear();
  int64_t previous_alias = 0;
  for (BeliefGroup& group : message->groups) {
    uint64_t token = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadVarint(&token));
    const bool has_id = (token & 1) != 0;
    const int64_t alias = previous_alias + UnZigZag(token >> 1);
    if (alias < 0 || alias >= static_cast<int64_t>(kMaxAliasesPerSession)) {
      return Status::OutOfRange(
          StrFormat("belief alias %lld outside the per-session bound",
                    static_cast<long long>(alias)));
    }
    group.alias = static_cast<uint32_t>(alias);
    previous_alias = alias;
    if (has_id) {
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&group.id.hi));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&group.id.lo));
      if (group.id.IsNil()) {
        return Status::InvalidArgument(
            "belief group declares a nil fingerprint binding");
      }
    } else {
      group.id = FactorId{};
    }
    size_t entry_count = 0;
    // Min per entry: position-delta varint + two 8-byte doubles, or one
    // quantum varint under the quantized format.
    PDMS_RETURN_IF_ERROR(
        reader.ReadCount(quantized ? 2 : 17, &entry_count, "belief entry"));
    group.entry_begin = static_cast<uint32_t>(message->entries.size());
    group.entry_count = static_cast<uint32_t>(entry_count);
    int64_t previous_position = 0;
    for (size_t i = 0; i < entry_count; ++i) {
      uint64_t delta = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&delta));
      const int64_t position = previous_position + UnZigZag(delta);
      if (position < 0 ||
          position > std::numeric_limits<uint32_t>::max()) {
        return Status::OutOfRange(
            StrFormat("belief entry position %lld outside 32 bits",
                      static_cast<long long>(position)));
      }
      previous_position = position;
      BeliefEntry entry;
      entry.position = static_cast<uint32_t>(position);
      if (quantized) {
        uint64_t token = 0;
        PDMS_RETURN_IF_ERROR(reader.ReadVarint(&token));
        const int64_t quant = QuantFromWireToken(token);
        if (quant != kQuantPosInf && quant != kQuantNegInf &&
            (quant > quant_bound || quant < -quant_bound)) {
          return Status::OutOfRange(StrFormat(
              "belief quantum %lld outside the %u-bit precision bound",
              static_cast<long long>(quant), message->value_bits));
        }
        entry.quant = quant;
        entry.belief = DequantizeLogOdds(quant, message->value_bits);
      } else {
        PDMS_RETURN_IF_ERROR(reader.ReadDouble(&entry.belief.correct));
        PDMS_RETURN_IF_ERROR(reader.ReadDouble(&entry.belief.incorrect));
      }
      message->entries.push_back(entry);
    }
  }
  return Status::Ok();
}

Status DecodeQuery(Reader& reader, QueryMessage* message) {
  PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&message->query_id));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->origin));
  PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&message->ttl));
  std::string name;
  PDMS_RETURN_IF_ERROR(reader.ReadString(&name, "query name"));
  message->query = Query(std::move(name));
  size_t op_count = 0;
  // Min per op: kind byte + fixed32 attribute + literal-length varint.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(6, &op_count, "query operation"));
  for (size_t i = 0; i < op_count; ++i) {
    uint8_t kind = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
    if (kind > static_cast<uint8_t>(OpKind::kSelection)) {
      return Status::InvalidArgument(
          StrFormat("unknown query operation kind %u", kind));
    }
    uint32_t attribute = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&attribute));
    std::string literal;
    PDMS_RETURN_IF_ERROR(reader.ReadString(&literal, "query literal"));
    if (static_cast<OpKind>(kind) == OpKind::kSelection) {
      message->query.AddSelection(attribute, std::move(literal));
    } else {
      if (!literal.empty()) {
        return Status::InvalidArgument(
            "query projection carries a selection literal");
      }
      message->query.AddProjection(attribute);
    }
  }
  size_t visited_count = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadCount(4, &visited_count, "query visited"));
  message->visited.resize(visited_count);
  for (PeerId& peer : message->visited) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed32(&peer));
  }
  size_t piggyback_count = 0;
  // 16 fingerprint bytes + uint16 position + two doubles per update.
  PDMS_RETURN_IF_ERROR(reader.ReadCount(34, &piggyback_count, "piggyback"));
  message->piggyback.resize(piggyback_count);
  for (BeliefUpdate& update : message->piggyback) {
    PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&update.factor.hi));
    PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&update.factor.lo));
    uint16_t position = 0;
    PDMS_RETURN_IF_ERROR(reader.ReadFixed16(&position));
    update.position = position;
    PDMS_RETURN_IF_ERROR(reader.ReadDouble(&update.belief.correct));
    PDMS_RETURN_IF_ERROR(reader.ReadDouble(&update.belief.incorrect));
  }
  return Status::Ok();
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
  Reader reader(bytes);
  Payload payload;
  switch (kind) {
    case MessageKind::kProbe: {
      ProbeMessage probe;
      PDMS_RETURN_IF_ERROR(DecodeProbe(reader, &probe));
      payload = std::move(probe);
      break;
    }
    case MessageKind::kFeedback: {
      FeedbackAnnouncement feedback;
      PDMS_RETURN_IF_ERROR(DecodeFeedback(reader, &feedback));
      payload = std::move(feedback);
      break;
    }
    case MessageKind::kBelief: {
      BeliefMessage belief;
      PDMS_RETURN_IF_ERROR(DecodeBelief(reader, &belief));
      payload = std::move(belief);
      break;
    }
    case MessageKind::kQuery: {
      QueryMessage query;
      PDMS_RETURN_IF_ERROR(DecodeQuery(reader, &query));
      payload = std::move(query);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown message kind %u", static_cast<unsigned>(kind)));
  }
  PDMS_RETURN_IF_ERROR(reader.ExpectDone("payload"));
  return payload;
}

// --- Frame codec ---------------------------------------------------------------

namespace {

struct Crc32Table {
  uint32_t entries[256];
  constexpr Crc32Table() : entries{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
      }
      entries[i] = crc;
    }
  }
};

constexpr Crc32Table kCrc32Table;

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrc32Table.entries[(crc ^ byte) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

FrameType FrameTypeOf(const Frame& frame) {
  return static_cast<FrameType>(frame.index());
}

namespace {

template <typename Sink>
void EncodeFrameBodyTo(const Frame& frame, Sink& sink) {
  sink.Byte(kWireFormatVersion);
  sink.Byte(static_cast<uint8_t>(FrameTypeOf(frame)));
  std::visit(
      [&sink](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          PutVarint(sink, f.from);
          PutVarint(sink, f.to);
          sink.Byte(f.via ? 1 : 0);
          if (f.via) PutVarint(sink, *f.via);
          PutVarint(sink, f.deliver_at);
          PutVarint(sink, f.seq);
          sink.Byte(static_cast<uint8_t>(KindOf(f.payload)));
          EncodePayloadTo(f.payload, sink);
        } else if constexpr (std::is_same_v<T, HelloFrame>) {
          PutVarint(sink, f.shard);
          PutVarint(sink, f.shard_count);
          PutVarint(sink, f.peer_count);
          PutFixed64(sink, f.session_id);
          PutVarint(sink, f.next_seq);
        } else if constexpr (std::is_same_v<T, MarkFrame>) {
          PutVarint(sink, f.shard);
          PutVarint(sink, f.phase);
          PutVarint(sink, f.index);
          PutVarint(sink, f.frames_sent);
          PutVarint(sink, f.updates_sent);
          PutDouble(sink, f.max_change);
          sink.Byte(f.pending ? 1 : 0);
        } else if constexpr (std::is_same_v<T, QueryRequestFrame>) {
          PutVarint(sink, f.request_id);
          PutVarint(sink, f.origin);
          PutVarint(sink, f.ttl);
          PutString(sink, f.text);
        } else if constexpr (std::is_same_v<T, QueryResponseFrame>) {
          PutVarint(sink, f.request_id);
          sink.Byte(f.ok ? 1 : 0);
          PutString(sink, f.error);
          PutVarint(sink, f.reached);
          PutVarint(sink, f.rows.size());
          for (const std::string& row : f.rows) PutString(sink, row);
        } else if constexpr (std::is_same_v<T, LinkAckFrame>) {
          PutVarint(sink, f.shard);
          PutFixed64(sink, f.session_id);
          PutVarint(sink, f.next_expected);
        } else if constexpr (std::is_same_v<T, RejoinFrame>) {
          PutVarint(sink, f.shard);
          PutFixed64(sink, f.state_epoch);
          PutVarint(sink, f.round);
          PutString(sink, f.address);
        } else {
          static_assert(std::is_same_v<T, RejoinAckFrame>);
          PutVarint(sink, f.shard);
          PutVarint(sink, f.round);
          sink.Byte(f.accepted ? 1 : 0);
          PutString(sink, f.reason);
        }
      },
      frame);
}

Status ReadBool(Reader& reader, bool* out, const char* what) {
  uint8_t byte = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&byte));
  if (byte > 1) {
    return Status::InvalidArgument(
        StrFormat("%s flag byte %u is not 0/1", what, byte));
  }
  *out = byte != 0;
  return Status::Ok();
}

}  // namespace

void EncodeFrame(const Frame& frame, uint64_t link_seq,
                 std::vector<uint8_t>* out) {
  CountingSink counter;
  PutVarint(counter, link_seq);
  EncodeFrameBodyTo(frame, counter);
  assert(counter.size() <= kMaxFrameBytes && "frame exceeds kMaxFrameBytes");
  AppendSink sink{out};
  PutFixed32(sink, static_cast<uint32_t>(counter.size()));
  const size_t crc_at = out->size();
  PutFixed32(sink, 0);  // checksum backpatched below
  const size_t covered_at = out->size();
  PutVarint(sink, link_seq);
  EncodeFrameBodyTo(frame, sink);
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out->data() + covered_at,
                               out->size() - covered_at));
  for (int i = 0; i < 4; ++i) {
    (*out)[crc_at + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  EncodeFrame(frame, 0, out);
}

Result<Frame> DecodeFrameBody(std::span<const uint8_t> body) {
  Reader reader(body);
  uint8_t version = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&version));
  if (version != kWireFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("wire format version %u, expected %u", version,
                  kWireFormatVersion));
  }
  uint8_t type = 0;
  PDMS_RETURN_IF_ERROR(reader.ReadByte(&type));
  Frame frame;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kData: {
      DataFrame data;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&data.from, "frame sender"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&data.to, "frame recipient"));
      bool has_via = false;
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &has_via, "via"));
      if (has_via) {
        uint32_t via = 0;
        PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&via, "frame via edge"));
        data.via = via;
      }
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&data.deliver_at));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&data.seq));
      uint8_t kind = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadByte(&kind));
      if (kind >= kMessageKindCount) {
        return Status::InvalidArgument(
            StrFormat("unknown payload kind %u", kind));
      }
      const size_t payload_bytes = reader.remaining();
      PDMS_ASSIGN_OR_RETURN(
          data.payload,
          DecodePayload(static_cast<MessageKind>(kind),
                        body.subspan(body.size() - payload_bytes)));
      frame = std::move(data);
      return frame;  // DecodePayload consumed the rest; skip ExpectDone.
    }
    case FrameType::kHello: {
      HelloFrame hello;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&hello.shard, "hello shard"));
      PDMS_RETURN_IF_ERROR(
          reader.ReadVarint32(&hello.shard_count, "hello shard count"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&hello.peer_count));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&hello.session_id));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&hello.next_seq));
      frame = hello;
      break;
    }
    case FrameType::kMark: {
      MarkFrame mark;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&mark.shard, "mark shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&mark.phase, "mark phase"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.index));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.frames_sent));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&mark.updates_sent));
      PDMS_RETURN_IF_ERROR(reader.ReadDouble(&mark.max_change));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &mark.pending, "mark pending"));
      frame = mark;
      break;
    }
    case FrameType::kQueryRequest: {
      QueryRequestFrame request;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&request.request_id));
      PDMS_RETURN_IF_ERROR(
          reader.ReadVarint32(&request.origin, "request origin"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&request.ttl, "request ttl"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&request.text, "request text"));
      frame = std::move(request);
      break;
    }
    case FrameType::kQueryResponse: {
      QueryResponseFrame response;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&response.request_id));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &response.ok, "response ok"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&response.error, "response error"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&response.reached));
      size_t row_count = 0;
      PDMS_RETURN_IF_ERROR(reader.ReadCount(1, &row_count, "response row"));
      response.rows.resize(row_count);
      for (std::string& row : response.rows) {
        PDMS_RETURN_IF_ERROR(reader.ReadString(&row, "response row text"));
      }
      frame = std::move(response);
      break;
    }
    case FrameType::kLinkAck: {
      LinkAckFrame ack;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&ack.shard, "ack shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&ack.session_id));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&ack.next_expected));
      frame = ack;
      break;
    }
    case FrameType::kRejoin: {
      RejoinFrame rejoin;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&rejoin.shard, "rejoin shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadFixed64(&rejoin.state_epoch));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&rejoin.round));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&rejoin.address, "rejoin address"));
      frame = std::move(rejoin);
      break;
    }
    case FrameType::kRejoinAck: {
      RejoinAckFrame ack;
      PDMS_RETURN_IF_ERROR(reader.ReadVarint32(&ack.shard, "rejoin-ack shard"));
      PDMS_RETURN_IF_ERROR(reader.ReadVarint(&ack.round));
      PDMS_RETURN_IF_ERROR(ReadBool(reader, &ack.accepted, "rejoin-ack accepted"));
      PDMS_RETURN_IF_ERROR(reader.ReadString(&ack.reason, "rejoin-ack reason"));
      frame = std::move(ack);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown frame type %u", type));
  }
  PDMS_RETURN_IF_ERROR(reader.ExpectDone("frame"));
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
  uint32_t length = 0;
  uint32_t expected_crc = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(buffer_[offset_ + i]) << (8 * i);
    expected_crc |= static_cast<uint32_t>(buffer_[offset_ + 4 + i]) << (8 * i);
  }
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
  Reader seq_reader(covered);
  uint64_t link_seq = 0;
  PDMS_RETURN_IF_ERROR(seq_reader.ReadVarint(&link_seq));
  PDMS_ASSIGN_OR_RETURN(Frame frame,
                        DecodeFrameBody(covered.subspan(
                            covered.size() - seq_reader.remaining())));
  last_seq_ = link_seq;
  offset_ += kFrameHeaderBytes + length;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace pdms
