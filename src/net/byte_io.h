#ifndef PDMS_NET_BYTE_IO_H_
#define PDMS_NET_BYTE_IO_H_

// Internal: the byte primitives shared by the wire codec (net/codec.cc)
// and the snapshot format (store/snapshot.cc). Not part of the public API.
//
// Writing goes through a sink: `AppendSink` appends, `CountingSink` only
// counts (the payload encoder's size model), and the `Put*` helpers lay
// out varints and little-endian fixed-width values on either. Reading goes
// through one strict `ByteReader`.
//
// A record without payload-specific logic states its layout once, as a
// field list: a function template `Fields(IO& io, auto& record)` that
// calls `io.Fixed32(record.x)`, `io.List(record.v, ...)` and so on. A
// `FieldWriter` runs it to encode (fields taken by value), a `ByteReader`
// to decode (fields taken by reference), so the two directions cannot
// drift apart. `IO::kDecoding` gates the few decode-only checks.

#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "util/status.h"
#include "util/string_util.h"

namespace pdms::wire {

/// ⊥ for an optional 32-bit id written as a fixed32 (`Nullable32`).
inline constexpr uint32_t kNull32 = 0xffffffffu;

/// `T` is `Record` or `const Record`: field lists take the record by
/// reference in both directions and overload on the record type.
template <typename T, typename Record>
concept RecordOf = std::same_as<std::remove_const_t<T>, Record>;

/// `ValueBytes` books bytes a pass already wrote as µ values (see
/// `PutValue` in net/codec.cc); only the counting sink keeps that split.
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
void PutFixed16(Sink& sink, uint16_t value) {
  const uint8_t bytes[2] = {static_cast<uint8_t>(value),
                            static_cast<uint8_t>(value >> 8)};
  sink.Bytes(bytes, 2);
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
void PutDouble(Sink& sink, double value) {
  PutFixed64(sink, std::bit_cast<uint64_t>(value));
}

template <typename Sink>
void PutString(Sink& sink, const std::string& value) {
  PutVarint(sink, value.size());
  sink.Bytes(value.data(), value.size());
}

/// Encoding side of a field list: appends each field to `out`.
class FieldWriter {
 public:
  static constexpr bool kDecoding = false;

  explicit FieldWriter(std::vector<uint8_t>* out) : sink_{out} {}

  template <typename T>
  void U8(T v) { sink_.Byte(static_cast<uint8_t>(v)); }
  void Bool(bool v) { sink_.Byte(v ? 1 : 0); }
  void Varint(uint64_t v) { PutVarint(sink_, v); }
  void Fixed32(uint32_t v) { PutFixed32(sink_, v); }
  void Fixed64(uint64_t v) { PutFixed64(sink_, v); }
  void Double(double v) { PutDouble(sink_, v); }
  void String(const std::string& v) { PutString(sink_, v); }
  void Bytes(std::span<const uint8_t> v) { sink_.Bytes(v.data(), v.size()); }
  /// One byte; the reader rejects values above `max`.
  template <typename T>
  void Ranged(T v, std::type_identity_t<T> /*max*/, const char* /*what*/) {
    U8(v);
  }
  /// Presence flag byte, then the value as a varint.
  template <typename T>
  void Optional(const std::optional<T>& v) {
    Bool(v.has_value());
    if (v) Varint(*v);
  }
  /// A fixed32 with `kNull32` standing for ⊥.
  void Nullable32(std::optional<uint32_t> v) { Fixed32(v.value_or(kNull32)); }
  /// Element count as a varint, then `field(element)` for each element.
  template <typename T, typename Field>
  void List(const std::vector<T>& v, size_t /*min_element_bytes*/,
            Field&& field) {
    Varint(v.size());
    for (const auto& element : v) field(element);
  }

 private:
  AppendSink sink_;
};

/// Decoding side of a field list, and the strict reader of every encoded
/// byte run. Rejects truncated input, non-minimal or overlong varints,
/// varints beyond the field's width, counts larger than the bytes that
/// could back them, flag bytes other than 0/1 and out-of-range enum
/// bytes. The first error is kept (`status()`); every read after it yields
/// zeros, so a caller checks once per record instead of once per field.
class ByteReader {
 public:
  static constexpr bool kDecoding = true;

  /// `malformed` is the code of the errors the reader raises itself:
  /// InvalidArgument for wire traffic, DataLoss for checksummed files.
  explicit ByteReader(std::span<const uint8_t> data,
                      StatusCode malformed = StatusCode::kInvalidArgument)
      : data_(data), malformed_(malformed) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }

  /// Records `status` unless an error is already held; OK is ignored.
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  /// Fails with the reader's malformed-input code.
  void Malformed(std::string message) {
    Fail(Status(malformed_, std::move(message)));
  }

  template <typename T>
  void U8(T& v) {
    v = static_cast<T>(Need(1) ? data_[pos_++] : 0);
  }
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    if (byte > 1) Malformed(StrFormat("flag byte %u is not 0/1", byte));
    v = byte == 1;
  }
  /// `std::vector<bool>` elements are proxies, not `bool&`.
  void Bool(std::vector<bool>::reference v) {
    bool flag = false;
    Bool(flag);
    v = flag;
  }
  /// Minimal-form LEB128 only, so every accepted value re-encodes to the
  /// identical bytes.
  template <std::unsigned_integral T>
  void Varint(T& v) {
    const uint64_t value = ReadVarint();
    if constexpr (sizeof(T) < sizeof(uint64_t)) {
      if (value > std::numeric_limits<T>::max()) {
        Malformed(StrFormat("varint %llu exceeds %zu bits",
                            static_cast<unsigned long long>(value),
                            8 * sizeof(T)));
        v = 0;
        return;
      }
    }
    v = static_cast<T>(value);
  }
  void Fixed16(uint16_t& v) { v = static_cast<uint16_t>(Fixed(2)); }
  void Fixed32(uint32_t& v) { v = static_cast<uint32_t>(Fixed(4)); }
  void Fixed64(uint64_t& v) { v = Fixed(8); }
  void Double(double& v) { v = std::bit_cast<double>(Fixed(8)); }
  void String(std::string& v) {
    const std::span<const uint8_t> bytes = Bytes(Count(1));
    v.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  template <typename T>
  void Ranged(T& v, std::type_identity_t<T> max, const char* what) {
    uint8_t byte = 0;
    U8(byte);
    if (byte > static_cast<uint8_t>(max)) {
      Malformed(StrFormat("%s %u out of range", what, byte));
      byte = 0;
    }
    v = static_cast<T>(byte);
  }
  template <typename T>
  void Optional(std::optional<T>& v) {
    bool present = false;
    Bool(present);
    v.reset();
    if (!present) return;
    T value{};
    Varint(value);
    v = value;
  }
  void Nullable32(std::optional<uint32_t>& v) {
    uint32_t raw = 0;
    Fixed32(raw);
    v = raw == kNull32 ? std::nullopt : std::optional<uint32_t>(raw);
  }
  template <typename T, typename Field>
  void List(std::vector<T>& v, size_t min_element_bytes, Field&& field) {
    v.resize(Count(min_element_bytes));
    for (auto&& element : v) field(element);
  }

  /// A collection count, bounded by the bytes left for elements of at
  /// least `min_element_bytes` each: a forged count can never drive an
  /// allocation larger than the input itself.
  size_t Count(size_t min_element_bytes) {
    uint64_t n = 0;
    Varint(n);
    const size_t bound = min_element_bytes == 0
                             ? remaining()
                             : remaining() / min_element_bytes;
    if (n > bound) {
      Malformed(StrFormat("count %llu exceeds the %zu remaining input bytes",
                          static_cast<unsigned long long>(n), remaining()));
      return 0;
    }
    return static_cast<size_t>(n);
  }
  std::span<const uint8_t> Bytes(size_t n) {
    if (!Need(n)) return {};
    const std::span<const uint8_t> bytes = data_.subspan(pos_, n);
    pos_ += n;
    return bytes;
  }
  /// Everything not read yet.
  std::span<const uint8_t> Rest() { return Bytes(remaining()); }

  /// The final status: the first error, else a trailing-bytes error when
  /// input is left over.
  Status Finish(const char* what) {
    if (ok() && remaining() > 0) {
      Malformed(StrFormat("%zu trailing bytes after %s", remaining(), what));
    }
    return status_;
  }

 private:
  bool Need(size_t n) {
    if (!ok()) return false;
    if (remaining() < n) {
      Malformed(StrFormat("truncated input: %zu bytes needed, %zu left", n,
                          remaining()));
      return false;
    }
    return true;
  }

  uint64_t Fixed(int width) {
    if (!Need(static_cast<size_t>(width))) return 0;
    uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      value |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<size_t>(width);
    return value;
  }

  uint64_t ReadVarint() {
    uint64_t value = 0;
    for (int i = 0; i < 10; ++i) {
      if (!Need(1)) return 0;
      const uint8_t byte = data_[pos_++];
      if (i == 9 && byte > 0x01) {
        Malformed("varint overflows 64 bits");
        return 0;
      }
      value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) {
          Malformed("non-minimal varint encoding");
          return 0;
        }
        return value;
      }
    }
    return 0;  // unreachable: the tenth byte either ends or overflows
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  StatusCode malformed_;
  Status status_;
};

}  // namespace pdms::wire

#endif  // PDMS_NET_BYTE_IO_H_
