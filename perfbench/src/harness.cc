#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "net/codec.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void MetricSet::Add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::Attempt(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
}

void Outcome::CrossCheck(bool ok, const std::string& what) {
  std::fprintf(stderr, "cross-check %s: %s\n", ok ? "passed" : "FAILED",
               what.c_str());
  if (!ok) cross_checks_passed = false;
}

// --- Tracer ----------------------------------------------------------------------

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const char* name) const {
  std::vector<double> durations;
  const std::string_view wanted(name);
  for (const Span& span : spans_) {
    if (span.end_ns == 0 || wanted != span.name) continue;
    durations.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  }
  return durations;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << "}\n";
  }
  return static_cast<bool>(out);
}

// --- TimedTransport ----------------------------------------------------------------

namespace {

uint64_t NanosSince(Clock::time_point begin) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin)
          .count());
}

/// Median duration of an empty timed region.
uint64_t CalibrateClockNs() {
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) {
    const Clock::time_point begin = Clock::now();
    samples.push_back(static_cast<double>(NanosSince(begin)));
  }
  return static_cast<uint64_t>(Median(std::move(samples)));
}

/// Whether this thread's current transport call is one of the timed
/// samples.
bool SampleThisCall() {
  thread_local uint64_t calls = 0;
  return calls++ % TimedTransport::kTimingSampleEvery == 0;
}

}  // namespace

TimedTransport::TimedTransport(std::unique_ptr<pdms::Transport> inner)
    : inner_(std::move(inner)),
      driver_(std::this_thread::get_id()),
      clock_ns_(CalibrateClockNs()) {}

void TimedTransport::Send(pdms::PeerId from, pdms::PeerId to,
                          std::optional<pdms::EdgeId> via,
                          pdms::Payload payload) {
  if (!timing_.load(std::memory_order_relaxed)) {
    inner_->Send(from, to, via, std::move(payload));
    return;
  }
  if (recording_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(recorded_mutex_);
    recorded_.push_back(payload);
  }
  send_calls_.fetch_add(1, std::memory_order_relaxed);
  if (!SampleThisCall()) {
    inner_->Send(from, to, via, std::move(payload));
    return;
  }
  const Clock::time_point begin = Clock::now();
  inner_->Send(from, to, via, std::move(payload));
  const uint64_t ns =
      (std::max(NanosSince(begin), clock_ns_) - clock_ns_) * kTimingSampleEvery;
  send_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (std::this_thread::get_id() == driver_) {
    driver_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
}

std::vector<pdms::Envelope> TimedTransport::Drain(pdms::PeerId peer) {
  if (!timing_.load(std::memory_order_relaxed)) return inner_->Drain(peer);
  if (!SampleThisCall()) return inner_->Drain(peer);
  const Clock::time_point begin = Clock::now();
  std::vector<pdms::Envelope> drained = inner_->Drain(peer);
  const uint64_t ns =
      (std::max(NanosSince(begin), clock_ns_) - clock_ns_) * kTimingSampleEvery;
  drain_ns_.fetch_add(ns, std::memory_order_relaxed);
  if (std::this_thread::get_id() == driver_) {
    driver_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  return drained;
}

TimedTransport::Counters TimedTransport::Snapshot() const {
  return Counters{send_calls_.load(), send_ns_.load(), drain_ns_.load(),
                  driver_ns_.load()};
}

std::vector<pdms::Payload> TimedTransport::TakeRecorded() {
  std::lock_guard<std::mutex> lock(recorded_mutex_);
  return std::move(recorded_);
}

void RoundLog::OnRound(size_t, const pdms::RoundReport& report,
                       const pdms::Session&) {
  reports_.push_back(report);
}

// --- Codec ---------------------------------------------------------------------------

CodecCost MeasureCodec(const std::vector<pdms::Payload>& payloads,
                       double min_seconds) {
  CodecCost cost;
  if (payloads.empty()) return cost;
  std::vector<std::vector<uint8_t>> encoded(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    pdms::EncodePayload(payloads[i], &encoded[i]);
  }

  uint64_t encoded_bytes = 0;
  std::vector<uint8_t> buffer;
  const Clock::time_point encode_begin = Clock::now();
  do {
    for (const pdms::Payload& payload : payloads) {
      buffer.clear();
      pdms::EncodePayload(payload, &buffer);
      encoded_bytes += buffer.size();
    }
  } while (SecondsBetween(encode_begin, Clock::now()) < min_seconds);
  cost.encode_ns_per_byte =
      SecondsBetween(encode_begin, Clock::now()) * 1e9 /
      static_cast<double>(encoded_bytes);

  uint64_t decoded_bytes = 0;
  const Clock::time_point decode_begin = Clock::now();
  do {
    for (size_t i = 0; i < encoded.size(); ++i) {
      const pdms::Result<pdms::Payload> decoded =
          pdms::DecodePayload(pdms::KindOf(payloads[i]), encoded[i]);
      if (!decoded.ok()) cost.round_trip_ok = false;
      decoded_bytes += encoded[i].size();
    }
  } while (SecondsBetween(decode_begin, Clock::now()) < min_seconds);
  cost.decode_ns_per_byte =
      SecondsBetween(decode_begin, Clock::now()) * 1e9 /
      static_cast<double>(decoded_bytes);

  // The codec promises byte-identical re-encoding of what it decodes.
  for (size_t i = 0; i < encoded.size() && cost.round_trip_ok; ++i) {
    const pdms::Result<pdms::Payload> decoded =
        pdms::DecodePayload(pdms::KindOf(payloads[i]), encoded[i]);
    buffer.clear();
    if (decoded.ok()) pdms::EncodePayload(*decoded, &buffer);
    cost.round_trip_ok = decoded.ok() && buffer == encoded[i];
  }
  return cost;
}

}  // namespace perfbench
