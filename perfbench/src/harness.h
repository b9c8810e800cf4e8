// Shared pieces of the repository benchmark: timing and percentile helpers,
// the metric/outcome records a workload fills in, the span tracer, and the
// bench-side Transport decorator that times calls into the net layer.
//
// Everything here sits outside the library: the benchmark reaches the
// library only through its public API (PdmsBuilder, Session, Transport,
// PdmsNode, store/snapshot.h, net/codec.h) and measures the calls it makes.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pdms/pdms.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}
inline double MillisBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Nearest-rank percentile (`fraction` in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double fraction);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Peak resident set size of this process, in MB (getrusage max RSS).
double PeakRssMb();

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run produced: the end-to-end metrics (untraced
/// measurement), the per-layer metrics (traced run only), the operation
/// ledger behind `attempted`/`failed`, and the determinism cross-checks.
struct Outcome {
  MetricSet end_to_end;
  /// Per-layer metrics every workload reports (the JSON result line).
  MetricSet layers;
  /// Per-layer metrics of layers only this workload exercises (printed in
  /// the traced report, not part of the JSON result line).
  MetricSet workload_layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool cross_checks_passed = true;

  /// Counts one operation; a failed one is also logged to stderr.
  void Attempt(bool ok, const std::string& what);
  /// Records a determinism cross-check (traced run); failures are logged.
  void CrossCheck(bool ok, const std::string& what);
};

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (state dirs, span files).
  std::string work_dir = ".bench_build/work";
};

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on the driver thread; nesting follows call structure, so every span
/// knows the span that caused it. Written out as JSON lines at the end.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  Tracer() : origin_(Clock::now()) {}

  int32_t Begin(const char* name);
  void End(int32_t id);
  /// Durations, in ms, of every closed span called `name`.
  std::vector<double> DurationsMs(const char* name) const;
  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Transport decorator for the traced in-process runs: forwards every call
/// to the wrapped transport and accounts Send/Drain calls and their time,
/// split into all threads and the driver thread alone (the part that
/// blocks the round). Every Send is counted; one call in
/// `kTimingSampleEvery` per thread is timed and weighted accordingly, which
/// keeps the clock reads from dominating the cheap calls (most drains find
/// an empty mailbox). Can record the payloads sent while recording is on,
/// for the codec measurement.
class TimedTransport final : public pdms::Transport {
 public:
  static constexpr uint64_t kTimingSampleEvery = 16;

  /// Cumulative counts; times are sampled estimates in ns.
  struct Counters {
    uint64_t send_calls = 0;
    uint64_t send_ns = 0;
    uint64_t drain_ns = 0;
    /// Send + Drain time spent on the driver thread.
    uint64_t driver_ns = 0;

    Counters operator-(const Counters& earlier) const {
      return Counters{send_calls - earlier.send_calls,
                      send_ns - earlier.send_ns, drain_ns - earlier.drain_ns,
                      driver_ns - earlier.driver_ns};
    }
  };

  explicit TimedTransport(std::unique_ptr<pdms::Transport> inner);

  std::string_view name() const override { return inner_->name(); }
  size_t peer_count() const override { return inner_->peer_count(); }
  uint64_t now() const override { return inner_->now(); }
  void AdvanceTick() override { inner_->AdvanceTick(); }
  void Send(pdms::PeerId from, pdms::PeerId to,
            std::optional<pdms::EdgeId> via, pdms::Payload payload) override;
  std::vector<pdms::Envelope> Drain(pdms::PeerId peer) override;
  bool HasPendingMessages() const override {
    return inner_->HasPendingMessages();
  }
  const pdms::TransportStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  /// Counters accumulated so far. Driver-side, between rounds.
  Counters Snapshot() const;
  /// While off, calls are forwarded without being timed or counted.
  void set_timing(bool on) { timing_.store(on); }
  /// While on, copies of sent payloads are kept for `TakeRecorded`.
  void set_recording(bool on) { recording_.store(on); }
  std::vector<pdms::Payload> TakeRecorded();

 private:
  std::unique_ptr<pdms::Transport> inner_;
  std::thread::id driver_;
  /// Cost of the clock reads around a timed call, subtracted from each
  /// sample.
  uint64_t clock_ns_ = 0;
  std::atomic<uint64_t> send_calls_{0};
  std::atomic<uint64_t> send_ns_{0};
  std::atomic<uint64_t> drain_ns_{0};
  std::atomic<uint64_t> driver_ns_{0};
  std::atomic<bool> timing_{true};
  std::atomic<bool> recording_{false};
  std::mutex recorded_mutex_;
  std::vector<pdms::Payload> recorded_;
};

/// Per-round reports collected through the public `RoundObserver` hook.
class RoundLog final : public pdms::RoundObserver {
 public:
  void OnRound(size_t round, const pdms::RoundReport& report,
               const pdms::Session& session) override;
  const std::vector<pdms::RoundReport>& reports() const { return reports_; }
  void Clear() { reports_.clear(); }

 private:
  std::vector<pdms::RoundReport> reports_;
};

/// Encode/decode cost of the codec over `payloads`, in ns per encoded
/// byte, measured for at least `min_seconds` each.
struct CodecCost {
  double encode_ns_per_byte = 0.0;
  double decode_ns_per_byte = 0.0;
  bool round_trip_ok = true;
};
CodecCost MeasureCodec(const std::vector<pdms::Payload>& payloads,
                       double min_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
