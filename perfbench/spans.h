// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer's public functions, kept in memory and written
// out when the run ends. Nothing inside the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One span. A plain span is one call: calls == 1 and busy_s is its
/// duration. An aggregate span stands for `calls` fine-grained calls made
/// inside its parent (for example every TraceSource::next() of one
/// run_period), whose summed host time is busy_s; start/end then bracket
/// the parent interval the calls happened in.
struct Span {
  std::string name;
  double start_s = 0.0;  // since the recorder's epoch
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into spans(), -1 = root
  std::uint64_t request = 0;  // job, period, device or shard id
  std::uint64_t calls = 1;
  double busy_s = 0.0;
};

/// In-memory span store with a stack of open spans: a span opened while
/// another is open becomes its child.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span and returns its index.
  std::size_t open(const std::string& name, std::uint64_t request);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);
  /// Records an aggregate child of the innermost open span (or a root
  /// aggregate when none is open).
  void aggregate(const std::string& name, std::uint64_t request,
                 std::uint64_t calls, double busy_s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON of every span (ts/dur in microseconds).
  [[nodiscard]] std::string json() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             std::uint64_t request)
      : rec_(rec), index_(rec ? rec->open(name, request) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

/// Per-name totals over a span list.
struct LayerTotals {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  /// busy_s minus the busy time of each span's direct children. Children
  /// run on the caller's thread, so they never overlap one another and
  /// their sum is the part of the parent they cover.
  double self_s = 0.0;
};

[[nodiscard]] std::map<std::string, LayerTotals> summarize(
    const std::vector<Span>& spans);

/// True when a q-quantile of n samples has at least ten samples above it
/// (the rule for reporting a percentile at all).
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

/// Smallest sample count for which percentile_supported(n, q) holds.
[[nodiscard]] std::size_t samples_needed(double q);

/// Nearest-rank q-quantile (q in (0, 1]); 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median of the values (0 for an empty input).
[[nodiscard]] double median(std::vector<double> values);

// ---- host time -----------------------------------------------------------
//
// The host is a virtual machine sharing its cores with other tenants. Wall
// time there also counts the spans in which the hypervisor runs someone
// else on our core (steal time). So every host time the end-to-end
// metrics use is CPU time, which the guest kernel keeps free of steal
// time; what is left of the host's drift (clock speed, contention for the
// core's shared resources) is taken out by a fixed probe loop run after
// every operation: the probe's median CPU time over a phase scales that
// phase's host times.

/// CPU seconds used so far by this process (all threads) and by its
/// children that have been waited for (the fleet's worker processes).
[[nodiscard]] double cpu_seconds();

/// CPU seconds used so far by the calling thread.
[[nodiscard]] double thread_cpu_seconds();

/// Runs the benchmark's fixed probe loop twice, the first pass to warm
/// its data; returns the thread CPU seconds of the second.
[[nodiscard]] double probe_host();

}  // namespace perfbench
