// Layer probes for the traced run. Each one calls a layer's public
// functions from the benchmark, with spans around the calls: in situ
// where System accepts an injected object (the TraceSource), otherwise by
// replaying the stream a simulated job consumed through a standalone
// instance of the layer. Every replay returns counts the layer computed
// itself, which the caller compares with the counts the simulation
// reported for the same traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "sim/system.h"
#include "spans.h"
#include "trace/trace_source.h"

namespace perfbench {

using Records = std::vector<mecc::trace::TraceRecord>;

/// A TraceSource wrapper that times every next() of the source it wraps
/// and, when capturing, keeps the records it handed out.
class TimedSource final : public mecc::trace::TraceSource {
 public:
  explicit TimedSource(std::unique_ptr<mecc::trace::TraceSource> inner)
      : inner_(std::move(inner)) {}

  mecc::trace::TraceRecord next() override {
    const Clock::time_point t0 = Clock::now();
    const mecc::trace::TraceRecord r = inner_->next();
    busy_ += Clock::now() - t0;
    ++calls_;
    if (capture_) records_.push_back(r);
    return r;
  }
  void export_stats(mecc::StatSet& out) const override {
    inner_->export_stats(out);
  }

  void set_capture(bool on) { capture_ = on; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] double busy_s() const {
    return std::chrono::duration<double>(busy_).count();
  }
  [[nodiscard]] const Records& records() const { return records_; }

 private:
  std::unique_ptr<mecc::trace::TraceSource> inner_;
  Clock::duration busy_{};
  std::uint64_t calls_ = 0;
  bool capture_ = false;
  Records records_;
};

/// The generator configuration System builds for stream k of a config
/// (the synthetic source System constructs itself).
[[nodiscard]] mecc::trace::GeneratorConfig stream_generator_config(
    const mecc::sim::SystemConfig& c, std::uint32_t stream);

/// Standalone generator replay: pulls counts[k] records from stream k's
/// generator under a "trace.next" span per stream.
[[nodiscard]] std::vector<Records> replay_trace(
    const mecc::trace::BenchmarkProfile& profile,
    const mecc::sim::SystemConfig& c, const std::vector<std::uint64_t>& counts,
    SpanRecorder& rec, std::uint64_t request);

struct MemctrlReplay {
  std::uint64_t requests = 0;          // accepted enqueues
  std::uint64_t reads = 0;
  std::uint64_t completions = 0;
  std::uint64_t enqueue_attempts = 0;
  std::uint64_t enqueue_rejected = 0;
};

/// Closed-loop replay of the streams through standalone Controller +
/// Device channels of the config's geometry: each stream keeps at most
/// one read outstanding (like the in-order core) and posts its writes.
/// Records "memctrl.tick" and "memctrl.next_event" aggregate spans.
[[nodiscard]] MemctrlReplay replay_memctrl(const mecc::sim::SystemConfig& c,
                                           const std::vector<Records>& streams,
                                           SpanRecorder& rec,
                                           std::uint64_t request);

struct EngineReplay {
  std::uint64_t on_read = 0;
  std::uint64_t on_write = 0;
  std::uint64_t last_reads = 0;         // each stream's final read
  std::uint64_t last_reads_strong = 0;  // ... decided strong
  mecc::StatSet stats;  // the replayed Engine's counters
};

/// Replays the streams' reads and writes, round-robin across streams,
/// through a standalone morph::Engine. Maximal runs of consecutive reads
/// (writes) are timed as one stretch, so a clock read brackets a run of
/// calls rather than each call: "mecc.engine.on_read" / "on_write".
[[nodiscard]] EngineReplay replay_engine(const mecc::sim::SystemConfig& c,
                                         const std::vector<Records>& streams,
                                         SpanRecorder& rec,
                                         std::uint64_t request);

struct DeviceReplay {
  mecc::StatSet engine;  // the replayed Engine's counters ("mecc.*")
  mecc::StatSet errors;  // replayed ShadowMemory + DuePolicy ("errors.*")
  std::uint64_t unslotted_shadow_reads = 0;  // must stay 0
};

/// Replays one lifecycle device's memory traffic — its captured trace,
/// cut into periods at `issued` (cumulative records issued by the end of
/// each run_period) — through a standalone morph::Engine, ShadowMemory
/// and DuePolicy built from the device's config, making the calls
/// System makes: on_write with the engine's mode, on_read with the
/// engine's downgrade decision and the DUE ladder, then at every idle
/// entry enter_idle, upgrade_all and the retention injection at the
/// retention model's BER for the idle refresh period. Forwarded reads
/// (served from the write queue) are invisible from outside, so every
/// read is replayed; they hit lines written in the same period, which
/// the engine already holds weak, so only the weak-read and
/// shadow-read counts grow by them.
///
/// Codec spans time a standalone LineCodec on the words the shadow
/// encodes and decodes: "mecc.codec.store_weak" / "store_strong" (the
/// shadowed writes in their mode, the read downgrades, and the
/// upgrade_all re-encodes), "mecc.codec.load" (shadowed reads) and
/// "mecc.codec.load_batch" (the upgrade_all decodes). "mecc.image.upgrade_all"
/// and "reliability.inject" time the ShadowMemory calls themselves.
[[nodiscard]] DeviceReplay replay_device(const mecc::sim::SystemConfig& c,
                                         const Records& records,
                                         const std::vector<std::uint64_t>& issued,
                                         SpanRecorder& rec,
                                         std::uint64_t request);

}  // namespace perfbench
