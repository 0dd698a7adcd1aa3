#include "layers.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "common/types.h"
#include "dram/device.h"
#include "mecc/engine.h"
#include "mecc/line_codec.h"
#include "mecc/memory_image.h"
#include "mecc/shadow_memory.h"
#include "memctrl/address_map.h"
#include "memctrl/controller.h"
#include "memctrl/due_policy.h"
#include "reliability/retention_model.h"

namespace perfbench {

namespace {

// Keeps replayed results observable so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

constexpr std::uint32_t kStreamShift = 48;

[[nodiscard]] mecc::morph::EngineConfig engine_config(
    const mecc::sim::SystemConfig& c) {
  // Mirrors the engine set-up in System's constructor.
  mecc::morph::EngineConfig ec;
  ec.memory_lines = c.geometry.total_lines();
  ec.memory_bytes = c.geometry.capacity_bytes();
  ec.use_mdt = c.mecc_use_mdt;
  ec.mdt_entries = c.mdt_entries;
  ec.use_smd = c.mecc_use_smd;
  ec.smd_mpkc_threshold = c.smd_mpkc_threshold;
  ec.smd_quantum_cycles = c.smd_quantum_cycles;
  return ec;
}

}  // namespace

mecc::trace::GeneratorConfig stream_generator_config(
    const mecc::sim::SystemConfig& c, std::uint32_t stream) {
  // Mirrors the stream set-up in System's constructor.
  const std::uint32_t streams = std::max<std::uint32_t>(1, c.streams);
  const mecc::Address stride = c.geometry.capacity_bytes() / streams /
                               mecc::kLineBytes * mecc::kLineBytes;
  mecc::trace::GeneratorConfig g;
  g.footprint_scale = c.footprint_scale != 0.0
                          ? c.footprint_scale
                          : static_cast<double>(c.instructions) / 4e9;
  g.phase_length_insts =
      c.phase_length_insts != 0
          ? c.phase_length_insts
          : std::max<std::uint64_t>(1, c.instructions / 8);
  g.base_addr = stride * stream;
  g.seed = c.seed + 0x9E3779B97F4A7C15ull * stream;
  return g;
}

std::vector<Records> replay_trace(const mecc::trace::BenchmarkProfile& profile,
                                  const mecc::sim::SystemConfig& c,
                                  const std::vector<std::uint64_t>& counts,
                                  SpanRecorder& rec, std::uint64_t request) {
  ScopedSpan top(&rec, "replay.trace", request);
  std::vector<Records> out(counts.size());
  for (std::size_t k = 0; k < counts.size(); ++k) {
    mecc::trace::GeneratorSource src(
        profile, stream_generator_config(c, static_cast<std::uint32_t>(k)));
    out[k].resize(counts[k]);
    const Clock::time_point t0 = Clock::now();
    for (auto& r : out[k]) r = src.next();
    rec.aggregate("trace.next", request, counts[k], seconds_since(t0));
  }
  return out;
}

MemctrlReplay replay_memctrl(const mecc::sim::SystemConfig& c,
                             const std::vector<Records>& streams,
                             SpanRecorder& rec, std::uint64_t request) {
  ScopedSpan top(&rec, "replay.memctrl", request);
  struct Channel {
    mecc::dram::Device device;
    mecc::memctrl::Controller controller;
    Channel(const mecc::dram::Geometry& g, const mecc::dram::Timing& t,
            const mecc::memctrl::ControllerConfig& cc)
        : device(g, t), controller(device, cc) {}
  };
  mecc::memctrl::ControllerConfig cc = c.controller;
  cc.interleave = c.interleave;
  std::vector<std::unique_ptr<Channel>> channels;
  for (std::uint32_t i = 0; i < c.geometry.channels; ++i) {
    channels.push_back(std::make_unique<Channel>(c.geometry, c.timing, cc));
  }
  const mecc::memctrl::AddressMap route(c.geometry, c.interleave);

  MemctrlReplay out;
  std::vector<std::size_t> pos(streams.size(), 0);
  std::vector<bool> blocked(streams.size(), false);
  Clock::duration tick_busy{};
  Clock::duration next_busy{};
  std::uint64_t tick_calls = 0;
  std::uint64_t next_calls = 0;
  std::uint64_t pending_reads = 0;
  const auto work_left = [&]() {
    if (pending_reads > 0) return true;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (pos[k] < streams[k].size()) return true;
    }
    return false;
  };
  mecc::dram::MemCycle m = 0;
  // Livelock guard, far beyond any cycle a replayed job reaches.
  constexpr mecc::dram::MemCycle kGuard = 1ull << 40;
  while (work_left()) {
    if (++m > kGuard) throw std::runtime_error("memctrl replay did not drain");
    bool all_waiting = true;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (blocked[k] || pos[k] >= streams[k].size()) continue;
      const mecc::trace::TraceRecord& r = streams[k][pos[k]];
      mecc::memctrl::Controller& ctrl =
          channels[route.decode(r.line_addr).channel]->controller;
      ++out.enqueue_attempts;
      const bool ok =
          r.is_write
              ? ctrl.enqueue_write(r.line_addr, m)
              : ctrl.enqueue_read(
                    r.line_addr, (static_cast<std::uint64_t>(k) << kStreamShift) | pos[k], m);
      if (!ok) {
        ++out.enqueue_rejected;
        all_waiting = false;
        continue;
      }
      ++out.requests;
      ++pos[k];
      if (!r.is_write) {
        ++out.reads;
        ++pending_reads;
        blocked[k] = true;
      } else {
        all_waiting = false;
      }
    }
    for (auto& ch : channels) {
      const Clock::time_point t0 = Clock::now();
      ch->controller.tick(m);
      tick_busy += Clock::now() - t0;
      ++tick_calls;
      if (!ch->controller.has_in_flight()) continue;
      for (const auto& done : ch->controller.collect_completions(m)) {
        blocked[done.id >> kStreamShift] = false;
        ++out.completions;
        --pending_reads;
        all_waiting = false;
      }
    }
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (!blocked[k] && pos[k] < streams[k].size()) all_waiting = false;
    }
    if (!all_waiting) continue;
    // Every stream waits on read data: jump to the next tick any channel
    // can act on, as System's fast-forward does.
    mecc::dram::MemCycle nxt = mecc::memctrl::kNoMemEvent;
    for (auto& ch : channels) {
      const Clock::time_point t0 = Clock::now();
      mecc::dram::MemCycle e = ch->controller.next_event(m);
      next_busy += Clock::now() - t0;
      ++next_calls;
      const mecc::dram::MemCycle done = ch->controller.next_completion_ready();
      if (done != mecc::memctrl::kNoMemEvent) e = std::min(e, std::max(done, m + 1));
      nxt = std::min(nxt, e);
    }
    if (nxt != mecc::memctrl::kNoMemEvent && nxt > m + 1) {
      for (auto& ch : channels) ch->controller.skip_ticks(nxt - 1 - m);
      m = nxt - 1;
    }
  }
  rec.aggregate("memctrl.tick", request, tick_calls,
                std::chrono::duration<double>(tick_busy).count());
  rec.aggregate("memctrl.next_event", request, next_calls,
                std::chrono::duration<double>(next_busy).count());
  return out;
}

EngineReplay replay_engine(const mecc::sim::SystemConfig& c,
                           const std::vector<Records>& streams,
                           SpanRecorder& rec, std::uint64_t request) {
  ScopedSpan top(&rec, "replay.engine", request);
  mecc::morph::Engine engine(engine_config(c));

  EngineReplay out;
  Clock::duration read_busy{};
  Clock::duration write_busy{};
  std::size_t longest = 0;
  for (const auto& s : streams) longest = std::max(longest, s.size());
  // Each stream's final read, which may still be in flight when the
  // simulated run ended.
  std::vector<std::size_t> last_read(streams.size(), longest);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    for (std::size_t i = streams[k].size(); i-- > 0;) {
      if (!streams[k][i].is_write) {
        last_read[k] = i;
        break;
      }
    }
  }
  bool in_reads = true;
  Clock::time_point mark = Clock::now();
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::size_t k = 0; k < streams.size(); ++k) {
      const Records& s = streams[k];
      if (i >= s.size()) continue;
      const mecc::trace::TraceRecord& r = s[i];
      if (r.is_write == in_reads) {
        // Run boundary: charge the finished run to its call kind.
        const Clock::time_point now = Clock::now();
        (in_reads ? read_busy : write_busy) += now - mark;
        mark = now;
        in_reads = !r.is_write;
      }
      if (r.is_write) {
        engine.on_write(r.line_addr);
        ++out.on_write;
      } else {
        const mecc::morph::ReadDecision d = engine.on_read(r.line_addr);
        ++out.on_read;
        if (i == last_read[k]) {
          ++out.last_reads;
          out.last_reads_strong += d.decode_mode == mecc::morph::LineMode::kStrong ? 1 : 0;
        }
      }
    }
  }
  (in_reads ? read_busy : write_busy) += Clock::now() - mark;
  engine.export_stats(out.stats);
  rec.aggregate("mecc.engine.on_read", request, out.on_read,
                std::chrono::duration<double>(read_busy).count());
  rec.aggregate("mecc.engine.on_write", request, out.on_write,
                std::chrono::duration<double>(write_busy).count());
  return out;
}

DeviceReplay replay_device(const mecc::sim::SystemConfig& c,
                           const Records& records,
                           const std::vector<std::uint64_t>& issued,
                           SpanRecorder& rec, std::uint64_t request) {
  using mecc::morph::LineMode;
  ScopedSpan top(&rec, "replay.device", request);
  mecc::morph::Engine engine(engine_config(c));
  mecc::morph::ShadowConfig sc;  // as System's constructor builds it
  sc.capacity_lines = c.fault.shadow_lines;
  sc.sample_stride = c.fault.sample_stride;
  sc.transient_read_ber = c.fault.transient_read_ber;
  sc.seed = c.seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  mecc::morph::ShadowMemory shadow(sc);
  mecc::memctrl::DuePolicy due(c.fault.due);
  const mecc::reliability::RetentionModel retention;
  const mecc::morph::LineCodec codec;

  DeviceReplay out;
  std::unordered_map<mecc::Address, std::size_t> slot_of;  // as observed
  std::uint64_t sink = 0;
  std::size_t next = 0;
  for (const std::uint64_t end : issued) {
    // One run_period: the writes' encodes and the reads' stored words,
    // timed through the codec in batches after the period.
    std::vector<mecc::BitVec> weak_data;
    std::vector<mecc::BitVec> strong_data;
    std::vector<mecc::BitVec> read_words;
    std::vector<bool> read_downgrades;
    for (; next < end && next < records.size(); ++next) {
      const mecc::Address line = records[next].line_addr;
      if (records[next].is_write) {
        engine.on_write(line);
        const LineMode mode = engine.modes().mode_of(line);
        const std::size_t before = shadow.tracked_lines();
        shadow.on_write(line, mode);
        if (shadow.tracked_lines() > before) slot_of.emplace(line, before);
        if (slot_of.count(line) != 0) {
          (mode == LineMode::kWeak ? weak_data : strong_data)
              .push_back(shadow.expected_data(line));
        }
        continue;
      }
      const mecc::morph::ReadDecision d = engine.on_read(line);
      const auto slot = slot_of.find(line);
      if (slot != slot_of.end()) {
        read_words.push_back(shadow.image().stored_bits(slot->second));
        read_downgrades.push_back(d.downgrade);
      }
      // System::shadow_read: CE/silent bookkeeping, then the DUE ladder.
      const mecc::morph::ShadowReadOutcome o = shadow.on_read(line, d.downgrade);
      if (!o.shadowed) continue;
      if (slot == slot_of.end()) ++out.unslotted_shadow_reads;
      if (o.corrected_bits > 0 || o.mode_repaired) due.on_ce(o.corrected_bits);
      if (o.silent_corruption) due.on_silent_corruption();
      if (!o.due) continue;
      due.on_due();
      bool recovered = false;
      for (unsigned i = 0; i < due.config().max_retries && !recovered; ++i) {
        recovered = !shadow.retry_read(line).due;
        due.on_retry(recovered);
      }
      if (recovered) continue;
      switch (due.escalate()) {
        case mecc::memctrl::DueAction::kScrub:
          (void)shadow.scrub();
          break;
        case mecc::memctrl::DueAction::kForceUpgrade:
          (void)shadow.force_upgrade();
          engine.force_upgrade();
          break;
        case mecc::memctrl::DueAction::kRefreshFallback:
          engine.set_degraded(true);
          break;
        case mecc::memctrl::DueAction::kNone:
          break;
      }
    }
    {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < read_words.size(); ++i) {
        const mecc::morph::LineDecodeResult r = codec.load(read_words[i]);
        // A strong line read with downgrade on is re-encoded weak.
        if (r.ok && r.mode == LineMode::kStrong && read_downgrades[i]) {
          weak_data.push_back(r.data);
        }
        sink += r.corrected_bits;
      }
      rec.aggregate("mecc.codec.load", request, read_words.size(), seconds_since(t0));
    }
    for (const auto& [name, mode, data] :
         {std::tuple{"mecc.codec.store_weak", LineMode::kWeak, &weak_data},
          std::tuple{"mecc.codec.store_strong", LineMode::kStrong, &strong_data}}) {
      const Clock::time_point t0 = Clock::now();
      for (const auto& d : *data) sink += codec.store(d, mode).words()[0];
      rec.aggregate(name, request, data->size(), seconds_since(t0));
    }

    // System::idle_period: ECC-Upgrade, then the idle retention errors.
    (void)engine.enter_idle();
    std::vector<mecc::BitVec> image;
    image.reserve(shadow.image().num_lines());
    for (std::size_t l = 0; l < shadow.image().num_lines(); ++l) {
      image.push_back(shadow.image().stored_bits(l));
    }
    std::vector<mecc::morph::LineDecodeResult> decoded;
    {
      const Clock::time_point t0 = Clock::now();
      decoded = codec.load_batch(image);
      rec.aggregate("mecc.codec.load_batch", request, image.size(), seconds_since(t0));
    }
    {
      // MemoryImage::upgrade_all re-encodes weak and corrected lines strong.
      std::uint64_t n = 0;
      const Clock::time_point t0 = Clock::now();
      for (const auto& r : decoded) {
        if (!r.ok || (r.mode != LineMode::kWeak && r.corrected_bits == 0)) continue;
        sink += codec.store(r.data, LineMode::kStrong).words()[0];
        ++n;
      }
      rec.aggregate("mecc.codec.store_strong", request, n, seconds_since(t0));
    }
    {
      ScopedSpan s(&rec, "mecc.image.upgrade_all", request);
      shadow.upgrade_all();
    }
    const double refresh_period_s = 0.064 * engine.idle_refresh_divider();
    if (refresh_period_s > 0.064) {
      const double ber = c.fault.ber_override >= 0.0
                             ? c.fault.ber_override
                             : retention.bit_failure_probability(refresh_period_s);
      ScopedSpan s(&rec, "reliability.inject", request);
      (void)shadow.inject_retention_errors(ber);
    }
    engine.wake(0);
  }
  g_sink = g_sink + sink;
  engine.export_stats(out.engine);
  due.export_stats(out.errors);
  shadow.export_stats(out.errors);
  return out;
}

}  // namespace perfbench
