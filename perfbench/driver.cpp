// Repository benchmark driver (README.md in this directory).
//
//   mecc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--state-dir DIR] [--spans-out FILE]
//
// --trace 0 runs the workload closed loop for S seconds with no spans and
// prints the end-to-end metrics. --trace 1 runs it untraced for S/2
// seconds, repeats the same schedule units with spans on, replays sampled
// jobs through standalone layer instances and prints the per-layer
// metrics. Both check outputs (the fast_forward=false oracle, fleet shard
// digests, replayed layer counts against the simulated ones) and end with
// one JSON line:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fsio.h"
#include "common/json.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/system.h"
#include "trace/benchmarks.h"

#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = mecc::sim;
namespace fleet = mecc::sim::fleet;

constexpr double kP50 = 0.50;
constexpr double kP95 = 0.95;
// Devices of the lifecycle schedule whose simulated counts are pinned
// and whose traffic the traced run replays layer by layer.
constexpr std::uint64_t kRefDevices = 4;
// Sweep jobs (from the first pass) replayed layer by layer.
constexpr std::size_t kReplayJobs = 3;
// Hard limit on one timed phase, far inside the 180 s run limit.
constexpr double kPhaseCapSeconds = 60.0;
// Host-speed scaling (README.md): every host time (CPU seconds) of a
// phase is multiplied by kProbeRefSeconds / (the phase's median probe).
constexpr double kProbeRefSeconds = 0.25e-3;

struct Args {
  Workload workload = Workload::kSweep1ch;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir = ".bench_build/perfbench/fleet-state";
  std::string spans_out;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 60.0) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (flag == "--state-dir") {
      a.state_dir = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return a;
}

// ---- exact simulated counts ------------------------------------------

using Counts = std::map<std::string, double>;

/// Sums counter `component.stat` over every single-segment instance
/// ("memctrl.ch3.stat", "cpu.c1.stat") or the unsuffixed name.
[[nodiscard]] double stat_sum(const mecc::StatSet& s, const std::string& component,
                              const std::string& stat) {
  double total = 0.0;
  const std::string prefix = component + ".";
  for (const auto& [key, v] : s.counters()) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string rest = key.substr(prefix.size());
    if (rest == stat) {
      total += static_cast<double>(v);
      continue;
    }
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos || rest.substr(dot + 1) != stat) continue;
    const std::string inst = rest.substr(0, dot);
    const std::size_t head = inst.rfind("ch", 0) == 0 ? 2 : inst.rfind("c", 0) == 0 ? 1 : 0;
    if (head > 0 && inst.size() > head &&
        inst.find_first_not_of("0123456789", head) == std::string::npos) {
      total += static_cast<double>(v);
    }
  }
  return total;
}

/// Adds one System's cumulative counters to the pinned count set.
void add_counts(Counts& c, const mecc::StatSet& s) {
  for (const char* k : {"retired_insts", "cycles", "stall_cycles",
                        "reads_issued", "writes_issued"}) {
    c[std::string("cpu.") + k] += stat_sum(s, "cpu", k);
  }
  for (const char* k : {"reads_enqueued", "reads_forwarded", "writes_enqueued",
                        "row_hits", "row_misses", "row_conflicts",
                        "read_latency_mem_cycles"}) {
    c[std::string("memctrl.") + k] += stat_sum(s, "memctrl", k);
  }
  for (const char* k : {"activates", "refreshes", "self_refresh_pulses"}) {
    c[std::string("dram.") + k] += stat_sum(s, "dram", k);
  }
  for (const char* k : {"reads_strong", "reads_weak", "downgrades",
                        "idle_entries", "lines_upgraded"}) {
    c[std::string("mecc.") + k] += stat_sum(s, "mecc", k);
  }
  for (const char* k : {"shadow_writes", "shadow_reads", "injections",
                        "injected_bits", "due", "ce"}) {
    c[std::string("errors.") + k] += stat_sum(s, "errors", k);
  }
  c["sim.drain_guard_exhausted"] += stat_sum(s, "sim", "drain_guard_exhausted");
  c["power.total_mj"] += s.gauge("power.total_mj");
}

/// FNV-1a over "name=value" of every count, cut to 52 bits so the digest
/// survives a round trip through a JSON double.
[[nodiscard]] double counts_digest(const Counts& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [k, v] : c) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "=%.17g;", v);
    for (const char ch : k + buf) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
  return static_cast<double>(h & ((1ull << 52) - 1));
}

[[nodiscard]] double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

// ---- one timed phase ---------------------------------------------------

/// One closed-loop operation: a sweep job, a lifecycle burst + sleep, or
/// a fleet campaign, followed by one host-speed probe. Host times are CPU
/// seconds (spans.h, cpu_seconds) except wall_s.
struct Op {
  std::uint64_t group = 0;  // pass, block of 28 devices, or campaign
  double work = 0.0;        // simulated instructions, or fleet devices
  double setup_s = -1.0;    // construction before this op; < 0: none
  double busy_s = 0.0;      // host time of the whole op
  double rate_s = 0.0;      // host time the work rate divides by
  double wall_s = 0.0;      // wall time of the same part as rate_s
  double active_s = -1.0;   // lifecycle run_period; < 0: not a lifecycle op
  double idle_s = 0.0;      // lifecycle idle_period
  double probe_s = 0.0;     // host-speed probe after the op
};

/// Everything one timed phase measured.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Op> ops;
  std::uint64_t units = 0;    // jobs, devices or campaigns run
  double sim_cycles = 0.0;    // simulated CPU cycles of every run()/run_period
  double devices = 0.0;       // fleet devices simulated
  Counts counts;              // over the pinned reference set
  // Kept for the oracle and the replays.
  std::vector<sim::RunResult> ref_runs;  // sweeps: pass 0, job order
  std::vector<std::vector<sim::RunResult>> ref_device_runs;  // lifecycle
  std::vector<std::vector<sim::IdleReport>> ref_device_idles;
  std::vector<mecc::StatSet> ref_device_stats;  // after the last idle period
  std::map<std::uint64_t, fleet::ShardResult> ref_shards;  // campaign 0
  std::map<std::size_t, Records> captured;  // in-situ traces, traced phase
};

/// A phase's host times, scaled to the reference host speed by the
/// phase's median probe time.
struct Summary {
  // Work over the phase's summed host time, not a median over passes:
  // pass rates swing with the host within a run, and over five seeds of
  // sweep_1ch the median over passes spread 4-5x wider than the sums.
  double work_per_s = 0.0;
  double wall_work_per_s = 0.0;  // the same over unscaled wall time
  // Median over the groups of their mean construction time. Construction
  // cost depends on the profile (0.09-0.24 ms on sweep_1ch), so a median
  // over single constructions would sit between profiles and jump.
  double setup_s = 0.0;
  std::vector<double> op_ms, active_ms, idle_ms;
};

[[nodiscard]] Summary summarize_phase(const Phase& p) {
  std::vector<double> probes;
  for (const Op& o : p.ops) probes.push_back(o.probe_s);
  const double probe = median(probes);
  // One scale for the whole phase: probes right after the longest
  // operations read 4-8% slower than the rest, so a scale taken from the
  // probes around each operation would scale long and short ones apart.
  const double scale = probe > 0.0 ? kProbeRefSeconds / probe : 1.0;
  Summary s;
  double work = 0.0, rate_s = 0.0, wall_s = 0.0;
  std::map<std::uint64_t, std::pair<double, std::size_t>> setups;  // sum, count
  for (const Op& o : p.ops) {
    s.op_ms.push_back(o.busy_s * scale * 1e3);
    if (o.active_s >= 0.0) {
      s.active_ms.push_back(o.active_s * scale * 1e3);
      s.idle_ms.push_back(o.idle_s * scale * 1e3);
    }
    if (o.setup_s >= 0.0) {
      setups[o.group].first += o.setup_s * scale;
      ++setups[o.group].second;
    }
    work += o.work;
    rate_s += o.rate_s * scale;
    wall_s += o.wall_s;
  }
  std::vector<double> group_setup;
  for (const auto& [g, sc] : setups) {
    group_setup.push_back(sc.first / static_cast<double>(sc.second));
  }
  s.work_per_s = ratio(work, rate_s);
  s.wall_work_per_s = ratio(work, wall_s);
  s.setup_s = median(group_setup);
  return s;
}

struct Limits {
  double seconds = 0.0;
  std::size_t min_ops = 1;
  /// Nonzero: run exactly this many schedule units (jobs, devices or
  /// campaigns) instead of timing the phase; used to repeat the untraced
  /// phase's work with spans on.
  std::uint64_t exact_units = 0;
};

[[nodiscard]] bool keep_going(Clock::time_point t0, const Limits& lim,
                              std::size_t ops, std::uint64_t units) {
  if (lim.exact_units != 0) return units < lim.exact_units;
  const double t = seconds_since(t0);
  if (t >= kPhaseCapSeconds) return false;
  return t < lim.seconds || ops < lim.min_ops;
}

void note_failure(Phase& p, const std::string& what) {
  ++p.failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

Phase run_sweep(const Args& a, const Limits& lim, SpanRecorder* rec,
                const std::vector<std::size_t>& capture_jobs) {
  Phase p;
  const auto profiles = mecc::trace::all_benchmarks();
  const std::size_t n = profiles.size();
  const bool in_situ = rec != nullptr && a.workload == Workload::kSweep1ch;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t job = 0;
  // Whole passes only, so every pass rate covers all 28 profiles.
  while ((lim.exact_units == 0 && job % n != 0) || keep_going(t0, lim, job, job)) {
    const SweepJob j = sweep_job(a.seed, job);
    const sim::SystemConfig cfg = sweep_config(a.workload, j.seed);
    ++p.attempted;
    Op op;
    op.group = job / n;
    try {
      const double s0 = cpu_seconds();
      std::unique_ptr<sim::System> sys;
      TimedSource* src = nullptr;
      {
        ScopedSpan span(rec, "sim.setup", job);
        if (in_situ) {
          auto timed = std::make_unique<TimedSource>(
              std::make_unique<mecc::trace::GeneratorSource>(
                  profiles[j.profile], stream_generator_config(cfg, 0)));
          src = timed.get();
          src->set_capture(std::find(capture_jobs.begin(), capture_jobs.end(), job) !=
                           capture_jobs.end());
          sys = std::make_unique<sim::System>(profiles[j.profile], cfg, std::move(timed));
        } else {
          sys = std::make_unique<sim::System>(profiles[j.profile], cfg);
        }
      }
      op.setup_s = cpu_seconds() - s0;
      const Clock::time_point w0 = Clock::now();
      const double r0 = cpu_seconds();
      sim::RunResult r;
      {
        ScopedSpan span(rec, "sim.run_period", job);
        r = sys->run();
        if (src != nullptr) rec->aggregate("trace.next", job, src->calls(), src->busy_s());
      }
      op.busy_s = op.rate_s = cpu_seconds() - r0;
      op.wall_s = seconds_since(w0);
      op.work = static_cast<double>(r.instructions);
      p.sim_cycles += static_cast<double>(r.cpu_cycles);
      if (r.stats.counter("sim.drain_guard_exhausted") > 0) {
        note_failure(p, "drain guard exhausted in job " + std::to_string(job));
      }
      if (job < n) {
        add_counts(p.counts, r.stats);
        if (src != nullptr && !src->records().empty()) p.captured[job] = src->records();
        p.ref_runs.push_back(std::move(r));
      }
    } catch (const std::exception& e) {
      note_failure(p, std::string("job ") + std::to_string(job) + ": " + e.what());
    }
    op.probe_s = probe_host();
    p.ops.push_back(op);
    p.units = ++job;
  }
  return p;
}

/// Runs one lifecycle device. With a phase, records one Op per burst +
/// sleep; returns false (after noting the failure) on an exception or a
/// drain-guard trip.
bool run_device(const DevicePlan& d, bool fast_forward, SpanRecorder* rec,
                std::uint64_t device, Phase* p,
                std::vector<sim::RunResult>* runs,
                std::vector<sim::IdleReport>* idles) {
  const auto& profile = mecc::trace::all_benchmarks()[d.profile];
  sim::SystemConfig cfg = lifecycle_config(d);
  cfg.fast_forward = fast_forward;
  try {
    const double s0 = cpu_seconds();
    std::unique_ptr<sim::System> sys;
    TimedSource* src = nullptr;
    {
      ScopedSpan span(rec, "sim.setup", device);
      if (rec != nullptr) {
        // Traced: time next() in situ, and keep the reference devices'
        // traces for the layer replay.
        auto timed = std::make_unique<TimedSource>(
            std::make_unique<mecc::trace::GeneratorSource>(
                profile, stream_generator_config(cfg, 0)));
        src = timed.get();
        src->set_capture(device < kRefDevices);
        sys = std::make_unique<sim::System>(profile, cfg, std::move(timed));
      } else {
        sys = std::make_unique<sim::System>(profile, cfg);
      }
    }
    double setup_s = cpu_seconds() - s0;
    for (std::size_t k = 0; k < d.bursts.size(); ++k) {
      const std::uint64_t id = device * 100 + k;
      if (p) ++p->attempted;
      const Clock::time_point w0 = Clock::now();
      const double r0 = cpu_seconds();
      sim::RunResult r;
      {
        ScopedSpan span(rec, "sim.run_period", id);
        const std::uint64_t calls0 = src ? src->calls() : 0;
        const double busy0 = src ? src->busy_s() : 0.0;
        r = sys->run_period(d.bursts[k]);
        if (src != nullptr) {
          rec->aggregate("trace.next", id, src->calls() - calls0, src->busy_s() - busy0);
        }
      }
      const double active_s = cpu_seconds() - r0;
      const double wall_s = seconds_since(w0);
      const double i0 = cpu_seconds();
      sim::IdleReport idle;
      {
        ScopedSpan span(rec, "sim.idle_period", id);
        idle = sys->idle_period(d.idle_s[k]);
      }
      const double idle_s = cpu_seconds() - i0;
      if (p) {
        Op op;
        op.group = device / profiles_per_pass();
        op.work = static_cast<double>(r.instructions);
        op.setup_s = setup_s;
        op.busy_s = active_s + idle_s;
        op.rate_s = op.active_s = active_s;
        op.wall_s = wall_s;
        op.idle_s = idle_s;
        op.probe_s = probe_host();
        p->ops.push_back(op);
        p->sim_cycles += static_cast<double>(r.cpu_cycles);
        setup_s = -1.0;
      }
      if (runs) runs->push_back(std::move(r));
      if (idles) idles->push_back(idle);
    }
    const mecc::StatSet final_stats = sys->registry().snapshot();
    if (final_stats.counter("sim.drain_guard_exhausted") > 0) {
      if (p) note_failure(*p, "drain guard exhausted on device " + std::to_string(device));
      return false;
    }
    if (p && device < kRefDevices) {
      p->ref_device_stats.push_back(final_stats);
      if (src != nullptr) p->captured[device] = src->records();
      add_counts(p->counts, final_stats);
      for (const auto& r : *runs) p->counts["sim.cpu_cycles"] += static_cast<double>(r.cpu_cycles);
    }
    return true;
  } catch (const std::exception& e) {
    if (p) note_failure(*p, "device " + std::to_string(device) + ": " + e.what());
    return false;
  }
}

Phase run_lifecycle(const Args& a, const Limits& lim, SpanRecorder* rec) {
  Phase p;
  const Clock::time_point t0 = Clock::now();
  // Whole blocks of 28 devices only: each block holds every profile once
  // (workloads.h), so every run covers the same mix.
  const std::uint64_t block = profiles_per_pass();
  for (std::uint64_t dev = 0;
       (lim.exact_units == 0 && dev % block != 0) || keep_going(t0, lim, p.ops.size(), dev);
       ++dev) {
    std::vector<sim::RunResult> runs;
    std::vector<sim::IdleReport> idles;
    (void)run_device(lifecycle_device(a.seed, dev), true, rec, dev, &p, &runs, &idles);
    if (dev < kRefDevices) {
      p.ref_device_runs.push_back(std::move(runs));
      p.ref_device_idles.push_back(std::move(idles));
    }
    p.units = dev + 1;
  }
  return p;
}

[[nodiscard]] std::string campaign_dir(const Args& a, std::uint64_t campaign) {
  return a.state_dir + "/c" + std::to_string(campaign);
}

Phase run_fleet(const Args& a, const Limits& lim, SpanRecorder* rec) {
  Phase p;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t c = 0; c == 0 || keep_going(t0, lim, c, c); ++c) {
    const std::string dir = campaign_dir(a, c);
    std::filesystem::remove_all(dir);
    const fleet::FleetConfig cfg = fleet_campaign(a.seed, c, dir);
    ++p.attempted;
    Op op;
    op.group = c;
    try {
      const double s0 = cpu_seconds();
      std::unique_ptr<fleet::Orchestrator> orch;
      {
        ScopedSpan span(rec, "fleet.setup", c);
        orch = std::make_unique<fleet::Orchestrator>(cfg);
      }
      op.setup_s = cpu_seconds() - s0;
      const Clock::time_point w0 = Clock::now();
      // The workers' CPU time is counted once run() has reaped them.
      const double r0 = cpu_seconds();
      fleet::CampaignOutcome out;
      {
        ScopedSpan span(rec, "fleet.run", c);
        out = orch->run();
      }
      op.busy_s = op.rate_s = cpu_seconds() - r0;
      op.wall_s = seconds_since(w0);
      op.work = static_cast<double>(out.devices_simulated);
      p.devices += op.work;
      if (out.exit_code != 0 || !out.completed || out.shards_degraded > 0 ||
          out.devices_simulated != cfg.devices) {
        note_failure(p, "campaign " + std::to_string(c) + " exit " +
                            std::to_string(out.exit_code) + " " + out.error);
      }
      if (c == 0) {
        for (std::uint64_t s = 0; s < out.shards_total; ++s) {
          std::string doc;
          fleet::ShardResult r;
          if (mecc::read_file(dir + "/shard_" + std::to_string(s) + ".json", &doc) &&
              fleet::parse_shard_result(doc, &r)) {
            p.ref_shards[s] = r;
          }
        }
        p.counts["fleet.shards"] = static_cast<double>(out.shards_total);
        p.counts["fleet.shards_done"] = static_cast<double>(out.shards_done);
        p.counts["fleet.retries"] = static_cast<double>(out.retries);
        p.counts["fleet.devices_simulated"] = static_cast<double>(out.devices_simulated);
        p.counts["fleet.due_events"] = static_cast<double>(out.due_events);
        p.counts["fleet.ce_events"] = static_cast<double>(out.ce_events);
        p.counts["fleet.energy_mj_per_day_sum"] = out.energy_mj_per_day_sum;
      }
    } catch (const std::exception& e) {
      note_failure(p, "campaign " + std::to_string(c) + ": " + e.what());
    }
    std::filesystem::remove_all(dir);
    op.probe_s = probe_host();
    p.ops.push_back(op);
    p.units = c + 1;
  }
  return p;
}

Phase run_phase(const Args& a, const Limits& lim, SpanRecorder* rec,
                const std::vector<std::size_t>& capture_jobs) {
  switch (a.workload) {
    case Workload::kSweep1ch:
    case Workload::kSweep8ch2r4s:
      return run_sweep(a, lim, rec, capture_jobs);
    case Workload::kLifecycleFault:
      return run_lifecycle(a, lim, rec);
    case Workload::kFleet:
      return run_fleet(a, lim, rec);
  }
  return {};
}

// ---- output checks -------------------------------------------------------

struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what.c_str());
    }
  }
};

/// The fast_forward=false oracle on one seed-chosen job / device, or the
/// in-process shard digest for the fleet. Runs outside the timed phase.
void oracle_check(const Args& a, const Phase& p, Checks& chk) {
  switch (a.workload) {
    case Workload::kSweep1ch:
    case Workload::kSweep8ch2r4s: {
      if (p.ref_runs.size() != profiles_per_pass()) {
        chk.expect(false, "first sweep pass incomplete");
        return;
      }
      const std::uint64_t job = mix_seed(a.seed, 0x6000) % profiles_per_pass();
      const SweepJob j = sweep_job(a.seed, job);
      sim::SystemConfig cfg = sweep_config(a.workload, j.seed);
      cfg.fast_forward = false;
      sim::System sys(mecc::trace::all_benchmarks()[j.profile], cfg);
      chk.expect(sim::same_simulated_result(sys.run(), p.ref_runs[job]),
                 "fast_forward=false oracle, job " + std::to_string(job));
      return;
    }
    case Workload::kLifecycleFault: {
      if (p.ref_device_runs.size() != kRefDevices) {
        chk.expect(false, "reference devices incomplete");
        return;
      }
      const std::uint64_t dev = mix_seed(a.seed, 0x6001) % kRefDevices;
      std::vector<sim::RunResult> runs;
      std::vector<sim::IdleReport> idles;
      const bool ran = run_device(lifecycle_device(a.seed, dev), false, nullptr,
                                  dev, nullptr, &runs, &idles);
      bool same = ran && runs.size() == p.ref_device_runs[dev].size();
      for (std::size_t k = 0; same && k < runs.size(); ++k) {
        const sim::IdleReport& x = idles[k];
        const sim::IdleReport& y = p.ref_device_idles[dev][k];
        same = sim::same_simulated_result(runs[k], p.ref_device_runs[dev][k]) &&
               x.lines_upgraded == y.lines_upgraded &&
               x.refresh_pulses == y.refresh_pulses &&
               x.injected_bits == y.injected_bits &&
               x.idle_energy_mj == y.idle_energy_mj;
      }
      chk.expect(same, "fast_forward=false oracle, device " + std::to_string(dev));
      return;
    }
    case Workload::kFleet: {
      const fleet::FleetConfig cfg = fleet_campaign(a.seed, 0, campaign_dir(a, 0));
      const std::uint64_t shard = mix_seed(a.seed, 0x6002) % fleet::shard_count(cfg);
      const auto it = p.ref_shards.find(shard);
      chk.expect(it != p.ref_shards.end() &&
                     it->second.digest == fleet::run_shard(cfg, shard).digest,
                 "orchestrated vs in-process digest, shard " + std::to_string(shard));
      return;
    }
  }
}

// ---- metrics output -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[nodiscard]] std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host(const Args& a) {
  mecc::JsonWriter w(0);
  w.begin_object();
  w.key("host");
  w.begin_object();
  w.key("cpu");
  w.value(host_cpu_model());
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler");
  w.value(std::string("g++ ") + __VERSION__);
  w.key("build_type");
  w.value(PERFBENCH_BUILD_TYPE);
  w.key("commit");
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  w.value(commit ? commit : "unknown");
  w.end_object();
  w.key("workload");
  w.value(workload_name(a.workload));
  w.key("seed");
  w.value(a.seed);
  w.key("trace");
  w.value(a.trace);
  w.end_object();
  std::string line = w.str();
  std::erase(line, '\n');
  std::printf("%s\n", line.c_str());
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Prints the phase's unscaled host figures (not part of the result).
void print_unscaled(const Phase& p) {
  std::vector<double> op_ms, probe_ms;
  double work = 0.0, rate_s = 0.0, wall_s = 0.0;
  for (const Op& o : p.ops) {
    op_ms.push_back(o.busy_s * 1e3);
    probe_ms.push_back(o.probe_s * 1e3);
    work += o.work;
    rate_s += o.rate_s;
    wall_s += o.wall_s;
  }
  std::printf("# unscaled: work_per_s %.6g (wall %.6g) op_ms.p50 %.6g probe_ms.p50 %.6g "
              "(reference %.6g)\n",
              ratio(work, rate_s), ratio(work, wall_s), percentile(op_ms, kP50),
              median(probe_ms), kProbeRefSeconds * 1e3);
}

[[nodiscard]] Limits main_limits(double seconds) {
  Limits lim;
  lim.seconds = seconds;
  lim.min_ops = samples_needed(kP95);
  return lim;
}

int run_untraced(const Args& a) {
  const Phase p = run_phase(a, main_limits(a.seconds), nullptr, {});
  const Summary sum = summarize_phase(p);
  Checks chk;
  oracle_check(a, p, chk);
  const std::uint64_t attempted = p.attempted + chk.run;
  const std::uint64_t failed = p.failed + chk.failed;
  std::vector<Metric> m;
  m.push_back({"work_per_s", sum.work_per_s, "1/s"});
  m.push_back({"op_ms.p50", percentile(sum.op_ms, kP50), "ms"});
  m.push_back({"op_ms.p95", percentile(sum.op_ms, kP95), "ms"});
  m.push_back({"setup_s", sum.setup_s, "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"ok_share", 1.0 - ratio(static_cast<double>(failed),
                                       static_cast<double>(attempted)), "ratio"});
  if (!percentile_supported(sum.op_ms.size(), kP95)) {
    std::fprintf(stderr, "perfbench: only %zu operations; op_ms.p95 needs %zu\n",
                 sum.op_ms.size(), samples_needed(kP95));
  }
  print_unscaled(p);
  print_result(attempted, failed, m);
  return 0;
}

int run_traced(const Args& a) {
  const bool sweep = a.workload == Workload::kSweep1ch || a.workload == Workload::kSweep8ch2r4s;
  const std::size_t n = profiles_per_pass();
  std::vector<std::size_t> replay_jobs;
  for (std::uint64_t i = 0; sweep && replay_jobs.size() < kReplayJobs; ++i) {
    const std::size_t job = mix_seed(a.seed, 0x7000 + i) % n;
    if (std::find(replay_jobs.begin(), replay_jobs.end(), job) == replay_jobs.end()) {
      replay_jobs.push_back(job);
    }
  }

  // Phase A: untraced. Phase B: the same schedule with spans on. Only the
  // lifecycle's per-period percentiles need phase A to hold 200 samples.
  Limits lim_a = main_limits(a.seconds / 2);
  if (a.workload != Workload::kLifecycleFault) lim_a.min_ops = 1;
  const Phase pa = run_phase(a, lim_a, nullptr, {});
  SpanRecorder rec;
  Limits lim_b;
  lim_b.exact_units = pa.units;
  const Phase pb = run_phase(a, lim_b, &rec, replay_jobs);

  Checks oracle;
  oracle_check(a, pa, oracle);
  Checks chk;
  chk.expect(pa.counts == pb.counts, "simulated counts identical with spans on");

  // Layer replays, outside both timed phases. Each check compares a count
  // the replayed layer computed with the one the simulation reported.
  double enqueue_attempts = 0.0;
  double enqueue_rejected = 0.0;
  double shard_devices = 0.0;
  const auto profiles = mecc::trace::all_benchmarks();
  if (sweep && pb.ref_runs.size() == n) {
    for (const std::size_t job : replay_jobs) {
      const std::string tag = ", job " + std::to_string(job);
      const SweepJob j = sweep_job(a.seed, job);
      const sim::SystemConfig cfg = sweep_config(a.workload, j.seed);
      const mecc::StatSet& st = pb.ref_runs[job].stats;
      const std::uint32_t streams = std::max<std::uint32_t>(1, cfg.streams);
      std::vector<std::uint64_t> issued(streams), reads(streams);
      for (std::uint32_t k = 0; k < streams; ++k) {
        const std::string c = streams > 1 ? "cpu.c" + std::to_string(k) + "." : "cpu.";
        reads[k] = st.counter(c + "reads_issued");
        issued[k] = reads[k] + st.counter(c + "writes_issued");
      }
      std::vector<Records> recs;
      if (a.workload == Workload::kSweep1ch) {
        const auto it = pb.captured.find(job);
        const Records& cap = it == pb.captured.end() ? Records{} : it->second;
        chk.expect(cap.size() >= issued[0] && cap.size() <= issued[0] + 1,
                   "in-situ trace records vs issued requests" + tag);
        recs.emplace_back(cap.begin(), cap.begin() + std::min<std::size_t>(cap.size(), issued[0]));
      } else {
        recs = replay_trace(profiles[j.profile], cfg, issued, rec, job);
      }
      for (std::uint32_t k = 0; k < streams; ++k) {
        std::uint64_t r = 0;
        for (const auto& x : recs[k]) r += x.is_write ? 0 : 1;
        chk.expect(r == reads[k], "trace reads vs cpu reads_issued" + tag + " stream " +
                                      std::to_string(k));
      }
      const MemctrlReplay mr = replay_memctrl(cfg, recs, rec, job);
      chk.expect(mr.completions == mr.reads, "memctrl replay completed every read" + tag);
      enqueue_attempts += static_cast<double>(mr.enqueue_attempts);
      enqueue_rejected += static_cast<double>(mr.enqueue_rejected);
      // Streams own disjoint address ranges, so each line's mode sees its
      // own stream's order. The replay decides every read System decided,
      // plus the forwarded reads (System serves them from the write queue
      // without the engine; they find a line written in this run, so weak)
      // plus any stream's final read still in flight when run() returned.
      const EngineReplay er = replay_engine(cfg, recs, rec, job);
      const std::uint64_t strong = er.stats.counter("reads_strong");
      const std::uint64_t sim_strong = st.counter("mecc.reads_strong");
      const std::uint64_t decided = strong + er.stats.counter("reads_weak");
      const std::uint64_t sim_decided =
          sim_strong + st.counter("mecc.reads_weak") +
          static_cast<std::uint64_t>(stat_sum(st, "memctrl", "reads_forwarded"));
      const std::uint64_t in_flight = decided - sim_decided;
      chk.expect(decided >= sim_decided && in_flight <= er.last_reads && strong >= sim_strong &&
                     strong - sim_strong <= std::min(in_flight, er.last_reads_strong) &&
                     er.stats.counter("downgrades") - strong ==
                         st.counter("mecc.downgrades") - sim_strong,
                 "engine replay decisions vs mecc.reads_strong/reads_weak/downgrades" + tag);
    }
  }
  if (a.workload == Workload::kLifecycleFault && pb.ref_device_stats.size() == kRefDevices) {
    for (std::uint64_t dev = 0; dev < kRefDevices; ++dev) {
      const std::string tag = ", device " + std::to_string(dev);
      const mecc::StatSet& st = pb.ref_device_stats[dev];
      const auto it = pb.captured.find(dev);
      const Records& cap = it == pb.captured.end() ? Records{} : it->second;
      std::vector<std::uint64_t> issued;
      for (const sim::RunResult& r : pb.ref_device_runs[dev]) {
        issued.push_back(r.stats.counter("cpu.reads_issued") + r.stats.counter("cpu.writes_issued"));
      }
      const std::uint64_t total = issued.empty() ? 0 : issued.back();
      std::uint64_t reads = 0;
      for (std::size_t i = 0; i < total && i < cap.size(); ++i) reads += cap[i].is_write ? 0 : 1;
      chk.expect(cap.size() >= total && cap.size() <= total + 1 &&
                     reads == st.counter("cpu.reads_issued"),
                 "in-situ trace records vs issued requests" + tag);
      const DeviceReplay dr =
          replay_device(lifecycle_config(lifecycle_device(a.seed, dev)), cap, issued, rec, dev);
      const auto same = [&](const mecc::StatSet& got, const char* key, const std::string& sim_key) {
        return got.counter(key) == st.counter(sim_key);
      };
      chk.expect(same(dr.engine, "reads_strong", "mecc.reads_strong") &&
                     same(dr.engine, "downgrades", "mecc.downgrades") &&
                     same(dr.engine, "idle_entries", "mecc.idle_entries") &&
                     same(dr.engine, "lines_upgraded", "mecc.lines_upgraded") &&
                     dr.engine.counter("reads_weak") ==
                         st.counter("mecc.reads_weak") + st.counter("memctrl.reads_forwarded"),
                 "device replay engine counts vs mecc.*" + tag);
      bool errors_same = dr.unslotted_shadow_reads == 0;
      for (const char* k : {"shadow_writes", "injections", "injected_bits", "ce", "ce_bits",
                            "due", "silent", "retries", "scrubs", "forced_upgrades"}) {
        errors_same = errors_same && same(dr.errors, k, std::string("errors.") + k);
      }
      // Forwarded reads are replayed too; some of them hit shadowed lines.
      const std::uint64_t sr = dr.errors.counter("shadow_reads");
      const std::uint64_t sim_sr = st.counter("errors.shadow_reads");
      chk.expect(errors_same && sr >= sim_sr &&
                     sr - sim_sr <= st.counter("memctrl.reads_forwarded"),
                 "device replay shadow counts vs errors.*" + tag);
    }
  }
  if (a.workload == Workload::kFleet) {
    const fleet::FleetConfig cfg = fleet_campaign(a.seed, 0, campaign_dir(a, 0));
    for (std::uint64_t s = 0; s < 2 && s < fleet::shard_count(cfg); ++s) {
      const std::uint64_t shard = (mix_seed(a.seed, 0x7200) + s) % fleet::shard_count(cfg);
      fleet::ShardResult r;
      {
        ScopedSpan span(&rec, "fleet.run_shard", shard);
        r = fleet::run_shard(cfg, shard);
      }
      shard_devices += static_cast<double>(r.devices);
      const auto it = pb.ref_shards.find(shard);
      chk.expect(it != pb.ref_shards.end() && it->second.digest == r.digest &&
                     it->second.devices == r.devices,
                 "fleet shard replay digest, shard " + std::to_string(shard));
    }
  }

  if (!a.spans_out.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(a.spans_out).parent_path());
    (void)mecc::atomic_write_file(a.spans_out, rec.json());
  }

  const auto L = summarize(rec.spans());
  const auto T = [&L](const std::string& name) {
    const auto it = L.find(name);
    return it == L.end() ? LayerTotals{} : it->second;
  };
  const Counts& c = pa.counts;
  const auto C = [&c](const std::string& k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  const std::uint64_t attempted = pa.attempted + pb.attempted + oracle.run + chk.run;
  const std::uint64_t failed = pa.failed + pb.failed + oracle.failed + chk.failed;
  const bool fleet_w = a.workload == Workload::kFleet;
  const Summary sa = summarize_phase(pa);
  const Summary sb = summarize_phase(pb);
  const double mips_a = fleet_w ? 0.0 : sa.work_per_s / 1e6;
  const double mips_b = fleet_w ? 0.0 : sb.work_per_s / 1e6;

  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, v, unit});
  };
  // Workload-specific end-to-end figures of the untraced half.
  add("sim_mips", mips_a, "MIPS");
  add("active_period_ms.p50", percentile(sa.active_ms, kP50), "ms");
  add("active_period_ms.p95", percentile(sa.active_ms, kP95), "ms");
  add("idle_period_ms.p50", percentile(sa.idle_ms, kP50), "ms");
  add("idle_period_ms.p95", percentile(sa.idle_ms, kP95), "ms");
  // Wall time: the campaign's throughput as its user sees it, parallel
  // workers and waits included.
  add("fleet_devices_per_s", fleet_w ? sa.wall_work_per_s : 0.0, "1/s");
  add("error_rate", ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  add("tracing.sim_mips_delta", mips_b - mips_a, "MIPS");
  add("tracing.overhead_share", 1.0 - ratio(sb.work_per_s, sa.work_per_s), "ratio");
  // sim
  const LayerTotals setup = T(fleet_w ? "fleet.setup" : "sim.setup");
  add("sim.setup.calls", static_cast<double>(setup.calls), "count");
  add("sim.setup.busy_s", setup.busy_s, "s");
  const LayerTotals run = T("sim.run_period");
  add("sim.run_period.calls", static_cast<double>(run.calls), "count");
  add("sim.run_period.busy_s", run.busy_s, "s");
  add("sim.run_period.self_s", run.self_s, "s");
  add("sim.host_ns_per_cpu_cycle", ratio(run.busy_s * 1e9, pb.sim_cycles), "ns");
  const LayerTotals idle = T("sim.idle_period");
  add("sim.idle_period.calls", static_cast<double>(idle.calls), "count");
  add("sim.idle_period.busy_s", idle.busy_s, "s");
  add("sim.oracle_checks", static_cast<double>(oracle.run), "count");
  add("sim.oracle_mismatches", static_cast<double>(oracle.failed), "count");
  add("sim.counts_digest", counts_digest(c), "id");
  // trace
  const LayerTotals next = T("trace.next");
  add("trace.next.calls", static_cast<double>(next.calls), "count");
  add("trace.next.busy_s", next.busy_s, "s");
  add("trace.ns_per_record", ratio(next.busy_s * 1e9, static_cast<double>(next.calls)), "ns");
  // memctrl / dram
  const LayerTotals tick = T("memctrl.tick");
  const LayerTotals nev = T("memctrl.next_event");
  add("memctrl.tick.calls", static_cast<double>(tick.calls), "count");
  add("memctrl.tick.busy_s", tick.busy_s, "s");
  add("memctrl.next_event.calls", static_cast<double>(nev.calls), "count");
  add("memctrl.next_event.busy_s", nev.busy_s, "s");
  add("memctrl.enqueue.rejected_ratio",
      ratio(enqueue_rejected, enqueue_attempts), "ratio");
  add("memctrl.reads_enqueued", C("memctrl.reads_enqueued"), "count");
  add("memctrl.writes_enqueued", C("memctrl.writes_enqueued"), "count");
  add("memctrl.row_hit_ratio",
      ratio(C("memctrl.row_hits"),
            C("memctrl.row_hits") + C("memctrl.row_misses") + C("memctrl.row_conflicts")),
      "ratio");
  add("memctrl.read_latency_mean_mem_cycles",
      ratio(C("memctrl.read_latency_mem_cycles"), C("memctrl.reads_enqueued")), "mem_cycles");
  add("dram.activates", C("dram.activates"), "count");
  add("dram.refreshes", C("dram.refreshes"), "count");
  add("dram.self_refresh_pulses", C("dram.self_refresh_pulses"), "count");
  // mecc / ecc
  const LayerTotals on_read = T("mecc.engine.on_read");
  add("mecc.engine.on_read.calls", static_cast<double>(on_read.calls), "count");
  add("mecc.engine.on_read.busy_s", on_read.busy_s, "s");
  for (const char* op : {"store_strong", "store_weak", "load", "load_batch"}) {
    const LayerTotals t = T(std::string("mecc.codec.") + op);
    add(std::string("mecc.codec.") + op + ".lines_per_s",
        ratio(static_cast<double>(t.calls), t.busy_s), "1/s");
  }
  add("mecc.image.upgrade_all.busy_s", T("mecc.image.upgrade_all").busy_s, "s");
  add("mecc.reads_strong", C("mecc.reads_strong"), "count");
  add("mecc.downgrades", C("mecc.downgrades"), "count");
  add("mecc.lines_upgraded", C("mecc.lines_upgraded"), "count");
  add("errors.shadow_writes", C("errors.shadow_writes"), "count");
  add("errors.shadow_reads", C("errors.shadow_reads"), "count");
  // reliability
  const LayerTotals inj = T("reliability.inject");
  add("reliability.inject.calls", static_cast<double>(inj.calls), "count");
  add("reliability.inject.busy_s", inj.busy_s, "s");
  add("errors.injected_bits", C("errors.injected_bits"), "count");
  // cpu / power
  add("cpu.retired_insts", C("cpu.retired_insts"), "count");
  add("cpu.cycles", C("cpu.cycles"), "count");
  add("cpu.stall_share", ratio(C("cpu.stall_cycles"), C("cpu.cycles")), "ratio");
  add("power.total_mj", C("power.total_mj"), "mJ");
  // fleet
  add("fleet.shards", C("fleet.shards"), "count");
  add("fleet.retries", C("fleet.retries"), "count");
  const LayerTotals shard = T("fleet.run_shard");
  const double shard_rate = ratio(shard_devices, shard.busy_s);
  add("fleet.run_shard.devices_per_s", shard_rate, "1/s");
  const LayerTotals frun = T("fleet.run");
  const double workers = fleet_campaign(a.seed, 0, a.state_dir).jobs;
  add("fleet.orchestration_share",
      fleet_w ? 1.0 - ratio(ratio(pb.devices, shard_rate), frun.busy_s * workers) : 0.0,
      "ratio");
  print_result(attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  namespace fleet = mecc::sim::fleet;
  if (fleet::is_fleet_worker_invocation(argc, argv)) {
    return fleet::worker_main(argc, argv);
  }
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: mecc_perfbench --workload "
                 "sweep_1ch|sweep_8ch2r4s|lifecycle_fault|fleet --seed N "
                 "--seconds S --trace 0|1 [--state-dir DIR] [--spans-out FILE]\n");
    return 2;
  }
  perfbench::print_host(*args);
  const int rc = args->trace ? perfbench::run_traced(*args)
                             : perfbench::run_untraced(*args);
  std::filesystem::remove_all(args->state_dir);
  std::fflush(stdout);
  return rc;
}
