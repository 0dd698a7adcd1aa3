// Benchmark workloads: every input is generated here from --seed, and the
// same seed always gives the same schedule. README.md gives the reason
// each workload exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/fleet.h"
#include "sim/system.h"

namespace perfbench {

enum class Workload { kSweep1ch, kSweep8ch2r4s, kLifecycleFault, kFleet };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

/// splitmix64 finalizer: derives independent sub-seeds from one seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---- geometry sweeps ------------------------------------------------

/// Table III profiles per sweep pass.
[[nodiscard]] std::size_t profiles_per_pass();

/// One closed-loop job of a sweep: profile index and System seed. Job j
/// belongs to pass j / 28 and runs profile j % 28 with seed
/// suite_seed(pass seed, profile), the pass seed being drawn from --seed.
struct SweepJob {
  std::size_t profile = 0;
  std::uint64_t seed = 0;
};
[[nodiscard]] SweepJob sweep_job(std::uint64_t seed, std::uint64_t job);

/// The System configuration of a sweep job (MECC, fast-forward on).
[[nodiscard]] mecc::sim::SystemConfig sweep_config(Workload w,
                                                   std::uint64_t job_seed);

// ---- MECC lifecycle with the fault campaign -------------------------

/// One simulated device: a Table III profile drawn by class share, a
/// shadow capacity in [4096, 65536] lines, and alternating active bursts
/// (instructions) and idle sleeps (seconds).
struct DevicePlan {
  std::size_t profile = 0;
  std::uint64_t seed = 0;
  std::size_t shadow_lines = 0;
  std::vector<mecc::InstCount> bursts;
  std::vector<double> idle_s;
};
[[nodiscard]] DevicePlan lifecycle_device(std::uint64_t seed,
                                          std::uint64_t device);
[[nodiscard]] mecc::sim::SystemConfig lifecycle_config(const DevicePlan& d);

// ---- fleet campaign --------------------------------------------------

/// Campaign k of the fleet workload, checkpointing under state_dir.
[[nodiscard]] mecc::sim::fleet::FleetConfig fleet_campaign(
    std::uint64_t seed, std::uint64_t campaign, const std::string& state_dir);

}  // namespace perfbench
