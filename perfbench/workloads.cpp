#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "sim/experiment.h"
#include "trace/benchmarks.h"

namespace perfbench {

namespace {

// Sweep job length: long enough that per-job set-up is a small share of
// the job, short enough that a 1-thread pass of 28 jobs fits a run.
constexpr mecc::InstCount kSweep1chInsts = 2'000'000;
constexpr mecc::InstCount kSweep8chInsts = 1'000'000;

// Lifecycle shape after Fig. 1: fixed active bursts (the 120 s burst,
// scaled to a 100k-instruction slice) between idle stays of 2280 s mean
// (95% idle), lognormal with sigma 0.35.
constexpr std::size_t kPeriodsPerDevice = 6;
constexpr mecc::InstCount kBurstInsts = 100'000;
constexpr double kMeanIdleSeconds = 2280.0;
constexpr double kIdleSigma = 0.35;
// Shadow capacity strata: log2(lines) in [12, 16] cut into this many
// equal bands; every block of that many devices draws once from each
// band, so each block of 28 devices holds every band four times.
constexpr std::size_t kShadowStrata = 7;

[[nodiscard]] std::vector<std::size_t> block_permutation(std::uint64_t seed,
                                                         std::uint64_t salt,
                                                         std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  mecc::Rng rng(mix_seed(seed, salt));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.next_below(i)]);
  }
  return p;
}

[[nodiscard]] double lognormal(mecc::Rng& rng, double mean, double sigma) {
  // Box-Muller; the mean of the lognormal stays `mean`.
  const double u1 = std::max(rng.next_double(), 1e-12);
  const double u2 = rng.next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean * std::exp(sigma * z - 0.5 * sigma * sigma);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kSweep1ch, Workload::kSweep8ch2r4s,
                     Workload::kLifecycleFault, Workload::kFleet}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSweep1ch:
      return "sweep_1ch";
    case Workload::kSweep8ch2r4s:
      return "sweep_8ch2r4s";
    case Workload::kLifecycleFault:
      return "lifecycle_fault";
    case Workload::kFleet:
      return "fleet";
  }
  return "?";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t profiles_per_pass() { return mecc::trace::all_benchmarks().size(); }

SweepJob sweep_job(std::uint64_t seed, std::uint64_t job) {
  const std::size_t n = profiles_per_pass();
  const std::uint64_t pass = job / n;
  SweepJob j;
  j.profile = static_cast<std::size_t>(job % n);
  j.seed = mecc::sim::suite_seed(mix_seed(seed, pass) >> 16, j.profile);
  return j;
}

mecc::sim::SystemConfig sweep_config(Workload w, std::uint64_t job_seed) {
  mecc::sim::SystemConfig c;
  c.policy = mecc::sim::EccPolicy::kMecc;
  c.fast_forward = true;
  c.seed = job_seed;
  if (w == Workload::kSweep8ch2r4s) {
    c.instructions = kSweep8chInsts;
    c.geometry.channels = 8;
    c.geometry.ranks = 2;
    c.streams = 4;
  } else {
    c.instructions = kSweep1chInsts;
  }
  return c;
}

DevicePlan lifecycle_device(std::uint64_t seed, std::uint64_t device) {
  const std::size_t n_profiles = profiles_per_pass();
  DevicePlan d;
  // Each block of 28 devices holds every Table III profile once, so the
  // low/medium/high classes appear exactly at their 7/10/11 shares.
  d.profile = block_permutation(seed, 0x1000 + device / n_profiles,
                                n_profiles)[device % n_profiles];
  d.seed = mix_seed(seed, 0x2000 + device) >> 16;
  mecc::Rng rng(mix_seed(seed, 0x3000 + device));
  const std::size_t stratum = block_permutation(
      seed, 0x4000 + device / kShadowStrata, kShadowStrata)[device % kShadowStrata];
  const double lo = 12.0 + 4.0 * static_cast<double>(stratum) / kShadowStrata;
  const double log2_lines = lo + 4.0 / kShadowStrata * rng.next_double();
  d.shadow_lines = static_cast<std::size_t>(std::exp2(log2_lines));
  for (std::size_t p = 0; p < kPeriodsPerDevice; ++p) {
    d.bursts.push_back(kBurstInsts);
    d.idle_s.push_back(lognormal(rng, kMeanIdleSeconds, kIdleSigma));
  }
  return d;
}

mecc::sim::SystemConfig lifecycle_config(const DevicePlan& d) {
  mecc::sim::SystemConfig c;
  c.policy = mecc::sim::EccPolicy::kMecc;
  c.fast_forward = true;
  c.seed = d.seed;
  // Footprint and phase length scale with the device's whole active time.
  c.instructions = std::accumulate(d.bursts.begin(), d.bursts.end(),
                                   mecc::InstCount{0});
  c.fault.enabled = true;
  c.fault.shadow_lines = d.shadow_lines;
  return c;
}

mecc::sim::fleet::FleetConfig fleet_campaign(std::uint64_t seed,
                                             std::uint64_t campaign,
                                             const std::string& state_dir) {
  mecc::sim::fleet::FleetConfig c;
  c.devices = 80'000;
  c.devices_per_shard = 10'000;
  c.seed = mix_seed(seed, 0x5000 + campaign) >> 16;
  c.jobs = 2;
  c.state_dir = state_dir;
  return c;
}

}  // namespace perfbench
