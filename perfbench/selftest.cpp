// Tests of the benchmark's own code: the percentile rule, self-time
// arithmetic, and the seeded workload schedules.
#include <gtest/gtest.h>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(0, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));  // rank 10, 9 beyond
  EXPECT_TRUE(percentile_supported(20, 0.5));   // rank 10, 10 beyond
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(200, 0.95));  // rank 190, 10 beyond
  EXPECT_EQ(samples_needed(0.5), 20u);
  EXPECT_EQ(samples_needed(0.95), 200u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.95), 95.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // parent [0, 10] with children [1, 3] and an aggregate of 4 s; the
  // first child has its own child [1, 2] that must not be subtracted
  // from the parent twice.
  std::vector<Span> s(4);
  s[0] = {"run", 0.0, 10.0, -1, 7, 1, 10.0};
  s[1] = {"tick", 1.0, 3.0, 0, 7, 1, 2.0};
  s[2] = {"inner", 1.0, 2.0, 1, 7, 1, 1.0};
  s[3] = {"next", 0.0, 10.0, 0, 7, 1000, 4.0};
  const auto t = summarize(s);
  EXPECT_DOUBLE_EQ(t.at("run").busy_s, 10.0);
  EXPECT_DOUBLE_EQ(t.at("run").self_s, 4.0);
  EXPECT_DOUBLE_EQ(t.at("tick").self_s, 1.0);
  EXPECT_DOUBLE_EQ(t.at("inner").self_s, 1.0);
  EXPECT_EQ(t.at("next").calls, 1000u);
  EXPECT_DOUBLE_EQ(t.at("next").self_s, 4.0);
}

TEST(Spans, RecorderNestsAndSums) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", 1);
    { ScopedSpan inner(&rec, "inner", 1); }
    rec.aggregate("calls", 1, 5, 0.0);
  }
  { ScopedSpan again(&rec, "outer", 2); }
  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[3].parent, -1);
  const auto t = summarize(rec.spans());
  EXPECT_EQ(t.at("outer").calls, 2u);
  EXPECT_EQ(t.at("calls").calls, 5u);
  EXPECT_LE(t.at("outer").self_s, t.at("outer").busy_s);
  EXPECT_GE(t.at("outer").self_s, 0.0);
}

TEST(HostTime, ProbeAndCpuClocksAdvance) {
  const double t0 = cpu_seconds();
  EXPECT_GT(probe_host(), 0.0);
  EXPECT_GT(cpu_seconds(), t0);
}

TEST(Workloads, SameSeedSameScheduleOtherSeedDiffers) {
  for (std::uint64_t job = 0; job < 60; ++job) {
    EXPECT_EQ(sweep_job(5, job).seed, sweep_job(5, job).seed);
    EXPECT_EQ(sweep_job(5, job).profile, job % profiles_per_pass());
  }
  EXPECT_NE(sweep_job(5, 0).seed, sweep_job(6, 0).seed);
  EXPECT_NE(sweep_job(5, 0).seed, sweep_job(5, 28).seed);  // next pass

  bool differs = false;
  for (std::uint64_t d = 0; d < 8; ++d) {
    const DevicePlan a = lifecycle_device(5, d);
    const DevicePlan b = lifecycle_device(5, d);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.shadow_lines, b.shadow_lines);
    EXPECT_EQ(a.bursts, b.bursts);
    EXPECT_EQ(a.idle_s, b.idle_s);
    const DevicePlan c = lifecycle_device(6, d);
    differs = differs || c.profile != a.profile || c.shadow_lines != a.shadow_lines ||
              c.seed != a.seed || c.idle_s != a.idle_s;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(fleet_campaign(5, 0, "d").seed, fleet_campaign(5, 0, "d").seed);
  EXPECT_NE(fleet_campaign(5, 0, "d").seed, fleet_campaign(6, 0, "d").seed);
}

TEST(Workloads, LifecycleDrawsCoverClassesAndCapacities) {
  // Each block of 28 devices holds every profile once; each block of 7
  // spans every shadow-capacity band in [4096, 65536].
  std::vector<int> seen(profiles_per_pass(), 0);
  for (std::uint64_t d = 0; d < profiles_per_pass(); ++d) {
    ++seen[lifecycle_device(9, d).profile];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  std::size_t lo = 1u << 30, hi = 0;
  for (std::uint64_t d = 0; d < 7; ++d) {
    const std::size_t lines = lifecycle_device(9, d).shadow_lines;
    EXPECT_GE(lines, 4096u);
    EXPECT_LE(lines, 65536u);
    lo = std::min(lo, lines);
    hi = std::max(hi, lines);
  }
  EXPECT_LT(lo, 6058u);   // first band: [2^12, 2^(12 + 4/7))
  EXPECT_GE(hi, 44000u);  // last band: [2^(12 + 24/7), 2^16)
}

}  // namespace
}  // namespace perfbench
