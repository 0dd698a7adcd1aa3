#include "spans.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/json.h"

namespace perfbench {

std::size_t SpanRecorder::open(const std::string& name,
                               std::uint64_t request) {
  Span s;
  s.name = name;
  s.start_s = seconds_since(epoch_);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.request = request;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
  Span& s = spans_[index];
  s.end_s = seconds_since(epoch_);
  s.busy_s = s.end_s - s.start_s;
}

void SpanRecorder::aggregate(const std::string& name, std::uint64_t request,
                             std::uint64_t calls, double busy_s) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].start_s
                            : 0.0;
  s.end_s = seconds_since(epoch_);
  s.request = request;
  s.calls = calls;
  s.busy_s = busy_s;
  spans_.push_back(std::move(s));
}

std::string SpanRecorder::json() const {
  mecc::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("ph");
    w.value("X");
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{1});
    w.key("ts");
    w.value(s.start_s * 1e6);
    w.key("dur");
    w.value((s.end_s - s.start_s) * 1e6);
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::uint64_t>(i));
    w.key("parent");
    w.value(static_cast<std::int64_t>(s.parent));
    w.key("request");
    w.value(s.request);
    w.key("calls");
    w.value(s.calls);
    w.key("busy_s");
    w.value(s.busy_s);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::map<std::string, LayerTotals> summarize(const std::vector<Span>& spans) {
  std::vector<double> child_busy(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_busy[static_cast<std::size_t>(s.parent)] += s.busy_s;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    t.calls += spans[i].calls;
    t.busy_s += spans[i].busy_s;
    t.self_s += std::max(0.0, spans[i].busy_s - child_busy[i]);
  }
  return out;
}

bool percentile_supported(std::size_t n, double q) {
  if (n == 0) return false;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (!percentile_supported(n, q)) ++n;
  return n;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

[[nodiscard]] double clock_seconds(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID) + tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double probe_host() {
  // Sorts the same 4096 pseudo-random keys each time: unpredictable
  // branches over L1-resident data. Of the loops tried against the
  // simulator's per-pass speed on the development host (a dependent
  // table walk, independent multiply chains, std::map updates, this
  // sort), the sort's speed followed the simulator's most closely, with
  // a log-log slope of 1.1. The first pass is untimed: it brings back
  // the lines the operation before it evicted, so the timed second pass
  // sees a warm cache whatever that operation's working set was.
  static std::vector<std::uint32_t> keys(4096);
  static volatile std::uint32_t sink = 0;
  const auto sort_keys = [] {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x);
    }
    std::sort(keys.begin(), keys.end());
    return keys[keys.size() / 2];
  };
  sink = sink + sort_keys();
  const double t0 = thread_cpu_seconds();
  const std::uint32_t mid = sort_keys();
  const double t = thread_cpu_seconds() - t0;
  sink = sink + mid;
  return t;
}

}  // namespace perfbench
