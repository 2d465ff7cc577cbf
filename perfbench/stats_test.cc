// The benchmark's own statistics: percentile selection under the
// ten-samples-beyond rule, the median rate, self time by subtraction, and the
// span and result JSON the benchmark prints.

#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

TEST(TailQuantileTest, ReportsTheAskedPercentileWithEnoughSamplesBeyond) {
  // 2000 samples: rank ceil(0.99 * 2000) = 1980 leaves 20 beyond.
  Quantile q = TailQuantile(OneTo(2000), 0.99);
  EXPECT_DOUBLE_EQ(q.q, 0.99);
  EXPECT_DOUBLE_EQ(q.value, 1980);
  EXPECT_EQ(q.samples, 2000u);
  EXPECT_EQ(q.beyond, 20u);
}

TEST(TailQuantileTest, ExactlyTenBeyondIsEnough) {
  Quantile q = TailQuantile(OneTo(1000), 0.99);
  EXPECT_DOUBLE_EQ(q.q, 0.99);
  EXPECT_DOUBLE_EQ(q.value, 990);
  EXPECT_EQ(q.beyond, 10u);
}

TEST(TailQuantileTest, FallsBackToTheHighestRankWithTenBeyond) {
  // 100 samples: p99 would leave one beyond; rank 90 is the highest with ten.
  Quantile q = TailQuantile(OneTo(100), 0.99);
  EXPECT_DOUBLE_EQ(q.value, 90);
  EXPECT_DOUBLE_EQ(q.q, 0.90);
  EXPECT_EQ(q.beyond, kMinBeyond);
}

TEST(TailQuantileTest, TooFewSamplesGiveTheMedian) {
  Quantile q = TailQuantile(OneTo(7), 0.99);
  EXPECT_DOUBLE_EQ(q.q, 0.5);
  EXPECT_DOUBLE_EQ(q.value, 4);
  EXPECT_EQ(q.beyond, 3u);
}

TEST(TailQuantileTest, NoSamplesGiveZeros) {
  Quantile q = TailQuantile({}, 0.99);
  EXPECT_EQ(q.samples, 0u);
  EXPECT_DOUBLE_EQ(q.value, 0);
}

TEST(MedianTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2);  // rank ceil(0.5 * 4) = 2
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(MedianRateTest, FollowsTheSteadyRateThroughAStall) {
  // 1000 events per second, with one 2 s stall after event 500.
  std::vector<int64_t> events;
  int64_t t = 0;
  for (int i = 0; i < 1001; ++i) {
    events.push_back(t);
    t += i == 500 ? 2'000'000'000 : 1'000'000;
  }
  EXPECT_DOUBLE_EQ(MedianRate(events, 100), 1000);
}

TEST(MedianRateTest, ShortStreamsGiveTheOverallRate) {
  EXPECT_DOUBLE_EQ(MedianRate({2'000'000'000, 0, 1'000'000'000}, 100), 1);  // unsorted
  EXPECT_DOUBLE_EQ(MedianRate({5}, 100), 0);
}

TEST(SelfNsTest, SubtractsDisjointChildren) {
  // A 100 ns Extend spent 30 ns materializing and 25 ns restoring.
  EXPECT_EQ(SelfNs(100, {30, 25}), 45);
  EXPECT_EQ(SelfNs(100, {}), 100);
}

TEST(SelfNsTest, KeepsANegativeResultVisible) {
  // Remote minus in-process for the same request can come out negative; the
  // benchmark reports it as measured.
  EXPECT_EQ(SelfNs(50, {70}), -20);
}

TEST(FormatNumberTest, ShortestRoundTripAndNoNonFiniteNumbers) {
  EXPECT_EQ(FormatNumber(1.2034), "1.2034");
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(FormatNumber(724), "724");
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::stod(FormatNumber(third)), third);
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ResultJsonTest, HasExactlyTheContractKeys) {
  std::vector<Metric> metrics = {{"latency_ms", "ms", 1.25}, {"setup_s", "s", 0.5}};
  EXPECT_EQ(ResultJson(true, 1000, 0, metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_EQ(ResultJson(false, 3, 1, {}),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}");
}

TEST(SpanJsonTest, CarriesRequestIdParentAndCounters) {
  Span span;
  span.name = "host.extend";
  span.replay = "pool";
  span.parent = "pool.request";
  span.tenant = 2;
  span.seq = 17;
  span.start_ns = 1000;
  span.dur_ns = 250;
  span.counters = {{"snapshot_ns", 40}, {"restore_ns", 30}};
  EXPECT_EQ(SpanJson(span),
            "{\"name\":\"host.extend\",\"replay\":\"pool\",\"parent\":\"pool.request\","
            "\"tenant\":2,\"seq\":17,\"start_ns\":1000,\"dur_ns\":250,"
            "\"counters\":{\"snapshot_ns\":40,\"restore_ns\":30}}");
}

TEST(SpanJsonTest, WritesOneLinePerSpan) {
  const std::string path = ::testing::TempDir() + "/perfbench_spans.jsonl";
  Span a;
  a.name = "client.extend";
  Span b;
  b.name = "client.release";
  b.seq = 1;
  ASSERT_TRUE(WriteSpans(path, {a, b}));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], SpanJson(a));
  EXPECT_EQ(lines[1], SpanJson(b));
}

}  // namespace
}  // namespace perfbench
