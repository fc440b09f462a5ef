// MetricsRegistry semantics: stable references, non-creating lookups,
// deterministic JSON snapshots — plus the Histogram const-query contract
// the registry relies on (Percentile/Min/Max never reorder samples_).
#include "obs/metrics.h"

#include <string>

#include <gtest/gtest.h>

#include "common/histogram.h"

namespace thunderbolt::obs {
namespace {

TEST(MetricsRegistryTest, GetCounterReturnsStableReference) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("pool.restarts");
  c.Inc();
  c.Inc(4);
  // Same name resolves to the same object; the value accumulated.
  EXPECT_EQ(&registry.GetCounter("pool.restarts"), &c);
  EXPECT_EQ(registry.GetCounter("pool.restarts").value(), 5u);
  // A different name is a different metric.
  EXPECT_NE(&registry.GetCounter("pool.batches"), &c);
  EXPECT_EQ(registry.GetCounter("pool.batches").value(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("store.live_keys");
  g.Set(10.0);
  g.Add(2.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("store.live_keys").value(), 12.5);
  g.Set(-1.0);  // Last write wins.
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsRegistryTest, HistogramObserveMergeSnapshot) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.GetHistogram("latency_us");
  h.Observe(1.0);
  h.Observe(3.0);
  Histogram local;
  local.Add(2.0);
  h.Merge(local);
  Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.Count(), 3u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(snap.Median(), 2.0);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("never.registered"), nullptr);
  EXPECT_EQ(registry.FindGauge("never.registered"), nullptr);
  EXPECT_EQ(registry.FindHistogram("never.registered"), nullptr);
  // The probe must not have materialized an entry in the snapshot.
  EXPECT_EQ(registry.ToJson().find("never.registered"), std::string::npos);

  Counter& c = registry.GetCounter("real");
  c.Inc(7);
  const Counter* found = registry.FindCounter("real");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &c);
  EXPECT_EQ(found->value(), 7u);
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndSorted) {
  auto populate = [](MetricsRegistry* r) {
    r->GetCounter("b.second").Inc(2);
    r->GetCounter("a.first").Inc(1);
    r->GetGauge("z.gauge").Set(1.5);
    r->GetHistogram("m.hist").Observe(10.0);
  };
  MetricsRegistry r1, r2;
  populate(&r1);
  populate(&r2);
  const std::string json = r1.ToJson();
  // Same contents -> same bytes, regardless of registration order effects.
  EXPECT_EQ(json, r2.ToJson());
  // Keys appear in sorted order within each section.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("z.gauge"), std::string::npos);
  EXPECT_NE(json.find("m.hist"), std::string::npos);
  EXPECT_NE(json.find("counters"), std::string::npos);
}

// Empty histograms must not fabricate statistics: a registered-but-never-
// observed histogram snapshots as {"count": 0} alone, since 0.0
// percentiles would be indistinguishable from a genuinely instant run.
TEST(MetricsRegistryTest, EmptyHistogramOmitsPercentiles) {
  MetricsRegistry registry;
  registry.GetHistogram("cluster.commit_latency_us");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"cluster.commit_latency_us\": {\"count\": 0}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("mean"), std::string::npos) << json;
  EXPECT_EQ(json.find("p50"), std::string::npos) << json;

  // One observation restores the full stats block.
  registry.GetHistogram("cluster.commit_latency_us").Observe(2.0);
  const std::string with_sample = registry.ToJson();
  EXPECT_NE(with_sample.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(with_sample.find("\"p50\""), std::string::npos);
  EXPECT_NE(with_sample.find("\"mean\""), std::string::npos);
}

TEST(LabeledMetricsTest, LabeledNameSortsKeysAndAcceptsIntegers) {
  // Keys sort, values keep their spelling; integral label values are
  // stringified so call sites can pass a shard id directly.
  EXPECT_EQ(LabeledName("cluster.shard.commits", {{"shard", 3}}),
            "cluster.shard.commits{shard=3}");
  EXPECT_EQ(LabeledName("m", {{"zone", "us"}, {"shard", 1}}),
            "m{shard=1,zone=us}");
  EXPECT_EQ(LabeledName("m", {{"shard", 1}, {"zone", "us"}}),
            LabeledName("m", {{"zone", "us"}, {"shard", 1}}));
  // No labels degenerates to the bare name.
  EXPECT_EQ(LabeledName("m", {}), "m");
}

TEST(LabeledMetricsTest, LabelSetsResolveToDistinctStableEntries) {
  MetricsRegistry registry;
  Counter& shard0 = registry.GetCounter("cluster.shard.commits", {{"shard", 0}});
  Counter& shard1 = registry.GetCounter("cluster.shard.commits", {{"shard", 1}});
  EXPECT_NE(&shard0, &shard1);
  // Same labels in any order -> the same entry.
  EXPECT_EQ(&registry.GetCounter("m", {{"a", 1}, {"b", 2}}),
            &registry.GetCounter("m", {{"b", 2}, {"a", 1}}));
  // The unlabeled name is its own metric, unrelated to the labeled ones.
  Counter& bare = registry.GetCounter("cluster.shard.commits");
  EXPECT_NE(&bare, &shard0);

  shard0.Inc(4);
  shard1.Inc(9);
  const Counter* found =
      registry.FindCounter("cluster.shard.commits", {{"shard", 1}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 9u);
  EXPECT_EQ(registry.FindCounter("cluster.shard.commits", {{"shard", 7}}),
            nullptr);

  // Labeled gauges and histograms ride the same encoding.
  registry.GetGauge("pool.depth", {{"shard", 2}}).Set(5.0);
  ASSERT_NE(registry.FindGauge("pool.depth", {{"shard", 2}}), nullptr);
  registry.GetHistogram("lat_us", {{"shard", 2}}).Observe(1.0);
  ASSERT_NE(registry.FindHistogram("lat_us", {{"shard", 2}}), nullptr);

  // The encoded names serialize (sorted) into the snapshot, so labeled
  // series survive a --metrics-out round trip.
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("cluster.shard.commits{shard=0}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("cluster.shard.commits{shard=1}"), std::string::npos);
  EXPECT_LT(json.find("cluster.shard.commits{shard=0}"),
            json.find("cluster.shard.commits{shard=1}"));
}

// The registry snapshots histograms through const references; these
// queries must be genuinely const: they select on a copy, never samples_.
TEST(HistogramConstQueryTest, QueriesDoNotReorderSamples) {
  Histogram h;
  h.Add(3.0);
  h.Add(1.0);
  h.Add(2.0);
  const Histogram& view = h;
  EXPECT_DOUBLE_EQ(view.Min(), 1.0);
  EXPECT_DOUBLE_EQ(view.Max(), 3.0);
  EXPECT_DOUBLE_EQ(view.Median(), 2.0);
  EXPECT_DOUBLE_EQ(view.Percentile(100.0), 3.0);
  // Insertion order survives every query above.
  ASSERT_EQ(view.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(view.samples()[0], 3.0);
  EXPECT_DOUBLE_EQ(view.samples()[1], 1.0);
  EXPECT_DOUBLE_EQ(view.samples()[2], 2.0);
  // New samples show up in later queries.
  h.Add(0.5);
  EXPECT_DOUBLE_EQ(view.Min(), 0.5);
  EXPECT_DOUBLE_EQ(view.samples().back(), 0.5);
}

}  // namespace
}  // namespace thunderbolt::obs
