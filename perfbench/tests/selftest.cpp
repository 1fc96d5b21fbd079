// Self-tests of the benchmark's own arithmetic and instrumentation. Run
// with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "digest.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailRule, HighestLadderPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(TailRule, ChosenPercentileLeavesTenAndTheNextOneFewer) {
  const double ladder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};
  for (std::size_t n = 20; n < 3000; ++n) {
    const double q = tail_percentile(n);
    EXPECT_GE(samples_beyond(n, q), kTailMinBeyond) << n;
    for (std::size_t i = 0; i + 1 < std::size(ladder); ++i) {
      if (ladder[i] == q) {
        EXPECT_LT(samples_beyond(n, ladder[i + 1]), kTailMinBeyond) << n;
      }
    }
  }
}

TEST(TailRule, NearestRankValues) {
  const Tail t = tail(one_to(40), 40);
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.value, 30.0);
  EXPECT_EQ(t.samples, 40U);
  EXPECT_EQ(median(one_to(40)), 20.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile(one_to(100), 90.0), 90.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(tail(one_to(10), 10).value, 0.0);
}

TEST(TailRule, PercentileFollowsTheGuaranteedCountNotTheRunLength) {
  // A run guaranteed 40 samples reports p75 however many it collects, so
  // a faster commit collecting 120 is compared at the same percentile.
  EXPECT_EQ(tail(one_to(120), 40).percentile, 75.0);
  EXPECT_EQ(tail(one_to(120), 40).value, 90.0);
  EXPECT_EQ(tail(one_to(120), 1000).percentile, 90.0);  // capped by size
  EXPECT_EQ(tail(one_to(30), 40).percentile, 50.0);
}

Span span(std::int32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanSelfTime, ParentMinusUnionOfChildrenClippedToParent) {
  // Children overlap each other and one runs past the parent's end.
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 30),
                                   span(0, 20, 50), span(0, 90, 120)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(SpanSelfTime, GrandchildrenCountOnlyAgainstTheirParent) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 60),
                                   span(1, 20, 40)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
}

TEST(SpanSelfTime, SelfTimesOfATreeSumToTheRoot) {
  Tracer tracer;
  const std::uint32_t a = tracer.intern("a");
  const std::uint32_t b = tracer.intern("b");
  EXPECT_EQ(tracer.intern("a"), a);
  tracer.set_op(7);
  {
    const ScopedSpan root(&tracer, a);
    for (int i = 0; i < 3; ++i) {
      const ScopedSpan child(&tracer, b);
      const ScopedSpan grandchild(&tracer, a);
    }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 7U);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  for (const Span& s : spans) EXPECT_EQ(s.op, 7U);
  std::int64_t total = 0;
  for (const std::int64_t s : self_times(spans)) total += s;
  EXPECT_EQ(total, spans[0].end_ns - spans[0].start_ns);
  const auto totals = layer_totals(tracer, [](std::uint64_t) { return true; });
  EXPECT_EQ(totals.at("b").calls, 3U);
  EXPECT_TRUE(layer_totals(tracer, [](std::uint64_t op) {
                return op != 7;
              }).empty());
}

TEST(SpanSelfTime, SpansCloseInnermostFirst) {
  Tracer tracer;
  const std::size_t outer = tracer.open(tracer.intern("outer"));
  tracer.open(tracer.intern("inner"));
  EXPECT_THROW(tracer.close(outer), std::logic_error);
}

TEST(DigestStability, PinnedFnv1aOfWords) {
  Digest zero;
  zero.add(std::uint64_t{0});
  EXPECT_EQ(zero.value(), 0xa8c7f832281a39c5ULL);
  Digest word;
  word.add(std::uint64_t{0x0123456789abcdefULL});
  EXPECT_EQ(word.value(), 0x37eb3f3347761c55ULL);
  Digest pos;
  Digest neg;
  pos.add(0.0);
  neg.add(-0.0);
  EXPECT_NE(pos.value(), neg.value());
}

TEST(DigestStability, EveryReportFieldCountsAndOrderMatters) {
  rfh::EpochReport report;
  report.total_queries = 300.0;
  Digest a;
  Digest b;
  a.fold(report);
  b.fold(report);
  EXPECT_EQ(a.value(), b.value());
  report.dropped_by_reason[2] = 1;
  Digest c;
  c.fold(report);
  EXPECT_NE(a.value(), c.value());
  rfh::EpochMetrics m;
  Digest ab;
  ab.fold(rfh::EpochReport{});
  ab.fold(m);
  Digest ba;
  ba.fold(m);
  ba.fold(rfh::EpochReport{});
  EXPECT_NE(ab.value(), ba.value());
}

TEST(DigestStability, SameSeedSameDigestOtherSeedOther) {
  const std::uint64_t first = small_world_digest(3, 20, false);
  EXPECT_EQ(first, small_world_digest(3, 20, false));
  EXPECT_NE(first, small_world_digest(4, 20, false));
  EXPECT_NE(first, small_world_digest(3, 21, false));
}

TEST(Decorators, WrappedAndUnwrappedRunsGiveEqualDigests) {
  const std::uint64_t seeds[] = {1, 2, kHeldOutSeed};
  for (const std::uint64_t seed : seeds) {
    EXPECT_EQ(small_world_digest(seed, 30, true),
              small_world_digest(seed, 30, false))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace perfbench
