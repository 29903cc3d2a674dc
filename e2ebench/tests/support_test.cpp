// Tests of the benchmark's own measurement helpers.
#include "support.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace {

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
}

TEST(Quantile, NearestRankReturnsASample) {
    const std::vector<double> v = one_to(10);
    EXPECT_EQ(e2e::quantile(v, 0.5), 5.0);
    EXPECT_EQ(e2e::quantile(v, 0.95), 10.0);
    EXPECT_EQ(e2e::quantile(v, 0.0), 1.0);
    EXPECT_EQ(e2e::quantile(v, 1.0), 10.0);
    EXPECT_TRUE(std::isnan(e2e::quantile({}, 0.5)));
}

TEST(Quantile, IntegralRankDoesNotRoundUp) {
    // 0.95 * 200 is 190 in exact arithmetic; the 190th value, not the
    // 191st, is the nearest-rank p95.
    EXPECT_EQ(e2e::quantile(one_to(200), 0.95), 190.0);
}

TEST(Quantile, SmoothedAveragesTheNeighbouringRanks) {
    // 1..1000: p50 averages ranks 490..510; the p99 band (+-0.0002)
    // holds no rank but the nearest one.
    EXPECT_DOUBLE_EQ(e2e::smoothed_quantile(one_to(1000), 0.5), 500.0);
    EXPECT_DOUBLE_EQ(e2e::smoothed_quantile(one_to(1000), 0.99), 990.0);
    // 1..100000: p99 averages ranks 98980..99020.
    EXPECT_DOUBLE_EQ(e2e::smoothed_quantile(one_to(100000), 0.99), 99000.0);
    // Too few samples for a band: the nearest-rank value.
    EXPECT_DOUBLE_EQ(e2e::smoothed_quantile(one_to(10), 0.5), 5.0);
    EXPECT_TRUE(std::isnan(e2e::smoothed_quantile({}, 0.5)));
}

TEST(TailLevel, TenSamplesBeyondTheReportedPercentile) {
    // p95 needs 200 samples: rank 190 leaves exactly ten above it.
    EXPECT_DOUBLE_EQ(*e2e::tail_level(200), 0.95);
    EXPECT_DOUBLE_EQ(*e2e::tail_level(1000), 0.95);
    // Fewer samples lower the percentile until ten remain beyond it.
    EXPECT_DOUBLE_EQ(*e2e::tail_level(100), 0.90);
    EXPECT_DOUBLE_EQ(*e2e::tail_level(20), 0.50);
    // Below twenty samples not even the median has ten beyond it.
    EXPECT_FALSE(e2e::tail_level(19).has_value());
    EXPECT_FALSE(e2e::tail_level(0).has_value());
    for (std::size_t n = 20; n < 400; ++n) {
        const double q = *e2e::tail_level(n);
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n) - 1e-9));
        EXPECT_GE(n - rank, 10u) << "n=" << n;
    }
}

TEST(TailLevel, TailValueFallsBackToTheMedian) {
    double level = 0.0;
    EXPECT_EQ(e2e::tail_value(one_to(100), &level), 90.0);
    EXPECT_DOUBLE_EQ(level, 0.90);
    EXPECT_EQ(e2e::tail_value(one_to(7), &level), 4.0);
    EXPECT_DOUBLE_EQ(level, 0.5);
}

e2e::SpanRecord span(std::int64_t start, std::int64_t end,
                     std::int64_t parent) {
    e2e::SpanRecord s;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, DurationMinusCoveredChildTime) {
    // Parent [0, 100] with children [10, 30] and [50, 60]: 70 self.
    const std::vector<e2e::SpanRecord> spans = {
        span(0, 100, -1), span(10, 30, 0), span(50, 60, 0)};
    const std::vector<std::int64_t> self = e2e::self_time_ns(spans);
    EXPECT_EQ(self[0], 70);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
    // Children [10, 30] and [20, 50] overlap (union 40); [90, 130]
    // reaches past the parent's end and counts only up to 100.
    const std::vector<e2e::SpanRecord> spans = {
        span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
        span(90, 130, 0)};
    EXPECT_EQ(e2e::self_time_ns(spans)[0], 100 - 40 - 10);
}

TEST(SelfTime, GrandchildrenDoNotCountAgainstTheRoot) {
    const std::vector<e2e::SpanRecord> spans = {
        span(0, 100, -1), span(10, 60, 0), span(20, 40, 1)};
    const std::vector<std::int64_t> self = e2e::self_time_ns(spans);
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 30);
    EXPECT_EQ(self[2], 20);
}

TEST(Tracer, NestingSetsParentsAndWindows) {
    e2e::Tracer& tracer = e2e::Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);
    {
        e2e::ScopedSpan outer("outer", 7);
        e2e::ScopedSpan inner("inner", 7);
    }
    tracer.set_enabled(false);
    { e2e::ScopedSpan ignored("ignored"); }
    const std::vector<e2e::SpanRecord> spans = tracer.collect();
    tracer.clear();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].window, 7);
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Digest, MatchesFnv1aReferenceVectors) {
    e2e::Digest empty;
    EXPECT_EQ(empty.value(), 0xcbf29ce484222325ull);
    e2e::Digest a;
    a.add_bytes("a", 1);
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
    e2e::Digest foobar;
    foobar.add_bytes("foobar", 6);
    EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
    EXPECT_EQ(foobar.hex(), "85944171f73967e8");
}

TEST(Digest, SensitiveToBitsOrderAndLength) {
    const auto digest_of = [](const std::vector<double>& v) {
        e2e::Digest d;
        d.add(v);
        return d.value();
    };
    EXPECT_EQ(digest_of({1.0, 2.0}), digest_of({1.0, 2.0}));
    EXPECT_NE(digest_of({1.0, 2.0}), digest_of({2.0, 1.0}));
    EXPECT_NE(digest_of({0.0}), digest_of({-0.0}));
    EXPECT_NE(digest_of({1.0}), digest_of({std::nextafter(1.0, 2.0)}));
    // The length prefix separates [a, b] + [] from [a] + [b].
    e2e::Digest split_a;
    split_a.add(std::vector<double>{1.0, 2.0});
    split_a.add(std::vector<double>{});
    e2e::Digest split_b;
    split_b.add(std::vector<double>{1.0});
    split_b.add(std::vector<double>{2.0});
    EXPECT_NE(split_a.value(), split_b.value());
}

TEST(CpuRotation, PinsSlotPlusStepAndReleases) {
    const e2e::CpuRotation cpus;
    ASSERT_GE(cpus.size(), 1u);
    if (cpus.size() < 2) GTEST_SKIP() << "one CPU: pin() is a no-op";
    cpu_set_t all;
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
    std::vector<int> ids;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) ids.push_back(c);
    }
    for (std::size_t step = 0; step < 2 * ids.size(); ++step) {
        cpus.pin(1, step);
        EXPECT_EQ(sched_getcpu(), ids[(1 + step) % ids.size()]);
    }
    cpus.release();
    cpu_set_t now;
    ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
    EXPECT_TRUE(CPU_EQUAL(&now, &all));
}

}  // namespace
