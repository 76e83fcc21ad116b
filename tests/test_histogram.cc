/**
 * @file
 * The exact log-histogram behind every latency percentile: index math
 * round-trips, percentiles against a sorted-vector nearest-rank
 * oracle under PCG fuzz, merge algebra (commutative, associative,
 * equivalent to combined recording), and the edge cases (empty,
 * single sample, overflow clamp). Plus the IntervalSampler edges the
 * telemetry layer leans on: re-configuration after registry growth,
 * zero-length runs, and the final partial interval.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"
#include "metrics/interval_sampler.hh"

namespace esd
{
namespace
{

/** Nearest-rank percentile over raw values, the definition the
 * histogram must reproduce. */
std::uint64_t
oraclePercentile(std::vector<std::uint64_t> v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank =
        p <= 0.0 ? 1
                 : static_cast<std::size_t>(
                       std::ceil(p / 100.0 *
                                 static_cast<double>(v.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), v.size());
    return v[rank - 1];
}

const double kProbes[] = {0, 1, 10, 25, 50, 90, 95, 99, 99.9, 100};

TEST(LogHistogram, IndexRoundTripsAndBoundsValue)
{
    const std::uint64_t probes[] = {
        0,      1,      2,       1023,    4094,
        4095,   4096,   4097,    8191,    8192,
        123456, 1u << 20, (1u << 20) + 7, 1ull << 40,
        (1ull << 40) + 12345, LogHistogram::kMaxTrackable - 1,
        LogHistogram::kMaxTrackable};
    for (std::uint64_t v : probes) {
        std::size_t i = LogHistogram::indexFor(v);
        std::uint64_t lo = LogHistogram::valueAt(i);
        std::uint64_t width = LogHistogram::widthAt(i);
        EXPECT_LE(lo, v) << "v=" << v;
        EXPECT_LT(v, lo + width) << "v=" << v;
        // The bucket's lower bound indexes back to the same bucket.
        EXPECT_EQ(LogHistogram::indexFor(lo), i) << "v=" << v;
    }
}

TEST(LogHistogram, UnitBucketsBelowSubBucketCount)
{
    for (std::uint64_t v : {0ull, 1ull, 42ull, 4094ull, 4095ull}) {
        std::size_t i = LogHistogram::indexFor(v);
        EXPECT_EQ(LogHistogram::valueAt(i), v);
        EXPECT_EQ(LogHistogram::widthAt(i), 1u);
    }
    // First non-unit bucket starts exactly where the units end.
    EXPECT_EQ(LogHistogram::valueAt(LogHistogram::indexFor(4096)), 4096u);
    EXPECT_EQ(LogHistogram::widthAt(LogHistogram::indexFor(4096)), 2u);
}

TEST(LogHistogram, PercentilesExactForSmallValuesUnderFuzz)
{
    Pcg32 rng(0xfeedULL);
    LogHistogram h;
    std::vector<std::uint64_t> raw;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.next() % 4096;
        h.record(v);
        raw.push_back(v);
    }
    ASSERT_EQ(h.totalCount(), raw.size());
    // Below 4096 buckets are unit-width: exact equality with the
    // sorted-vector nearest-rank oracle.
    for (double p : kProbes)
        EXPECT_EQ(h.percentile(p), oraclePercentile(raw, p))
            << "p=" << p;
}

TEST(LogHistogram, PercentilesLandInOracleBucketForLargeValues)
{
    Pcg32 rng(0xbeefULL);
    LogHistogram h;
    std::vector<std::uint64_t> raw;
    for (int i = 0; i < 4000; ++i) {
        // Spread across many octaves, up to ~2^44.
        std::uint64_t v = rng.next64() >> (rng.next() % 44 + 20);
        h.record(v);
        raw.push_back(v);
    }
    for (double p : kProbes) {
        auto hp = static_cast<std::uint64_t>(h.percentile(p));
        std::uint64_t op = oraclePercentile(raw, p);
        // Lossy octave buckets: the histogram returns the bucket
        // lower bound of the true rank value.
        EXPECT_EQ(LogHistogram::indexFor(hp),
                  LogHistogram::indexFor(op))
            << "p=" << p;
        EXPECT_LE(hp, op);
    }
}

TEST(LogHistogram, MergeIsCommutativeAndAssociative)
{
    Pcg32 rng(7);
    LogHistogram a, b, c;
    for (int i = 0; i < 1000; ++i) {
        a.record(rng.next() % 10000);
        b.record(rng.next64() % (1ull << 30));
        c.record(rng.next() % 3);
    }

    auto flat = [](const LogHistogram &h) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        h.forEachBucket([&](std::uint64_t lo, std::uint64_t,
                            std::uint64_t count) {
            out.emplace_back(lo, count);
        });
        return out;
    };

    LogHistogram ab = a;
    ab.merge(b);
    LogHistogram ba = b;
    ba.merge(a);
    EXPECT_EQ(flat(ab), flat(ba));
    EXPECT_EQ(ab.totalCount(), ba.totalCount());

    LogHistogram ab_c = ab;  // (a+b)+c
    ab_c.merge(c);
    LogHistogram bc = b;     // a+(b+c)
    bc.merge(c);
    LogHistogram a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(flat(ab_c), flat(a_bc));
    for (double p : kProbes)
        EXPECT_EQ(ab_c.percentile(p), a_bc.percentile(p)) << "p=" << p;
}

TEST(LogHistogram, MergeEqualsCombinedRecording)
{
    Pcg32 rng(99);
    LogHistogram left, right, combined;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.next64() % (1ull << 20);
        if (i % 2) {
            left.record(v);
        } else {
            right.record(v);
        }
        combined.record(v);
    }
    left.merge(right);
    EXPECT_EQ(left.totalCount(), combined.totalCount());
    for (double p : kProbes)
        EXPECT_EQ(left.percentile(p), combined.percentile(p));
}

TEST(LogHistogram, EmptyHistogramIsZero)
{
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(100), 0u);
    bool visited = false;
    h.forEachBucket([&](std::uint64_t, std::uint64_t, std::uint64_t) {
        visited = true;
    });
    EXPECT_FALSE(visited);

    // Merging an empty histogram changes nothing.
    LogHistogram other;
    other.record(7);
    other.merge(h);
    EXPECT_EQ(other.totalCount(), 1u);
    EXPECT_EQ(other.percentile(100), 7u);
}

TEST(LogHistogram, SingleSampleOwnsEveryPercentile)
{
    LogHistogram h;
    h.record(321);
    for (double p : kProbes)
        EXPECT_EQ(h.percentile(p), 321u);
}

TEST(LogHistogram, OverflowClampsToMaxTrackable)
{
    LogHistogram h;
    h.record(~0ull);  // far past the trackable ceiling
    h.record(LogHistogram::kMaxTrackable);
    EXPECT_EQ(h.totalCount(), 2u);
    auto top = static_cast<std::uint64_t>(h.percentile(100));
    EXPECT_EQ(LogHistogram::indexFor(top),
              LogHistogram::indexFor(LogHistogram::kMaxTrackable));
}

TEST(LogHistogram, RecordWithCountMatchesRepeatedRecord)
{
    LogHistogram a, b;
    a.record(50, 1000);
    for (int i = 0; i < 1000; ++i)
        b.record(50);
    EXPECT_EQ(a.totalCount(), b.totalCount());
    EXPECT_EQ(a.percentile(50), b.percentile(50));
}

TEST(LatencyStat, MergeCombinesSummaryAndHistogram)
{
    LatencyStat a, b;
    for (int i = 1; i <= 100; ++i)
        a.sample(i);
    for (int i = 101; i <= 200; ++i)
        b.sample(i);

    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 200.0);
    EXPECT_DOUBLE_EQ(a.mean(), 100.5);
    EXPECT_DOUBLE_EQ(a.percentile(50), 100.0);
    EXPECT_DOUBLE_EQ(a.percentile(100), 200.0);

    // Merging an empty stat is a no-op.
    LatencyStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 200u);
}

TEST(LatencyStat, MergeOrderIndependent)
{
    Pcg32 rng(5);
    LatencyStat parts[3];
    LatencyStat forward, backward;
    for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 500; ++i)
            parts[j].sample(rng.next() % 100000);
    for (int j = 0; j < 3; ++j)
        forward.merge(parts[j]);
    for (int j = 2; j >= 0; --j)
        backward.merge(parts[j]);
    EXPECT_EQ(forward.count(), backward.count());
    EXPECT_DOUBLE_EQ(forward.sum(), backward.sum());
    for (double p : kProbes)
        EXPECT_DOUBLE_EQ(forward.percentile(p), backward.percentile(p));
}

TEST(IntervalSampler, ReconfigureAfterRegistryGrowth)
{
    StatRegistry reg;
    Counter a;
    reg.addCounter("a", a);

    IntervalSampler s;
    s.configure(reg, 2);
    ASSERT_EQ(s.columns().size(), 1u);

    // The registry widened; re-configure re-captures the column set
    // (the guard that keeps row width and columns in sync).
    Counter b;
    reg.addCounter("b", b);
    s.configure(reg, 2);
    ASSERT_EQ(s.columns().size(), 2u);

    a.inc();
    b.inc();
    s.onWrite(1);
    s.onWrite(2);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].size(), s.columns().size());
}

TEST(IntervalSampler, ZeroLengthRunHasNoRows)
{
    StatRegistry reg;
    Counter a;
    reg.addCounter("a", a);

    IntervalSampler s;
    s.configure(reg, 5);
    EXPECT_TRUE(s.enabled());
    EXPECT_TRUE(s.rows().empty());
    EXPECT_TRUE(s.sampleWrites().empty());
}

TEST(IntervalSampler, FinalPartialIntervalIsNotSampled)
{
    StatRegistry reg;
    Counter a;
    reg.addCounter("a", a);

    IntervalSampler s;
    s.configure(reg, 5);
    for (std::uint64_t w = 1; w <= 12; ++w) {
        a.inc();
        s.onWrite(w);
    }
    // Samples land on exact multiples; the trailing partial interval
    // (writes 11-12) is intentionally not flushed.
    ASSERT_EQ(s.sampleWrites().size(), 2u);
    EXPECT_EQ(s.sampleWrites()[0], 5u);
    EXPECT_EQ(s.sampleWrites()[1], 10u);
    EXPECT_DOUBLE_EQ(s.rows()[0][0], 5.0);
    EXPECT_DOUBLE_EQ(s.rows()[1][0], 10.0);
}

} // namespace
} // namespace esd
