/**
 * @file
 * Tests for the trace substrate: Zipf sampling, synthetic workload
 * calibration against the paper's characterisation, and VectorTrace.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "dedup/analyzer.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "trace/zipf.hh"

namespace esd
{
namespace
{

// ----------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenSkewZero)
{
    ZipfSampler z(10, 0.0);
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_NEAR(z.probability(k), 0.1, 1e-12);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfSampler z(1000, 1.1);
    double sum = 0;
    for (std::uint64_t k = 0; k < 1000; ++k)
        sum += z.probability(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SkewConcentratesOnLowRanks)
{
    ZipfSampler z(10000, 1.2);
    EXPECT_GT(z.probability(0), 100 * z.probability(999));
    Pcg32 rng(1);
    std::uint64_t low = 0;
    for (int i = 0; i < 10000; ++i)
        low += (z.sample(rng) < 100);
    // With s=1.2 the top-100 ranks should receive a large share.
    EXPECT_GT(low, 5000u);
}

TEST(Zipf, SampleWithinPopulation)
{
    ZipfSampler z(37, 0.8);
    Pcg32 rng(2);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(z.sample(rng), 37u);
}

// ------------------------------------------------------------ profiles

TEST(Workloads, TwentyPaperApps)
{
    EXPECT_EQ(paperApps().size(), 20u);
    unsigned spec = 0, parsec = 0;
    for (const AppProfile &p : paperApps()) {
        if (p.suite == AppProfile::Suite::SpecCpu2017)
            ++spec;
        else
            ++parsec;
    }
    EXPECT_EQ(spec, 12u);
    EXPECT_EQ(parsec, 8u);
}

TEST(Workloads, FindAppByName)
{
    EXPECT_EQ(findApp("lbm").name, "lbm");
    EXPECT_EQ(findApp("deepsjeng").dupRate, 0.999);
}

TEST(Workloads, AverageDupRateNearPaper)
{
    // Fig. 1: average 62.9%, range 33.1%..99.9%.
    double sum = 0, lo = 1, hi = 0;
    for (const AppProfile &p : paperApps()) {
        sum += p.dupRate;
        lo = std::min(lo, p.dupRate);
        hi = std::max(hi, p.dupRate);
    }
    EXPECT_NEAR(sum / paperApps().size(), 0.629, 0.05);
    EXPECT_NEAR(lo, 0.331, 1e-9);
    EXPECT_NEAR(hi, 0.999, 1e-9);
}

// ----------------------------------------------------------- generator

TEST(SyntheticWorkload, Deterministic)
{
    SyntheticWorkload a(findApp("gcc"), 7);
    SyntheticWorkload b(findApp("gcc"), 7);
    TraceRecord ra, rb;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.icount, rb.icount);
        EXPECT_EQ(ra.data, rb.data);
    }
}

TEST(SyntheticWorkload, ResetReplays)
{
    SyntheticWorkload w(findApp("mcf"), 3);
    TraceRecord first;
    ASSERT_TRUE(w.next(first));
    for (int i = 0; i < 100; ++i)
        w.next(first);
    w.reset();
    TraceRecord again;
    ASSERT_TRUE(w.next(again));
    SyntheticWorkload fresh(findApp("mcf"), 3);
    TraceRecord expect;
    ASSERT_TRUE(fresh.next(expect));
    EXPECT_EQ(again.addr, expect.addr);
    EXPECT_EQ(again.data, expect.data);
}

TEST(SyntheticWorkload, MeasuredDupRateTracksProfile)
{
    for (const char *name : {"gcc", "leela", "deepsjeng", "lbm"}) {
        SyntheticWorkload w(findApp(name), 1);
        DedupAnalyzer an;
        TraceRecord rec;
        std::uint64_t writes = 0;
        while (writes < 30000) {
            ASSERT_TRUE(w.next(rec));
            if (rec.op != OpType::Write)
                continue;
            an.addWrite(rec.data);
            ++writes;
        }
        EXPECT_NEAR(an.duplicateRate(), w.profile().dupRate, 0.06)
            << name;
    }
}

TEST(SyntheticWorkload, ZeroLinesDominateDeepsjeng)
{
    SyntheticWorkload w(findApp("deepsjeng"), 1);
    TraceRecord rec;
    std::uint64_t writes = 0, zeros = 0;
    while (writes < 10000) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op != OpType::Write)
            continue;
        ++writes;
        zeros += rec.data.isZero();
    }
    EXPECT_GT(static_cast<double>(zeros) / writes, 0.7);
}

TEST(SyntheticWorkload, ContentLocalityIsSkewed)
{
    // Fig. 3 shape: few unique lines cover a large write volume.
    SyntheticWorkload w(findApp("dedup"), 1);
    DedupAnalyzer an;
    TraceRecord rec;
    std::uint64_t writes = 0;
    while (writes < 60000) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op != OpType::Write)
            continue;
        an.addWrite(rec.data);
        ++writes;
    }
    RefCountBuckets b = an.buckets();
    // The >100-ref buckets hold a tiny fraction of unique lines but a
    // disproportionate share of total writes.
    double line_frac =
        static_cast<double>(b.lines(3) + b.lines(4)) / b.totalLines();
    double vol_frac =
        static_cast<double>(b.volume(3) + b.volume(4)) / b.totalVolume();
    EXPECT_LT(line_frac, 0.02);
    EXPECT_GT(vol_frac, 0.15);
}

TEST(SyntheticWorkload, ReadsTargetWrittenAddresses)
{
    SyntheticWorkload w(findApp("x264"), 5);
    std::unordered_set<Addr> written;
    TraceRecord rec;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(w.next(rec));
        if (rec.op == OpType::Write)
            written.insert(rec.addr);
        else
            EXPECT_TRUE(written.count(rec.addr)) << "read before write";
    }
}

TEST(SyntheticWorkload, WriteFractionTracksProfile)
{
    SyntheticWorkload w(findApp("namd"), 2);
    TraceRecord rec;
    std::uint64_t writes = 0, total = 40000;
    for (std::uint64_t i = 0; i < total; ++i) {
        ASSERT_TRUE(w.next(rec));
        writes += (rec.op == OpType::Write);
    }
    EXPECT_NEAR(static_cast<double>(writes) / total,
                w.profile().writeFrac, 0.03);
}

TEST(VectorTrace, PushAndReplay)
{
    VectorTrace t;
    TraceRecord r;
    r.addr = 640;
    t.push(r);
    r.addr = 1280;
    t.push(r);
    TraceRecord got;
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 640u);
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 1280u);
    EXPECT_FALSE(t.next(got));
    t.reset();
    ASSERT_TRUE(t.next(got));
    EXPECT_EQ(got.addr, 640u);
}

} // namespace
} // namespace esd
