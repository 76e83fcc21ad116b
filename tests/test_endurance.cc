/**
 * @file
 * Tests for the endurance substrate: wear tracking and Start-Gap
 * wear leveling.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.hh"
#include "nvm/pcm_device.hh"
#include "nvm/start_gap.hh"
#include "nvm/wear_tracker.hh"

namespace esd
{
namespace
{

// ---------------------------------------------------------- tracker

TEST(WearTracker, CountsPerLine)
{
    WearTracker w;
    w.recordWrite(0);
    w.recordWrite(13);   // same line as 0
    w.recordWrite(64);
    WearStats s = w.stats();
    EXPECT_EQ(s.totalWrites, 3u);
    EXPECT_EQ(s.linesTouched, 2u);
    EXPECT_EQ(s.maxLineWrites, 2u);
    EXPECT_DOUBLE_EQ(w.lineWrites(0), 2);
}

TEST(WearTracker, ImbalanceMetric)
{
    WearTracker w;
    for (int i = 0; i < 9; ++i)
        w.recordWrite(0);
    w.recordWrite(64);
    // 10 writes over 2 lines: mean 5, max 9.
    EXPECT_DOUBLE_EQ(w.stats().imbalance(), 9.0 / 5.0);
}

TEST(WearTracker, LifetimeProjection)
{
    WearTracker w;
    for (int i = 0; i < 100; ++i)
        w.recordWrite(0);
    EXPECT_DOUBLE_EQ(w.lifetimeUntilWearOut(1e6), 1e4);
}

TEST(WearTracker, ResetClears)
{
    WearTracker w;
    w.recordWrite(0);
    w.reset();
    EXPECT_EQ(w.stats().totalWrites, 0u);
}

// --------------------------------------------------------- start-gap

TEST(StartGap, InitialMappingIsIdentity)
{
    StartGap sg(8, 4);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(sg.slotOf(i), i);  // gap starts above all lines
}

TEST(StartGap, MappingStaysInjective)
{
    StartGap sg(16, 2);
    Pcg32 rng(1);
    for (int round = 0; round < 500; ++round) {
        sg.recordWrite();
        std::unordered_set<std::uint64_t> slots;
        for (std::uint64_t i = 0; i < 16; ++i) {
            std::uint64_t s = sg.slotOf(i);
            EXPECT_LE(s, 16u);
            EXPECT_TRUE(slots.insert(s).second)
                << "duplicate slot after round " << round;
        }
    }
}

TEST(StartGap, GapMovesEveryPeriodWrites)
{
    StartGap sg(8, 3);
    EXPECT_FALSE(sg.recordWrite());
    EXPECT_FALSE(sg.recordWrite());
    EXPECT_TRUE(sg.recordWrite());
    EXPECT_EQ(sg.moves(), 1u);
    EXPECT_EQ(sg.gap(), 7u);
}

TEST(StartGap, FullRotationShiftsStart)
{
    StartGap sg(4, 1);  // every write moves the gap
    // Gap walks 4 -> 3 -> 2 -> 1 -> 0, then wraps with start++.
    for (int i = 0; i < 5; ++i)
        sg.recordWrite();
    EXPECT_EQ(sg.start(), 1u);
    EXPECT_EQ(sg.gap(), 4u);
}

TEST(StartGap, HotLineSweepsAcrossSlots)
{
    StartGap sg(8, 1);
    std::unordered_set<std::uint64_t> visited;
    for (int i = 0; i < 9 * 8; ++i) {
        visited.insert(sg.slotOf(3));
        sg.recordWrite();
    }
    // A single hot line must visit many distinct physical slots.
    EXPECT_GE(visited.size(), 8u);
}

// ----------------------------------------------------- device glue

TEST(PcmDeviceWear, TracksWritesNotReads)
{
    PcmConfig cfg;
    PcmDevice dev(cfg);
    dev.access(OpType::Write, 0, 0);
    dev.access(OpType::Write, 0, 1000);
    dev.access(OpType::Read, 0, 2000);
    WearStats s = dev.wear().stats();
    EXPECT_EQ(s.totalWrites, 2u);
    EXPECT_EQ(s.maxLineWrites, 2u);
}

TEST(PcmDeviceWear, StartGapSpreadsHotLine)
{
    PcmConfig cfg;
    cfg.gapMovePeriod = 4;
    cfg.startGapRegionLines = 64;

    PcmConfig no_sg = cfg;
    no_sg.startGapEnabled = false;
    PcmConfig with_sg = cfg;
    with_sg.startGapEnabled = true;

    PcmDevice plain(no_sg);
    PcmDevice leveled(with_sg);
    Tick t = 0;
    for (int i = 0; i < 4000; ++i) {
        plain.access(OpType::Write, 0, t);
        leveled.access(OpType::Write, 0, t);
        t += 200;
    }
    WearStats p = plain.wear().stats();
    WearStats l = leveled.wear().stats();
    EXPECT_EQ(p.maxLineWrites, 4000u);
    // Start-Gap rotation bounds the hottest slot's wear well below.
    EXPECT_LT(l.maxLineWrites, p.maxLineWrites / 4);
    EXPECT_GT(leveled.stats().gapMoves.value(), 0u);
}

TEST(PcmDeviceWear, GapMovesChargeEnergyAndBandwidth)
{
    PcmConfig cfg;
    cfg.startGapEnabled = true;
    cfg.gapMovePeriod = 2;
    PcmDevice dev(cfg);
    for (int i = 0; i < 10; ++i)
        dev.access(OpType::Write, 0, static_cast<Tick>(i) * 1000);
    EXPECT_EQ(dev.stats().gapMoves.value(), 5u);
    // Internal copies add read+write energy beyond demand writes.
    EXPECT_DOUBLE_EQ(dev.stats().readEnergy, 5 * cfg.readEnergy);
    EXPECT_DOUBLE_EQ(dev.stats().writeEnergy, (10 + 5) * cfg.writeEnergy);
}

TEST(PcmDeviceWear, ResetWearKeepsTiming)
{
    PcmConfig cfg;
    PcmDevice dev(cfg);
    dev.access(OpType::Write, 0, 0);
    dev.resetWear();
    EXPECT_EQ(dev.wear().stats().totalWrites, 0u);
    EXPECT_EQ(dev.stats().writes.value(), 1u);  // stats untouched
}

} // namespace
} // namespace esd
