/**
 * @file
 * Per-line write-endurance tracking.
 *
 * PCM cells survive 10-100 million writes (Section I); reducing and
 * spreading writes is the endurance story behind Fig. 11. The tracker
 * records writes per physical line and summarises wear: totals, the
 * hottest line's write count, and a projected lifetime improvement
 * relative to a reference write load.
 */

#ifndef ESD_NVM_WEAR_TRACKER_HH
#define ESD_NVM_WEAR_TRACKER_HH

#include <algorithm>
#include <cstdint>

#include "common/line_table.hh"
#include "common/types.hh"

namespace esd
{

/** Aggregate wear summary. */
struct WearStats
{
    std::uint64_t totalWrites = 0;
    std::uint64_t linesTouched = 0;
    std::uint64_t maxLineWrites = 0;

    /** Mean writes over touched lines. */
    double
    meanLineWrites() const
    {
        return linesTouched == 0
                   ? 0.0
                   : static_cast<double>(totalWrites) / linesTouched;
    }

    /** max/mean — 1.0 means perfectly even wear. */
    double
    imbalance() const
    {
        double mean = meanLineWrites();
        return mean == 0 ? 0.0 : maxLineWrites / mean;
    }
};

/** Records write counts per physical line. */
class WearTracker
{
  public:
    /** @p channels sets the table's channel-major layout (the device's
     * line interleave); it does not change what is counted. */
    explicit WearTracker(unsigned channels = 1) : writes_(channels) {}

    /** Count one write to the line containing @p addr. */
    void
    recordWrite(Addr addr)
    {
        maxLineWrites_ = std::max(maxLineWrites_, ++writes_[lineIndex(addr)]);
        ++total_;
    }

    /** Writes absorbed by @p addr 's line so far. */
    std::uint64_t
    lineWrites(Addr addr) const
    {
        const std::uint64_t *n = writes_.find(lineIndex(addr));
        return n ? *n : 0;
    }

    WearStats
    stats() const
    {
        WearStats s;
        s.totalWrites = total_;
        s.linesTouched = writes_.size();
        s.maxLineWrites = maxLineWrites_;
        return s;
    }

    /**
     * Projected device lifetime (arbitrary time units) until the
     * hottest line exhausts @p cell_endurance writes, assuming the
     * recorded write pattern repeats at a constant rate.
     */
    double
    lifetimeUntilWearOut(double cell_endurance) const
    {
        WearStats s = stats();
        if (s.maxLineWrites == 0)
            return 0.0;
        return cell_endurance / s.maxLineWrites;
    }

    void
    reset()
    {
        writes_.clear();
        total_ = 0;
        maxLineWrites_ = 0;
    }

  private:
    LineTable<std::uint64_t> writes_;
    std::uint64_t total_ = 0;
    std::uint64_t maxLineWrites_ = 0;
};

} // namespace esd

#endif // ESD_NVM_WEAR_TRACKER_HH
