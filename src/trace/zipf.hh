/**
 * @file
 * Zipf-distributed sampling over a finite population — the engine
 * behind the content locality of the synthetic workloads (Fig. 3:
 * a tiny fraction of unique lines receives most of the references).
 *
 * Uses an exact inverse-CDF over a precomputed cumulative table, so
 * the distribution is textbook Zipf(s) rather than an approximation.
 * A guide table (Chen & Asau) narrows each lookup to one bucket; the
 * whole-table binary search stays as the oracle it must agree with.
 */

#ifndef ESD_TRACE_ZIPF_HH
#define ESD_TRACE_ZIPF_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace esd
{

/** Draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s. */
class ZipfSampler
{
  public:
    /**
     * @param n population size (below 2^32)
     * @param s skew exponent; s = 0 degenerates to uniform
     */
    ZipfSampler(std::uint64_t n, double s)
    {
        esd_assert(n > 0, "zipf population must be positive");
        esd_assert(n < (1ull << 32), "zipf population must fit 32 bits");
        cdf_.reserve(n);
        double acc = 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_.push_back(acc);
        }
        total_ = acc;

        // Chen-Asau guide table: n equal-width buckets over [0, total);
        // guide_[j] is the first rank whose cdf reaches bucket j's
        // lower edge, so bucket j's answer lies in
        // [guide_[j], guide_[j + 1]].
        scale_ = static_cast<double>(n) / total_;
        guide_.resize(n + 1);
        std::uint64_t r = 0;
        for (std::uint64_t j = 0; j <= n; ++j) {
            double edge = static_cast<double>(j) / scale_;
            while (r + 1 < n && cdf_[r] < edge)
                ++r;
            guide_[j] = static_cast<std::uint32_t>(r);
        }
    }

    /** Draw one rank using @p rng (one Pcg32 draw). */
    std::uint64_t
    sample(Pcg32 &rng) const
    {
        return rank(rng.uniform() * total_);
    }

    /** Reference oracle for sample(): the same draw resolved by a
     * binary search over the whole CDF. */
    std::uint64_t
    sampleOracle(Pcg32 &rng) const
    {
        return rankOracle(rng.uniform() * total_);
    }

    /**
     * The first rank whose cumulative weight is >= @p u (the last rank
     * when none is). Searches only the guide bucket of @p u; a bucket
     * answer that is not that first rank — possible only through
     * rounding at a bucket edge — falls back to rankOracle(), so the
     * result always equals it.
     */
    std::uint64_t
    rank(double u) const
    {
        const std::size_t n = cdf_.size();
        double x = u * scale_;
        std::size_t j = x < static_cast<double>(n)
                            ? static_cast<std::size_t>(x)
                            : n - 1;
        std::size_t lo = guide_[j], hi = guide_[j + 1];
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (cdf_[lo] >= u && (lo == 0 || cdf_[lo - 1] < u))
            return lo;
        return rankOracle(u);
    }

    /** rank() by a binary search over the whole CDF. */
    std::uint64_t
    rankOracle(double u) const
    {
        std::size_t lo = 0, hi = cdf_.size() - 1;
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** Exact probability of rank @p k. */
    double
    probability(std::uint64_t k) const
    {
        double prev = (k == 0) ? 0.0 : cdf_[k - 1];
        return (cdf_[k] - prev) / total_;
    }

    /** Unnormalised cumulative weight of ranks 0..@p k. */
    double cumulative(std::uint64_t k) const { return cdf_[k]; }

    /** Sum of all weights: sample() draws u uniformly in [0, total). */
    double total() const { return total_; }

    std::uint64_t population() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
    double total_ = 0;
    double scale_ = 0;  ///< buckets per unit of weight: n / total_
};

} // namespace esd

#endif // ESD_TRACE_ZIPF_HH
