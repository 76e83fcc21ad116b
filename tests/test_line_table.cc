/**
 * @file
 * LineTable against a std::map oracle: random insert / erase / find /
 * iterate over dense keys, channel-strided keys (one channel of a
 * 1- and 8-channel interleave) and sparse keys that straddle page and
 * directory boundaries. Iteration must be ascending line order, and
 * scattered keys must not allocate pages beyond the entry-count bound.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/line_table.hh"
#include "common/random.hh"

namespace esd
{
namespace
{

using Table = LineTable<std::uint64_t>;
constexpr std::uint64_t kPage = Table::kPageLines;

/** Table contents in iteration order. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Table &t)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    t.forEach([&out](std::uint64_t k, const std::uint64_t &v) {
        out.emplace_back(k, v);
    });
    return out;
}

void
expectSame(const Table &t, const std::map<std::uint64_t, std::uint64_t> &o)
{
    ASSERT_EQ(t.size(), o.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want(o.begin(),
                                                              o.end());
    ASSERT_EQ(contents(t), want);
}

/**
 * Drive @p ops random operations over keys drawn from @p keys against
 * both the table and the oracle, checking every lookup and, every
 * @p check_every operations, the full ascending iteration.
 */
void
fuzz(unsigned channels, const std::vector<std::uint64_t> &keys,
     std::uint64_t seed, unsigned ops = 20000, unsigned check_every = 997)
{
    Table t(channels);
    std::map<std::uint64_t, std::uint64_t> oracle;
    Pcg32 rng(seed, 7);
    for (unsigned i = 0; i < ops; ++i) {
        std::uint64_t k =
            keys[rng.below(static_cast<std::uint32_t>(keys.size()))];
        std::uint64_t v = (static_cast<std::uint64_t>(rng.next()) << 32) |
                          rng.next();
        switch (rng.below(5)) {
          case 0:  // find-or-insert, then overwrite
          case 1: {
            bool fresh = false;
            std::uint64_t *slot = t.insert(k, &fresh);
            ASSERT_EQ(fresh, oracle.count(k) == 0) << "key " << k;
            if (fresh) {
                ASSERT_EQ(*slot, 0u) << "fresh entry not default";
            }
            *slot = v;
            oracle[k] = v;
            break;
          }
          case 2:
            ASSERT_EQ(t.erase(k), oracle.erase(k) != 0) << "key " << k;
            break;
          case 3:
            ++t[k];
            ++oracle[k];
            break;
          default: {
            const Table &ct = t;
            const std::uint64_t *got = ct.find(k);
            auto it = oracle.find(k);
            ASSERT_EQ(got != nullptr, it != oracle.end()) << "key " << k;
            ASSERT_EQ(ct.contains(k), it != oracle.end());
            if (got) {
                ASSERT_EQ(*got, it->second) << "key " << k;
            }
            break;
          }
        }
        ASSERT_EQ(t.size(), oracle.size());
        if (i % check_every == 0)
            expectSame(t, oracle);
    }
    expectSame(t, oracle);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(contents(t).empty());
}

TEST(LineTable, DenseKeysMatchOracle)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 3 * kPage + 17; ++k)
        keys.push_back(k);
    for (unsigned ch : {1u, 3u, 8u})
        fuzz(ch, keys, 11 + ch);
}

TEST(LineTable, ChannelStridedKeysMatchOracle)
{
    // One channel's lines of an N-way interleave, the shape a pipeline
    // shard sees (every 8th line from a fixed offset).
    for (unsigned stride : {1u, 8u}) {
        for (unsigned ch : {1u, 8u}) {
            std::vector<std::uint64_t> keys;
            for (std::uint64_t s = 0; s < 2 * kPage + 5; ++s)
                keys.push_back(s * stride + (stride - 1));
            fuzz(ch, keys, 100 + stride * 10 + ch);
        }
    }
}

TEST(LineTable, SparseKeysAcrossPageAndDirectoryBoundaries)
{
    // Page edges on both sides of the directory's initial reach
    // (kDirSlack pages) and far pages that stay in the overflow map (the
    // AMT region at 8 GiB, the fingerprint region at 12 GiB, the top of
    // the key space).
    std::vector<std::uint64_t> keys;
    using Keys = std::vector<std::uint64_t>;
    for (std::uint64_t pg : Keys{0, 1, 15, 16, 17, 63, 64, 200, 5000}) {
        for (std::uint64_t off : Keys{0, 1, kPage - 1, kPage})
            keys.push_back(pg * kPage + off);
    }
    const std::uint64_t amt = (8ull << 30) / 64;
    const std::uint64_t fp = (12ull << 30) / 64;
    for (std::uint64_t base : {amt, fp}) {
        for (std::uint64_t off : Keys{0, 1, kPage - 1, kPage, 7 * kPage})
            keys.push_back(base + off);
    }
    keys.push_back(~0ull);
    keys.push_back(~0ull - 1);
    keys.push_back(~0ull - kPage);
    for (unsigned ch : {1u, 2u, 8u})
        fuzz(ch, keys, 300 + ch);
}

TEST(LineTable, DirectoryGrowthAdoptsOverflowEntries)
{
    // Page 100 is beyond an empty directory's reach, so its key starts
    // in the overflow map. Filling pages 0..69 densely lets the
    // directory double past it (to 128 pages) and the key moves into a
    // page. Every key stays reachable and iteration stays ascending.
    Table t;
    t[100 * kPage + 3] = 1;
    EXPECT_EQ(t.overflowEntries(), 1u);
    std::map<std::uint64_t, std::uint64_t> oracle{{100 * kPage + 3, 1}};
    for (std::uint64_t k = 0; k < 70 * kPage; ++k) {
        t[k] = k + 2;
        oracle[k] = k + 2;
    }
    EXPECT_EQ(t.overflowEntries(), 0u);
    ASSERT_NE(t.find(100 * kPage + 3), nullptr);
    EXPECT_EQ(*t.find(100 * kPage + 3), 1u);
    expectSame(t, oracle);
}

TEST(LineTable, ScatteredKeysStayWithinThePageBound)
{
    // Sparse logical traces: one key per page region (ascending), and
    // uniform keys over a 16 GiB space. Pages must stay within
    // 2 x entries / kPageLines + kDirSlack per channel; the rest live in
    // the overflow map, one entry each.
    constexpr unsigned kKeys = 20000;
    for (unsigned ch : {1u, 8u}) {
        for (bool uniform : {false, true}) {
            Table t(ch);
            std::map<std::uint64_t, std::uint64_t> oracle;
            Pcg32 rng(21, ch);
            for (std::uint64_t i = 0; i < kKeys; ++i) {
                std::uint64_t k = uniform
                                      ? rng.next64() % (1ull << 28)
                                      : i * kPage * ch + i % ch;
                t[k] = i;
                oracle[k] = i;
            }
            std::uint64_t bound =
                ch * (2 * (kKeys / ch) / kPage + Table::kDirSlack);
            EXPECT_LE(t.pageCount(), bound)
                << ch << " channels, uniform " << uniform;
            EXPECT_GT(t.overflowEntries(), kKeys / 2);
            expectSame(t, oracle);
        }
    }
}

TEST(LineTable, ErasedEntryReinsertsAsDefault)
{
    Table t(4);
    t[9] = 42;
    EXPECT_TRUE(t.erase(9));
    EXPECT_FALSE(t.erase(9));
    EXPECT_EQ(t.find(9), nullptr);
    bool fresh = false;
    EXPECT_EQ(*t.insert(9, &fresh), 0u);
    EXPECT_TRUE(fresh);
}

} // namespace
} // namespace esd
