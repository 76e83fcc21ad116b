/**
 * @file
 * Equivalence tests for the hot-path kernels, each against its scalar
 * oracle:
 *   - the byte-table SEC-DED line encoder vs Hamming72::encode
 *     (every table entry, linearity, exhaustive 16-bit patterns, PCG
 *     randomized lines);
 *   - the clean-line fast path of LineEccCodec::decode vs the per-word
 *     decode loop, on every single-bit and fuzzed double-bit error;
 *   - the guide-table Zipf sampler vs the whole-CDF binary search, and
 *     a saturated-hot-pool workload stream pinned to its digest;
 *   - the early-exit 64-bit-word line compare vs memcmp on equal,
 *     near-equal, and random lines.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/types.hh"
#include "ecc/line_ecc.hh"
#include "trace/workloads.hh"
#include "trace/zipf.hh"

namespace esd
{
namespace
{

// ------------------------------------------------ byte-table SEC-DED

TEST(ByteTableHamming, EveryEntryMatchesScalarEncode)
{
    for (unsigned k = 0; k < 8; ++k) {
        for (unsigned v = 0; v < 256; ++v) {
            ASSERT_EQ(Hamming72::byteCheck(k, static_cast<std::uint8_t>(v)),
                      Hamming72::encode(static_cast<std::uint64_t>(v)
                                        << (8 * k)))
                << "byte " << k << " value " << v;
        }
    }
}

TEST(ByteTableHamming, EncodeIsLinear)
{
    // The tables are exact only because the code (overall parity
    // included) is linear over GF(2).
    EXPECT_EQ(Hamming72::encode(0), 0);
    Pcg32 rng(0x11ea, 0x999);
    for (int it = 0; it < 100000; ++it) {
        std::uint64_t a = rng.next64();
        std::uint64_t b = rng.next64();
        if (it % 4 == 0)
            b &= rng.next64() & rng.next64();  // sparse partners too
        ASSERT_EQ(Hamming72::encode(a ^ b),
                  Hamming72::encode(a) ^ Hamming72::encode(b))
            << std::hex << a << " ^ " << b;
    }
}

// Line encoder vs encodeLineScalar (suite name kept from the earlier
// bit-sliced encoder this file first tested).

/** All 2^16 patterns, each expanded into a line that places the
 * pattern at a different 16-bit lane of every word, so every data-bit
 * position of the codeword sees both polarities of every pattern. */
TEST(BitslicedHamming, ExhaustiveSixteenBitPatterns)
{
    for (std::uint32_t v = 0; v < (1u << 16); ++v) {
        std::uint64_t words[8];
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t w = static_cast<std::uint64_t>(v)
                              << ((j % 4) * 16);
            if (j >= 4)
                w = ~w;  // complemented lanes hit the other polarity
            words[j] = w;
        }
        std::uint8_t fast[8], ref[8];
        Hamming72::encodeLine(words, fast);
        Hamming72::encodeLineScalar(words, ref);
        ASSERT_EQ(0, std::memcmp(fast, ref, 8))
            << "pattern 0x" << std::hex << v;
    }
}

TEST(BitslicedHamming, SingleBitLines)
{
    // Each of the 512 line bits set alone: the sparsest inputs, where
    // a transpose orientation bug is most visible.
    for (unsigned j = 0; j < 8; ++j) {
        for (unsigned b = 0; b < 64; ++b) {
            std::uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
            words[j] = 1ull << b;
            std::uint8_t fast[8], ref[8];
            Hamming72::encodeLine(words, fast);
            Hamming72::encodeLineScalar(words, ref);
            ASSERT_EQ(0, std::memcmp(fast, ref, 8))
                << "word " << j << " bit " << b;
        }
    }
}

TEST(BitslicedHamming, RandomizedLines)
{
    Pcg32 rng(0x5eed, 0x111);
    for (int it = 0; it < 50000; ++it) {
        std::uint64_t words[8];
        for (auto &w : words)
            w = rng.next64();
        // Mix in sparse/dense lines: random masking every few iters.
        if (it % 5 == 0) {
            for (auto &w : words)
                w &= rng.next64() & rng.next64();
        }
        std::uint8_t fast[8], ref[8];
        Hamming72::encodeLine(words, fast);
        Hamming72::encodeLineScalar(words, ref);
        ASSERT_EQ(0, std::memcmp(fast, ref, 8)) << "iteration " << it;
    }
}

TEST(BitslicedHamming, LineEccCodecUsesIdenticalEncoding)
{
    Pcg32 rng(0xc0de, 0x222);
    for (int it = 0; it < 5000; ++it) {
        CacheLine line;
        rng.fillLine(line);
        LineEcc fast = LineEccCodec::encode(line);
        LineEcc ref = LineEccCodec::encodeScalar(line);
        ASSERT_EQ(fast, ref);

        // Round trip: the encoding still decodes clean...
        LineDecodeResult d = LineEccCodec::decode(line, fast);
        ASSERT_EQ(EccStatus::Ok, d.status);

        // ...and still corrects a single flipped bit per word.
        CacheLine bad = line;
        unsigned word = rng.below(8);
        unsigned bit = rng.below(64);
        bad.setWord(word, bad.word(word) ^ (1ull << bit));
        LineDecodeResult fix = LineEccCodec::decode(bad, fast);
        ASSERT_EQ(EccStatus::CorrectedData, fix.status);
        ASSERT_TRUE(fix.line == line);
    }
}

// ------------------------------------------- clean-line decode path

void
expectSameDecode(const CacheLine &line, LineEcc ecc, const char *what,
                 unsigned a, unsigned b)
{
    LineDecodeResult fast = LineEccCodec::decode(line, ecc);
    LineDecodeResult ref = LineEccCodec::decodeScalar(line, ecc);
    ASSERT_EQ(fast.status, ref.status) << what << " " << a << "," << b;
    ASSERT_TRUE(fast.line == ref.line) << what << " " << a << "," << b;
    ASSERT_EQ(fast.ecc, ref.ecc) << what << " " << a << "," << b;
    ASSERT_EQ(fast.correctedWords, ref.correctedWords)
        << what << " " << a << "," << b;
}

/** Flip bit @p bit of the 576-bit codeword line: 0..511 are data
 * bits, 512..575 the 64 check bits. */
void
flipBit(CacheLine &line, LineEcc &ecc, unsigned bit)
{
    if (bit < 512)
        line.setWord(bit / 64, line.word(bit / 64) ^ (1ull << (bit % 64)));
    else
        ecc ^= 1ull << (bit - 512);
}

TEST(EccFastPath, DecodeMatchesPerWordLoop)
{
    Pcg32 rng(0xfa57, 0x888);
    for (int sample = 0; sample < 24; ++sample) {
        CacheLine clean;
        rng.fillLine(clean);
        if (sample == 0)
            clean = CacheLine{};  // the zero line
        const LineEcc ecc = LineEccCodec::encode(clean);
        expectSameDecode(clean, ecc, "clean", 0, 0);
        ASSERT_EQ(LineEccCodec::decode(clean, ecc).status, EccStatus::Ok);

        for (unsigned bit = 0; bit < 576; ++bit) {
            CacheLine l = clean;
            LineEcc e = ecc;
            flipBit(l, e, bit);
            expectSameDecode(l, e, "single", bit, bit);
        }
        for (int pair = 0; pair < 2000; ++pair) {
            unsigned a = rng.below(576);
            unsigned b = rng.below(576);
            // Same-word pairs are the Uncorrectable case; bias to them.
            if (pair % 2 == 0)
                b = (a / 64) * 64 + rng.below(64);
            CacheLine l = clean;
            LineEcc e = ecc;
            flipBit(l, e, a);
            flipBit(l, e, b);
            expectSameDecode(l, e, "double", a, b);
        }
    }
}

// ------------------------------------------------------ Zipf sampler

TEST(ZipfGuide, SampleMatchesOracleOnPcgStreams)
{
    for (std::uint64_t n : {1ull, 2ull, 7ull, 8192ull, 131072ull}) {
        for (double s : {0.0, 0.5, 0.99, 1.2}) {
            ZipfSampler z(n, s);
            Pcg32 fast(n * 31 + static_cast<std::uint64_t>(s * 100), 3);
            Pcg32 ref = fast;
            for (int i = 0; i < 20000; ++i) {
                ASSERT_EQ(z.sample(fast), z.sampleOracle(ref))
                    << "n " << n << " s " << s << " draw " << i;
            }
        }
    }
}

TEST(ZipfGuide, RankMatchesOracleAroundEveryCdfBoundary)
{
    for (std::uint64_t n : {1ull, 2ull, 7ull, 8192ull}) {
        for (double s : {0.0, 0.5, 0.99, 1.2}) {
            ZipfSampler z(n, s);
            auto check = [&](double u) {
                ASSERT_EQ(z.rank(u), z.rankOracle(u))
                    << "n " << n << " s " << s << " u " << u;
            };
            check(0.0);
            check(z.total());
            for (std::uint64_t k = 0; k < n; ++k) {
                double c = z.cumulative(k);
                check(c);
                check(std::nextafter(c, 0.0));
                check(std::nextafter(c, 2 * c + 1));
            }
            // And every bucket edge the guide table was built on.
            double step = z.total() / static_cast<double>(n);
            for (std::uint64_t j = 0; j <= n; ++j) {
                double e = static_cast<double>(j) * step;
                check(e);
                check(std::nextafter(e, 0.0));
                check(std::nextafter(e, 2 * e + 1));
            }
        }
    }
}

std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(ZipfGuide, SaturatedHotPoolStreamUnchanged)
{
    // A 512-line hot pool saturates early, after which unique writes
    // skip their 16 sampler draws but must still consume them.
    AppProfile p = findApp("mcf");
    p.hotPoolLines = 512;
    SyntheticWorkload w(p, 42);
    std::uint64_t h = 0xcbf29ce484222325ull;
    TraceRecord rec;
    for (int i = 0; i < 1000000; ++i) {
        ASSERT_TRUE(w.next(rec));
        std::uint8_t op = rec.op == OpType::Write ? 1 : 0;
        h = fnv1a(h, &op, 1);
        h = fnv1a(h, &rec.addr, sizeof rec.addr);
        h = fnv1a(h, &rec.icount, sizeof rec.icount);
        h = fnv1a(h, rec.data.data(), kLineSize);
    }
    EXPECT_GT(w.uniqueIdsIssued(), p.hotPoolLines + 1);
    // Recorded before the saturated-pool shortcut existed.
    EXPECT_EQ(h, 0xd0718590368e35edull);
}

// ---------------------------------------------- fast line comparison

CacheLine
randomLine(Pcg32 &rng)
{
    CacheLine l;
    rng.fillLine(l);
    return l;
}

TEST(FastLineCompare, EqualLinesAgreeWithMemcmp)
{
    Pcg32 rng(0xfeed, 0x333);
    for (int it = 0; it < 1000; ++it) {
        CacheLine a = randomLine(rng);
        CacheLine b = a;
        ASSERT_TRUE(linesEqualFast(a, b));
        ASSERT_TRUE(a == b);
    }
    CacheLine z1, z2;
    EXPECT_TRUE(linesEqualFast(z1, z2));
}

TEST(FastLineCompare, EveryNearEqualBitFlipDetected)
{
    Pcg32 rng(0xbeef, 0x444);
    CacheLine base = randomLine(rng);
    for (unsigned bit = 0; bit < kLineSize * 8; ++bit) {
        CacheLine other = base;
        other[bit / 8] =
            static_cast<std::uint8_t>(other[bit / 8] ^
                                      (1u << (bit % 8)));
        ASSERT_FALSE(linesEqualFast(base, other)) << "bit " << bit;
        ASSERT_FALSE(linesEqualFast(other, base)) << "bit " << bit;
        ASSERT_FALSE(base == other);
    }
}

TEST(FastLineCompare, EveryNearEqualByteChangeDetected)
{
    Pcg32 rng(0xabcd, 0x555);
    CacheLine base = randomLine(rng);
    for (unsigned i = 0; i < kLineSize; ++i) {
        CacheLine other = base;
        other[i] = static_cast<std::uint8_t>(other[i] + 1);
        ASSERT_FALSE(linesEqualFast(base, other)) << "byte " << i;
        ASSERT_EQ(base == other, linesEqualFast(base, other));
    }
}

TEST(FastLineCompare, RandomPairsAgreeWithMemcmp)
{
    Pcg32 rng(0x7777, 0x666);
    for (int it = 0; it < 20000; ++it) {
        CacheLine a = randomLine(rng);
        CacheLine b = rng.chance(0.3) ? a : randomLine(rng);
        // Sometimes diverge only in the last word (exercises the full
        // walk before the early exit can trigger).
        if (rng.chance(0.2)) {
            b = a;
            b.setWord(7, b.word(7) ^ (1ull << rng.below(64)));
        }
        bool ref = std::memcmp(a.data(), b.data(), kLineSize) == 0;
        ASSERT_EQ(ref, linesEqualFast(a, b)) << "iteration " << it;
    }
}

} // namespace
} // namespace esd
