/**
 * @file
 * Cache-line-granularity ECC: per-word Hamming(72,64) aggregated into
 * the 64-bit line ECC the memory controller transmits alongside data.
 *
 * This 64-bit value (8 check bytes, one per 8-byte word) is exactly
 * what ESD intercepts as its free fingerprint: equal lines always have
 * equal ECC; different lines collide only when every one of the eight
 * words collides in its 8-bit check space.
 */

#ifndef ESD_ECC_LINE_ECC_HH
#define ESD_ECC_LINE_ECC_HH

#include <cstdint>

#include "common/types.hh"
#include "ecc/hamming.hh"

namespace esd
{

/** The 64-bit per-line ECC word (check byte i protects word i). */
using LineEcc = std::uint64_t;

/** Outcome of scrubbing a full line against its ECC. */
struct LineDecodeResult
{
    /** Worst status across the eight words. */
    EccStatus status = EccStatus::Ok;

    /** Line after any single-bit corrections. */
    CacheLine line;

    /** ECC word after any check-bit corrections. */
    LineEcc ecc = 0;

    /** Number of words that needed correction. */
    unsigned correctedWords = 0;
};

/**
 * Encoder/decoder between 64-byte lines and their 64-bit ECC.
 */
class LineEccCodec
{
  public:
    /** Compute the 64-bit ECC of @p line (check byte i = word i) with
     * the table-driven whole-line encoder, Hamming72::encodeLine(). */
    static LineEcc
    encode(const CacheLine &line)
    {
        std::uint64_t words[kWordsPerLine];
        for (std::size_t i = 0; i < kWordsPerLine; ++i)
            words[i] = line.word(i);
        std::uint8_t checks[kWordsPerLine];
        Hamming72::encodeLine(words, checks);
        LineEcc ecc = 0;
        for (std::size_t i = 0; i < kWordsPerLine; ++i)
            ecc |= static_cast<std::uint64_t>(checks[i]) << (i * 8);
        return ecc;
    }

    /** Reference oracle for encode(): eight independent scalar word
     * encodes through Hamming72::encode(). */
    static LineEcc
    encodeScalar(const CacheLine &line)
    {
        LineEcc ecc = 0;
        for (std::size_t i = 0; i < kWordsPerLine; ++i) {
            auto c = static_cast<std::uint64_t>(
                Hamming72::encode(line.word(i)));
            ecc |= c << (i * 8);
        }
        return ecc;
    }

    /** The check byte protecting word @p i inside @p ecc. */
    static std::uint8_t
    checkByte(LineEcc ecc, std::size_t i)
    {
        return static_cast<std::uint8_t>(ecc >> (i * 8));
    }

    /**
     * Verify-and-correct a line read back from (possibly faulty) media.
     *
     * Applies per-word SEC-DED: single-bit errors in any word are
     * corrected independently; any word with a double error marks the
     * whole line Uncorrectable.
     *
     * A clean line is the common case and takes one line encode and a
     * compare: a word decodes Ok exactly when its recomputed check
     * byte equals the stored one, so the per-word decode loop runs
     * only when some check byte differs.
     */
    static LineDecodeResult
    decode(const CacheLine &line, LineEcc ecc)
    {
        if (encode(line) != ecc)
            return decodeScalar(line, ecc);
        LineDecodeResult out;
        out.line = line;
        out.ecc = ecc;
        return out;
    }

    /** Reference oracle for decode(): the per-word Hamming72::decode()
     * loop with no clean-line shortcut. */
    static LineDecodeResult
    decodeScalar(const CacheLine &line, LineEcc ecc)
    {
        LineDecodeResult out;
        out.line = line;
        out.ecc = ecc;
        for (std::size_t i = 0; i < kWordsPerLine; ++i) {
            EccDecodeResult r =
                Hamming72::decode(line.word(i), checkByte(ecc, i));
            if (r.status == EccStatus::Uncorrectable) {
                out.status = EccStatus::Uncorrectable;
                return out;
            }
            if (r.corrected()) {
                ++out.correctedWords;
                out.line.setWord(i, r.data);
                out.ecc &= ~(0xffull << (i * 8));
                out.ecc |= static_cast<std::uint64_t>(r.check) << (i * 8);
                if (out.status == EccStatus::Ok)
                    out.status = r.status;
                else if (out.status != r.status)
                    out.status = EccStatus::CorrectedData;
            }
        }
        return out;
    }
};

} // namespace esd

#endif // ESD_ECC_LINE_ECC_HH
