/**
 * @file
 * Deterministic fault injection for ECC validation.
 *
 * Used by tests and the collision/robustness benches to flip specific
 * or random bits in a (line, ECC) pair and confirm the codec's
 * correct/detect behaviour — the "does reusing ECC as a fingerprint
 * compromise its error function?" question from Section III-C.
 */

#ifndef ESD_ECC_ERROR_INJECTOR_HH
#define ESD_ECC_ERROR_INJECTOR_HH

#include <bitset>
#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "ecc/line_ecc.hh"

namespace esd
{

/** Flips bits in stored (line, ECC) pairs to emulate media faults. */
class ErrorInjector
{
  public:
    explicit ErrorInjector(std::uint64_t seed = 7) : rng_(seed) {}

    /** Flip data bit @p bit (0..511) of @p line. */
    static void
    flipDataBit(CacheLine &line, unsigned bit)
    {
        line[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }

    /** Flip check bit @p bit (0..63) of @p ecc. */
    static void
    flipEccBit(LineEcc &ecc, unsigned bit)
    {
        ecc ^= 1ull << bit;
    }

    /** Flip one uniformly random bit of the 576-bit codeword; returns
     * the flipped global bit index (data bits first, then ECC bits). */
    unsigned
    flipRandomBit(CacheLine &line, LineEcc &ecc)
    {
        unsigned bit = rng_.below(512 + 64);
        if (bit < 512)
            flipDataBit(line, bit);
        else
            flipEccBit(ecc, bit - 512);
        return bit;
    }

    /** Flip @p n distinct random bits *within one word's codeword* so
     * multi-bit behaviour is exercised deterministically. */
    void
    flipBitsInWord(CacheLine &line, LineEcc &ecc, std::size_t word,
                   unsigned n)
    {
        std::bitset<72> chosen;
        while (n > 0) {
            unsigned b = rng_.below(72);
            if (chosen[b])
                continue;
            chosen[b] = true;
            if (b < 64) {
                line.setWord(word, line.word(word) ^ (1ull << b));
            } else {
                ecc ^= 1ull << (word * 8 + (b - 64));
            }
            --n;
        }
    }

  private:
    Pcg32 rng_;
};

} // namespace esd

#endif // ESD_ECC_ERROR_INJECTOR_HH
