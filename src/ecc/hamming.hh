/**
 * @file
 * Hamming(72,64) SEC-DED codec for 8-byte words.
 *
 * This is the per-word ECC the paper piggybacks on: each 8-byte word of
 * a cache line carries 8 check bits (7 extended-Hamming checks plus one
 * overall parity), giving Single-Error-Correct / Double-Error-Detect
 * protection and — for ESD — a free 8-bit-per-word fingerprint.
 *
 * Layout: codeword positions are 1-indexed 1..71. Positions that are
 * powers of two (1,2,4,8,16,32,64) hold the seven Hamming check bits;
 * the remaining 64 positions hold data bits in increasing order. An
 * eighth bit holds overall (even) parity across all 71 bits, enabling
 * double-error detection.
 */

#ifndef ESD_ECC_HAMMING_HH
#define ESD_ECC_HAMMING_HH

#include <cstdint>

namespace esd
{

/** Outcome of decoding a possibly corrupted (72,64) codeword. */
enum class EccStatus : std::uint8_t
{
    Ok = 0,            ///< no error detected
    CorrectedData,     ///< single-bit error in a data bit, corrected
    CorrectedCheck,    ///< single-bit error in a check/parity bit, corrected
    Uncorrectable,     ///< double (or worse) error detected
};

/** Result of Hamming72::decode. */
struct EccDecodeResult
{
    EccStatus status = EccStatus::Ok;

    /** Data after any correction was applied. */
    std::uint64_t data = 0;

    /** Check byte after any correction was applied. */
    std::uint8_t check = 0;

    /** For CorrectedData: the corrected data bit index (0..63).
     * For CorrectedCheck: the corrected check bit index (0..7, 7 being
     * the overall parity). Unused otherwise. */
    std::uint8_t bitIndex = 0;

    bool corrected() const
    {
        return status == EccStatus::CorrectedData ||
               status == EccStatus::CorrectedCheck;
    }
};

/**
 * Stateless Hamming(72,64) SEC-DED encoder/decoder.
 *
 * All methods are static; the class exists to group the parity-mask
 * and per-byte check tables, which are computed once at namespace-scope
 * initialisation.
 */
class Hamming72
{
  public:
    /** Number of check bits per 64-bit word (7 Hamming + 1 parity). */
    static constexpr unsigned kCheckBits = 8;

    /** Compute the 8 check bits for @p data. */
    static std::uint8_t encode(std::uint64_t data);

    /**
     * Table-driven encode of a full cache line: the check bytes of all
     * eight 64-bit words.
     *
     * The code is linear over GF(2), so a word's check byte is the XOR
     * of the contributions of its eight bytes, each read from a
     * 256-entry table (byteCheck()). Bit-identical to calling encode()
     * on each word — encodeLineScalar() is the reference oracle.
     *
     * @param words  the eight 64-bit data words of one line
     * @param checks receives the eight check bytes (checks[i] protects
     *               words[i])
     */
    static void encodeLine(const std::uint64_t words[8],
                           std::uint8_t checks[8]);

    /** Reference oracle for encodeLine(): eight scalar encodes. */
    static void
    encodeLineScalar(const std::uint64_t words[8], std::uint8_t checks[8])
    {
        for (unsigned i = 0; i < 8; ++i)
            checks[i] = encode(words[i]);
    }

    /**
     * Decode a received word.
     *
     * @param data  possibly corrupted 64 data bits
     * @param check possibly corrupted 8 check bits
     * @return decode outcome; on Corrected* the result carries the
     *         corrected data/check.
     */
    static EccDecodeResult decode(std::uint64_t data, std::uint8_t check);

    /** True when @p check is consistent with @p data (no error). */
    static bool
    verify(std::uint64_t data, std::uint8_t check)
    {
        return encode(data) == check;
    }

    /** Check byte of the word whose only non-zero byte is byte @p k
     * (0..7) with value @p v — the table entry encodeLine() XORs;
     * exposed so tests can check every entry against encode(). */
    static std::uint8_t byteCheck(unsigned k, std::uint8_t v);

    /** Data-bit parity coverage mask of Hamming check @p c (0..6) —
     * exposed so tests can validate the code's linear structure. */
    static std::uint64_t checkMask(unsigned c);

  private:
    static unsigned dataPosition(unsigned data_bit);
};

} // namespace esd

#endif // ESD_ECC_HAMMING_HH
