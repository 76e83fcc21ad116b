#include "ecc/hamming.hh"

#include <array>
#include <bit>

#include "common/logging.hh"

namespace esd
{

namespace
{

/** True when @p p is a power of two (a check-bit position). */
constexpr bool
isPow2(unsigned p)
{
    return p != 0 && (p & (p - 1)) == 0;
}

/** Tables mapping data-bit index <-> codeword position, plus the seven
 * parity coverage masks over data bits. Built once at startup. */
struct Tables
{
    std::array<unsigned, 64> dataToPos{};   // data bit i -> position 1..71
    std::array<int, 72> posToData{};        // position -> data bit or -1
    std::array<std::uint64_t, 7> mask{};    // check c covers data bits

    Tables()
    {
        posToData.fill(-1);
        unsigned i = 0;
        for (unsigned p = 1; p <= 71 && i < 64; ++p) {
            if (isPow2(p))
                continue;
            dataToPos[i] = p;
            posToData[p] = static_cast<int>(i);
            ++i;
        }
        for (unsigned c = 0; c < 7; ++c) {
            std::uint64_t m = 0;
            for (unsigned b = 0; b < 64; ++b) {
                if (dataToPos[b] & (1u << c))
                    m |= (1ull << b);
            }
            mask[c] = m;
        }
    }
};

const Tables tbl;

/** Even parity of a 64-bit value. */
inline unsigned
parity64(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v) & 1);
}

/** Per-byte check contributions: t[k][v] = encode(v << 8k). SEC-DED
 * (overall parity included) is linear over GF(2), so a word's check
 * byte is the XOR of its eight byte entries. Built from the scalar
 * encode() after tbl, which it depends on. */
struct ByteTables
{
    std::uint8_t t[8][256];

    ByteTables()
    {
        for (unsigned k = 0; k < 8; ++k) {
            for (unsigned v = 0; v < 256; ++v)
                t[k][v] = Hamming72::encode(
                    static_cast<std::uint64_t>(v) << (8 * k));
        }
    }
};

const ByteTables byteTbl;

} // namespace

std::uint64_t
Hamming72::checkMask(unsigned c)
{
    esd_assert(c < 7, "check index out of range");
    return tbl.mask[c];
}

std::uint8_t
Hamming72::byteCheck(unsigned k, std::uint8_t v)
{
    esd_assert(k < 8, "byte index out of range");
    return byteTbl.t[k][v];
}

unsigned
Hamming72::dataPosition(unsigned data_bit)
{
    return tbl.dataToPos[data_bit];
}

std::uint8_t
Hamming72::encode(std::uint64_t data)
{
    std::uint8_t check = 0;
    for (unsigned c = 0; c < 7; ++c) {
        if (parity64(data & tbl.mask[c]))
            check |= static_cast<std::uint8_t>(1u << c);
    }
    // Overall even parity over the 71 codeword bits (data + 7 checks).
    unsigned p = parity64(data) ^
                 parity64(static_cast<std::uint64_t>(check & 0x7f));
    if (p)
        check |= 0x80;
    return check;
}

void
Hamming72::encodeLine(const std::uint64_t words[8], std::uint8_t checks[8])
{
    for (unsigned j = 0; j < 8; ++j) {
        const std::uint64_t w = words[j];
        checks[j] = static_cast<std::uint8_t>(
            byteTbl.t[0][w & 0xff] ^ byteTbl.t[1][(w >> 8) & 0xff] ^
            byteTbl.t[2][(w >> 16) & 0xff] ^ byteTbl.t[3][(w >> 24) & 0xff] ^
            byteTbl.t[4][(w >> 32) & 0xff] ^ byteTbl.t[5][(w >> 40) & 0xff] ^
            byteTbl.t[6][(w >> 48) & 0xff] ^ byteTbl.t[7][w >> 56]);
    }
}

EccDecodeResult
Hamming72::decode(std::uint64_t data, std::uint8_t check)
{
    EccDecodeResult res;
    res.data = data;
    res.check = check;

    // Syndrome: recomputed Hamming checks XOR received checks. With a
    // single flipped codeword bit the syndrome equals that bit's
    // position (check-bit positions are powers of two, so a flipped
    // check bit yields exactly its own position).
    unsigned syndrome = 0;
    for (unsigned c = 0; c < 7; ++c) {
        unsigned s = parity64(data & tbl.mask[c]) ^ ((check >> c) & 1u);
        syndrome |= s << c;
    }

    // Overall parity across all 72 bits: even when no (or an even number
    // of) flips occurred.
    unsigned overall = parity64(data) ^
                       parity64(static_cast<std::uint64_t>(check));

    if (syndrome == 0 && overall == 0) {
        res.status = EccStatus::Ok;
        return res;
    }

    if (overall == 0) {
        // Non-zero syndrome with even total parity: two bit flips.
        res.status = EccStatus::Uncorrectable;
        return res;
    }

    // Odd parity: assume a single flip.
    if (syndrome == 0) {
        // The overall-parity bit itself flipped.
        res.status = EccStatus::CorrectedCheck;
        res.check = check ^ 0x80;
        res.bitIndex = 7;
        return res;
    }

    if (syndrome > 71) {
        // Single-flip syndromes are valid positions <= 71; anything
        // larger means >= 3 errors conspired.
        res.status = EccStatus::Uncorrectable;
        return res;
    }

    if (isPow2(syndrome)) {
        // A Hamming check bit flipped.
        unsigned c = static_cast<unsigned>(std::countr_zero(syndrome));
        res.status = EccStatus::CorrectedCheck;
        res.check = check ^ static_cast<std::uint8_t>(1u << c);
        res.bitIndex = static_cast<std::uint8_t>(c);
        return res;
    }

    int data_bit = tbl.posToData[syndrome];
    esd_assert(data_bit >= 0, "syndrome maps to no data bit");
    res.status = EccStatus::CorrectedData;
    res.data = data ^ (1ull << data_bit);
    res.bitIndex = static_cast<std::uint8_t>(data_bit);
    return res;
}

} // namespace esd
