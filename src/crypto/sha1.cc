#include "crypto/sha1.hh"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include "crypto/cpu_features.hh"
#define ESD_SHA1_HW 1
#endif

namespace esd
{

namespace
{

inline std::uint32_t
rotl(std::uint32_t v, unsigned n)
{
    return std::rotl(v, static_cast<int>(n));
}

#ifdef ESD_SHA1_HW

/**
 * SHA-1 compression via the SHA extensions. sha1rnds4 runs four rounds
 * per issue with the round function picked by the immediate, sha1msg1/
 * sha1msg2/xor implement the W[t] recurrence four lanes at a time, and
 * sha1nexte folds the rotated 'a' into the next round group's message
 * words. The byte shuffle converts the big-endian message words into
 * the lane order the instructions expect (W[t] in the high lane).
 */
__attribute__((target("sha,ssse3,sse4.1"))) void
processBlockHw(std::uint32_t *h, const std::uint8_t *data)
{
    const __m128i kShuf = _mm_set_epi64x(
        static_cast<long long>(0x0001020304050607ull),
        static_cast<long long>(0x08090a0b0c0d0e0full));

    __m128i abcd =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h));
    abcd = _mm_shuffle_epi32(abcd, 0x1B);
    __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
    const __m128i abcdSave = abcd;
    const __m128i e0Save = e0;
    __m128i e1;

    // Rounds 0-3.
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data)), kShuf);
    e0 = _mm_add_epi32(e0, m0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    // Rounds 4-7.
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 16)),
        kShuf);
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m0 = _mm_sha1msg1_epu32(m0, m1);

    // Rounds 8-11.
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 32)),
        kShuf);
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    // Rounds 12-15.
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(data + 48)),
        kShuf);
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 16-19.
    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    // Rounds 20-23.
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    // Rounds 24-27.
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    // Rounds 28-31.
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 32-35.
    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    // Rounds 36-39.
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    // Rounds 40-43.
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    // Rounds 44-47.
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 48-51.
    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    // Rounds 52-55.
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    m0 = _mm_sha1msg1_epu32(m0, m1);
    m3 = _mm_xor_si128(m3, m1);

    // Rounds 56-59.
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    m1 = _mm_sha1msg1_epu32(m1, m2);
    m0 = _mm_xor_si128(m0, m2);

    // Rounds 60-63.
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    m0 = _mm_sha1msg2_epu32(m0, m3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    m2 = _mm_sha1msg1_epu32(m2, m3);
    m1 = _mm_xor_si128(m1, m3);

    // Rounds 64-67.
    e0 = _mm_sha1nexte_epu32(e0, m0);
    e1 = abcd;
    m1 = _mm_sha1msg2_epu32(m1, m0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    m3 = _mm_sha1msg1_epu32(m3, m0);
    m2 = _mm_xor_si128(m2, m0);

    // Rounds 68-71.
    e1 = _mm_sha1nexte_epu32(e1, m1);
    e0 = abcd;
    m2 = _mm_sha1msg2_epu32(m2, m1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    m3 = _mm_xor_si128(m3, m1);

    // Rounds 72-75.
    e0 = _mm_sha1nexte_epu32(e0, m2);
    e1 = abcd;
    m3 = _mm_sha1msg2_epu32(m3, m2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    // Rounds 76-79.
    e1 = _mm_sha1nexte_epu32(e1, m3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    // Fold into the chaining state.
    e0 = _mm_sha1nexte_epu32(e0, e0Save);
    abcd = _mm_add_epi32(abcd, abcdSave);
    abcd = _mm_shuffle_epi32(abcd, 0x1B);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h), abcd);
    h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif // ESD_SHA1_HW

} // namespace

void
Sha1::reset()
{
    h_[0] = 0x67452301u;
    h_[1] = 0xEFCDAB89u;
    h_[2] = 0x98BADCFEu;
    h_[3] = 0x10325476u;
    h_[4] = 0xC3D2E1F0u;
    bufLen_ = 0;
    totalLen_ = 0;
}

void
Sha1::processBlock(const std::uint8_t *block)
{
#ifdef ESD_SHA1_HW
    if (cpuHasSha()) {
        processBlockHw(h_, block);
        return;
    }
#endif
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i)
        w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];

    for (int i = 0; i < 80; ++i) {
        std::uint32_t f, k;
        if (i < 20) {
            f = (b & c) | (~b & d);
            k = 0x5A827999u;
        } else if (i < 40) {
            f = b ^ c ^ d;
            k = 0x6ED9EBA1u;
        } else if (i < 60) {
            f = (b & c) | (b & d) | (c & d);
            k = 0x8F1BBCDCu;
        } else {
            f = b ^ c ^ d;
            k = 0xCA62C1D6u;
        }
        std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
        e = d;
        d = c;
        c = rotl(b, 30);
        b = a;
        a = tmp;
    }

    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
}

void
Sha1::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    totalLen_ += len;
    while (len > 0) {
        std::size_t take = std::min<std::size_t>(64 - bufLen_, len);
        std::memcpy(buf_ + bufLen_, p, take);
        bufLen_ += take;
        p += take;
        len -= take;
        if (bufLen_ == 64) {
            processBlock(buf_);
            bufLen_ = 0;
        }
    }
}

Sha1Digest
Sha1::finish()
{
    std::uint64_t bit_len = totalLen_ * 8;
    buf_[bufLen_++] = 0x80;
    if (bufLen_ > 56) {
        std::memset(buf_ + bufLen_, 0, 64 - bufLen_);
        processBlock(buf_);
        bufLen_ = 0;
    }
    std::memset(buf_ + bufLen_, 0, 56 - bufLen_);
    for (int i = 0; i < 8; ++i)
        buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    processBlock(buf_);
    bufLen_ = 0;

    Sha1Digest out;
    for (int i = 0; i < 5; ++i) {
        out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
        out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return out;
}

Sha1Digest
Sha1::digest(const void *data, std::size_t len)
{
    Sha1 s;
    s.update(data, len);
    return s.finish();
}

std::uint64_t
Sha1::fingerprint64(const CacheLine &line)
{
    // A line is exactly one block, so its padding is a constant second
    // block: 0x80, zeros, and the 512-bit message length (big-endian).
    static_assert(kLineSize == 64, "fingerprint64 hashes one block");
    static constexpr std::uint8_t kPad[64] = {
        0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x00};
    Sha1 s;
    s.processBlock(line.data());
    s.processBlock(kPad);
    return (static_cast<std::uint64_t>(s.h_[0]) << 32) | s.h_[1];
}

std::string
Sha1::toHex(const Sha1Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(40);
    for (std::uint8_t b : d) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xf]);
    }
    return s;
}

} // namespace esd
