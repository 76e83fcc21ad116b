#include "crypto/md5.hh"

#include <bit>
#include <cstring>

namespace esd
{

namespace
{

constexpr std::uint32_t kT[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu,
    0xf57c0fafu, 0x4787c62au, 0xa8304613u, 0xfd469501u,
    0x698098d8u, 0x8b44f7afu, 0xffff5bb1u, 0x895cd7beu,
    0x6b901122u, 0xfd987193u, 0xa679438eu, 0x49b40821u,
    0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u,
    0x21e1cde6u, 0xc33707d6u, 0xf4d50d87u, 0x455a14edu,
    0xa9e3e905u, 0xfcefa3f8u, 0x676f02d9u, 0x8d2a4c8au,
    0xfffa3942u, 0x8771f681u, 0x6d9d6122u, 0xfde5380cu,
    0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u,
    0xd9d4d039u, 0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u,
    0xf4292244u, 0x432aff97u, 0xab9423a7u, 0xfc93a039u,
    0x655b59c3u, 0x8f0ccc92u, 0xffeff47du, 0x85845dd1u,
    0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u,
};

constexpr unsigned kS[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

} // namespace

void
Md5::reset()
{
    h_[0] = 0x67452301u;
    h_[1] = 0xefcdab89u;
    h_[2] = 0x98badcfeu;
    h_[3] = 0x10325476u;
    bufLen_ = 0;
    totalLen_ = 0;
}

void
Md5::processBlock(const std::uint8_t *block)
{
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
        m[i] = static_cast<std::uint32_t>(block[i * 4]) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
    }

    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];

    for (int i = 0; i < 64; ++i) {
        std::uint32_t f;
        int g;
        if (i < 16) {
            f = (b & c) | (~b & d);
            g = i;
        } else if (i < 32) {
            f = (d & b) | (~d & c);
            g = (5 * i + 1) % 16;
        } else if (i < 48) {
            f = b ^ c ^ d;
            g = (3 * i + 5) % 16;
        } else {
            f = c ^ (b | ~d);
            g = (7 * i) % 16;
        }
        std::uint32_t tmp = d;
        d = c;
        c = b;
        b = b + std::rotl(a + f + kT[i] + m[g], static_cast<int>(kS[i]));
        a = tmp;
    }

    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
}

void
Md5::update(const void *data, std::size_t len)
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

Md5Digest
Md5::finish()
{
    std::uint64_t bit_len = totalLen_ * 8;
    buf_[bufLen_++] = 0x80;
    if (bufLen_ > 56) {
        std::memset(buf_ + bufLen_, 0, 64 - bufLen_);
        processBlock(buf_);
        bufLen_ = 0;
    }
    std::memset(buf_ + bufLen_, 0, 56 - bufLen_);
    // Little-endian length.
    for (int i = 0; i < 8; ++i)
        buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
    processBlock(buf_);
    bufLen_ = 0;

    Md5Digest out;
    for (int i = 0; i < 4; ++i) {
        out[i * 4] = static_cast<std::uint8_t>(h_[i]);
        out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 8);
        out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 16);
        out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i] >> 24);
    }
    return out;
}

Md5Digest
Md5::digest(const void *data, std::size_t len)
{
    Md5 m;
    m.update(data, len);
    return m.finish();
}

std::uint64_t
Md5::fingerprint64(const CacheLine &line)
{
    // One block of data plus the constant padding block: 0x80, zeros,
    // and the 512-bit message length (little-endian).
    static_assert(kLineSize == 64, "fingerprint64 hashes one block");
    static constexpr std::uint8_t kPad[64] = {
        0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0,    0, 0, 0, 0, 0, 0, 0, 0x00, 0x02, 0, 0, 0, 0, 0, 0};
    Md5 m;
    m.processBlock(line.data());
    m.processBlock(kPad);
    // Digest bytes are h_[0], h_[1] little-endian; read them big-endian.
    return (static_cast<std::uint64_t>(__builtin_bswap32(m.h_[0])) << 32) |
           __builtin_bswap32(m.h_[1]);
}

std::string
Md5::toHex(const Md5Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(32);
    for (std::uint8_t b : d) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xf]);
    }
    return s;
}

} // namespace esd
