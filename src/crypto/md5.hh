/**
 * @file
 * MD5 (RFC 1321) — included because the paper cites MD5 (312 ns/line)
 * as the other classic fingerprint choice; the collision bench and the
 * scheme cost model both reference it.
 */

#ifndef ESD_CRYPTO_MD5_HH
#define ESD_CRYPTO_MD5_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace esd
{

/** A 128-bit MD5 digest. */
using Md5Digest = std::array<std::uint8_t, 16>;

/** Incremental MD5 hasher. */
class Md5
{
  public:
    Md5() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Md5Digest finish();

    static Md5Digest digest(const void *data, std::size_t len);

    static Md5Digest
    digestLine(const CacheLine &line)
    {
        return digest(line.data(), kLineSize);
    }

    /** First 64 bits of the line digest as an index key: the line as
     * one block, then the constant padding block; digestLine() is its
     * oracle. */
    static std::uint64_t fingerprint64(const CacheLine &line);

    static std::string toHex(const Md5Digest &d);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t h_[4];
    std::uint8_t buf_[64];
    std::size_t bufLen_;
    std::uint64_t totalLen_;
};

} // namespace esd

#endif // ESD_CRYPTO_MD5_HH
