/**
 * @file
 * SHA-1 (FIPS 180-4) — the fingerprint function of the Dedup_SHA1
 * baseline scheme. Functionally complete (arbitrary-length messages,
 * streaming interface) so the collision benches operate on true
 * digests; cost modelling (321 ns / line) lives in CryptoCostConfig.
 */

#ifndef ESD_CRYPTO_SHA1_HH
#define ESD_CRYPTO_SHA1_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace esd
{

/** A 160-bit SHA-1 digest. */
using Sha1Digest = std::array<std::uint8_t, 20>;

/** Incremental SHA-1 hasher. */
class Sha1
{
  public:
    Sha1() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes from @p data. */
    void update(const void *data, std::size_t len);

    /** Finalize and produce the digest; the object must be reset()
     * before reuse. */
    Sha1Digest finish();

    /** One-shot digest of a buffer. */
    static Sha1Digest digest(const void *data, std::size_t len);

    /** One-shot digest of a cache line. */
    static Sha1Digest
    digestLine(const CacheLine &line)
    {
        return digest(line.data(), kLineSize);
    }

    /** First 64 bits of the line digest — the index key used by the
     * Dedup_SHA1 fingerprint tables. Compresses the line as one block
     * and then the constant padding block; digestLine() (the streaming
     * path) is its oracle. */
    static std::uint64_t fingerprint64(const CacheLine &line);

    /** Lowercase hex rendering of a digest. */
    static std::string toHex(const Sha1Digest &d);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t h_[5];
    std::uint8_t buf_[64];
    std::size_t bufLen_;
    std::uint64_t totalLen_;
};

} // namespace esd

#endif // ESD_CRYPTO_SHA1_HH
