/**
 * @file
 * Counter-mode encryption (CME) of cache lines.
 *
 * The ESD write path encrypts every line that survives deduplication
 * before it crosses the memory bus (Section III-A). Counter-mode
 * encryption keeps the per-line pad precomputable: the pad depends only
 * on (line address, per-line write counter), so the XOR is the only
 * work left on the critical path — which is why CryptoCostConfig models
 * a small encryptLatency.
 *
 * A 64-byte line needs four AES blocks; the counter block packs the
 * line address, the monotonically increasing write counter, and the
 * block index.
 */

#ifndef ESD_CRYPTO_CTR_MODE_HH
#define ESD_CRYPTO_CTR_MODE_HH

#include <cstdint>

#include "common/line_table.hh"
#include "common/types.hh"
#include "crypto/aes.hh"

namespace esd
{

/**
 * Line-granular counter-mode encryption engine with a per-line counter
 * table (the "minor counter" store of CME designs).
 */
class CtrModeEngine
{
  public:
    /** @p channels sets the counter table's channel-major layout (the
     * device's line interleave); it does not change any pad. */
    explicit CtrModeEngine(const AesKey &key, unsigned channels = 1)
        : aes_(key), counters_(channels)
    {
    }

    /**
     * Encrypt @p plain for @p addr, bumping the line's write counter.
     * @return the ciphertext line.
     */
    CacheLine
    encrypt(Addr addr, const CacheLine &plain)
    {
        std::uint64_t ctr = ++counters_[lineIndex(addr)];
        return applyPad(addr, ctr, plain);
    }

    /**
     * Decrypt @p cipher previously produced for @p addr with the
     * current counter value.
     */
    CacheLine
    decrypt(Addr addr, const CacheLine &cipher) const
    {
        return applyPad(addr, counter(addr), cipher);
    }

    /** Current write counter of @p addr (0 when never written). */
    std::uint64_t
    counter(Addr addr) const
    {
        const std::uint64_t *ctr = counters_.find(lineIndex(addr));
        return ctr ? *ctr : 0;
    }

    /** Visit every (line address, counter) pair in ascending address
     * order. Crash tooling snapshots this as the ground-truth oracle a
     * recovered counter set is audited against (a recovered counter
     * below the true value means a pad would be reused). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        counters_.forEach([&fn](std::uint64_t line, std::uint64_t ctr) {
            fn(static_cast<Addr>(line * kLineSize), ctr);
        });
    }

    /** Lines with a counter. */
    std::uint64_t countersTracked() const { return counters_.size(); }

    /** Stateless pad application used by both directions. */
    CacheLine
    applyPad(Addr addr, std::uint64_t ctr, const CacheLine &in) const
    {
        static_assert(kLineSize == 64, "pad batch assumes 4 AES blocks");
        AesBlock cb[4];
        for (unsigned blk = 0; blk < 4; ++blk) {
            // Counter block: addr | ctr | blk.
            for (int i = 0; i < 8; ++i)
                cb[blk][i] = static_cast<std::uint8_t>(addr >> (8 * i));
            for (int i = 0; i < 7; ++i)
                cb[blk][8 + i] = static_cast<std::uint8_t>(ctr >> (8 * i));
            cb[blk][15] = static_cast<std::uint8_t>(blk);
        }
        AesBlock pad[4];
        aes_.encryptBlocks4(cb, pad);
        CacheLine out;
        for (unsigned blk = 0; blk < 4; ++blk) {
            for (unsigned i = 0; i < 16; ++i)
                out[blk * 16 + i] = in[blk * 16 + i] ^ pad[blk][i];
        }
        return out;
    }

  private:
    Aes128 aes_;
    LineTable<std::uint64_t> counters_;
};

} // namespace esd

#endif // ESD_CRYPTO_CTR_MODE_HH
