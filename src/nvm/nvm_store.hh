/**
 * @file
 * Functional content store of the NVMM: what is actually resident at
 * each physical line address, together with its line ECC.
 *
 * The timing model (PcmDevice) and the content model are deliberately
 * separate: schemes consult PcmDevice for *when* an access completes
 * and NvmStore for *what* the access returns — e.g. the ESD byte-by-
 * byte comparison reads real bytes back, so an ECC collision between
 * different lines is actually caught.
 *
 * Storage layout: a direct-indexed LineTable of line -> slot plus a
 * dense pool of 72-byte StoredLine payloads. The index entry is 4
 * bytes, so an index page covers 512 lines in 2 KiB, and erased slots
 * are recycled LIFO so the pool stays as hot as the working set.
 * residentAddrs() (the patrol-scrub sweep and the crash image) lists
 * lines in ascending address order, independent of the operation
 * history.
 */

#ifndef ESD_NVM_NVM_STORE_HH
#define ESD_NVM_NVM_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/line_table.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "ecc/line_ecc.hh"

namespace esd
{

/** One resident physical line: payload plus its protecting ECC. */
struct StoredLine
{
    CacheLine data;
    LineEcc ecc = 0;
};

/** Map of physical line address to resident content. */
class NvmStore
{
  public:
    /** @p channels sets the index's channel-major layout (the device's
     * line interleave); it does not change what is stored. */
    explicit NvmStore(std::uint64_t capacity_bytes, unsigned channels = 1)
        : capacityLines_(capacity_bytes / kLineSize), index_(channels)
    {
    }

    /** Install @p data (+ @p ecc) at physical address @p phys. */
    void
    write(Addr phys, const CacheLine &data, LineEcc ecc)
    {
        esd_assert(lineIndex(phys) < capacityLines_,
                   "physical address beyond device capacity");
        bool fresh = false;
        std::uint32_t &slot = *index_.insert(lineIndex(phys), &fresh);
        if (!fresh) {
            pool_[slot].data = data;
            pool_[slot].ecc = ecc;
            return;
        }
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            pool_[slot].data = data;
            pool_[slot].ecc = ecc;
        } else {
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.push_back(StoredLine{data, ecc});
        }
    }

    /**
     * Borrowed view of the content at @p phys, or nullptr when never
     * written. The pointer is invalidated by the next mutating call —
     * hot-path readers (candidate compares, demand fills) consume it
     * immediately instead of copying the 72-byte line.
     */
    const StoredLine *
    peek(Addr phys) const
    {
        const std::uint32_t *slot = index_.find(lineIndex(phys));
        return slot ? &pool_[*slot] : nullptr;
    }

    /** Content at @p phys, or nullopt when never written. */
    std::optional<StoredLine>
    read(Addr phys) const
    {
        const StoredLine *l = peek(phys);
        if (!l)
            return std::nullopt;
        return *l;
    }

    /** Drop the line at @p phys (after its last reference died). */
    void
    erase(Addr phys)
    {
        const std::uint32_t *slot = index_.find(lineIndex(phys));
        if (!slot)
            return;
        freeSlots_.push_back(*slot);
        index_.erase(lineIndex(phys));
    }

    /**
     * Fault injection: flip one stored bit of the line at @p phys.
     * Bits 0..511 hit the payload, 512..575 the ECC word.
     * @return false when no line is resident there.
     */
    bool
    corruptBit(Addr phys, unsigned bit)
    {
        StoredLine *l = peekMutable(phys);
        if (!l)
            return false;
        if (bit < 512) {
            l->data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
            l->ecc ^= 1ull << (bit - 512);
        }
        return true;
    }

    /**
     * Fault injection: force one stored bit of the line at @p phys to
     * @p value (stuck-at cells re-asserting after a write). Bit
     * numbering matches corruptBit().
     * @return false when no line is resident there.
     */
    bool
    setBit(Addr phys, unsigned bit, bool value)
    {
        StoredLine *l = peekMutable(phys);
        if (!l)
            return false;
        if (bit < 512) {
            auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
            if (value)
                l->data[bit / 8] |= mask;
            else
                l->data[bit / 8] &= static_cast<std::uint8_t>(~mask);
        } else {
            std::uint64_t mask = 1ull << (bit - 512);
            if (value)
                l->ecc |= mask;
            else
                l->ecc &= ~mask;
        }
        return true;
    }

    /** Current value of stored bit @p bit at @p phys (false when the
     * line is absent). */
    bool
    bitAt(Addr phys, unsigned bit) const
    {
        const StoredLine *l = peek(phys);
        if (!l)
            return false;
        if (bit < 512)
            return (l->data[bit / 8] >> (bit % 8)) & 1u;
        return (l->ecc >> (bit - 512)) & 1u;
    }

    bool contains(Addr phys) const
    {
        return index_.contains(lineIndex(phys));
    }

    /** Snapshot of every resident line address, ascending (the
     * patrol-scrub sweep order and the crash image's line order). */
    std::vector<Addr>
    residentAddrs() const
    {
        std::vector<Addr> out;
        out.reserve(index_.size());
        index_.forEach([&out](std::uint64_t line, std::uint32_t) {
            out.push_back(static_cast<Addr>(line * kLineSize));
        });
        return out;
    }

    /** Number of resident lines (space-efficiency accounting). */
    std::uint64_t residentLines() const { return index_.size(); }

    std::uint64_t capacityLines() const { return capacityLines_; }

  private:
    StoredLine *
    peekMutable(Addr phys)
    {
        const std::uint32_t *slot = index_.find(lineIndex(phys));
        return slot ? &pool_[*slot] : nullptr;
    }

    std::uint64_t capacityLines_;
    /** Line index -> pool slot. */
    LineTable<std::uint32_t> index_;
    /** Dense payload storage addressed by slot. */
    std::vector<StoredLine> pool_;
    /** Recycled slots, reused LIFO. */
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace esd

#endif // ESD_NVM_NVM_STORE_HH
