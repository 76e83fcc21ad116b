/**
 * @file
 * Reference-counted physical line allocation for deduplicating schemes.
 *
 * Dedup decouples logical addresses from physical lines: many logical
 * lines may reference one stored physical line. The LineStore owns
 * that relationship — allocating physical line addresses (bump pointer
 * plus free list), counting references, and releasing content back to
 * the NvmStore when the last reference dies.
 *
 * Each allocated line has one record in a direct-indexed LineTable:
 * its reference count and the fingerprint (ECC or hash) the scheme
 * registered for it, so releasing a line touches one record. A line is
 * "allocated" while its record exists — with 0 references between
 * allocate() and the first addRef() — and "free" once it is erased.
 */

#ifndef ESD_DEDUP_LINE_STORE_HH
#define ESD_DEDUP_LINE_STORE_HH

#include <optional>
#include <vector>

#include "common/line_table.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "nvm/nvm_store.hh"

namespace esd
{

/** Physical-line allocator with reference counting.
 *
 * With @p shards > 1 the allocator hands out per-shard address
 * streams: shard s only produces lines with lineIndex % shards == s,
 * so a line allocated for a logical address lands on the same memory
 * channel (the device uses the identical mod-N interleave). One shard
 * reproduces the original bump-pointer sequence exactly. */
class LineStore
{
  public:
    explicit LineStore(NvmStore &store, unsigned shards = 1)
        : store_(store), shards_(shards), recs_(shards), bump_(shards),
          free_(shards)
    {
        esd_assert(shards_ > 0, "line store needs at least one shard");
    }

    /** Allocate a fresh physical line address in @p shard (refcount
     * starts at 0; callers addRef() for each mapping created). */
    Addr
    allocate(unsigned shard = 0)
    {
        esd_assert(shard < shards_, "line store shard out of range");
        Addr phys;
        if (!free_[shard].empty()) {
            phys = free_[shard].back();
            free_[shard].pop_back();
        } else {
            phys = (bump_[shard] * shards_ + shard) * kLineSize;
            ++bump_[shard];
            esd_assert(lineIndex(phys) < store_.capacityLines(),
                       "physical line space exhausted");
        }
        recs_[lineIndex(phys)] = Record{};
        return phys;
    }

    /** Shard owning physical line @p phys (the device interleave). */
    unsigned
    shardOf(Addr phys) const
    {
        return static_cast<unsigned>(lineIndex(phys) % shards_);
    }

    /** Add one reference to @p phys. */
    void
    addRef(Addr phys)
    {
        Record *r = recs_.find(lineIndex(phys));
        esd_assert(r != nullptr, "addRef on unallocated line");
        ++r->refs;
    }

    /**
     * Drop one reference.
     * @param fp_out when given, receives a dying line's fingerprint
     *               (nullopt when none was registered or the line
     *               survives)
     * @return true when the line died (content erased, address freed —
     *         or, under deferred reclamation, queued to be).
     */
    bool
    release(Addr phys, std::optional<std::uint64_t> *fp_out = nullptr)
    {
        phys = lineAlign(phys);
        Record *r = recs_.find(lineIndex(phys));
        esd_assert(r != nullptr, "release on unallocated line");
        esd_assert(r->refs > 0, "refcount underflow");
        if (fp_out)
            fp_out->reset();
        if (--r->refs == 0) {
            if (fp_out && r->hasFp)
                *fp_out = r->fp;
            recs_.erase(lineIndex(phys));
            if (deferred_) {
                pendingFree_.push_back(phys);
            } else {
                store_.erase(phys);
                free_[shardOf(phys)].push_back(phys);
            }
            return true;
        }
        return false;
    }

    /**
     * Defer the destructive half of release() (content erase + free-
     * list push) until promoteFreed(). Crash consistency needs this: a
     * physical line must not be reused before the journal record that
     * released it commits, or recovery could resurrect a mapping onto
     * foreign content. Off (the default) release() is immediate and
     * allocation order is bit-identical to the pre-persistence code.
     */
    void
    setDeferredReclaim(bool on)
    {
        esd_assert(on || pendingFree_.empty(),
                   "disabling deferred reclaim with frees pending");
        deferred_ = on;
    }

    /** Reclaim every deferred-dead line (call at epoch commit). */
    void
    promoteFreed()
    {
        for (Addr phys : pendingFree_) {
            store_.erase(phys);
            free_[shardOf(phys)].push_back(phys);
        }
        pendingFree_.clear();
    }

    /** Current reference count (0 when unknown). */
    std::uint32_t
    refCount(Addr phys) const
    {
        const Record *r = recs_.find(lineIndex(phys));
        return r ? r->refs : 0;
    }

    bool
    isLive(Addr phys) const
    {
        return recs_.contains(lineIndex(phys));
    }

    /** Register @p fp as the fingerprint of allocated line @p phys. */
    void
    setFingerprint(Addr phys, std::uint64_t fp)
    {
        Record *r = recs_.find(lineIndex(phys));
        esd_assert(r != nullptr, "fingerprint for unallocated line");
        r->fp = fp;
        r->hasFp = true;
    }

    /** Unregister and return @p phys 's fingerprint (nullopt when the
     * line is free or has none). */
    std::optional<std::uint64_t>
    takeFingerprint(Addr phys)
    {
        Record *r = recs_.find(lineIndex(phys));
        if (!r || !r->hasFp)
            return std::nullopt;
        r->hasFp = false;
        return r->fp;
    }

    /** Live unique physical lines. */
    std::uint64_t liveLines() const { return recs_.size(); }

    /** Visit every live (phys, refcount) pair in ascending address
     * order — for the Fig. 3 analysis and the differential tests. */
    template <typename Fn>
    void
    forEachLive(Fn &&fn) const
    {
        recs_.forEach([&fn](std::uint64_t line, const Record &r) {
            fn(static_cast<Addr>(line * kLineSize), r.refs);
        });
    }

  private:
    struct Record
    {
        std::uint64_t fp = 0;
        std::uint32_t refs = 0;
        bool hasFp = false;
    };

    NvmStore &store_;
    unsigned shards_;
    LineTable<Record> recs_;
    std::vector<std::uint64_t> bump_;           ///< per-shard bump pointer
    std::vector<std::vector<Addr>> free_;       ///< per-shard free lists
    std::vector<Addr> pendingFree_;             ///< dead, awaiting commit
    bool deferred_ = false;
};

} // namespace esd

#endif // ESD_DEDUP_LINE_STORE_HH
