/**
 * @file
 * Direct-indexed table keyed by cache-line index, for metadata of
 * allocator-assigned physical lines.
 *
 * LineStore hands physical lines out from a per-channel bump pointer
 * plus a LIFO free list, so the addresses every phys-keyed structure
 * sees (refcounts, fingerprints, the content-store index, encryption
 * counters, wear counters) are dense within each channel. A hash probe
 * per lookup is then wasted work: `LineTable` splits a line index into
 * (channel, slot) channel-major — `ch = line % channels`,
 * `slot = line / channels` — and indexes a per-channel page directory
 * with `slot`, so a lookup is a division, a mask and two loads.
 *
 *   - Pages hold 2^kPageBits entries plus a presence bitmap and are
 *     allocated on first touch, so a serial run's interleaved lines and
 *     a pipeline shard's single channel (every Nth line) both fill
 *     their pages densely.
 *   - Memory follows the entries, not the addresses. A channel's
 *     directory covers pages [0, n); it grows by doubling, and only
 *     while its pages would still be half full on average:
 *     n <= 2 × (entries in pages) / kPageLines + kDirSlack. Lines
 *     beyond it — a sparse logical trace (Baseline keys its tables by
 *     logical address), the AMT region at 8 GiB, RAS spares, Start-Gap
 *     slots — are held one entry each in a FlatMap, as before this
 *     table existed, and move into pages when the directory grows over
 *     them. A page then costs at most about 2 × sizeof(V) per entry it
 *     holds, less than a hash entry, plus kDirSlack pages per channel.
 *   - Iteration is ascending line index (pages slot-major across
 *     channels, merged with the sorted overflow entries) — a rule that
 *     does not depend on the operation history.
 *
 * Erased entries keep their page; pages are dropped only by clear().
 */

#ifndef ESD_COMMON_LINE_TABLE_HH
#define ESD_COMMON_LINE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"

namespace esd
{

/**
 * Map from line index to V with direct-indexed, channel-major pages
 * and a hashed overflow for lines the page directories do not cover.
 *
 * V must be default-constructible and assignable; a fresh entry starts
 * as V{}. Pointers returned by find()/insert() stay valid until the
 * next insert or erase.
 */
template <typename V>
class LineTable
{
  public:
    static constexpr unsigned kPageBits = 9;
    static constexpr std::uint64_t kPageLines = 1ull << kPageBits;
    /** Pages a channel's directory may cover beyond twice its dense
     * need. */
    static constexpr std::uint64_t kDirSlack = 16;

    explicit LineTable(unsigned channels = 1)
        : channels_(channels), dirs_(channels)
    {
        esd_assert(channels_ > 0, "line table needs at least one channel");
    }

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pages allocated (each kPageLines values plus a bitmap). */
    std::uint64_t
    pageCount() const
    {
        std::uint64_t n = 0;
        for (const Dir &d : dirs_)
            for (const auto &p : d.pages)
                n += p != nullptr;
        return n;
    }

    /** Entries held one by one in the overflow map. */
    std::uint64_t overflowEntries() const { return overflow_.size(); }

    /** Entry of @p line, or nullptr when absent. */
    V *
    find(std::uint64_t line)
    {
        Key k = split(line);
        const Dir &d = dirs_[k.ch];
        if (k.pg < d.pages.size()) {
            Page *p = d.pages[k.pg].get();
            return p && p->has(k.off) ? &p->vals[k.off] : nullptr;
        }
        if (overflow_.empty())
            return nullptr;
        auto it = overflow_.find(line);
        return it == overflow_.end() ? nullptr : &it->second;
    }

    const V *
    find(std::uint64_t line) const
    {
        return const_cast<LineTable *>(this)->find(line);
    }

    bool contains(std::uint64_t line) const { return find(line) != nullptr; }

    /** Entry of @p line, default-inserted when absent. */
    V &
    operator[](std::uint64_t line)
    {
        return *insert(line, nullptr);
    }

    /** Find-or-insert @p line; @p fresh (when given) reports whether
     * the entry was newly created. */
    V *
    insert(std::uint64_t line, bool *fresh)
    {
        Key k = split(line);
        Dir &d = dirs_[k.ch];
        bool is_new;
        V *v;
        if (k.pg < d.pages.size() || grow(k)) {
            std::unique_ptr<Page> &p = d.pages[k.pg];
            if (!p)
                p = std::make_unique<Page>();
            is_new = !p->has(k.off);
            if (is_new) {
                p->bits[k.off / 64] |= 1ull << (k.off % 64);
                p->vals[k.off] = V{};
                ++d.paged;
            }
            v = &p->vals[k.off];
        } else {
            auto [it, inserted] = overflow_.emplace(line, V{});
            is_new = inserted;
            v = &it->second;
        }
        if (is_new)
            ++size_;
        if (fresh)
            *fresh = is_new;
        return v;
    }

    /** Remove @p line. @return true when it was present. */
    bool
    erase(std::uint64_t line)
    {
        Key k = split(line);
        Dir &d = dirs_[k.ch];
        if (k.pg < d.pages.size()) {
            Page *p = d.pages[k.pg].get();
            if (!p || !p->has(k.off))
                return false;
            p->bits[k.off / 64] &= ~(1ull << (k.off % 64));
            --d.paged;
        } else if (!overflow_.erase(line)) {
            return false;
        }
        --size_;
        return true;
    }

    /** Drop every entry and every page. */
    void
    clear()
    {
        for (Dir &d : dirs_)
            d = Dir{};
        overflow_.clear();
        size_ = 0;
    }

    /** Visit every (line, value) in ascending line order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::vector<std::pair<std::uint64_t, const V *>> loose;
        loose.reserve(overflow_.size());
        for (const auto &[line, v] : overflow_)
            loose.emplace_back(line, &v);
        std::sort(loose.begin(), loose.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        auto next = loose.begin();

        std::uint64_t rows = 0;
        for (const Dir &d : dirs_)
            rows = std::max<std::uint64_t>(rows, d.pages.size());
        std::vector<const Page *> row(channels_);
        for (std::uint64_t pg = 0; pg < rows; ++pg) {
            bool any = false;
            for (unsigned ch = 0; ch < channels_; ++ch) {
                const Dir &d = dirs_[ch];
                row[ch] = pg < d.pages.size() ? d.pages[pg].get() : nullptr;
                any |= row[ch] != nullptr;
            }
            if (!any)
                continue;
            for (unsigned off = 0; off < kPageLines; ++off) {
                std::uint64_t slot = (pg << kPageBits) | off;
                for (unsigned ch = 0; ch < channels_; ++ch) {
                    const Page *p = row[ch];
                    if (!p || !p->has(off))
                        continue;
                    std::uint64_t line = slot * channels_ + ch;
                    for (; next != loose.end() && next->first < line; ++next)
                        fn(next->first, *next->second);
                    fn(line, p->vals[off]);
                }
            }
        }
        for (; next != loose.end(); ++next)
            fn(next->first, *next->second);
    }

  private:
    struct Page
    {
        std::uint64_t bits[kPageLines / 64] = {};
        V vals[kPageLines] = {};

        bool has(unsigned off) const
        {
            return (bits[off / 64] >> (off % 64)) & 1u;
        }
    };

    /** One channel's page directory over pages [0, pages.size()). */
    struct Dir
    {
        std::vector<std::unique_ptr<Page>> pages;
        std::uint64_t paged = 0;  ///< entries held in this channel's pages
    };

    struct Key
    {
        unsigned ch;
        std::uint64_t pg;
        unsigned off;
    };

    Key
    split(std::uint64_t line) const
    {
        std::uint64_t slot = line / channels_;
        return Key{static_cast<unsigned>(line % channels_),
                   slot >> kPageBits,
                   static_cast<unsigned>(slot & (kPageLines - 1))};
    }

    /**
     * Extend @p k's channel directory over page k.pg — at least
     * doubling it, so the overflow is rescanned O(log) times — when the
     * channel's paged entries justify the new size, and move the
     * overflow entries it now covers into pages.
     * @return false when k.pg stays out.
     */
    bool
    grow(const Key &k)
    {
        Dir &d = dirs_[k.ch];
        std::uint64_t want =
            std::max<std::uint64_t>(k.pg + 1, 2 * d.pages.size());
        if (want > 2 * (d.paged >> kPageBits) + kDirSlack)
            return false;
        d.pages.resize(want);
        if (overflow_.empty())
            return true;
        std::vector<std::uint64_t> moved;
        for (auto &[line, v] : overflow_) {
            Key o = split(line);
            if (o.ch != k.ch || o.pg >= d.pages.size())
                continue;
            std::unique_ptr<Page> &p = d.pages[o.pg];
            if (!p)
                p = std::make_unique<Page>();
            p->bits[o.off / 64] |= 1ull << (o.off % 64);
            p->vals[o.off] = std::move(v);
            ++d.paged;
            moved.push_back(line);
        }
        for (std::uint64_t line : moved)
            overflow_.erase(line);
        return true;
    }

    unsigned channels_;
    std::vector<Dir> dirs_;
    FlatMap<std::uint64_t, V> overflow_;
    std::uint64_t size_ = 0;
};

} // namespace esd

#endif // ESD_COMMON_LINE_TABLE_HH
