/**
 * @file
 * Cache-friendly hash containers for the per-write metadata hot path.
 *
 * `std::unordered_map` spends every lookup chasing a bucket pointer to
 * a separately allocated node — two dependent cache misses for a
 * 12-byte payload. The simulator consults maps keyed by hashes or by
 * sparse addresses (the fingerprint index, the recovered-state and
 * crash-image maps, the ESD+ content-cache index, RAS remaps and
 * stuck-at sets, the WPQ pending set), so the node-based layout
 * dominated host time once the compute kernels were vectorised. Maps
 * keyed by line index (refcounts and fingerprints, content store,
 * encryption and wear counters, the AMT, the checkpoint images) use
 * the direct-indexed LineTable (common/line_table.hh) instead, which
 * keeps a FlatMap only as its overflow for lines beyond its pages.
 *
 * `FlatMap` replaces them with open addressing + robin-hood probing:
 *
 *   - one contiguous entry array (`std::pair<Key, Value>`) plus a
 *     byte-per-slot probe-distance array — a lookup touches one or two
 *     adjacent cache lines and never dereferences a node pointer;
 *   - power-of-two capacity: the bucket index is a mask, not a modulo;
 *   - robin-hood insertion keeps probe sequences short and bounded
 *     (the variance of probe lengths is minimised, so the worst-case
 *     lookup stays a handful of adjacent slots);
 *   - erase uses backward-shift deletion instead of tombstones, so
 *     deletes never degrade the table and no rehash-on-erase exists.
 *
 * Iteration order is a pure function of the operation sequence and the
 * hash function — identical across platforms and standard libraries
 * (unlike `std::unordered_map`), which the deterministic-replay
 * machinery relies on.
 *
 * `BumpArena` is an optional payload allocator for maps whose values
 * are small variable-length lists (e.g. the RAS stuck-at sets): nodes
 * are bump-allocated from chunks, never individually freed, and stay
 * clustered in allocation order.
 */

#ifndef ESD_COMMON_FLAT_MAP_HH
#define ESD_COMMON_FLAT_MAP_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace esd
{

/** Final mixing step of splitmix64 — enough avalanche to index a
 * power-of-two table with line-aligned addresses (low bits zero). */
inline std::uint64_t
flatHashMix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Default hash for integer keys (Addr, line indices, fingerprints). */
template <typename K>
struct FlatHash
{
    std::uint64_t
    operator()(const K &k) const
    {
        return flatHashMix(static_cast<std::uint64_t>(k));
    }
};

/** Smallest power of two >= @p n (and >= 8). */
std::uint64_t flatMapCapacityFor(std::uint64_t n);

/**
 * Open-addressing robin-hood hash map with backward-shift deletion.
 *
 * Requirements: Key is an integral-like type with operator==; Value is
 * default-constructible and move-assignable. Pointers and iterators
 * into the table are invalidated by insert (rehash) and erase
 * (backward shift) — the same contract the simulator already honoured
 * for `std::unordered_map` rehashes, tightened to cover erase.
 */
template <typename Key, typename Value, typename Hash = FlatHash<Key>>
class FlatMap
{
  public:
    using value_type = std::pair<Key, Value>;

    FlatMap() = default;

    explicit FlatMap(std::uint64_t expected_entries)
    {
        reserve(expected_entries);
    }

    FlatMap(FlatMap &&) = default;
    FlatMap &operator=(FlatMap &&) = default;

    /** Deep copy — slot layout (and therefore iteration order) is
     * preserved exactly, keeping copies replay-deterministic. */
    FlatMap(const FlatMap &o) { *this = o; }

    FlatMap &
    operator=(const FlatMap &o)
    {
        if (this == &o)
            return *this;
        if (o.capacity_ == 0) {
            entries_.reset();
            dist_.reset();
        } else {
            entries_ = std::make_unique<value_type[]>(o.capacity_);
            dist_ = std::make_unique<std::uint8_t[]>(o.capacity_);
            std::memcpy(dist_.get(), o.dist_.get(), o.capacity_);
            for (std::uint64_t i = 0; i < o.capacity_; ++i) {
                if (o.dist_[i])
                    entries_[i] = o.entries_[i];
            }
        }
        capacity_ = o.capacity_;
        size_ = o.size_;
        return *this;
    }

    /** Iterator over occupied slots, in slot order. */
    template <typename MapT, typename ValueT>
    class Iter
    {
      public:
        Iter(MapT *m, std::uint64_t i) : map_(m), idx_(i) { skip(); }

        ValueT &operator*() const { return map_->entries_[idx_]; }
        ValueT *operator->() const { return &map_->entries_[idx_]; }

        Iter &
        operator++()
        {
            ++idx_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return idx_ == o.idx_; }
        bool operator!=(const Iter &o) const { return idx_ != o.idx_; }

        std::uint64_t slot() const { return idx_; }

      private:
        void
        skip()
        {
            while (idx_ < map_->capacity_ && map_->dist_[idx_] == 0)
                ++idx_;
        }

        MapT *map_;
        std::uint64_t idx_;
    };

    using iterator = Iter<FlatMap, value_type>;
    using const_iterator = Iter<const FlatMap, const value_type>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, capacity_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, capacity_); }

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint64_t capacity() const { return capacity_; }

    void
    clear()
    {
        for (std::uint64_t i = 0; i < capacity_; ++i) {
            if (dist_[i]) {
                entries_[i] = value_type{};
                dist_[i] = 0;
            }
        }
        size_ = 0;
    }

    /** Grow so @p n entries fit without rehashing. */
    void
    reserve(std::uint64_t n)
    {
        std::uint64_t cap = flatMapCapacityFor(n + n / 2 + 1);
        if (cap > capacity_)
            rehash(cap);
    }

    iterator
    find(const Key &key)
    {
        return iterator(this, findSlot(key));
    }

    const_iterator
    find(const Key &key) const
    {
        return const_iterator(this, findSlot(key));
    }

    bool contains(const Key &key) const
    {
        return findSlot(key) != capacity_;
    }

    std::uint64_t count(const Key &key) const
    {
        return contains(key) ? 1 : 0;
    }

    /** Value of @p key, default-inserting when absent. */
    Value &
    operator[](const Key &key)
    {
        return insertSlot(key)->second;
    }

    /** Insert (key, value) unless the key exists.
     * @return (iterator to the entry, true when newly inserted) */
    std::pair<iterator, bool>
    emplace(const Key &key, Value value)
    {
        std::uint64_t before = size_;
        value_type *e = insertSlot(key);
        bool fresh = size_ != before;
        if (fresh)
            e->second = std::move(value);
        return {iterator(this, static_cast<std::uint64_t>(e - entries_.get())),
                fresh};
    }

    std::pair<iterator, bool>
    insert(const value_type &kv)
    {
        return emplace(kv.first, kv.second);
    }

    /** Insert or overwrite. */
    void
    assign(const Key &key, Value value)
    {
        insertSlot(key)->second = std::move(value);
    }

    /**
     * Remove @p key via backward shift: every entry of the following
     * contiguous run moves one slot left (its probe distance drops by
     * one), so the table looks as if the key was never inserted.
     * @return 1 when the key was present.
     */
    std::uint64_t
    erase(const Key &key)
    {
        std::uint64_t i = findSlot(key);
        if (i == capacity_)
            return 0;
        eraseSlot(i);
        return 1;
    }

    /** Erase the entry @p it points at (backward shift). The iterator
     * is invalidated; the following entries move. */
    void
    erase(const iterator &it)
    {
        eraseSlot(it.slot());
    }

  private:
    std::uint64_t
    homeOf(const Key &key) const
    {
        return Hash{}(key) & (capacity_ - 1);
    }

    /** Slot of @p key, or capacity_ when absent. Robin-hood invariant:
     * stop as soon as the resident's probe distance is shorter than
     * ours — the key cannot be further on. */
    std::uint64_t
    findSlot(const Key &key) const
    {
        if (size_ == 0)
            return capacity_;
        std::uint64_t mask = capacity_ - 1;
        std::uint64_t i = homeOf(key);
        std::uint8_t d = 1;
        while (true) {
            std::uint8_t resident = dist_[i];
            if (resident < d)
                return capacity_;
            if (resident == d && entries_[i].first == key)
                return i;
            i = (i + 1) & mask;
            ++d;
        }
    }

    /** Find-or-insert @p key (robin hood: a richer incumbent is
     * displaced and re-seated further on). Returns the entry. */
    value_type *
    insertSlot(const Key &key)
    {
        if (capacity_ == 0 || (size_ + 1) * 4 > capacity_ * 3)
            rehash(capacity_ ? capacity_ * 2 : 8);

        std::uint64_t mask = capacity_ - 1;
        std::uint64_t i = homeOf(key);
        std::uint8_t d = 1;
        while (true) {
            if (dist_[i] == 0) {
                entries_[i].first = key;
                entries_[i].second = Value{};
                dist_[i] = d;
                ++size_;
                return &entries_[i];
            }
            if (dist_[i] == d && entries_[i].first == key)
                return &entries_[i];
            if (dist_[i] < d) {
                // Rob the rich: seat the new key here, rehome the
                // displaced entry further along the probe chain.
                value_type displaced = std::move(entries_[i]);
                std::uint8_t displaced_d = dist_[i];
                entries_[i].first = key;
                entries_[i].second = Value{};
                dist_[i] = d;
                ++size_;
                // reseat never moves slots left of its start, so the
                // freshly seated entry stays put — unless reseat's
                // pathological-clustering branch rehashed the whole
                // table, which invalidates every slot.
                if (reseat(std::move(displaced), displaced_d,
                           (i + 1) & mask))
                    return &entries_[findSlot(key)];
                return &entries_[i];
            }
            i = (i + 1) & mask;
            ++d;
            if (d == kMaxDist) {
                rehash(capacity_ * 2);
                return insertSlot(key);
            }
        }
    }

    /** Continue the robin-hood shuffle for an already-displaced entry
     * starting at @p i with distance @p d + 1.
     * @return true when the table was rehashed (all slots moved). */
    bool
    reseat(value_type entry, std::uint8_t d, std::uint64_t i)
    {
        std::uint64_t mask = capacity_ - 1;
        ++d;
        while (true) {
            if (dist_[i] == 0) {
                entries_[i] = std::move(entry);
                dist_[i] = d;
                return false;
            }
            if (dist_[i] < d) {
                std::swap(entries_[i], entry);
                std::swap(dist_[i], d);
            }
            i = (i + 1) & mask;
            ++d;
            if (d == kMaxDist) {
                // Pathological clustering: grow and re-insert the
                // orphan through the normal path.
                Key k = entry.first;
                Value v = std::move(entry.second);
                rehash(capacity_ * 2);
                insertSlot(k)->second = std::move(v);
                return true;
            }
        }
    }

    void
    eraseSlot(std::uint64_t i)
    {
        std::uint64_t mask = capacity_ - 1;
        std::uint64_t next = (i + 1) & mask;
        while (dist_[next] > 1) {
            entries_[i] = std::move(entries_[next]);
            dist_[i] = static_cast<std::uint8_t>(dist_[next] - 1);
            i = next;
            next = (next + 1) & mask;
        }
        entries_[i] = value_type{};
        dist_[i] = 0;
        --size_;
    }

    void
    rehash(std::uint64_t new_cap)
    {
        new_cap = flatMapCapacityFor(new_cap);
        auto old_entries = std::move(entries_);
        auto old_dist = std::move(dist_);
        std::uint64_t old_cap = capacity_;

        entries_ = std::make_unique<value_type[]>(new_cap);
        dist_ = std::make_unique<std::uint8_t[]>(new_cap);
        std::memset(dist_.get(), 0, new_cap);
        capacity_ = new_cap;
        size_ = 0;

        for (std::uint64_t i = 0; i < old_cap; ++i) {
            if (old_dist[i]) {
                insertSlot(old_entries[i].first)->second =
                    std::move(old_entries[i].second);
            }
        }
    }

    /** Probe distances are bytes; hitting 255 forces a grow (load
     * factor 0.75 keeps real chains far below this). */
    static constexpr std::uint8_t kMaxDist = 255;

    std::unique_ptr<value_type[]> entries_;
    std::unique_ptr<std::uint8_t[]> dist_;
    std::uint64_t capacity_ = 0;
    std::uint64_t size_ = 0;
};

/** Hash set over FlatMap (the value collapses to an empty struct). */
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet
{
  public:
    std::uint64_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void clear() { map_.clear(); }
    void reserve(std::uint64_t n) { map_.reserve(n); }

    bool contains(const Key &key) const { return map_.contains(key); }
    std::uint64_t count(const Key &key) const { return map_.count(key); }

    /** @return true when @p key was newly inserted. */
    bool
    insert(const Key &key)
    {
        return map_.emplace(key, Empty{}).second;
    }

    std::uint64_t erase(const Key &key) { return map_.erase(key); }

  private:
    struct Empty
    {
    };
    using MapT = FlatMap<Key, Empty, Hash>;

  public:
    /** Key iterator over occupied slots, in slot order. */
    class const_iterator
    {
      public:
        explicit const_iterator(typename MapT::const_iterator it)
            : it_(it)
        {
        }

        const Key &operator*() const { return it_->first; }

        const_iterator &
        operator++()
        {
            ++it_;
            return *this;
        }

        bool operator==(const const_iterator &o) const
        {
            return it_ == o.it_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return it_ != o.it_;
        }

      private:
        typename MapT::const_iterator it_;
    };

    const_iterator begin() const { return const_iterator(map_.begin()); }
    const_iterator end() const { return const_iterator(map_.end()); }

  private:
    MapT map_;
};

/**
 * Chunked bump allocator for small per-key payload nodes.
 *
 * allocate<T>() carves objects out of geometrically growing chunks;
 * nothing is individually freed (release() drops everything at once).
 * Callers that need per-key lists keep arena node pointers as FlatMap
 * values — the nodes stay packed in allocation order instead of being
 * scattered by the general-purpose heap.
 */
class BumpArena
{
  public:
    BumpArena() = default;
    BumpArena(const BumpArena &) = delete;
    BumpArena &operator=(const BumpArena &) = delete;

    /** Allocate uninitialised, suitably aligned storage for one T and
     * default-construct it. T must be trivially destructible. */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena never runs destructors");
        void *p = allocate(sizeof(T), alignof(T));
        return new (p) T{std::forward<Args>(args)...};
    }

    /** Raw aligned allocation. */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Bytes handed out so far (footprint accounting). */
    std::uint64_t bytesAllocated() const { return allocated_; }

    /** Drop every chunk; all outstanding pointers become invalid. */
    void release();

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint8_t[]> data;
        std::size_t used = 0;
        std::size_t cap = 0;
    };

    std::vector<Chunk> chunks_;
    std::uint64_t allocated_ = 0;
};

} // namespace esd

#endif // ESD_COMMON_FLAT_MAP_HH
