/**
 * @file
 * Dedup_SHA1: the traditional full-deduplication baseline (Section
 * IV-A). Every evicted line is fingerprinted with SHA-1 (321 ns on the
 * critical path), the full fingerprint index lives in NVMM behind a
 * small on-chip cache, and a duplicate is declared on fingerprint
 * match alone (collision-trusting, like classic dedup storage).
 */

#ifndef ESD_DEDUP_DEDUP_SHA1_HH
#define ESD_DEDUP_DEDUP_SHA1_HH

#include "dedup/fp_table.hh"
#include "dedup/mapped_scheme.hh"

namespace esd
{

/** SHA-1 full deduplication. */
class DedupSha1Scheme : public MappedDedupScheme
{
  public:
    DedupSha1Scheme(const SimConfig &cfg, PcmDevice &device,
                    NvmStore &store);

    AccessResult write(Addr addr, const CacheLine &data,
                       Tick now) override;

    std::string name() const override { return "Dedup_SHA1"; }

    std::uint64_t metadataNvmBytes() const override;

    /** Adds the fingerprint index under "cache.fp.*". */
    void registerStats(StatRegistry &reg) const override;

    const FpTable &fpTable() const { return fps_; }

  protected:
    void dropFingerprint(Addr phys, std::uint64_t fp) override;

  private:
    /** SHA-1 entry: 20 B digest + 5 B packed phys + 1 B refcount. */
    static constexpr std::uint64_t kEntryBytes = 26;

    FpTable fps_;
};

} // namespace esd

#endif // ESD_DEDUP_DEDUP_SHA1_HH
