#include "dedup/dedup_sha1.hh"

#include "crypto/sha1.hh"

namespace esd
{

namespace
{

/** NVMM region of the SHA-1 fingerprint index. */
constexpr Addr kFpRegionBase = 12ull << 30;

} // namespace

DedupSha1Scheme::DedupSha1Scheme(const SimConfig &cfg, PcmDevice &device,
                                 NvmStore &store)
    : MappedDedupScheme(cfg, device, store),
      fps_(cfg.metadata.efitCacheBytes, kEntryBytes, cfg.metadata.efitAssoc,
           kFpRegionBase, device.channelCount())
{
}

void
DedupSha1Scheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    fps_.registerStats(reg, "cache.fp");
}

void
DedupSha1Scheme::dropFingerprint(Addr phys, std::uint64_t fp)
{
    // Lines allocate on their logical address's channel, so the owning
    // fingerprint shard follows from the physical address.
    fps_.erase(fp, channelOf(phys));
}

std::uint64_t
DedupSha1Scheme::metadataNvmBytes() const
{
    return fps_.nvmBytes() + amt_.nvmBytes();
}

AccessResult
DedupSha1Scheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;
    addr = lineAlign(addr);
    Tick t = now;

    // 1. SHA-1 fingerprint — charged on the critical path for *every*
    //    line, duplicate or not (the paper's first challenge).
    Tick fp_lat = cfg_.crypto.sha1Latency;
    stats_.hashEnergy += cfg_.crypto.sha1Energy;
    std::uint64_t fp;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        fp = Sha1::fingerprint64(data);
    }
    t += fp_lat;
    bd.fpCompute += static_cast<double>(fp_lat);

    // 2. On-chip fingerprint cache, then the NVMM-resident index.
    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    bool suspended = dedupSuspended();
    unsigned shard = channelOf(addr);
    FpTable::LookupResult lr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            lr = fps_.lookup(fp, shard);
    }
    if (lr.nvmLookup) {
        stats_.fpNvmLookups.inc();
        NvmAccessResult r = deviceRead(lr.nvmAddr, t);
        bd.fpNvmLookup += static_cast<double>(r.complete - t);
        t = r.complete;
    }

    bool dup = lr.found && lines_.isLive(lr.phys);
    if (lr.found && !dup) {
        // Stale index entry pointing at a dead line.
        noteJournal(JournalOp::EfitEvict, lr.phys);
        fps_.erase(fp, shard);
    }

    FpProbe probe = dup ? FpProbe::Hit : FpProbe::Miss;
    Addr decisive_addr = addr;
    Tick decisive_queue = 0;
    Tick encrypt_ns = 0;

    if (dup) {
        decisive_addr = lr.phys;
        // Fingerprint match is trusted — no byte comparison (classic
        // hash-dedup risk the paper contrasts with ESD in Section V).
        stats_.dedupHits.inc();
        if (data.isZero())
            stats_.dedupHitsZeroLine.inc();
        if (lr.cacheHit)
            stats_.dedupHitsFpCache.inc();
        else
            stats_.dedupHitsFpNvm.inc();
        res.issuerStall += remap(addr, lr.phys, t, bd);
        res.dedup = true;
    } else {
        // Unique line: register the fingerprint (an NVMM index store,
        // off the critical path), encrypt, and write.
        Addr phys;
        NvmAccessResult w = writeNewLine(addr, data, phys, t, bd);
        res.issuerStall += w.issuerStall;
        decisive_addr = phys;
        decisive_queue = w.queueDelay;
        encrypt_ns = cfg_.crypto.encryptLatency;

        if (!suspended) {
            Addr fp_store_addr;
            {
                Profiler::Scope ps = profScope(Profiler::Lookup);
                fps_.insert(fp, phys, fp_store_addr, shard);
                lines_.setFingerprint(phys, fp);
            }
            noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr, fp);
            stats_.fpNvmStores.inc();
            NvmAccessResult fs = deviceWrite(fp_store_addr, t);
            res.issuerStall += fs.issuerStall;
        }

        res.issuerStall += remap(addr, phys, t, bd);
    }

    res.latency = t - now;
    stats_.breakdown.add(bd);

    // Fingerprint match is final here — there is never a compare.
    traceWrite(now, addr, fp, probe, CompareVerdict::None,
               dup ? WriteOutcome::Dedup : WriteOutcome::Unique,
               decisive_addr, decisive_queue, encrypt_ns, res.latency, bd);
    return res;
}

} // namespace esd
