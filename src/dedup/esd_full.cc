#include "dedup/esd_full.hh"

namespace esd
{

namespace
{

/** NVMM region of the full ECC fingerprint index (ablation). */
constexpr Addr kFpRegionBase = 14ull << 30;

} // namespace

EsdFullScheme::EsdFullScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : MappedDedupScheme(cfg, device, store),
      fps_(cfg.metadata.efitCacheBytes, kEntryBytes,
           cfg.metadata.efitAssoc, kFpRegionBase, device.channelCount())
{
}

void
EsdFullScheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    fps_.registerStats(reg, "cache.fp");
}

void
EsdFullScheme::dropFingerprint(Addr phys, std::uint64_t fp)
{
    // Lines allocate on their logical address's channel, so the owning
    // fingerprint shard follows from the physical address.
    fps_.erase(fp, channelOf(phys));
}

std::uint64_t
EsdFullScheme::metadataNvmBytes() const
{
    return fps_.nvmBytes() + amt_.nvmBytes();
}

AccessResult
EsdFullScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;
    addr = lineAlign(addr);

    // Free ECC fingerprint, exactly as in ESD.
    LineEcc ecc;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        ecc = ecc_.encodeLine(data);
    }
    Tick t = now + cfg_.crypto.eccLatency;

    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    // Full dedup: a cache miss forces the fingerprint NVMM_lookup.
    bool suspended = dedupSuspended();
    unsigned shard = channelOf(addr);
    FpTable::LookupResult lr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            lr = fps_.lookup(ecc, shard);
    }
    if (lr.nvmLookup) {
        stats_.fpNvmLookups.inc();
        NvmAccessResult r = deviceRead(lr.nvmAddr, t);
        bd.fpNvmLookup += static_cast<double>(r.complete - t);
        t = r.complete;
    }

    bool dedup = false;
    FpProbe probe = FpProbe::Miss;
    CompareVerdict verdict = CompareVerdict::None;
    Addr decisive_addr = addr;
    Tick decisive_queue = 0;
    Tick encrypt_ns = 0;

    if (lr.found && lines_.isLive(lr.phys)) {
        probe = FpProbe::Hit;
        decisive_addr = lr.phys;
        // Verify by byte comparison (ECC collisions are expected).
        NvmAccessResult r = deviceRead(lr.phys, t);
        bd.readCompare += static_cast<double>(r.complete - t);
        t = r.complete;
        decisive_queue = r.queueDelay;
        stats_.compareReads.inc();
        stats_.metadataEnergy += cfg_.crypto.compareEnergy;
        t += cfg_.crypto.compareLatency;

        if (compareStored(lr.phys, data, t)) {
            verdict = CompareVerdict::Equal;
            dedup = true;
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
            stats_.compareMismatches.inc();
            verdict = CompareVerdict::Mismatch;
        }
    } else if (lr.found) {
        noteJournal(JournalOp::EfitEvict, lr.phys);
        fps_.erase(ecc, shard);
    }

    if (!dedup) {
        Addr phys;
        NvmAccessResult w = writeNewLine(addr, data, phys, t, bd);
        res.issuerStall += w.issuerStall;
        decisive_addr = phys;
        decisive_queue = w.queueDelay;
        encrypt_ns = cfg_.crypto.encryptLatency;

        if (!suspended) {
            Addr fp_store;
            {
                Profiler::Scope ps = profScope(Profiler::Lookup);
                fps_.insert(ecc, phys, fp_store, shard);
                lines_.setFingerprint(phys, ecc);
            }
            noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr, ecc);
            stats_.fpNvmStores.inc();
            NvmAccessResult fs = deviceWrite(fp_store, t);
            res.issuerStall += fs.issuerStall;
        }

        res.issuerStall += remap(addr, phys, t, bd);
    }

    res.latency = t - now;
    stats_.breakdown.add(bd);

    WriteOutcome outcome = WriteOutcome::Unique;
    if (dedup)
        outcome = WriteOutcome::Dedup;
    else if (verdict == CompareVerdict::Mismatch)
        outcome = WriteOutcome::Collision;
    traceWrite(now, addr, ecc, probe, verdict, outcome, decisive_addr,
               decisive_queue, encrypt_ns, res.latency, bd);
    return res;
}

} // namespace esd
