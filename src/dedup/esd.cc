#include "dedup/esd.hh"

namespace esd
{

EsdScheme::EsdScheme(const SimConfig &cfg, PcmDevice &device,
                     NvmStore &store)
    : MappedDedupScheme(cfg, device, store),
      efit_(cfg.metadata, device.channelCount())
{
}

void
EsdScheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    efit_.registerStats(reg, "esd.efit");
}

void
EsdScheme::dropFingerprint(Addr phys, std::uint64_t fp)
{
    // Lines allocate on their logical address's channel, so the owning
    // EFIT shard is recoverable from the physical address.
    efit_.erase(fp, phys, channelOf(phys));
}

AccessResult
EsdScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;
    addr = lineAlign(addr);

    // 1. The fingerprint is the ECC the controller already computed —
    //    zero latency, zero energy on the critical path.
    LineEcc ecc;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        ecc = ecc_.encodeLine(data);
    }
    Tick t = now + cfg_.crypto.eccLatency;
    bd.fpCompute += static_cast<double>(cfg_.crypto.eccLatency);
    stats_.hashEnergy += cfg_.crypto.eccEnergy;

    // 2. EFIT probe — on-chip only; a miss never consults NVMM.
    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    // The RAS UE policy can suspend dedup: skip the probe, never
    // insert, and let every write take the unique path.
    bool suspended = dedupSuspended();
    unsigned shard = channelOf(addr);
    Efit::Entry *entry = nullptr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        if (!suspended)
            entry = efit_.lookup(ecc, shard);
    }
    bool dedup_done = false;
    bool saturated_rewrite = false;

    FpProbe probe = FpProbe::Miss;
    CompareVerdict verdict = CompareVerdict::None;
    Addr decisive_addr = addr;
    Tick decisive_queue = 0;
    Tick encrypt_ns = 0;

    if (entry && lines_.isLive(entry->phys.toAddr())) {
        probe = FpProbe::Hit;
        // 3. Similar line: fetch and byte-compare (PCM reads are half
        //    the cost of the write being saved — the asymmetry the
        //    selective design exploits).
        Addr cand = entry->phys.toAddr();
        NvmAccessResult r = deviceRead(cand, t);
        bd.readCompare += static_cast<double>(r.complete - t);
        t = r.complete;
        decisive_addr = cand;
        decisive_queue = r.queueDelay;
        stats_.compareReads.inc();
        stats_.metadataEnergy += cfg_.crypto.compareEnergy;
        t += cfg_.crypto.compareLatency;

        if (compareStored(cand, data, t)) {
            verdict = CompareVerdict::Equal;
            if (efit_.bumpRef(entry)) {
                // Duplicate eliminated.
                stats_.dedupHits.inc();
                if (data.isZero())
                    stats_.dedupHitsZeroLine.inc();
                stats_.dedupHitsFpCache.inc();
                res.issuerStall += remap(addr, cand, t, bd);
                res.dedup = true;
                dedup_done = true;
            } else {
                // referH saturated: the paper writes the line as a new
                // cache line and updates the AMT (Section III-D); the
                // fresh copy becomes the dedup target from now on.
                stats_.refHOverflowRewrites.inc();
                saturated_rewrite = true;
            }
        } else {
            // ECC collision caught by the content comparison.
            stats_.compareMismatches.inc();
            verdict = CompareVerdict::Mismatch;
        }
    } else if (entry) {
        // Stale entry whose line died — drop it.
        Profiler::Scope ps = profScope(Profiler::Lookup);
        noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
        efit_.erase(entry->ecc, entry->phys.toAddr(), shard);
    }

    if (!dedup_done) {
        // Non-duplicate (or collision / saturation): encrypt + write,
        // then remember the fingerprint under LRCU.
        Addr phys;
        NvmAccessResult w = writeNewLine(addr, data, phys, t, bd);
        res.issuerStall += w.issuerStall;
        decisive_addr = phys;
        decisive_queue = w.queueDelay;
        encrypt_ns = cfg_.crypto.encryptLatency;

        {
            Profiler::Scope ps = profScope(Profiler::Lookup);
            if (saturated_rewrite) {
                // Retarget the saturated entry instead of duplicating
                // it.
                noteJournal(JournalOp::EfitEvict, entry->phys.toAddr());
                efit_.redirect(entry, phys);
                lines_.setFingerprint(phys, ecc);
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            } else if (!suspended) {
                efit_.insert(ecc, phys, shard);
                lines_.setFingerprint(phys, ecc);
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            ecc);
            }
        }

        res.issuerStall += remap(addr, phys, t, bd);
    }

    res.latency = t - now;
    stats_.breakdown.add(bd);

    WriteOutcome outcome = WriteOutcome::Unique;
    if (dedup_done)
        outcome = WriteOutcome::Dedup;
    else if (saturated_rewrite)
        outcome = WriteOutcome::SaturatedRewrite;
    else if (verdict == CompareVerdict::Mismatch)
        outcome = WriteOutcome::Collision;
    traceWrite(now, addr, ecc, probe, verdict, outcome, decisive_addr,
               decisive_queue, encrypt_ns, res.latency, bd);
    return res;
}

} // namespace esd
