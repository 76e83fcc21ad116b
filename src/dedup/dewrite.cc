#include "dedup/dewrite.hh"

#include "common/stat_registry.hh"
#include "crypto/crc.hh"

namespace esd
{

namespace
{

/** NVMM region of the CRC fingerprint index. */
constexpr Addr kFpRegionBase = 13ull << 30;

} // namespace

DeWriteScheme::DeWriteScheme(const SimConfig &cfg, PcmDevice &device,
                             NvmStore &store)
    : MappedDedupScheme(cfg, device, store),
      fps_(cfg.metadata.efitCacheBytes, kEntryBytes, cfg.metadata.efitAssoc,
           kFpRegionBase, device.channelCount())
{
}

void
DeWriteScheme::registerStats(StatRegistry &reg) const
{
    MappedDedupScheme::registerStats(reg);
    fps_.registerStats(reg, "cache.fp");

    const PredictorStats &p = predictor_.stats();
    reg.addCounter("scheme.predictor.t1_dup_dup",
                   p.predictDupActualDup,
                   "predicted duplicate, was duplicate");
    reg.addCounter("scheme.predictor.f2_dup_new",
                   p.predictDupActualNew,
                   "predicted duplicate, was new");
    reg.addCounter("scheme.predictor.t3_new_new",
                   p.predictNewActualNew,
                   "predicted new, was new");
    reg.addCounter("scheme.predictor.f4_new_dup",
                   p.predictNewActualDup,
                   "predicted new, was duplicate");
    reg.addGauge("scheme.predictor.accuracy",
                 [&p] { return p.accuracy(); },
                 "fraction of correct predictions");
}

void
DeWriteScheme::dropFingerprint(Addr phys, std::uint64_t fp)
{
    // Lines allocate on their logical address's channel, so the owning
    // fingerprint shard follows from the physical address.
    fps_.erase(fp, channelOf(phys));
}

std::uint64_t
DeWriteScheme::metadataNvmBytes() const
{
    return fps_.nvmBytes() + amt_.nvmBytes();
}

DeWriteScheme::CheckOutcome
DeWriteScheme::resolveDuplicate(std::uint64_t fp, const CacheLine &data,
                                unsigned shard, Tick &t,
                                WriteBreakdown &bd)
{
    CheckOutcome out;

    // Suspended dedup: no probe, no compare — the write goes unique.
    if (dedupSuspended())
        return out;

    Tick m = metadataAccess();
    t += m;
    bd.metadata += static_cast<double>(m);

    FpTable::LookupResult lr;
    {
        Profiler::Scope ps = profScope(Profiler::Lookup);
        lr = fps_.lookup(fp, shard);
    }
    if (lr.nvmLookup) {
        stats_.fpNvmLookups.inc();
        NvmAccessResult r = deviceRead(lr.nvmAddr, t);
        bd.fpNvmLookup += static_cast<double>(r.complete - t);
        t = r.complete;
    }

    if (!lr.found || !lines_.isLive(lr.phys)) {
        if (lr.found) {
            noteJournal(JournalOp::EfitEvict, lr.phys);
            fps_.erase(fp, shard);  // stale entry
        }
        return out;
    }
    out.probe = FpProbe::Hit;
    out.cand = lr.phys;

    // CRC collides easily (Fig. 8): always verify by byte comparison.
    NvmAccessResult r = deviceRead(lr.phys, t);
    bd.readCompare += static_cast<double>(r.complete - t);
    t = r.complete;
    out.compareQueue = r.queueDelay;
    stats_.compareReads.inc();
    stats_.metadataEnergy += cfg_.crypto.compareEnergy;
    t += cfg_.crypto.compareLatency;

    if (compareStored(lr.phys, data, t)) {
        out.dup = true;
        out.phys = lr.phys;
        out.viaCache = lr.cacheHit;
        out.verdict = CompareVerdict::Equal;
    } else {
        stats_.compareMismatches.inc();
        out.verdict = CompareVerdict::Mismatch;
    }
    return out;
}

AccessResult
DeWriteScheme::write(Addr addr, const CacheLine &data, Tick now)
{
    stats_.logicalWrites.inc();
    AccessResult res;
    WriteBreakdown bd;
    addr = lineAlign(addr);

    // CRC is computed for every line, predicted duplicate or not.
    Tick crc_lat = cfg_.crypto.crcLatency;
    stats_.hashEnergy += cfg_.crypto.crcEnergy;
    std::uint64_t fp;
    {
        Profiler::Scope ps = profScope(Profiler::Fingerprint);
        fp = Crc32c::line(data);
    }
    bd.fpCompute += static_cast<double>(crc_lat);

    bool predicted_dup = predictor_.predictDuplicate(addr);
    unsigned shard = channelOf(addr);

    Tick t_check = now + crc_lat;
    CheckOutcome chk;
    Tick t_end;
    Addr decisive_addr = addr;
    Tick decisive_queue = 0;
    Tick encrypt_ns = 0;

    if (predicted_dup) {
        // Serial path: the write waits for the check.
        chk = resolveDuplicate(fp, data, shard, t_check, bd);
        predictor_.train(addr, predicted_dup, chk.dup);

        if (chk.dup) {
            // T1: duplicate confirmed, write eliminated.
            t_end = t_check;
            decisive_addr = chk.cand;
            decisive_queue = chk.compareQueue;
        } else {
            // F2: worst case — full check, then encrypt + write.
            Addr phys;
            Tick t = t_check;
            NvmAccessResult w = writeNewLine(addr, data, phys, t, bd);
            res.issuerStall += w.issuerStall;
            decisive_addr = phys;
            decisive_queue = w.queueDelay;
            encrypt_ns = cfg_.crypto.encryptLatency;

            if (!ras_.dedupSuspended()) {
                Addr fp_store;
                {
                    Profiler::Scope ps = profScope(Profiler::Lookup);
                    fps_.insert(fp, phys, fp_store, shard);
                    lines_.setFingerprint(phys, fp);
                }
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            fp);
                stats_.fpNvmStores.inc();
                NvmAccessResult fs = deviceWrite(fp_store, t);
                res.issuerStall += fs.issuerStall;
            }

            chk.phys = phys;
            t_end = t;
        }
    } else {
        // Parallel path: encryption (and, for true uniques, the write)
        // overlaps the dedup check.
        chk = resolveDuplicate(fp, data, shard, t_check, bd);
        predictor_.train(addr, predicted_dup, chk.dup);

        if (!chk.dup) {
            // T3: prediction right; write latency overlaps the check.
            Addr phys;
            Tick t_write = now;
            NvmAccessResult w = writeNewLine(addr, data, phys, t_write, bd);
            res.issuerStall += w.issuerStall;
            decisive_addr = phys;
            decisive_queue = w.queueDelay;
            encrypt_ns = cfg_.crypto.encryptLatency;

            if (!ras_.dedupSuspended()) {
                Addr fp_store;
                {
                    Profiler::Scope ps = profScope(Profiler::Lookup);
                    fps_.insert(fp, phys, fp_store, shard);
                    lines_.setFingerprint(phys, fp);
                }
                noteJournal(JournalOp::EfitInsert, phys, kInvalidAddr,
                            fp);
                stats_.fpNvmStores.inc();
                NvmAccessResult fs = deviceWrite(fp_store, t_check);
                res.issuerStall += fs.issuerStall;
            }

            chk.phys = phys;
            t_end = std::max(t_check, t_write);
        } else {
            // F4: the line was speculatively encrypted for nothing —
            // wasted crypto energy, latency hidden behind the check.
            stats_.cryptoEnergy += cfg_.crypto.encryptEnergy;
            Tick enc_done = now + cfg_.crypto.encryptLatency;
            t_end = std::max(t_check, enc_done);
            decisive_addr = chk.cand;
            decisive_queue = chk.compareQueue;
            encrypt_ns = cfg_.crypto.encryptLatency;
        }
    }

    if (chk.dup) {
        stats_.dedupHits.inc();
        if (data.isZero())
            stats_.dedupHitsZeroLine.inc();
        if (chk.viaCache)
            stats_.dedupHitsFpCache.inc();
        else
            stats_.dedupHitsFpNvm.inc();
        res.dedup = true;
    }

    res.issuerStall += remap(addr, chk.phys, t_end, bd);
    res.latency = t_end - now;
    stats_.breakdown.add(bd);

    WriteOutcome outcome = WriteOutcome::Unique;
    if (chk.dup)
        outcome = WriteOutcome::Dedup;
    else if (chk.verdict == CompareVerdict::Mismatch)
        outcome = WriteOutcome::Collision;
    traceWrite(now, addr, fp, chk.probe, chk.verdict, outcome,
               decisive_addr, decisive_queue, encrypt_ns, res.latency, bd);
    return res;
}

} // namespace esd
