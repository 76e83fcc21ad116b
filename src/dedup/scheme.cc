#include "dedup/scheme.hh"

#include "common/stat_registry.hh"

namespace esd
{

const char *
toString(ReadIntegrity integrity)
{
    switch (integrity) {
    case ReadIntegrity::Ok:
        return "ok";
    case ReadIntegrity::Corrected:
        return "corrected";
    case ReadIntegrity::Poisoned:
        return "poisoned";
    case ReadIntegrity::Uncorrectable:
        return "uncorrectable";
    }
    return "?";
}

void
SchemeStats::registerIn(StatRegistry &reg, const std::string &prefix) const
{
    auto n = [&](const char *leaf) { return prefix + "." + leaf; };

    reg.addCounter(n("logical_writes"), logicalWrites);
    reg.addCounter(n("logical_reads"), logicalReads);
    reg.addCounter(n("dedup_hits"), dedupHits,
                   "data writes eliminated by deduplication");
    reg.addCounter(n("dedup_hits_zero_line"), dedupHitsZeroLine);
    reg.addCounter(n("dedup_hits_fp_cache"), dedupHitsFpCache);
    reg.addCounter(n("dedup_hits_fp_nvm"), dedupHitsFpNvm);
    reg.addCounter(n("nvm_data_writes"), nvmDataWrites);
    reg.addCounter(n("nvm_data_reads"), nvmDataReads);
    reg.addCounter(n("compare_reads"), compareReads);
    reg.addCounter(n("compare_mismatches"), compareMismatches,
                   "fingerprint collisions caught by byte comparison");
    reg.addCounter(n("fp_nvm_lookups"), fpNvmLookups);
    reg.addCounter(n("fp_nvm_stores"), fpNvmStores);
    reg.addCounter(n("amt_traffic_reads"), amtTrafficReads);
    reg.addCounter(n("amt_traffic_writes"), amtTrafficWrites);
    reg.addCounter(n("referh_overflow_rewrites"), refHOverflowRewrites);
    reg.addCounter(n("ecc_corrected_reads"), eccCorrectedReads);
    reg.addCounter(n("ecc_uncorrectable_reads"), eccUncorrectableReads);
    reg.addCounter(n("sdc_events"), sdcEvents,
                   "corrupt data returned to a consumer");
    reg.addCounter(n("poisoned_reads"), poisonedReads,
                   "demand reads of retired (poisoned) lines");
    reg.addCounter(n("dedup_suspended_writes"), dedupSuspendedWrites,
                   "writes that bypassed suspended deduplication");

    reg.addGauge(n("dedup_rate"), [this] { return writeReduction(); },
                 "dedup_hits / logical_writes");
    reg.addGauge(n("energy.hash_pj"), [this] { return hashEnergy; });
    reg.addGauge(n("energy.crypto_pj"), [this] { return cryptoEnergy; });
    reg.addGauge(n("energy.metadata_pj"),
                 [this] { return metadataEnergy; });

    reg.addGauge(n("breakdown.fp_compute_ns"),
                 [this] { return breakdown.fpCompute; });
    reg.addGauge(n("breakdown.fp_nvm_lookup_ns"),
                 [this] { return breakdown.fpNvmLookup; });
    reg.addGauge(n("breakdown.read_compare_ns"),
                 [this] { return breakdown.readCompare; });
    reg.addGauge(n("breakdown.line_write_ns"),
                 [this] { return breakdown.lineWrite; });
    reg.addGauge(n("breakdown.encrypt_ns"),
                 [this] { return breakdown.encrypt; });
    reg.addGauge(n("breakdown.metadata_ns"),
                 [this] { return breakdown.metadata; });
}

void
DedupScheme::registerStats(StatRegistry &reg) const
{
    stats_.registerIn(reg, "scheme");
    ras_.registerStats(reg, "ras");
}

namespace
{

AesKey
defaultKey(std::uint64_t seed)
{
    AesKey key{};
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>((seed >> ((i % 8) * 8)) ^
                                           (0x5a + i));
    return key;
}

} // namespace

DedupScheme::DedupScheme(const SimConfig &cfg, PcmDevice &device,
                         NvmStore &store)
    : cfg_(cfg), device_(device), store_(store),
      crypto_(defaultKey(cfg.seed), device.channelCount()),
      ecc_(eccEngine(cfg.ecc.engine)),
      ras_(cfg.ras, store, device, crypto_, ecc_, cfg.seed)
{
}

void
DedupScheme::emitWriteSpans(Tick now, Addr addr, std::uint64_t fp,
                            FpProbe probe, CompareVerdict compare,
                            WriteOutcome outcome, Addr bank_addr,
                            Tick queue_wait, Tick latency,
                            const WriteBreakdown &bd)
{
    // Parent span: the whole logical write, with the verdicts a
    // pipeline investigation needs as args.
    spans_->span(
        SpanTrace::kPipelineTrack, "write", now, latency,
        {SpanTrace::str("outcome", writeOutcomeName(outcome)),
         SpanTrace::str("efit", fpProbeName(probe)),
         SpanTrace::str("compare", compareVerdictName(compare)),
         SpanTrace::hex("fp", fp), SpanTrace::hex("addr", addr),
         SpanTrace::num("channel", device_.channelOf(bank_addr)),
         SpanTrace::num("bank", device_.bankOf(bank_addr)),
         SpanTrace::num("wpq_wait_ns",
                        static_cast<std::uint64_t>(queue_wait))});

    // Child slices: the Fig. 17 phases laid out back to back in
    // pipeline order. The breakdown components are critical-path ns,
    // so the slices tile the parent up to queue/verify residue.
    struct Slice
    {
        const char *name;
        double ns;
    };
    const Slice slices[] = {
        {"fingerprint", bd.fpCompute}, {"metadata", bd.metadata},
        {"fp_nvm_lookup", bd.fpNvmLookup},
        {"read_compare", bd.readCompare}, {"encrypt", bd.encrypt},
        {"line_write", bd.lineWrite}};
    Tick cursor = now;
    for (const Slice &s : slices) {
        auto dur = static_cast<Tick>(s.ns);
        if (dur == 0)
            continue;
        spans_->span(SpanTrace::kPipelineTrack, s.name, cursor, dur);
        cursor += dur;
    }
}

} // namespace esd
