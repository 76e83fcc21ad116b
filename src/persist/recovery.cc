#include "persist/recovery.hh"

#include "common/config_io.hh"
#include "common/json.hh"
#include "ecc/ecc_engine.hh"
#include "ecc/line_ecc.hh"

namespace esd
{

namespace
{

/**
 * Osiris-style counter probe: find the counter that decrypts @p line
 * at @p addr, trying the journaled value @p j first, then upward
 * through the slack window (un-journaled bumps whose data landed),
 * then downward (journaled bumps whose data write was lost). A
 * candidate is accepted when the decrypted plaintext re-encodes to
 * the stored line ECC.
 *
 * @return the accepted counter, or 0 when none decrypts within the
 *         probe budget (counters are >= 1 once a line was written).
 */
std::uint64_t
probeCounter(const CtrModeEngine &crypto, const EccEngine &ecc, Addr addr,
             const StoredLine &line, std::uint64_t j, std::uint64_t slack,
             std::uint64_t budget, std::uint64_t &probes_used)
{
    auto tryCtr = [&](std::uint64_t c) {
        ++probes_used;
        CacheLine plain = crypto.applyPad(addr, c, line.data);
        return ecc.encodeLine(plain) == line.ecc;
    };
    std::uint64_t lo = j > slack ? j - slack : 1;
    for (std::uint64_t c = j < 1 ? 1 : j;
         c <= j + slack && probes_used < budget; ++c) {
        if (tryCtr(c))
            return c;
    }
    for (std::uint64_t c = j; c-- > lo && probes_used < budget;) {
        if (tryCtr(c))
            return c;
    }
    return 0;
}

} // namespace

RecoveredState
recoverFromImage(const CrashImage &img, const PersistenceConfig &cfg,
                 const CtrModeEngine &crypto, const EccEngine &ecc)
{
    RecoveredState out;
    RecoverySummary &s = out.summary;

    // 1. Replay the durable journal over the checkpoint.
    CheckpointState st = img.checkpoint;
    for (const JournalRecord &r : img.records)
        applyRecord(st, r);
    s.recordsReplayed = img.records.size();
    s.tornRecords = img.tornRecords;
    out.retired = st.retired;

    std::uint64_t slack =
        cfg.counterSlack != 0
            ? cfg.counterSlack
            : (img.domain == PersistDomain::Adr ? cfg.epochWrites : 1);
    out.ctrFloorDefault = slack;

    // 2. Counter recovery over every surviving line.
    FlatSet<Addr> live;
    for (const auto &[addr, line] : img.content) {
        const std::uint64_t *jc = st.ctr.find(lineIndex(addr));
        std::uint64_t j = jc ? *jc : 0;
        std::uint64_t probes = 0;
        std::uint64_t found = probeCounter(crypto, ecc, addr, line, j, slack,
                                           cfg.counterProbeMax, probes);
        s.countersProbed += probes;
        std::uint64_t safe = j;
        if (found != 0) {
            out.ctrDecrypt[addr] = found;
            live.insert(addr);
            if (found != j)
                ++s.countersRepaired;
            if (found > safe)
                safe = found;
        } else {
            ++s.countersUnresolved;
        }
        out.ctrNext[addr] = safe + slack;
    }
    // Counters the journal named but whose line is gone (released or
    // reverted): the monotonic floor must survive so the address can
    // never restart low.
    st.ctr.forEach([&](std::uint64_t line, std::uint64_t j) {
        Addr addr = line * kLineSize;
        if (!out.ctrNext.count(addr))
            out.ctrNext[addr] = j + slack;
    });

    s.liveLines = live.size();

    // 3. AMT reconciliation: drop mappings to dead or retired lines,
    // then re-derive refcounts from what survived (the AMT is the
    // authority — torn groups can strand an add without its update).
    // The outputs below are counts and keyed maps, so the visit order
    // of the checkpoint tables does not matter.
    st.amt.forEach([&](std::uint64_t line, Addr phys) {
        if (live.count(phys) != 0 && st.retired.count(phys) == 0) {
            out.amt[line * kLineSize] = phys;
            ++out.refs[phys];
        } else {
            ++s.mappingsInvalidated;
        }
    });
    for (const auto &[phys, n] : out.refs) {
        const std::uint32_t *had = st.refs.find(lineIndex(phys));
        if (!had || *had != n)
            ++s.refcountsRepaired;
    }
    st.refs.forEach([&](std::uint64_t line, std::uint32_t) {
        if (out.refs.count(line * kLineSize) == 0)
            ++s.refcountsRepaired;
    });

    // 4. Fingerprint pruning: an entry may only survive while its
    // physical line carries live references — anything else could
    // fake a dedup hit against dead content.
    st.fp.forEach([&](std::uint64_t line, std::uint64_t key) {
        Addr phys = line * kLineSize;
        if (out.refs.count(phys) != 0)
            out.fp[phys] = key;
        else
            ++s.dedupHitsInvalidated;
    });

    // Orphans: decryptable lines no mapping reaches (leaked space a
    // background sweep would reclaim). In-place schemes address lines
    // directly, so the concept is void there.
    if (!img.inPlace) {
        for (Addr addr : live)
            if (out.refs.count(addr) == 0)
                ++s.linesOrphaned;
    }

    s.liveMappings = out.amt.size();
    s.ok = s.countersUnresolved == 0 && s.mappingsInvalidated == 0;
    return out;
}

PadSafetyReport
auditPadSafety(const RecoveredState &st, const CrashImage &img)
{
    PadSafetyReport rep;
    for (const auto &[addr, true_ctr] : img.trueCounters) {
        ++rep.countersChecked;
        auto it = st.ctrNext.find(addr);
        std::uint64_t floor =
            it == st.ctrNext.end() ? st.ctrFloorDefault : it->second;
        if (floor < true_ctr)
            ++rep.violations;
    }
    return rep;
}

void
writeRecoveryJson(std::ostream &os, const CrashImage &img,
                  const RecoveredState &st, int indent)
{
    const RecoverySummary &s = st.summary;
    JsonWriter w(os, indent);
    w.beginObject();
    w.key("crash");
    w.beginObject();
    w.kv("write_index", img.crashWriteIndex);
    w.kv("tick", img.tick);
    w.kv("domain", persistDomainName(img.domain));
    w.kv("phase", crashPhaseName(img.phase));
    w.kv("in_place", img.inPlace);
    w.kv("surviving_lines",
         static_cast<std::uint64_t>(img.content.size()));
    w.kv("durable_records",
         static_cast<std::uint64_t>(img.records.size()));
    w.kv("torn_records", img.tornRecords);
    w.endObject();
    w.key("recovery");
    w.beginObject();
    w.kv("records_replayed", s.recordsReplayed);
    w.kv("counters_probed", s.countersProbed);
    w.kv("counters_repaired", s.countersRepaired);
    w.kv("counters_unresolved", s.countersUnresolved);
    w.kv("refcounts_repaired", s.refcountsRepaired);
    w.kv("mappings_invalidated", s.mappingsInvalidated);
    w.kv("lines_orphaned", s.linesOrphaned);
    w.kv("dedup_hits_invalidated", s.dedupHitsInvalidated);
    w.kv("live_lines", s.liveLines);
    w.kv("live_mappings", s.liveMappings);
    w.kv("counter_floor_default", st.ctrFloorDefault);
    w.kv("ok", s.ok);
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace esd
