#include "core/multicore.hh"

#include <limits>

#include "common/logging.hh"

namespace esd
{

MultiCoreSimulator::MultiCoreSimulator(const SimConfig &cfg,
                                       SchemeKind kind)
    : cfg_(cfg),
      device_(cfg.pcm, cfg.channels),
      store_(cfg.pcm.capacityBytes, device_.channelCount()),
      scheme_(makeScheme(kind, cfg, device_, store_))
{
}

MultiCoreRunResult
MultiCoreSimulator::run(std::vector<std::unique_ptr<TraceSource>> traces,
                        std::uint64_t records_per_core,
                        std::uint64_t warmup_per_core)
{
    esd_assert(!traces.empty(), "need at least one core trace");
    const double ns_per_cycle = 1.0 / cfg_.core.clockGhz;
    const std::size_t n = traces.size();

    struct Core
    {
        TraceSource *trace = nullptr;
        double time = 0;           // ns, this core's clock
        double issueAt = 0;        // when the pending record fires
        TraceRecord pending;
        bool hasPending = false;
        bool done = false;
        std::uint64_t processed = 0;
        std::uint64_t instructions = 0;
        double measureStartTime = 0;
        std::uint64_t measureStartInstr = 0;
        std::uint64_t measureStartRecords = 0;
        bool measuring = false;
    };

    std::vector<Core> cores(n);
    auto fetch = [&](Core &c) {
        if (records_per_core != 0 && c.processed >= records_per_core) {
            c.done = true;
            return;
        }
        if (!c.trace->next(c.pending)) {
            c.done = true;
            return;
        }
        c.hasPending = true;
        c.issueAt = c.time + c.pending.icount * cfg_.core.baseCpi *
                                ns_per_cycle;
    };

    for (std::size_t i = 0; i < n; ++i) {
        cores[i].trace = traces[i].get();
        cores[i].measuring = warmup_per_core == 0;
        fetch(cores[i]);
    }

    MultiCoreRunResult out;
    out.schemeName = scheme_->name();

    // Whole-run stats reset happens when the *last* core leaves its
    // warm-up (shared structures can't be split per core); per-core
    // timing baselines are captured individually.
    std::size_t warm_cores = warmup_per_core == 0 ? n : 0;
    bool shared_reset_done = warmup_per_core == 0;

    for (;;) {
        // Pick the ready core with the earliest issue time.
        Core *next = nullptr;
        for (Core &c : cores) {
            if (c.done || !c.hasPending)
                continue;
            if (!next || c.issueAt < next->issueAt)
                next = &c;
        }
        if (!next)
            break;

        Core &c = *next;
        if (!c.measuring && c.processed == warmup_per_core) {
            c.measuring = true;
            c.measureStartTime = c.time;
            c.measureStartInstr = c.instructions;
            c.measureStartRecords = c.processed;
            if (++warm_cores == n && !shared_reset_done) {
                scheme_->resetStats();
                device_.resetStats();
                device_.resetWear();
                out.readLatency.reset();
                out.writeLatency.reset();
                shared_reset_done = true;
            }
        }

        c.time = c.issueAt;
        c.instructions += c.pending.icount;

        auto now = static_cast<Tick>(c.time);
        bool record_latency = c.measuring && shared_reset_done;
        if (c.pending.op == OpType::Write) {
            AccessResult r =
                scheme_->write(c.pending.addr, c.pending.data, now);
            if (record_latency)
                out.writeLatency.sample(static_cast<double>(r.latency));
            c.time += static_cast<double>(r.issuerStall);
        } else {
            CacheLine data;
            AccessResult r = scheme_->read(c.pending.addr, data, now);
            if (record_latency)
                out.readLatency.sample(static_cast<double>(r.latency));
            c.time += static_cast<double>(r.latency + r.issuerStall);
        }
        ++c.processed;
        c.hasPending = false;
        fetch(c);
    }

    for (Core &c : cores) {
        if (!c.measuring)
            esd_fatal("a core's trace was shorter than its warm-up");
        CoreResult cr;
        cr.records = c.processed - c.measureStartRecords;
        cr.instructions = c.instructions - c.measureStartInstr;
        cr.runtimeNs = c.time - c.measureStartTime;
        double cycles = cr.runtimeNs * cfg_.core.clockGhz;
        cr.ipc = cycles > 0 ? cr.instructions / cycles : 0.0;
        out.cores.push_back(cr);
        out.records += cr.records;
        out.instructions += cr.instructions;
        out.wallNs = std::max(out.wallNs, cr.runtimeNs);
    }
    double wall_cycles = out.wallNs * cfg_.core.clockGhz;
    out.systemIpc =
        wall_cycles > 0 ? out.instructions / wall_cycles : 0.0;

    const SchemeStats &ss = scheme_->stats();
    out.logicalWrites = ss.logicalWrites.value();
    out.logicalReads = ss.logicalReads.value();
    out.dedupHits = ss.dedupHits.value();
    out.energy = EnergyBreakdown::collect(device_.stats(), ss);
    return out;
}

} // namespace esd
