/**
 * @file
 * The simulator command-line front end, mirroring the artifact's
 * `nvmain.fast` interface:
 *
 *   esd_sim -scheme=<0..5|name> [-ConfigFile=<path>]
 *           (-InputFile=<trace> | -app=<name>)
 *           [-records=N] [-warmup=N] [-seed=N]
 *           [-latency-out=<path>] [-dump-config]
 *           [-stats-json=<path>] [-stats-interval=N]
 *           [-trace-out=<path>] [-trace-ring=N]
 *
 * Scheme selector follows the artifact: 0 Baseline, 1 Dedup_SHA1,
 * 2 DeWrite, 3 ESD (4/5 add the ESD_Full and ESD+ extensions).
 * `-InputFile=` is the artifact's spelling of `-trace-in=` (below).
 * `-latency-out` writes the raw write-latency samples, one per line,
 * for external CDF plotting (Fig. 15).
 *
 * Observability outputs:
 *   `-stats-json` writes the machine-readable run report (config +
 *   result + every registered stat + interval snapshots every
 *   `-stats-interval` measured writes);
 *   `-trace-out` dumps the first `-trace-ring` per-write events as
 *   JSONL (one record per line; `-trace-cap` is a legacy alias, and
 *   the default capacity comes from [telemetry] trace_ring_capacity);
 *   `-spans-out` writes a Chrome trace-event / Perfetto JSON span
 *   trace of the write pipeline and per-channel device service,
 *   admitting every `-span-every`-th write (default [telemetry]
 *   span_sample_every);
 *   `-metrics-out` rewrites a Prometheus text-format snapshot of the
 *   stat registry every `-metrics-every` measured writes plus once at
 *   end of run (0 = final snapshot only);
 *   `-hist-buckets` embeds the exact latency histogram buckets in the
 *   `-stats-json` report (opt-in: widens the schema);
 *   `-profile` attributes host wall-clock to the write-path phases
 *   (fingerprint/lookup/compare/encrypt/device) and prints the table
 *   after the run — the `host.profile.*` gauges also land in
 *   `-stats-json` output when both flags are given.
 *
 * RAS fault campaign (any of these enables the RAS pipeline; see
 * `[ras]` config keys for the full parameter set):
 *   `-ras-read-ber=P` / `-ras-write-ber=P` raw bit-error probability
 *   per stored bit per line read / write;
 *   `-ras-patrol-interval=N` patrol-scrub sweep every N device writes;
 *   `-ras-write-verify=N` verify every content write with up to N
 *   retries.
 *
 * Memory-channel model (layers over `[channels]` config keys):
 *   `-channels=N` address-interleaved channels, each replicating the
 *   `[pcm]` bank geometry with its own write-pending queue;
 *   `-wpq-depth=N` per-channel WPQ depth (0 inherits
 *   pcm.write_queue_depth);
 *   `-wpq-coalescing=B` absorb re-writes to a still-queued line in
 *   place instead of issuing a second array write.
 *
 * Crash-consistency subsystem (any of these enables the `[persistence]`
 * pipeline; see the config section for the full parameter set):
 *   `-persist=B` master switch; `-persist-domain=adr|eadr` what a power
 *   cut preserves; `-persist-epoch-writes=N` group-commit epoch;
 *   `-persist-checkpoint-epochs=N` journal-truncation cadence;
 *   `-persist-counter-slack=N` counter-recovery probe window (0 auto);
 *   `-persist-crash-at=N` inject a crash on the Nth write (warmup
 *   counts), `-persist-crash-phase=pre_barrier|mid_journal|post_data`
 *   where in the write it strikes; `-recovery-json=path` writes the
 *   machine-readable crash + recovery + pad-safety report.
 *
 * Sharded write pipeline:
 *   `-workers=N` runs the simulation through the intra-simulation
 *   sharded pipeline (exec/pipeline.hh): one shard simulator per
 *   memory channel, driven by N worker threads joining at `[pipeline]`
 *   epoch barriers. The stats report is byte-identical at any N
 *   (including N=1), so -workers only buys wall-clock time. Per-write
 *   observability exports (-trace-out, -spans-out, -metrics-out,
 *   -latency-out, -profile, -recovery-json) are single-simulator
 *   features and are rejected in pipeline mode.
 *
 * Trace frontend / capture (see `[trace]` config keys):
 *   `-trace-in=path` (or `-InputFile=path`) streams an on-disk trace
 *   (text, gzip, or binary; format sniffed from content) through the
 *   streaming frontend — constant memory at any trace length.
 *   Exclusive with -app=, and the two spellings with each other;
 *   composes with -workers=N and crash injection. The whole file
 *   replays unless -records caps it; -warmup applies only when given
 *   (file input defaults to 0/0);
 *   `-capture-out=path` tees the consumed record stream to a trace
 *   file (format from -trace-format / [trace] format; address-only
 *   records with -trace-payload=0) so the run replays bit-identically
 *   via -trace-in. Requires a synthetic workload (-app=);
 *   `-trace-format=auto|text|gzip|binary` capture format (auto=text);
 *   `-trace-payload=B` capture 64 B write payloads (default 1);
 *   `-trace-read-ahead=N` frontend decode block size in records.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/atomic_file.hh"
#include "common/cli.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "common/write_trace.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"
#include "metrics/report.hh"
#include "persist/recovery.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;

struct Options
{
    SchemeKind scheme = SchemeKind::Esd;
    std::string configFile;
    std::string app;
    std::string traceIn;
    std::string traceInFlag;  ///< the spelling that set traceIn
    std::string captureOut;
    std::string traceFormat;
    std::uint64_t traceReadAhead = ~0ull;  ///< not given: [trace] value
    int tracePayload = -1;  // -1 not given, else 0/1
    std::string latencyOut;
    std::string statsJson;
    std::string traceOut;
    std::string spansOut;
    std::string metricsOut;
    std::uint64_t traceCap = ~0ull;    ///< not given: [telemetry] value
    std::uint64_t spanEvery = ~0ull;   ///< not given: [telemetry] value
    std::uint64_t metricsEvery = ~0ull;
    std::uint64_t statsInterval = 10000;
    std::uint64_t records = 200000;
    std::uint64_t warmup = 40000;
    bool recordsGiven = false;  ///< file input defaults differ
    bool warmupGiven = false;
    std::uint64_t seed = 1;
    std::uint64_t workers = ~0ull;  ///< given at all = pipeline mode
    bool dumpConfig = false;
    bool profile = false;
    bool histBuckets = false;

    /** ECC engine override; empty means the [ecc] config value. */
    std::string eccEngine;

    // RAS overrides; negative / max mean "not given" (config-file
    // values, applied earlier, then stand).
    double rasReadBer = -1.0;
    double rasWriteBer = -1.0;
    std::uint64_t rasPatrolInterval = ~0ull;
    std::uint64_t rasWriteVerify = ~0ull;

    // Channel overrides, same "max means not given" convention.
    std::uint64_t channels = ~0ull;
    std::uint64_t wpqDepth = ~0ull;
    int wpqCoalescing = -1;  // -1 not given, else 0/1

    // Persistence overrides, same conventions.
    int persist = -1;  // -1 not given, else 0/1
    std::string persistDomain;
    std::string persistCrashPhase;
    std::uint64_t persistEpochWrites = ~0ull;
    std::uint64_t persistCheckpointEpochs = ~0ull;
    std::uint64_t persistCounterSlack = ~0ull;
    std::uint64_t persistCrashAt = ~0ull;
    std::string recoveryJson;

    bool
    rasRequested() const
    {
        return rasReadBer >= 0.0 || rasWriteBer >= 0.0 ||
               rasPatrolInterval != ~0ull || rasWriteVerify != ~0ull;
    }

    bool
    persistRequested() const
    {
        return persist == 1 || !persistDomain.empty() ||
               !persistCrashPhase.empty() ||
               persistEpochWrites != ~0ull ||
               persistCheckpointEpochs != ~0ull ||
               persistCounterSlack != ~0ull || persistCrashAt != ~0ull;
    }
};

/** Strict probability parse: a double in [0, 1]. */
double
parseProb(const std::string &flag, const std::string &v)
{
    try {
        std::size_t consumed = 0;
        double out = std::stod(v, &consumed);
        if (consumed != v.size())
            throw std::invalid_argument(v);
        if (out < 0.0 || out > 1.0)
            esd_fatal("%s: %s out of range [0, 1]", flag.c_str(),
                      v.c_str());
        return out;
    } catch (const std::exception &) {
        esd_fatal("%s: '%s' is not a probability", flag.c_str(),
                  v.c_str());
    }
}

void
usage()
{
    std::cerr
        << "usage: esd_sim -scheme=<0..5|name> [-ConfigFile=path]\n"
           "               (-InputFile=trace | -app=name | "
           "-trace-in=trace)\n"
           "               [-records=N] [-warmup=N] [-seed=N] "
           "[-workers=N]\n"
           "               [-capture-out=path] "
           "[-trace-format=auto|text|gzip|binary]\n"
           "               [-trace-payload=B] [-trace-read-ahead=N]\n"
           "               [-latency-out=path] [-dump-config]\n"
           "               [-stats-json=path] [-stats-interval=N]\n"
           "               [-trace-out=path] [-trace-ring=N]\n"
           "               [-spans-out=path] [-span-every=N]\n"
           "               [-metrics-out=path] [-metrics-every=N]\n"
           "               [-hist-buckets]\n"
           "               [-ras-read-ber=P] [-ras-write-ber=P]\n"
           "               [-ras-patrol-interval=N] "
           "[-ras-write-verify=N]\n"
           "               [-channels=N] [-wpq-depth=N] "
           "[-wpq-coalescing=B]\n"
           "               [-ecc=hamming|bch|rs]\n"
           "               [-persist=B] [-persist-domain=adr|eadr]\n"
           "               [-persist-epoch-writes=N] "
           "[-persist-checkpoint-epochs=N]\n"
           "               [-persist-counter-slack=N] "
           "[-persist-crash-at=N]\n"
           "               [-persist-crash-phase=NAME] "
           "[-recovery-json=path]\n"
           "               [-profile]\n"
           "schemes: 0 Baseline, 1 Dedup_SHA1, 2 DeWrite, 3 ESD, "
           "4 ESD_Full, 5 ESD+\napps: ";
    for (const AppProfile &p : paperApps())
        std::cerr << p.name << " ";
    std::cerr << "\n";
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        // The spelling given, for flags that have two.
        auto name = [&] { return arg.substr(0, arg.find('=')); };
        if (arg.rfind("-scheme=", 0) == 0) {
            opt.scheme = parseSchemeKind(value("-scheme="));
        } else if (arg.rfind("-ConfigFile=", 0) == 0) {
            opt.configFile = value("-ConfigFile=");
        } else if (arg.rfind("-app=", 0) == 0) {
            opt.app = value("-app=");
        } else if (arg.rfind("-trace-in=", 0) == 0 ||
                   arg.rfind("-InputFile=", 0) == 0) {
            // -InputFile= is the artifact's spelling of -trace-in=.
            if (!opt.traceIn.empty() && name() != opt.traceInFlag)
                esd_fatal("-trace-in is incompatible with -InputFile=");
            opt.traceInFlag = name();
            opt.traceIn = arg.substr(opt.traceInFlag.size() + 1);
        } else if (arg.rfind("-capture-out=", 0) == 0) {
            opt.captureOut = value("-capture-out=");
        } else if (arg.rfind("-trace-format=", 0) == 0) {
            opt.traceFormat = value("-trace-format=");
            parseTraceFormat("-trace-format", opt.traceFormat);
        } else if (arg.rfind("-trace-payload=", 0) == 0) {
            opt.tracePayload = parseBool("-trace-payload",
                                         value("-trace-payload="))
                                   ? 1
                                   : 0;
        } else if (arg.rfind("-trace-read-ahead=", 0) == 0) {
            opt.traceReadAhead = parseU64In(
                "-trace-read-ahead", value("-trace-read-ahead="), 1,
                1u << 20);
        } else if (arg.rfind("-records=", 0) == 0) {
            opt.records = parseU64("-records", value("-records="));
            opt.recordsGiven = true;
        } else if (arg.rfind("-warmup=", 0) == 0) {
            opt.warmup = parseU64("-warmup", value("-warmup="));
            opt.warmupGiven = true;
        } else if (arg.rfind("-seed=", 0) == 0) {
            opt.seed = parseU64("-seed", value("-seed="));
        } else if (arg.rfind("-workers=", 0) == 0) {
            opt.workers =
                parseU64In("-workers", value("-workers="), 1, 256);
        } else if (arg.rfind("-latency-out=", 0) == 0) {
            opt.latencyOut = value("-latency-out=");
        } else if (arg.rfind("-stats-json=", 0) == 0) {
            opt.statsJson = value("-stats-json=");
        } else if (arg.rfind("-stats-interval=", 0) == 0) {
            opt.statsInterval =
                parseU64("-stats-interval", value("-stats-interval="));
        } else if (arg.rfind("-trace-out=", 0) == 0) {
            opt.traceOut = value("-trace-out=");
        } else if (arg.rfind("-trace-ring=", 0) == 0 ||
                   arg.rfind("-trace-cap=", 0) == 0) {
            // -trace-cap= is the legacy spelling of -trace-ring=; the
            // bound is telemetry.trace_ring_capacity's.
            opt.traceCap = parseU64In(
                name(), arg.substr(name().size() + 1), 1, 1u << 24);
        } else if (arg.rfind("-spans-out=", 0) == 0) {
            opt.spansOut = value("-spans-out=");
        } else if (arg.rfind("-span-every=", 0) == 0) {
            opt.spanEvery = parseU64In("-span-every",
                                       value("-span-every="), 1, 1u << 30);
        } else if (arg.rfind("-metrics-out=", 0) == 0) {
            opt.metricsOut = value("-metrics-out=");
        } else if (arg.rfind("-metrics-every=", 0) == 0) {
            // Same bound as telemetry.metrics_every_writes.
            opt.metricsEvery = parseU64In(
                "-metrics-every", value("-metrics-every="), 0, 1ull << 40);
        } else if (arg == "-hist-buckets") {
            opt.histBuckets = true;
        } else if (arg.rfind("-ras-read-ber=", 0) == 0) {
            opt.rasReadBer =
                parseProb("-ras-read-ber", value("-ras-read-ber="));
        } else if (arg.rfind("-ras-write-ber=", 0) == 0) {
            opt.rasWriteBer =
                parseProb("-ras-write-ber", value("-ras-write-ber="));
        } else if (arg.rfind("-ras-patrol-interval=", 0) == 0) {
            opt.rasPatrolInterval = parseU64(
                "-ras-patrol-interval", value("-ras-patrol-interval="));
        } else if (arg.rfind("-ras-write-verify=", 0) == 0) {
            opt.rasWriteVerify =
                parseU64("-ras-write-verify", value("-ras-write-verify="));
        } else if (arg.rfind("-channels=", 0) == 0) {
            opt.channels =
                parseU64In("-channels", value("-channels="), 1, 64);
        } else if (arg.rfind("-wpq-depth=", 0) == 0) {
            opt.wpqDepth =
                parseU64In("-wpq-depth", value("-wpq-depth="), 0, 1u << 16);
        } else if (arg.rfind("-wpq-coalescing=", 0) == 0) {
            opt.wpqCoalescing = parseBool("-wpq-coalescing",
                                          value("-wpq-coalescing="))
                                    ? 1
                                    : 0;
        } else if (arg.rfind("-ecc=", 0) == 0) {
            opt.eccEngine = value("-ecc=");
            parseEccEngine("-ecc", opt.eccEngine);  // fail fast
        } else if (arg.rfind("-persist=", 0) == 0) {
            opt.persist =
                parseBool("-persist", value("-persist=")) ? 1 : 0;
        } else if (arg.rfind("-persist-domain=", 0) == 0) {
            opt.persistDomain = value("-persist-domain=");
            parsePersistDomain("-persist-domain", opt.persistDomain);
        } else if (arg.rfind("-persist-epoch-writes=", 0) == 0) {
            opt.persistEpochWrites =
                parseU64In("-persist-epoch-writes",
                           value("-persist-epoch-writes="), 1, 1u << 20);
        } else if (arg.rfind("-persist-checkpoint-epochs=", 0) == 0) {
            opt.persistCheckpointEpochs =
                parseU64In("-persist-checkpoint-epochs",
                           value("-persist-checkpoint-epochs="), 1,
                           1u << 20);
        } else if (arg.rfind("-persist-counter-slack=", 0) == 0) {
            opt.persistCounterSlack =
                parseU64In("-persist-counter-slack",
                           value("-persist-counter-slack="), 0, 1u << 20);
        } else if (arg.rfind("-persist-crash-at=", 0) == 0) {
            opt.persistCrashAt = parseU64("-persist-crash-at",
                                          value("-persist-crash-at="));
        } else if (arg.rfind("-persist-crash-phase=", 0) == 0) {
            opt.persistCrashPhase = value("-persist-crash-phase=");
            parseCrashPhase("-persist-crash-phase",
                            opt.persistCrashPhase);
        } else if (arg.rfind("-recovery-json=", 0) == 0) {
            opt.recoveryJson = value("-recovery-json=");
        } else if (arg == "-profile") {
            opt.profile = true;
        } else if (arg == "-dump-config") {
            opt.dumpConfig = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            std::exit(0);
        } else {
            usage();
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    return opt;
}

/**
 * Pipeline-mode run: shard simulators + worker threads in place of the
 * single Simulator, console summary from the merged result, stats-JSON
 * via the pipeline report (per-shard fragments, worker-count-free).
 */
int
runPipeline(const Options &opt, const SimConfig &cfg,
            TraceSource &trace, std::uint64_t records,
            std::uint64_t warmup)
{
    exec::ShardedPipeline pipe(cfg, opt.scheme,
                               static_cast<unsigned>(opt.workers));
    const RunResult &r = pipe.run(trace, records, warmup);

    std::cout << "scheme: " << r.schemeName << "\n"
              << "records: " << r.records << " (" << r.logicalWrites
              << " writes, " << r.logicalReads << " reads)\n"
              << "pipeline: shards=" << pipe.shardCount()
              << " workers=" << pipe.workers()
              << " epochs=" << pipe.epochsRun()
              << " epoch_records=" << cfg.pipeline.epochRecords
              << (pipe.dedupSuspendedGlobally()
                      ? " dedup_suspended@" +
                            std::to_string(pipe.suspendEpoch())
                      : "")
              << "\n";

    TablePrinter t({"metric", "value"});
    t.addRow({"write reduction", TablePrinter::pct(r.writeReduction())});
    t.addRow({"NVMM writes (data/total)",
              std::to_string(r.nvmDataWrites) + " / " +
                  std::to_string(r.nvmWritesTotal)});
    if (cfg.channels.count > 1 || cfg.channels.wpqCoalescing)
        t.addRow({"channels (issued+coalesced)",
                  std::to_string(cfg.channels.count) + " ch, " +
                      std::to_string(r.nvmWritesTotal) + " + " +
                      std::to_string(r.nvmWritesCoalesced) + " writes"});
    t.addRow({"NVMM reads (total)", std::to_string(r.nvmReadsTotal)});
    t.addRow({"write latency mean/p99",
              TablePrinter::num(r.writeLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.writeLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"read latency mean/p99",
              TablePrinter::num(r.readLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.readLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"IPC", TablePrinter::num(r.ipc, 3)});
    t.addRow({"energy", TablePrinter::num(r.energy.total() / 1e6, 2) +
                            " uJ"});
    t.addRow({"metadata in NVMM",
              TablePrinter::num(r.metadataNvmBytes / 1024.0, 1) + " KB"});
    t.print();

    if (cfg.ras.enabled) {
        std::uint64_t corrected = 0, ues = 0, retired = 0, sdc = 0;
        std::uint64_t blast = 0;
        for (unsigned s = 0; s < pipe.shardCount(); ++s) {
            const SchemeStats &ss = pipe.shard(s).scheme().stats();
            const RasStats &rs = pipe.shard(s).scheme().ras().stats();
            corrected += ss.eccCorrectedReads.value();
            ues += rs.ueEvents.value();
            retired += rs.linesRetired.value();
            sdc += ss.sdcEvents.value();
            blast += rs.blastRadiusRefs.value();
        }
        std::cout << "ras: corrected=" << corrected
                  << " uncorrectable=" << ues << " retired=" << retired
                  << " sdc=" << sdc << " blast_radius=" << blast
                  << (pipe.dedupSuspendedGlobally() ? " dedup_suspended"
                                                    : "")
                  << "\n";
    }

    if (cfg.persist.enabled) {
        std::uint64_t jrecords = 0, commits = 0, checkpoints = 0;
        std::uint64_t barrier_ns = 0;
        for (unsigned s = 0; s < pipe.shardCount(); ++s) {
            const PersistStats &ps =
                pipe.shard(s).persistence()->stats();
            jrecords += ps.journalRecords.value();
            commits += ps.epochCommits.value();
            checkpoints += ps.checkpoints.value();
            barrier_ns += ps.barrierNs.value();
        }
        std::cout << "persist: domain="
                  << persistDomainName(cfg.persist.domain)
                  << " records=" << jrecords << " commits=" << commits
                  << " checkpoints=" << checkpoints
                  << " barrier_ns=" << barrier_ns << "\n";

        int cs = pipe.crashedShard();
        if (cs >= 0) {
            Simulator &sim = pipe.shard(static_cast<unsigned>(cs));
            const PersistenceManager &pm = *sim.persistence();
            const CrashImage &img = pm.image();
            RecoveredState rec = recoverFromImage(
                img, pm.config(), sim.scheme().crypto(),
                sim.scheme().ecc());
            PadSafetyReport audit = auditPadSafety(rec, img);
            std::cout << "crash: shard=" << cs
                      << " write=" << img.crashWriteIndex
                      << " phase=" << crashPhaseName(img.phase)
                      << " surviving_lines=" << img.content.size()
                      << " durable_records=" << img.records.size()
                      << " torn=" << img.tornRecords << "\n"
                      << "recovery: replayed="
                      << rec.summary.recordsReplayed
                      << " counters_repaired="
                      << rec.summary.countersRepaired
                      << " unresolved="
                      << rec.summary.countersUnresolved
                      << " mappings_invalidated="
                      << rec.summary.mappingsInvalidated
                      << " pad_violations=" << audit.violations
                      << (rec.summary.ok ? " ok" : " NOT-OK") << "\n";
        } else if (cfg.persist.crashAtWrite != 0) {
            esd_fatal("the run ended before the injected crash point "
                      "(crash_at_write=%llu)",
                      static_cast<unsigned long long>(
                          cfg.persist.crashAtWrite));
        }
    }

    if (!opt.statsJson.empty()) {
        std::ostringstream out;
        pipe.writeReport(out, /*indent=*/2,
                         opt.histBuckets ||
                             cfg.telemetry.histogramBuckets);
        if (!writeFileAtomic(opt.statsJson, out.str()))
            esd_fatal("cannot write '%s'", opt.statsJson.c_str());
        std::cout << "wrote pipeline stats report ("
                  << pipe.shardCount() << " shards) to " << opt.statsJson
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    SimConfig cfg;
    cfg.seed = opt.seed;
    if (!opt.configFile.empty())
        loadConfigFile(cfg, opt.configFile);

    // RAS flags layer over (and enable) whatever the config file set.
    if (opt.rasRequested())
        cfg.ras.enabled = true;
    if (opt.rasReadBer >= 0.0)
        cfg.ras.readBer = opt.rasReadBer;
    if (opt.rasWriteBer >= 0.0)
        cfg.ras.writeBer = opt.rasWriteBer;
    if (opt.rasPatrolInterval != ~0ull)
        cfg.ras.patrolIntervalWrites = opt.rasPatrolInterval;
    if (opt.rasWriteVerify != ~0ull)
        cfg.ras.writeVerifyRetries = opt.rasWriteVerify;

    // Channel flags layer over the [channels] config section.
    if (opt.channels != ~0ull)
        cfg.channels.count = static_cast<unsigned>(opt.channels);
    if (opt.wpqDepth != ~0ull)
        cfg.channels.wpqDepth = static_cast<unsigned>(opt.wpqDepth);
    if (opt.wpqCoalescing >= 0)
        cfg.channels.wpqCoalescing = opt.wpqCoalescing != 0;

    // The ECC engine flag layers over the [ecc] config section.
    if (!opt.eccEngine.empty())
        cfg.ecc.engine = parseEccEngine("-ecc", opt.eccEngine);

    // Persistence flags layer over (and enable) the [persistence]
    // section; -persist=0 force-disables whatever the file set.
    if (opt.persistRequested())
        cfg.persist.enabled = true;
    if (opt.persist == 0)
        cfg.persist.enabled = false;
    if (!opt.persistDomain.empty())
        cfg.persist.domain =
            parsePersistDomain("-persist-domain", opt.persistDomain);
    if (opt.persistEpochWrites != ~0ull)
        cfg.persist.epochWrites = opt.persistEpochWrites;
    if (opt.persistCheckpointEpochs != ~0ull)
        cfg.persist.checkpointEpochs = opt.persistCheckpointEpochs;
    if (opt.persistCounterSlack != ~0ull)
        cfg.persist.counterSlack = opt.persistCounterSlack;
    if (opt.persistCrashAt != ~0ull)
        cfg.persist.crashAtWrite = opt.persistCrashAt;
    if (!opt.persistCrashPhase.empty())
        cfg.persist.crashPhase =
            parseCrashPhase("-persist-crash-phase", opt.persistCrashPhase);
    if (!opt.recoveryJson.empty() &&
        (!cfg.persist.enabled || cfg.persist.crashAtWrite == 0))
        esd_fatal("-recovery-json requires an injected crash "
                  "(-persist-crash-at=N)");

    // Trace flags layer over the [trace] config section.
    if (!opt.traceFormat.empty())
        cfg.trace.format =
            parseTraceFormat("-trace-format", opt.traceFormat);
    if (opt.tracePayload >= 0)
        cfg.trace.linePayload = opt.tracePayload != 0;
    if (opt.traceReadAhead != ~0ull)
        cfg.trace.readAhead = opt.traceReadAhead;

    if (opt.dumpConfig) {
        std::cout << renderConfig(cfg);
        return 0;
    }

    // Exactly one workload source: reject ambiguous combinations up
    // front instead of silently preferring one.
    if (!opt.traceIn.empty() && !opt.app.empty())
        esd_fatal("%s is incompatible with -app= (the trace is the "
                  "workload)", opt.traceInFlag.c_str());
    if (opt.traceIn.empty() && opt.app.empty()) {
        usage();
        esd_fatal("need -InputFile, -app, or -trace-in");
    }
    // Capture re-exports a synthetic run; capturing a replayed file
    // would only copy it.
    if (!opt.captureOut.empty() && opt.app.empty())
        esd_fatal("-capture-out requires a synthetic workload (-app=)");

    std::unique_ptr<TraceSource> trace;
    if (!opt.traceIn.empty())
        trace = std::make_unique<TraceFrontend>(opt.traceIn, cfg.trace);
    else
        trace =
            std::make_unique<SyntheticWorkload>(findApp(opt.app), opt.seed);

    // Trace files replay to exhaustion with no warmup unless -records /
    // -warmup are given explicitly (replaying a captured run passes the
    // original -warmup to reproduce its stats byte-for-byte).
    bool file_input = !opt.traceIn.empty();
    std::uint64_t records =
        !file_input || opt.recordsGiven ? opt.records : 0;
    std::uint64_t warmup =
        !file_input || opt.warmupGiven ? opt.warmup : 0;

    // Capture tee: the pipeline demux and Simulator::run are each the
    // sole consumer of the source, so the captured order is exactly
    // the consumed order in both modes.
    std::unique_ptr<TraceCaptureWriter> capture;
    std::unique_ptr<TraceSource> captured_inner;
    if (!opt.captureOut.empty()) {
        capture = std::make_unique<TraceCaptureWriter>(opt.captureOut,
                                                       cfg.trace);
        captured_inner = std::move(trace);
        trace = std::make_unique<CapturingSource>(*captured_inner,
                                                  *capture);
    }

    if (opt.workers != ~0ull) {
        // Per-write observability exports attach to one Simulator's
        // sinks; they have no deterministic merged form across shards.
        if (!opt.traceOut.empty())
            esd_fatal("-workers is incompatible with -trace-out=");
        if (!opt.spansOut.empty())
            esd_fatal("-workers is incompatible with -spans-out=");
        if (!opt.metricsOut.empty())
            esd_fatal("-workers is incompatible with -metrics-out=");
        if (!opt.latencyOut.empty())
            esd_fatal("-workers is incompatible with -latency-out=");
        if (opt.profile)
            esd_fatal("-workers is incompatible with -profile");
        if (!opt.recoveryJson.empty())
            esd_fatal("-workers is incompatible with -recovery-json=");
        int rc = runPipeline(opt, cfg, *trace, records, warmup);
        if (capture) {
            capture->close();
            std::cout << "captured " << capture->count()
                      << " records to " << opt.captureOut << "\n";
        }
        return rc;
    }

    Simulator sim(cfg, opt.scheme);

    // Flags layer over the [telemetry] config section. The event ring
    // is allocated only when it is written out.
    std::unique_ptr<WriteEventTrace> events;
    if (!opt.traceOut.empty()) {
        events = std::make_unique<WriteEventTrace>(
            opt.traceCap != ~0ull ? opt.traceCap
                                  : cfg.telemetry.traceRingCapacity);
        sim.setEventTrace(events.get());
    }

    SpanTrace spans(cfg.telemetry.spanBufferCap,
                    opt.spanEvery != ~0ull
                        ? opt.spanEvery
                        : cfg.telemetry.spanSampleEvery);
    if (!opt.spansOut.empty())
        sim.setSpanTrace(&spans);

    if (!opt.metricsOut.empty())
        sim.enableMetricsExposition(
            opt.metricsOut, opt.metricsEvery != ~0ull
                                ? opt.metricsEvery
                                : cfg.telemetry.metricsEveryWrites);

    if (!opt.latencyOut.empty())
        sim.enableRawLatencySamples();
    if (!opt.statsJson.empty())
        sim.enableIntervalSampling(opt.statsInterval);
    if (opt.profile)
        sim.enableProfiling();

    RunResult r = sim.run(*trace, records, warmup);

    if (capture) {
        capture->close();
        std::cout << "captured " << capture->count() << " records to "
                  << opt.captureOut << "\n";
    }

    std::cout << "scheme: " << r.schemeName << "\n"
              << "records: " << r.records << " (" << r.logicalWrites
              << " writes, " << r.logicalReads << " reads)\n";
    TablePrinter t({"metric", "value"});
    t.addRow({"write reduction", TablePrinter::pct(r.writeReduction())});
    t.addRow({"NVMM writes (data/total)",
              std::to_string(r.nvmDataWrites) + " / " +
                  std::to_string(r.nvmWritesTotal)});
    if (sim.device().channelCount() > 1 || sim.device().coalescingEnabled())
        t.addRow({"channels (issued+coalesced)",
                  std::to_string(sim.device().channelCount()) + " ch, " +
                      std::to_string(r.nvmWritesTotal) + " + " +
                      std::to_string(r.nvmWritesCoalesced) + " writes"});
    t.addRow({"NVMM reads (total)", std::to_string(r.nvmReadsTotal)});
    t.addRow({"write latency mean/p99",
              TablePrinter::num(r.writeLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.writeLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"read latency mean/p99",
              TablePrinter::num(r.readLatency.mean(), 1) + " / " +
                  TablePrinter::num(r.readLatency.percentile(99), 0) +
                  " ns"});
    t.addRow({"IPC", TablePrinter::num(r.ipc, 3)});
    t.addRow({"energy", TablePrinter::num(r.energy.total() / 1e6, 2) +
                            " uJ"});
    t.addRow({"metadata in NVMM",
              TablePrinter::num(r.metadataNvmBytes / 1024.0, 1) + " KB"});
    t.print();

    if (opt.profile) {
        const Profiler &prof = sim.profiler();
        double run_ns = static_cast<double>(prof.runNs());
        std::uint64_t writes = std::max<std::uint64_t>(r.logicalWrites, 1);
        std::cout << "host profile (measured window):\n";
        TablePrinter pt({"phase", "calls", "total ms", "ns/write",
                         "% of run"});
        for (unsigned p = 0; p < Profiler::kPhaseCount; ++p) {
            const Profiler::PhaseTotals &tp = prof.phase(p);
            pt.addRow({Profiler::phaseName(p),
                       std::to_string(tp.calls),
                       TablePrinter::num(tp.ns / 1e6, 2),
                       TablePrinter::num(static_cast<double>(tp.ns) /
                                             writes, 0),
                       run_ns > 0
                           ? TablePrinter::pct(tp.ns / run_ns)
                           : "-"});
        }
        std::uint64_t other = prof.runNs() - std::min(prof.profiledNs(),
                                                      prof.runNs());
        pt.addRow({"(unattributed)", "-",
                   TablePrinter::num(other / 1e6, 2),
                   TablePrinter::num(static_cast<double>(other) / writes,
                                     0),
                   run_ns > 0 ? TablePrinter::pct(other / run_ns) : "-"});
        pt.print();
        double secs = run_ns / 1e9;
        std::cout << "host run: " << TablePrinter::num(run_ns / 1e6, 1)
                  << " ms, "
                  << TablePrinter::num(
                         secs > 0 ? r.logicalWrites / secs : 0, 0)
                  << " writes/s\n";
    }

    if (cfg.ras.enabled) {
        const SchemeStats &ss = sim.scheme().stats();
        const RasStats &rs = sim.scheme().ras().stats();
        std::cout << "ras: corrected=" << ss.eccCorrectedReads.value()
                  << " uncorrectable=" << rs.ueEvents.value()
                  << " retired=" << rs.linesRetired.value()
                  << " sdc=" << ss.sdcEvents.value()
                  << " blast_radius=" << rs.blastRadiusRefs.value()
                  << (sim.scheme().ras().dedupSuspended()
                          ? " dedup_suspended"
                          : "")
                  << "\n";
    }

    if (cfg.persist.enabled) {
        const PersistenceManager &pm = *sim.persistence();
        const PersistStats &ps = pm.stats();
        std::cout << "persist: domain="
                  << persistDomainName(cfg.persist.domain)
                  << " records=" << ps.journalRecords.value()
                  << " commits=" << ps.epochCommits.value()
                  << " checkpoints=" << ps.checkpoints.value()
                  << " barrier_ns=" << ps.barrierNs.value() << "\n";

        if (pm.crashed()) {
            const CrashImage &img = pm.image();
            RecoveredState rec =
                recoverFromImage(img, cfg.persist, sim.scheme().crypto(),
                                 sim.scheme().ecc());
            PadSafetyReport audit = auditPadSafety(rec, img);
            std::cout << "crash: write=" << img.crashWriteIndex
                      << " phase=" << crashPhaseName(img.phase)
                      << " surviving_lines=" << img.content.size()
                      << " durable_records=" << img.records.size()
                      << " torn=" << img.tornRecords << "\n"
                      << "recovery: replayed="
                      << rec.summary.recordsReplayed
                      << " counters_repaired="
                      << rec.summary.countersRepaired
                      << " unresolved=" << rec.summary.countersUnresolved
                      << " mappings_invalidated="
                      << rec.summary.mappingsInvalidated
                      << " pad_violations=" << audit.violations
                      << (rec.summary.ok ? " ok" : " NOT-OK") << "\n";
            if (!opt.recoveryJson.empty()) {
                std::ostringstream os;
                writeRecoveryJson(os, img, rec);
                if (!writeFileAtomic(opt.recoveryJson, os.str()))
                    esd_fatal("cannot write '%s'",
                              opt.recoveryJson.c_str());
                std::cout << "wrote recovery report to "
                          << opt.recoveryJson << "\n";
            }
        } else if (!opt.recoveryJson.empty()) {
            esd_fatal("-recovery-json: the run ended before the "
                      "injected crash point (crash_at_write=%llu, "
                      "%llu writes seen)",
                      static_cast<unsigned long long>(
                          cfg.persist.crashAtWrite),
                      static_cast<unsigned long long>(pm.writeIndex()));
        }
    }

    if (!opt.latencyOut.empty()) {
        std::ofstream out(opt.latencyOut);
        if (!out)
            esd_fatal("cannot open '%s'", opt.latencyOut.c_str());
        for (double v : r.writeLatency.samples())
            out << v << "\n";
        std::cout << "wrote " << r.writeLatency.count()
                  << " write-latency samples to " << opt.latencyOut
                  << "\n";
    }

    if (!opt.statsJson.empty()) {
        // Rendered in memory and published with an atomic rename: a
        // reader never sees a torn report, even if we die mid-write.
        std::ostringstream out;
        writeStatsReport(out, cfg, r, sim.statRegistry(),
                         &sim.sampler(), /*indent=*/2,
                         opt.histBuckets ||
                             cfg.telemetry.histogramBuckets);
        if (!writeFileAtomic(opt.statsJson, out.str()))
            esd_fatal("cannot write '%s'", opt.statsJson.c_str());
        std::cout << "wrote stats report (" << sim.statRegistry().size()
                  << " stats, " << sim.sampler().rows().size()
                  << " interval samples) to " << opt.statsJson << "\n";
    }

    if (!opt.spansOut.empty()) {
        std::ostringstream out;
        spans.writeChromeJson(out);
        if (!writeFileAtomic(opt.spansOut, out.str()))
            esd_fatal("cannot write '%s'", opt.spansOut.c_str());
        std::cout << "wrote " << spans.size() << " of "
                  << spans.totalRecorded() << " spans to "
                  << opt.spansOut << "\n";
    }

    if (!opt.metricsOut.empty())
        std::cout << "wrote " << sim.metricsExporter().snapshots()
                  << " metric snapshots to " << opt.metricsOut << "\n";

    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out)
            esd_fatal("cannot open '%s'", opt.traceOut.c_str());
        events->writeJsonl(out);
        std::cout << "wrote " << events->size() << " of "
                  << events->totalRecorded() << " write events to "
                  << opt.traceOut << "\n";
    }
    return 0;
}
