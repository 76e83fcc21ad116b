#include "common/config_io.hh"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/cli.hh"
#include "common/logging.hh"

namespace esd
{

namespace
{

/** Upper bound of every `*_kb` cache size key (16 GiB): far above any
 * real cache, and the `<< 10` to bytes cannot overflow. */
constexpr std::uint64_t kMaxCacheKb = 1ull << 24;
constexpr std::uint64_t kMaxCacheAssoc = 1u << 16;
/** Upper bound of every `*_latency` key, in ns (about 4.3 s): far
 * above any device or crypto latency. */
constexpr std::uint64_t kMaxLatencyNs = UINT32_MAX;

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

std::uint64_t
asU64(const std::string &key, const std::string &v)
{
    // std::stoull silently wraps negative inputs; reject them first.
    if (!v.empty() && v[0] == '-')
        esd_fatal("config key '%s': '%s' is negative (expected an "
                  "unsigned integer)",
                  key.c_str(), v.c_str());
    // Decimal, or hex with a 0x prefix; a leading 0 is not octal.
    bool hex = v.size() > 1 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    try {
        std::size_t consumed = 0;
        std::uint64_t out = std::stoull(v, &consumed, hex ? 16 : 10);
        if (consumed != v.size())
            esd_fatal("config key '%s': trailing garbage in '%s'",
                      key.c_str(), v.c_str());
        return out;
    } catch (const std::out_of_range &) {
        esd_fatal("config key '%s': '%s' does not fit in 64 bits",
                  key.c_str(), v.c_str());
    } catch (...) {
        esd_fatal("config key '%s': '%s' is not an integer", key.c_str(),
                  v.c_str());
    }
}

double
asDouble(const std::string &key, const std::string &v)
{
    try {
        std::size_t consumed = 0;
        double out = std::stod(v, &consumed);
        if (consumed != v.size())
            esd_fatal("config key '%s': trailing garbage in '%s'",
                      key.c_str(), v.c_str());
        return out;
    } catch (const std::out_of_range &) {
        esd_fatal("config key '%s': '%s' is out of double range",
                  key.c_str(), v.c_str());
    } catch (...) {
        esd_fatal("config key '%s': '%s' is not a number", key.c_str(),
                  v.c_str());
    }
}

/** A probability: a double constrained to [0, 1]. */
double
asProb(const std::string &key, const std::string &v)
{
    double p = asDouble(key, v);
    if (p < 0.0 || p > 1.0)
        esd_fatal("config key '%s': %s is out of range (probability "
                  "must be in [0, 1])",
                  key.c_str(), v.c_str());
    return p;
}

/** An unsigned integer constrained to [lo, hi]. */
std::uint64_t
asU64In(const std::string &key, const std::string &v, std::uint64_t lo,
        std::uint64_t hi)
{
    std::uint64_t u = asU64(key, v);
    if (u < lo || u > hi)
        esd_fatal("config key '%s': %s is out of range [%llu, %llu]",
                  key.c_str(), v.c_str(),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return u;
}

bool
asBool(const std::string &key, const std::string &v)
{
    std::optional<bool> b = boolWord(v);
    if (!b)
        esd_fatal("config key '%s': '%s' is not a boolean", key.c_str(),
                  v.c_str());
    return *b;
}

} // namespace

const char *
eccEngineName(EccEngineKind k)
{
    switch (k) {
      case EccEngineKind::Hamming: return "hamming";
      case EccEngineKind::Bch: return "bch";
      case EccEngineKind::Rs: return "rs";
    }
    esd_panic("unreachable ecc engine %d", static_cast<int>(k));
}

EccEngineKind
parseEccEngine(const std::string &key, const std::string &v)
{
    if (v == "hamming")
        return EccEngineKind::Hamming;
    if (v == "bch")
        return EccEngineKind::Bch;
    if (v == "rs")
        return EccEngineKind::Rs;
    esd_fatal("config key '%s': '%s' is not an ecc engine "
              "(expected hamming, bch, or rs)",
              key.c_str(), v.c_str());
}

const char *
persistDomainName(PersistDomain d)
{
    switch (d) {
      case PersistDomain::Adr: return "adr";
      case PersistDomain::Eadr: return "eadr";
    }
    esd_panic("unreachable persistence domain %d", static_cast<int>(d));
}

const char *
crashPhaseName(CrashPhase p)
{
    switch (p) {
      case CrashPhase::PreBarrier: return "pre_barrier";
      case CrashPhase::MidJournal: return "mid_journal";
      case CrashPhase::PostData: return "post_data";
    }
    esd_panic("unreachable crash phase %d", static_cast<int>(p));
}

PersistDomain
parsePersistDomain(const std::string &key, const std::string &v)
{
    if (v == "adr")
        return PersistDomain::Adr;
    if (v == "eadr")
        return PersistDomain::Eadr;
    esd_fatal("config key '%s': '%s' is not a persistence domain "
              "(expected adr or eadr)",
              key.c_str(), v.c_str());
}

CrashPhase
parseCrashPhase(const std::string &key, const std::string &v)
{
    if (v == "pre_barrier")
        return CrashPhase::PreBarrier;
    if (v == "mid_journal")
        return CrashPhase::MidJournal;
    if (v == "post_data")
        return CrashPhase::PostData;
    esd_fatal("config key '%s': '%s' is not a crash phase (expected "
              "pre_barrier, mid_journal, or post_data)",
              key.c_str(), v.c_str());
}

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::Auto: return "auto";
      case TraceFormat::Text: return "text";
      case TraceFormat::Gzip: return "gzip";
      case TraceFormat::Binary: return "binary";
    }
    esd_panic("unreachable trace format %d", static_cast<int>(f));
}

TraceFormat
parseTraceFormat(const std::string &key, const std::string &v)
{
    if (v == "auto")
        return TraceFormat::Auto;
    if (v == "text")
        return TraceFormat::Text;
    if (v == "gzip")
        return TraceFormat::Gzip;
    if (v == "binary")
        return TraceFormat::Binary;
    esd_fatal("config key '%s': '%s' is not a trace format (expected "
              "auto, text, gzip, or binary)",
              key.c_str(), v.c_str());
}

bool
applyConfigKey(SimConfig &cfg, const std::string &key,
               const std::string &value)
{
    const std::string &k = key;
    const std::string &v = value;

    // PCM.
    if (k == "pcm.capacity_gb") {
        cfg.pcm.capacityBytes = asU64In(k, v, 1, 1u << 20) << 30;
    } else if (k == "pcm.read_latency") {
        cfg.pcm.readLatency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "pcm.write_latency") {
        cfg.pcm.writeLatency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "pcm.read_energy_pj") {
        cfg.pcm.readEnergy = asDouble(k, v);
    } else if (k == "pcm.write_energy_pj") {
        cfg.pcm.writeEnergy = asDouble(k, v);
    } else if (k == "pcm.channels") {
        cfg.pcm.channels = static_cast<unsigned>(asU64In(k, v, 1, 64));
    } else if (k == "pcm.ranks") {
        cfg.pcm.ranksPerChannel =
            static_cast<unsigned>(asU64In(k, v, 1, 64));
    } else if (k == "pcm.banks") {
        cfg.pcm.banksPerRank =
            static_cast<unsigned>(asU64In(k, v, 1, 1024));
    } else if (k == "pcm.write_queue_depth") {
        cfg.pcm.writeQueueDepth =
            static_cast<unsigned>(asU64In(k, v, 1, 1u << 20));
    } else if (k == "pcm.row_buffer_lines") {
        cfg.pcm.rowBufferLines = asU64In(k, v, 0, 1u << 20);
    } else if (k == "pcm.row_hit_read_latency") {
        cfg.pcm.rowHitReadLatency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "pcm.read_priority") {
        cfg.pcm.readPriority = asBool(k, v);
    } else if (k == "pcm.start_gap") {
        cfg.pcm.startGapEnabled = asBool(k, v);
    } else if (k == "pcm.gap_move_period") {
        cfg.pcm.gapMovePeriod = asU64In(k, v, 1, 1ull << 40);
    } else if (k == "pcm.start_gap_region_lines") {
        cfg.pcm.startGapRegionLines = asU64In(k, v, 1, 1ull << 30);
    }
    // Memory channels.
    else if (k == "channels.count") {
        cfg.channels.count = static_cast<unsigned>(asU64In(k, v, 1, 64));
    } else if (k == "channels.wpq_depth") {
        cfg.channels.wpqDepth =
            static_cast<unsigned>(asU64In(k, v, 0, 1u << 16));
    } else if (k == "channels.wpq_coalescing") {
        cfg.channels.wpqCoalescing = asBool(k, v);
    }
    // Cache hierarchy.
    else if (k == "cache.l1_kb") {
        cfg.cache.l1Size = asU64In(k, v, 1, kMaxCacheKb) << 10;
    } else if (k == "cache.l2_kb") {
        cfg.cache.l2Size = asU64In(k, v, 1, kMaxCacheKb) << 10;
    } else if (k == "cache.l3_kb") {
        cfg.cache.l3Size = asU64In(k, v, 1, kMaxCacheKb) << 10;
    } else if (k == "cache.l1_assoc") {
        cfg.cache.l1Assoc =
            static_cast<unsigned>(asU64In(k, v, 1, kMaxCacheAssoc));
    } else if (k == "cache.l2_assoc") {
        cfg.cache.l2Assoc =
            static_cast<unsigned>(asU64In(k, v, 1, kMaxCacheAssoc));
    } else if (k == "cache.l3_assoc") {
        cfg.cache.l3Assoc =
            static_cast<unsigned>(asU64In(k, v, 1, kMaxCacheAssoc));
    }
    // Crypto cost model.
    else if (k == "crypto.sha1_latency") {
        cfg.crypto.sha1Latency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "crypto.md5_latency") {
        cfg.crypto.md5Latency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "crypto.crc_latency") {
        cfg.crypto.crcLatency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "crypto.encrypt_latency") {
        cfg.crypto.encryptLatency = asU64In(k, v, 0, kMaxLatencyNs);
    } else if (k == "crypto.compare_latency") {
        cfg.crypto.compareLatency = asU64In(k, v, 0, kMaxLatencyNs);
    }
    // Metadata.
    else if (k == "metadata.efit_kb") {
        cfg.metadata.efitCacheBytes = asU64In(k, v, 1, kMaxCacheKb) << 10;
    } else if (k == "metadata.amt_kb") {
        cfg.metadata.amtCacheBytes = asU64In(k, v, 1, kMaxCacheKb) << 10;
    } else if (k == "metadata.refer_h_max") {
        cfg.metadata.referHMax =
            static_cast<std::uint32_t>(asU64In(k, v, 0, UINT32_MAX));
    } else if (k == "metadata.decay_period") {
        cfg.metadata.decayPeriod = asU64(k, v);
    } else if (k == "metadata.decay_delta") {
        cfg.metadata.decayDelta =
            static_cast<std::uint32_t>(asU64In(k, v, 0, UINT32_MAX));
    } else if (k == "metadata.use_lrcu") {
        cfg.metadata.useLrcu = asBool(k, v);
    }
    // RAS.
    else if (k == "ras.enabled") {
        cfg.ras.enabled = asBool(k, v);
    } else if (k == "ras.read_ber") {
        cfg.ras.readBer = asProb(k, v);
    } else if (k == "ras.write_ber") {
        cfg.ras.writeBer = asProb(k, v);
    } else if (k == "ras.stuck_at_onset_writes") {
        cfg.ras.stuckAtOnsetWrites = asU64(k, v);
    } else if (k == "ras.stuck_at_per_write") {
        cfg.ras.stuckAtPerWrite = asProb(k, v);
    } else if (k == "ras.demand_scrub") {
        cfg.ras.demandScrub = asBool(k, v);
    } else if (k == "ras.patrol_interval_writes") {
        cfg.ras.patrolIntervalWrites = asU64(k, v);
    } else if (k == "ras.patrol_lines_per_sweep") {
        cfg.ras.patrolLinesPerSweep = asU64In(k, v, 1, 1u << 20);
    } else if (k == "ras.write_verify_retries") {
        cfg.ras.writeVerifyRetries = asU64In(k, v, 0, 64);
    } else if (k == "ras.write_verify_backoff_ns") {
        cfg.ras.writeVerifyBackoffNs = asU64(k, v);
    } else if (k == "ras.spare_region_lines") {
        cfg.ras.spareRegionLines = asU64In(k, v, 1, 1ull << 30);
    } else if (k == "ras.dedup_suspend_ues") {
        cfg.ras.dedupSuspendUes = asU64(k, v);
    }
    // Telemetry.
    else if (k == "telemetry.trace_ring_capacity") {
        cfg.telemetry.traceRingCapacity = asU64In(k, v, 1, 1u << 24);
    } else if (k == "telemetry.span_sample_every") {
        cfg.telemetry.spanSampleEvery = asU64In(k, v, 1, 1u << 30);
    } else if (k == "telemetry.span_buffer_cap") {
        cfg.telemetry.spanBufferCap = asU64In(k, v, 1, 1u << 26);
    } else if (k == "telemetry.metrics_every_writes") {
        cfg.telemetry.metricsEveryWrites = asU64In(k, v, 0, 1ull << 40);
    } else if (k == "telemetry.histogram_buckets") {
        cfg.telemetry.histogramBuckets = asBool(k, v);
    }
    // ECC engine.
    else if (k == "ecc.engine") {
        cfg.ecc.engine = parseEccEngine(k, v);
    }
    // Persistence.
    else if (k == "persistence.enabled") {
        cfg.persist.enabled = asBool(k, v);
    } else if (k == "persistence.domain") {
        cfg.persist.domain = parsePersistDomain(k, v);
    } else if (k == "persistence.epoch_writes") {
        cfg.persist.epochWrites = asU64In(k, v, 1, 1u << 20);
    } else if (k == "persistence.checkpoint_epochs") {
        cfg.persist.checkpointEpochs = asU64In(k, v, 1, 1u << 20);
    } else if (k == "persistence.barrier_ns") {
        cfg.persist.barrierNs = asU64In(k, v, 0, 1u << 20);
    } else if (k == "persistence.journal_append_ns") {
        cfg.persist.journalAppendNs = asU64In(k, v, 0, 1u << 20);
    } else if (k == "persistence.metadata_buffer_records") {
        cfg.persist.metadataBufferRecords = asU64In(k, v, 1, 1u << 24);
    } else if (k == "persistence.counter_slack") {
        cfg.persist.counterSlack = asU64In(k, v, 0, 1u << 24);
    } else if (k == "persistence.counter_probe_max") {
        cfg.persist.counterProbeMax = asU64In(k, v, 0, 1u << 16);
    } else if (k == "persistence.crash_at_write") {
        cfg.persist.crashAtWrite = asU64In(k, v, 0, 1ull << 40);
    } else if (k == "persistence.crash_phase") {
        cfg.persist.crashPhase = parseCrashPhase(k, v);
    }
    // Trace frontend / capture.
    else if (k == "trace.format") {
        cfg.trace.format = parseTraceFormat(k, v);
    } else if (k == "trace.line_payload") {
        cfg.trace.linePayload = asBool(k, v);
    } else if (k == "trace.read_ahead") {
        cfg.trace.readAhead = asU64In(k, v, 1, 1u << 20);
    }
    // Sharded write pipeline.
    else if (k == "pipeline.epoch_records") {
        cfg.pipeline.epochRecords = asU64In(k, v, 1, 1u << 20);
    } else if (k == "pipeline.queue_epochs") {
        cfg.pipeline.queueEpochs = asU64In(k, v, 1, 1024);
    } else if (k == "pipeline.sample_epochs") {
        cfg.pipeline.sampleEpochs = asU64In(k, v, 0, 1u << 20);
    }
    // Core.
    else if (k == "core.clock_ghz") {
        cfg.core.clockGhz = asDouble(k, v);
    } else if (k == "core.base_cpi") {
        cfg.core.baseCpi = asDouble(k, v);
    } else if (k == "seed") {
        cfg.seed = asU64(k, v);
    } else {
        return false;
    }
    return true;
}

void
loadConfigFile(SimConfig &cfg, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        esd_fatal("cannot open config file '%s'", path.c_str());
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            esd_fatal("%s:%llu: expected 'key = value'", path.c_str(),
                      static_cast<unsigned long long>(line_no));
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (!applyConfigKey(cfg, key, value))
            esd_warn("%s:%llu: unknown config key '%s' ignored",
                     path.c_str(),
                     static_cast<unsigned long long>(line_no),
                     key.c_str());
    }
}

std::string
renderConfig(const SimConfig &cfg)
{
    std::ostringstream os;
    os << "# ESD simulator configuration\n"
       << "pcm.capacity_gb = " << (cfg.pcm.capacityBytes >> 30) << "\n"
       << "pcm.read_latency = " << cfg.pcm.readLatency << "\n"
       << "pcm.write_latency = " << cfg.pcm.writeLatency << "\n"
       << "pcm.read_energy_pj = " << cfg.pcm.readEnergy << "\n"
       << "pcm.write_energy_pj = " << cfg.pcm.writeEnergy << "\n"
       << "pcm.channels = " << cfg.pcm.channels << "\n"
       << "pcm.ranks = " << cfg.pcm.ranksPerChannel << "\n"
       << "pcm.banks = " << cfg.pcm.banksPerRank << "\n"
       << "pcm.write_queue_depth = " << cfg.pcm.writeQueueDepth << "\n"
       << "pcm.row_buffer_lines = " << cfg.pcm.rowBufferLines << "\n"
       << "pcm.row_hit_read_latency = " << cfg.pcm.rowHitReadLatency
       << "\n"
       << "pcm.read_priority = "
       << (cfg.pcm.readPriority ? "true" : "false") << "\n"
       << "pcm.start_gap = "
       << (cfg.pcm.startGapEnabled ? "true" : "false") << "\n"
       << "pcm.gap_move_period = " << cfg.pcm.gapMovePeriod << "\n"
       << "pcm.start_gap_region_lines = " << cfg.pcm.startGapRegionLines
       << "\n"
       << "channels.count = " << cfg.channels.count << "\n"
       << "channels.wpq_depth = " << cfg.channels.wpqDepth << "\n"
       << "channels.wpq_coalescing = "
       << (cfg.channels.wpqCoalescing ? "true" : "false") << "\n"
       << "cache.l1_kb = " << (cfg.cache.l1Size >> 10) << "\n"
       << "cache.l2_kb = " << (cfg.cache.l2Size >> 10) << "\n"
       << "cache.l3_kb = " << (cfg.cache.l3Size >> 10) << "\n"
       << "cache.l1_assoc = " << cfg.cache.l1Assoc << "\n"
       << "cache.l2_assoc = " << cfg.cache.l2Assoc << "\n"
       << "cache.l3_assoc = " << cfg.cache.l3Assoc << "\n"
       << "crypto.sha1_latency = " << cfg.crypto.sha1Latency << "\n"
       << "crypto.md5_latency = " << cfg.crypto.md5Latency << "\n"
       << "crypto.crc_latency = " << cfg.crypto.crcLatency << "\n"
       << "crypto.encrypt_latency = " << cfg.crypto.encryptLatency << "\n"
       << "crypto.compare_latency = " << cfg.crypto.compareLatency << "\n"
       << "metadata.efit_kb = " << (cfg.metadata.efitCacheBytes >> 10)
       << "\n"
       << "metadata.amt_kb = " << (cfg.metadata.amtCacheBytes >> 10)
       << "\n"
       << "metadata.refer_h_max = " << cfg.metadata.referHMax << "\n"
       << "metadata.decay_period = " << cfg.metadata.decayPeriod << "\n"
       << "metadata.decay_delta = " << cfg.metadata.decayDelta << "\n"
       << "metadata.use_lrcu = "
       << (cfg.metadata.useLrcu ? "true" : "false") << "\n"
       << "ras.enabled = " << (cfg.ras.enabled ? "true" : "false") << "\n"
       << "ras.read_ber = " << cfg.ras.readBer << "\n"
       << "ras.write_ber = " << cfg.ras.writeBer << "\n"
       << "ras.stuck_at_onset_writes = " << cfg.ras.stuckAtOnsetWrites
       << "\n"
       << "ras.stuck_at_per_write = " << cfg.ras.stuckAtPerWrite << "\n"
       << "ras.demand_scrub = "
       << (cfg.ras.demandScrub ? "true" : "false") << "\n"
       << "ras.patrol_interval_writes = " << cfg.ras.patrolIntervalWrites
       << "\n"
       << "ras.patrol_lines_per_sweep = " << cfg.ras.patrolLinesPerSweep
       << "\n"
       << "ras.write_verify_retries = " << cfg.ras.writeVerifyRetries
       << "\n"
       << "ras.write_verify_backoff_ns = " << cfg.ras.writeVerifyBackoffNs
       << "\n"
       << "ras.spare_region_lines = " << cfg.ras.spareRegionLines << "\n"
       << "ras.dedup_suspend_ues = " << cfg.ras.dedupSuspendUes << "\n"
       << "telemetry.trace_ring_capacity = "
       << cfg.telemetry.traceRingCapacity << "\n"
       << "telemetry.span_sample_every = "
       << cfg.telemetry.spanSampleEvery << "\n"
       << "telemetry.span_buffer_cap = " << cfg.telemetry.spanBufferCap
       << "\n"
       << "telemetry.metrics_every_writes = "
       << cfg.telemetry.metricsEveryWrites << "\n"
       << "telemetry.histogram_buckets = "
       << (cfg.telemetry.histogramBuckets ? "true" : "false") << "\n"
       << "ecc.engine = " << eccEngineName(cfg.ecc.engine) << "\n"
       << "persistence.enabled = "
       << (cfg.persist.enabled ? "true" : "false") << "\n"
       << "persistence.domain = " << persistDomainName(cfg.persist.domain)
       << "\n"
       << "persistence.epoch_writes = " << cfg.persist.epochWrites << "\n"
       << "persistence.checkpoint_epochs = "
       << cfg.persist.checkpointEpochs << "\n"
       << "persistence.barrier_ns = " << cfg.persist.barrierNs << "\n"
       << "persistence.journal_append_ns = "
       << cfg.persist.journalAppendNs << "\n"
       << "persistence.metadata_buffer_records = "
       << cfg.persist.metadataBufferRecords << "\n"
       << "persistence.counter_slack = " << cfg.persist.counterSlack
       << "\n"
       << "persistence.counter_probe_max = "
       << cfg.persist.counterProbeMax << "\n"
       << "persistence.crash_at_write = " << cfg.persist.crashAtWrite
       << "\n"
       << "persistence.crash_phase = "
       << crashPhaseName(cfg.persist.crashPhase) << "\n"
       << "trace.format = " << traceFormatName(cfg.trace.format) << "\n"
       << "trace.line_payload = "
       << (cfg.trace.linePayload ? "true" : "false") << "\n"
       << "trace.read_ahead = " << cfg.trace.readAhead << "\n"
       << "pipeline.epoch_records = " << cfg.pipeline.epochRecords
       << "\n"
       << "pipeline.queue_epochs = " << cfg.pipeline.queueEpochs << "\n"
       << "pipeline.sample_epochs = " << cfg.pipeline.sampleEpochs
       << "\n"
       << "core.clock_ghz = " << cfg.core.clockGhz << "\n"
       << "core.base_cpi = " << cfg.core.baseCpi << "\n"
       << "seed = " << cfg.seed << "\n";
    return os.str();
}

} // namespace esd
