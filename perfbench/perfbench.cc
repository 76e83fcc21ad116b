/**
 * @file
 * Benchmark program: host speed of the simulator on three fixed
 * workloads, plus the simulated results those runs must reproduce.
 *
 *   esd_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--records N --warmup N] [--expect-digest HEX]
 *                 [--tmpdir DIR] [--git-sha SHA]
 *
 * run.py builds this binary and is the command to use. One run repeats
 * an identical repetition (fresh simulator, warm-up, measured window)
 * until --seconds have passed and reports medians. Every repetition of
 * a seed must produce the same simulated-stats digest; the last stdout
 * line is the result object {correct, attempted, failed, metrics}.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced and traced repetitions and reports per-layer metrics, timed
 * around calls into each layer's public API from this file only.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/stat_registry.hh"
#include "core/run_report.hh"
#include "core/simulator.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/sha1.hh"
#include "ecc/ecc_engine.hh"
#include "exec/pipeline.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

// ---------------------------------------------------------------------
// Workloads. Why each exists is in README.md beside this file.

struct Workload
{
    const char *name;
    SchemeKind kind;
    const char *app;
    unsigned channels;
    unsigned workers;   ///< 0 = serial Simulator, else ShardedPipeline
    bool persistAdr;
    bool gzipReplay;    ///< replay a gzip text capture of the app
    std::uint64_t warmup;
    std::uint64_t records;  ///< measured window
};

/** Records per pull: the batch Simulator::run and the pipeline demux
 * ask a TraceSource for. */
constexpr std::uint64_t kPullRecords = 1024;

// Warm-up and window are multiples of kPullRecords, so the warm-up
// ends exactly on a pull.
const Workload kWorkloads[] = {
    {"esd_lbm", SchemeKind::Esd, "lbm", 1, 0, false, false,
     200 * kPullRecords, 800 * kPullRecords},
    {"sha1_namd_gz", SchemeKind::DedupSha1, "namd", 1, 0, true, true,
     64 * kPullRecords, 640 * kPullRecords},
    {"esd_mcf_sharded", SchemeKind::Esd, "mcf", 8, 3, false, false,
     128 * kPullRecords, 1536 * kPullRecords},
};

constexpr std::uint64_t kDefaultSeed = 1;

/** The canary: kCanaryRecords measured after kCanaryWarmup, at
 * kDefaultSeed. */
constexpr std::uint64_t kCanaryWarmup = 2 * kPullRecords;
constexpr std::uint64_t kCanaryRecords = 30 * kPullRecords;

/** Simulated-stats digest of each workload's canary. A change to the
 * simulated model changes these; such a change must re-record them and
 * say why. */
const std::map<std::string, std::string> kCanaryDigests = {
    {"esd_lbm", "9aa0d65ab8c6356c"},
    {"sha1_namd_gz", "e185b864956b5b79"},
    {"esd_mcf_sharded", "6207b13826223b8c"},
};

SimConfig
makeConfig(const Workload &w, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.seed = seed;
    cfg.channels.count = w.channels;
    if (w.persistAdr) {
        cfg.persist.enabled = true;
        cfg.persist.domain = PersistDomain::Adr;
    }
    return cfg;
}

// ---------------------------------------------------------------------
// Trace decorator: the only probe on the untraced path. One clock read
// pair per pulled batch of kPullRecords, so it costs nothing measurable.

class PullClock : public TraceSource
{
  public:
    PullClock(TraceSource &inner, std::uint64_t warmup,
              std::size_t sample_cap)
        : inner_(inner), warmup_(warmup), sampleCap_(sample_cap)
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        return nextBatch(&rec, 1) == 1;
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t max) override
    {
        auto t0 = Clock::now();
        if (pulled_ >= warmup_) {
            if (!warm_)
                warmEnd_ = t0;
            else
                chunkNs_.push_back(nsBetween(chunkStart_, t0));
            warm_ = true;
            chunkStart_ = t0;
        }
        std::size_t n = inner_.nextBatch(out, max);
        auto t1 = Clock::now();
        pullNs_ += nsBetween(t0, t1);
        if (pulled_ >= warmup_)
            measuredPullNs_ += nsBetween(t0, t1);
        for (std::size_t i = 0; i < n; ++i) {
            bool measured = pulled_ + i >= warmup_;
            if (measured && out[i].op == OpType::Write &&
                samples_.size() < sampleCap_ && (++writes_ % 61) == 0)
                samples_.push_back(out[i]);
        }
        pulled_ += n;
        return n;
    }

    std::uint64_t pulled() const { return pulled_; }
    bool warm() const { return warm_; }
    Clock::time_point warmEnd() const { return warmEnd_; }
    const std::vector<std::uint64_t> &chunkNs() const { return chunkNs_; }
    std::uint64_t pullNs() const { return pullNs_; }
    std::uint64_t measuredPullNs() const { return measuredPullNs_; }

    /** Every 61st measured write, up to the cap: the lines the ecc and
     * crypto replays run over. */
    const std::vector<TraceRecord> &samples() const { return samples_; }

  private:
    TraceSource &inner_;
    std::uint64_t warmup_;
    std::size_t sampleCap_;
    std::uint64_t pulled_ = 0;
    bool warm_ = false;
    Clock::time_point warmEnd_{};
    Clock::time_point chunkStart_{};
    std::vector<std::uint64_t> chunkNs_;
    std::uint64_t pullNs_ = 0;
    std::uint64_t measuredPullNs_ = 0;
    std::uint64_t writes_ = 0;
    std::vector<TraceRecord> samples_;
};

// ---------------------------------------------------------------------
// Simulated-stats digest and correctness invariants.

std::string
fnv64Hex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Digest of the full stats report (config, RunResult fields, every
 * registry entry with histogram buckets). Host time is never part of
 * the report, so the digest is machine independent. */
std::string
digestOf(const Simulator &sim, const RunResult &r)
{
    std::ostringstream os;
    writeStatsReport(os, sim.config(), r, sim.statRegistry(), nullptr, 0,
                     true);
    return fnv64Hex(os.str());
}

std::string
digestOf(const exec::ShardedPipeline &p)
{
    std::ostringstream os;
    p.writeReport(os, 0, true);
    return fnv64Hex(os.str());
}

double
stat(const StatRegistry &reg, const std::string &name)
{
    return reg.find(name) ? reg.scalar(name) : 0.0;
}

void
checkRegistry(const StatRegistry &reg, const std::string &where,
              std::vector<std::string> &failures)
{
    double offered = stat(reg, "pcm.writes_offered");
    double done = stat(reg, "pcm.writes") + stat(reg, "pcm.writes_coalesced");
    if (offered != done)
        failures.push_back(where + ": pcm.writes_offered != pcm.writes + "
                                   "pcm.writes_coalesced");
    if (stat(reg, "scheme.sdc_events") != 0)
        failures.push_back(where + ": scheme.sdc_events != 0");
}

// ---------------------------------------------------------------------
// One repetition.

struct Rep
{
    std::uint64_t recordsRequested = 0;
    double setupS = 0;
    double measuredS = 0;
    double recordsPerS = 0;
    std::string digest;
    std::vector<std::string> failures;
    std::vector<std::uint64_t> chunkNs;

    RunResult result;
    /** Sums of every scalar stat over the run's registries (one per
     * shard for the pipeline). */
    std::map<std::string, double> sums;

    // Traced-run extras.
    std::uint64_t pullNs = 0;
    std::uint64_t measuredPullNs = 0;
    double runWallS = 0;
    std::vector<std::uint32_t> writeStepNs;
    std::vector<std::uint32_t> readStepNs;
    std::vector<TraceRecord> samples;
    double shardImbalance = 0;  ///< pipeline only
};

void
sumRegistry(const StatRegistry &reg, std::map<std::string, double> &out)
{
    const auto names = reg.scalarNames();
    const auto values = reg.scalarValues();
    for (std::size_t i = 0; i < names.size(); ++i)
        out[names[i]] += values[i];
}

class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed, std::uint64_t warmup,
          std::uint64_t records, std::string trace_path)
        : w_(w), seed_(seed), warmup_(warmup), records_(records),
          cfg_(makeConfig(w, seed)), tracePath_(std::move(trace_path))
    {
    }

    std::uint64_t recordsPerRep() const { return warmup_ + records_; }

    /** Write the gzip text capture that sha1_namd_gz replays. */
    void
    generateCapture() const
    {
        TraceConfig tc;
        tc.format = TraceFormat::Gzip;
        tc.linePayload = true;
        SyntheticWorkload gen(findApp(w_.app), seed_);
        TraceCaptureWriter writer(tracePath_, tc);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < recordsPerRep(); ++i) {
            if (!gen.next(rec))
                esd_fatal("workload generator ran dry");
            writer.write(rec);
        }
        writer.close();
    }

    /** One repetition; @p traced adds step timing and line sampling,
     * @p workers overrides the pipeline worker count. */
    Rep
    run(bool traced, unsigned workers = 0) const
    {
        Rep rep;
        rep.recordsRequested = recordsPerRep();
        auto t0 = Clock::now();
        std::unique_ptr<TraceSource> src = openSource();
        PullClock clock(*src, warmup_, traced ? 8192 : 0);
        Clock::time_point t1;
        if (w_.workers == 0) {
            Simulator sim(cfg_, w_.kind);
            rep.result = traced ? stepLoop(sim, clock, rep)
                                : sim.run(clock, recordsPerRep(), warmup_);
            t1 = Clock::now();
            rep.digest = digestOf(sim, rep.result);
            checkRegistry(sim.statRegistry(), "sim", rep.failures);
            sumRegistry(sim.statRegistry(), rep.sums);
        } else {
            exec::ShardedPipeline p(cfg_, w_.kind,
                                    workers ? workers : w_.workers);
            auto r0 = Clock::now();
            rep.result = p.run(clock, recordsPerRep(), warmup_);
            t1 = Clock::now();
            rep.runWallS = secondsBetween(r0, t1);
            rep.digest = digestOf(p);
            std::uint64_t shard_writes = 0, max_records = 0, all = 0;
            for (unsigned s = 0; s < p.shardCount(); ++s) {
                const RunResult &sr = p.shardResult(s);
                shard_writes += sr.logicalWrites;
                max_records = std::max(max_records, sr.records);
                all += sr.records;
                checkRegistry(p.shard(s).statRegistry(),
                              "shard " + std::to_string(s), rep.failures);
                sumRegistry(p.shard(s).statRegistry(), rep.sums);
            }
            if (shard_writes != rep.result.logicalWrites)
                rep.failures.push_back(
                    "merged logical writes != sum of shard logical writes");
            if (all > 0)
                rep.shardImbalance = static_cast<double>(max_records) *
                                     p.shardCount() / all;
        }
        if (clock.pulled() != recordsPerRep() ||
            rep.result.records != records_)
            rep.failures.push_back(
                "records consumed != records requested (pulled " +
                std::to_string(clock.pulled()) + ", measured " +
                std::to_string(rep.result.records) + ")");
        if (!clock.warm())
            rep.failures.push_back("measured window never started");

        rep.setupS = secondsBetween(t0, clock.warmEnd());
        rep.measuredS = secondsBetween(clock.warmEnd(), t1);
        rep.recordsPerS = records_ / rep.measuredS;
        rep.chunkNs = clock.chunkNs();
        rep.pullNs = clock.pullNs();
        rep.measuredPullNs = clock.measuredPullNs();
        rep.samples = clock.samples();
        return rep;
    }

  private:
    std::unique_ptr<TraceSource>
    openSource() const
    {
        if (w_.gzipReplay)
            return std::make_unique<TraceFrontend>(tracePath_, cfg_.trace);
        return std::make_unique<SyntheticWorkload>(findApp(w_.app), seed_);
    }

    /** Simulator::run's loop, driven here so each stepRecord can be
     * timed. One clock read per record: a step's time runs from the
     * previous step's end, so it includes this loop's own overhead. */
    RunResult
    stepLoop(Simulator &sim, TraceSource &src, Rep &rep) const
    {
        std::vector<TraceRecord> chunk(kPullRecords);
        rep.writeStepNs.reserve(records_);
        rep.readStepNs.reserve(records_);
        sim.beginRun();
        std::uint64_t processed = 0;
        const std::uint64_t total = recordsPerRep();
        while (processed < total) {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(kPullRecords, total - processed));
            std::size_t got = src.nextBatch(chunk.data(), want);
            if (got == 0)
                break;
            auto prev = Clock::now();
            for (std::size_t i = 0; i < got; ++i, ++processed) {
                bool measured = processed >= warmup_;
                sim.stepRecord(chunk[i], measured);
                if (!measured)
                    continue;
                auto now = Clock::now();
                auto ns = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(nsBetween(prev, now),
                                            UINT32_MAX));
                (chunk[i].op == OpType::Write ? rep.writeStepNs
                                              : rep.readStepNs)
                    .push_back(ns);
                prev = now;
            }
        }
        return sim.endRun();
    }

    const Workload &w_;
    std::uint64_t seed_;
    std::uint64_t warmup_;
    std::uint64_t records_;
    SimConfig cfg_;
    std::string tracePath_;
};

// ---------------------------------------------------------------------
// Statistics helpers.

template <typename T>
double
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return static_cast<double>(v[k]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Written once per replay so the compiler keeps the replayed calls. */
volatile std::uint64_t gReplaySink = 0;

/** Median over passes of the per-line time of @p fn over @p lines. */
template <typename Fn>
double
perLineNs(const std::vector<TraceRecord> &lines, Fn fn)
{
    if (lines.empty())
        return 0;
    std::vector<double> passes;
    for (int pass = 0; pass < 7; ++pass) {
        auto t0 = Clock::now();
        for (const TraceRecord &r : lines)
            fn(r);
        passes.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                         lines.size());
    }
    return median(passes);
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto pos = line.find(':');
            if (pos != std::string::npos && pos + 2 <= line.size())
                return line.substr(pos + 2);
        }
    }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printProvenance(const std::string &workload, std::uint64_t seed,
                const std::string &git_sha)
{
    std::ostringstream os;
    JsonWriter j(os, 0);
    j.beginObject();
    j.key("workload");
    j.value(workload);
    j.key("seed");
    j.value(seed);
    j.key("nproc");
    j.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    j.key("cpu_model");
    j.value(cpuModel());
    j.key("compiler");
    j.value(compilerName());
    j.key("build_type");
    j.value(PERFBENCH_BUILD_TYPE);
    j.key("git_sha");
    j.value(git_sha);
    j.endObject();
    std::cout << "# provenance " << os.str() << "\n";
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    JsonWriter j(os, 0);
    j.beginObject();
    j.key("correct");
    j.value(correct);
    j.key("attempted");
    j.value(attempted);
    j.key("failed");
    j.value(failed);
    j.key("metrics");
    j.beginObject();
    for (const Metric &m : metrics) {
        j.key(m.name);
        j.beginObject();
        j.key("value");
        j.value(m.value);
        j.key("unit");
        j.value(m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << os.str() << std::endl;
}

std::vector<Metric>
simulatedMetrics(const RunResult &r)
{
    return {
        {"sim_write_reduction", r.writeReduction(), "ratio"},
        {"sim_write_lat_p99_ns", r.writeLatency.percentile(99), "ns"},
        {"sim_read_lat_p99_ns", r.readLatency.percentile(99), "ns"},
        {"sim_ipc", r.ipc, "ratio"},
        {"sim_nvm_writes_per_write",
         ratio(static_cast<double>(r.nvmWritesTotal), r.logicalWrites),
         "1/write"},
        {"sim_energy_nj_per_write",
         ratio(r.energy.total() / 1000.0, r.logicalWrites), "nJ"},
    };
}

/** Per-layer metrics of one traced repetition. A layer the workload
 * does not run (no journal, no EFIT, no pipeline) reports 0. */
std::vector<Metric>
layerMetrics(const Rep &t, double records)
{
    const auto &s = t.sums;
    auto get = [&](const std::string &k) {
        auto it = s.find(k);
        return it == s.end() ? 0.0 : it->second;
    };
    double writes = get("scheme.logical_writes");
    double pcm_accesses = get("pcm.reads") + get("pcm.writes");
    auto endsWith = [](const std::string &k, const std::string &suffix) {
        return k.size() > suffix.size() &&
               k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    // Every shard models the whole device, so the distinct bank names
    // are the device's banks.
    double queue_wait = 0, bank_busy = 0, banks = 0;
    for (const auto &[k, v] : s) {
        if (k.rfind("pcm.ch", 0) == 0 && endsWith(k, ".queue_wait_ns"))
            queue_wait += v;
        if (k.rfind("pcm.bank", 0) == 0 && endsWith(k, ".busy_ns")) {
            bank_busy += v;
            ++banks;
        }
    }

    const EccEngine &ecc = eccEngine(EccEngineKind::Hamming);
    std::vector<LineEcc> codes(t.samples.size());
    std::size_t idx = 0;
    double enc_ns = perLineNs(t.samples, [&](const TraceRecord &r) {
        codes[idx++ % codes.size()] = ecc.encodeLine(r.data);
    });
    idx = 0;
    unsigned bad = 0;
    double dec_ns = perLineNs(t.samples, [&](const TraceRecord &r) {
        bad += ecc.decodeLine(r.data, codes[idx++ % codes.size()]).status !=
               EccStatus::Ok;
    });
    if (bad != 0)
        esd_fatal("ecc replay: clean lines failed to decode");
    AesKey key{};
    for (unsigned i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0x5a ^ i);
    CtrModeEngine ctr(key);
    std::uint64_t sink = 0;
    double ctr_ns = perLineNs(t.samples, [&](const TraceRecord &r) {
        sink ^= ctr.encrypt(r.addr, r.data)[0];
    });
    double sha_ns = perLineNs(t.samples, [&](const TraceRecord &r) {
        sink ^= Sha1::fingerprint64(r.data);
    });
    gReplaySink = sink;

    double measured_ns = t.measuredS * 1e9;
    return {
        {"trace.pull_ns_per_record",
         ratio(static_cast<double>(t.measuredPullNs), records), "ns"},
        {"trace.pull_share",
         ratio(static_cast<double>(t.measuredPullNs), measured_ns), "ratio"},
        {"core.write_step_ns_p50", quantile(t.writeStepNs, 0.50), "ns"},
        {"core.write_step_ns_p99", quantile(t.writeStepNs, 0.99), "ns"},
        {"core.read_step_ns_p50", quantile(t.readStepNs, 0.50), "ns"},
        {"core.read_step_ns_p99", quantile(t.readStepNs, 0.99), "ns"},
        {"ecc.encode_line_ns", enc_ns, "ns"},
        {"ecc.decode_line_ns", dec_ns, "ns"},
        {"crypto.ctr_encrypt_ns", ctr_ns, "ns"},
        {"crypto.sha1_ns", sha_ns, "ns"},
        {"dedup.efit_hit_rate",
         ratio(get("esd.efit.hits"), get("esd.efit.lookups")), "ratio"},
        {"dedup.efit_evictions_per_write",
         ratio(get("esd.efit.evictions"), writes), "1/write"},
        {"dedup.compare_reads_per_write",
         ratio(get("scheme.compare_reads"), writes), "1/write"},
        // Every dedup hit of a comparing scheme follows a compare read.
        {"dedup.compare_useful_ratio",
         get("scheme.compare_reads") > 0
             ? ratio(get("scheme.dedup_hits"), get("scheme.compare_reads"))
             : 0.0,
         "ratio"},
        {"dedup.amt_hit_rate",
         ratio(get("cache.amt.cache_hits"), get("cache.amt.lookups")),
         "ratio"},
        {"dedup.fp_nvm_lookups_per_write",
         ratio(get("scheme.fp_nvm_lookups"), writes), "1/write"},
        {"nvm.queue_wait_ns_per_access", ratio(queue_wait, pcm_accesses),
         "ns"},
        {"nvm.busy_frac", ratio(bank_busy, banks * t.result.runtimeNs),
         "ratio"},
        {"nvm.wpq_stalls_per_kwrite",
         ratio(1000.0 * get("pcm.write_queue_stalls"),
               get("pcm.writes_offered")),
         "1/kwrite"},
        {"nvm.coalesced_frac",
         ratio(get("pcm.writes_coalesced"), get("pcm.writes_offered")),
         "ratio"},
        {"persist.records_per_write",
         ratio(get("persist.journal_records"), writes), "1/write"},
        {"persist.commits_per_kwrite",
         ratio(1000.0 * get("persist.epoch_commits"), writes), "1/kwrite"},
        {"persist.barrier_ns_per_write",
         ratio(get("persist.barrier_ns"), writes), "ns"},
        {"exec.shard_imbalance", t.shardImbalance, "ratio"},
        {"exec.demux_pull_share",
         ratio(static_cast<double>(t.pullNs), t.runWallS * 1e9), "ratio"},
    };
}

// ---------------------------------------------------------------------
// Arguments.

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    std::uint64_t trace = 0;
    std::uint64_t records = 0;  ///< 0 = workload default
    std::uint64_t warmup = 0;   ///< 0 = workload default
    std::string expectDigest;
    std::string tmpdir = ".";
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "esd_perfbench: " << why << "\n"
              << "usage: esd_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--records N --warmup N] "
                 "[--expect-digest HEX] [--tmpdir DIR] [--git-sha SHA]\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || errno != 0 || *end != '\0')
        usage(flag + ": not a non-negative integer: " + v);
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        std::string v = argv[i + 1];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseU64(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseU64(flag, v));
        else if (flag == "--trace")
            a.trace = parseU64(flag, v);
        else if (flag == "--records")
            a.records = parseU64(flag, v);
        else if (flag == "--warmup")
            a.warmup = parseU64(flag, v);
        else if (flag == "--expect-digest")
            a.expectDigest = v;
        else if (flag == "--tmpdir")
            a.tmpdir = v;
        else if (flag == "--git-sha")
            a.gitSha = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (a.seconds < 1 || a.seconds > 600)
        usage("--seconds out of range [1, 600]");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wl = &w;
    if (!wl)
        usage("unknown workload '" + args.workload + "'");

    const std::uint64_t records = args.records ? args.records : wl->records;
    const std::uint64_t warmup = args.warmup ? args.warmup : wl->warmup;
    // Whole pulls, so the warm-up ends exactly on a pull.
    if (records % kPullRecords != 0 || warmup % kPullRecords != 0)
        usage("--records and --warmup must be multiples of " +
              std::to_string(kPullRecords));

    printProvenance(wl->name, args.seed, args.gitSha);

    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    auto check = [&](const Rep &rep, const std::string &what,
                     std::string &expect) {
        attempted += rep.recordsRequested;
        for (const std::string &f : rep.failures)
            failures.push_back(what + ": " + f);
        if (expect.empty())
            expect = rep.digest;
        if (rep.digest != expect)
            failures.push_back(what + ": digest " + rep.digest +
                               " != expected " + expect);
    };

    // Canary: a short run at the default seed whose digest is recorded,
    // so any change to the simulated model fails every run, whatever
    // --seed is.
    {
        Bench canary(*wl, kDefaultSeed, kCanaryWarmup, kCanaryRecords,
                     args.tmpdir + "/canary.trace.gz");
        if (wl->gzipReplay)
            canary.generateCapture();
        std::string expect = args.expectDigest.empty()
                                 ? kCanaryDigests.at(wl->name)
                                 : args.expectDigest;
        Rep rep = canary.run(false);
        std::cout << "# canary digest " << rep.digest << "\n";
        check(rep, "canary", expect);
    }

    Bench bench(*wl, args.seed, warmup, records,
                args.tmpdir + "/" + wl->name + ".trace.gz");
    if (wl->gzipReplay) {
        auto g0 = Clock::now();
        bench.generateCapture();
        std::cout << "# generated gzip capture in "
                  << secondsBetween(g0, Clock::now()) << " s\n";
    }
    // Every repetition of the seed must match the first one.
    std::string expect;

    const auto start = Clock::now();
    auto elapsed = [&] { return secondsBetween(start, Clock::now()); };
    std::vector<Metric> metrics;

    if (args.trace == 0) {
        std::vector<double> rps, setup;
        std::vector<std::uint64_t> chunks;
        Rep last;
        while (rps.size() < 3 || elapsed() < args.seconds) {
            Rep rep = bench.run(false);
            check(rep, "rep", expect);
            rps.push_back(rep.recordsPerS);
            setup.push_back(rep.setupS);
            chunks.insert(chunks.end(), rep.chunkNs.begin(),
                          rep.chunkNs.end());
            last = std::move(rep);
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        std::cout << "# records/s per rep:";
        for (double v : rps)
            std::cout << ' ' << static_cast<std::uint64_t>(v);
        std::cout << "\n# setup s per rep:";
        for (double v : setup)
            std::cout << ' ' << v;
        std::cout << "\n# reps " << rps.size() << ", chunk samples "
                  << chunks.size() << " (" << kPullRecords
                  << " records each), digest " << last.digest << "\n";
        metrics = {
            {"records_per_s", median(rps), "1/s"},
            {"chunk_ms_p50", quantile(chunks, 0.50) / 1e6, "ms"},
            {"chunk_ms_p95", quantile(chunks, 0.95) / 1e6, "ms"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
        };
        for (const Metric &m : simulatedMetrics(last.result))
            metrics.push_back(m);
    } else {
        // Alternate untraced and traced repetitions so both see the
        // same host conditions; the sharded workload also runs one
        // worker on the same input for the speed-up.
        std::vector<double> untraced, traced, single;
        std::vector<std::vector<Metric>> layers;
        std::string digest;
        while (traced.size() < 2 || elapsed() < args.seconds) {
            Rep u = bench.run(false);
            check(u, "untraced", expect);
            untraced.push_back(u.recordsPerS);
            Rep t = bench.run(true);
            check(t, "traced", expect);
            traced.push_back(t.recordsPerS);
            if (wl->workers > 0) {
                Rep one = bench.run(false, 1);
                check(one, "workers=1", expect);
                single.push_back(one.recordsPerS);
            }
            layers.push_back(layerMetrics(t, static_cast<double>(records)));
            digest = t.digest;
        }
        std::cout << "# pairs " << traced.size() << ", digest " << digest
                  << "\n"
                  << "# dedup lookup and device model run inside "
                     "DedupScheme::write; their host time cannot be "
                     "separated from outside the program and is left "
                     "to an in-program profile.\n";
        // Each layer metric is its median over the traced repetitions.
        metrics = layers.front();
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::vector<double> v;
            for (const auto &l : layers)
                v.push_back(l[i].value);
            metrics[i].value = median(v);
        }
        double w_rps = median(untraced);
        metrics.push_back({"exec.speedup_vs_w1",
                           single.empty() ? 0.0 : w_rps / median(single),
                           "x"});
        metrics.push_back(
            {"trace_overhead", 1.0 - median(traced) / w_rps, "ratio"});
    }

    const bool correct = failures.empty();
    for (const std::string &f : failures)
        std::cout << "# FAIL " << f << "\n";
    printResult(correct, attempted, correct ? 0 : attempted, metrics);
    return correct ? 0 : 1;
}
