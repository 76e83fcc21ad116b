#include "exec/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/run_report.hh"
#include "dedup/dewrite.hh"
#include "dedup/dedup_sha1.hh"
#include "dedup/esd.hh"
#include "dedup/mapped_scheme.hh"
#include "persist/recovery.hh"

namespace esd::exec
{

// ----------------------------------------------------------------------
// Plumbing types.

/** One demultiplexed trace record. */
struct ShardedPipeline::Item
{
    TraceRecord rec;

    /** Inside the measurement window (global warmup already applied). */
    bool measured = false;

    /** Arm the shard's crash injection immediately before this write —
     * the global write index the user configured lands here. */
    bool armCrash = false;
};

/** One epoch's worth of one shard's records (possibly empty — every
 * shard receives exactly one batch per epoch, so batch arrival is the
 * epoch clock). */
struct ShardedPipeline::Batch
{
    bool final = false;
    std::vector<Item> items;
};

/** Bounded SPSC-in-spirit batch queue (the demux produces, the owning
 * worker consumes; a mutex keeps it simple and TSan-provable). */
struct ShardedPipeline::ShardQueue
{
    explicit ShardQueue(std::size_t cap) : cap_(cap < 1 ? 1 : cap) {}

    void
    push(Batch b)
    {
        std::unique_lock<std::mutex> lk(m_);
        notFull_.wait(lk, [&] { return q_.size() < cap_; });
        q_.push_back(std::move(b));
        notEmpty_.notify_one();
    }

    Batch
    pop()
    {
        std::unique_lock<std::mutex> lk(m_);
        notEmpty_.wait(lk, [&] { return !q_.empty(); });
        Batch b = std::move(q_.front());
        q_.pop_front();
        notFull_.notify_one();
        return b;
    }

  private:
    std::mutex m_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<Batch> q_;
    std::size_t cap_;
};

/** Generation-counting barrier; the last arriver runs the epoch action
 * while every other worker is parked, so the action reads and mutates
 * shard state with all shards quiesced (and with happens-before edges
 * through the barrier mutex in both directions). */
struct ShardedPipeline::Barrier
{
    explicit Barrier(unsigned n) : total_(n) {}

    void
    arriveAndWait(const std::function<void()> &action)
    {
        std::unique_lock<std::mutex> lk(m_);
        std::uint64_t gen = generation_;
        if (++arrived_ == total_) {
            action();
            arrived_ = 0;
            ++generation_;
            cv_.notify_all();
        } else {
            cv_.wait(lk, [&] { return generation_ != gen; });
        }
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    unsigned total_;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
};

// ----------------------------------------------------------------------
// Construction.

ShardedPipeline::ShardedPipeline(const SimConfig &cfg, SchemeKind kind,
                                 unsigned workers)
    : cfg_(cfg),
      kind_(kind),
      shardCount_(cfg.channels.count < 1 ? 1 : cfg.channels.count)
{
    workers_ = workers < 1 ? 1 : workers;
    if (workers_ > shardCount_)
        workers_ = shardCount_;

    const char *jit = std::getenv("ESD_TEST_JITTER");
    jitter_ = jit != nullptr && jit[0] != '\0' &&
              !(jit[0] == '0' && jit[1] == '\0');

    // Shard configs are the user config verbatim — same geometry, same
    // seed (the AES keys and fingerprint spaces must match a serial
    // run), full-size caches (set-associative metadata caches index
    // sets by channel, so a shard only ever touches its own channel's
    // sets and behaves exactly like its slice of the global cache).
    // Only crash injection is stripped: the crash index is *global*
    // write order, which the demux counts — it arms the owning shard
    // at the chosen write instead.
    SimConfig shard_cfg = cfg_;
    shard_cfg.persist.crashAtWrite = 0;
    shards_.reserve(shardCount_);
    queues_.reserve(shardCount_);
    for (unsigned s = 0; s < shardCount_; ++s) {
        shards_.push_back(std::make_unique<Simulator>(shard_cfg, kind_));
        queues_.push_back(std::make_unique<ShardQueue>(
            static_cast<std::size_t>(cfg_.pipeline.queueEpochs)));
    }
    barrier_ = std::make_unique<Barrier>(workers_);
}

ShardedPipeline::~ShardedPipeline() = default;

// ----------------------------------------------------------------------
// Execution.

void
ShardedPipeline::flushEpoch(std::vector<std::vector<Item>> &pending,
                            bool final)
{
    // Every shard gets a batch every epoch, empty or not: batch
    // arrival is how workers count epochs toward the barrier.
    for (unsigned s = 0; s < shardCount_; ++s) {
        Batch b;
        b.final = final;
        b.items = std::move(pending[s]);
        pending[s].clear();
        queues_[s]->push(std::move(b));
    }
}

void
ShardedPipeline::workerLoop(unsigned w)
{
    // Barrier-jitter stress (ESD_TEST_JITTER=1): randomize the arrival
    // order at every barrier so scheduling-dependent merges, were any
    // to exist, would show up as byte diffs and TSan reports.
    Pcg32 jrng(cfg_.seed + 0x6a17 + w, w);

    std::uint64_t epoch = 0;
    bool done = false;
    while (!done) {
        for (unsigned s = w; s < shardCount_; s += workers_) {
            Batch b = queues_[s]->pop();
            Simulator &sim = *shards_[s];
            for (const Item &it : b.items) {
                if (it.armCrash && sim.persistence() != nullptr)
                    sim.persistence()->armCrashOnNextWrite();
                sim.stepRecord(it.rec, it.measured);
            }
            if (b.final)
                done = true;
        }
        if (jitter_)
            std::this_thread::sleep_for(
                std::chrono::microseconds(jrng.next() % 500));
        barrier_->arriveAndWait([this, epoch] {
            applyBarrierEffects(epoch);
        });
        ++epoch;
    }
}

void
ShardedPipeline::applyBarrierEffects(std::uint64_t epoch)
{
    // All shards are quiescent here (their workers are parked in the
    // barrier); reads and mutations below need no further locking, in
    // canonical shard order throughout.

    // Global dedup-suspension latch: the RAS policy counts
    // uncorrectable errors *system wide*, so the threshold compares
    // against the cross-shard sum and, once crossed, suspends
    // deduplication on every shard.
    if (cfg_.ras.enabled && cfg_.ras.dedupSuspendUes > 0 &&
        !globalSuspend_) {
        std::uint64_t ues = 0;
        for (unsigned s = 0; s < shardCount_; ++s)
            ues += shards_[s]->scheme().ras().stats().ueEvents.value();
        if (ues >= cfg_.ras.dedupSuspendUes) {
            globalSuspend_ = true;
            suspendEpoch_ = epoch;
            for (unsigned s = 0; s < shardCount_; ++s)
                shards_[s]->scheme().ras().forceSuspendDedup();
        }
    }

    const std::uint64_t every = cfg_.pipeline.sampleEpochs;
    bool all_measuring = true;
    for (unsigned s = 0; s < shardCount_; ++s)
        all_measuring = all_measuring && shards_[s]->measuring();
    // Rows only once every shard has reset into its measurement
    // window: a barrier inside (or straddling) the warmup would mix
    // warmup counters from not-yet-reset shards into the row, breaking
    // both monotonicity and the rows' meaning. The skip is a pure
    // function of the demux, so it is identical at any worker count.
    if (every > 0 && all_measuring && (epoch + 1) % every == 0) {
        IntervalRow row;
        row.epoch = epoch + 1;
        for (unsigned s = 0; s < shardCount_; ++s) {
            const SchemeStats &ss = shards_[s]->scheme().stats();
            row.logicalWrites += ss.logicalWrites.value();
            row.dedupHits += ss.dedupHits.value();
            row.nvmWritesTotal +=
                shards_[s]->device().stats().writes.value();
            row.nvmReadsTotal +=
                shards_[s]->device().stats().reads.value();
        }
        intervalRows_.push_back(row);
    }

    epochsRun_ = epoch + 1;
}

const RunResult &
ShardedPipeline::run(TraceSource &trace, std::uint64_t records,
                     std::uint64_t warmup)
{
    if (ran_)
        esd_fatal("ShardedPipeline::run may only be called once");
    ran_ = true;

    auto t0 = std::chrono::steady_clock::now();

    for (unsigned s = 0; s < shardCount_; ++s)
        shards_[s]->beginRun();

    std::vector<std::thread> threads;
    threads.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w)
        threads.emplace_back(&ShardedPipeline::workerLoop, this, w);

    // Demux: the reader thread is the only consumer of the trace, so
    // record order — and with it every shard's input stream, the
    // global warmup boundary, and the global crash index — is
    // identical at any worker count. Records are pulled in batches
    // (TraceSource::nextBatch) so streaming sources pay one virtual
    // call per buffer, not per record; the consumed sequence is the
    // same either way.
    const std::uint64_t crash_at =
        cfg_.persist.enabled ? cfg_.persist.crashAtWrite : 0;
    const std::uint64_t epoch_records = cfg_.pipeline.epochRecords;
    std::vector<std::vector<Item>> pending(shardCount_);
    constexpr std::size_t kDemuxChunk = 1024;
    std::vector<TraceRecord> chunk(kDemuxChunk);
    std::uint64_t processed = 0;
    std::uint64_t writes_seen = 0;
    std::uint64_t in_epoch = 0;
    while (records == 0 || processed < records) {
        std::size_t want = kDemuxChunk;
        if (records != 0 && records - processed < want)
            want = static_cast<std::size_t>(records - processed);
        std::size_t got = trace.nextBatch(chunk.data(), want);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            const TraceRecord &rec = chunk[i];
            Item it;
            it.rec = rec;
            it.measured = processed >= warmup;
            if (rec.op == OpType::Write) {
                ++writes_seen;
                it.armCrash = crash_at != 0 && writes_seen == crash_at;
            }
            pending[lineIndex(rec.addr) % shardCount_].push_back(
                std::move(it));
            ++processed;
            if (++in_epoch == epoch_records) {
                flushEpoch(pending, /*final=*/false);
                in_epoch = 0;
            }
        }
    }
    flushEpoch(pending, /*final=*/true);

    for (auto &t : threads)
        t.join();

    if (warmup > 0 && processed <= warmup)
        esd_fatal("trace shorter than the %llu-record warmup",
                  static_cast<unsigned long long>(warmup));

    results_.reserve(shardCount_);
    for (unsigned s = 0; s < shardCount_; ++s)
        results_.push_back(shards_[s]->endRun());

    merged_ = mergeResults();
    merged_.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return merged_;
}

// ----------------------------------------------------------------------
// Merging.

RunResult
ShardedPipeline::mergeResults() const
{
    RunResult m;
    m.schemeName = results_[0].schemeName;

    // Exact accumulations, visiting shards in index order. Integer
    // counters sum; the latency histograms merge bucket-wise (exact);
    // simulated runtime is the slowest shard's clock — the shards
    // advance one interleaved trace, they do not run back to back.
    for (unsigned s = 0; s < shardCount_; ++s) {
        const RunResult &r = results_[s];
        m.records += r.records;
        m.instructions += r.instructions;
        if (r.runtimeNs > m.runtimeNs)
            m.runtimeNs = r.runtimeNs;
        m.readLatency.merge(r.readLatency);
        m.writeLatency.merge(r.writeLatency);
        m.logicalWrites += r.logicalWrites;
        m.logicalReads += r.logicalReads;
        m.dedupHits += r.dedupHits;
        m.nvmDataWrites += r.nvmDataWrites;
        m.nvmReadsTotal += r.nvmReadsTotal;
        m.nvmWritesTotal += r.nvmWritesTotal;
        m.nvmWritesCoalesced += r.nvmWritesCoalesced;
        m.energy.deviceRead += r.energy.deviceRead;
        m.energy.deviceWrite += r.energy.deviceWrite;
        m.energy.hash += r.energy.hash;
        m.energy.crypto += r.energy.crypto;
        m.energy.metadata += r.energy.metadata;
        m.breakdown.add(r.breakdown);
        m.metadataNvmBytes += r.metadataNvmBytes;
        m.uniqueLinesStored += r.uniqueLinesStored;
        m.wear.totalWrites += r.wear.totalWrites;
        m.wear.linesTouched += r.wear.linesTouched;
        m.wear.maxLineWrites =
            std::max(m.wear.maxLineWrites, r.wear.maxLineWrites);
    }

    double cycles = m.runtimeNs * cfg_.core.clockGhz;
    m.ipc = cycles > 0 ? m.instructions / cycles : 0.0;

    // Ratio stats are recomputed from summed numerators and
    // denominators — averaging per-shard ratios would weight shards
    // equally regardless of traffic.
    std::uint64_t fp_cache_hits = 0;
    std::uint64_t fp_nvm_hits = 0;
    std::uint64_t fp_hits = 0;
    std::uint64_t fp_lookups = 0;
    std::uint64_t amt_hits = 0;
    std::uint64_t amt_lookups = 0;
    for (unsigned s = 0; s < shardCount_; ++s) {
        const DedupScheme &sch = shards_[s]->scheme();
        fp_cache_hits += sch.stats().dedupHitsFpCache.value();
        fp_nvm_hits += sch.stats().dedupHitsFpNvm.value();
        if (auto *esd_s = dynamic_cast<const EsdScheme *>(&sch)) {
            fp_hits += esd_s->efit().stats().hits.value();
            fp_lookups += esd_s->efit().stats().lookups.value();
        } else if (auto *s1 =
                       dynamic_cast<const DedupSha1Scheme *>(&sch)) {
            fp_hits += s1->fpTable().stats().cacheHits.value();
            fp_lookups += s1->fpTable().stats().lookups.value();
        } else if (auto *dw = dynamic_cast<const DeWriteScheme *>(&sch)) {
            fp_hits += dw->fpTable().stats().cacheHits.value();
            fp_lookups += dw->fpTable().stats().lookups.value();
        }
        if (auto *mp = dynamic_cast<const MappedDedupScheme *>(&sch)) {
            amt_hits += mp->amt().stats().cacheHits.value();
            amt_lookups += mp->amt().stats().lookups.value();
        }
    }
    if (m.logicalWrites > 0) {
        m.dedupViaFpCacheFrac =
            static_cast<double>(fp_cache_hits) / m.logicalWrites;
        m.dedupViaFpNvmFrac =
            static_cast<double>(fp_nvm_hits) / m.logicalWrites;
    }
    if (fp_lookups > 0)
        m.fpCacheHitRate = static_cast<double>(fp_hits) / fp_lookups;
    if (amt_lookups > 0)
        m.amtCacheHitRate = static_cast<double>(amt_hits) / amt_lookups;

    return m;
}

// ----------------------------------------------------------------------
// Crash self-check.

int
ShardedPipeline::crashedShard() const
{
    for (unsigned s = 0; s < shardCount_; ++s) {
        const PersistenceManager *pm = shards_[s]->persistence();
        if (pm != nullptr && pm->crashed())
            return static_cast<int>(s);
    }
    return -1;
}

std::string
ShardedPipeline::checkInjectedCrash() const
{
    if (!cfg_.persist.enabled || cfg_.persist.crashAtWrite == 0)
        return "";
    int cs = crashedShard();
    if (cs < 0)
        return "run ended before the injected crash point (write " +
               std::to_string(cfg_.persist.crashAtWrite) + ")";
    Simulator &sim = *shards_[static_cast<unsigned>(cs)];
    const PersistenceManager *pm = sim.persistence();
    RecoveredState rec = recoverFromImage(pm->image(), pm->config(),
                                          sim.scheme().crypto(),
                                          sim.scheme().ecc());
    PadSafetyReport audit = auditPadSafety(rec, pm->image());
    if (!rec.summary.ok)
        return "crash recovery failed: " +
               std::to_string(rec.summary.countersUnresolved) +
               " counters unresolved, " +
               std::to_string(rec.summary.mappingsInvalidated) +
               " mappings invalidated";
    if (audit.violations != 0)
        return "pad-safety audit failed: " +
               std::to_string(audit.violations) + " of " +
               std::to_string(audit.countersChecked) +
               " counter floors below the true counter";
    return "";
}

// ----------------------------------------------------------------------
// Reporting.

void
ShardedPipeline::writeReport(std::ostream &os, int indent,
                             bool histogram_buckets) const
{
    JsonWriter w(os, indent);
    w.beginObject();

    w.key("config");
    writeConfigJson(w, cfg_);

    // Execution-shape section: shard count and barrier cadence affect
    // where cross-shard effects land, so they are part of the result's
    // identity. The worker count is not — it must never appear here.
    w.key("pipeline");
    w.beginObject();
    w.kv("shards", static_cast<std::uint64_t>(shardCount_));
    w.kv("epoch_records", cfg_.pipeline.epochRecords);
    w.kv("epochs", epochsRun_);
    w.kv("dedup_suspended", globalSuspend_);
    if (globalSuspend_)
        w.kv("suspend_epoch", suspendEpoch_);
    w.endObject();

    w.key("result");
    writeRunResultJson(w, merged_, histogram_buckets);

    w.key("shards");
    w.beginArray();
    for (unsigned s = 0; s < shardCount_; ++s) {
        w.beginObject();
        w.kv("shard", static_cast<std::uint64_t>(s));
        w.key("result");
        writeRunResultJson(w, results_[s], histogram_buckets);
        w.key("stats");
        shards_[s]->statRegistry().writeJson(w, histogram_buckets);
        w.endObject();
    }
    w.endArray();

    if (!intervalRows_.empty()) {
        w.key("intervals");
        w.beginObject();
        w.kv("every_epochs", cfg_.pipeline.sampleEpochs);
        w.key("rows");
        w.beginArray();
        for (const IntervalRow &row : intervalRows_) {
            w.beginArray();
            w.value(row.epoch);
            w.value(row.logicalWrites);
            w.value(row.dedupHits);
            w.value(row.nvmWritesTotal);
            w.value(row.nvmReadsTotal);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }

    w.endObject();
    os << "\n";
}

} // namespace esd::exec
