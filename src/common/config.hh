/**
 * @file
 * Central configuration for the simulated system.
 *
 * Defaults reproduce Table I of the ESD paper plus the latency/energy
 * constants quoted in the text (Section II-B, III-C, IV-E):
 *   - PCM read/write latency 75 ns / 150 ns, energy 1.49 nJ / 6.75 nJ,
 *   - SHA-1 321 ns, MD5 312 ns per cache line,
 *   - EFIT and AMT metadata caches of 512 KB each,
 *   - 64 B cache lines, 16 GB PCM capacity.
 */

#ifndef ESD_COMMON_CONFIG_HH
#define ESD_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace esd
{

/** Timing and energy parameters of the PCM main memory (Table I). */
struct PcmConfig
{
    /** Total device capacity in bytes (Table I: 16 GB). */
    std::uint64_t capacityBytes = 16ull << 30;

    /** Array read latency per line in nanoseconds. */
    Tick readLatency = 75;

    /** Array write latency per line in nanoseconds (2x read: PCM
     * asymmetry the selective-dedup tradeoff relies on). */
    Tick writeLatency = 150;

    /** Row-buffer geometry: consecutive lines per row (64 lines =
     * 4 KB). 0 disables row-buffer modelling (every access pays the
     * full array latency). */
    std::uint64_t rowBufferLines = 64;

    /** Read latency when the target row is already open. Writes
     * always pay the full PCM array write. */
    Tick rowHitReadLatency = 15;

    /** Per-line read energy in picojoules (1.49 nJ). */
    Energy readEnergy = 1490.0;

    /** Per-line write energy in picojoules (6.75 nJ). */
    Energy writeEnergy = 6750.0;

    /** Bank parallelism: channels x ranks x banks service queues. */
    unsigned channels = 2;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;

    /** Depth of the per-controller write queue before backpressure
     * stalls the core model. */
    unsigned writeQueueDepth = 64;

    /** When true, reads bypass *queued* writes at a bank (they wait
     * for at most the write currently in service). When false the
     * bank services requests strictly in arrival order, so reads
     * queue behind write bursts — the read/write interference the
     * deduplication evaluation exercises. */
    bool readPriority = false;

    /** Enable Start-Gap wear leveling (Qureshi MICRO'09): hot lines
     * rotate across physical slots, bounding per-cell wear at the
     * cost of one internal line copy per gapMovePeriod writes. */
    bool startGapEnabled = false;

    /** Writes between gap movements (original paper: 100). */
    std::uint64_t gapMovePeriod = 100;

    /** Lines per Start-Gap rotation region. */
    std::uint64_t startGapRegionLines = 16384;

    unsigned totalBanks() const { return channels * ranksPerChannel *
                                         banksPerRank; }
};

/**
 * Memory-channel layer on top of the banked PCM device ([channels]
 * section).
 *
 * Each channel owns a full copy of the PcmConfig bank geometry and its
 * own write-pending queue (WPQ); lines interleave across channels with
 * channelOf(addr) = lineIndex(addr) % count. The defaults (one channel,
 * coalescing off, inherited queue depth) make the device bit-identical
 * to the single-channel model that predates this layer.
 */
struct ChannelConfig
{
    /** Number of address-interleaved memory channels. */
    unsigned count = 1;

    /** Per-channel WPQ depth; 0 inherits pcm.write_queue_depth. */
    unsigned wpqDepth = 0;

    /** In-queue write coalescing: a write to a line that already has a
     * pending WPQ entry updates that entry in place instead of issuing
     * a second device write. */
    bool wpqCoalescing = false;
};

/** CPU-side cache hierarchy parameters (Table I). */
struct CacheConfig
{
    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Assoc = 8;
    Cycles l1Latency = 2;

    std::uint64_t l2Size = 256 * 1024;
    unsigned l2Assoc = 8;
    Cycles l2Latency = 8;

    std::uint64_t l3Size = 16ull * 1024 * 1024;
    unsigned l3Assoc = 8;
    Cycles l3Latency = 25;
};

/** Latency/energy cost model for fingerprint and encryption engines.
 * Latencies from Section III-C / DeWrite; energies follow the SHA-3
 * round-2 power comparison study [56] scaled to a 64 B block. */
struct CryptoCostConfig
{
    /** SHA-1 fingerprint of one cache line (Section III-C: 321 ns). */
    Tick sha1Latency = 321;
    Energy sha1Energy = 2900.0;  // pJ per line

    /** MD5 fingerprint of one line (312 ns). */
    Tick md5Latency = 312;
    Energy md5Energy = 2700.0;

    /** Lightweight CRC used by DeWrite. */
    Tick crcLatency = 40;
    Energy crcEnergy = 350.0;

    /** AES-128 counter-mode encryption of one line. CME precomputes the
     * pad off the critical path; the XOR apply cost is what is seen. */
    Tick encryptLatency = 24;
    Energy encryptEnergy = 900.0;

    /** Obtaining the already-computed ECC from the controller is free
     * (Section III-C: "the overhead of obtaining ECC is negligible"). */
    Tick eccLatency = 0;
    Energy eccEnergy = 0.0;

    /** Metadata (EFIT/AMT) on-chip cache access. */
    Tick metadataCacheLatency = 2;
    Energy metadataCacheEnergy = 15.0;

    /** Byte-by-byte comparison of a fetched candidate line in the
     * controller (wide comparators, a few cycles). */
    Tick compareLatency = 4;
    Energy compareEnergy = 40.0;
};

/** Sizes of the two on-chip metadata caches (Table I: 512 KB each). */
struct MetadataConfig
{
    std::uint64_t efitCacheBytes = 512 * 1024;
    std::uint64_t amtCacheBytes = 512 * 1024;

    /** Associativity of the on-chip metadata caches. */
    unsigned efitAssoc = 8;
    unsigned amtAssoc = 8;

    /** EFIT entry size: ECC fp (8 B) + Addr_base (4 B) + Addr_offsets
     * (1 B) + referH (1 B) = 14 B, padded to 16 B (Section III-B). */
    std::uint64_t efitEntryBytes = 16;

    /** AMT entry: initAddr tag (5 B) + Addr_base (4 B) + Addr_offsets
     * (1 B) = 10 B, padded to 12 B. */
    std::uint64_t amtEntryBytes = 12;

    /** referH saturation: counts beyond this treat the line as new
     * (Section III-B: 1 byte is enough; >99.9% of refs are < 1000). */
    std::uint32_t referHMax = 255;

    /** LRCU decay: every this many EFIT insertions, subtract
     * decayDelta from every cached reference count. */
    std::uint64_t decayPeriod = 4096;
    std::uint32_t decayDelta = 1;

    /** Use LRCU replacement (paper default); false falls back to LRU
     * for the Fig. 18 "w/o LRCU" ablation. */
    bool useLrcu = true;
};

/**
 * RAS (reliability/availability/serviceability) pipeline parameters.
 *
 * Default-disabled: with `enabled = false` every hook is a no-op and
 * the simulation is numerically identical to a build without the RAS
 * subsystem. With faults on, the pipeline is: inject (raw bit errors
 * plus wear-coupled stuck-at cells) -> correct (per-word SEC-DED on
 * every content read) -> scrub (demand + patrol) -> verify (PCM
 * write-verify with bounded retry) -> retire (remap to a spare region,
 * poison lost lines, account the dedup blast radius).
 */
struct RasConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** Raw bit-error probability per stored bit per line *read*
     * (transient/retention faults surfacing on access). */
    double readBer = 0.0;

    /** Raw bit-error probability per stored bit per line *write*
     * (programming noise). */
    double writeBer = 0.0;

    /** Line write count beyond which wear-coupled stuck-at faults can
     * form (0 disables the wear process). */
    std::uint64_t stuckAtOnsetWrites = 0;

    /** Probability per post-onset write that one more cell of the
     * line sticks at a fixed value. */
    double stuckAtPerWrite = 0.0;

    /** Write the corrected line + ECC back on every ECC-corrected
     * read (demand scrubbing). */
    bool demandScrub = true;

    /** Device writes between patrol-scrub sweeps (0 disables the
     * patrol scrubber). */
    std::uint64_t patrolIntervalWrites = 0;

    /** Resident lines scrubbed per patrol sweep. */
    std::uint64_t patrolLinesPerSweep = 8;

    /** Write-verify: read back every content write and rewrite up to
     * this many times while the stored line fails ECC (0 disables
     * write-verify). Persistent failures retire the line. */
    std::uint64_t writeVerifyRetries = 0;

    /** Extra nanoseconds of backoff charged per write-verify retry. */
    Tick writeVerifyBackoffNs = 0;

    /** Capacity of the spare region (in lines) that retired lines
     * remap into. */
    std::uint64_t spareRegionLines = 4096;

    /** Suspend deduplication once this many uncorrectable errors have
     * been seen (0 = never suspend). */
    std::uint64_t dedupSuspendUes = 0;
};

/**
 * Telemetry layer parameters ([telemetry] section).
 *
 * Everything here is host-side observability plumbing: it shapes what
 * gets exported, never the simulated timing, and is therefore not
 * serialized into run reports (reports pin simulated behaviour only).
 * Defaults keep every exporter off / at the pre-telemetry-v2 shape.
 */
struct TelemetryConfig
{
    /** Per-write event-trace ring capacity (`esd_sim -trace-out=`). */
    std::uint64_t traceRingCapacity = 65536;

    /** Record every Nth write's spans (1 = full-rate tracing). */
    std::uint64_t spanSampleEvery = 1;

    /** Max retained span events; later spans count as dropped. */
    std::uint64_t spanBufferCap = 1u << 20;

    /** Rewrite the Prometheus snapshot every N measured writes
     * (0 = one final snapshot when the run ends). */
    std::uint64_t metricsEveryWrites = 0;

    /** Serialize exact histogram buckets into latency summaries in
     * stats JSON. Off by default: golden reports stay byte-identical. */
    bool histogramBuckets = false;
};

/** What survives a power failure ([persistence] domain key). */
enum class PersistDomain
{
    /** ADR: only data that reached the PCM array persists; WPQ
     * entries and any buffered metadata-journal records are lost. */
    Adr,

    /** eADR: the write-pending queues are flushed on the power-fail
     * rail, so queued writes and the metadata write-back buffer
     * survive too. */
    Eadr,
};

/** Where inside a write an injected crash strikes
 * ([persistence] crash_phase key). */
enum class CrashPhase
{
    /** Before the write's first persist barrier: none of the write's
     * effects — data or journal — are durable. */
    PreBarrier,

    /** While the write's journal-record group is being flushed: a
     * PCG-chosen prefix of the group reaches the durable journal. */
    MidJournal,

    /** After the data line is written but before the metadata journal
     * group commits — the classic data/metadata torn window. */
    PostData,
};

/**
 * Crash-consistency layer parameters ([persistence] section).
 *
 * Default-disabled: with `enabled = false` no journal records are
 * emitted, no barrier latency is charged, and the simulation is
 * numerically identical to a build without the persistence subsystem.
 */
struct PersistenceConfig
{
    /** Master switch; everything below is inert when false. */
    bool enabled = false;

    /** Persistence domain the platform guarantees. */
    PersistDomain domain = PersistDomain::Adr;

    /** Writes per group-commit epoch: journal records buffer and
     * commit (one persist barrier) every this many writes. */
    std::uint64_t epochWrites = 64;

    /** Committed epochs between checkpoint flushes; each checkpoint
     * folds the journal into the durable table images and truncates
     * the committed prefix. */
    std::uint64_t checkpointEpochs = 64;

    /** Nanoseconds one persist barrier (pcommit/fence+drain) costs. */
    Tick barrierNs = 30;

    /** Nanoseconds appending one journal record costs. */
    Tick journalAppendNs = 5;

    /** eADR metadata write-back buffer capacity in records; an epoch
     * whose record group would overflow it commits early. */
    std::uint64_t metadataBufferRecords = 256;

    /** Counter-recovery slack added on top of the probed/journaled
     * counter so un-journaled bumps can never cause pad reuse.
     * 0 = auto (ADR: epoch_writes, eADR: 1). */
    std::uint64_t counterSlack = 0;

    /** Max candidate counters probed per line during Osiris-style
     * counter recovery (decrypt + ECC check). */
    std::uint64_t counterProbeMax = 128;

    /** Inject a crash at this 1-based write index (0 = no injection). */
    std::uint64_t crashAtWrite = 0;

    /** Phase within the chosen write at which the crash strikes. */
    CrashPhase crashPhase = CrashPhase::PostData;
};

/**
 * Sharded write pipeline (exec/pipeline.hh): barrier cadence and queue
 * sizing for `esd_sim -workers=N`. Execution knobs only — none of
 * these change simulated results except epoch_records/sample_epochs,
 * which set where cross-shard barrier effects (dedup-suspension
 * propagation, merged interval rows) land in the trace; the worker
 * count itself never does.
 */
struct PipelineConfig
{
    /** Trace records per epoch (barrier cadence). */
    std::uint64_t epochRecords = 4096;

    /** Bounded per-shard queue window, in epochs: how far the trace
     * demux may run ahead of the slowest shard. */
    std::uint64_t queueEpochs = 4;

    /** Record one merged interval row every this many epochs
     * (0 = off). */
    std::uint64_t sampleEpochs = 0;
};

/** On-disk trace format ([trace] format key). `Auto` sniffs the input
 * file's first bytes (0x1f 0x8b = gzip, "ESDT" = binary, else text)
 * and means text on the capture side. */
enum class TraceFormat
{
    Auto,
    Text,
    Gzip,
    Binary,
};

/**
 * Trace frontend / capture parameters ([trace] section).
 *
 * Host-side ingest plumbing only: like [telemetry] and [pipeline],
 * nothing here changes simulated results (a trace replays identically
 * at any read_ahead), so the section is rendered by -dump-config but
 * never serialized into run reports.
 */
struct TraceConfig
{
    /** Capture-side format; input always sniffs the file content. */
    TraceFormat format = TraceFormat::Auto;

    /** Capture 64 B write payloads (true) or address-only records
     * whose content is re-synthesized deterministically on replay. */
    bool linePayload = true;

    /** Decode block size in records ([1, 1M]): the streaming
     * frontend holds at most two blocks, the one being drained and
     * one decoded ahead. */
    std::uint64_t readAhead = 4096;
};

/** Which line ECC codec the memory controller runs ([ecc] engine
 * key). Every engine packs its check data into the same 64-bit LineEcc
 * word, so stored-line and EFIT layouts never change with the code. */
enum class EccEngineKind
{
    /** Per-word Hamming(72,64) SEC-DED — the paper's baseline and the
     * default; bit-identical to the pre-pluggable codec. */
    Hamming,

    /** Four interleaved binary BCH(144,128) codewords, t=2 bit errors
     * each (two data words per codeword, 16 check bits). */
    Bch,

    /** Reed-Solomon RS(72,64) over GF(2^8): one codeword per line,
     * t=4 byte-symbol errors, 8 parity bytes. */
    Rs,
};

/**
 * ECC engine selection ([ecc] section).
 *
 * Default Hamming keeps every golden report byte-identical: the
 * section is only serialized into run reports when a non-default
 * engine is selected.
 */
struct EccConfig
{
    EccEngineKind engine = EccEngineKind::Hamming;
};

/** Core timing model: in-order, 1 IPC peak, stalling on LLC misses and
 * on memory-controller write-queue backpressure. */
struct CoreConfig
{
    /** Core clock in GHz (Table I: 2 GHz) — converts cycles to ns. */
    double clockGhz = 2.0;

    /** Base cycles per instruction when not stalled on memory. */
    double baseCpi = 1.0;
};

/** Top-level system configuration. */
struct SimConfig
{
    PcmConfig pcm;
    ChannelConfig channels;
    CacheConfig cache;
    CryptoCostConfig crypto;
    MetadataConfig metadata;
    RasConfig ras;
    EccConfig ecc;
    PersistenceConfig persist;
    PipelineConfig pipeline;
    CoreConfig core;
    TelemetryConfig telemetry;
    TraceConfig trace;

    /** Master random seed for any stochastic machinery. */
    std::uint64_t seed = 1;

    /** Render the Table I style configuration summary. */
    std::string summary() const;
};

} // namespace esd

#endif // ESD_COMMON_CONFIG_HH
