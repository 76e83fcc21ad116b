/**
 * @file
 * Tests for the key=value configuration parser and renderer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/config_io.hh"
#include "common/logging.hh"

namespace esd
{
namespace
{

TEST(ConfigIo, ApplyKnownKeys)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_latency", "99"));
    EXPECT_EQ(cfg.pcm.readLatency, 99u);
    EXPECT_TRUE(applyConfigKey(cfg, "pcm.capacity_gb", "32"));
    EXPECT_EQ(cfg.pcm.capacityBytes, 32ull << 30);
    EXPECT_TRUE(applyConfigKey(cfg, "metadata.use_lrcu", "false"));
    EXPECT_FALSE(cfg.metadata.useLrcu);
    EXPECT_TRUE(applyConfigKey(cfg, "core.clock_ghz", "3.5"));
    EXPECT_DOUBLE_EQ(cfg.core.clockGhz, 3.5);
    EXPECT_TRUE(applyConfigKey(cfg, "cache.l3_kb", "8192"));
    EXPECT_EQ(cfg.cache.l3Size, 8192u << 10);
    EXPECT_TRUE(applyConfigKey(cfg, "seed", "42"));
    EXPECT_EQ(cfg.seed, 42u);
    // A leading zero is decimal (as on the command line), not octal;
    // 0x selects hex.
    EXPECT_TRUE(applyConfigKey(cfg, "seed", "010"));
    EXPECT_EQ(cfg.seed, 10u);
    EXPECT_TRUE(applyConfigKey(cfg, "seed", "0x10"));
    EXPECT_EQ(cfg.seed, 16u);
    // The size keys' upper bounds are accepted.
    EXPECT_TRUE(applyConfigKey(cfg, "metadata.efit_kb", "16777216"));
    EXPECT_EQ(cfg.metadata.efitCacheBytes, 1ull << 34);
    EXPECT_TRUE(applyConfigKey(cfg, "cache.l2_assoc", "65536"));
    EXPECT_EQ(cfg.cache.l2Assoc, 65536u);
}

TEST(ConfigIo, UnknownKeyRejected)
{
    SimConfig cfg;
    EXPECT_FALSE(applyConfigKey(cfg, "nonsense.key", "1"));
}

TEST(ConfigIo, BooleanSpellings)
{
    SimConfig cfg;
    for (const char *t : {"true", "1", "yes", "on"}) {
        cfg.pcm.readPriority = false;
        EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_priority", t));
        EXPECT_TRUE(cfg.pcm.readPriority) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        cfg.pcm.readPriority = true;
        EXPECT_TRUE(applyConfigKey(cfg, "pcm.read_priority", f));
        EXPECT_FALSE(cfg.pcm.readPriority) << f;
    }
}

class ConfigFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("esd_cfg_" + std::to_string(::getpid()) + ".cfg");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::filesystem::path path_;
};

TEST_F(ConfigFileTest, LoadOverridesDefaults)
{
    {
        std::ofstream out(path_);
        out << "# a comment\n"
               "\n"
               "pcm.write_latency = 300\n"
               "metadata.efit_kb = 256\n"
               "  crypto.sha1_latency =  500  \n";
    }
    SimConfig cfg;
    loadConfigFile(cfg, path_.string());
    EXPECT_EQ(cfg.pcm.writeLatency, 300u);
    EXPECT_EQ(cfg.metadata.efitCacheBytes, 256u << 10);
    EXPECT_EQ(cfg.crypto.sha1Latency, 500u);
    // Untouched keys keep their Table I defaults.
    EXPECT_EQ(cfg.pcm.readLatency, 75u);
}

TEST_F(ConfigFileTest, UnknownKeyWarnsButContinues)
{
    {
        std::ofstream out(path_);
        out << "bogus.key = 5\npcm.read_latency = 80\n";
    }
    setQuiet(true);
    std::uint64_t warns = warnCount();
    SimConfig cfg;
    loadConfigFile(cfg, path_.string());
    setQuiet(false);
    EXPECT_EQ(warnCount(), warns + 1);
    EXPECT_EQ(cfg.pcm.readLatency, 80u);
}

TEST_F(ConfigFileTest, RenderRoundTrips)
{
    SimConfig cfg;
    cfg.pcm.writeLatency = 222;
    cfg.metadata.referHMax = 77;
    cfg.core.clockGhz = 2.5;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.pcm.writeLatency, 222u);
    EXPECT_EQ(back.metadata.referHMax, 77u);
    EXPECT_DOUBLE_EQ(back.core.clockGhz, 2.5);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, MissingFileIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(loadConfigFile(cfg, "/nonexistent/esd.cfg"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(ConfigIoDeath, BadIntegerIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "abc"),
                ::testing::ExitedWithCode(1), "not an integer");
}

TEST(ConfigIoDeath, NegativeIntegerIsFatal)
{
    // std::stoull would silently wrap -1 to 2^64-1.
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "-1"),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(ConfigIoDeath, TrailingGarbageIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency", "75ns"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "core.clock_ghz", "2.0GHz"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "seed", "0x"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "seed", "0x1g"),
                ::testing::ExitedWithCode(1), "trailing garbage");
}

TEST(ConfigIoDeath, OverflowIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.read_latency",
                               "99999999999999999999999999"),
                ::testing::ExitedWithCode(1), "does not fit");
}

/** The `*_kb` keys are shifted to bytes and the assoc keys divide: a
 * zero or a size whose shift would wrap is refused up front. */
TEST(ConfigIoDeath, CacheSizeKeysOutOfRangeAreFatal)
{
    SimConfig cfg;
    for (const char *k : {"cache.l1_kb", "cache.l2_kb", "cache.l3_kb",
                          "metadata.efit_kb", "metadata.amt_kb"}) {
        EXPECT_EXIT(applyConfigKey(cfg, k, "0"),
                    ::testing::ExitedWithCode(1), "out of range") << k;
        // 2^54 KB wraps to 0 bytes through << 10.
        EXPECT_EXIT(applyConfigKey(cfg, k, "18014398509481984"),
                    ::testing::ExitedWithCode(1), "out of range") << k;
        EXPECT_EXIT(applyConfigKey(cfg, k, "16777217"),
                    ::testing::ExitedWithCode(1), "out of range") << k;
    }
    for (const char *k :
         {"cache.l1_assoc", "cache.l2_assoc", "cache.l3_assoc"}) {
        EXPECT_EXIT(applyConfigKey(cfg, k, "0"),
                    ::testing::ExitedWithCode(1), "out of range") << k;
        EXPECT_EXIT(applyConfigKey(cfg, k, "4294967297"),
                    ::testing::ExitedWithCode(1), "out of range") << k;
    }
}

TEST(ConfigIo, RasKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "ras.enabled", "true"));
    EXPECT_TRUE(cfg.ras.enabled);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.read_ber", "1e-6"));
    EXPECT_DOUBLE_EQ(cfg.ras.readBer, 1e-6);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.write_ber", "0.5"));
    EXPECT_DOUBLE_EQ(cfg.ras.writeBer, 0.5);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.stuck_at_onset_writes", "100"));
    EXPECT_EQ(cfg.ras.stuckAtOnsetWrites, 100u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.write_verify_retries", "3"));
    EXPECT_EQ(cfg.ras.writeVerifyRetries, 3u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.spare_region_lines", "1024"));
    EXPECT_EQ(cfg.ras.spareRegionLines, 1024u);
    EXPECT_TRUE(applyConfigKey(cfg, "ras.dedup_suspend_ues", "5"));
    EXPECT_EQ(cfg.ras.dedupSuspendUes, 5u);
}

TEST(ConfigIo, TelemetryKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.trace_ring_capacity", "1024"));
    EXPECT_EQ(cfg.telemetry.traceRingCapacity, 1024u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.span_sample_every", "16"));
    EXPECT_EQ(cfg.telemetry.spanSampleEvery, 16u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.span_buffer_cap", "4096"));
    EXPECT_EQ(cfg.telemetry.spanBufferCap, 4096u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.metrics_every_writes", "0"));
    EXPECT_EQ(cfg.telemetry.metricsEveryWrites, 0u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "telemetry.histogram_buckets", "true"));
    EXPECT_TRUE(cfg.telemetry.histogramBuckets);
}

TEST_F(ConfigFileTest, TelemetryRenderRoundTrips)
{
    SimConfig cfg;
    cfg.telemetry.traceRingCapacity = 777;
    cfg.telemetry.spanSampleEvery = 3;
    cfg.telemetry.spanBufferCap = 123456;
    cfg.telemetry.metricsEveryWrites = 5000;
    cfg.telemetry.histogramBuckets = true;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.telemetry.traceRingCapacity, 777u);
    EXPECT_EQ(back.telemetry.spanSampleEvery, 3u);
    EXPECT_EQ(back.telemetry.spanBufferCap, 123456u);
    EXPECT_EQ(back.telemetry.metricsEveryWrites, 5000u);
    EXPECT_TRUE(back.telemetry.histogramBuckets);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, TelemetryTraceRingOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "telemetry.trace_ring_capacity",
                               "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "telemetry.span_sample_every", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIoDeath, RasBerOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ras.read_ber", "1.5"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.write_ber", "-0.1"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIoDeath, RasRetriesOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ras.write_verify_retries", "65"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "ras.patrol_lines_per_sweep", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, ChannelKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "channels.count", "4"));
    EXPECT_EQ(cfg.channels.count, 4u);
    EXPECT_TRUE(applyConfigKey(cfg, "channels.wpq_depth", "16"));
    EXPECT_EQ(cfg.channels.wpqDepth, 16u);
    EXPECT_TRUE(applyConfigKey(cfg, "channels.wpq_coalescing", "true"));
    EXPECT_TRUE(cfg.channels.wpqCoalescing);
    EXPECT_TRUE(applyConfigKey(cfg, "channels.wpq_coalescing", "off"));
    EXPECT_FALSE(cfg.channels.wpqCoalescing);
}

TEST(ConfigIoDeath, ChannelCountOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "65"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.wpq_depth", "65537"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "-2"),
                ::testing::ExitedWithCode(1), "negative");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.count", "4x"),
                ::testing::ExitedWithCode(1), "trailing garbage");
    EXPECT_EXIT(applyConfigKey(cfg, "channels.wpq_coalescing", "maybe"),
                ::testing::ExitedWithCode(1), "not a boolean");
}

TEST(ConfigIoDeath, PcmGeometryOutOfRangeIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.channels", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.ranks", "65"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.banks", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.banks", "1025"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.write_queue_depth", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.capacity_gb", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.gap_move_period", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pcm.start_gap_region_lines", "0"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST_F(ConfigFileTest, ChannelRoundTrips)
{
    SimConfig cfg;
    cfg.channels.count = 8;
    cfg.channels.wpqDepth = 32;
    cfg.channels.wpqCoalescing = true;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.channels.count, 8u);
    EXPECT_EQ(back.channels.wpqDepth, 32u);
    EXPECT_TRUE(back.channels.wpqCoalescing);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST_F(ConfigFileTest, RasRoundTrips)
{
    SimConfig cfg;
    cfg.ras.enabled = true;
    cfg.ras.readBer = 1e-7;
    cfg.ras.patrolIntervalWrites = 256;
    cfg.ras.writeVerifyRetries = 2;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_TRUE(back.ras.enabled);
    EXPECT_DOUBLE_EQ(back.ras.readBer, 1e-7);
    EXPECT_EQ(back.ras.patrolIntervalWrites, 256u);
    EXPECT_EQ(back.ras.writeVerifyRetries, 2u);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIo, EccKeysApply)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Hamming);  // default codec
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "bch"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Bch);
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "rs"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Rs);
    EXPECT_TRUE(applyConfigKey(cfg, "ecc.engine", "hamming"));
    EXPECT_EQ(cfg.ecc.engine, EccEngineKind::Hamming);
}

TEST_F(ConfigFileTest, EccRoundTrips)
{
    SimConfig cfg;
    cfg.ecc.engine = EccEngineKind::Rs;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.ecc.engine, EccEngineKind::Rs);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, UnknownEccEngineIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "banana"),
                ::testing::ExitedWithCode(1), "not an ecc engine");
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "BCH"),
                ::testing::ExitedWithCode(1),
                "expected hamming, bch, or rs");
    // Case-sensitive and whitespace-strict, like every other enum key.
    EXPECT_EXIT(applyConfigKey(cfg, "ecc.engine", "rs "),
                ::testing::ExitedWithCode(1), "not an ecc engine");
}

TEST(ConfigIo, PersistenceKeysApply)
{
    SimConfig cfg;
    EXPECT_FALSE(cfg.persist.enabled);  // default-off master switch
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.enabled", "true"));
    EXPECT_TRUE(cfg.persist.enabled);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.domain", "eadr"));
    EXPECT_EQ(cfg.persist.domain, PersistDomain::Eadr);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.epoch_writes", "32"));
    EXPECT_EQ(cfg.persist.epochWrites, 32u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.checkpoint_epochs", "16"));
    EXPECT_EQ(cfg.persist.checkpointEpochs, 16u);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.barrier_ns", "45"));
    EXPECT_EQ(cfg.persist.barrierNs, 45u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.journal_append_ns", "7"));
    EXPECT_EQ(cfg.persist.journalAppendNs, 7u);
    EXPECT_TRUE(applyConfigKey(cfg,
                               "persistence.metadata_buffer_records",
                               "512"));
    EXPECT_EQ(cfg.persist.metadataBufferRecords, 512u);
    EXPECT_TRUE(applyConfigKey(cfg, "persistence.counter_slack", "4"));
    EXPECT_EQ(cfg.persist.counterSlack, 4u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.counter_probe_max", "64"));
    EXPECT_EQ(cfg.persist.counterProbeMax, 64u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.crash_at_write", "1000"));
    EXPECT_EQ(cfg.persist.crashAtWrite, 1000u);
    EXPECT_TRUE(
        applyConfigKey(cfg, "persistence.crash_phase", "mid_journal"));
    EXPECT_EQ(cfg.persist.crashPhase, CrashPhase::MidJournal);
    // Unknown keys in the section are rejected like anywhere else.
    EXPECT_FALSE(applyConfigKey(cfg, "persistence.bogus", "1"));
}

TEST_F(ConfigFileTest, PersistenceRoundTrips)
{
    SimConfig cfg;
    cfg.persist.enabled = true;
    cfg.persist.domain = PersistDomain::Eadr;
    cfg.persist.epochWrites = 128;
    cfg.persist.checkpointEpochs = 8;
    cfg.persist.counterSlack = 3;
    cfg.persist.crashAtWrite = 4242;
    cfg.persist.crashPhase = CrashPhase::PreBarrier;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_TRUE(back.persist.enabled);
    EXPECT_EQ(back.persist.domain, PersistDomain::Eadr);
    EXPECT_EQ(back.persist.epochWrites, 128u);
    EXPECT_EQ(back.persist.checkpointEpochs, 8u);
    EXPECT_EQ(back.persist.counterSlack, 3u);
    EXPECT_EQ(back.persist.crashAtWrite, 4242u);
    EXPECT_EQ(back.persist.crashPhase, CrashPhase::PreBarrier);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, PersistenceDomainUnknownIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.domain", "nvdimm"),
                ::testing::ExitedWithCode(1),
                "not a persistence domain");
}

TEST(ConfigIoDeath, PersistenceCrashPhaseUnknownIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.crash_phase",
                               "mid_write"),
                ::testing::ExitedWithCode(1), "not a crash phase");
}

TEST(ConfigIoDeath, PersistenceRangesAreFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.epoch_writes", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "persistence.checkpoint_epochs", "0"),
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg,
                               "persistence.metadata_buffer_records",
                               "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "persistence.counter_probe_max",
                               "100000"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, PipelineKeysApply)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.epoch_records", "512"));
    EXPECT_EQ(cfg.pipeline.epochRecords, 512u);
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.queue_epochs", "8"));
    EXPECT_EQ(cfg.pipeline.queueEpochs, 8u);
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.sample_epochs", "16"));
    EXPECT_EQ(cfg.pipeline.sampleEpochs, 16u);
    // 0 = sampling off is inside the valid range.
    EXPECT_TRUE(applyConfigKey(cfg, "pipeline.sample_epochs", "0"));
    EXPECT_EQ(cfg.pipeline.sampleEpochs, 0u);
    EXPECT_FALSE(applyConfigKey(cfg, "pipeline.bogus", "1"));
}

TEST_F(ConfigFileTest, PipelineRoundTrips)
{
    SimConfig cfg;
    cfg.pipeline.epochRecords = 1024;
    cfg.pipeline.queueEpochs = 2;
    cfg.pipeline.sampleEpochs = 4;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.pipeline.epochRecords, 1024u);
    EXPECT_EQ(back.pipeline.queueEpochs, 2u);
    EXPECT_EQ(back.pipeline.sampleEpochs, 4u);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, PipelineRangesAreFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "pipeline.epoch_records", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "pipeline.epoch_records", "1048577"),
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pipeline.queue_epochs", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "pipeline.queue_epochs", "1025"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        applyConfigKey(cfg, "pipeline.sample_epochs", "1048577"),
        ::testing::ExitedWithCode(1), "out of range");
}

TEST(ConfigIo, ApplyTraceKeys)
{
    SimConfig cfg;
    EXPECT_TRUE(applyConfigKey(cfg, "trace.format", "binary"));
    EXPECT_EQ(cfg.trace.format, TraceFormat::Binary);
    EXPECT_TRUE(applyConfigKey(cfg, "trace.format", "auto"));
    EXPECT_EQ(cfg.trace.format, TraceFormat::Auto);
    EXPECT_TRUE(applyConfigKey(cfg, "trace.line_payload", "false"));
    EXPECT_FALSE(cfg.trace.linePayload);
    EXPECT_TRUE(applyConfigKey(cfg, "trace.read_ahead", "128"));
    EXPECT_EQ(cfg.trace.readAhead, 128u);
    EXPECT_FALSE(applyConfigKey(cfg, "trace.bogus", "1"));
}

TEST_F(ConfigFileTest, TraceRoundTrips)
{
    SimConfig cfg;
    cfg.trace.format = TraceFormat::Gzip;
    cfg.trace.linePayload = false;
    cfg.trace.readAhead = 512;
    {
        std::ofstream out(path_);
        out << renderConfig(cfg);
    }
    SimConfig back;
    loadConfigFile(back, path_.string());
    EXPECT_EQ(back.trace.format, TraceFormat::Gzip);
    EXPECT_FALSE(back.trace.linePayload);
    EXPECT_EQ(back.trace.readAhead, 512u);
    EXPECT_EQ(renderConfig(back), renderConfig(cfg));
}

TEST(ConfigIoDeath, TraceKeysValidate)
{
    SimConfig cfg;
    EXPECT_EXIT(applyConfigKey(cfg, "trace.format", "xml"),
                ::testing::ExitedWithCode(1),
                "not a trace format");
    EXPECT_EXIT(applyConfigKey(cfg, "trace.read_ahead", "0"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(applyConfigKey(cfg, "trace.read_ahead", "1048577"),
                ::testing::ExitedWithCode(1), "out of range");
}

} // namespace
} // namespace esd
