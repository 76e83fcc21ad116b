/**
 * @file
 * Streaming trace frontend: capture/replay bit-identity and format
 * equivalence.
 *
 * The headline guarantee of trace/trace_frontend.hh is that a captured
 * synthetic run replays bit-identically: the stats-JSON document of
 * the replay equals the original byte for byte, for every scheme, in
 * every on-disk format, at any pipeline worker count, and composed
 * with crash injection. These tests pin each leg of that claim, plus
 * the constant-memory property (the decoded-record buffer never
 * exceeds [trace] read_ahead) and the deterministic content synthesis
 * for payload-less traces. The TraceIo* cases hold the frontend to
 * what the older text/binary readers promised: round trips, reset,
 * and a named fatal for each malformed record, including legacy v1
 * binary files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_report.hh"
#include "core/simulator.hh"
#include "exec/pipeline.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

constexpr std::uint64_t kRecords = 8000;
constexpr std::uint64_t kWarmup = 1500;
constexpr std::uint64_t kSeed = 7;

class TraceFrontendTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("esd_frontend_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    file(const char *name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** The exact esd_sim single-run report for @p trace. */
std::string
renderRun(const SimConfig &cfg, SchemeKind kind, TraceSource &trace,
          std::uint64_t records, std::uint64_t warmup)
{
    Simulator sim(cfg, kind);
    RunResult r = sim.run(trace, records, warmup);
    std::ostringstream os;
    writeStatsReport(os, cfg, r, sim.statRegistry(), nullptr);
    return os.str();
}

/** Capture a synthetic run to @p path and return its report. */
std::string
captureRun(const SimConfig &cfg, SchemeKind kind,
           const std::string &path, TraceFormat format)
{
    TraceConfig tc = cfg.trace;
    tc.format = format;
    TraceCaptureWriter writer(path, tc);
    SyntheticWorkload synth(findApp("mcf"), kSeed);
    CapturingSource tee(synth, writer);
    std::string rep = renderRun(cfg, kind, tee, kRecords, kWarmup);
    writer.close();
    EXPECT_EQ(writer.count(), kRecords);
    return rep;
}

/** Drain a frontend into a vector (payload compare helper). */
std::vector<TraceRecord>
drain(const std::string &path, std::uint64_t read_ahead = 4096)
{
    TraceConfig tc;
    tc.readAhead = read_ahead;
    TraceFrontend f(path, tc);
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (f.next(rec))
        out.push_back(rec);
    return out;
}

/** The legacy v1 binary encoding of @p recs: the magic, then per
 * record [u8 op][u64 addr][u32 icount] (little-endian) and, for
 * writes only, the 64 B payload. */
std::string
encodeV1(const std::vector<TraceRecord> &recs)
{
    std::string out = "ESDT";
    for (const TraceRecord &r : recs) {
        out += static_cast<char>(r.op == OpType::Write ? 1 : 0);
        for (int i = 0; i < 8; ++i)
            out += static_cast<char>(r.addr >> (8 * i));
        for (int i = 0; i < 4; ++i)
            out += static_cast<char>(r.icount >> (8 * i));
        if (r.op == OpType::Write)
            out.append(reinterpret_cast<const char *>(r.data.data()),
                       kLineSize);
    }
    return out;
}

std::string
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    return path;
}

/** @p n records of @p app's synthetic stream. */
std::vector<TraceRecord>
synthesize(const char *app, std::uint64_t seed, std::size_t n)
{
    SyntheticWorkload synth(findApp(app), seed);
    std::vector<TraceRecord> out(n);
    for (TraceRecord &r : out)
        synth.next(r);
    return out;
}

void
expectSameRecords(const std::vector<TraceRecord> &a,
                  const std::vector<TraceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op) << "record " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "record " << i;
        EXPECT_EQ(a[i].icount, b[i].icount) << "record " << i;
        if (a[i].op == OpType::Write) {
            EXPECT_EQ(a[i].data, b[i].data) << "record " << i;
        }
    }
}

// ---------------------------------------------- capture -> replay

class CaptureReplayIdentity : public TraceFrontendTest,
                              public ::testing::WithParamInterface<int>
{
};

/** Capture -> replay must reproduce the stats JSON byte for byte, per
 * scheme. Schemes read different amounts of state (dedup tables, AMT,
 * counters), so identity per scheme pins the whole record stream —
 * ops, addresses, payloads, and icounts. */
TEST_P(CaptureReplayIdentity, StatsJsonByteIdentical)
{
    SchemeKind kind = allSchemeKindsExtended()[GetParam()];
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string path = file("cap.trace");
    std::string original =
        captureRun(cfg, kind, path, TraceFormat::Text);

    TraceFrontend replay(path, cfg.trace);
    EXPECT_EQ(replay.format(), TraceFormat::Text);
    std::string replayed =
        renderRun(cfg, kind, replay, kRecords, kWarmup);
    EXPECT_EQ(original, replayed);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CaptureReplayIdentity,
                         ::testing::Range(0, 6));

/** The same identity through each on-disk encoding: the format is a
 * transport, never a semantic. */
TEST_F(TraceFrontendTest, ReplayIdenticalInEveryFormat)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    struct Case
    {
        TraceFormat format;
        const char *name;
    } cases[] = {{TraceFormat::Text, "t.trace"},
                 {TraceFormat::Gzip, "t.gz"},
                 {TraceFormat::Binary, "t.bin"}};

    std::string original;
    for (const Case &c : cases) {
        std::string path = file(c.name);
        std::string rep =
            captureRun(cfg, SchemeKind::Esd, path, c.format);
        if (original.empty())
            original = rep;
        else
            EXPECT_EQ(original, rep);

        TraceFrontend replay(path, cfg.trace);
        EXPECT_EQ(replay.format(), c.format);
        EXPECT_EQ(original, renderRun(cfg, SchemeKind::Esd, replay,
                                      kRecords, kWarmup));
    }
}

// ---------------------------------------------- format round trips

TEST_F(TraceFrontendTest, ConvertRoundTripPreservesRecords)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string text1 = file("a.trace");
    captureRun(cfg, SchemeKind::Baseline, text1, TraceFormat::Text);
    std::vector<TraceRecord> want = drain(text1);
    ASSERT_EQ(want.size(), kRecords);

    // text -> binary -> gzip -> text: every hop preserves the stream.
    std::string bin = file("a.bin");
    std::string gz = file("a.gz");
    std::string text2 = file("a2.trace");
    EXPECT_EQ(convertTrace(text1, bin, TraceFormat::Binary, true),
              kRecords);
    EXPECT_EQ(convertTrace(bin, gz, TraceFormat::Gzip, true), kRecords);
    EXPECT_EQ(convertTrace(gz, text2, TraceFormat::Text, true),
              kRecords);

    expectSameRecords(want, drain(bin));
    expectSameRecords(want, drain(gz));
    expectSameRecords(want, drain(text2));

    // The final text re-encoding is byte-identical to the first: the
    // writer is canonical, so text -> ... -> text is a fixed point.
    std::ifstream f1(text1, std::ios::binary), f2(text2,
                                                  std::ios::binary);
    std::ostringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());

    EXPECT_EQ(detectTraceFormat(text1), TraceFormat::Text);
    EXPECT_EQ(detectTraceFormat(bin), TraceFormat::Binary);
    EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
}

/** Gzip'd *binary* also replays: the sniffer runs again inside the
 * inflated stream. Composed manually — the capture writer's Gzip mode
 * compresses text. */
TEST_F(TraceFrontendTest, GzippedBinaryReplays)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string bin = file("b.bin");
    captureRun(cfg, SchemeKind::DeWrite, bin, TraceFormat::Binary);
    std::vector<TraceRecord> want = drain(bin);

    std::string gz = file("b.bin.gz");
    {
        detail::GzipByteSink sink(
            std::make_unique<detail::FileByteSink>(gz));
        std::ifstream in(bin, std::ios::binary);
        char buf[4096];
        while (in.read(buf, sizeof buf) || in.gcount() > 0)
            sink.write(reinterpret_cast<const std::uint8_t *>(buf),
                       static_cast<std::size_t>(in.gcount()));
        sink.finish();
    }

    EXPECT_EQ(detectTraceFormat(gz), TraceFormat::Gzip);
    expectSameRecords(want, drain(gz));
}

// ---------------------------------------------- pipeline composition

/** Replay through the sharded pipeline: the pipeline report is
 * byte-identical at 1, 2, and 8 workers when fed from a file. */
TEST_F(TraceFrontendTest, ReplayUnderPipelineWorkersIsIdentical)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    cfg.channels.count = 8;
    std::string path = file("p.trace");
    captureRun(cfg, SchemeKind::Esd, path, TraceFormat::Text);

    std::string first;
    for (unsigned workers : {1u, 2u, 8u}) {
        TraceFrontend replay(path, cfg.trace);
        exec::ShardedPipeline sharded(cfg, SchemeKind::Esd, workers);
        sharded.run(replay, kRecords, kWarmup);
        std::ostringstream os;
        sharded.writeReport(os);
        if (first.empty())
            first = os.str();
        else
            EXPECT_EQ(first, os.str())
                << "pipeline report diverged at " << workers
                << " workers";
    }
}

/** Replay composes with [persistence] crash injection: the injected
 * crash fires at the configured write index and recovery off the
 * crashed image passes the pipeline's own self-check. */
TEST_F(TraceFrontendTest, ReplayWithCrashInjectionRecovers)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string path = file("c.trace");
    captureRun(cfg, SchemeKind::Esd, path, TraceFormat::Binary);

    cfg.persist.enabled = true;
    cfg.persist.crashAtWrite = 400;
    TraceFrontend replay(path, cfg.trace);
    exec::ShardedPipeline sharded(cfg, SchemeKind::Esd, 2);
    sharded.run(replay, kRecords, kWarmup);
    EXPECT_EQ(sharded.checkInjectedCrash(), "");
}

// ---------------------------------------------- streaming properties

TEST_F(TraceFrontendTest, BoundedReadAheadOnLargeTrace)
{
    // 200k records through a 64-record window: the decoded-record
    // high-water mark must honor the bound whatever the trace length.
    std::string path = file("big.bin");
    TraceConfig wc;
    wc.format = TraceFormat::Binary;
    {
        TraceCaptureWriter writer(path, wc);
        SyntheticWorkload synth(findApp("lbm"), 3);
        TraceRecord rec;
        for (int i = 0; i < 200000; ++i) {
            ASSERT_TRUE(synth.next(rec));
            writer.write(rec);
        }
    }
    TraceConfig tc;
    tc.readAhead = 64;
    TraceFrontend f(path, tc);
    TraceRecord rec;
    std::uint64_t n = 0;
    while (f.next(rec))
        ++n;
    EXPECT_EQ(n, 200000u);
    EXPECT_EQ(f.recordsDecoded(), 200000u);
    EXPECT_LE(f.peakBufferedRecords(), 64u);
    EXPECT_GT(f.peakBufferedRecords(), 0u);
}

TEST_F(TraceFrontendTest, ResetRestartsIncludingSynthesisState)
{
    // An address-only trace synthesizes write content from the global
    // write index; reset() must rewind that index too, or the second
    // pass would see different data.
    std::string path = file("r.trace");
    {
        std::ofstream out(path);
        out << "W 1000 5\nW 2000 5\nR 1000 5\nW 1000 5\n";
    }
    TraceConfig tc;
    TraceFrontend f(path, tc);
    std::vector<TraceRecord> pass1, pass2;
    TraceRecord rec;
    while (f.next(rec))
        pass1.push_back(rec);
    f.reset();
    while (f.next(rec))
        pass2.push_back(rec);
    expectSameRecords(pass1, pass2);
    ASSERT_EQ(pass1.size(), 4u);
    // Same address written twice gets different synthesized content
    // (the write index advances), so replay is not trivially all-dups.
    EXPECT_FALSE(pass1[0].data == pass1[3].data);
    EXPECT_EQ(f.recordsDecoded(), 8u);  // monotonic across reset
}

TEST_F(TraceFrontendTest, SynthesizedContentIsPureInAddrAndIndex)
{
    CacheLine a = synthesizeLineContent(0x1000, 0);
    CacheLine b = synthesizeLineContent(0x1000, 0);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == synthesizeLineContent(0x1000, 1));
    EXPECT_FALSE(a == synthesizeLineContent(0x1040, 0));
}

// ---------------------------------------------- format tolerance

TEST_F(TraceFrontendTest, RamulatorTokenOrderAndDefaults)
{
    std::string path = file("ram.trace");
    {
        std::ofstream out(path);
        out << "# a ramulator-style fragment\n"
            << "46b100 W\n"          // icount defaults to 100
            << "deadbeef R 40\n"     // explicit icount
            << "\r\n"                // blank CRLF line
            << "R cafe0 7\r\n";      // canonical order, CRLF
    }
    std::vector<TraceRecord> recs = drain(path);
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].op, OpType::Write);
    EXPECT_EQ(recs[0].addr, 0x46b100u);
    EXPECT_EQ(recs[0].icount, 100u);
    EXPECT_EQ(recs[1].op, OpType::Read);
    EXPECT_EQ(recs[1].addr, 0xdeadbeefu);
    EXPECT_EQ(recs[1].icount, 40u);
    EXPECT_EQ(recs[2].addr, 0xcafe0u);
    EXPECT_EQ(recs[2].icount, 7u);
}

TEST_F(TraceFrontendTest, LegacyV1BinaryStillDecodes)
{
    std::vector<TraceRecord> want = synthesize("mcf", 11, 64);
    std::string path = writeFile(file("v1.bin"), encodeV1(want));
    TraceConfig tc;
    TraceFrontend f(path, tc);
    EXPECT_EQ(f.format(), TraceFormat::Binary);
    std::vector<TraceRecord> got;
    TraceRecord rec;
    while (f.next(rec))
        got.push_back(rec);
    expectSameRecords(want, got);
}

/** Stripped traces (-payload=false) replay deterministically: two
 * replays agree, and re-capturing a replay reproduces the stripped
 * file byte for byte. */
TEST_F(TraceFrontendTest, PayloadlessCaptureReplaysDeterministically)
{
    SimConfig cfg;
    cfg.seed = kSeed;
    std::string full = file("f.trace");
    captureRun(cfg, SchemeKind::Baseline, full, TraceFormat::Text);
    std::string stripped = file("s.trace");
    EXPECT_EQ(convertTrace(full, stripped, TraceFormat::Text, false),
              kRecords);

    std::vector<TraceRecord> pass1 = drain(stripped);
    std::vector<TraceRecord> pass2 = drain(stripped);
    expectSameRecords(pass1, pass2);

    // Round-trip the stripped stream through capture again: identical
    // bytes, so stripped traces are stable archival artifacts.
    std::string again = file("s2.trace");
    EXPECT_EQ(convertTrace(stripped, again, TraceFormat::Text, false),
              kRecords);
    std::ifstream f1(stripped, std::ios::binary),
        f2(again, std::ios::binary);
    std::ostringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());
}

// ---------------------------------------------- trace file I/O
// Round trips through the writer every tool uses (esd_tracegen,
// -capture-out=, esd_tracecvt), and the record errors of text and
// legacy v1 binary files, each dying with its own message.

using TraceIoTest = TraceFrontendTest;

/** Write @p want with TraceCaptureWriter in @p format, read it back. */
void
expectRoundTrip(const std::string &path, TraceFormat format,
                const std::vector<TraceRecord> &want)
{
    TraceConfig tc;
    tc.format = format;
    TraceCaptureWriter writer(path, tc);
    for (const TraceRecord &r : want)
        writer.write(r);
    writer.close();
    EXPECT_EQ(writer.count(), want.size());
    expectSameRecords(want, drain(path));
}

TEST_F(TraceIoTest, TextRoundTrip)
{
    expectRoundTrip(file("rt.trace"), TraceFormat::Text,
                    synthesize("wrf", 9, 200));
}

TEST_F(TraceIoTest, BinaryRoundTrip)
{
    expectRoundTrip(file("rt.bin"), TraceFormat::Binary,
                    synthesize("facesim", 10, 500));
}

TEST_F(TraceIoTest, ReaderResetRestarts)
{
    TraceRecord w;
    w.op = OpType::Write;
    w.addr = 0x1240;
    w.icount = 5;
    w.data.setWord(0, 77);
    std::string path = writeFile(file("one.bin"), encodeV1({w}));
    TraceConfig tc;
    TraceFrontend f(path, tc);
    TraceRecord got;
    ASSERT_TRUE(f.next(got));
    EXPECT_FALSE(f.next(got));
    f.reset();
    ASSERT_TRUE(f.next(got));
    EXPECT_EQ(got.addr, 0x1240u);
    EXPECT_EQ(got.data.word(0), 77u);
    EXPECT_FALSE(f.next(got));
}

TEST_F(TraceIoTest, TextBadHexAddressIsFatal)
{
    std::string p = writeFile(
        file("addr.trace"),
        "W zzzz " + std::string(kLineSize * 2, '0') + " 10\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":1: bad hex address 'zzzz'");
    // 17 hex digits do not fit in an address: refused, not wrapped.
    p = writeFile(file("wide.trace"), "R 10000000000000000 10\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                "bad hex address '10000000000000000'");
}

TEST_F(TraceIoTest, TextTrailingGarbageAddressIsFatal)
{
    std::string p = writeFile(file("g.trace"), "R 40 10\nR 12g4 10\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":2: bad hex address '12g4'");
}

TEST_F(TraceIoTest, TextBadOpIsFatal)
{
    // Neither token is an op, so the record is read in Ramulator order
    // (address first) and its second token is the bad op.
    std::string p = writeFile(file("op.trace"), "X 40 10\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":1: bad op '40'");
}

TEST_F(TraceIoTest, BinaryBadMagicIsFatal)
{
    // Formats are sniffed, never assumed: without the ESDT magic the
    // file is text, and "NOPE" is not a record.
    std::string p = writeFile(file("nope.bin"), "NOPE");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":1: malformed record");
}

TEST_F(TraceIoTest, BinaryTruncatedRecordIsFatal)
{
    TraceRecord r;
    r.op = OpType::Read;
    r.addr = 0x40;
    std::string bytes = encodeV1({r, r});
    bytes.resize(bytes.size() - 2);
    EXPECT_EXIT(drain(writeFile(file("cut.bin"), bytes)),
                ::testing::ExitedWithCode(1), "truncated record");
}

TEST_F(TraceIoTest, BinaryTruncatedPayloadIsFatal)
{
    TraceRecord r;
    r.op = OpType::Write;
    r.addr = 0x80;
    r.data.setWord(0, 42);
    std::string bytes = encodeV1({r});
    bytes.resize(bytes.size() - 8);
    EXPECT_EXIT(drain(writeFile(file("cutw.bin"), bytes)),
                ::testing::ExitedWithCode(1), "truncated write payload");
}

TEST_F(TraceIoTest, BinaryBadOpByteIsFatal)
{
    // A bad op in the first record reads as a version byte; in a later
    // v1 record it is a bad op (1 + 8 + 4 bytes per read record).
    TraceRecord r;
    r.op = OpType::Read;
    r.addr = 0x40;
    std::string bytes = encodeV1({r, r});
    bytes[4 + 13] = 7;
    EXPECT_EXIT(drain(writeFile(file("op.bin"), bytes)),
                ::testing::ExitedWithCode(1), "bad op byte 7");
}

using TraceIoDeath = TraceFrontendTest;

TEST_F(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(drain("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1),
                "cannot open trace file '/nonexistent/trace.txt'");
}

TEST_F(TraceIoDeath, MalformedOpIsFatal)
{
    // Address first (Ramulator order) with a bad op token.
    std::string p = writeFile(file("op2.trace"), "# c\n40 X 12\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":2: bad op 'X'");
}

TEST_F(TraceIoDeath, TruncatedWriteDataIsFatal)
{
    // One hex digit short of a line. A token of 16 characters or fewer
    // is an icount, so "deadbeef" in the same place is a bad icount.
    std::string p = writeFile(
        file("short.trace"),
        "W 40 " + std::string(kLineSize * 2 - 1, 'a') + " 12\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                "write payload must be 128 hex chars \\(got 127\\)");
    p = writeFile(file("short2.trace"), "W 40 deadbeef 12\n");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                "bad icount 'deadbeef'");
}

TEST_F(TraceIoDeath, NotABinaryTraceIsFatal)
{
    // No magic, so the file is parsed as text and refused by line.
    std::string p = writeFile(file("plain.bin"), "plain text");
    EXPECT_EXIT(drain(p), ::testing::ExitedWithCode(1),
                ":1: bad op 'text'");
}

} // namespace
} // namespace esd
