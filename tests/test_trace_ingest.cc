/**
 * @file
 * Buffered-ingest edge cases for the trace frontend.
 *
 * TraceFrontend reads through a 64 KiB ByteStream buffer and scans
 * text lines in place, and GzipByteStream inflates a chunk per call.
 * These tests pin what must not change with the chunk size:
 *
 *   - records, CRLF line ends and over-long lines that straddle a
 *     buffer boundary decode (or are refused) exactly as elsewhere;
 *   - unread() after a buffered read hands the pushed-back bytes out
 *     first, with or without head room in front of the buffer;
 *   - trailing bytes after a gzip member stay fatal past the first
 *     chunk;
 *   - on a fixed corrupt-trace corpus every diagnostic, line number
 *     and decoded record stream is the one that one-byte reads gave
 *     (a digest recorded before the buffer existed).
 *
 * The TraceFrontendAsync tests pin what must not change with the
 * background decoder (gzip at read_ahead >= kMinDecodeAheadBlock):
 * the same corpus at larger blocks, errors in a later block,
 * destruction and reset() mid-trace, next()/nextBatch() mixes across
 * blocks, and a trace that ends exactly on a block boundary.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <zlib.h>

#include "common/random.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace esd
{
namespace
{

constexpr std::size_t kChunk = 64 * 1024;

/** Write @p bytes to @p path; returns the path. */
std::string
writeFile(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path.string();
}

class TraceFrontendIngestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("esd_ingest_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    writeBytes(const char *name, const std::string &bytes) const
    {
        return writeFile(dir_ / name, bytes);
    }

    std::filesystem::path dir_;
};

/** One gzip member holding @p raw. */
std::string
gzipBytes(const std::string &raw)
{
    z_stream s{};
    EXPECT_EQ(deflateInit2(&s, Z_DEFAULT_COMPRESSION, Z_DEFLATED, 15 + 16,
                           8, Z_DEFAULT_STRATEGY),
              Z_OK);
    std::string out(deflateBound(&s, raw.size()), '\0');
    s.next_in = reinterpret_cast<Bytef *>(const_cast<char *>(raw.data()));
    s.avail_in = static_cast<uInt>(raw.size());
    s.next_out = reinterpret_cast<Bytef *>(out.data());
    s.avail_out = static_cast<uInt>(out.size());
    EXPECT_EQ(deflate(&s, Z_FINISH), Z_STREAM_END);
    out.resize(s.total_out);
    deflateEnd(&s);
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
hexLine(const CacheLine &line)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    for (std::size_t b = 0; b < kLineSize; ++b) {
        s.push_back(kDigits[line[b] >> 4]);
        s.push_back(kDigits[line[b] & 15]);
    }
    return s;
}

void
drain(const std::string &path)
{
    TraceConfig tc;
    TraceFrontend f(path, tc);
    TraceRecord rec;
    while (f.next(rec)) {
    }
}

std::vector<TraceRecord>
decodeAll(const std::string &path)
{
    TraceConfig tc;
    TraceFrontend f(path, tc);
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (f.next(rec))
        out.push_back(rec);
    return out;
}

/**
 * A text trace whose chosen lines straddle the first three 64 KiB
 * boundaries: a record at 1x, a CRLF end (the '\r' last in one chunk,
 * the '\n' first in the next) at 2x, and a 512-byte comment — the
 * longest legal line — at 3x. @p expect receives the records.
 */
void
straddlingText(std::string &text, std::vector<TraceRecord> &expect)
{
    Pcg32 rng(0x1e57, 0x5);
    // One record line (not yet appended) and its record.
    TraceRecord rec;
    std::string line;
    auto makeRecord = [&](const char *eol) {
        rec = TraceRecord{};
        rec.op = rng.chance(0.5) ? OpType::Write : OpType::Read;
        rec.addr = static_cast<Addr>(rng.next64() >> 8) * kLineSize;
        rec.icount = rng.below(1000);
        char head[64];
        std::snprintf(head, sizeof head, "%c %llx",
                      rec.op == OpType::Write ? 'W' : 'R',
                      static_cast<unsigned long long>(rec.addr));
        line = head;
        if (rec.op == OpType::Write) {
            rng.fillLine(rec.data);
            line += " " + hexLine(rec.data);
        }
        line += " " + std::to_string(rec.icount) + eol;
    };
    auto append = [&] {
        text += line;
        expect.push_back(rec);
    };
    // Records, then one comment, so that the next line starts at
    // offset @p start.
    auto padTo = [&](std::size_t start) {
        TraceRecord held = rec;
        std::string heldLine = line;
        while (text.size() + 400 < start) {
            makeRecord("\n");
            append();
        }
        rec = held;
        line = heldLine;
        std::size_t fill = start - text.size();
        text += "#" + std::string(fill - 2, 'p') + "\n";
    };

    makeRecord("\n");
    padTo(kChunk - 9);
    append();

    makeRecord("\r\n");
    padTo(2 * kChunk - (line.size() - 1));
    append();

    padTo(3 * kChunk - 100);
    text += "#" + std::string(kMaxTraceLine - 1, 'c') + "\n";
    makeRecord("\n");
    append();
}

void
expectSameRecords(const std::vector<TraceRecord> &want,
                  const std::vector<TraceRecord> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].op, got[i].op) << "record " << i;
        EXPECT_EQ(want[i].addr, got[i].addr) << "record " << i;
        EXPECT_EQ(want[i].icount, got[i].icount) << "record " << i;
        if (want[i].op == OpType::Write)
            EXPECT_TRUE(want[i].data == got[i].data) << "record " << i;
    }
}

TEST_F(TraceFrontendIngestTest, LinesStraddlingChunkBoundariesDecode)
{
    std::vector<TraceRecord> expect;
    std::string text;
    straddlingText(text, expect);
    ASSERT_EQ(text[kChunk - 9 - 1], '\n');
    ASSERT_EQ(text[2 * kChunk - 1], '\r');
    ASSERT_EQ(text[2 * kChunk], '\n');
    ASSERT_EQ(text[3 * kChunk - 100], '#');
    expectSameRecords(expect, decodeAll(writeBytes("s.trace", text)));
    // The inflated stream is buffered in the same 64 KiB chunks.
    expectSameRecords(expect,
                      decodeAll(writeBytes("s.gz", gzipBytes(text))));
}

TEST_F(TraceFrontendIngestTest, OverlongLineStraddlingBoundaryIsFatal)
{
    // Comment lines up to 100 bytes before the boundary, then a
    // 513-byte record line across it.
    std::string text;
    std::size_t lines = 0;
    while (text.size() + 600 < kChunk - 100) {
        text += "#" + std::string(498, 'p') + "\n";
        ++lines;
    }
    text += "#" + std::string(kChunk - 100 - text.size() - 2, 'p') + "\n";
    text += "W 40 " + std::string(kMaxTraceLine - 4, '0') + "\n";
    std::string want =
        ":" + std::to_string(lines + 2) + ": line exceeds 512 bytes";
    EXPECT_EXIT(drain(writeBytes("long.trace", text)),
                ::testing::ExitedWithCode(1), want);
    EXPECT_EXIT(drain(writeBytes("long.gz", gzipBytes(text))),
                ::testing::ExitedWithCode(1), want);
}

TEST_F(TraceFrontendIngestTest, UnreadAfterBufferedRead)
{
    std::string bytes(3 * kChunk + 17, '\0');
    Pcg32 rng(0xb0f, 0x7);
    for (char &c : bytes)
        c = static_cast<char>(rng.below(256));
    std::string path = writeBytes("raw.bin", bytes);

    detail::FileByteStream s(path);
    std::uint8_t head[4];
    ASSERT_EQ(s.read(head, 4), 4u);  // fills the whole first chunk
    s.unread(head, 4);               // the sniffer's put-back
    const std::uint8_t other[3] = {'x', 'y', 'z'};
    s.unread(other, 3);  // no head room left: the buffer moves up
    std::string got(bytes.size() + 3, '\0');
    std::size_t n = s.read(reinterpret_cast<std::uint8_t *>(got.data()),
                           10);
    n += s.read(reinterpret_cast<std::uint8_t *>(got.data()) + n,
                got.size() - n);
    ASSERT_EQ(n, got.size());
    EXPECT_EQ(got.substr(0, 3), "xyz");
    EXPECT_TRUE(got.substr(3) == bytes);

    // Put-back right after a read that drained the buffer, then at EOF.
    detail::FileByteStream t(path);
    std::string big(kChunk, '\0');
    ASSERT_EQ(t.read(reinterpret_cast<std::uint8_t *>(big.data()),
                     big.size()),
              kChunk);
    t.unread(reinterpret_cast<const std::uint8_t *>(big.data()) +
                 kChunk - 2,
             2);
    std::uint8_t two[2];
    ASSERT_EQ(t.read(two, 2), 2u);
    EXPECT_EQ(0, std::memcmp(two, bytes.data() + kChunk - 2, 2));
    std::string rest(bytes.size(), '\0');
    std::size_t m =
        t.read(reinterpret_cast<std::uint8_t *>(rest.data()), rest.size());
    ASSERT_EQ(m, bytes.size() - kChunk);
    EXPECT_EQ(0, std::memcmp(rest.data(), bytes.data() + kChunk, m));
    t.unread(two, 2);
    ASSERT_EQ(t.read(two, 2), 2u);
    EXPECT_EQ(t.read(two, 2), 0u);
}

TEST_F(TraceFrontendIngestTest, GzipTrailingBytesAfterLargeMemberFatal)
{
    std::vector<TraceRecord> expect;
    std::string text;
    straddlingText(text, expect);
    std::string gz = gzipBytes(text);
    EXPECT_EXIT(drain(writeBytes("tail.gz", gz + "junk")),
                ::testing::ExitedWithCode(1),
                "trailing bytes after gzip stream");
    // A single trailing byte too, and with the member's last line
    // unterminated.
    EXPECT_EXIT(drain(writeBytes("tail1.gz",
                                 gzipBytes("W 40 7\nR 80 9") + "\x01")),
                ::testing::ExitedWithCode(1),
                "trailing bytes after gzip stream");
}

// ------------------------------------------ corrupt-corpus diagnostics

std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Drain @p path in a forked child, @p readAhead records per block,
 * and describe the outcome: the first `fatal:` line (with the path
 * replaced by `<trace>`) or `ok`, followed by the record count and a
 * digest of the records delivered.
 */
std::string
outcome(const std::string &path, std::uint64_t readAhead)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "pipe failed";
    pid_t pid = ::fork();
    if (pid < 0)
        return "fork failed";
    if (pid == 0) {
        ::close(fds[0]);
        ::dup2(fds[1], 2);
        TraceConfig tc;
        tc.readAhead = readAhead;
        TraceFrontend f(path, tc);
        TraceRecord rec;
        std::uint64_t n = 0, h = 0xcbf29ce484222325ull;
        while (f.next(rec)) {
            ++n;
            std::uint8_t op = rec.op == OpType::Write ? 1 : 0;
            h = fnv1a(h, &op, 1);
            h = fnv1a(h, &rec.addr, sizeof rec.addr);
            h = fnv1a(h, &rec.icount, sizeof rec.icount);
            if (rec.op == OpType::Write)
                h = fnv1a(h, rec.data.data(), kLineSize);
            std::fprintf(stderr, "rec %llu %016llx\n",
                         static_cast<unsigned long long>(n),
                         static_cast<unsigned long long>(h));
        }
        std::fprintf(stderr, "ok\n");
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string err;
    char buf[4096];
    ssize_t got;
    while ((got = ::read(fds[0], buf, sizeof buf)) > 0)
        err.append(buf, static_cast<std::size_t>(got));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);

    std::string last = "none", verdict = "no verdict";
    std::istringstream lines(err);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("rec ", 0) == 0) {
            last = line;
        } else if (line == "ok" || line.rfind("fatal: ", 0) == 0) {
            verdict = line;
            break;
        }
    }
    for (std::size_t at; (at = verdict.find(path)) != std::string::npos;)
        verdict.replace(at, path.size(), "<trace>");
    return verdict + " | " + last + " | status " + std::to_string(status);
}

/** A small valid capture of @p records mcf records in @p format. */
std::string
capture(const std::filesystem::path &dir, TraceFormat format,
        int records)
{
    std::string path = (dir / "base").string();
    TraceConfig tc;
    tc.format = format;
    {
        TraceCaptureWriter writer(path, tc);
        SyntheticWorkload synth(findApp("mcf"), 5);
        TraceRecord rec;
        for (int i = 0; i < records; ++i) {
            synth.next(rec);
            writer.write(rec);
        }
    }
    return slurp(path);
}

/**
 * Drain a fixed corpus of 240 corrupt traces, @p readAhead records per
 * block, and digest every outcome() into @p digest; @p log lists them.
 */
void
corpusDigest(const std::filesystem::path &dir, std::uint64_t readAhead,
             std::uint64_t &digest, std::string &log)
{
    digest = 0;
    // Bases: the committed fixtures (so the gzip bytes do not depend on
    // the local deflate), plus uncompressed captures large enough to
    // cross a 64 KiB boundary.
    const std::string fixtures = std::string(ESD_SOURCE_DIR) +
                                 "/tests/traces/";
    std::vector<std::string> bases = {
        slurp(fixtures + "tiny.trace"), slurp(fixtures + "tiny.gz"),
        slurp(fixtures + "tiny.bin"), slurp(fixtures + "legacy_v1.bin"),
        capture(dir, TraceFormat::Text, 600),
        capture(dir, TraceFormat::Binary, 1200)};
    for (const std::string &b : bases)
        ASSERT_FALSE(b.empty());

    Pcg32 rng(0xd1a6, 0x11);
    digest = 0xcbf29ce484222325ull;
    for (int i = 0; i < 240; ++i) {
        std::string bytes = bases[i % bases.size()];
        switch (rng.below(5)) {
          case 0:  // truncate
            bytes.resize(rng.below(
                static_cast<std::uint32_t>(bytes.size() + 1)));
            break;
          case 1: {  // flip 1..8 bits
            unsigned flips = 1 + rng.below(8);
            for (unsigned f = 0; f < flips; ++f) {
                std::size_t at = rng.below(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[at] ^= static_cast<char>(1u << rng.below(8));
            }
            break;
          }
          case 2: {  // splice garbage
            std::size_t at =
                rng.below(static_cast<std::uint32_t>(bytes.size()));
            std::string junk(1 + rng.below(64), '\0');
            for (char &c : junk)
                c = static_cast<char>(rng.below(256));
            bytes.insert(at, junk);
            break;
          }
          case 3:  // trailing garbage
            bytes += std::string(1 + rng.below(4), '\x5a');
            break;
          default: {  // flip a bit near the first 64 KiB boundary
            std::size_t at = kChunk - 8 + rng.below(16);
            if (at < bytes.size())
                bytes[at] ^= static_cast<char>(1u << rng.below(8));
            break;
          }
        }
        std::string o = outcome(writeFile(dir / "mutant", bytes), readAhead);
        log += std::to_string(i) + ": " + o + "\n";
        digest = fnv1a(digest, o.data(), o.size());
    }
}

TEST_F(TraceFrontendIngestTest, CorruptCorpusDiagnosticsUnchanged)
{
    std::uint64_t digest;
    std::string log;
    corpusDigest(dir_, 1, digest, log);
    // Every record is reported before a fatal. Recorded with one-byte
    // reads (before the 64 KiB ingest buffer).
    EXPECT_EQ(digest, 0xeba4afd61f958fc3ull) << log;
}

// ------------------------------------------ background decoder
// Gzip traces with blocks of at least kMinDecodeAheadBlock records
// decode on a thread one block ahead of the consumer. What reaches the
// consumer, and when a fatal is raised, must not depend on that.

using TraceFrontendAsync = TraceFrontendIngestTest;

/** Threads alive in this process. A thread is started and joined
 * first, so helper threads a sanitizer runtime starts along with the
 * first thread are already counted. */
std::size_t
threadCount()
{
    std::thread([] {}).join();
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** FNV-1a digest of a whole drain of @p f through next(). */
std::uint64_t
drainDigest(TraceFrontend &f)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    TraceRecord rec;
    while (f.next(rec)) {
        h = fnv1a(h, &rec.op, sizeof rec.op);
        h = fnv1a(h, &rec.addr, sizeof rec.addr);
        h = fnv1a(h, &rec.icount, sizeof rec.icount);
        h = fnv1a(h, rec.data.data(), kLineSize);
    }
    return h;
}

TEST_F(TraceFrontendAsync, DestroyMidTraceJoinsDecoder)
{
    std::string path = writeBytes(
        "big.gz", capture(dir_, TraceFormat::Gzip, 200000));
    std::size_t before = threadCount();
    {
        TraceConfig tc;
        TraceFrontend f(path, tc);
        TraceRecord rec;
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(f.next(rec));
        EXPECT_EQ(threadCount(), before + 1);
    }
    EXPECT_EQ(threadCount(), before);
}

TEST_F(TraceFrontendAsync, ResetMidTraceMatchesFreshDrain)
{
    std::string path = writeBytes(
        "mid.gz", capture(dir_, TraceFormat::Gzip, 20000));
    TraceConfig tc;
    tc.readAhead = kMinDecodeAheadBlock;
    std::uint64_t fresh;
    {
        TraceFrontend f(path, tc);
        fresh = drainDigest(f);
    }
    TraceFrontend f(path, tc);
    TraceRecord rec;
    for (int stopAt : {1000, 5}) {
        for (int i = 0; i < stopAt; ++i)
            ASSERT_TRUE(f.next(rec));
        f.reset();
        EXPECT_EQ(drainDigest(f), fresh) << "reset after " << stopAt;
        f.reset();
    }
}

TEST_F(TraceFrontendAsync, CorruptCorpusDiagnosticsAtLargerBlocks)
{
    // A block holding a bad record is never delivered: the records
    // before it reach the consumer, then the fatal. Recorded at the
    // same read_ahead with every block decoded on demand, on the
    // consumer's thread.
    const std::pair<std::uint64_t, std::uint64_t> expected[] = {
        {7, 0xa4a9cc849eb3775cull},
        {64, 0x2cc22c5f20c667e0ull},
        {4096, 0xf802e5ec45aac085ull}};
    for (auto [readAhead, expect] : expected) {
        std::uint64_t digest;
        std::string log;
        corpusDigest(dir_, readAhead, digest, log);
        EXPECT_EQ(digest, expect)
            << "read_ahead " << readAhead << "\n" << log;
    }
}

/** Split an outcome() into its verdict and delivered-record count. */
std::pair<std::string, std::uint64_t>
verdictAndCount(const std::string &o)
{
    std::size_t bar = o.find(" | ");
    std::uint64_t n = 0;
    if (o.compare(bar + 3, 4, "rec ") == 0)
        n = std::stoull(o.substr(bar + 7));
    return {o.substr(0, bar), n};
}

TEST_F(TraceFrontendAsync, ErrorInLaterBlockDeliversWholeBlocksFirst)
{
    // A bad record and a truncated gzip stream, each several blocks
    // in. Decoded ahead, the records of every whole block before the
    // bad one arrive, then the same fatal that record-at-a-time
    // decoding raises after the records before the error.
    const std::uint64_t block = kMinDecodeAheadBlock;
    std::string text = capture(dir_, TraceFormat::Text, 3000);
    std::string gz = gzipBytes(text);
    const std::string cases[] = {
        gzipBytes(text + "W zz 100\n" + text),
        gz.substr(0, gz.size() * 3 / 4)};
    for (const std::string &bytes : cases) {
        std::string path = writeBytes("late.gz", bytes);
        auto [verdict, n] = verdictAndCount(outcome(path, 1));
        ASSERT_EQ(verdict.rfind("fatal: ", 0), 0u) << verdict;
        ASSERT_GT(n, 2 * block);
        auto [aheadVerdict, aheadN] = verdictAndCount(outcome(path, block));
        EXPECT_EQ(aheadVerdict, verdict);
        EXPECT_EQ(aheadN, n / block * block);
    }
    // The same bad record in plain text, decoded on demand in blocks
    // of the same size, gives the identical outcome.
    std::string plain = text + "W zz 100\n" + text;
    EXPECT_EQ(outcome(writeBytes("late.gz", gzipBytes(plain)), block),
              outcome(writeBytes("late.trace", plain), block));
}

TEST_F(TraceFrontendAsync, InterleavedNextAndBatchAcrossBlocks)
{
    const std::size_t records = 3 * kMinDecodeAheadBlock + 100;
    std::string text =
        capture(dir_, TraceFormat::Text, static_cast<int>(records));
    const std::string paths[] = {writeBytes("mix.trace", text),
                                 writeBytes("mix.gz", gzipBytes(text))};
    std::vector<TraceRecord> expect = decodeAll(paths[0]);
    ASSERT_EQ(expect.size(), records);
    for (std::uint64_t readAhead : {std::uint64_t{7}, kMinDecodeAheadBlock}) {
        for (const std::string &path : paths) {
            TraceConfig tc;
            tc.readAhead = readAhead;
            TraceFrontend f(path, tc);
            std::vector<TraceRecord> got;
            TraceRecord batch[13];
            for (std::size_t step = 0;; ++step) {
                if (step % 2 == 0) {
                    if (!f.next(batch[0]))
                        break;
                    got.push_back(batch[0]);
                } else {
                    std::size_t n = f.nextBatch(batch, 1 + step % 13);
                    if (n == 0)
                        break;
                    got.insert(got.end(), batch, batch + n);
                }
            }
            expectSameRecords(expect, got);
            EXPECT_EQ(f.recordsDecoded(), records);
        }
    }
}

TEST_F(TraceFrontendAsync, ExactMultipleOfBlockEndsCleanly)
{
    const std::uint64_t block = kMinDecodeAheadBlock;
    std::string text =
        capture(dir_, TraceFormat::Text, static_cast<int>(4 * block));
    for (const std::string &path :
         {writeBytes("exact.trace", text),
          writeBytes("exact.gz", gzipBytes(text))}) {
        std::size_t before = threadCount();
        TraceConfig tc;
        tc.readAhead = block;
        TraceFrontend f(path, tc);
        TraceRecord rec;
        std::uint64_t n = 0;
        while (f.next(rec))
            ++n;
        EXPECT_EQ(n, 4 * block);
        EXPECT_FALSE(f.next(rec));
        EXPECT_EQ(f.nextBatch(&rec, 1), 0u);
        EXPECT_EQ(f.recordsDecoded(), 4 * block);
        EXPECT_EQ(f.peakBufferedRecords(), block);
        // The decoder is joined once the trace has been handed over.
        EXPECT_EQ(threadCount(), before);
    }
}

} // namespace
} // namespace esd
