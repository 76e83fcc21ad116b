#include "trace/trace_frontend.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstring>

#include <zlib.h>

#include "common/logging.hh"

/** esd_fatal, except inside decodeBlock(), where the error is captured
 * with its position and raised later by the consumer. */
#define trace_fatal(...) \
    ::esd::traceFatal(__FILE__, __LINE__, ::esd::detail::format(__VA_ARGS__))

namespace esd
{

namespace
{

/** A fatal decode error in flight from trace_fatal to decodeBlock(). */
struct DecodeError
{
    const char *file;
    int line;
    std::string msg;
};

/** Set on the thread running decodeBlock(). */
thread_local bool capturingErrors = false;

[[noreturn]] void
traceFatal(const char *file, int line, std::string msg)
{
    if (capturingErrors)
        throw DecodeError{file, line, std::move(msg)};
    detail::fatalImpl(file, line, msg);
}

/**
 * Wait until @p ready() holds: yield for a while, then poll every
 * 50 us. A sleeping thread is never woken by the other side, so the
 * scheduler keeps the decoder and the consumer on separate CPUs.
 */
template <typename Ready>
void
waitUntil(Ready ready)
{
    for (int spins = 0; !ready();) {
        if (spins < 64) {
            ++spins;
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }
}

constexpr char kMagic[4] = {'E', 'S', 'D', 'T'};

/** Compressed-side window the gzip inflater reads through. */
constexpr std::size_t kGzipChunk = 64 * 1024;

/** Read buffer of every ByteStream (raw file bytes or inflated ones). */
constexpr std::size_t kStreamChunk = 64 * 1024;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Nibble value of every byte: 0..15 for a hex digit, -1 otherwise. */
constexpr std::array<std::int8_t, 256> kHexNibble = [] {
    std::array<std::int8_t, 256> t{};
    for (unsigned c = 0; c < 256; ++c) {
        if (c >= '0' && c <= '9')
            t[c] = static_cast<std::int8_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            t[c] = static_cast<std::int8_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            t[c] = static_cast<std::int8_t>(c - 'A' + 10);
        else
            t[c] = -1;
    }
    return t;
}();

int
hexVal(char c)
{
    return kHexNibble[static_cast<unsigned char>(c)];
}

/**
 * Parse @p tok as a whole unsigned number in @p base (10 or 16):
 * leading C-locale whitespace, then digits, for base 16 after an
 * optional 0x/0X prefix. A sign is refused — a trace address or icount
 * is never negative, and "-40" must not wrap to 0xffffffffffffffc0.
 * False when any character is left over or the magnitude overflows 64
 * bits.
 */
bool
parseUnsigned(std::string_view tok, int base, std::uint64_t &out)
{
    std::size_t i = 0;
    while (i < tok.size() && (tok[i] == ' ' || (tok[i] >= '\t' &&
                                                 tok[i] <= '\r')))
        ++i;
    if (base == 16 && i + 2 < tok.size() && tok[i] == '0' &&
        (tok[i + 1] == 'x' || tok[i + 1] == 'X') &&
        hexVal(tok[i + 2]) >= 0)
        i += 2;
    const char *first = tok.data() + i;
    const char *last = tok.data() + tok.size();
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(first, last, v, base);
    if (ec != std::errc() || end != last)
        return false;
    out = v;
    return true;
}

std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

bool
isOpToken(std::string_view tok)
{
    return tok.size() == 1 &&
           (tok[0] == 'W' || tok[0] == 'w' || tok[0] == 'R' ||
            tok[0] == 'r');
}

} // namespace

TraceFormat
detectTraceFormat(const std::string &path)
{
    detail::FileByteStream in(path);
    std::uint8_t head[4];
    std::size_t got = in.read(head, 4);
    if (got >= 2 && head[0] == 0x1f && head[1] == 0x8b)
        return TraceFormat::Gzip;
    if (got == 4 && std::memcmp(head, kMagic, 4) == 0)
        return TraceFormat::Binary;
    return TraceFormat::Text;
}

CacheLine
synthesizeLineContent(Addr addr, std::uint64_t windex)
{
    CacheLine line;
    std::uint64_t state = splitmix64(splitmix64(addr) ^ windex);
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        state = splitmix64(state);
        line.setWord(w, state);
    }
    return line;
}

namespace detail
{

ByteStream::ByteStream(std::string path)
    : path_(std::move(path)), buf_(kStreamChunk)
{
}

std::size_t
ByteStream::read(std::uint8_t *out, std::size_t n)
{
    std::size_t served = 0;
    while (served < n) {
        std::string_view buf = peek();
        if (buf.empty())
            break;
        std::size_t take = std::min(n - served, buf.size());
        std::memcpy(out + served, buf.data(), take);
        consume(take);
        served += take;
    }
    return served;
}

bool
ByteStream::readExact(std::uint8_t *out, std::size_t n, const char *what)
{
    std::size_t got = read(out, n);
    if (got == 0)
        return false;
    if (got < n)
        trace_fatal("'%s': truncated %s (wanted %zu bytes, got %zu)",
                    path_.c_str(), what, n, got);
    return true;
}

void
ByteStream::unread(const std::uint8_t *data, std::size_t n)
{
    if (n > pos_) {
        // No room in front of the unread bytes: move them up.
        std::size_t live = end_ - pos_;
        std::vector<std::uint8_t> grown(std::max(buf_.size(), n + live));
        std::memcpy(grown.data() + n, buf_.data() + pos_, live);
        buf_.swap(grown);
        pos_ = n;
        end_ = n + live;
    }
    pos_ -= n;
    std::memcpy(buf_.data() + pos_, data, n);
}

std::string_view
ByteStream::peek()
{
    if (pos_ == end_) {
        pos_ = 0;
        end_ = fill(buf_.data(), buf_.size());
    }
    return {reinterpret_cast<const char *>(buf_.data()) + pos_,
            end_ - pos_};
}

FileByteStream::FileByteStream(const std::string &path) : ByteStream(path)
{
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_)
        esd_fatal("cannot open trace file '%s'", path.c_str());
}

FileByteStream::~FileByteStream()
{
    if (f_)
        std::fclose(f_);
}

std::size_t
FileByteStream::fill(std::uint8_t *out, std::size_t n)
{
    std::size_t got = std::fread(out, 1, n, f_);
    if (got < n && std::ferror(f_))
        trace_fatal("read error on trace file '%s'", path_.c_str());
    return got;
}

struct GzipByteStream::ZState
{
    z_stream strm{};
    std::uint8_t in[kGzipChunk];
    bool innerEof = false;
    bool finished = false;
    std::string pendingFatal;  ///< raised by the next fill()
};

GzipByteStream::GzipByteStream(std::unique_ptr<ByteStream> inner)
    : ByteStream(inner->path()), inner_(std::move(inner)),
      z_(std::make_unique<ZState>())
{
    // 15 window bits + 16 = gzip wrapper only (the sniffer saw the
    // 0x1f 0x8b gzip magic before routing here).
    if (inflateInit2(&z_->strm, 15 + 16) != Z_OK)
        esd_fatal("cannot initialize gzip inflater for '%s'",
                  path_.c_str());
}

GzipByteStream::~GzipByteStream()
{
    inflateEnd(&z_->strm);
}

std::size_t
GzipByteStream::deferFatal(std::size_t produced, std::string msg)
{
    if (produced <= 1)
        trace_fatal("%s", msg.c_str());
    z_->pendingFatal = std::move(msg);
    return produced - 1;
}

std::size_t
GzipByteStream::fill(std::uint8_t *out, std::size_t n)
{
    if (!z_->pendingFatal.empty())
        trace_fatal("%s", z_->pendingFatal.c_str());
    if (z_->finished)
        return 0;
    z_stream &s = z_->strm;
    s.next_out = out;
    s.avail_out = static_cast<uInt>(n);
    while (s.avail_out > 0) {
        if (s.avail_in == 0 && !z_->innerEof) {
            std::size_t got = inner_->read(z_->in, kGzipChunk);
            s.next_in = z_->in;
            s.avail_in = static_cast<uInt>(got);
            if (got == 0)
                z_->innerEof = true;
        }
        uInt before = s.avail_out;
        int rc = inflate(&s, Z_NO_FLUSH);
        std::size_t produced = n - s.avail_out;
        if (rc == Z_STREAM_END) {
            // A concatenated member would start here; single-member
            // streams are what the capture side writes. Trailing
            // garbage after the member is a corruption signal.
            if (s.avail_in > 0 || inner_->read(z_->in, 1) > 0)
                return deferFatal(
                    produced,
                    detail::format("'%s': trailing bytes after gzip "
                                   "stream", path_.c_str()));
            z_->finished = true;
            break;
        }
        if (rc != Z_OK && rc != Z_BUF_ERROR)
            return deferFatal(
                produced,
                detail::format("'%s': corrupt gzip stream (%s)",
                               path_.c_str(),
                               s.msg ? s.msg : zError(rc)));
        if (s.avail_out == before && z_->innerEof) {
            // Hand out what was inflated; the next call finds no more.
            if (produced > 0)
                return produced;
            trace_fatal("'%s': gzip stream ends mid-member (truncated?)",
                        path_.c_str());
        }
    }
    return n - s.avail_out;
}

} // namespace detail

TraceFrontend::TraceFrontend(const std::string &path,
                             const TraceConfig &cfg)
    : path_(path), cfg_(cfg)
{
    if (cfg_.readAhead == 0)
        cfg_.readAhead = 1;
    open();
}

TraceFrontend::~TraceFrontend()
{
    stopDecoder();
}

void
TraceFrontend::open()
{
    lineSpill_.clear();
    lineNo_ = 0;
    writesSeen_ = 0;
    binary_ = false;
    binVersion_ = 0;
    binPayloads_ = true;
    pos_ = end_ = nullptr;
    blocksTaken_ = 0;
    done_ = false;
    full_[0] = full_[1] = false;
    stop_ = false;
    readHeader();
    if (decodesAhead())
        decoder_ = std::thread(&TraceFrontend::decoderLoop, this);
}

void
TraceFrontend::readHeader()
{
    in_ = std::make_unique<detail::FileByteStream>(path_);
    format_ = TraceFormat::Text;

    std::uint8_t head[2];
    std::size_t got = in_->read(head, 2);
    if (got == 2 && head[0] == 0x1f && head[1] == 0x8b) {
        in_->unread(head, 2);
        in_ = std::make_unique<detail::GzipByteStream>(std::move(in_));
        format_ = TraceFormat::Gzip;
    } else {
        in_->unread(head, got);
    }

    // Sniff the (possibly inflated) record stream for the binary magic.
    std::uint8_t magic[4];
    got = in_->read(magic, 4);
    binary_ = got == 4 && std::memcmp(magic, kMagic, 4) == 0;
    if (!binary_) {
        in_->unread(magic, got);
        return;
    }
    if (format_ != TraceFormat::Gzip)
        format_ = TraceFormat::Binary;

    // Version byte. Legacy v1 streams have no header: the byte after
    // the magic is the first record's op (0 or 1), which no versioned
    // header ever uses as its version.
    std::uint8_t ver;
    got = in_->read(&ver, 1);
    if (got == 0) {
        binVersion_ = 1;  // empty legacy trace: magic then EOF
        return;
    }
    if (ver <= 1) {
        in_->unread(&ver, 1);
        binVersion_ = 1;
        return;
    }
    if (ver > kBinaryTraceVersion)
        esd_fatal("'%s': unsupported trace version %u (this build reads "
                  "<= %u)", path_.c_str(), static_cast<unsigned>(ver),
                  static_cast<unsigned>(kBinaryTraceVersion));
    binVersion_ = ver;
    std::uint8_t rest[3];  // flags u8 + reserved u16
    if (!in_->readExact(rest, 3, "binary trace header"))
        esd_fatal("'%s': truncated binary trace header", path_.c_str());
    if (rest[0] & ~1u)
        esd_fatal("'%s': unknown trace flags 0x%02x", path_.c_str(),
                  static_cast<unsigned>(rest[0]));
    if (rest[1] != 0 || rest[2] != 0)
        esd_fatal("'%s': corrupt binary trace header (reserved bytes "
                  "set)", path_.c_str());
    binPayloads_ = rest[0] & 1;
}

bool
TraceFrontend::readLine(std::string_view &line)
{
    // Fast case: the whole line sits in the stream buffer and is
    // returned in place. A line that straddles a refill is assembled
    // in lineSpill_. At most kMaxTraceLine + 1 bytes are scanned
    // before an over-long line is refused.
    lineSpill_.clear();
    while (true) {
        std::string_view buf = in_->peek();
        if (buf.empty()) {
            line = lineSpill_;
            return !lineSpill_.empty();
        }
        std::size_t scan =
            std::min(buf.size(), kMaxTraceLine + 1 - lineSpill_.size());
        const void *nl = std::memchr(buf.data(), '\n', scan);
        if (nl) {
            std::size_t len =
                static_cast<std::size_t>(static_cast<const char *>(nl) -
                                         buf.data());
            if (lineSpill_.empty()) {
                line = buf.substr(0, len);
            } else {
                lineSpill_.append(buf.data(), len);
                line = lineSpill_;
            }
            in_->consume(len + 1);
            return true;
        }
        lineSpill_.append(buf.data(), scan);
        in_->consume(scan);
        if (lineSpill_.size() > kMaxTraceLine)
            trace_fatal("%s:%llu: line exceeds %zu bytes", path_.c_str(),
                        static_cast<unsigned long long>(lineNo_ + 1),
                        kMaxTraceLine);
    }
}

bool
TraceFrontend::decodeText(TraceRecord &rec)
{
    std::string_view line;
    while (readLine(line)) {
        ++lineNo_;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);

        // Comments and blanks: decided before tokenization so a long
        // banner comment is never mistaken for an over-long record.
        std::size_t first = 0;
        while (first < line.size() &&
               (line[first] == ' ' || line[first] == '\t'))
            ++first;
        if (first >= line.size() || line[first] == '#')
            continue;

        // Tokenize on whitespace; at most four fields are legal.
        std::string_view toks[5];
        std::size_t ntok = 0;
        std::size_t i = first;
        while (i < line.size()) {
            while (i < line.size() &&
                   (line[i] == ' ' || line[i] == '\t'))
                ++i;
            if (i >= line.size())
                break;
            std::size_t start = i;
            while (i < line.size() && line[i] != ' ' && line[i] != '\t')
                ++i;
            if (ntok == 5)
                trace_fatal("%s:%llu: trailing junk on record",
                            path_.c_str(),
                            static_cast<unsigned long long>(lineNo_));
            toks[ntok++] = line.substr(start, i - start);
        }
        if (ntok > 4)
            trace_fatal("%s:%llu: trailing junk on record", path_.c_str(),
                        static_cast<unsigned long long>(lineNo_));

        // Two token orders: canonical `<op> <addr> ...` and
        // Ramulator-style `<addr> <op> ...`.
        std::string_view opTok, addrTok;
        if (isOpToken(toks[0])) {
            if (ntok < 2)
                trace_fatal("%s:%llu: malformed record", path_.c_str(),
                            static_cast<unsigned long long>(lineNo_));
            opTok = toks[0];
            addrTok = toks[1];
        } else {
            if (ntok < 2)
                trace_fatal("%s:%llu: malformed record", path_.c_str(),
                            static_cast<unsigned long long>(lineNo_));
            if (!isOpToken(toks[1]))
                trace_fatal("%s:%llu: bad op '%.*s'", path_.c_str(),
                            static_cast<unsigned long long>(lineNo_),
                            static_cast<int>(toks[1].size()),
                            toks[1].data());
            addrTok = toks[0];
            opTok = toks[1];
        }
        rec.op = (opTok[0] == 'W' || opTok[0] == 'w') ? OpType::Write
                                                      : OpType::Read;
        if (!parseUnsigned(addrTok, 16, rec.addr))
            trace_fatal("%s:%llu: bad hex address '%.*s'", path_.c_str(),
                        static_cast<unsigned long long>(lineNo_),
                        static_cast<int>(addrTok.size()), addrTok.data());

        // Remaining tokens: optional 128-hex-char payload, then an
        // optional decimal icount. A long token that is not exactly a
        // full line of hex is a malformed payload, not an icount.
        std::size_t r = 2;
        bool havePayload = false;
        if (r < ntok && toks[r].size() > 16) {
            std::string_view d = toks[r];
            if (d.size() != kLineSize * 2)
                trace_fatal("%s:%llu: write payload must be %zu hex chars "
                            "(got %zu)", path_.c_str(),
                            static_cast<unsigned long long>(lineNo_),
                            kLineSize * 2, d.size());
            for (std::size_t b = 0; b < kLineSize; ++b) {
                int hi = hexVal(d[b * 2]);
                int lo = hexVal(d[b * 2 + 1]);
                if (hi < 0 || lo < 0)
                    trace_fatal("%s:%llu: bad hex data", path_.c_str(),
                                static_cast<unsigned long long>(lineNo_));
                rec.data[b] =
                    static_cast<std::uint8_t>((hi << 4) | lo);
            }
            havePayload = true;
            ++r;
        }
        rec.icount = 100;
        if (r < ntok) {
            std::string_view ic = toks[r];
            std::uint64_t v = 0;
            if (!parseUnsigned(ic, 10, v) || v > 0xffffffffull)
                trace_fatal("%s:%llu: bad icount '%.*s'", path_.c_str(),
                            static_cast<unsigned long long>(lineNo_),
                            static_cast<int>(ic.size()), ic.data());
            rec.icount = static_cast<std::uint32_t>(v);
            ++r;
        }
        if (r < ntok)
            trace_fatal("%s:%llu: trailing junk on record", path_.c_str(),
                        static_cast<unsigned long long>(lineNo_));

        if (rec.op == OpType::Write) {
            if (!havePayload)
                rec.data = synthesizeLineContent(rec.addr, writesSeen_);
            ++writesSeen_;
        } else {
            rec.data = CacheLine{};
        }
        return true;
    }
    return false;
}

bool
TraceFrontend::decodeBinary(TraceRecord &rec)
{
    if (binVersion_ <= 1) {
        // Legacy v1: no header, records [u8 op][u64 addr][u32 icount]
        // then a 64 B payload for writes only.
        std::uint8_t op;
        if (!in_->readExact(&op, 1, "record"))
            return false;
        if (op > 1)
            trace_fatal("'%s': bad op byte %u (corrupt trace?)",
                        path_.c_str(), static_cast<unsigned>(op));
        std::uint8_t fixed[12];
        if (!in_->readExact(fixed, 12, "record"))
            trace_fatal("'%s': truncated record", path_.c_str());
        rec.op = op ? OpType::Write : OpType::Read;
        rec.addr = loadLe64(fixed);
        rec.icount = loadLe32(fixed + 8);
        if (rec.op == OpType::Write) {
            if (!in_->readExact(rec.data.data(), kLineSize,
                                "write payload"))
                trace_fatal("'%s': truncated write payload",
                            path_.c_str());
            ++writesSeen_;
        } else {
            rec.data = CacheLine{};
        }
        return true;
    }

    // v2: length-prefixed records.
    std::uint8_t len;
    if (!in_->readExact(&len, 1, "record"))
        return false;
    if (len != kBinaryRecordNoPayload && len != kBinaryRecordPayload)
        trace_fatal("'%s': bad record length %u (expected %zu or %zu)",
                    path_.c_str(), static_cast<unsigned>(len),
                    kBinaryRecordNoPayload, kBinaryRecordPayload);
    std::uint8_t body[kBinaryRecordPayload];
    if (!in_->readExact(body, len, "record"))
        trace_fatal("'%s': truncated record", path_.c_str());
    if (body[0] > 1)
        trace_fatal("'%s': bad op byte %u (corrupt trace?)", path_.c_str(),
                    static_cast<unsigned>(body[0]));
    rec.op = body[0] ? OpType::Write : OpType::Read;
    rec.addr = loadLe64(body + 1);
    rec.icount = loadLe32(body + 9);
    if (rec.op == OpType::Write) {
        if (len == kBinaryRecordPayload) {
            rec.data = CacheLine(body + kBinaryRecordNoPayload);
        } else {
            rec.data = synthesizeLineContent(rec.addr, writesSeen_);
        }
        ++writesSeen_;
    } else {
        rec.data = CacheLine{};
    }
    return true;
}

bool
TraceFrontend::decodeOne(TraceRecord &rec)
{
    return binary_ ? decodeBinary(rec) : decodeText(rec);
}

void
TraceFrontend::decodeBlock(Block &b)
{
    b.records.clear();
    b.errFile = nullptr;
    capturingErrors = true;
    try {
        TraceRecord rec;
        while (b.records.size() < cfg_.readAhead &&
               !stop_.load(std::memory_order_relaxed) && decodeOne(rec))
            b.records.push_back(rec);
    } catch (DecodeError &e) {
        b.errFile = e.file;
        b.errLine = e.line;
        b.errMsg = std::move(e.msg);
    }
    capturingErrors = false;
    b.last = b.errFile || b.records.size() < cfg_.readAhead;
}

void
TraceFrontend::decoderLoop()
{
    for (std::uint64_t k = 0;; ++k) {
        std::atomic<bool> &full = full_[k % 2];
        waitUntil([&] {
            return !full.load(std::memory_order_acquire) ||
                   stop_.load(std::memory_order_relaxed);
        });
        if (stop_.load(std::memory_order_relaxed))
            return;
        Block &b = slots_[k % 2];
        decodeBlock(b);
        full.store(true, std::memory_order_release);
        if (b.last)
            return;
    }
}

void
TraceFrontend::stopDecoder()
{
    if (!decoder_.joinable())
        return;
    stop_.store(true, std::memory_order_relaxed);
    decoder_.join();
}

/** Make the next block current (false at the end of the trace), or
 * raise the error that ended decoding. */
bool
TraceFrontend::advance()
{
    pos_ = end_ = nullptr;
    if (done_)
        return false;
    std::size_t i = blocksTaken_ % 2;
    if (!decodesAhead()) {
        i = 0;  // decoded here, on demand: one slot is enough
        decodeBlock(slots_[i]);
    } else {
        // Hand the drained slot back, then take the next one.
        if (blocksTaken_ > 0)
            full_[1 - i].store(false, std::memory_order_release);
        waitUntil(
            [&] { return full_[i].load(std::memory_order_acquire); });
    }
    const Block &b = slots_[i];
    ++blocksTaken_;
    if (b.last) {
        done_ = true;
        stopDecoder();
        if (b.errFile)
            detail::fatalImpl(b.errFile, b.errLine, b.errMsg);
    }
    decoded_ += b.records.size();
    peakBuffered_ = std::max(peakBuffered_, b.records.size());
    pos_ = b.records.data();
    end_ = pos_ + b.records.size();
    return pos_ != end_;
}

bool
TraceFrontend::next(TraceRecord &rec)
{
    if (pos_ == end_ && !advance())
        return false;
    rec = *pos_++;
    return true;
}

std::size_t
TraceFrontend::nextBatch(TraceRecord *out, std::size_t max)
{
    if (pos_ == end_ && !advance())
        return 0;
    std::size_t n = std::min(max, static_cast<std::size_t>(end_ - pos_));
    std::copy_n(pos_, n, out);
    pos_ += n;
    return n;
}

void
TraceFrontend::reset()
{
    stopDecoder();
    open();
}

} // namespace esd
