/**
 * @file
 * Streaming real-trace frontend.
 *
 * TraceFrontend turns an on-disk memory trace into a TraceSource
 * without ever materializing the trace in RAM: bytes are pulled
 * through a bounded chunk buffer and decoded in blocks of
 * `[trace] read_ahead` records. Gzip traces with blocks of at least
 * kMinDecodeAheadBlock records are decoded on a background thread, one
 * block ahead of the consumer, so at most two blocks (2 x read_ahead
 * records) are held at any time and memory stays constant at any trace
 * length. Everything else decodes on the consumer's thread, one block
 * at a time.
 *
 * Three on-disk formats are accepted, auto-detected from the first
 * bytes of the file (never from the extension):
 *
 *   - **text** — one record per line, `#` comments. Two token orders
 *     are understood: the repo's canonical
 *     `<W|R> <hex addr> [<128 hex data>] <icount>` and the
 *     Ramulator2-style `<hex addr> <W|R> [<128 hex data>] [<icount>]`
 *     (icount defaults to 100 when absent). The data token is optional
 *     for writes in both orders: address-only traces are valid.
 *   - **gzip** — a zlib/gzip stream (magic 0x1f 0x8b) inflated on the
 *     fly through a fixed 64 KB window, a chunk at a time; the
 *     inflated content is sniffed again, so both gzip'd text and
 *     gzip'd binary work.
 *   - **binary** — `ESDT` magic. Version 2 carries a versioned header
 *     (version byte, flags byte with the line-payload bit, reserved
 *     u16) and length-prefixed records
 *     `[u8 len][u8 op][u64 addr][u32 icount][64 B payload?]`. Legacy
 *     v1 files still decode: after the magic they have no header, only
 *     records `[u8 op][u64 addr][u32 icount]` followed, for writes
 *     only, by the 64 B payload. Their first post-magic byte is an op,
 *     0/1, which no v2 version byte can be.
 *
 * Write records that carry no payload get deterministic synthesized
 * content — a splitmix64 stream keyed by (address, global write
 * index) — so address-only traces replay reproducibly as an
 * adversarial low-duplication stream.
 *
 * Every malformed input dies through esd_fatal with the file (and for
 * text, the line) named: truncation, bad magic, version skew,
 * oversized length prefixes, non-hex payloads, over-long lines, and
 * mid-stream gzip corruption are all clean exits, never crashes
 * (tests/test_trace_fuzz.cc holds that wall up). A record error is
 * raised on the consumer's thread when it asks for the block holding
 * the bad record, so the same records reach the consumer before the
 * same message as if every block were decoded on demand.
 */

#ifndef ESD_TRACE_TRACE_FRONTEND_HH
#define ESD_TRACE_TRACE_FRONTEND_HH

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "trace/trace.hh"

namespace esd
{

/** Longest accepted text-trace line (op + addr + payload + icount
 * with slack); longer lines are a format error, not a buffer grower. */
constexpr std::size_t kMaxTraceLine = 512;

/** Smallest read_ahead at which a gzip trace is decoded ahead on a
 * thread. Smaller blocks take less time to inflate than a few of the
 * threads' 50 us back-off steps, so the handoff would cost more than
 * the overlap saves; they decode on the consumer's thread. */
constexpr std::uint64_t kMinDecodeAheadBlock = 512;

/** Binary format limits (v2). */
constexpr std::uint8_t kBinaryTraceVersion = 2;
constexpr std::size_t kBinaryRecordNoPayload = 13;  ///< op+addr+icount
constexpr std::size_t kBinaryRecordPayload =
    kBinaryRecordNoPayload + kLineSize;

/** Sniff a file's format from its first bytes (never Auto); fatal
 * when the file cannot be opened. TraceFormat itself lives in
 * common/config.hh; its name helpers in common/config_io.hh. */
TraceFormat detectTraceFormat(const std::string &path);

/**
 * Deterministic line content for a payload-less write record: word w
 * is splitmix64(addr, windex, w). Pure function — replays of the same
 * trace synthesize the same bytes at any worker count.
 */
CacheLine synthesizeLineContent(Addr addr, std::uint64_t windex);

namespace detail
{

/** Pull-based byte source read through a 64 KiB buffer, so the
 * underlying medium (a file, an inflater) is asked for whole chunks.
 * unread() pushes bytes back into the front of the same buffer (the
 * format sniffer peeks, then ungets). */
class ByteStream
{
  public:
    virtual ~ByteStream() = default;

    /** Read up to @p n bytes; returns bytes produced (0 = clean EOF).
     * Corrupt underlying streams die via esd_fatal. */
    std::size_t read(std::uint8_t *out, std::size_t n);

    /** Read exactly @p n bytes or nothing: returns false on clean EOF
     * at a record boundary; a partial tail is a fatal truncation named
     * @p what. */
    bool readExact(std::uint8_t *out, std::size_t n, const char *what);

    /** Push @p n bytes back; the next read returns them first. */
    void unread(const std::uint8_t *data, std::size_t n);

    /** The buffered bytes not yet consumed, refilling the buffer first
     * when it is empty; an empty view means EOF. Valid until the next
     * call on this stream. */
    std::string_view peek();

    /** Mark the first @p n bytes of peek() as read. */
    void consume(std::size_t n) { pos_ += n; }

    const std::string &path() const { return path_; }

  protected:
    explicit ByteStream(std::string path);

    /** Produce up to @p n fresh bytes from the underlying medium. */
    virtual std::size_t fill(std::uint8_t *out, std::size_t n) = 0;

    std::string path_;

  private:
    /** Unconsumed bytes are buf_[pos_, end_). */
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
};

/** Plain file bytes. */
class FileByteStream : public ByteStream
{
  public:
    explicit FileByteStream(const std::string &path);
    ~FileByteStream() override;

  protected:
    std::size_t fill(std::uint8_t *out, std::size_t n) override;

  private:
    std::FILE *f_ = nullptr;
};

/** Gzip-inflating wrapper: fixed 64 KB compressed-side window, fatal
 * on any zlib error or a stream that ends mid-member. */
class GzipByteStream : public ByteStream
{
  public:
    explicit GzipByteStream(std::unique_ptr<ByteStream> inner);
    ~GzipByteStream() override;

  protected:
    /** Inflates a whole chunk per call. A zlib error found after the
     * chunk's first byte is raised one call later, and the last byte
     * inflated before it is withheld, so it surfaces at the same point
     * in the stream as it would through one-byte reads. */
    std::size_t fill(std::uint8_t *out, std::size_t n) override;

  private:
    /** Return @p produced - 1 bytes and raise @p msg on the next
     * fill(), or raise it now when there is nothing to return. */
    std::size_t deferFatal(std::size_t produced, std::string msg);

    struct ZState;
    std::unique_ptr<ByteStream> inner_;
    std::unique_ptr<ZState> z_;
};

} // namespace detail

/**
 * The streaming trace frontend (`esd_sim -trace-in=`).
 *
 * Records are decoded in blocks of read_ahead. For gzip with blocks of
 * at least kMinDecodeAheadBlock a decoder thread fills one block while
 * the consumer drains the other; it sleeps in short steps while no
 * slot is free (never woken per block) and is joined once it hands
 * over the last block or an error, or by reset() and the destructor.
 * Plain text, binary and small gzip blocks are decoded by the same
 * block decoder on the consumer's thread, when the consumer asks for
 * the next block: without inflate, decoding is too cheap for the
 * overlap to pay for handing records across cores, and small blocks
 * would be handed over too often. TraceSource::nextBatch is
 * overridden to hand the pipeline demux a whole buffered batch per
 * virtual call. One consumer thread at a time.
 */
class TraceFrontend : public TraceSource
{
  public:
    /**
     * Open @p path, sniff its format, and validate the header.
     * @param cfg read_ahead is the decode block size; line_payload is
     *            ignored on input (the stream itself says whether
     *            payloads are present).
     */
    TraceFrontend(const std::string &path, const TraceConfig &cfg);
    ~TraceFrontend() override;

    /** The decoder thread holds this object's address. */
    TraceFrontend(const TraceFrontend &) = delete;
    TraceFrontend &operator=(const TraceFrontend &) = delete;

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;
    void reset() override;

    /** The sniffed on-disk format. */
    TraceFormat format() const { return format_; }

    /** Records handed to the consumer in blocks so far (monotonic;
     * survives reset()). */
    std::uint64_t recordsDecoded() const { return decoded_; }

    /** Largest block handed out: never exceeds [trace] read_ahead.
     * The decoder holds at most one more block of the same bound. */
    std::size_t peakBufferedRecords() const { return peakBuffered_; }

  private:
    /** One decoded block. A block shorter than read_ahead, or one that
     * carries an error, is the last. */
    struct Block
    {
        std::vector<TraceRecord> records;
        bool last = false;
        /** Set when decoding hit a fatal error: raised, not delivered. */
        const char *errFile = nullptr;
        int errLine = 0;
        std::string errMsg;
    };

    /** True when blocks are decoded ahead on the decoder thread. */
    bool decodesAhead() const
    {
        return format_ == TraceFormat::Gzip &&
               cfg_.readAhead >= kMinDecodeAheadBlock;
    }

    void open();
    void readHeader();
    void decodeBlock(Block &b);
    void decoderLoop();
    void stopDecoder();
    bool advance();
    bool decodeOne(TraceRecord &rec);
    bool decodeText(TraceRecord &rec);
    bool decodeBinary(TraceRecord &rec);
    bool readLine(std::string_view &line);

    std::string path_;
    TraceConfig cfg_;
    TraceFormat format_ = TraceFormat::Text;

    // Decoder state: owned by the decoder thread while it runs.
    std::unique_ptr<detail::ByteStream> in_;
    /** True when the (possibly inflated) record stream is binary. */
    bool binary_ = false;
    /** Binary sub-state: v2 header fields (v1 has none). */
    std::uint8_t binVersion_ = 0;
    bool binPayloads_ = true;
    /** A text line that straddles a buffer refill, assembled here. */
    std::string lineSpill_;
    std::uint64_t lineNo_ = 0;    ///< text diagnostics
    std::uint64_t writesSeen_ = 0;  ///< synthesized-content key

    /** Block slots: block k lives in slots_[k % 2] (decoded on
     * demand: always slots_[0]). full_[i] hands slot i to the consumer; clearing it
     * hands it back to the decoder thread. */
    Block slots_[2];
    std::atomic<bool> full_[2] = {false, false};
    /** Set by reset() and the destructor: the decoder abandons the
     * trace, even mid-block; nothing it still decodes is delivered. */
    std::atomic<bool> stop_{false};
    std::thread decoder_;

    // Consumer state: [pos_, end_) is what is left of the current block.
    const TraceRecord *pos_ = nullptr;
    const TraceRecord *end_ = nullptr;
    std::uint64_t blocksTaken_ = 0;
    bool done_ = false;  ///< the last block has been taken
    std::size_t peakBuffered_ = 0;
    std::uint64_t decoded_ = 0;
};

} // namespace esd

#endif // ESD_TRACE_TRACE_FRONTEND_HH
