#include "trace/workloads.hh"

#include "common/logging.hh"

namespace esd
{

namespace
{

using Suite = AppProfile::Suite;

/**
 * Calibration notes.
 *
 * dupRate values track the per-app bars of Fig. 1 (deepsjeng and roms
 * at 99.9% dominated by zero lines; leela the 33.1% minimum; average
 * across the 20 apps ~61%). zipfS/hotPoolLines shape the reference-
 * count distribution of Fig. 3. lbm is deliberately low-skew with a
 * large hot pool: its duplicates have modest reference counts spread
 * over many lines, which is why full dedup (DeWrite) beats selective
 * dedup there — matching the paper's Section IV-C observation.
 * writeFrac/icountMean set memory intensity; lbm and mcf are the
 * write-heavy memory-bound apps.
 */
std::vector<AppProfile>
buildApps()
{
    std::vector<AppProfile> apps;
    auto add = [&](const char *name, Suite suite, double dup, double zero,
                   double s, std::uint64_t pool, double wfrac,
                   std::uint64_t ws, std::uint32_t icount, double seq,
                   std::uint64_t seed) {
        AppProfile p;
        p.name = name;
        p.suite = suite;
        p.dupRate = dup;
        p.zeroFrac = zero;
        p.zipfS = s;
        p.hotPoolLines = pool;
        p.writeFrac = wfrac;
        p.workingSetLines = ws;
        p.icountMean = icount;
        p.seqProb = seq;
        p.seed = seed;
        apps.push_back(p);
    };

    // SPEC CPU 2017 (12).
    add("cactuBSSN", Suite::SpecCpu2017, 0.45, 0.25, 1.05, 16384, 0.45,
        1u << 16, 180, 0.83, 11);
    add("deepsjeng", Suite::SpecCpu2017, 0.999, 0.90, 1.20, 4096, 0.55,
        1u << 17, 220, 0.78, 12);
    add("gcc", Suite::SpecCpu2017, 0.60, 0.30, 1.10, 16384, 0.50,
        1u << 16, 160, 0.73, 13);
    add("imagick", Suite::SpecCpu2017, 0.40, 0.15, 0.95, 32768, 0.40,
        1u << 16, 260, 0.92, 14);
    add("lbm", Suite::SpecCpu2017, 0.82, 0.05, 0.30, 131072, 0.75,
        1u << 17, 60, 0.92, 15);
    add("leela", Suite::SpecCpu2017, 0.331, 0.10, 0.90, 32768, 0.55,
        1u << 17, 120, 0.63, 16);
    add("mcf", Suite::SpecCpu2017, 0.82, 0.20, 1.15, 8192, 0.60,
        1u << 17, 80, 0.58, 17);
    add("nab", Suite::SpecCpu2017, 0.50, 0.20, 1.00, 16384, 0.45,
        1u << 16, 200, 0.78, 18);
    add("namd", Suite::SpecCpu2017, 0.38, 0.12, 0.95, 32768, 0.35,
        1u << 16, 300, 0.88, 19);
    add("roms", Suite::SpecCpu2017, 0.999, 0.88, 1.20, 4096, 0.60,
        1u << 17, 150, 0.92, 20);
    add("wrf", Suite::SpecCpu2017, 0.65, 0.25, 1.10, 16384, 0.50,
        1u << 16, 170, 0.83, 21);
    add("xalancbmk", Suite::SpecCpu2017, 0.58, 0.28, 1.12, 12288, 0.50,
        1u << 16, 140, 0.68, 22);

    // PARSEC 2.1 (8).
    add("blackscholes", Suite::Parsec, 0.70, 0.30, 1.15, 8192, 0.45,
        1u << 17, 190, 0.78, 31);
    add("bodytrack", Suite::Parsec, 0.52, 0.22, 1.05, 16384, 0.50,
        1u << 16, 150, 0.73, 32);
    add("dedup", Suite::Parsec, 0.70, 0.25, 1.18, 8192, 0.55,
        1u << 16, 110, 0.78, 33);
    add("facesim", Suite::Parsec, 0.48, 0.18, 1.00, 24576, 0.45,
        1u << 16, 170, 0.83, 34);
    add("fluidanimate", Suite::Parsec, 0.73, 0.28, 1.12, 12288, 0.55,
        1u << 16, 130, 0.88, 35);
    add("rtview", Suite::Parsec, 0.44, 0.15, 0.95, 24576, 0.40,
        1u << 16, 210, 0.78, 36);
    add("swaptions", Suite::Parsec, 0.36, 0.12, 0.90, 32768, 0.45,
        1u << 17, 240, 0.68, 37);
    add("x264", Suite::Parsec, 0.67, 0.24, 1.10, 12288, 0.55,
        1u << 16, 120, 0.90, 38);

    return apps;
}

} // namespace

const std::vector<AppProfile> &
paperApps()
{
    static const std::vector<AppProfile> apps = buildApps();
    return apps;
}

const AppProfile *
tryFindApp(const std::string &name)
{
    for (const AppProfile &p : paperApps()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

const AppProfile &
findApp(const std::string &name)
{
    if (const AppProfile *p = tryFindApp(name))
        return *p;
    esd_fatal("unknown application profile '%s'", name.c_str());
}

SyntheticWorkload::SyntheticWorkload(const AppProfile &profile,
                                     std::uint64_t global_seed)
    : profile_(profile),
      globalSeed_(global_seed),
      rng_(profile.seed * 0x9E3779B97F4A7C15ull + global_seed,
           profile.seed | 1),
      zipf_(profile.hotPoolLines, profile.zipfS),
      nextFreshId_(profile.hotPoolLines + 1)
{
    if (profile_.workingSetLines == 0)
        esd_fatal("%s: empty working set", profile_.name.c_str());
    writtenAddrs_.reserve(1024);
    isTouched_.assign(profile_.hotPoolLines + 1, false);
}

void
SyntheticWorkload::reset()
{
    rng_ = Pcg32(profile_.seed * 0x9E3779B97F4A7C15ull + globalSeed_,
                 profile_.seed | 1);
    nextFreshId_ = profile_.hotPoolLines + 1;
    lastWriteAddr_ = 0;
    burstRemaining_ = 0;
    writtenAddrs_.clear();
    recentWrites_.clear();
    recentCursor_ = 0;
    touched_.clear();
    isTouched_.assign(profile_.hotPoolLines + 1, false);
}

CacheLine
SyntheticWorkload::lineContent(std::uint64_t id) const
{
    CacheLine line;
    if (id == 0)
        return line;  // the zero line
    Pcg32 content_rng(id * 0xD1B54A32D192ED03ull + profile_.seed,
                      globalSeed_ | 1);
    content_rng.fillLine(line);
    return line;
}

Addr
SyntheticWorkload::pickWriteAddr()
{
    Addr addr;
    if (rng_.chance(profile_.seqProb) && lastWriteAddr_ != 0) {
        addr = lastWriteAddr_ + kLineSize;
        if (lineIndex(addr) >= profile_.workingSetLines)
            addr = 0;
    } else {
        addr = static_cast<Addr>(
                   rng_.next64() % profile_.workingSetLines) *
               kLineSize;
    }
    lastWriteAddr_ = addr;
    return addr;
}

void
SyntheticWorkload::touch(std::uint64_t id)
{
    if (!isTouched_[id]) {
        isTouched_[id] = true;
        touched_.push_back(id);
    }
}

std::uint64_t
SyntheticWorkload::pickContentId()
{
    // Hot pool ids are 1..hotPoolLines; id 0 is the zero line; fresh
    // ids beyond the pool are one-shot unique contents.
    if (rng_.chance(profile_.dupRate)) {
        if (rng_.chance(profile_.zeroFrac)) {
            if (isTouched_[0])
                return 0;
            // First zero write is the unique seed.
            touch(0);
            return 0;
        }
        // A duplicate must repeat content already written: draw Zipf
        // ranks until one has been seeded, falling back to a uniform
        // touched id so the measured duplicate rate tracks dupRate.
        for (int attempt = 0; attempt < 16; ++attempt) {
            std::uint64_t id = zipf_.sample(rng_) + 1;
            if (isTouched_[id])
                return id;
        }
        if (!touched_.empty()) {
            return touched_[rng_.below(
                static_cast<std::uint32_t>(touched_.size()))];
        }
        // Nothing seeded yet: this write is necessarily unique.
    }

    // Unique write: preferentially seed an untouched hot-pool id (so
    // Zipf-hot ranks enter circulation early), else mint a fresh id.
    // Once every hot-pool id is touched the 16 draws cannot succeed;
    // they are still consumed (one Pcg32 step each, as sample() takes)
    // so the rest of the stream is unchanged.
    const std::size_t hotTouched = touched_.size() - (isTouched_[0] ? 1 : 0);
    if (hotTouched == profile_.hotPoolLines) {
        for (int attempt = 0; attempt < 16; ++attempt)
            rng_.next();
        return nextFreshId_++;
    }
    for (int attempt = 0; attempt < 16; ++attempt) {
        std::uint64_t id = zipf_.sample(rng_) + 1;
        if (!isTouched_[id]) {
            touch(id);
            return id;
        }
    }
    return nextFreshId_++;
}

bool
SyntheticWorkload::next(TraceRecord &rec)
{
    bool is_write =
        writtenAddrs_.empty() || rng_.chance(profile_.writeFrac);

    // Bursty arrival process: inside a burst (an eviction storm)
    // requests are nearly back-to-back; between bursts the gap is
    // stretched so the long-run mean stays near icountMean.
    if (burstRemaining_ > 0) {
        --burstRemaining_;
        rec.icount = rng_.below(profile_.icountMean / 16 + 1);
    } else if (rng_.chance(profile_.burstProb)) {
        burstRemaining_ =
            1 + rng_.below(std::max<std::uint32_t>(
                    2 * profile_.burstLen, 1));
        rec.icount = rng_.below(profile_.icountMean / 16 + 1);
    } else {
        rec.icount = profile_.icountMean +
                     rng_.below(profile_.icountMean + 1);
    }
    if (is_write) {
        rec.op = OpType::Write;
        rec.addr = pickWriteAddr();
        rec.data = lineContent(pickContentId());
        // Reservoir of written addresses for future reads (bounded).
        if (writtenAddrs_.size() < 65536) {
            writtenAddrs_.push_back(rec.addr);
        } else {
            writtenAddrs_[rng_.below(65536)] = rec.addr;
        }
        // Recency window for temporally local reads.
        if (recentWrites_.size() < 4096) {
            recentWrites_.push_back(rec.addr);
        } else {
            recentWrites_[recentCursor_] = rec.addr;
            recentCursor_ = (recentCursor_ + 1) % recentWrites_.size();
        }
    } else {
        rec.op = OpType::Read;
        // Miss fills exhibit temporal locality: mostly re-read what
        // was recently written back, with a uniform far tail.
        if (!recentWrites_.empty() &&
            rng_.chance(profile_.readRecency)) {
            rec.addr = recentWrites_[rng_.below(
                static_cast<std::uint32_t>(recentWrites_.size()))];
        } else {
            rec.addr = writtenAddrs_[rng_.below(
                static_cast<std::uint32_t>(writtenAddrs_.size()))];
        }
    }
    return true;
}

} // namespace esd
