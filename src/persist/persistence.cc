#include "persist/persistence.hh"

#include <algorithm>

#include "common/stat_registry.hh"

namespace esd
{

PersistenceManager::PersistenceManager(const PersistenceConfig &cfg,
                                       PcmDevice &device, NvmStore &store,
                                       std::uint64_t seed)
    : cfg_(cfg), device_(device), store_(store),
      rng_(seed, 0x7e57ab1ecab1e5ull), checkpoint_(device.channelCount())
{
    // The undo log exists only to build ADR crash images; without an
    // armed crash (or under eADR, where queued writes survive) it
    // would be dead weight on every content write.
    collectUndo_ = cfg_.enabled && cfg_.crashAtWrite != 0 &&
                   cfg_.domain == PersistDomain::Adr;
}

std::uint64_t
PersistenceManager::effectiveCounterSlack() const
{
    if (cfg_.counterSlack != 0)
        return cfg_.counterSlack;
    // Un-journaled counter bumps per line are bounded by the
    // uncommitted window: a full epoch under ADR, the one torn group
    // under eADR.
    return cfg_.domain == PersistDomain::Adr ? cfg_.epochWrites : 1;
}

void
PersistenceManager::onWriteBegin(Tick now)
{
    ++writeIndex_;
    if (crashArmedAt(CrashPhase::PreBarrier))
        captureImage(CrashPhase::PreBarrier, now, durableBase(), 0);
}

void
PersistenceManager::noteLineWrite(Addr phys, const StoredLine *old,
                                  Tick complete)
{
    if (collectUndo_ && !crashed_) {
        UndoEntry u;
        u.phys = lineAlign(phys);
        u.hadOld = old != nullptr;
        if (old)
            u.old = *old;
        u.complete = complete;
        undo_.push_back(u);
    }
    if (crashArmedAt(CrashPhase::PostData)) {
        // Data installed (queued to the array), metadata group not yet
        // flushed: snapshot at the instant this data write retires, so
        // the write itself is durable under ADR too.
        captureImage(CrashPhase::PostData, complete, durableBase(), 0);
    }
}

Tick
PersistenceManager::onWriteEnd(Tick end_t)
{
    Profiler::Scope scope(prof_, Profiler::Persist);
    Tick extra = 0;

    // Post-data crashes on writes with no data write (dedup hits)
    // degrade to "end of scheme work, group unflushed".
    if (crashArmedAt(CrashPhase::PostData))
        captureImage(CrashPhase::PostData, end_t, durableBase(), 0);

    bool boundary = writeIndex_ % cfg_.epochWrites == 0;
    bool buffer_full =
        pending_.size() + group_.size() >= cfg_.metadataBufferRecords;
    bool commit_now = boundary || buffer_full;

    extra += static_cast<Tick>(group_.size()) * cfg_.journalAppendNs;
    stats_.journalRecords.inc(group_.size());

    // ADR barriers wait for the WPQ first: a committed journal record
    // must never describe data the array does not hold. Under eADR the
    // WPQ is inside the persistence domain, so commits skip the drain.
    Tick commit_tick = commit_now && cfg_.domain == PersistDomain::Adr
                           ? device_.wpqDrainTick(end_t)
                           : end_t;

    if (crashArmedAt(CrashPhase::MidJournal)) {
        std::vector<JournalRecord> durable;
        std::vector<JournalRecord> tail;
        Tick tick = end_t;
        if (cfg_.domain == PersistDomain::Eadr) {
            // The flush buffer persists; only this group can tear.
            durable = durableBase();
            tail = group_;
        } else if (commit_now) {
            // Mid-commit: the drain finished, the journal flush tore.
            durable = committed_;
            tail = pending_;
            tail.insert(tail.end(), group_.begin(), group_.end());
            tick = commit_tick;
        } else {
            // ADR off-boundary: nothing new was being persisted.
            durable = committed_;
        }
        std::uint64_t keep =
            tail.empty()
                ? 0
                : rng_.below(static_cast<std::uint32_t>(tail.size() + 1));
        durable.insert(durable.end(), tail.begin(),
                       tail.begin() + static_cast<std::ptrdiff_t>(keep));
        captureImage(CrashPhase::MidJournal, tick, std::move(durable),
                     tail.size() - keep);
    }

    // Flush the group (under eADR this is the persistent buffer).
    pending_.insert(pending_.end(), group_.begin(), group_.end());
    group_.clear();

    if (commit_now) {
        Tick drain_wait = commit_tick - end_t;
        extra += drain_wait + cfg_.barrierNs;
        stats_.drainWaitNs.inc(drain_wait);
        stats_.barrierNs.inc(drain_wait + cfg_.barrierNs);

        committed_.insert(committed_.end(), pending_.begin(),
                          pending_.end());
        pending_.clear();
        ++epochsCommitted_;
        stats_.epochCommits.inc();
        if (!boundary)
            stats_.earlyCommits.inc();
        if (epochCommitHook_)
            epochCommitHook_();
        pruneUndo(commit_tick);

        if (epochsCommitted_ % cfg_.checkpointEpochs == 0) {
            checkpoint();
            extra += cfg_.barrierNs;
            stats_.barrierNs.inc(cfg_.barrierNs);
        }
    }
    return extra;
}

std::vector<JournalRecord>
PersistenceManager::durableBase() const
{
    std::vector<JournalRecord> out = committed_;
    if (cfg_.domain == PersistDomain::Eadr)
        out.insert(out.end(), pending_.begin(), pending_.end());
    return out;
}

void
PersistenceManager::captureImage(CrashPhase phase, Tick tick,
                                 std::vector<JournalRecord> records,
                                 std::uint64_t torn)
{
    image_.domain = cfg_.domain;
    image_.phase = phase;
    image_.crashWriteIndex = writeIndex_;
    image_.tick = tick;
    image_.inPlace = inPlace_;
    image_.checkpoint = checkpoint_;
    image_.records = std::move(records);
    image_.tornRecords = torn;

    // Surviving content: the store as of now, with (under ADR) every
    // write that had not drained by the crash tick unwound newest-
    // first, so re-written lines fall back to their last durable
    // state.
    FlatMap<Addr, StoredLine> content;
    for (Addr a : store_.residentAddrs())
        content[a] = *store_.peek(a);
    if (cfg_.domain == PersistDomain::Adr) {
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
            if (it->complete <= tick)
                continue;
            if (it->hadOld)
                content[it->phys] = it->old;
            else
                content.erase(it->phys);
        }
    }
    image_.content.clear();
    image_.content.reserve(content.size());
    for (const auto &[a, line] : content)
        image_.content.emplace_back(a, line);
    std::sort(image_.content.begin(), image_.content.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });

    image_.trueCounters.clear();
    if (crypto_) {
        image_.trueCounters.reserve(crypto_->countersTracked());
        crypto_->forEachCounter([this](Addr a, std::uint64_t c) {
            image_.trueCounters.emplace_back(a, c);
        });
    }

    crashed_ = true;
}

void
PersistenceManager::pruneUndo(Tick tick)
{
    if (undo_.empty())
        return;
    undo_.erase(std::remove_if(undo_.begin(), undo_.end(),
                               [tick](const UndoEntry &u) {
                                   return u.complete <= tick;
                               }),
                undo_.end());
}

void
PersistenceManager::checkpoint()
{
    for (const JournalRecord &r : committed_)
        applyRecord(checkpoint_, r);
    stats_.recordsFolded.inc(committed_.size());
    stats_.checkpoints.inc();
    committed_.clear();
}

void
PersistenceManager::registerStats(StatRegistry &reg,
                                  const std::string &prefix) const
{
    reg.addCounter(prefix + ".journal_records", stats_.journalRecords,
                   "metadata journal records emitted");
    reg.addCounter(prefix + ".epoch_commits", stats_.epochCommits,
                   "group commits (persist barriers)");
    reg.addCounter(prefix + ".early_commits", stats_.earlyCommits,
                   "commits forced by a full flush buffer");
    reg.addCounter(prefix + ".checkpoints", stats_.checkpoints,
                   "checkpoint folds truncating the journal");
    reg.addCounter(prefix + ".records_folded", stats_.recordsFolded,
                   "journal records truncated into checkpoints");
    reg.addCounter(prefix + ".barrier_ns", stats_.barrierNs,
                   "journaling overhead charged to writes, ns");
    reg.addCounter(prefix + ".drain_wait_ns", stats_.drainWaitNs,
                   "barrier time spent draining write queues, ns");
}

} // namespace esd
