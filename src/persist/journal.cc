#include "persist/journal.hh"

#include "common/logging.hh"

namespace esd
{

const char *
journalOpName(JournalOp op)
{
    switch (op) {
      case JournalOp::AmtUpdate: return "amt_update";
      case JournalOp::RefAdd: return "ref_add";
      case JournalOp::RefRelease: return "ref_release";
      case JournalOp::EfitInsert: return "efit_insert";
      case JournalOp::EfitEvict: return "efit_evict";
      case JournalOp::CtrBump: return "ctr_bump";
      case JournalOp::LineRetire: return "line_retire";
      case JournalOp::DataWrite: return "data_write";
    }
    esd_panic("unreachable journal op %u", static_cast<unsigned>(op));
}

void
applyRecord(CheckpointState &st, const JournalRecord &r)
{
    const std::uint64_t line = lineIndex(r.a);
    switch (r.op) {
      case JournalOp::AmtUpdate:
        if (r.b == kInvalidAddr)
            st.amt.erase(line);
        else
            st.amt[line] = r.b;
        break;
      case JournalOp::RefAdd:
        ++st.refs[line];
        break;
      case JournalOp::RefRelease: {
        std::uint32_t *n = st.refs.find(line);
        if (!n) {
            // A release whose matching add predates the checkpoint
            // horizon of a torn group; recovery's AMT reconciliation
            // re-derives the true count.
            break;
        }
        if (--*n == 0)
            st.refs.erase(line);
        break;
      }
      case JournalOp::EfitInsert:
        st.fp[line] = r.value;
        break;
      case JournalOp::EfitEvict:
        st.fp.erase(line);
        break;
      case JournalOp::CtrBump:
        st.ctr[line] = r.value;
        break;
      case JournalOp::LineRetire:
        st.retired.insert(r.a);
        break;
      case JournalOp::DataWrite:
        break;
    }
    if (r.seq > st.seq)
        st.seq = r.seq;
}

} // namespace esd
