/**
 * @file
 * Quickstart: simulate the ESD scheme on one application profile and
 * print the headline metrics.
 *
 *   ./quickstart [app] [records]
 *
 * Apps are the 20 paper workloads (default: gcc).
 */

#include <iostream>
#include <limits>

#include "common/cli.hh"
#include "core/simulator.hh"
#include "metrics/report.hh"
#include "trace/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace esd;

    std::string app = argc > 1 ? argv[1] : "gcc";
    // 0 would mean "until the trace ends": never, for a synthetic app.
    std::uint64_t records =
        argc > 2 ? parseU64In("records", argv[2], 1,
                              std::numeric_limits<std::uint64_t>::max())
                 : 100000;

    SimConfig cfg;  // Table I defaults
    std::cout << cfg.summary() << "\n";

    SyntheticWorkload trace(findApp(app), /*global_seed=*/1);
    Simulator sim(cfg, SchemeKind::Esd);
    RunResult r = sim.run(trace, records, records / 5);

    std::cout << "app: " << app << "  scheme: " << r.schemeName
              << "  records: " << r.records << "\n\n";

    TablePrinter t({"metric", "value"});
    t.addRow({"logical writes", std::to_string(r.logicalWrites)});
    t.addRow({"writes eliminated",
              std::to_string(r.dedupHits) + " (" +
                  TablePrinter::pct(r.writeReduction()) + ")"});
    t.addRow({"NVMM data writes", std::to_string(r.nvmDataWrites)});
    t.addRow({"mean write latency",
              TablePrinter::num(r.writeLatency.mean(), 1) + " ns"});
    t.addRow({"p99 write latency",
              TablePrinter::num(r.writeLatency.percentile(99), 1) +
                  " ns"});
    t.addRow({"mean read latency",
              TablePrinter::num(r.readLatency.mean(), 1) + " ns"});
    t.addRow({"IPC", TablePrinter::num(r.ipc, 3)});
    t.addRow({"total energy",
              TablePrinter::num(r.energy.total() / 1e6, 2) + " uJ"});
    t.addRow({"EFIT hit rate", TablePrinter::pct(r.fpCacheHitRate)});
    t.addRow({"AMT cache hit rate", TablePrinter::pct(r.amtCacheHitRate)});
    t.addRow({"metadata in NVMM",
              TablePrinter::num(r.metadataNvmBytes / 1024.0, 1) + " KB"});
    t.print();

    std::cout << "\nTip: run `scheme_compare " << app
              << "` to see Baseline/Dedup_SHA1/DeWrite side by side.\n";
    return 0;
}
