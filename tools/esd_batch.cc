/**
 * @file
 * Batch evaluation CLI: run every (application x scheme) pair and
 * emit one CSV row per run — the raw material for external plotting
 * of any figure.
 *
 *   esd_batch [-records=N] [-warmup=N] [-schemes=0,3] [-apps=a,b,c]
 *             [-jobs=N] [-workers=N] [-ConfigFile=path]
 *             [-ecc=hamming|bch|rs] [-trace-in=path]
 *             [-out=results.csv]
 *
 * Unknown -schemes/-apps values are rejected up front with a non-zero
 * exit. With -jobs=N the grid runs on a thread pool (shared-nothing,
 * one Simulator per pair); rows are written in grid order whatever the
 * completion order, so the CSV is identical at any job count.
 * -workers=N additionally runs each job through the intra-simulation
 * sharded pipeline (exec/pipeline.hh) with N threads; jobs * workers
 * must not oversubscribe the host.
 * -trace-in=path replays one on-disk trace (text/gzip/binary, format
 * sniffed) across every scheme instead of generating synthetic apps —
 * each job streams the file through its own frontend. Incompatible
 * with -apps=; the whole file replays with no warmup unless -records /
 * -warmup are given explicitly.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/config_io.hh"
#include "common/logging.hh"
#include "core/simulator.hh"
#include "exec/sweep_runner.hh"
#include "trace/trace_frontend.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        out.push_back(item);
    return out;
}

std::string
knownAppNames()
{
    std::string names;
    for (const AppProfile &p : paperApps()) {
        if (!names.empty())
            names += ", ";
        names += p.name;
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t records = 100000;
    std::uint64_t warmup = 20000;
    bool records_given = false;
    bool warmup_given = false;
    unsigned jobs = 1;
    unsigned workers = 0;  ///< 0 = classic single-Simulator jobs
    std::string out_path = "results.csv";
    std::string config_file;
    std::string trace_in;
    std::string ecc_engine;
    std::vector<SchemeKind> schemes = allSchemeKinds();
    std::vector<std::string> apps;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-records=", 0) == 0) {
            records = parseU64("-records", arg.substr(9));
            records_given = true;
        } else if (arg.rfind("-warmup=", 0) == 0) {
            warmup = parseU64("-warmup", arg.substr(8));
            warmup_given = true;
        } else if (arg.rfind("-trace-in=", 0) == 0) {
            trace_in = arg.substr(10);
        } else if (arg.rfind("-jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(
                parseU64In("-jobs", arg.substr(6), 0, exec::kMaxSweepJobs));
        } else if (arg.rfind("-workers=", 0) == 0) {
            workers = static_cast<unsigned>(
                parseU64In("-workers", arg.substr(9), 1, 256));
        } else if (arg.rfind("-out=", 0) == 0) {
            out_path = arg.substr(5);
        } else if (arg.rfind("-ConfigFile=", 0) == 0) {
            config_file = arg.substr(12);
        } else if (arg.rfind("-schemes=", 0) == 0) {
            schemes.clear();
            for (const std::string &s : splitCsv(arg.substr(9))) {
                std::optional<SchemeKind> k = tryParseSchemeKind(s);
                if (!k)
                    esd_fatal("unknown scheme '%s' in -schemes= "
                              "(use 0..5 or a scheme name)",
                              s.c_str());
                schemes.push_back(*k);
            }
            if (schemes.empty())
                esd_fatal("-schemes= lists no schemes");
        } else if (arg.rfind("-apps=", 0) == 0) {
            apps = splitCsv(arg.substr(6));
        } else if (arg.rfind("-ecc=", 0) == 0) {
            ecc_engine = arg.substr(5);
            parseEccEngine("-ecc", ecc_engine);  // fail fast
        } else {
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (!trace_in.empty()) {
        // One replayed trace replaces the synthetic-app dimension.
        if (!apps.empty())
            esd_fatal("-trace-in is incompatible with -apps= (the "
                      "trace is the workload)");
        // Sniffing validates up front that the file opens; a typo'd
        // path must exit non-zero before any simulation runs.
        detectTraceFormat(trace_in);
        if (!records_given)
            records = 0;
        if (!warmup_given)
            warmup = 0;
    }
    if (apps.empty() && trace_in.empty()) {
        for (const AppProfile &p : paperApps())
            apps.push_back(p.name);
    }
    // Validate the whole grid before any simulation runs: a typo must
    // exit non-zero immediately, not surface after minutes of runs.
    for (const std::string &app : apps) {
        if (!tryFindApp(app))
            esd_fatal("unknown application '%s' in -apps= (valid: %s)",
                      app.c_str(), knownAppNames().c_str());
    }

    // Pipeline workers multiply under the sweep pool: -jobs=J each
    // running a -workers=W pipeline is J*W live threads. Refuse plans
    // that oversubscribe the host instead of quietly thrashing it.
    // A gzip -trace-in job also runs one trace decoder thread, which
    // sleeps while it is a block ahead; it is not counted here.
    if (workers >= 1) {
        unsigned hc = std::thread::hardware_concurrency();
        if (hc == 0)
            hc = 1;
        unsigned eff_jobs = jobs == 0 ? hc : jobs;  // -jobs=0: one/hw thread
        if (static_cast<std::uint64_t>(eff_jobs) * workers > hc)
            esd_fatal("-jobs=%u x -workers=%u = %llu threads "
                      "oversubscribes this host (%u hardware threads); "
                      "lower one of them",
                      eff_jobs, workers,
                      static_cast<unsigned long long>(eff_jobs) * workers,
                      hc);
    }

    SimConfig cfg;
    if (!config_file.empty())
        loadConfigFile(cfg, config_file);
    if (!ecc_engine.empty())
        cfg.ecc.engine = parseEccEngine("-ecc", ecc_engine);

    std::ofstream out(out_path);
    if (!out)
        esd_fatal("cannot open '%s'", out_path.c_str());
    out << "app,scheme,records,logical_writes,logical_reads,"
           "dedup_hits,write_reduction,nvm_data_writes,"
           "nvm_writes_total,nvm_reads_total,write_lat_mean,"
           "write_lat_p99,read_lat_mean,read_lat_p99,ipc,"
           "energy_pj,metadata_bytes,fp_cache_hit,amt_cache_hit,"
           "max_line_wear\n";

    // Grid order fixes both the CSV row order and (under -jobs=N) the
    // outcome slots; every pair keeps the historical cfg.seed trace so
    // results stay comparable with serial runs of older versions.
    std::vector<exec::SweepJob> grid;
    if (!trace_in.empty()) {
        // Trace replay: one job per scheme, each streaming its own
        // frontend over the same file. The app column carries the
        // trace path so CSV rows stay self-describing.
        grid.reserve(schemes.size());
        for (SchemeKind k : schemes) {
            exec::SweepJob job;
            job.app = trace_in;
            job.traceFile = trace_in;
            job.scheme = k;
            job.cfg = cfg;
            job.records = records;
            job.warmup = warmup;
            job.pipelineWorkers = workers;
            grid.push_back(std::move(job));
        }
    } else {
        grid.reserve(apps.size() * schemes.size());
        for (const std::string &app : apps) {
            for (SchemeKind k : schemes) {
                exec::SweepJob job;
                job.app = app;
                job.scheme = k;
                job.cfg = cfg;
                job.records = records;
                job.warmup = warmup;
                job.pipelineWorkers = workers;
                grid.push_back(std::move(job));
            }
        }
    }

    exec::SweepRunner runner(jobs);
    std::vector<exec::SweepOutcome> outcomes = runner.run(
        grid, [](std::size_t, const exec::SweepJob &job,
                 const RunResult &r) {
            std::cout << job.app << " / " << r.schemeName << " done\n";
        });

    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        const exec::SweepJob &job = grid[i];
        if (!outcomes[i].ok) {
            // A failed job keeps its grid slot as a comment row: the
            // CSV stays aligned with the grid and the failure is
            // visible in the artifact, not silently dropped.
            ++failed;
            out << "# FAILED " << job.app << ','
                << schemeName(job.scheme) << ": " << outcomes[i].error
                << '\n';
            esd_warn("job %s/%s failed: %s", job.app.c_str(),
                     schemeName(job.scheme), outcomes[i].error.c_str());
            continue;
        }
        out << job.app << ',' << r.schemeName << ',' << r.records << ','
            << r.logicalWrites << ',' << r.logicalReads << ','
            << r.dedupHits << ',' << r.writeReduction() << ','
            << r.nvmDataWrites << ',' << r.nvmWritesTotal << ','
            << r.nvmReadsTotal << ',' << r.writeLatency.mean() << ','
            << r.writeLatency.percentile(99) << ','
            << r.readLatency.mean() << ','
            << r.readLatency.percentile(99) << ',' << r.ipc << ','
            << r.energy.total() << ',' << r.metadataNvmBytes << ','
            << r.fpCacheHitRate << ',' << r.amtCacheHitRate << ','
            << r.wear.maxLineWrites << '\n';
    }
    std::cout << "wrote " << out_path << "\n";
    if (failed) {
        std::cerr << failed << " of " << outcomes.size()
                  << " jobs failed\n";
        return 1;
    }
    return 0;
}
