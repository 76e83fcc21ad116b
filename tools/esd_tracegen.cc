/**
 * @file
 * Trace generator CLI: materialise any of the 20 calibrated
 * application profiles into a trace file (text, or binary v2 with
 * -binary) that `esd_sim -trace-in=` / `-InputFile=` — or any
 * external tool — can replay.
 *
 *   esd_tracegen -app=<name> -out=<path> [-records=N] [-seed=N]
 *                [-binary]
 */

#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "trace/trace_capture.hh"
#include "trace/workloads.hh"

namespace
{

using namespace esd;

void
usage()
{
    std::cerr << "usage: esd_tracegen -app=<name> -out=<path> "
                 "[-records=N] [-seed=N] [-binary]\napps: ";
    for (const AppProfile &p : paperApps())
        std::cerr << p.name << " ";
    std::cerr << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app, out;
    std::uint64_t records = 100000;
    std::uint64_t seed = 1;
    bool binary = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("-app=", 0) == 0) {
            app = arg.substr(5);
        } else if (arg.rfind("-out=", 0) == 0) {
            out = arg.substr(5);
        } else if (arg.rfind("-records=", 0) == 0) {
            records = parseU64("-records", arg.substr(9));
        } else if (arg.rfind("-seed=", 0) == 0) {
            seed = parseU64("-seed", arg.substr(6));
        } else if (arg == "-binary") {
            binary = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            usage();
            esd_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (app.empty() || out.empty()) {
        usage();
        esd_fatal("need -app and -out");
    }

    SyntheticWorkload w(findApp(app), seed);
    TraceConfig tc;
    tc.format = binary ? TraceFormat::Binary : TraceFormat::Text;
    TraceCaptureWriter writer(out, tc);
    TraceRecord rec;
    for (std::uint64_t i = 0; i < records; ++i) {
        w.next(rec);
        writer.write(rec);
    }
    writer.close();
    std::cout << "wrote " << records << " records of '" << app
              << "' (seed " << seed << ") to " << out
              << (binary ? " [binary]" : " [text]") << "\n";
    return 0;
}
