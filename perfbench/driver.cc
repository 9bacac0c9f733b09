/**
 * @file
 * perfbench_driver: one phase of the benchmark per invocation.
 *
 *   perfbench_driver <mode> [--seed=N] [--seconds=S] [--trace=0|1]
 *                    [--threads=N] [--goldens=DIR] [--cache-dir=DIR]
 *                    [--ref=FILE] [--spans=FILE] [--port=N]
 *                    [--workloads=a,b,c] [--plant-gap-ms=N]
 *
 * Modes: sweep, populate, warm, validate, loadgen, goldens, suite.
 * Prints one JSON record on its last stdout line (suite prints the
 * measured workload names). run.py is the user-facing entry point.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

bool
flag(const char *arg, const char *name, std::string &out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

std::uint64_t
number(const std::string &v, const char *name)
{
    char *end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0')
        prism::fatal("%s: expected a non-negative integer, got '%s'",
                     name, v.c_str());
    return x;
}

std::vector<std::string>
split(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? s.size() : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_driver <mode> [flags]\n");
        return 2;
    }
    const std::string mode = argv[1];
    Options opt;
    for (int i = 2; i < argc; ++i) {
        std::string v;
        if (flag(argv[i], "--seed", v))
            opt.seed = number(v, "--seed");
        else if (flag(argv[i], "--seconds", v))
            opt.seconds = static_cast<double>(number(v, "--seconds"));
        else if (flag(argv[i], "--trace", v))
            opt.trace = number(v, "--trace") != 0;
        else if (flag(argv[i], "--threads", v))
            opt.threads = static_cast<unsigned>(number(v, "--threads"));
        else if (flag(argv[i], "--goldens", v))
            opt.goldenDir = v;
        else if (flag(argv[i], "--cache-dir", v))
            opt.cacheDir = v;
        else if (flag(argv[i], "--ref", v))
            opt.refPath = v;
        else if (flag(argv[i], "--spans", v))
            opt.spansPath = v;
        else if (flag(argv[i], "--port", v))
            opt.port = static_cast<std::uint16_t>(number(v, "--port"));
        else if (flag(argv[i], "--workloads", v))
            opt.workloads = split(v);
        else if (flag(argv[i], "--plant-gap-ms", v))
            opt.plantGapMs =
                static_cast<unsigned>(number(v, "--plant-gap-ms"));
        else
            prism::fatal("unknown flag '%s'", argv[i]);
    }
    if (opt.threads == 0)
        prism::fatal("--threads must be positive");

    if (mode == "suite") {
        std::string names;
        for (const prism::WorkloadSpec &spec : measuredSuite(opt))
            names += std::string(names.empty() ? "" : ",") + spec.name;
        std::printf("%s\n", names.c_str());
        return 0;
    }

    Record rec;
    if (mode == "sweep")
        rec = runColdSweep(opt);
    else if (mode == "populate")
        rec = runPopulate(opt);
    else if (mode == "warm")
        rec = runWarm(opt);
    else if (mode == "validate")
        rec = runValidate(opt);
    else if (mode == "loadgen")
        rec = runLoadgen(opt);
    else if (mode == "goldens")
        rec = generateGoldens(opt);
    else
        prism::fatal("unknown mode '%s'", mode.c_str());
    std::printf("%s\n", rec.json().c_str());
    return 0;
}
