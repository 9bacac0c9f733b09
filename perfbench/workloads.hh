/**
 * @file
 * The benchmark's workloads, each driven through Prism's public
 * entry points (DesignSearch, the artifact-cache helpers,
 * LoadedWorkload, the timing engines, the serve client). run.py
 * starts one driver process per phase and aggregates the Records.
 */

#ifndef PRISM_PERFBENCH_WORKLOADS_HH
#define PRISM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "workloads/suite.hh"

namespace perfbench
{

struct Options
{
    std::uint64_t seed = 1;
    /** Measurement budget of the timed phase. */
    double seconds = 10;
    /** Traced run: re-drive phases through per-component calls. */
    bool trace = false;
    /** In-process pool contexts and load-generator connections. */
    unsigned threads = 4;
    /** Directory holding the golden tables. */
    std::string goldenDir;
    /** Artifact-cache directory (warm_search). */
    std::string cacheDir;
    /** Reference export written by populate, read by warm. */
    std::string refPath;
    /** Where the traced run writes its spans. */
    std::string spansPath;
    /** Workload names (empty = the measured suite). */
    std::vector<std::string> workloads;
    /** prism_serve port (serve_mixed). */
    std::uint16_t port = 0;
    /** Test hook: milliseconds of unspanned work planted in every
     *  untraced search pass (load phase) and validation task, which
     *  the reconciliation must report. */
    unsigned plantGapMs = 0;
};

/**
 * The suite the cache-dependent workloads measure: every Table 3
 * workload except the second twin of each pair whose component keys
 * collide on the seed (see kCollidingTwins in workloads.cc), shuffled
 * by the seed. An explicit name list overrides it.
 */
std::vector<prism::WorkloadSpec> measuredSuite(const Options &opt,
                                               bool all = false);

/** Cold 6-core x 16-subset sweep through DesignSearch. */
Record runColdSweep(const Options &opt);

/** warm_search set-up: fill the artifact cache (RAM tier off). */
Record runPopulate(const Options &opt);

/** warm_search timed phase over a populated cache. */
Record runWarm(const Options &opt);

/** Table 1 rows plus sampled CPI on every (workload, IO2/OOO2). */
Record runValidate(const Options &opt);

/** serve_mixed load generation against a running prism_serve. */
Record runLoadgen(const Options &opt);

/** Regenerate every golden table under opt.goldenDir (RAM tier
 *  must be off). */
Record generateGoldens(const Options &opt);

/** Serve-side goldens (in loadgen.cc). */
void recordServeGoldens(const Options &opt, Goldens &g);

} // namespace perfbench

#endif // PRISM_PERFBENCH_WORKLOADS_HH
