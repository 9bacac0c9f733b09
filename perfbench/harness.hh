/**
 * @file
 * Measurement plumbing shared by the benchmark driver's workloads:
 * host timers, the output record printed as one JSON line, reply /
 * row digests checked against goldens, and the in-memory span log of
 * the traced run.
 *
 * Everything here measures Prism from outside: spans wrap calls into
 * the library's public entry points, never code inside it.
 */

#ifndef PRISM_PERFBENCH_HARNESS_HH
#define PRISM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** FNV-1a over text: the digest goldens store per result. */
std::string digest(std::string_view text);

/** Same digest over raw reply bytes. */
std::string digestBytes(const std::vector<std::uint8_t> &bytes);

/**
 * What one driver invocation reports. Python (run.py) aggregates
 * several of these — repetitions, processes — into the benchmark's
 * metrics, so the record carries raw samples, not summaries.
 */
struct Record
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure descriptions (for the human report). */
    std::vector<std::string> failures;
    /** Scalar results by name (times in seconds unless named). */
    std::map<std::string, double> values;
    /** Sample lists by name (e.g. per-rep wall times, latencies). */
    std::map<std::string, std::vector<double>> samples;

    void fail(const std::string &what);

    /** One JSON object on one line. */
    std::string json() const;
};

/**
 * Golden digests keyed by result identity. check() compares a
 * freshly produced result against its golden and records a failed
 * operation on a mismatch or a missing golden; in recording mode
 * (golden generation) it stores the digest instead.
 */
class Goldens
{
  public:
    /** An empty table that records instead of checking. */
    Goldens() = default;

    /** Load `path` ("key digest" lines); fatal if unreadable. */
    explicit Goldens(const std::string &path);

    /** Check (or record) one result. Thread-safe. */
    bool check(Record &rec, const std::string &key,
               const std::string &result_digest);

    /** Stop recording: later check() calls compare. */
    void seal() { recording_ = false; }

    /** Write the recorded table, sorted by key. */
    void save(const std::string &path) const;

    std::size_t size() const { return table_.size(); }

  private:
    bool recording_ = true;
    std::mutex mu_;
    std::map<std::string, std::string> table_;
};

/** One traced call: which layer, on which thread, when. */
struct Span
{
    std::uint32_t layer = 0;
    std::uint32_t phase = 0;
    std::thread::id thread;
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * In-memory span log of the traced run. Layers and phases are
 * interned names; spans are appended under one mutex (a few thousand
 * per run, so contention is irrelevant next to the calls they wrap)
 * and written out once at the end.
 */
class SpanLog
{
  public:
    std::uint32_t layer(const std::string &name);

    /** Start a phase; spans recorded until the next beginPhase()
     *  belong to it. Returns the phase id. */
    std::uint32_t beginPhase(const std::string &name);
    void endPhase();

    void add(std::uint32_t layer, Clock::time_point start,
             Clock::time_point end);

    /** Sum of span durations of `layer` in `phase` (all phases when
     *  phase < 0), and the number of spans. */
    double busy(const std::string &layer, int phase = -1) const;
    std::size_t calls(const std::string &layer, int phase = -1) const;

    /** Wall time of a phase. */
    double phaseWall(std::uint32_t phase) const;

    /**
     * Pool view of a phase from its "task" spans (the tasks the
     * harness submitted): utilisation = summed task busy / (phase
     * wall x contexts), straggler = the tail of the phase during
     * which at least one context had already run out of tasks.
     */
    void poolView(std::uint32_t phase, unsigned contexts,
                  double &util, double &straggler_s) const;

    const std::vector<std::string> &phaseNames() const
    {
        return phaseNames_;
    }

    /** Write every span as CSV (layer,phase,thread,start_s,end_s). */
    void save(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<std::string> layerNames_;
    std::unordered_map<std::string, std::uint32_t> layerIds_;
    std::vector<std::string> phaseNames_;
    std::vector<std::pair<Clock::time_point, Clock::time_point>>
        phaseTimes_;
    std::uint32_t current_ = 0;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

/** RAII span over one call; inert when `log` is null. */
class Scoped
{
  public:
    Scoped(SpanLog *log, std::uint32_t layer)
        : log_(log), layer_(layer), start_(Clock::now())
    {
    }
    ~Scoped()
    {
        if (log_)
            log_->add(layer_, start_, Clock::now());
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log_;
    std::uint32_t layer_;
    Clock::time_point start_;
};

/** Call fn() inside a span of `layer` (no span when log is null). */
template <typename Fn>
auto
spanned(SpanLog *log, std::uint32_t layer, Fn &&fn)
{
    Scoped s(log, layer);
    return fn();
}

/** Nearest-rank percentile (q in [0, 1]) of unsorted samples. */
double percentile(std::vector<double> samples, double q);

} // namespace perfbench

#endif // PRISM_PERFBENCH_HARNESS_HH
