/**
 * @file
 * serve_mixed: an open-loop load generator against a running
 * prism_serve, plus the serve goldens.
 *
 * Requests are generated from the seed over a fixed request space
 * (workload x fixed core x mask, plus PING), so every reply has a
 * golden: the digest of the reply body a RAM-tier-off ResidentSuite
 * produces for the same request; STATS replies carry live counters,
 * so they only have to decode. The cold side stream draws (parametric
 * core, workload, mask) triples from a fixed pool that the daemon has
 * never seen, each at most once per daemon lifetime.
 */

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "serve/client.hh"
#include "serve/eval.hh"
#include "serve/state.hh"
#include "tdg/search.hh"
#include "workloads.hh"

using namespace prism;
using namespace prism::serve;

namespace perfbench
{

namespace
{

/** Offered rate of the reference phase, as a share of the closed-loop
 *  capacity the bursts measure on the same daemon: the queue and the
 *  batching run at the same relative load on any host. */
constexpr double kRefLoad = 0.5;
/** Cold side stream rate (requests/s). Assumed: the issue asks for a
 *  low fixed rate, and no trace of real traffic exists. */
constexpr double kColdRate = 4;
/** Size of the pool of never-seen parametric (core, workload) pairs. */
constexpr std::size_t kColdPool = 64;
constexpr std::uint64_t kColdPoolSeed = 0xC01D;
/** Warm-request p99 limit that defines max_qps: prism_loadgen
 *  --perf-check's absolute 10 ms p99 gate. */
constexpr double kP99LimitUs = 10000;
/** A run whose generator sends later than this at p99 is invalid. */
constexpr double kLagBoundUs = 2000;
/** Requests per closed-loop burst (serve_mixed's wall_s). */
constexpr std::size_t kBurst = 20000;

std::uint64_t
mix(std::uint64_t &s)
{
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
uniform(std::uint64_t &s)
{
    return static_cast<double>(mix(s) >> 11) * 0x1.0p-53;
}

struct Request
{
    Op op = Op::Eval;
    std::vector<std::uint8_t> body;
    std::string key;
};

Request
evalRequest(const std::string &wl, CoreKind kind, unsigned mask)
{
    EvalRequest r;
    r.workload = wl;
    r.config.kind = kind;
    r.mask = mask;
    WireWriter w;
    encodeEvalRequest(w, r);
    const auto b = w.bytes();
    return {Op::Eval, {b.begin(), b.end()},
            "E/" + wl + "/" + coreConfig(kind).name + "/" +
                std::to_string(mask)};
}

Request
rankRequest(const std::string &wl, CoreKind kind)
{
    RankRequest r;
    r.workload = wl;
    r.config.kind = kind;
    WireWriter w;
    encodeRankRequest(w, r);
    const auto b = w.bytes();
    return {Op::Rank, {b.begin(), b.end()},
            "R/" + wl + "/" + coreConfig(kind).name};
}

Request
sweepRequest(const std::string &wl)
{
    SweepRequest r;
    r.workload = wl;
    WireWriter w;
    encodeSweepRequest(w, r);
    const auto b = w.bytes();
    return {Op::Sweep, {b.begin(), b.end()}, "S/" + wl};
}

/** One never-seen parametric EVAL from the cold pool. */
Request
coldRequest(const std::vector<std::string> &names, std::size_t i)
{
    static const std::vector<CoreParams> cores =
        sampleCoreParams(kColdPool, kColdPoolSeed);
    EvalRequest r;
    r.workload = names[i % names.size()];
    r.config.parametric = true;
    r.config.params = cores[i];
    r.mask = static_cast<unsigned>(i % 16);
    WireWriter w;
    encodeEvalRequest(w, r);
    const auto b = w.bytes();
    return {Op::Eval, {b.begin(), b.end()}, "P/" + std::to_string(i)};
}

Request
pingRequest()
{
    return {Op::Ping, {}, "PING"};
}

/**
 * The seeded warm mix: prism_loadgen --mix=mixed's shares (85% EVAL,
 * 10% RANK, 4% PING, 1% STATS), with 1 request in 500 of the EVAL
 * share sent as a SWEEP, which that mix lacks. The SWEEP rate is
 * assumed; no record of real traffic exists.
 */
Request
warmRequest(const std::vector<std::string> &names, std::uint64_t &s)
{
    const std::string &wl = names[mix(s) % names.size()];
    const CoreKind kind = kAllCoreKinds[mix(s) % kAllCoreKinds.size()];
    const std::uint64_t r = mix(s) % 1000;
    if (r < 2)
        return sweepRequest(wl);
    if (r < 850)
        return evalRequest(wl, kind, static_cast<unsigned>(mix(s) % 16));
    if (r < 950)
        return rankRequest(wl, kind);
    if (r < 990)
        return pingRequest();
    return {Op::Stats, {}, "STATS"};
}

/** Shared, lock-guarded outcome tally of one phase. */
struct Tally
{
    std::mutex mu;
    std::vector<double> latUs;
    /** Offset (s) of each latUs sample's due time from phase start. */
    std::vector<double> dueS;
    std::vector<double> lagUs;
    std::vector<double> coldMs;
    bool backlog = false;
};

Client
connectTo(std::uint16_t port)
{
    Client c;
    if (!c.connect("127.0.0.1", port))
        fatal("cannot connect to prism_serve on port %u: %s",
              unsigned(port), c.lastError().c_str());
    // A reply that never comes counts as a failed operation, not a
    // hang.
    timeval tv{5, 0};
    setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return c;
}

/** Send one request and check its reply against its golden (a STATS
 *  reply, live counters, must decode); false on any failure. */
bool
exchange(Client &c, const Request &req, Record &rec, Goldens &g,
         std::mutex &rec_mu)
{
    const std::optional<RawReply> reply = c.roundTrip(req.op, req.body);
    std::lock_guard<std::mutex> lock(rec_mu);
    if (!reply) {
        ++rec.attempted;
        rec.fail("no reply to " + req.key + ": " + c.lastError());
        return false;
    }
    if (reply->status != Status::Ok) {
        ++rec.attempted;
        rec.fail((reply->status == Status::Busy ? "BUSY for "
                                                : "error for ") +
                 req.key + " " + reply->error);
        return false;
    }
    if (req.op == Op::Stats) {
        ++rec.attempted;
        WireReader r({reply->body.data(), reply->body.size()});
        StatsReply stats;
        if (decodeStatsReply(r, stats))
            return true;
        rec.fail("malformed STATS reply");
        return false;
    }
    return g.check(rec, req.key, digestBytes(reply->body));
}

/**
 * Open loop at `rate` over `conns` warm connections (Poisson
 * arrivals, each connection its own share of the rate), plus an
 * optional cold side stream on one more connection. Latency is timed
 * from when each request was due; lag is how late the generator
 * sent a request whose connection was already free.
 */
void
openLoop(std::uint16_t port, const std::vector<std::string> &names,
         std::uint64_t seed, double rate, double seconds,
         unsigned conns, std::size_t *cold_next, Record &rec,
         Goldens &g, std::mutex &rec_mu, Tally &tally)
{
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    auto stream = [&](unsigned id, double r, bool cold) {
        Client c = connectTo(port);
        std::uint64_t s = seed * 0x100 + id;
        auto due = start;
        auto free_at = start;
        std::vector<double> lat, due_s, lag, cold_ms;
        while (true) {
            due += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(-std::log(1 - uniform(s)) /
                                              r));
            if (due >= end)
                break;
            const Request req =
                cold ? coldRequest(names, (*cold_next)++ % kColdPool)
                     : warmRequest(names, s);
            std::this_thread::sleep_until(due);
            const auto sent = Clock::now();
            lag.push_back(secondsBetween(std::max(due, free_at), sent) *
                          1e6);
            const bool ok = exchange(c, req, rec, g, rec_mu);
            free_at = Clock::now();
            if (!ok)
                continue;
            if (cold)
                cold_ms.push_back(secondsBetween(due, free_at) * 1e3);
            else
            {
                lat.push_back(secondsBetween(due, free_at) * 1e6);
                due_s.push_back(secondsBetween(start, due));
            }
        }
        // A connection still sending well after the phase ended was
        // falling further behind: a growing backlog.
        const bool behind =
            !cold && secondsBetween(end, free_at) > 0.05 + 0.1 * seconds;
        std::lock_guard<std::mutex> lock(tally.mu);
        tally.latUs.insert(tally.latUs.end(), lat.begin(), lat.end());
        tally.dueS.insert(tally.dueS.end(), due_s.begin(), due_s.end());
        if (!cold)
            tally.lagUs.insert(tally.lagUs.end(), lag.begin(), lag.end());
        tally.coldMs.insert(tally.coldMs.end(), cold_ms.begin(),
                            cold_ms.end());
        tally.backlog = tally.backlog || behind;
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < conns; ++i)
        threads.emplace_back(stream, i, rate / conns, false);
    if (cold_next)
        threads.emplace_back(stream, conns, kColdRate, true);
    for (std::thread &t : threads)
        t.join();
}

/** Closed-loop burst: kBurst seeded requests over `conns`
 *  connections as fast as replies come back. */
double
burst(std::uint16_t port, const std::vector<std::string> &names,
      std::uint64_t seed, unsigned conns, Record &rec, Goldens &g,
      std::mutex &rec_mu)
{
    std::vector<Client> clients;
    for (unsigned i = 0; i < conns; ++i)
        clients.push_back(connectTo(port));
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < conns; ++i) {
        threads.emplace_back([&, i] {
            std::uint64_t s = seed * 0x100 + 0x80 + i;
            for (std::size_t n = 0; n < kBurst / conns; ++n)
                exchange(clients[i], warmRequest(names, s), rec, g,
                         rec_mu);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return secondsSince(t0);
}

StatsReply
stats(std::uint16_t port)
{
    Client c = connectTo(port);
    StatsReply s;
    if (!c.stats(s))
        fatal("STATS failed: %s", c.lastError().c_str());
    return s;
}

} // namespace

void
recordServeGoldens(const Options &opt, Goldens &g)
{
    Options o = opt;
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : measuredSuite(o))
        names.push_back(spec.name);
    std::sort(names.begin(), names.end());
    ThreadPool pool(opt.threads);
    ResidentSuite suite;
    suite.loadAndPrepare(names, pool);

    std::vector<Request> reqs;
    for (const std::string &wl : names) {
        for (CoreKind kind : kAllCoreKinds) {
            for (unsigned mask = 0; mask < 16; ++mask)
                reqs.push_back(evalRequest(wl, kind, mask));
            reqs.push_back(rankRequest(wl, kind));
        }
        reqs.push_back(sweepRequest(wl));
    }
    for (std::size_t i = 0; i < kColdPool; ++i)
        reqs.push_back(coldRequest(names, i));
    reqs.push_back(pingRequest());

    std::vector<std::string> digests(reqs.size());
    pool.parallelFor(reqs.size(), [&](std::size_t i) {
        WireReader r(reqs[i].body);
        WireWriter w;
        QueryOutcome out;
        if (reqs[i].op == Op::Ping) {
            w.u8(kProtocolVersion);
        } else if (reqs[i].op == Op::Eval) {
            EvalRequest req;
            EvalReply reply;
            if (!decodeEvalRequest(r, req))
                fatal("bad golden request %s", reqs[i].key.c_str());
            out = runEval(suite, req, reply);
            encodeEvalReply(w, reply);
        } else if (reqs[i].op == Op::Rank) {
            RankRequest req;
            RankReply reply;
            if (!decodeRankRequest(r, req))
                fatal("bad golden request %s", reqs[i].key.c_str());
            out = runRank(suite, req, reply);
            encodeRankReply(w, reply);
        } else {
            SweepRequest req;
            SweepReply reply;
            if (!decodeSweepRequest(r, req))
                fatal("bad golden request %s", reqs[i].key.c_str());
            out = runSweep(suite, req, reply);
            encodeSweepReply(w, reply);
        }
        if (out.status != Status::Ok)
            fatal("golden request %s failed: %s", reqs[i].key.c_str(),
                  out.error.c_str());
        const auto b = w.bytes();
        digests[i] = digestBytes({b.begin(), b.end()});
    });
    Record scratch;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        g.check(scratch, reqs[i].key, digests[i]);
}

Record
runLoadgen(const Options &opt)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    Record rec;
    std::mutex rec_mu;
    Goldens g(opt.goldenDir + "/serve.txt");
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : measuredSuite(opt))
        names.push_back(spec.name);
    std::sort(names.begin(), names.end());
    // One connection carries the cold side stream.
    const unsigned warm_conns = std::max(1u, opt.threads - 1);

    // Warm-up, not measured (replies are still checked): the first
    // requests after boot fault in pages and scratch buffers.
    {
        const double s = burst(opt.port, names, opt.seed + 999,
                               opt.threads, rec, g, rec_mu);
        Tally t;
        openLoop(opt.port, names, opt.seed + 998, kRefLoad * kBurst / s,
                 0.5, opt.threads, nullptr, rec, g, rec_mu, t);
    }

    for (int i = 0; i < 5; ++i)
        rec.samples["wall_s"].push_back(burst(
            opt.port, names, opt.seed + 1000 * i, opt.threads, rec, g,
            rec_mu));
    const double ref_rate =
        kRefLoad * kBurst / percentile(rec.samples["wall_s"], 0.5);
    rec.values["serve.offered_qps"] = ref_rate;

    // Reference rate, warm requests only. A phase whose generator
    // fell behind is re-run; three in a row make the run invalid
    // rather than slow. The tail is reported per window (median over
    // windows in run.py), so one host stall moves one window only.
    // The serve.* counters are deltas over the last attempt.
    const double ref_seconds = std::max(2.0, 0.4 * opt.seconds);
    constexpr int kWindows = 8;
    bool valid = false;
    StatsReply s0, s1;
    for (int attempt = 0; attempt < 3 && !valid; ++attempt) {
        Tally t;
        s0 = stats(opt.port);
        openLoop(opt.port, names, opt.seed + attempt, ref_rate,
                 ref_seconds, opt.threads, nullptr, rec, g, rec_mu, t);
        s1 = stats(opt.port);
        const double lag = percentile(t.lagUs, 0.99);
        rec.values["loadgen.lag_p99_us"] = lag;
        valid = lag <= kLagBoundUs;
        rec.samples["op_us"] = t.latUs;
        std::vector<std::vector<double>> windows(kWindows);
        for (std::size_t i = 0; i < t.latUs.size(); ++i) {
            const int w = std::min(
                kWindows - 1, int(t.dueS[i] / ref_seconds * kWindows));
            windows[w].push_back(t.latUs[i]);
        }
        auto &p99s = rec.samples["op_p99_us"];
        p99s.clear();
        for (const auto &w : windows)
            p99s.push_back(percentile(w, 0.99));
    }
    rec.values["invalid"] = valid ? 0 : 1;

    // The same warm stream with the cold side stream on one of the
    // connections: never-seen parametric EVALs share the daemon's
    // pool with the warm queries.
    {
        Tally t;
        std::size_t cold_next = static_cast<std::size_t>(opt.seed);
        openLoop(opt.port, names, opt.seed + 100, ref_rate,
                 std::max(1.5, 0.25 * opt.seconds), warm_conns,
                 &cold_next, rec, g, rec_mu, t);
        rec.samples["cold_ms"] = t.coldMs;
        rec.values["serve.p99_cold_mix_us"] = percentile(t.latUs, 0.99);
    }
    // The RAM tier only sees the cold builds, so its deltas span both
    // phases.
    const StatsReply s2 = stats(opt.port);

    // max_qps (traced runs only): double the offered rate until the
    // warm p99 limit or the backlog check fails, then bisect (log
    // scale) between the last passing and first failing rate.
    if (opt.trace) {
        auto passes = [&](double rate) {
            Tally t;
            Record probe;
            openLoop(opt.port, names, opt.seed + 7, rate, 0.25,
                     opt.threads, nullptr, probe, g, rec_mu, t);
            return probe.failed == 0 && !t.backlog &&
                   percentile(t.latUs, 0.99) <= kP99LimitUs;
        };
        double lo = 0, hi = 0;
        for (double rate = 1000; rate <= 512000; rate *= 2) {
            if (!passes(rate)) {
                hi = rate;
                break;
            }
            lo = rate;
        }
        if (hi == 0)
            hi = lo * 2;
        for (int i = 0; i < 4 && lo > 0; ++i) {
            const double mid = std::sqrt(lo * hi);
            (passes(mid) ? lo : hi) = mid;
        }
        rec.values["max_qps"] = lo;
    }

    const double queries =
        double(s1.evalQueries + s1.rankQueries + s1.sweepQueries -
               s0.evalQueries - s0.rankQueries - s0.sweepQueries);
    const double batches = double(s1.batches - s0.batches);
    rec.values["serve.queue_high_water"] = double(s1.queueHighWater);
    rec.values["serve.busy_rejected"] =
        double(s1.busyRejected - s0.busyRejected);
    rec.values["serve.mean_batch"] =
        batches > 0 ? double(s1.batchedRequests - s0.batchedRequests) /
                          batches
                    : 0;
    rec.values["serve.service_us_mean"] =
        queries > 0 ? double(s1.serviceNsTotal - s0.serviceNsTotal) /
                          queries / 1e3
                    : 0;
    const double rh = double(s2.ramHits - s0.ramHits);
    const double rm = double(s2.ramMisses - s0.ramMisses);
    rec.values["ram.hits"] = rh;
    rec.values["ram.misses"] = rm;
    rec.values["ram.evictions"] = double(s2.ramEvictions - s0.ramEvictions);
    rec.values["ram.resident_mb"] = double(s2.ramBytes) / (1 << 20);
    rec.values["ram.hit_ratio"] = rh + rm > 0 ? rh / (rh + rm) : 0;
    return rec;
}

} // namespace perfbench
