#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace perfbench
{

namespace
{

std::uint64_t
fnv1a(const unsigned char *p, std::size_t n)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

} // namespace

std::string
digest(std::string_view text)
{
    return hex16(fnv1a(reinterpret_cast<const unsigned char *>(
                           text.data()),
                       text.size()));
}

std::string
digestBytes(const std::vector<std::uint8_t> &bytes)
{
    return hex16(fnv1a(bytes.data(), bytes.size()));
}

void
Record::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

std::string
Record::json() const
{
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << jsonString(failures[i]);
    os << "],\"values\":{";
    bool first = true;
    for (const auto &[name, v] : values) {
        os << (first ? "" : ",") << jsonString(name) << ':'
           << jsonNumber(v);
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto &[name, list] : samples) {
        os << (first ? "" : ",") << jsonString(name) << ":[";
        for (std::size_t i = 0; i < list.size(); ++i)
            os << (i ? "," : "") << jsonNumber(list[i]);
        os << ']';
        first = false;
    }
    os << "}}";
    return os.str();
}

Goldens::Goldens(const std::string &path) : recording_(false)
{
    std::ifstream in(path);
    if (!in)
        prism::fatal("cannot read goldens '%s'", path.c_str());
    std::string key, value;
    while (in >> key >> value)
        table_[key] = value;
}

bool
Goldens::check(Record &rec, const std::string &key,
               const std::string &result_digest)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++rec.attempted;
    if (recording_) {
        table_[key] = result_digest;
        return true;
    }
    const auto it = table_.find(key);
    if (it == table_.end()) {
        rec.fail("no golden for " + key);
        return false;
    }
    if (it->second != result_digest) {
        rec.fail("mismatch at " + key);
        return false;
    }
    return true;
}

void
Goldens::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        prism::fatal("cannot write goldens '%s'", path.c_str());
    for (const auto &[key, value] : table_)
        out << key << ' ' << value << '\n';
}

std::uint32_t
SpanLog::layer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = layerIds_.find(name);
    if (it != layerIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(layerNames_.size());
    layerNames_.push_back(name);
    layerIds_.emplace(name, id);
    return id;
}

std::uint32_t
SpanLog::beginPhase(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    current_ = static_cast<std::uint32_t>(phaseNames_.size());
    phaseNames_.push_back(name);
    phaseTimes_.emplace_back(Clock::now(), Clock::now());
    return current_;
}

void
SpanLog::endPhase()
{
    std::lock_guard<std::mutex> lock(mu_);
    phaseTimes_.at(current_).second = Clock::now();
}

void
SpanLog::add(std::uint32_t layer, Clock::time_point start,
             Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {layer, current_, std::this_thread::get_id(), start, end});
}

double
SpanLog::busy(const std::string &layer, int phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = layerIds_.find(layer);
    if (it == layerIds_.end())
        return 0;
    double total = 0;
    for (const Span &s : spans_) {
        if (s.layer == it->second &&
            (phase < 0 || s.phase == static_cast<std::uint32_t>(phase)))
            total += secondsBetween(s.start, s.end);
    }
    return total;
}

std::size_t
SpanLog::calls(const std::string &layer, int phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = layerIds_.find(layer);
    if (it == layerIds_.end())
        return 0;
    std::size_t n = 0;
    for (const Span &s : spans_) {
        if (s.layer == it->second &&
            (phase < 0 || s.phase == static_cast<std::uint32_t>(phase)))
            ++n;
    }
    return n;
}

double
SpanLog::phaseWall(std::uint32_t phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto &[a, b] = phaseTimes_.at(phase);
    return secondsBetween(a, b);
}

void
SpanLog::poolView(std::uint32_t phase, unsigned contexts,
                  double &util, double &straggler_s) const
{
    std::lock_guard<std::mutex> lock(mu_);
    util = 0;
    straggler_s = 0;
    const auto task = layerIds_.find("task");
    if (task == layerIds_.end() || contexts == 0)
        return;
    const auto &[p0, p1] = phaseTimes_.at(phase);
    double busy = 0;
    // Last task end per context; a context that ran no task was idle
    // from the phase start.
    std::unordered_map<std::thread::id, Clock::time_point> last;
    for (const Span &s : spans_) {
        if (s.layer != task->second || s.phase != phase)
            continue;
        busy += secondsBetween(s.start, s.end);
        auto &l = last[s.thread];
        l = std::max(l, s.end);
    }
    const double wall = secondsBetween(p0, p1);
    if (wall <= 0)
        return;
    util = busy / (wall * contexts);
    Clock::time_point first_idle = p1;
    if (last.size() < contexts)
        first_idle = p0;
    for (const auto &[tid, end] : last)
        first_idle = std::min(first_idle, end);
    straggler_s = secondsBetween(first_idle, p1);
}

void
SpanLog::save(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        prism::fatal("cannot write spans '%s'", path.c_str());
    out << "layer,phase,thread,start_s,end_s\n";
    std::unordered_map<std::thread::id, std::size_t> tids;
    for (const Span &s : spans_) {
        const std::size_t tid =
            tids.emplace(s.thread, tids.size()).first->second;
        out << layerNames_[s.layer] << ',' << phaseNames_.at(s.phase)
            << ',' << tid << ',' << secondsBetween(origin_, s.start)
            << ',' << secondsBetween(origin_, s.end) << '\n';
    }
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t idx =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

} // namespace perfbench
