#include "support.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace e2e {

namespace {

bool set_affinity(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
}

void CpuRotation::pin(std::size_t slot, std::size_t step) const {
    if (cpus_.size() < 2) return;
    (void)set_affinity({cpus_[(slot + step) % cpus_.size()]});
}

void CpuRotation::release() const {
    if (cpus_.size() < 2) return;
    (void)set_affinity(cpus_);
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(values.size());
    // The epsilon keeps q * n that is integral in exact arithmetic (0.95 *
    // 200) from rounding up to the next rank.
    double rank = std::ceil(q * n - 1e-9);
    rank = std::clamp(rank, 1.0, n);
    const auto index = static_cast<std::size_t>(rank) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

std::optional<double> tail_level(std::size_t n, double cap,
                                 std::size_t beyond) {
    if (n < 2 * beyond) return std::nullopt;
    // Nearest rank ceil(q n) leaves n - ceil(q n) samples above it, so
    // at least `beyond` remain while q <= (n - beyond) / n.
    const double level = static_cast<double>(n - beyond) /
                         static_cast<double>(n);
    return std::min(cap, level);
}

double tail_value(const std::vector<double>& values, double* level,
                  double cap) {
    const double q = tail_level(values.size(), cap).value_or(0.5);
    if (level != nullptr) *level = q;
    return quantile(values, q);
}

double smoothed_quantile(std::vector<double> values, double q) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    const double n = static_cast<double>(values.size());
    const double band = (1.0 - q) / 50.0;
    const auto rank = [&](double r) {
        return static_cast<std::size_t>(std::clamp(r, 1.0, n));
    };
    const std::size_t nearest = rank(std::ceil(q * n - 1e-9));
    const std::size_t lo = std::min(nearest, rank(std::ceil((q - band) * n)));
    const std::size_t hi =
        std::max(nearest, rank(std::floor((q + band) * n + 1e-9)));
    std::sort(values.begin(), values.end());
    double sum = 0.0;
    for (std::size_t r = lo; r <= hi; ++r) sum += values[r - 1];
    return sum / static_cast<double>(hi - lo + 1);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

void Digest::add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash_ ^= bytes[i];
        hash_ *= 1099511628211ull;
    }
}

void Digest::add(std::uint64_t value) { add_bytes(&value, sizeof value); }

void Digest::add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    if (!values.empty()) {
        add_bytes(values.data(), values.size() * sizeof(double));
    }
}

std::string Digest::hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

std::vector<std::int64_t> self_time_ns(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
            children[static_cast<std::size_t>(p)].push_back(i);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        cover.clear();
        for (std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
            const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
            if (hi > lo) cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t run_lo = 0;
        std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
        for (const auto& [lo, hi] : cover) {
            if (lo > run_hi) {
                if (run_hi > run_lo) covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo) covered += run_hi - run_lo;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
    // Buffers are owned by the registry and never freed while the
    // process runs, so the cached pointer cannot dangle.
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        buffer = buffers_.back().get();
        buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    }
    return *buffer;
}

std::size_t Tracer::begin(const char* name, std::int64_t window) {
    ThreadBuffer& buf = local();
    SpanRecord rec;
    rec.name = name;
    rec.window = window;
    rec.thread = buf.thread;
    rec.parent = buf.open.empty() ? -1
                                  : static_cast<std::int64_t>(buf.open.back());
    rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
    buf.spans.push_back(rec);
    buf.open.push_back(buf.spans.size() - 1);
    return buf.spans.size() - 1;
}

void Tracer::end(std::size_t handle) {
    ThreadBuffer& buf = local();
    buf.spans[handle].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    if (!buf.open.empty() && buf.open.back() == handle) buf.open.pop_back();
}

std::vector<SpanRecord> Tracer::collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> all;
    for (const auto& buf : buffers_) {
        const auto offset = static_cast<std::int64_t>(all.size());
        for (SpanRecord rec : buf->spans) {
            if (rec.parent >= 0) rec.parent += offset;
            all.push_back(rec);
        }
    }
    return all;
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& buf : buffers_) {
        buf->spans.clear();
        buf->open.clear();
    }
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t window)
    : active_(Tracer::instance().enabled()) {
    if (active_) handle_ = Tracer::instance().begin(name, window);
}

ScopedSpan::~ScopedSpan() {
    if (active_) Tracer::instance().end(handle_);
}

std::map<std::string, SpanSummary> summarize(
    const std::vector<SpanRecord>& spans) {
    const std::vector<std::int64_t> self = self_time_ns(spans);
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanSummary& s = out[spans[i].name];
        const double dur = 1e-9 * static_cast<double>(spans[i].end_ns -
                                                      spans[i].start_ns);
        const double self_s = 1e-9 * static_cast<double>(self[i]);
        ++s.count;
        s.total_s += dur;
        s.self_s += self_s;
        s.durations_s.push_back(dur);
        s.self_times_s.push_back(self_s);
    }
    return out;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                     "%.3f, \"parent\": %lld, \"window\": %lld, "
                     "\"thread\": %u}%s\n",
                     s.name, 1e-3 * static_cast<double>(s.start_ns),
                     1e-3 * static_cast<double>(s.end_ns),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.window), s.thread,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace e2e
