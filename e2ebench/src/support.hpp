// Measurement helpers of the end-to-end benchmark: order statistics with
// the "ten samples beyond" tail rule, an in-memory span recorder with
// self-time analysis, the FNV-1a digest over published estimates, and
// the CPU rotation that spreads a thread's run over every CPU.
//
// Nothing here links against the estimation library, so the helpers
// are tested on their own (tests/support_test.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- stats

/// Nearest-rank quantile: the ceil(q * n)-th smallest value (1-based),
/// so the result is always a measured sample.  q in [0, 1]; NaN when
/// `values` is empty.
double quantile(std::vector<double> values, double q);

/// The highest quantile level, at most `cap`, whose nearest-rank value
/// still has at least `beyond` samples above it among `n`.  nullopt
/// when even the median cannot meet that (n < 2 * beyond): such a run
/// supports no tail percentile.
std::optional<double> tail_level(std::size_t n, double cap = 0.95,
                                 std::size_t beyond = 10);

/// The tail of a latency sample by the rule above: the value at
/// tail_level(n).  A sample too small for any tail reports its median
/// (the maximum of a few samples is the noisiest statistic they hold).
/// `level` receives the quantile used.
double tail_value(const std::vector<double>& values, double* level,
                  double cap = 0.95);

/// Quantile smoothed over its neighbourhood: the mean of the order
/// statistics whose ranks lie within +-(1 - q) / 50 of q (at least the
/// nearest-rank sample).  Latencies timed in whole nanoseconds make a
/// bare order statistic of sub-microsecond queries repeat exactly from
/// run to run; the band keeps the estimate continuous and steadier.
double smoothed_quantile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);

// ---------------------------------------------------------------- digest

/// 64-bit FNV-1a over raw bytes.  Estimates are hashed by bit pattern,
/// so -0.0 and 0.0 (or two NaN payloads) digest differently: the
/// determinism checks compare bits, not values.
class Digest {
  public:
    void add_bytes(const void* data, std::size_t size);
    void add(std::uint64_t value);
    void add(const std::vector<double>& values);
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

// ---------------------------------------------------------------- cpus

/// Rotates threads over the CPUs the process may use.  On a shared or
/// virtualised host the CPUs run at different speeds that drift over
/// seconds, and the kernel keeps a busy thread on one CPU for a whole
/// run, so a single-threaded hot path would measure whichever CPU it
/// landed on.  Moving every thread to the next CPU at each step makes
/// a run spend equal time on each.  Threads created by a pinned thread
/// inherit its pin, so pin only threads that start no workers.
class CpuRotation {
  public:
    /// Reads the calling thread's CPU set.
    CpuRotation();
    std::size_t size() const { return cpus_.size(); }
    /// Pins the calling thread to CPU (slot + step) mod size().  A no-op
    /// with fewer than two CPUs, or where the set cannot be changed.
    void pin(std::size_t slot, std::size_t step) const;
    /// Lets the calling thread run on every CPU of the set again.
    void release() const;

  private:
    std::vector<int> cpus_;
};

// ---------------------------------------------------------------- spans

/// One recorded span.  `parent` indexes the enclosing span in the same
/// collected vector (-1 for a root); `window` is the sample index the
/// span worked on (-1 when it serves no single window).
struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t window = -1;
    std::uint32_t thread = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// reaching outside its parent is clipped to it).
std::vector<std::int64_t> self_time_ns(const std::vector<SpanRecord>& spans);

/// Process-wide span recorder.  Spans are kept in per-thread buffers
/// (no lock on the recording path) and written out once, at exit.
/// Nesting on one thread sets the parent automatically.  Disabled, a
/// span site costs one relaxed atomic load.
class Tracer {
  public:
    static Tracer& instance();

    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Opens a span on the calling thread; returns its local handle.
    std::size_t begin(const char* name, std::int64_t window);
    void end(std::size_t handle);

    /// Every span recorded so far, parents remapped to indices of the
    /// returned vector.  Call only while no thread is recording.
    std::vector<SpanRecord> collect() const;
    void clear();

  private:
    struct ThreadBuffer {
        std::uint32_t thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<std::size_t> open;  // local indices, innermost last
    };
    ThreadBuffer& local();

    Clock::time_point epoch_ = Clock::now();
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;  // guards buffers_
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
  public:
    ScopedSpan(const char* name, std::int64_t window = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    bool active_;
    std::size_t handle_ = 0;
};

/// Per span name: count, total and self time, and the samples.
struct SpanSummary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
    std::vector<double> self_times_s;
};
std::map<std::string, SpanSummary> summarize(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as JSON: {"spans": [{"name", "start_us", "end_us",
/// "parent", "window", "thread"}, ...]}.  Returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

}  // namespace e2e
