// Shared types of the end-to-end benchmark: the per-store output checker
// every engine publishes through, run statistics, and the workload
// interface (workloads.cpp) that main.cpp runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/method.hpp"
#include "obs/counters.hpp"
#include "serve/publish.hpp"
#include "serve/store.hpp"
#include "support.hpp"

namespace e2e {

using tme::engine::Method;
using tme::linalg::Vector;

/// Engine-reported data of one method's runs (MethodRun fields).
struct MethodTally {
    std::vector<double> seconds;
    std::size_t runs = 0;
    std::size_t exact = 0;
    std::size_t capped = 0;
    std::size_t warm_accepted = 0;
    tme::obs::SolverCounters solver;
    double mre_sum = 0.0;
    std::size_t mre_count = 0;

    void merge(const MethodTally& other);
    double mre() const {
        return mre_count > 0 ? mre_sum / static_cast<double>(mre_count)
                             : 0.0;
    }
};

/// Reader-side results: lookups (latest() and one query on its
/// snapshot), lookups with any typed error, and a uniform latency
/// sample, in seconds, of whole lookups ("lookup") and of each call.
struct ReadStats {
    std::size_t ops = 0;
    std::size_t failed = 0;
    /// version_delta calls repeated because v - 1 had retired.
    std::size_t retries = 0;
    /// Time spent reading: per reader the sum over its sessions, over
    /// readers (which read at the same time) the longest.
    double wall_s = 0.0;
    std::map<std::string, std::vector<double>> latency_s;
    /// Per reader and rotation step, the lookup latency p99.
    std::vector<double> segment_lookup_p99_s;

    /// Lookups per second over all readers.
    double rate() const {
        return wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
    }
    /// Adds a reader that read at the same time as these.
    void merge(const ReadStats& other);
};

/// Everything one replay produced.
struct ReplayStats {
    std::size_t units = 0;
    std::size_t windows = 0;  ///< timed windows
    double wall_s = 0.0;      ///< replay wall time of the timed windows

    std::vector<double> freshness_s;
    /// Per unit and store, the median of its windows' freshness.
    std::vector<double> unit_freshness_p50_s;
    std::map<Method, MethodTally> methods;
    /// FNV-1a over the first unit's published estimates.
    std::uint64_t digest = 0;
    /// Every later unit replayed the same inputs to the same digest.
    bool units_agree = true;
    std::size_t check_failures = 0;
    std::vector<std::string> errors;
    ReadStats reads;
    std::size_t reclaim_deferred = 0;
    // Routing-epoch cache, summed over the replay's caches.
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::vector<double> epoch_build_s;
    // Pipeline and fleet (fleet-sweep only).
    double backpressure_s_per_submit = 0.0;
    std::size_t max_in_flight = 0;
    double fleet_busy_share = 0.0;
    double fleet_skew = 0.0;

    double windows_per_s() const {
        return wall_s > 0.0 ? static_cast<double>(windows) / wall_s : 0.0;
    }
    void fail(std::string message);
};

/// Truth for scoring published estimates: the demands of every sample
/// of the replayed scenario, indexed by the engine's sample index.
using Demands = std::vector<Vector>;

/// One EstimateStore with the engine's publisher attached through a
/// checking wrapper.  Per published window it stamps freshness, then
/// (outside the timed path) reads the snapshot back and checks it:
/// consistent(), bitwise equal to the WindowResult, every estimate
/// finite, non-negative and of pair length.  It folds the estimates
/// into the unit digest and, while scoring, the MRE against truth.
class Channel {
  public:
    /// `pairs` is the OD-pair count every estimate must have.  When
    /// `engine_stamps_submit`, the engine owns the submit loop (fleet)
    /// and freshness starts at the engine's own WindowResult::seconds
    /// stamp instead of mark_ingest().
    /// `options` are the caps the engine runs with (capped_share).
    Channel(std::size_t pairs, std::size_t retention,
            bool engine_stamps_submit,
            const tme::engine::MethodOptions& options);
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    tme::engine::WindowSink sink();
    void mark_ingest() { ingest_start_ = Clock::now(); }
    /// Untimed windows are published and checked but add no freshness
    /// sample and no window to the throughput count.
    void set_timed(bool timed) { timed_ = timed; }
    bool timed() const { return timed_; }
    /// Scores published estimates against `truth` until cleared.
    void score(const Demands* truth) { truth_ = truth; }

    tme::serve::EstimateStore& store() { return store_; }
    /// Moves this channel's accumulators into `out` and starts a new
    /// unit; returns the finished unit's digest.
    std::uint64_t drain_unit(ReplayStats& out);

  private:
    void on_window(const tme::engine::WindowResult& w);
    void check(const tme::engine::WindowResult& w);

    std::size_t pairs_;
    bool engine_stamps_submit_;
    tme::engine::MethodOptions options_;
    tme::serve::EstimateStore store_;
    tme::serve::Reader checker_;
    tme::engine::WindowSink publish_;
    const Demands* truth_ = nullptr;
    Clock::time_point ingest_start_{};
    bool timed_ = true;
    Digest digest_;
    ReplayStats acc_;
};

struct ReplayPlan {
    /// Units run until this much time has passed; 0 runs one unit.
    double seconds = 0.0;
    /// Engine worker threads; nullopt keeps the workload's own count.
    std::optional<std::size_t> threads;
    /// Run the benchmark's own layer probes (capture, push, acquire).
    bool layer_probes = false;
    /// Measure lookups: serve-mixed always reads beside its writer; the
    /// other workloads read their store between units when this is set.
    bool reads = false;
};

class Workload {
  public:
    virtual ~Workload() = default;
    virtual std::string name() const = 0;
    /// Whether a threads=0 baseline is part of the traced run.
    virtual bool has_serial_baseline() const { return false; }

    /// Builds inputs, routing, engine and store up to the first ingest,
    /// replacing any earlier set-up.  Returns {scenario_s, routing_s}.
    virtual std::pair<double, double> setup(unsigned seed) = 0;
    virtual ReplayStats replay(const ReplayPlan& plan) = 0;
    /// The routing matrix the SpMV probe runs on.
    virtual const tme::linalg::SparseMatrix& routing() const = 0;
    /// Seconds to rebuild the workload's routing outside set-up, for
    /// workloads that build none in set-up (0 otherwise).
    virtual double routing_probe() { return 0.0; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace e2e
