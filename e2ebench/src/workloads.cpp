// The four workloads, the output-checking publish channel and the
// reader pool.  Each workload is a closed loop: the next sample is
// ingested when ingest()/submit() returns, and each reader issues its
// next query when the previous one returns.
//
// A run replays fixed units of work until --seconds have passed.  A
// unit starts from a fresh engine, so every unit of a run publishes the
// same estimates: the first unit's digest and MRE stand for the run,
// and each later unit must reproduce that digest bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "core/route_change.hpp"
#include "engine/fleet.hpp"
#include "engine/pipeline.hpp"
#include "engine/replay.hpp"
#include "routing/routing_matrix.hpp"
#include "scenario/scenario.hpp"
#include "serve/query.hpp"

namespace e2e {

namespace engine = tme::engine;
namespace scenario = tme::scenario;
namespace serve = tme::serve;
using tme::linalg::SparseMatrix;

// ------------------------------------------------------------ tallies

void MethodTally::merge(const MethodTally& o) {
    seconds.insert(seconds.end(), o.seconds.begin(), o.seconds.end());
    runs += o.runs;
    exact += o.exact;
    capped += o.capped;
    warm_accepted += o.warm_accepted;
    solver.add(o.solver);
    mre_sum += o.mre_sum;
    mre_count += o.mre_count;
}

void ReadStats::merge(const ReadStats& o) {
    ops += o.ops;
    failed += o.failed;
    retries += o.retries;
    wall_s = std::max(wall_s, o.wall_s);
    segment_lookup_p99_s.insert(segment_lookup_p99_s.end(),
                                o.segment_lookup_p99_s.begin(),
                                o.segment_lookup_p99_s.end());
    for (const auto& [kind, v] : o.latency_s) {
        auto& dst = latency_s[kind];
        dst.insert(dst.end(), v.begin(), v.end());
    }
}

void ReplayStats::fail(std::string message) {
    ++check_failures;
    if (errors.size() < 5) errors.push_back(std::move(message));
}

// ------------------------------------------------------------ channel

namespace {

serve::StoreOptions store_options(std::size_t retention) {
    serve::StoreOptions o;
    o.retention = retention;
    return o;
}

}  // namespace

namespace {

/// Whether a run stopped at an iteration cap.  The engine keeps only
/// budget_exhausted in MethodRun::solve_outcome, so a cap is read off
/// the run's own counters against the caps the workload configured.
bool hit_cap(const engine::MethodRun& run, const engine::MethodOptions& o) {
    if (run.solve_outcome == engine::SolveOutcome::iteration_capped) {
        return true;
    }
    const tme::obs::SolverCounters& c = run.solver;
    const auto rounds_capped = [&](std::size_t cap) {
        return cap > 0 && c.qp_active_set_rounds >= cap;
    };
    switch (run.method) {
        case Method::entropy:
            return c.entropy_iterations >= o.entropy.solver.max_iterations;
        case Method::kruithof:
            return c.kruithof_sweeps >= o.kruithof.max_iterations;
        case Method::bayesian:
            return rounds_capped(o.bayesian.qp.max_active_set_rounds);
        case Method::fanout:
            return rounds_capped(o.fanout.qp.max_active_set_rounds);
        default:
            return false;
    }
}

}  // namespace

Channel::Channel(std::size_t pairs, std::size_t retention,
                 bool engine_stamps_submit,
                 const engine::MethodOptions& options)
    : pairs_(pairs),
      engine_stamps_submit_(engine_stamps_submit),
      options_(options),
      store_(store_options(retention)),
      checker_(store_),
      publish_(serve::make_publisher(store_)) {}

engine::WindowSink Channel::sink() {
    return [this](const engine::WindowResult& w) { on_window(w); };
}

void Channel::on_window(const engine::WindowResult& w) {
    const auto window = static_cast<std::int64_t>(w.window_end_sample);
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span("serve.publish", window);
        publish_(w);
    }
    const Clock::time_point t1 = Clock::now();
    if (timed_) {
        // FleetDriver owns its submit loop, so fleet freshness starts at
        // the engine's own submit stamp (WindowResult::seconds runs from
        // submit to the window's completion) and adds the publish call.
        acc_.freshness_s.push_back(engine_stamps_submit_
                                       ? w.seconds + seconds_between(t0, t1)
                                       : seconds_between(ingest_start_, t1));
        ++acc_.windows;
    }
    ScopedSpan span("bench.check", window);
    check(w);
}

void Channel::check(const engine::WindowResult& w) {
    const auto head = checker_.at(store_.head_version());
    if (!head.ok()) {
        acc_.fail(std::string("published window is not readable: ") +
                  serve::query_status_name(head.status));
        return;
    }
    const serve::EstimateSnapshot& snap = *head.value.snapshot;
    if (!snap.consistent()) {
        acc_.fail("snapshot fails consistent()");
    }
    if (snap.window_start_sample() != w.window_start_sample ||
        snap.window_end_sample() != w.window_end_sample ||
        snap.window_size() != w.window_size ||
        snap.epoch_fingerprint() != w.epoch_fingerprint ||
        snap.methods().size() != w.runs.size()) {
        acc_.fail("snapshot window identity differs from its WindowResult");
        return;
    }
    digest_.add(static_cast<std::uint64_t>(w.window_end_sample));
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const engine::MethodRun& run = w.runs[i];
        const serve::MethodEstimate& pub = snap.methods()[i];
        const Vector& est = run.estimate;
        if (pub.method != run.method || pub.quality != run.quality ||
            pub.estimate.size() != est.size() ||
            (!est.empty() &&
             std::memcmp(pub.estimate.data(), est.data(),
                         est.size() * sizeof(double)) != 0)) {
            acc_.fail(std::string("snapshot is not bitwise its "
                                  "WindowResult for ") +
                      engine::method_name(run.method));
        }
        if (est.size() != pairs_) {
            acc_.fail(std::string(engine::method_name(run.method)) +
                      " estimate has the wrong length");
        } else if (!std::all_of(est.begin(), est.end(), [](double v) {
                       return std::isfinite(v) && v >= 0.0;
                   })) {
            acc_.fail(std::string(engine::method_name(run.method)) +
                      " estimate is not finite and non-negative");
        }
        digest_.add(static_cast<std::uint64_t>(run.method));
        digest_.add(est);

        MethodTally& t = acc_.methods[run.method];
        t.seconds.push_back(run.seconds);
        ++t.runs;
        if (run.quality == engine::EstimateQuality::exact) ++t.exact;
        if (hit_cap(run, options_)) ++t.capped;
        if (run.warm_accepted) ++t.warm_accepted;
        t.solver.add(run.solver);

        if (truth_ == nullptr || est.size() != pairs_) continue;
        // Scored as the engine scores with a truth provider: snapshot
        // methods against the newest sample, series methods against
        // the window mean; an all-quiet reference has no MRE.
        Vector reference = (*truth_)[w.window_end_sample];
        if (engine::is_series_method(run.method)) {
            std::fill(reference.begin(), reference.end(), 0.0);
            for (std::size_t s = w.window_start_sample;
                 s <= w.window_end_sample; ++s) {
                const Vector& d = (*truth_)[s];
                for (std::size_t p = 0; p < reference.size(); ++p) {
                    reference[p] += d[p];
                }
            }
            const double inv = 1.0 / static_cast<double>(
                                         w.window_end_sample -
                                         w.window_start_sample + 1);
            for (double& v : reference) v *= inv;
        }
        double total = 0.0;
        for (double v : reference) total += v;
        if (total > 0.0) {
            t.mre_sum += tme::core::mre_at_coverage(reference, est, 0.9);
            ++t.mre_count;
        }
    }
}

std::uint64_t Channel::drain_unit(ReplayStats& out) {
    const std::uint64_t digest = digest_.value();
    digest_ = Digest{};
    out.windows += acc_.windows;
    if (!acc_.freshness_s.empty()) {
        out.unit_freshness_p50_s.push_back(quantile(acc_.freshness_s, 0.5));
    }
    out.freshness_s.insert(out.freshness_s.end(), acc_.freshness_s.begin(),
                           acc_.freshness_s.end());
    for (const auto& [m, t] : acc_.methods) out.methods[m].merge(t);
    out.check_failures += acc_.check_failures;
    for (std::string& e : acc_.errors) {
        if (out.errors.size() < 5) out.errors.push_back(std::move(e));
    }
    acc_ = ReplayStats{};
    return digest;
}

// ------------------------------------------------------------ readers

namespace {

/// Fixed-capacity uniform sample of a latency stream (Algorithm R), so
/// reader memory stays flat however many queries a run makes.
class Reservoir {
  public:
    explicit Reservoir(std::size_t capacity = 1 << 15)
        : capacity_(capacity) {}
    void add(double v, std::mt19937_64& rng) {
        ++seen_;
        if (values_.size() < capacity_) {
            values_.push_back(v);
        } else {
            const std::uint64_t j = rng() % seen_;
            if (j < capacity_) values_[j] = v;
        }
    }
    std::uint64_t seen() const { return seen_; }
    std::vector<double> take() { return std::move(values_); }

  private:
    std::size_t capacity_;
    std::vector<double> values_;
    std::uint64_t seen_ = 0;
};

/// A reader checks for a new rotation step every this many lookups.
constexpr std::size_t kStepCheckEvery = 64;
/// Lookup latencies of one rotation step: sample size, and the fewest
/// lookups whose p99 counts (ten beyond it).
constexpr std::size_t kSegmentCapacity = 4096;
constexpr std::uint64_t kMinSegmentLookups = 1000;

/// One reader's rng, latency samples and totals over a whole replay,
/// which may read in several sessions.
struct ReaderState {
    explicit ReaderState(unsigned seed) : rng(seed) {}
    std::mt19937_64 rng;
    Reservoir lookup, latest, point, topk, delta;
    Reservoir segment{kSegmentCapacity};  ///< lookups of the current step
    ReadStats stats;

    /// Ends the current step: its lookup p99 joins the stats.
    void close_segment() {
        if (segment.seen() >= kMinSegmentLookups) {
            stats.segment_lookup_p99_s.push_back(
                smoothed_quantile(segment.take(), 0.99));
        }
        segment = Reservoir(kSegmentCapacity);
    }
};

/// The readers' shared rotation: reader t runs on CPU slot 1 + t, one
/// step ahead of the writer's slot 0, and moves on when `step` does.
struct ReaderRotation {
    const CpuRotation* cpus = nullptr;
    const std::atomic<std::size_t>* step = nullptr;
    std::size_t slot = 0;
};

void read_until_stopped(serve::EstimateStore& store, ReaderState& st,
                        const std::atomic<bool>& stop,
                        const ReaderRotation& rot) {
    serve::Reader reader(store);
    while (store.head_version() < 2 &&
           !stop.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
    }
    std::mt19937_64& rng = st.rng;
    ReadStats& out = st.stats;
    std::size_t step = rot.step->load(std::memory_order_relaxed);
    rot.cpus->pin(rot.slot, step);
    const Clock::time_point begin = Clock::now();
    // One lookup is what a client does per request: read the head
    // version, then query it.
    while (!stop.load(std::memory_order_relaxed)) {
        if (out.ops % kStepCheckEvery == 0) {
            const std::size_t now = rot.step->load(std::memory_order_relaxed);
            if (now != step) {
                st.close_segment();
                rot.cpus->pin(rot.slot, step = now);
            }
        }
        const Clock::time_point t0 = Clock::now();
        const auto head = reader.latest();
        const Clock::time_point t1 = Clock::now();
        ++out.ops;
        if (!head.ok()) {
            ++out.failed;
            continue;
        }
        const serve::EstimateSnapshot& snap = *head.value.snapshot;
        const auto& served = snap.methods();
        const Method m = served[rng() % served.size()].method;
        const std::uint64_t pick = rng() % 20;
        bool ok = false;
        Reservoir* kind = nullptr;
        if (pick < 16) {
            ok = serve::point(snap, m, rng() % snap.pair_count()).ok();
            kind = &st.point;
        } else if (pick < 19) {
            ok = serve::top_k(snap, m, 10).ok();
            kind = &st.topk;
        } else {
            // Gravity runs in every window, so both versions serve it.  A
            // reader descheduled while `retention` newer versions were
            // published finds v - 1 retired; like any client of the
            // store it re-reads the head and asks again.
            std::uint64_t v = head.value.version;
            auto d = reader.version_delta(served.front().method, v - 1, v);
            while (d.status == serve::QueryStatus::version_retired) {
                ++out.retries;
                v = store.head_version();
                d = reader.version_delta(served.front().method, v - 1, v);
            }
            ok = d.ok();
            kind = &st.delta;
        }
        const Clock::time_point t2 = Clock::now();
        if (!ok) ++out.failed;
        st.lookup.add(seconds_between(t0, t2), rng);
        st.segment.add(seconds_between(t0, t2), rng);
        st.latest.add(seconds_between(t0, t1), rng);
        kind->add(seconds_between(t1, t2), rng);
    }
    out.wall_s += seconds_between(begin, Clock::now());
    st.close_segment();
}

/// Thread entry: a reader that throws (no free Reader handle, an
/// allocation failure) counts as one failed lookup instead of ending
/// the process.
void reader_loop(serve::EstimateStore& store, ReaderState& st,
                 const std::atomic<bool>& stop, ReaderRotation rot) {
    try {
        read_until_stopped(store, st, stop, rot);
    } catch (const std::exception&) {
        ++st.stats.failed;
    }
}

/// Readers move to the next CPUs this often during read_for().
constexpr double kReadStepSeconds = 0.1;

/// Three readers whose samples and totals last for a replay.  Each
/// session (start() to stop(), or read_for()) runs them as threads
/// against one store; the destructor stops a session an exception
/// left open.  They rotate over the CPUs with the pool's step, and a
/// writer beside them takes slot 0 of the same step.
class ReaderPool {
  public:
    static constexpr unsigned kReaders = 3;
    explicit ReaderPool(unsigned seed) {
        for (unsigned t = 0; t < kReaders; ++t) {
            states_.emplace_back(seed * 31u + t);
        }
    }
    ~ReaderPool() { stop(); }
    ReaderPool(const ReaderPool&) = delete;
    ReaderPool& operator=(const ReaderPool&) = delete;

    void start(serve::EstimateStore& store) {
        stop_.store(false, std::memory_order_relaxed);
        for (unsigned t = 0; t < kReaders; ++t) {
            threads_.emplace_back(reader_loop, std::ref(store),
                                  std::ref(states_[t]), std::cref(stop_),
                                  ReaderRotation{&cpus_, &step_, 1 + t});
        }
    }
    void stop() {
        stop_.store(true, std::memory_order_relaxed);
        for (std::thread& t : threads_) {
            if (t.joinable()) t.join();
        }
        threads_.clear();
    }
    /// One session of `seconds` against a store nobody writes to: the
    /// read path without a writer beside it.
    void read_for(serve::EstimateStore& store, double seconds) {
        start(store);
        const Clock::time_point begin = Clock::now();
        while (seconds_between(begin, Clock::now()) < seconds) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kReadStepSeconds));
            advance();
        }
        stop();
    }

    const CpuRotation& cpus() const { return cpus_; }
    /// Moves the readers on to the next CPUs; returns the new step.
    std::size_t advance() {
        return step_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /// Every session's totals and latency samples; ends a running one.
    ReadStats finish() {
        stop();
        ReadStats all;
        for (ReaderState& st : states_) {
            st.stats.latency_s["lookup"] = st.lookup.take();
            st.stats.latency_s["latest"] = st.latest.take();
            st.stats.latency_s["point"] = st.point.take();
            st.stats.latency_s["topk"] = st.topk.take();
            st.stats.latency_s["delta"] = st.delta.take();
            all.merge(st.stats);
        }
        return all;
    }

  private:
    const CpuRotation cpus_;
    std::atomic<std::size_t> step_{0};
    std::atomic<bool> stop_{false};
    std::deque<ReaderState> states_;  // stable addresses for the threads
    std::vector<std::thread> threads_;
};

/// Length of the read session after each unit of the workloads whose
/// readers do not run beside the writer.  Sessions spread over the run
/// see the host as the replay does, not as it is in one moment.
constexpr double kReadSecondsPerUnit = 0.5;

// ------------------------------------------------------------ helpers

void add_cache_stats(ReplayStats& out, const engine::RoutingEpochCache& c,
                     std::size_t hits_before, std::size_t misses_before,
                     const tme::obs::HistogramSnapshot& builds_before) {
    out.cache_hits += c.hits() - hits_before;
    out.cache_misses += c.misses() - misses_before;
    const tme::obs::HistogramSnapshot now = c.build_latency().snapshot();
    const std::uint64_t n = now.count - builds_before.count;
    if (n > 0) {
        const double mean_s =
            (now.sum_seconds - builds_before.sum_seconds) /
            static_cast<double>(n);
        out.epoch_build_s.insert(out.epoch_build_s.end(), n, mean_s);
    }
}

/// Checks a finished unit's digest against the first unit's.
void finish_unit(ReplayStats& out, std::uint64_t digest) {
    if (out.units == 0) {
        out.digest = digest;
    } else if (digest != out.digest) {
        out.units_agree = false;
    }
    ++out.units;
}

std::shared_ptr<const engine::RoutingEpoch> timed_acquire(
    engine::RoutingEpochCache& cache, const SparseMatrix& routing,
    std::int64_t window) {
    ScopedSpan span("epoch_cache.acquire", window);
    return cache.acquire_shared(routing);
}

// ------------------------------------------------------------ inputs

/// Draws the run's traffic from its seed.  Each workload replays one
/// calibrated network (its topology, routing and diurnal shape fixed, as
/// a real backbone's are); the seed scales every OD pair's demands over
/// samples [first, last) by one log-normal factor (sigma 0.1) and
/// recomputes the link loads.  A seed that redrew the network, or the
/// whole spatial pattern, would change R or the problems' difficulty,
/// and with them the solver work and accuracy, from run to run.
void draw_traffic(scenario::Scenario& sc, std::uint64_t seed,
                  std::size_t first, std::size_t last) {
    std::mt19937_64 rng(seed);
    std::lognormal_distribution<double> factor(0.0, 0.1);
    Vector f(sc.topo.pair_count());
    for (double& v : f) v = factor(rng);
    for (std::size_t k = first; k < last; ++k) {
        for (std::size_t p = 0; p < f.size(); ++p) sc.demands[k][p] *= f[p];
        sc.loads[k] = sc.routing.multiply(sc.demands[k]);
    }
}

/// Seed of the IGP-weight perturbation behind every injected reroute.
constexpr unsigned kRerouteSeed = 5;

// ------------------------------------------------------------ slices

/// One OnlineEngine replaying a fixed slice of samples per unit, with an
/// optional reroute inside the slice (paper-day, backbone-200).
struct SliceSpec {
    std::string name;
    std::vector<Method> methods;
    engine::MethodOptions options;
    std::size_t window = 12;
    std::size_t threads = 3;
    std::size_t first = 0;  ///< first sample of a unit
    std::size_t last = 0;   ///< one past the last sample
    std::size_t reroute_at = 0;  ///< 0: no reroute
    bool warm_start = true;
    /// Leading windows of each unit that are published and checked but
    /// not timed: a fresh engine filling its window, which a running
    /// stream does only after an epoch change.
    std::size_t warmup = 0;
    std::function<scenario::Scenario(unsigned)> build;
};

class SliceWorkload final : public Workload {
  public:
    explicit SliceWorkload(SliceSpec spec) : spec_(std::move(spec)) {}

    std::string name() const override { return spec_.name; }
    bool has_serial_baseline() const override { return true; }
    const SparseMatrix& routing() const override { return sc_->routing; }

    std::pair<double, double> setup(unsigned seed) override {
        engine_.reset();
        channel_.reset();
        cache_.reset();
        rerouted_.reset();
        sc_.reset();
        loads_.clear();

        const Clock::time_point t0 = Clock::now();
        sc_ = std::make_unique<scenario::Scenario>(spec_.build(seed));
        const Clock::time_point t1 = Clock::now();
        if (spec_.reroute_at != 0) {
            rerouted_ = std::make_unique<SparseMatrix>(
                tme::core::perturbed_routing(sc_->topo, 0.8, kRerouteSeed));
        }
        const Clock::time_point t2 = Clock::now();
        for (std::size_t k = spec_.first; k < spec_.last; ++k) {
            loads_.push_back(rerouted_ && k >= spec_.reroute_at
                                 ? rerouted_->multiply(sc_->demands[k])
                                 : sc_->loads[k]);
        }
        cache_ = std::make_shared<engine::RoutingEpochCache>(4);
        channel_ = make_channel();
        engine_ = make_engine(spec_.threads);
        fresh_ = true;
        return {seconds_between(t0, t1), seconds_between(t1, t2)};
    }

    ReplayStats replay(const ReplayPlan& plan) override {
        const std::size_t threads = plan.threads.value_or(spec_.threads);
        ReplayStats out;
        // The first replay after set-up uses the store and epoch cache
        // set-up built; a later one starts from fresh ones, so every
        // replay builds its epochs once and then hits.
        if (!fresh_) {
            channel_ = make_channel();
            cache_ = std::make_shared<engine::RoutingEpochCache>(4);
        }
        fresh_ = false;
        const std::size_t hits0 = cache_->hits();
        const std::size_t misses0 = cache_->misses();
        const tme::obs::HistogramSnapshot builds0 =
            cache_->build_latency().snapshot();
        std::size_t probe_acquires = 0;
        std::optional<ReaderPool> readers;
        if (plan.reads) readers.emplace(7);

        const Clock::time_point start = Clock::now();
        while (true) {
            Clock::time_point timed_from = Clock::now();
            std::unique_ptr<engine::OnlineEngine> eng =
                engine_ && threads == spec_.threads ? std::move(engine_)
                                                    : make_engine(threads);
            eng->set_window_sink(channel_->sink());
            channel_->score(out.units == 0 ? &sc_->demands : nullptr);

            const bool track = engine::schedules(spec_.methods,
                                                 Method::vardi);
            engine::SlidingWindow shadow(&sc_->topo, &sc_->routing,
                                         spec_.window, track);
            std::shared_ptr<const engine::RoutingEpoch> epoch;
            for (std::size_t k = spec_.first; k < spec_.last; ++k) {
                const auto window = static_cast<std::int64_t>(k);
                const bool reroute = rerouted_ && k == spec_.reroute_at;
                if (reroute) eng->set_routing(*rerouted_);
                const bool timed = k - spec_.first >= spec_.warmup;
                if (timed && !channel_->timed()) timed_from = Clock::now();
                channel_->set_timed(timed);
                channel_->mark_ingest();
                {
                    ScopedSpan span("engine.ingest", window);
                    eng->ingest(k, loads_[k - spec_.first]);
                }
                if (!plan.layer_probes) continue;

                // The benchmark's own calls into the window and scheduler
                // layers, on the live window.
                if (!epoch || reroute) {
                    if (reroute) shadow.reset(rerouted_.get());
                    epoch = timed_acquire(*cache_, eng->routing(), window);
                    ++probe_acquires;
                }
                {
                    ScopedSpan span("window.push", window);
                    shadow.push(k, loads_[k - spec_.first]);
                }
                {
                    ScopedSpan span("scheduler.capture", window);
                    const engine::WindowContext ctx =
                        engine::WindowContext::capture(
                            eng->window(), epoch, spec_.methods, 3, k);
                    (void)ctx;
                }
            }
            out.wall_s += seconds_between(timed_from, Clock::now());
            finish_unit(out, channel_->drain_unit(out));
            if (readers) {
                readers->read_for(channel_->store(), kReadSecondsPerUnit);
            }
            if (seconds_between(start, Clock::now()) >= plan.seconds) break;
        }
        if (readers) out.reads = readers->finish();
        out.reclaim_deferred = channel_->store().reclaim_deferred();
        add_cache_stats(out, *cache_, hits0 + probe_acquires, misses0,
                        builds0);
        return out;
    }

    double routing_probe() override {
        if (spec_.reroute_at != 0) return 0.0;
        // The generated backbone builds its IGP routing inside the
        // scenario; rebuild it alone and check it is the same matrix.
        const Clock::time_point t0 = Clock::now();
        const SparseMatrix r = tme::routing::igp_routing_matrix(sc_->topo);
        const double s = seconds_between(t0, Clock::now());
        if (tme::core::routing_fingerprint(r) !=
            tme::core::routing_fingerprint(sc_->routing)) {
            throw std::runtime_error(
                "rebuilt IGP routing differs from the scenario's");
        }
        return s;
    }

  private:
    std::unique_ptr<Channel> make_channel() const {
        return std::make_unique<Channel>(sc_->topo.pair_count(), 8, false,
                                         spec_.options);
    }
    std::unique_ptr<engine::OnlineEngine> make_engine(
        std::size_t threads) const {
        engine::EngineConfig config;
        config.window_size = spec_.window;
        config.methods = spec_.methods;
        config.method_options = spec_.options;
        config.threads = threads;
        config.warm_start = spec_.warm_start;
        return std::make_unique<engine::OnlineEngine>(
            sc_->topo, sc_->routing, config, cache_);
    }

    SliceSpec spec_;
    std::unique_ptr<scenario::Scenario> sc_;
    std::unique_ptr<SparseMatrix> rerouted_;
    std::vector<Vector> loads_;  ///< loads of the unit's samples
    std::shared_ptr<engine::RoutingEpochCache> cache_;
    std::unique_ptr<Channel> channel_;
    std::unique_ptr<engine::OnlineEngine> engine_;
    bool fresh_ = false;
};

const std::vector<Method> kAllMethods = {
    Method::gravity, Method::kruithof, Method::entropy,
    Method::bayesian, Method::vardi, Method::fanout};

std::unique_ptr<Workload> paper_day() {
    SliceSpec s;
    s.name = "paper-day";
    s.methods = kAllMethods;
    s.window = 12;
    s.threads = 3;
    // The USA day around its 12:30 reroute: a unit replays 24 samples
    // from 11:30, so every unit crosses one new epoch and one cold
    // start, and a run holds several units.
    s.first = 138;
    s.last = 162;
    s.reroute_at = 150;
    // A fresh engine's first solves are cold (the third window costs
    // about twice a warm one); a running day pays that once, a run of
    // units once per unit.  Untimed, they leave one slow window in 21,
    // the reroute, so the tail percentile falls among the warm windows
    // whatever the number of units, not on the edge between the two.
    s.warmup = 3;
    s.build = [first = s.first, last = s.last](unsigned seed) {
        scenario::Scenario sc =
            scenario::make_scenario(scenario::Network::usa, 1);
        draw_traffic(sc, seed, first, last);
        return sc;
    };
    return std::make_unique<SliceWorkload>(std::move(s));
}

std::unique_ptr<Workload> backbone_200() {
    SliceSpec s;
    s.name = "backbone-200";
    s.methods = {Method::gravity, Method::kruithof, Method::entropy,
                 Method::bayesian, Method::fanout};
    // The 200-PoP caps bench_perf_solvers uses for this network.
    s.options.bayesian.qp.cg_max_iterations = 120;
    s.options.bayesian.qp.max_active_set_rounds = 6;
    s.options.fanout.qp.cg_max_iterations = 150;
    s.options.fanout.qp.max_active_set_rounds = 12;
    s.options.kruithof.max_iterations = 30;
    s.options.kruithof.check_every = 10;
    s.options.entropy.solver.max_iterations = 60;
    s.window = 4;
    s.threads = 3;
    s.warmup = 2;
    // Cold solves: at these caps every full window does the same capped
    // work, so a window's time measures the kernels, not whether the
    // previous window's active set happened to carry over.
    s.warm_start = false;
    // Six windows of the evening busy hour: two untimed while the window
    // fills (no fanout yet), then four timed fanout solves.
    s.first = 200;
    s.last = 206;
    // Network seed 1: 1,200 links and 390,590 nonzeros in R.
    s.build = [first = s.first, last = s.last](unsigned seed) {
        scenario::GeneratedScenarioConfig c;
        c.pops = 200;
        c.seed = 1;
        c.samples = last;
        scenario::Scenario sc = scenario::make_generated_scenario(c);
        draw_traffic(sc, seed, first, last);
        return sc;
    };
    return std::make_unique<SliceWorkload>(std::move(s));
}

// ------------------------------------------------------------ fleet

class FleetWorkload final : public Workload {
  public:
    static constexpr std::size_t kJobs = 4;
    // Each job replays 48 samples of the Europe evening (16:00-20:00);
    // jobs 0 and 2 reroute halfway through.
    static constexpr std::size_t kFirst = 192;
    static constexpr std::size_t kSamples = 48;
    static constexpr std::size_t kRerouteAt = 24;

    std::string name() const override { return "fleet-sweep"; }
    const SparseMatrix& routing() const override {
        return scenarios_[0]->routing;
    }

    std::pair<double, double> setup(unsigned seed) override {
        driver_.reset();
        channels_.clear();
        reroutes_.clear();
        scenarios_.clear();

        const Clock::time_point t0 = Clock::now();
        for (std::size_t j = 0; j < kJobs; ++j) {
            // Job j replays Europe scenario j + 1 with its own traffic draw.
            auto sc = std::make_unique<scenario::Scenario>(
                scenario::make_scenario(scenario::Network::europe,
                                        static_cast<unsigned>(j) + 1u));
            draw_traffic(*sc, std::uint64_t{seed} * kJobs + j, kFirst,
                         kFirst + kSamples);
            const auto lo = static_cast<std::ptrdiff_t>(kFirst);
            const auto hi = static_cast<std::ptrdiff_t>(kFirst + kSamples);
            sc->demands = {sc->demands.begin() + lo, sc->demands.begin() + hi};
            sc->loads = {sc->loads.begin() + lo, sc->loads.begin() + hi};
            scenarios_.push_back(std::move(sc));
        }
        const Clock::time_point t1 = Clock::now();
        for (std::size_t j = 0; j < kJobs; ++j) {
            reroutes_.push_back(
                j % 2 == 0 ? std::make_unique<SparseMatrix>(
                                 tme::core::perturbed_routing(
                                     scenarios_[j]->topo, 0.8,
                                     kRerouteSeed))
                           : nullptr);
        }
        const Clock::time_point t2 = Clock::now();
        make_unit();
        fresh_ = true;
        return {seconds_between(t0, t1), seconds_between(t1, t2)};
    }

    ReplayStats replay(const ReplayPlan& plan) override {
        ReplayStats out;
        const Clock::time_point start = Clock::now();
        double job_seconds_sum = 0.0;
        double wall_sum = 0.0;
        std::uint64_t submits = 0;
        double backpressure_s = 0.0;
        std::optional<ReaderPool> readers;
        if (plan.reads) readers.emplace(7);
        while (true) {
            const Clock::time_point unit_start = Clock::now();
            // A unit is a fresh driver (so a fresh shared epoch cache)
            // and a fresh store per job; set-up built the first one.
            if (!fresh_) make_unit();
            fresh_ = false;
            std::vector<engine::FleetJob> jobs;
            for (std::size_t j = 0; j < kJobs; ++j) {
                engine::FleetJob job;
                job.name = "job" + std::to_string(j);
                job.scenario = scenarios_[j].get();
                job.replay.attach_truth = false;
                if (reroutes_[j]) {
                    job.replay.events = {{kRerouteAt, reroutes_[j].get()}};
                }
                job.window_sink = channels_[j]->sink();
                channels_[j]->score(out.units == 0 ? &scenarios_[j]->demands
                                                   : nullptr);
                jobs.push_back(std::move(job));
            }
            engine::FleetReport report;
            {
                ScopedSpan span("fleet.run");
                report = driver_->run(jobs);
            }
            Digest unit;
            for (std::size_t j = 0; j < kJobs; ++j) {
                unit.add(channels_[j]->drain_unit(out));
                out.reclaim_deferred +=
                    channels_[j]->store().reclaim_deferred();
            }
            double fastest = 0.0;
            double slowest = 0.0;
            for (const engine::FleetJobReport& r : report.jobs) {
                if (!r.completed || r.quarantined) {
                    out.fail("fleet job " + r.name + " failed: " + r.error);
                }
                job_seconds_sum += r.seconds;
                fastest = fastest == 0.0 ? r.seconds
                                         : std::min(fastest, r.seconds);
                slowest = std::max(slowest, r.seconds);
                const tme::obs::HistogramSnapshot bp =
                    r.metrics.backpressure_wait.snapshot();
                submits += bp.count;
                backpressure_s += bp.sum_seconds;
            }
            out.fleet_skew = std::max(
                out.fleet_skew, fastest > 0.0 ? slowest / fastest : 0.0);
            wall_sum += report.wall_seconds;
            add_cache_stats(out, *driver_->cache(), 0, 0, {});
            if (plan.layer_probes) {
                timed_acquire(*driver_->cache(), scenarios_[0]->routing,
                              -1);
            }
            finish_unit(out, unit.value());
            out.wall_s += seconds_between(unit_start, Clock::now());
            if (readers) {
                readers->read_for(channels_[0]->store(), kReadSecondsPerUnit);
            }
            if (seconds_between(start, Clock::now()) >= plan.seconds) break;
        }
        if (readers) out.reads = readers->finish();
        out.backpressure_s_per_submit =
            submits > 0 ? backpressure_s / static_cast<double>(submits)
                        : 0.0;
        out.fleet_busy_share =
            wall_sum > 0.0 ? job_seconds_sum / (2.0 * wall_sum) : 0.0;
        if (plan.layer_probes) out.max_in_flight = pipeline_probe(out);
        return out;
    }

  private:
    engine::EngineConfig engine_config() const {
        engine::EngineConfig c;
        c.window_size = 12;
        c.methods = kAllMethods;
        c.threads = 1;
        c.warm_start = true;
        return c;
    }

    void make_unit() {
        engine::FleetConfig config;
        config.engine = engine_config();
        config.concurrency = 2;
        config.pipeline_depth = 2;
        // Two distinct routings per rerouted job plus one per other job.
        config.cache_capacity = 8;
        driver_ = std::make_unique<engine::FleetDriver>(scenarios_[0]->topo,
                                                        config);
        channels_.clear();
        for (std::size_t j = 0; j < kJobs; ++j) {
            channels_.push_back(std::make_unique<Channel>(
                scenarios_[j]->topo.pair_count(), 8, true,
                engine::MethodOptions{}));
        }
    }

    /// Job 0 replayed directly on a PipelinedEngine with the fleet's
    /// per-job settings: reads the pipeline's in-flight high-water mark,
    /// which the fleet report does not carry.
    std::size_t pipeline_probe(ReplayStats& out) {
        Channel ch(scenarios_[0]->topo.pair_count(), 8, true,
                   engine::MethodOptions{});
        engine::PipelineOptions popts;
        popts.depth = 2;
        engine::PipelinedEngine eng(scenarios_[0]->topo,
                                    scenarios_[0]->routing, engine_config(),
                                    popts);
        eng.set_window_sink(ch.sink());
        engine::ReplayOptions ropts;
        ropts.attach_truth = false;
        ropts.events = {{kRerouteAt, reroutes_[0].get()}};
        {
            ScopedSpan span("pipeline.replay");
            engine::replay_scenario(eng, *scenarios_[0], ropts);
        }
        ReplayStats checked;
        ch.drain_unit(checked);
        out.check_failures += checked.check_failures;
        for (std::string& e : checked.errors) out.errors.push_back(e);
        return eng.max_in_flight();
    }

    std::vector<std::unique_ptr<scenario::Scenario>> scenarios_;
    std::vector<std::unique_ptr<SparseMatrix>> reroutes_;
    std::unique_ptr<engine::FleetDriver> driver_;
    std::vector<std::unique_ptr<Channel>> channels_;
    bool fresh_ = false;
};

// ------------------------------------------------------------ serve-mixed

class ServeMixedWorkload final : public Workload {
  public:
    std::string name() const override { return "serve-mixed"; }
    const SparseMatrix& routing() const override { return sc_->routing; }

    std::pair<double, double> setup(unsigned seed) override {
        engine_.reset();
        channel_.reset();
        sc_.reset();
        seed_ = seed;
        const Clock::time_point t0 = Clock::now();
        sc_ = std::make_unique<scenario::Scenario>(
            scenario::make_scenario(scenario::Network::europe, 1));
        draw_traffic(*sc_, seed, 0, sc_->demands.size());
        const Clock::time_point t1 = Clock::now();
        channel_ = make_channel();
        engine_ = make_engine();
        fresh_ = true;
        return {seconds_between(t0, t1), 0.0};
    }

    ReplayStats replay(const ReplayPlan& plan) override {
        ReplayStats out;
        if (!fresh_) channel_ = make_channel();
        fresh_ = false;
        ReaderPool readers(seed_);
        readers.start(channel_->store());
        const Clock::time_point start = Clock::now();
        // Days back to back, each on a fresh engine publishing into the
        // one store the readers query.  The engine runs on this thread
        // (threads=0), which moves to the next CPU with the readers at
        // every day.
        while (true) {
            readers.cpus().pin(0, readers.advance());
            std::unique_ptr<engine::OnlineEngine> eng =
                engine_ ? std::move(engine_) : make_engine();
            eng->set_window_sink(channel_->sink());
            channel_->score(out.units == 0 ? &sc_->demands : nullptr);
            for (std::size_t k = 0; k < sc_->loads.size(); ++k) {
                channel_->mark_ingest();
                ScopedSpan span("engine.ingest",
                                static_cast<std::int64_t>(k));
                eng->ingest(k, sc_->loads[k]);
            }
            finish_unit(out, channel_->drain_unit(out));
            if (seconds_between(start, Clock::now()) >= plan.seconds) break;
        }
        out.wall_s = seconds_between(start, Clock::now());
        readers.cpus().release();
        out.reads = readers.finish();
        out.reclaim_deferred = channel_->store().reclaim_deferred();
        return out;
    }

  private:
    std::unique_ptr<Channel> make_channel() const {
        return std::make_unique<Channel>(sc_->topo.pair_count(), 8, false,
                                         engine::MethodOptions{});
    }
    std::unique_ptr<engine::OnlineEngine> make_engine() const {
        engine::EngineConfig config;
        config.window_size = 12;
        config.methods = {Method::gravity, Method::kruithof,
                          Method::bayesian};
        config.threads = 0;
        config.warm_start = true;
        return std::make_unique<engine::OnlineEngine>(sc_->topo,
                                                      sc_->routing, config);
    }

    unsigned seed_ = 0;
    std::unique_ptr<scenario::Scenario> sc_;
    std::unique_ptr<Channel> channel_;
    std::unique_ptr<engine::OnlineEngine> engine_;
    bool fresh_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "paper-day") return paper_day();
    if (name == "backbone-200") return backbone_200();
    if (name == "fleet-sweep") return std::make_unique<FleetWorkload>();
    if (name == "serve-mixed") return std::make_unique<ServeMixedWorkload>();
    return nullptr;
}

}  // namespace e2e
