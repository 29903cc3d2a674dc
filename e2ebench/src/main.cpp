// End-to-end benchmark entry point.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// Builds the workload's inputs from the seed (several times; set-up time
// is their median), replays it for --seconds, checks every published
// estimate, and prints each metric with its unit, then one JSON line.
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the same
// replay untraced and traced (plus a threads=0 baseline where the
// workload has one), requires all of them to publish bit-identical
// estimates, writes the traced run's spans to <out>, and reports the
// per-layer metrics.  Exits 1 when an output check fails, 2 on bad usage.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probes.hpp"

namespace e2e {
namespace {

/// Set-up runs in two bursts, before and after the replay, so that its
/// median sees the host at two moments of a run (the host's speed
/// drifts over seconds).  A burst repeats at least 3 times, and while
/// under 0.5 s up to 50 times: the median of a few milliseconds-long
/// set-ups needs many.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBurstSeconds = 0.5;

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Args {
    std::string workload;
    unsigned seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/e2ebench";
};

bool parse(int argc, char** argv, Args& a) {
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (key == "--seed") {
            const unsigned long s = std::strtoul(v, &end, 10);
            if (*end != '\0' || s > 0xffffffffUL) return false;
            a.seed = static_cast<unsigned>(s);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
                return false;
            }
        } else if (key == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                return false;
            }
            a.trace = v[0] == '1';
        } else if (key == "--out") {
            a.out = v;
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ms(double s) { return 1e3 * s; }
double us(double s) { return 1e6 * s; }

double share(std::size_t part, std::size_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
}

std::vector<Metric> end_to_end(const ReplayStats& st, double setup_s,
                               double rss_mb) {
    std::vector<Metric> out;
    out.push_back({"setup_s", setup_s, "s"});
    out.push_back({"windows_per_s", st.windows_per_s(), "1/s"});
    // The host's speed drifts between a run's units, so the median of
    // the pooled windows jumps between speed modes; the mean of the
    // units' medians moves smoothly with the time spent in each.
    out.push_back({"freshness_p50_ms", ms(mean(st.unit_freshness_p50_s)),
                   "ms"});
    double level = 0.0;
    out.push_back(
        {"freshness_tail_ms", ms(tail_value(st.freshness_s, &level)), "ms"});
    std::size_t runs = 0;
    std::size_t exact = 0;
    double mre_sum = 0.0;
    for (const auto& [m, t] : st.methods) {
        runs += t.runs;
        exact += t.exact;
        mre_sum += t.mre();
    }
    out.push_back({"exact_share", share(exact, runs), "share"});
    out.push_back({"peak_rss_mb", rss_mb, "MiB"});
    for (Method m : {Method::gravity, Method::kruithof}) {
        const auto it = st.methods.find(m);
        out.push_back({std::string("mre.") + tme::engine::method_name(m),
                       it == st.methods.end() ? 0.0 : it->second.mre(),
                       "ratio"});
    }
    out.push_back({"mre.mean",
                   st.methods.empty()
                       ? 0.0
                       : mre_sum / static_cast<double>(st.methods.size()),
                   "ratio"});
    out.push_back({"lookups_per_s", st.reads.rate(), "1/s"});
    // Like freshness_p50_ms: per reader and rotation step, averaged.
    out.push_back({"lookup_p99_us", us(mean(st.reads.segment_lookup_p99_s)),
                   "us"});
    std::printf("# %zu windows in %zu units over %.2f s; freshness tail "
                "is p%.1f; %zu lookups (%zu failed, %zu delta retries); "
                "digest %016llx\n",
                st.windows, st.units, st.wall_s, 100.0 * level, st.reads.ops,
                st.reads.failed, st.reads.retries,
                static_cast<unsigned long long>(st.digest));
    return out;
}

double span_quantile(const std::map<std::string, SpanSummary>& spans,
                     const char* name, double q) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : quantile(it->second.durations_s, q);
}

/// Median self time of the named spans: an ingest span's self time is
/// the engine's own work, without the publish and check it calls.
double span_self_p50(const std::map<std::string, SpanSummary>& spans,
                     const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : quantile(it->second.self_times_s, 0.5);
}

std::vector<Metric> per_layer(Workload& w, const ReplayStats& traced,
                              const ReplayStats& untraced,
                              const ReplayStats* serial,
                              const std::vector<double>& scenario_s,
                              const std::vector<double>& routing_s,
                              double routing_probe_s,
                              const std::vector<SpanRecord>& spans) {
    const std::map<std::string, SpanSummary> sum = summarize(spans);
    std::vector<Metric> out;
    const auto add = [&](std::string name, double value, const char* unit) {
        out.push_back({std::move(name), value, unit});
    };
    add("scenario.build_s", quantile(scenario_s, 0.5), "s");
    add("routing.build_s",
        routing_probe_s > 0.0 ? routing_probe_s : quantile(routing_s, 0.5),
        "s");
    add("epoch_cache.build_ms", ms(mean(traced.epoch_build_s)), "ms");
    add("epoch_cache.acquire_us",
        us(span_quantile(sum, "epoch_cache.acquire", 0.5)), "us");
    add("epoch_cache.hit_rate",
        share(traced.cache_hits, traced.cache_hits + traced.cache_misses),
        "share");
    add("fleet.epoch_builds",
        traced.units > 0 ? static_cast<double>(traced.cache_misses) /
                               static_cast<double>(traced.units)
                         : 0.0,
        "count");
    add("engine.ingest_self_ms", ms(span_self_p50(sum, "engine.ingest")),
        "ms");
    add("window.push_us", us(span_quantile(sum, "window.push", 0.5)), "us");
    add("scheduler.capture_ms",
        ms(span_quantile(sum, "scheduler.capture", 0.5)), "ms");
    add("scheduler.parallel_speedup",
        serial != nullptr && serial->windows_per_s() > 0.0
            ? untraced.windows_per_s() / serial->windows_per_s()
            : 0.0,
        "x");

    for (Method m : tme::engine::all_methods) {
        const std::string p = std::string("core.") +
                              tme::engine::method_name(m) + ".";
        const auto it = traced.methods.find(m);
        const MethodTally t =
            it == traced.methods.end() ? MethodTally{} : it->second;
        add(p + "ms_p50", ms(t.runs ? quantile(t.seconds, 0.5) : 0.0), "ms");
        add(p + "ms_p95", ms(t.runs ? quantile(t.seconds, 0.95) : 0.0), "ms");
        add(p + "capped_share", share(t.capped, t.runs), "share");
        add(p + "warm_accepted_share", share(t.warm_accepted, t.runs),
            "share");
        add(p + "mre", t.mre(), "ratio");
    }
    const auto per_run = [&](Method m, std::size_t tme::obs::SolverCounters::*f) {
        const auto it = traced.methods.find(m);
        if (it == traced.methods.end() || it->second.runs == 0) return 0.0;
        return static_cast<double>(it->second.solver.*f) /
               static_cast<double>(it->second.runs);
    };
    using SC = tme::obs::SolverCounters;
    add("core.entropy.iterations",
        per_run(Method::entropy, &SC::entropy_iterations), "count");
    add("core.entropy.armijo_probes",
        per_run(Method::entropy, &SC::entropy_armijo_probes), "count");
    add("core.kruithof.sweeps", per_run(Method::kruithof, &SC::kruithof_sweeps),
        "count");
    for (Method m : {Method::bayesian, Method::fanout}) {
        const std::string p =
            std::string("core.") + tme::engine::method_name(m) + ".";
        add(p + "qp_rounds", per_run(m, &SC::qp_active_set_rounds), "count");
        add(p + "cg_iterations", per_run(m, &SC::qp_cg_iterations), "count");
    }
    add("core.bayesian.nnls_pivots", per_run(Method::bayesian, &SC::nnls_pivots),
        "count");
    add("core.vardi.nnls_pivots", per_run(Method::vardi, &SC::nnls_pivots),
        "count");

    const SpmvProbe spmv = spmv_probe(w.routing());
    const TriadProbe triad = triad_probe();
    add("linalg.spmv.gbps", spmv.spmv_gbps, "GB/s");
    add("linalg.spmv_t.gbps", spmv.spmv_t_gbps, "GB/s");
    add("linalg.stream_gbps", triad.gbps, "GB/s");
    add("linalg.stream_array_mb", triad.array_mb, "MB");
    add("linalg.llc_mb", triad.llc_mb, "MB");
    add("linalg.spmv.roofline_share",
        triad.gbps > 0.0 ? spmv.spmv_gbps / triad.gbps : 0.0, "share");
    for (Method m : {Method::bayesian, Method::fanout}) {
        const auto it = traced.methods.find(m);
        double v = 0.0;
        if (it != traced.methods.end() && it->second.solver.qp_cg_iterations) {
            double total = 0.0;
            for (double s : it->second.seconds) total += s;
            v = ms(total) /
                static_cast<double>(it->second.solver.qp_cg_iterations);
        }
        add(std::string("core.") + tme::engine::method_name(m) +
                ".ms_per_cg_iter",
            v, "ms");
    }

    add("pipeline.backpressure_ms", ms(traced.backpressure_s_per_submit),
        "ms");
    add("pipeline.max_in_flight", static_cast<double>(traced.max_in_flight),
        "count");
    add("fleet.worker_busy_share", traced.fleet_busy_share, "share");
    add("fleet.skew", traced.fleet_skew, "x");

    add("serve.publish_us_p50", us(span_quantile(sum, "serve.publish", 0.5)),
        "us");
    add("serve.publish_us_p99",
        us(span_quantile(sum, "serve.publish", 0.99)), "us");
    for (const char* kind : {"lookup", "latest", "point", "topk", "delta"}) {
        const auto it = traced.reads.latency_s.find(kind);
        const std::vector<double> none;
        const std::vector<double>& v =
            it == traced.reads.latency_s.end() ? none : it->second;
        add(std::string("serve.") + kind + "_us_p50",
            v.empty() ? 0.0 : us(smoothed_quantile(v, 0.5)), "us");
        add(std::string("serve.") + kind + "_us_p99",
            v.empty() ? 0.0 : us(smoothed_quantile(v, 0.99)), "us");
    }
    add("serve.reclaim_deferred", static_cast<double>(traced.reclaim_deferred),
        "count");
    add("trace.overhead_pct",
        traced.windows_per_s() > 0.0
            ? 100.0 * (untraced.windows_per_s() / traced.windows_per_s() - 1.0)
            : 0.0,
        "%");
    return out;
}

void print(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

std::string json_line(bool correct, std::size_t attempted,
                      std::size_t failed,
                      const std::vector<Metric>& metrics) {
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
}

/// Folds a replay's checks into the run verdict, printing each failure.
bool checked(const char* label, const ReplayStats& st) {
    for (const std::string& e : st.errors) {
        std::printf("# CHECK FAILED (%s): %s\n", label, e.c_str());
    }
    if (!st.units_agree) {
        std::printf("# CHECK FAILED (%s): repeated units published "
                    "different estimates\n",
                    label);
    }
    return st.check_failures == 0 && st.units_agree && st.windows > 0;
}

int run(const Args& args) {
    std::unique_ptr<Workload> w = make_workload(args.workload);
    std::vector<double> setup_s, scenario_s, routing_s;
    const auto set_up = [&] {
        const Clock::time_point start = Clock::now();
        for (int r = 0;
             r < kMinSetups ||
             (r < kMaxSetups &&
              seconds_between(start, Clock::now()) < kSetupBurstSeconds);
             ++r) {
            const Clock::time_point t0 = Clock::now();
            const auto [sc, rt] = w->setup(args.seed);
            setup_s.push_back(seconds_between(t0, Clock::now()));
            scenario_s.push_back(sc);
            routing_s.push_back(rt);
        }
    };
    set_up();
    ReplayStats st = w->replay({args.seconds, std::nullopt, false, true});
    const double rss = peak_rss_mb();
    // The second burst also leaves the workload freshly set up for the
    // traced replays.
    set_up();
    const double setup = quantile(setup_s, 0.5);
    bool correct = checked("replay", st);
    std::size_t attempted = st.windows + st.reads.ops;
    std::size_t failed = st.check_failures + st.reads.failed;

    std::printf("%s seed %u, %.0f s%s\n", w->name().c_str(), args.seed,
                args.seconds, args.trace ? ", traced run" : "");
    const std::vector<Metric> e2e_metrics = end_to_end(st, setup, rss);
    print(e2e_metrics);
    if (!args.trace) {
        std::printf("%s\n", json_line(correct, attempted, failed,
                                      e2e_metrics)
                                .c_str());
        return correct ? 0 : 1;
    }

    Tracer& tracer = Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);
    ReplayStats traced = w->replay({args.seconds, std::nullopt, true, true});
    tracer.set_enabled(false);
    correct = checked("traced replay", traced) && correct;
    if (traced.digest != st.digest) {
        std::printf("# CHECK FAILED: traced and untraced replays published "
                    "different estimates (%016llx vs %016llx)\n",
                    static_cast<unsigned long long>(traced.digest),
                    static_cast<unsigned long long>(st.digest));
        correct = false;
    }
    std::optional<ReplayStats> serial;
    if (w->has_serial_baseline()) {
        serial = w->replay({0.0, std::size_t{0}, false});
        correct = checked("threads=0 replay", *serial) && correct;
        if (serial->digest != st.digest) {
            std::printf("# CHECK FAILED: threads=0 and threaded replays "
                        "published different estimates\n");
            correct = false;
        }
    }
    attempted += traced.windows + traced.reads.ops +
                 (serial ? serial->windows : 0);
    failed += traced.check_failures + traced.reads.failed +
              (serial ? serial->check_failures : 0);
    std::printf("# digest %016llx identical across untraced, traced%s "
                "replays: %s\n",
                static_cast<unsigned long long>(st.digest),
                serial ? " and threads=0" : "", correct ? "yes" : "NO");

    const double routing_probe_s = w->routing_probe();
    const std::vector<SpanRecord> spans = tracer.collect();
    std::filesystem::create_directories(args.out);
    const std::string span_path = args.out + "/" + w->name() + "-seed" +
                                  std::to_string(args.seed) + ".spans.json";
    if (!write_spans(span_path, spans)) {
        std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
        return 1;
    }
    std::printf("# %zu spans written to %s\n", spans.size(),
                span_path.c_str());
    for (const auto& [name, s] : summarize(spans)) {
        std::printf("# span %-20s count %7zu  total %9.3f s  self %9.3f s\n",
                    name.c_str(), s.count, s.total_s, s.self_s);
    }
    const std::vector<Metric> layers =
        per_layer(*w, traced, st, serial ? &*serial : nullptr, scenario_s,
                  routing_s, routing_probe_s, spans);
    print(layers);
    std::printf("%s\n", json_line(correct, attempted, failed, layers).c_str());
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
    e2e::Args args;
    if (!e2e::parse(argc, argv, args) || !e2e::make_workload(args.workload)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload "
                     "<paper-day|backbone-200|fleet-sweep|serve-mixed> "
                     "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
        return 2;
    }
    try {
        return e2e::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
