// Fleet driver tour: replay several scenario/config variants of one
// backbone day concurrently, sharing a single routing-epoch cache, and
// read the aggregated fleet report.
//
//   ./fleet_driver [--samples N] [--usa]
//
// Three jobs run over the same day: the default engine configuration,
// a longer estimation window, and a variant with a mid-day reroute
// (which exercises the shared cache with a second routing epoch).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/route_change.hpp"
#include "engine/fleet.hpp"

int main(int argc, char** argv) {
    using namespace tme;

    std::size_t samples = 96;
    scenario::Network network = scenario::Network::europe;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--samples") && i + 1 < argc) {
            samples = static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--usa")) {
            network = scenario::Network::usa;
        } else {
            std::printf("usage: %s [--samples N] [--usa]\n", argv[0]);
            return 2;
        }
    }

    scenario::Scenario sc = scenario::make_scenario(network);
    if (samples > 0 && sc.demands.size() > samples) {
        sc.demands.resize(samples);
        sc.loads.resize(samples);
    }
    const linalg::SparseMatrix rerouted =
        core::perturbed_routing(sc.topo, 0.8, 7);

    engine::FleetConfig config;
    config.engine.window_size = 12;
    config.engine.methods = {engine::Method::gravity,
                             engine::Method::bayesian,
                             engine::Method::vardi, engine::Method::fanout};
    config.concurrency = 3;

    std::vector<engine::FleetJob> jobs(3);
    jobs[0].name = "baseline";
    jobs[0].scenario = &sc;
    jobs[1].name = "long-window";
    jobs[1].scenario = &sc;
    jobs[1].engine = config.engine;
    jobs[1].engine->window_size = 24;
    jobs[2].name = "midday-reroute";
    jobs[2].scenario = &sc;
    jobs[2].replay.events = {{sc.demands.size() / 2, &rerouted}};

    engine::FleetDriver driver(sc.topo, config);
    const engine::FleetReport report = driver.run(jobs);

    std::printf("%s day, %zu samples, 3 concurrent jobs\n\n",
                sc.name.c_str(), sc.demands.size());
    std::printf("%s\n", report.summary().c_str());
    for (const engine::FleetJobReport& job : report.jobs) {
        std::printf("%s:\n", job.name.c_str());
        for (const auto& [method, mre] : job.mean_mre) {
            std::printf("  %-9s mean MRE %.4f\n",
                        engine::method_name(method), mre);
        }
    }
    std::printf("\nshared cache: every job reads the same per-epoch "
                "derived data —\n%zu misses across %zu windows; the "
                "reroute job added its own epoch.\n",
                report.cache_misses, report.total_windows);
    return 0;
}
