#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "support.hpp"

namespace e2e {

namespace {

double llc_bytes() {
    // glibc answers from CPUID on x86; sysfs is the fallback.
    const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (bytes > 0) return static_cast<double>(bytes);
    std::FILE* f =
        std::fopen("/sys/devices/system/cpu/cpu0/cache/index3/size", "r");
    if (f == nullptr) return 0.0;
    unsigned long kib = 0;
    const int n = std::fscanf(f, "%luK", &kib);
    std::fclose(f);
    return n == 1 ? 1024.0 * static_cast<double>(kib) : 0.0;
}

/// Median of `passes` timings of `body`, each repeated until it has
/// run at least `min_seconds`; returns bytes / s for `bytes` per call.
template <typename Body>
double rate(double bytes, int passes, double min_seconds, Body body) {
    std::vector<double> rates;
    for (int p = 0; p < passes; ++p) {
        std::size_t calls = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            body();
            ++calls;
            elapsed = seconds_between(t0, Clock::now());
        } while (elapsed < min_seconds);
        rates.push_back(bytes * static_cast<double>(calls) / elapsed);
    }
    return quantile(rates, 0.5);
}

}  // namespace

TriadProbe triad_probe() {
    TriadProbe out;
    const double llc = llc_bytes();
    out.llc_mb = llc / 1e6;
    // 4x the LLC per array (64 MB floor when the LLC is unknown).
    const auto n = static_cast<std::size_t>(
        std::max(4.0 * llc, 64e6) / sizeof(double));
    out.array_mb = static_cast<double>(n * sizeof(double)) / 1e6;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    // Two reads and one write per element.
    const double bytes = 3.0 * static_cast<double>(n * sizeof(double));
    out.gbps = rate(bytes, 5, 0.0, [&] {
                   double* __restrict pa = a.data();
                   const double* __restrict pb = b.data();
                   const double* __restrict pc = c.data();
                   for (std::size_t i = 0; i < n; ++i) {
                       pa[i] = pb[i] + s * pc[i];
                   }
               }) /
               1e9;
    if (a[n / 2] != 7.0) out.gbps = 0.0;  // keeps the loop observable
    return out;
}

SpmvProbe spmv_probe(const tme::linalg::SparseMatrix& r) {
    const auto rows = static_cast<double>(r.rows());
    const auto cols = static_cast<double>(r.cols());
    const auto nnz = static_cast<double>(r.nonzeros());
    constexpr double idx = sizeof(std::size_t);
    constexpr double val = sizeof(double);
    // y = R x: y zero-fill and store, row offsets, and per nonzero its
    // value, column index and the gathered x entry.
    const double fwd_bytes =
        2.0 * val * rows + idx * (rows + 1.0) + nnz * (2.0 * val + idx);
    // y = R' x: y zero-fill, row offsets and x per row, and per nonzero
    // its value, column index and a read-modify-write of y.
    const double bwd_bytes = val * cols + (idx + val) * rows + idx +
                             nnz * (3.0 * val + idx);

    tme::linalg::Vector x(r.cols(), 1.0), y;
    tme::linalg::Vector xt(r.rows(), 1.0), yt;
    SpmvProbe out;
    out.spmv_gbps =
        rate(fwd_bytes, 5, 0.05, [&] { r.multiply_into(x, y); }) / 1e9;
    out.spmv_t_gbps =
        rate(bwd_bytes, 5, 0.05, [&] { r.multiply_transpose_into(xt, yt); }) /
        1e9;
    return out;
}

}  // namespace e2e
