// Hardware-side probes of the linalg layer: a STREAM-style triad for
// the machine's memory bandwidth, and SpMV throughput of the routing
// kernels on a workload's own R.  Bytes are *computed* from the kernels'
// access pattern (every array element the loop reads or writes, each
// counted once per touch), not measured by hardware counters.
#pragma once

#include "linalg/sparse.hpp"

namespace e2e {

struct TriadProbe {
    double gbps = 0.0;      ///< computed bytes / s, median of the passes
    double array_mb = 0.0;  ///< size of each of the three arrays
    double llc_mb = 0.0;    ///< last-level cache size (0 if unknown)
};

/// a[i] = b[i] + s * c[i] over arrays of at least 4x the LLC each.
TriadProbe triad_probe();

struct SpmvProbe {
    double spmv_gbps = 0.0;    ///< R.multiply_into (y = R x)
    double spmv_t_gbps = 0.0;  ///< R.multiply_transpose_into (y = R' x)
};

SpmvProbe spmv_probe(const tme::linalg::SparseMatrix& r);

}  // namespace e2e
