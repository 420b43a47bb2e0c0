#pragma once
// Umbrella header: the full public API of the rcs-codesign library.
//
// Quick tour:
//   core/system.hpp        — SystemParams + machine presets (Cray XD1, ...)
//   core/partition.hpp     — Eq. 1/2/4/5/6 workload-partition solvers
//   core/predict.hpp       — the §4.5 performance predictor
//   core/lu_functional.hpp — lu_functional: distributed LU over MiniMPI
//                            (real data, or cost-only at paper scale)
//   core/fw_functional.hpp — distributed Floyd–Warshall over MiniMPI
//   core/mm.hpp            — hybrid block MM of the companion work [22]
//   core/cholesky.hpp      — cholesky_functional: hybrid Cholesky of SPD A,
//                            run on lu_functional's schedule
//   plus the substrates they run on: linalg/ (dense BLAS subset, LU,
//   Cholesky), graph/ (Floyd–Warshall), fpga/, node/, net/ (MiniMPI),
//   sim/, fparith/ (add, mul and min cores) and common/.

#include "core/cholesky.hpp"
#include "core/design.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/partition.hpp"
#include "core/predict.hpp"
#include "core/system.hpp"
#include "fparith/backend.hpp"
#include "fparith/ieee754.hpp"
#include "fpga/device.hpp"
#include "fpga/fw_kernel.hpp"
#include "fpga/matmul_array.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/matrix.hpp"
#include "net/contention.hpp"
#include "net/matrix_channel.hpp"
#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "node/gpp.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
