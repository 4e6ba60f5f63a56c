// Single blocked GEMM backbone: every matrix product in the library — all
// four transpose combinations — lowers to this one kernel.
//
// Algorithm (BLIS-style three-level blocking over row-major storage):
//   for each NC-wide column panel of C:
//     for each KC-deep slice of the inner dimension:
//       pack op(B) slice into contiguous NR-wide micro-panels (zero-padded)
//       for each MC-tall row panel of C (parallel across the Scheduler):
//         pack op(A) slice into contiguous MR-tall micro-panels
//         for each MR×NR tile: register-tiled microkernel, accumulating the
//         full KC product into local registers before touching C
//
// Packing makes the microkernel's loads unit-stride regardless of the
// transpose flags, so transposes are never materialized. Packing buffers are
// thread_local and grow monotonically, so steady-state calls never touch the
// heap.
//
// Determinism: the k-dimension is reduced in a fixed order (KC blocks outer,
// packed k inner) and parallelism only splits independent output tiles of C
// (row panels when C is tall, NR-wide column tiles when C is short-fat), so
// results are bit-identical for any thread count.
#pragma once

namespace goldfish::runtime {

class Scheduler;

/// Bias broadcast fused into the microkernel's final writeback (the last KC
/// slice of the k reduction), replacing what would otherwise be an extra
/// pass over C:
///
///   kNone     C[i,j] = beta·C[i,j] + P[i,j]
///   kBiasCol  C[i,j] = beta·C[i,j] + P[i,j] + bias[j]   (linear layers)
///   kBiasRow  C[i,j] = beta·C[i,j] + P[i,j] + bias[i]   (conv channels)
///
/// where P = op(A)·op(B). Bias is broadcast per column (length n) or per row
/// (length m). Activations are not fused: a ReLU after a product runs as its
/// own pass (nn::ReLU), which measured no slower at this library's layer
/// shapes. The values are fixed: kBiasRow keeps the 3 it had before the
/// ReLU-fused epilogues were removed, so tests parameterized (and named) by
/// the value keep their names.
enum class Epilogue { kNone = 0, kBiasCol = 1, kBiasRow = 3 };

/// C(m×n) = beta·C + op(A)·op(B), bias-fused, with op(X) = Xᵀ when the
/// flag is set. All matrices row-major; `lda`/`ldb`/`ldc` are the stored row
/// lengths (A is stored k×m when `transa`, likewise B is stored n×k when
/// `transb`). C must not alias A, B, or `bias`.
///
/// `beta` selects the writeback mode of the *first* KC slice and must be
/// exactly 0 or 1: 0 overwrites C (its prior contents are never read — pair
/// with Tensor::uninit to skip the zero-fill entirely), 1 accumulates into C
/// (the gradient hot path). Later slices always accumulate the partial
/// product; the epilogue is applied once, on the final slice.
///
/// `bias` must be non-null (length n for kBiasCol, m for kBiasRow) whenever
/// `epilogue != kNone`, and is ignored otherwise.
/// `sched == nullptr` uses the process-wide Scheduler.
void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched = nullptr);

/// C += op(A)·op(B): the historical accumulate-only entry point
/// (beta = 1, no epilogue).
void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc,
           Scheduler* sched = nullptr);

}  // namespace goldfish::runtime
