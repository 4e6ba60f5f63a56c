#include "runtime/gemm.h"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "runtime/scheduler.h"

namespace goldfish::runtime {

namespace {

// Microkernel tile, sized so the accumulator block fills most of the
// vector register file of the widest ISA the compiler targets: 8×32 under
// AVX-512 (16 of 32 zmm accumulators), 6×16 under AVX/AVX2 (12 of 16 ymm),
// 4×8 for plain SSE (8 of 16 xmm).
#if defined(__AVX512F__)
constexpr long MR = 8, NR = 32;
#elif defined(__AVX2__) || defined(__AVX__)
constexpr long MR = 6, NR = 16;
#else
constexpr long MR = 4, NR = 8;
#endif
constexpr long KC = 256;       // inner-dimension slice (packed panels in L1/L2)
constexpr long MC = MR * 16;   // row panel height per parallel task
constexpr long NC = NR * 64;   // column panel width (packed B slice in L2/L3)

// Below this flop count the packing and scheduling overhead dominates;
// run the packed loop serially on the calling thread.
constexpr long kParallelFlops = 1L << 18;

/// Monotonically growing per-thread packing scratch. GEMM used to heap-
/// allocate its pack buffers on every call; steady-state training reuses the
/// same shapes over and over, so after warm-up ensure() never allocates.
///
/// Safety of thread_local here: the thread that opens a parallel region only
/// ever executes chunks of its *own* region while waiting (Scheduler::
/// run_chunks), and GEMM's chunk bodies never open nested regions or call
/// back into sgemm, so a live buffer can never be clobbered by re-entry on
/// the same thread. Worker threads reading the caller's B panel do so
/// through the captured pointer, not their own thread_local slot.
class PackBuffer {
 public:
  float* ensure(std::size_t need) {
    if (cap_ < need) {
      data_.reset(new float[need]);  // default-init: no memset on growth
      cap_ = need;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<float[]> data_;
  std::size_t cap_ = 0;
};

thread_local PackBuffer tl_pack_a;
thread_local PackBuffer tl_pack_b;

/// Per-tile writeback mode: how the microkernel's register block lands in C.
/// `overwrite` is set on the first KC slice of a beta=0 product (C's prior
/// contents are not read); the bias fields are set only on the final KC
/// slice, where the epilogue fires.
struct Writeback {
  bool overwrite = false;
  const float* bias_col = nullptr;  // tile-local: indexed by j in [0, nr)
  const float* bias_row = nullptr;  // tile-local: indexed by i in [0, mr)
};

inline float elem_a(const float* A, long lda, bool trans, long i, long p) {
  return trans ? A[p * lda + i] : A[i * lda + p];
}

inline float elem_b(const float* B, long ldb, bool trans, long p, long j) {
  return trans ? B[j * ldb + p] : B[p * ldb + j];
}

/// Pack op(A)[i0:i0+mc, p0:p0+kc] into MR-tall micro-panels: panel ir holds
/// kc groups of MR consecutive row elements, zero-padded past mc.
void pack_a(const float* A, long lda, bool trans, long i0, long mc, long p0,
            long kc, float* dst) {
  for (long ir = 0; ir < mc; ir += MR) {
    const long mr = std::min(MR, mc - ir);
    for (long p = 0; p < kc; ++p) {
      for (long i = 0; i < mr; ++i)
        dst[i] = elem_a(A, lda, trans, i0 + ir + i, p0 + p);
      for (long i = mr; i < MR; ++i) dst[i] = 0.0f;
      dst += MR;
    }
  }
}

/// Pack op(B)[p0:p0+kc, j0:j0+nc] into NR-wide micro-panels: panel jr holds
/// kc groups of NR consecutive column elements, zero-padded past nc.
void pack_b(const float* B, long ldb, bool trans, long p0, long kc, long j0,
            long nc, float* dst) {
  for (long jr = 0; jr < nc; jr += NR) {
    const long nr = std::min(NR, nc - jr);
    for (long p = 0; p < kc; ++p) {
      for (long j = 0; j < nr; ++j)
        dst[j] = elem_b(B, ldb, trans, p0 + p, j0 + jr + j);
      for (long j = nr; j < NR; ++j) dst[j] = 0.0f;
      dst += NR;
    }
  }
}

// Register-tiled microkernel: acc(MR×NR) = Σ_p Ap[p]·Bp[p] over one packed
// panel pair, then land the valid mr×nr region in C per the Writeback mode
// (overwrite vs accumulate, optional fused bias broadcast — applied while
// the tile is still in registers, so the epilogue costs no extra pass over
// C). Written with GCC/Clang vector extensions because the auto-vectorizer
// reliably fails to promote a scalar float acc[MR][NR] into full-width
// registers (it picked 128-bit lanes and spilled); an explicit vector
// accumulator block pins both the width and the register residency.
#if defined(__AVX__) || defined(__AVX512F__)

#if defined(__AVX512F__)
typedef float vecf __attribute__((vector_size(64), aligned(4)));
#else
typedef float vecf __attribute__((vector_size(32), aligned(4)));
#endif
constexpr long VL = static_cast<long>(sizeof(vecf) / sizeof(float));
static_assert(NR == 2 * VL, "microkernel assumes two vectors per row");

void micro_kernel(long kc, const float* Ap, const float* Bp, float* C,
                  long ldc, long mr, long nr, const Writeback& wb) {
  vecf acc0[MR] = {};
  vecf acc1[MR] = {};
  for (long p = 0; p < kc; ++p) {
    const vecf b0 = *reinterpret_cast<const vecf*>(Bp + p * NR);
    const vecf b1 = *reinterpret_cast<const vecf*>(Bp + p * NR + VL);
    const float* a = Ap + p * MR;
    for (long i = 0; i < MR; ++i) {  // constant bound → fully unrolled
      acc0[i] += a[i] * b0;          // scalar a[i] splats across the lanes
      acc1[i] += a[i] * b1;
    }
  }
  if (mr == MR && nr == NR) {
    vecf bc0 = {}, bc1 = {};
    if (wb.bias_col) {
      bc0 = *reinterpret_cast<const vecf*>(wb.bias_col);
      bc1 = *reinterpret_cast<const vecf*>(wb.bias_col + VL);
    }
    for (long i = 0; i < MR; ++i) {
      vecf* c = reinterpret_cast<vecf*>(C + i * ldc);
      vecf r0 = acc0[i];
      vecf r1 = acc1[i];
      if (!wb.overwrite) {
        r0 += c[0];
        r1 += c[1];
      }
      if (wb.bias_col) {
        r0 += bc0;
        r1 += bc1;
      }
      if (wb.bias_row) {
        r0 += wb.bias_row[i];
        r1 += wb.bias_row[i];
      }
      c[0] = r0;
      c[1] = r1;
    }
  } else {
    for (long i = 0; i < mr; ++i) {
      const float* row0 = reinterpret_cast<const float*>(&acc0[i]);
      const float* row1 = reinterpret_cast<const float*>(&acc1[i]);
      for (long j = 0; j < nr; ++j) {
        float v = j < VL ? row0[j] : row1[j - VL];
        if (!wb.overwrite) v += C[i * ldc + j];
        if (wb.bias_col) v += wb.bias_col[j];
        if (wb.bias_row) v += wb.bias_row[i];
        C[i * ldc + j] = v;
      }
    }
  }
}

#else  // scalar fallback (no AVX): small tile, plain float accumulators

void micro_kernel(long kc, const float* Ap, const float* Bp, float* C,
                  long ldc, long mr, long nr, const Writeback& wb) {
  float acc[MR][NR] = {};
  for (long p = 0; p < kc; ++p) {
    const float* b = Bp + p * NR;
    const float* a = Ap + p * MR;
    for (long i = 0; i < MR; ++i) {
      const float ai = a[i];
      for (long j = 0; j < NR; ++j) acc[i][j] += ai * b[j];
    }
  }
  for (long i = 0; i < mr; ++i) {
    for (long j = 0; j < nr; ++j) {
      float v = acc[i][j];
      if (!wb.overwrite) v += C[i * ldc + j];
      if (wb.bias_col) v += wb.bias_col[j];
      if (wb.bias_row) v += wb.bias_row[i];
      C[i * ldc + j] = v;
    }
  }
}

#endif

/// Degenerate k ≤ 0: the product term is empty, but beta and the epilogue
/// still define C. Kept off the hot path; loops are fine.
void epilogue_only(long m, long n, float* C, long ldc, float beta, Epilogue ep,
                   const float* bias) {
  const bool col = ep == Epilogue::kBiasCol;
  const bool row = ep == Epilogue::kBiasRow;
  for (long i = 0; i < m; ++i) {
    for (long j = 0; j < n; ++j) {
      float v = beta == 0.0f ? 0.0f : C[i * ldc + j];
      if (col) v += bias[j];
      if (row) v += bias[i];
      C[i * ldc + j] = v;
    }
  }
}

}  // namespace

void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc, float beta,
           Epilogue epilogue, const float* bias, Scheduler* sched) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    epilogue_only(m, n, C, ldc, beta, epilogue, bias);
    return;
  }
  if (sched == nullptr) sched = &Scheduler::global();
  const bool parallel = m * n * k >= kParallelFlops;

  const bool bias_is_col = epilogue == Epilogue::kBiasCol;
  const bool bias_is_row = epilogue == Epilogue::kBiasRow;

  float* bp = tl_pack_b.ensure(static_cast<std::size_t>(
      ((std::min(n, NC) + NR - 1) / NR) * NR * std::min(k, KC)));

  for (long jc = 0; jc < n; jc += NC) {
    const long nc = std::min(NC, n - jc);
    for (long pc = 0; pc < k; pc += KC) {
      const long kc = std::min(KC, k - pc);
      pack_b(B, ldb, transb, pc, kc, jc, nc, bp);

      // beta only governs the first KC slice (later slices accumulate the
      // partial product already in C); the epilogue fires on the last.
      const bool overwrite = pc == 0 && beta == 0.0f;
      const bool last = pc + kc >= k;
      const float* bias_col = last && bias_is_col ? bias + jc : nullptr;
      const float* bias_row = last && bias_is_row ? bias : nullptr;

      const long num_row_panels = (m + MC - 1) / MC;
      if (num_row_panels > 1) {
        // Tall C: split row panels across the pool (each task packs its
        // own A panel). Both branches reduce k in the same fixed order,
        // so the branch choice never affects the result.
        const auto row_panel = [&](long lo, long hi) {
          float* ap = tl_pack_a.ensure(static_cast<std::size_t>(MC * kc));
          for (long panel = lo; panel < hi; ++panel) {
            const long ic = panel * MC;
            const long mc = std::min(MC, m - ic);
            pack_a(A, lda, transa, ic, mc, pc, kc, ap);
            for (long jr = 0; jr < nc; jr += NR) {
              const float* bpanel = bp + (jr / NR) * kc * NR;
              for (long ir = 0; ir < mc; ir += MR) {
                Writeback wb;
                wb.overwrite = overwrite;
                if (bias_col) wb.bias_col = bias_col + jr;
                if (bias_row) wb.bias_row = bias_row + ic + ir;
                micro_kernel(kc, ap + (ir / MR) * kc * MR, bpanel,
                             C + (ic + ir) * ldc + jc + jr, ldc,
                             std::min(MR, mc - ir), std::min(NR, nc - jr), wb);
              }
            }
          }
        };
        if (parallel) {
          sched->parallel_for(num_row_panels, row_panel, /*grain=*/1);
        } else {
          row_panel(0, num_row_panels);
        }
      } else {
        // Short-fat C (m ≤ MC — conv forward is outC × N·oh·ow): a single
        // row panel would serialize everything, so pack A once and split
        // the NR-wide column tiles across the pool instead.
        float* ap = tl_pack_a.ensure(static_cast<std::size_t>(MC * kc));
        pack_a(A, lda, transa, 0, m, pc, kc, ap);
        const long num_col_tiles = (nc + NR - 1) / NR;
        const auto col_tiles = [&](long lo, long hi) {
          for (long tile = lo; tile < hi; ++tile) {
            const long jr = tile * NR;
            const float* bpanel = bp + tile * kc * NR;
            for (long ir = 0; ir < m; ir += MR) {
              Writeback wb;
              wb.overwrite = overwrite;
              if (bias_col) wb.bias_col = bias_col + jr;
              if (bias_row) wb.bias_row = bias_row + ir;
              micro_kernel(kc, ap + (ir / MR) * kc * MR, bpanel,
                           C + ir * ldc + jc + jr, ldc, std::min(MR, m - ir),
                           std::min(NR, nc - jr), wb);
            }
          }
        };
        if (parallel && num_col_tiles > 1) {
          sched->parallel_for(num_col_tiles, col_tiles, /*grain=*/4);
        } else {
          col_tiles(0, num_col_tiles);
        }
      }
    }
  }
}

void sgemm(bool transa, bool transb, long m, long n, long k, const float* A,
           long lda, const float* B, long ldb, float* C, long ldc,
           Scheduler* sched) {
  sgemm(transa, transb, m, n, k, A, lda, B, ldb, C, ldc, /*beta=*/1.0f,
        Epilogue::kNone, /*bias=*/nullptr, sched);
}

}  // namespace goldfish::runtime
