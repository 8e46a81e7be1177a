/* Compiled executors for the Stockham FFT plan layer.
 *
 * Every kernel here replays, operation for operation, the floating-point
 * recurrences NumPy executes on the legacy functional path, so compiled
 * plans produce byte-identical output while touching memory once per
 * stage instead of once per ufunc:
 *
 *   - complex multiply (ufunc) : re = fma(ar, br, -(ai*bi))
 *                                im = fma(ar, bi,   ai*br )
 *     (NumPy's SIMD complex-multiply loops contract the first product
 *     into an FMA; verified empirically for complex64 and complex128.)
 *   - einsum contractions      : naive rounded products, contracted
 *                                index summed sequentially from zero.
 *   - scalar /= and *=         : independent per-component ops.
 *
 * Two plan kernels run one pruned real plan's whole "decomp" execute
 * in one call, operation for operation as its NumPy glue in
 * repro.fft.compiled:
 *
 *   - pruned_rfft  : CompiledPrunedRFFTPlan -- P-subsequence gather,
 *                    length-q Stockham, mirror-conjugate gather, two
 *                    decomp_reduce sums, acc + acc2 sliced to part.
 *   - pruned_irfft : CompiledPrunedIRFFTPlan -- head and tail weight
 *                    multiplies, two expand_mul passes and their sum,
 *                    inverse Stockham with the chained scalings, the
 *                    even/odd interleave.
 *
 * Three drivers compose those kernels so one executor call crosses the
 * FFI once instead of once per kernel:
 *
 *   - panel_gemm : every k_tb-wide panel contraction of a (batch, C_in,
 *                  m) spectrum, in canonical panel order (the symmetric
 *                  plan chain and the spectrum-resident rollout step).
 *   - fused1d    : the whole fused FFT -> CGEMM -> iFFT pass of
 *                  repro.core.compiled._StagedFused1D.run_fused -- tile
 *                  loop, grouped gather, Stockham, decomp_reduce, panel
 *                  contractions, expand_mul, inverse Stockham with the
 *                  chained scalings, interleaving scatter -- calling the
 *                  kernels above in exactly the Python driver's order,
 *                  so the bits do not change.  Its static operands
 *                  (weights, twiddle tables, executor-owned workspaces)
 *                  travel in one fused1d_plan struct built at staging.
 *   - sym1d      : the symmetric 1-D pass of
 *                  repro.core.compiled._StagedSymmetric -- pruned_rfft
 *                  -> panel_gemm -> pruned_irfft per batch tile, with
 *                  the cast weight, both plans' tables and executor-
 *                  owned workspaces in one sym1d_plan struct.
 *
 * Raw-address contract: every pointer argument is a bare address
 * (ctypes c_void_p).  No type, layout or bounds information crosses the
 * boundary, so the Python bindings check each operand's dtype,
 * C-contiguity and element count against the dims they pass and raise
 * ValueError before calling in; nothing here re-checks.
 *
 * The file is compiled with -ffp-contract=off and WITHOUT -mfma: GCC's
 * vectorizer introduces FMAs into plain expressions whenever the FMA ISA
 * is enabled globally (even under -ffp-contract=off), which would break
 * the einsum replicas.  The kernels that *need* FMA semantics opt in
 * per-function via the target attribute when REPRO_TARGET_FMA is set.
 * repro.fft._ckernels self-checks every kernel and driver against NumPy
 * (fused1d against repro.core.legacy, the pruned real kernels and sym1d
 * against the NumPy backend's plan chain) on named probes at load time
 * and refuses the library if the host toolchain deviates.
 */

#include <math.h>

#if defined(__x86_64__) && defined(REPRO_TARGET_FMA)
#define FMA_TARGET __attribute__((target("fma,avx2")))
#else
#define FMA_TARGET
#endif

/* ------------------------------------------------------------------ */
/* Stockham stage loop                                                 */
/* ------------------------------------------------------------------ */

/* Full radix-2 Stockham FFT over `rows` independent signals of length n
 * (power of two), complex interleaved.  tw holds the concatenated
 * per-stage half tables (n-1 complex entries, stage span 2 first).  The
 * final stage writes `out`; `scratch` is the other ping-pong buffer.
 * do_div/do_mul chain the legacy `out /= div_by` and `out *= mul_by`
 * passes into the last stage's store (same roundings, one less pass). */
#define STOCKHAM(NAME, T, FMAF)                                          \
FMA_TARGET void NAME(const T* x, T* out, T* scratch, const T* tw,        \
                     long rows, long n, int do_div, T div_by,            \
                     int do_mul, T mul_by) {                             \
    if (n == 1) {                                                        \
        for (long i = 0; i < 2*rows; i++) {                              \
            T v = x[i];                                                  \
            if (do_div) v = v / div_by;                                  \
            if (do_mul) v = v * mul_by;                                  \
            out[i] = v;                                                  \
        }                                                                \
        return;                                                          \
    }                                                                    \
    long nstages = 0;                                                    \
    for (long t = n; t > 1; t >>= 1) nstages++;                          \
    T* bufs[2];                                                          \
    if (nstages % 2 == 1) { bufs[0] = out; bufs[1] = scratch; }          \
    else                  { bufs[0] = scratch; bufs[1] = out; }          \
    const T* twp = tw;                                                   \
    for (long s = 0; s < nstages; s++) {                                 \
        long span = 2L << s;                                             \
        long half = span >> 1;                                           \
        long r = n / span;                                               \
        const T* cur = (s == 0) ? x : bufs[(s+1) % 2];                   \
        T* nxt = bufs[s % 2];                                            \
        int last = (s == nstages - 1);                                   \
        for (long row = 0; row < rows; row++) {                          \
            const T* arow = cur + 2*row*n;                               \
            const T* brow = cur + 2*row*n + n;                           \
            T* orow = nxt + 2*row*n;                                     \
            for (long rr = 0; rr < r; rr++) {                            \
                const T* ap = arow + 2*rr*half;                          \
                const T* bp = brow + 2*rr*half;                          \
                T* op0 = orow + 2*rr*span;                               \
                T* op1 = op0 + span;                                     \
                for (long j = 0; j < half; j++) {                        \
                    T wr = twp[2*j], wi = twp[2*j+1];                    \
                    T br = bp[2*j], bi = bp[2*j+1];                      \
                    T wbr = FMAF(wr, br, -(wi*bi));                      \
                    T wbi = FMAF(wr, bi, wi*br);                         \
                    T ar = ap[2*j], ai = ap[2*j+1];                      \
                    T pr = ar + wbr, pi = ai + wbi;                      \
                    T mr = ar - wbr, mi = ai - wbi;                      \
                    if (last) {                                          \
                        if (do_div) {                                    \
                            pr /= div_by; pi /= div_by;                  \
                            mr /= div_by; mi /= div_by;                  \
                        }                                                \
                        if (do_mul) {                                    \
                            pr *= mul_by; pi *= mul_by;                  \
                            mr *= mul_by; mi *= mul_by;                  \
                        }                                                \
                    }                                                    \
                    op0[2*j] = pr; op0[2*j+1] = pi;                      \
                    op1[2*j] = mr; op1[2*j+1] = mi;                      \
                }                                                        \
            }                                                            \
        }                                                                \
        twp += 2*half;                                                   \
    }                                                                    \
}

STOCKHAM(stockham_f32, float, fmaf)
STOCKHAM(stockham_f64, double, fma)

/* ------------------------------------------------------------------ */
/* einsum replicas (naive products, sequential contraction)            */
/* ------------------------------------------------------------------ */

/* acc[b,o,m] += sum_k a[b,k,m] * w[k,o]
 * == `acc += np.einsum("bkm,ko->bom", a, w)`: the panel sum is formed
 * from zero with naive rounded products, then added into acc.  a_bs is
 * the batch stride of `a` in complex elements (kt*m when contiguous).
 * The sums of up to PANEL_CHUNK consecutive modes are carried together
 * in local accumulators, so the innermost loop runs along contiguous
 * modes; every sum still adds its products in k order, from zero. */
#define PANEL_CHUNK 64
#define PANEL_ACC(NAME, T)                                               \
static void NAME(const T* a, long a_bs, const T* w, T* acc,              \
                 long bt, long kt, long m, long o) {                     \
    T tr[PANEL_CHUNK], ti[PANEL_CHUNK];                                  \
    for (long b = 0; b < bt; b++) {                                      \
        const T* ab = a + 2*b*a_bs;                                      \
        for (long oo = 0; oo < o; oo++) {                                \
            T* accp = acc + 2*(b*o + oo)*m;                              \
            for (long m0 = 0; m0 < m; m0 += PANEL_CHUNK) {               \
                const long cm = m - m0 < PANEL_CHUNK ? m - m0            \
                                                     : PANEL_CHUNK;      \
                for (long mm = 0; mm < cm; mm++) tr[mm] = ti[mm] = 0;    \
                for (long k = 0; k < kt; k++) {                          \
                    const T wr = w[2*(k*o+oo)], wi = w[2*(k*o+oo)+1];    \
                    const T* ap = ab + 2*(k*m + m0);                     \
                    for (long mm = 0; mm < cm; mm++) {                   \
                        T ar = ap[2*mm], ai = ap[2*mm+1];                \
                        tr[mm] += ar*wr - ai*wi;                         \
                        ti[mm] += ar*wi + ai*wr;                         \
                    }                                                    \
                }                                                        \
                for (long mm = 0; mm < cm; mm++) {                       \
                    accp[2*(m0+mm)]   += tr[mm];                         \
                    accp[2*(m0+mm)+1] += ti[mm];                         \
                }                                                        \
            }                                                            \
        }                                                                \
    }                                                                    \
}

PANEL_ACC(panel_acc_f32, float)
PANEL_ACC(panel_acc_f64, double)

void panel_contract_f32(const float* a, const float* w, float* acc,
                        long bt, long kt, long m, long o) {
    panel_acc_f32(a, kt*m, w, acc, bt, kt, m, o);
}

void panel_contract_f64(const double* a, const double* w, double* acc,
                        long bt, long kt, long m, long o) {
    panel_acc_f64(a, kt*m, w, acc, bt, kt, m, o);
}

/* acc[b,o,m] = sum over k_tb-wide panels, in order, of the panel sums
 * == `acc = 0; for k0: acc += einsum("bkm,ko->bom", a[:, k0:k1],
 * w[k0:k1])` over a (batch, c_in, m) spectrum: every k-panel of a
 * spectrum-domain CGEMM in one call. */
#define PANEL_GEMM(NAME, T, ACC)                                         \
void NAME(const T* a, const T* w, T* acc, long batch, long c_in,         \
          long m, long o, long k_tb) {                                   \
    for (long i = 0; i < 2*batch*o*m; i++) acc[i] = 0;                   \
    for (long k0 = 0; k0 < c_in; k0 += k_tb) {                           \
        long kt = c_in - k0 < k_tb ? c_in - k0 : k_tb;                   \
        ACC(a + 2*k0*m, c_in*m, w + 2*k0*o, acc, batch, kt, m, o);       \
    }                                                                    \
}

PANEL_GEMM(panel_gemm_f32, float, panel_acc_f32)
PANEL_GEMM(panel_gemm_f64, double, panel_acc_f64)

/* out[B,q] = sum_p y[B,p,q] * wd[p,q]
 * == `np.einsum("...pk,pk->...k", y, wd)`.  Each out[b,k] is formed
 * from zero and summed in p order; the p loop runs outermost so the
 * innermost loop walks contiguous k. */
#define DECOMP_REDUCE(NAME, T)                                           \
void NAME(const T* y, const T* wd, T* out, long B, long p, long q) {     \
    for (long b = 0; b < B; b++) {                                       \
        const T* yb = y + 2*b*p*q;                                       \
        T* ob = out + 2*b*q;                                             \
        for (long k = 0; k < 2*q; k++) ob[k] = 0;                        \
        for (long pp = 0; pp < p; pp++) {                                \
            const T* yp = yb + 2*pp*q;                                   \
            const T* wp = wd + 2*pp*q;                                   \
            for (long k = 0; k < q; k++) {                               \
                T yr = yp[2*k], yi = yp[2*k+1];                          \
                T wr = wp[2*k], wi = wp[2*k+1];                          \
                ob[2*k]   += yr*wr - yi*wi;                              \
                ob[2*k+1] += yr*wi + yi*wr;                              \
            }                                                            \
        }                                                                \
    }                                                                    \
}

DECOMP_REDUCE(decomp_reduce_f32, float)
DECOMP_REDUCE(decomp_reduce_f64, double)

/* ------------------------------------------------------------------ */
/* Broadcast multiply (ufunc complex-multiply semantics)               */
/* ------------------------------------------------------------------ */

/* out[B,s,q] = x[B,q] * w[s,q] with x as the FIRST ufunc operand:
 * re = fma(xr, wr, -(xi*wi)), im = fma(xr, wi, xi*wr).  This is the
 * `moved[..., None, :] * w` expansion of the pruned transforms. */
#define EXPAND_MUL(NAME, T, FMAF)                                        \
FMA_TARGET void NAME(const T* x, const T* w, T* out,                     \
                     long B, long s, long q) {                           \
    for (long b = 0; b < B; b++) {                                       \
        const T* xb = x + 2*b*q;                                         \
        T* ob = out + 2*b*s*q;                                           \
        for (long ss = 0; ss < s; ss++) {                                \
            const T* wp = w + 2*ss*q;                                    \
            T* op = ob + 2*ss*q;                                         \
            for (long k = 0; k < q; k++) {                               \
                T xr = xb[2*k], xi = xb[2*k+1];                          \
                T wr = wp[2*k], wi = wp[2*k+1];                          \
                op[2*k]   = FMAF(xr, wr, -(xi*wi));                      \
                op[2*k+1] = FMAF(xr, wi, xi*wr);                         \
            }                                                            \
        }                                                                \
    }                                                                    \
}

EXPAND_MUL(expand_mul_f32, float, fmaf)
EXPAND_MUL(expand_mul_f64, double, fma)

/* ------------------------------------------------------------------ */
/* Fused 1-D driver: FFT -> CGEMM -> iFFT in one FFI crossing           */
/* ------------------------------------------------------------------ */

/* Static operands of one staged fused 1-D pass (dims in elements,
 * buffers complex interleaved of the driver's precision).  Built once
 * per staging by the Python binding, which checked every size:
 *   w        (c_in, c_out)                 the cast weight, whose row
 *                                          slices are the k-panels
 *   tw_f/i   modes - 1                     forward/inverse stage tables
 *   wd_f/i   (p, modes), NULL when p == 1  decomposition twiddles
 *   gather, fftbuf, scratch  signal_tile * max(k_block, c_out) * p
 *                            rows of modes (ping-pong workspaces)
 *   acc      (signal_tile, c_out, modes)   the C tile
 *   dec      signal_tile * k_block * modes (decomp_reduce output)
 * with p = dim_x / modes.  The workspaces belong to the executor, never
 * to a shared plan, so no plan lock is needed around the call. */
typedef struct {
    long c_in, c_out, dim_x, modes, signal_tile, k_tb, k_block;
    const void *w, *tw_f, *tw_i, *wd_f, *wd_i;
    void *gather, *fftbuf, *scratch, *acc, *dec;
} fused1d_plan;

/* out[batch, c_out, dim_x] = the fused pass over x[batch, c_in, dim_x]
 * (real T when x_complex == 0, complex interleaved otherwise).  Panels
 * are staged in groups of up to k_block / k_tb consecutive full-width
 * panels; a ragged tail panel (c_in % k_tb) forms its own group.  The
 * gather, FFT and decomp_reduce are row-independent, so grouping moves
 * operands only; the panels are contracted in canonical order. */
#define FUSED1D(NAME, T, STOCKHAM_FN, DECOMP_FN, EXPAND_FN, ACC)          \
void NAME(const T* x, int x_complex, long batch, T* out,                 \
          const fused1d_plan* pl) {                                      \
    const long c_in = pl->c_in, c_out = pl->c_out, dim_x = pl->dim_x;    \
    const long modes = pl->modes, k_tb = pl->k_tb;                       \
    const long p = dim_x / modes;                                        \
    const long nfull = c_in / k_tb, tail = c_in % k_tb;                  \
    const long npg = pl->k_block / k_tb;                                 \
    const T* w = (const T*)pl->w;                                        \
    const T* tw_f = (const T*)pl->tw_f;                                  \
    const T* tw_i = (const T*)pl->tw_i;                                  \
    const T* wd_f = (const T*)pl->wd_f;                                  \
    const T* wd_i = (const T*)pl->wd_i;                                  \
    T* gat = (T*)pl->gather;                                             \
    T* fbuf = (T*)pl->fftbuf;                                            \
    T* scr = (T*)pl->scratch;                                            \
    T* acc = (T*)pl->acc;                                                \
    T* dec = (T*)pl->dec;                                                \
    for (long b0 = 0; b0 < batch; b0 += pl->signal_tile) {               \
        const long bt = batch - b0 < pl->signal_tile                     \
                        ? batch - b0 : pl->signal_tile;                  \
        for (long i = 0; i < 2*bt*c_out*modes; i++) acc[i] = 0;          \
        for (long g0 = 0; g0 < nfull + (tail > 0); ) {                   \
            long nsub = 1, kt = tail;                                    \
            if (g0 < nfull) {                                            \
                nsub = nfull - g0 < npg ? nfull - g0 : npg;              \
                kt = k_tb;                                               \
            }                                                            \
            const long k0 = g0 * k_tb;                                   \
            /* gat[s, b, k, pp, m] = x[b0+b, k0 + s*kt + k, m*p + pp] */ \
            for (long s = 0; s < nsub; s++)                              \
            for (long b = 0; b < bt; b++)                                \
            for (long k = 0; k < kt; k++) {                              \
                const long xr = ((b0+b)*c_in + k0 + s*kt + k) * dim_x;   \
                T* g = gat + 2*((s*bt + b)*kt + k)*p*modes;              \
                for (long pp = 0; pp < p; pp++)                          \
                for (long mm = 0; mm < modes; mm++) {                    \
                    const long xi = xr + mm*p + pp;                      \
                    T* gp = g + 2*(pp*modes + mm);                       \
                    if (x_complex) {                                     \
                        gp[0] = x[2*xi]; gp[1] = x[2*xi+1];              \
                    } else {                                             \
                        gp[0] = x[xi]; gp[1] = 0;                        \
                    }                                                    \
                }                                                        \
            }                                                            \
            const long rows = nsub * bt * kt;                            \
            STOCKHAM_FN(gat, fbuf, scr, tw_f, rows * p, modes,           \
                        0, 0, 0, 0);                                     \
            const T* a = fbuf;                                           \
            if (p > 1) {                                                 \
                DECOMP_FN(fbuf, wd_f, dec, rows, p, modes);              \
                a = dec;                                                 \
            }                                                            \
            for (long s = 0; s < nsub; s++)                              \
                ACC(a + 2*s*bt*kt*modes, kt*modes,                       \
                    w + 2*(k0 + s*kt)*c_out, acc, bt, kt, modes, c_out); \
            g0 += nsub;                                                  \
        }                                                                \
        /* epilogue: pruned inverse of the C tile */                     \
        T* ob = out + 2*b0*c_out*dim_x;                                  \
        if (p > 1) {                                                     \
            EXPAND_FN(acc, wd_i, gat, bt*c_out, p, modes);               \
            STOCKHAM_FN(gat, fbuf, scr, tw_i, bt*c_out*p, modes,         \
                        1, (T)modes, 1, (T)((double)modes/(double)dim_x)); \
            /* ob[b, c, m*p + pp] = fbuf[b, c, pp, m] */                 \
            for (long r = 0; r < bt*c_out; r++) {                        \
                const T* y = fbuf + 2*r*p*modes;                         \
                T* o = ob + 2*r*dim_x;                                   \
                for (long pp = 0; pp < p; pp++)                          \
                for (long mm = 0; mm < modes; mm++) {                    \
                    o[2*(mm*p+pp)]   = y[2*(pp*modes+mm)];               \
                    o[2*(mm*p+pp)+1] = y[2*(pp*modes+mm)+1];             \
                }                                                        \
            }                                                            \
        } else {                                                         \
            STOCKHAM_FN(acc, ob, scr, tw_i, bt*c_out, modes,             \
                        1, (T)modes, 0, 0);                              \
        }                                                                \
    }                                                                    \
}

FUSED1D(fused1d_f32, float, stockham_f32, decomp_reduce_f32,
        expand_mul_f32, panel_acc_f32)
FUSED1D(fused1d_f64, double, stockham_f64, decomp_reduce_f64,
        expand_mul_f64, panel_acc_f64)

/* ------------------------------------------------------------------ */
/* Pruned real plans: truncation fused into the packed-real trick      */
/* ------------------------------------------------------------------ */

/* Static operands of a CompiledPrunedRFFTPlan on its "decomp" strategy
 * (dims in elements, tables complex interleaved): h = n/2, q =
 * next_pow2(part) <= h/2 and p = h/q.
 *   tw     q - 1    forward stage table of the length-q sub-FFT
 *   u, v   (p, q)   head and mirror decomposition weights */
typedef struct {
    long n, part, q;
    const void *tw, *u, *v;
} prfft_tables;

/* Static operands of a CompiledPrunedIRFFTPlan on its "decomp" strategy:
 * h = n/2, q = next_pow2(part) <= h/2 and s = h/q.
 *   tw        q - 1      inverse stage table of the length-q sub-FFT
 *   ch        part       head weights
 *   ct        part - 1   tail weights
 *   wdh, wdt  (s, q)     head and tail expansion twiddles */
typedef struct {
    long n, part, q;
    const void *tw, *ch, *ct, *wdh, *wdt;
} pirfft_tables;

/* out[rows, part] = the first `part` half-spectrum bins of the real
 * rows x[rows, n] == CompiledPrunedRFFTPlan.execute (decomp), with z the
 * free (rows, h) complex view of x:
 *   g[b, pp, t] = z[b, t*p + pp]                 P-subsequence gather
 *   y = FFT_q(g)                                 rows*p Stockham rows
 *   acc  = decomp_reduce(y, u)
 *   acc2 = decomp_reduce(conj(y[b, pp, (q-k) % q]), v)
 *   out  = (acc + acc2)[:, :part]
 * ws holds 3*rows*h elements: the gather (then the mirror spectra), the
 * FFT output, and the Stockham scratch (then acc and acc2; p >= 2). */
#define PRUNED_RFFT(NAME, T, STOCKHAM_FN, DECOMP_FN)                     \
void NAME(const T* x, T* out, long rows, const prfft_tables* tb,        \
          T* ws) {                                                       \
    const long h = tb->n / 2, q = tb->q, p = h / q, part = tb->part;     \
    T* g = ws;                                                           \
    T* y = ws + 2*rows*h;                                                \
    T* scr = ws + 4*rows*h;                                              \
    for (long b = 0; b < rows; b++)                                      \
    for (long pp = 0; pp < p; pp++) {                                    \
        const T* zb = x + 2*(b*h + pp);                                  \
        T* gp = g + 2*(b*p + pp)*q;                                      \
        for (long t = 0; t < q; t++) {                                   \
            gp[2*t] = zb[2*t*p]; gp[2*t+1] = zb[2*t*p+1];                \
        }                                                                \
    }                                                                    \
    STOCKHAM_FN(g, y, scr, (const T*)tb->tw, rows*p, q, 0, 0, 0, 0);     \
    for (long r = 0; r < rows*p; r++) {                                  \
        const T* yr = y + 2*r*q;                                         \
        T* gr = g + 2*r*q;                                               \
        for (long k = 0; k < q; k++) {                                   \
            const long j = (q - k) % q;                                  \
            gr[2*k] = yr[2*j]; gr[2*k+1] = -yr[2*j+1];                   \
        }                                                                \
    }                                                                    \
    T* acc = scr;                                                        \
    T* acc2 = scr + 2*rows*q;                                            \
    DECOMP_FN(y, (const T*)tb->u, acc, rows, p, q);                      \
    DECOMP_FN(g, (const T*)tb->v, acc2, rows, p, q);                     \
    for (long b = 0; b < rows; b++)                                      \
    for (long k = 0; k < 2*part; k++)                                    \
        out[2*b*part + k] = acc[2*b*q + k] + acc2[2*b*q + k];            \
}

PRUNED_RFFT(pruned_rfft_f32, float, stockham_f32, decomp_reduce_f32)
PRUNED_RFFT(pruned_rfft_f64, double, stockham_f64, decomp_reduce_f64)

/* out[0] + i out[1] = (ar + i ai) * (br + i bi) as NumPy's scalar
 * complex-multiply loop rounds it: plain products, no FMA.  NumPy runs
 * that loop instead of its SIMD one when a multiply has exactly one
 * element (the one-element fast path passes zero strides).  Out of line
 * so no FMA-target caller can contract it. */
#define CMUL_PLAIN(NAME, T)                                              \
__attribute__((noinline)) static void NAME(T ar, T ai, T br, T bi,       \
                                           T* out) {                     \
    out[0] = ar*br - ai*bi;                                              \
    out[1] = ar*bi + ai*br;                                              \
}

CMUL_PLAIN(cmul_plain_f32, float)
CMUL_PLAIN(cmul_plain_f64, double)

/* out[rows, n] (real) = the signal of the truncated half spectra
 * x[rows, part] == CompiledPrunedIRFFTPlan.execute (decomp), with z the
 * free (rows, h) complex view of out:
 *   hb[b, t]   = ch[t] * x[b, t] for t < part, Im(DC) dropped; else 0
 *   tb[b, q-r] = conj(x[b, r]) * ct[r-1] for 0 < r < part;     else 0
 *   sc = hb[:, None, :] * wdh + tb[:, None, :] * wdt    (s rows of q)
 *   y  = IFFT_q(sc) / q * (q/h)
 *   z[b, ss + s*t] = y[b, ss, t]                        interleave
 * Every complex multiply has the ufunc operand order (x first) and the
 * FMA formula of the header, except a one-element tail product
 * (rows * (part - 1) == 1), which NumPy rounds in its scalar loop
 * (CMUL_PLAIN).  The DC product casts its real operand, which takes
 * NumPy's buffered SIMD path at every size.  ws holds 3*rows*h elements: the
 * two expansion buffers (the second then the Stockham scratch) and the
 * Stockham output (hb and tb before it; s >= 2). */
#define PRUNED_IRFFT(NAME, T, FMAF, CMUL_PLAIN_FN, STOCKHAM_FN,        \
                     EXPAND_FN)                                          \
FMA_TARGET void NAME(const T* x, T* out, long rows,                      \
                     const pirfft_tables* tb, T* ws) {                   \
    const long h = tb->n / 2, q = tb->q, s = h / q, part = tb->part;     \
    const T* ch = (const T*)tb->ch;                                      \
    const T* ct = (const T*)tb->ct;                                      \
    const T zero = 0;                                                    \
    T* sc = ws;                                                          \
    T* sc2 = ws + 2*rows*h;                                              \
    T* y = ws + 4*rows*h;                                                \
    T* hb = y;                                                           \
    T* tl = y + 2*rows*q;                                                \
    for (long b = 0; b < rows; b++) {                                    \
        const T* xb = x + 2*b*part;                                      \
        T* hp = hb + 2*b*q;                                              \
        T* tp = tl + 2*b*q;                                              \
        hp[0] = FMAF(xb[0], ch[0], -(zero*ch[1]));                       \
        hp[1] = FMAF(xb[0], ch[1], zero*ch[0]);                          \
        for (long t = 1; t < part; t++) {                                \
            const T xr = xb[2*t], xi = xb[2*t+1];                        \
            hp[2*t]   = FMAF(xr, ch[2*t], -(xi*ch[2*t+1]));              \
            hp[2*t+1] = FMAF(xr, ch[2*t+1], xi*ch[2*t]);                 \
        }                                                                \
        for (long k = 2*part; k < 2*q; k++) hp[k] = 0;                   \
        for (long k = 0; k < 2*q; k++) tp[k] = 0;                        \
        for (long r = 1; r < part; r++) {                                \
            const T xr = xb[2*r], xi = -xb[2*r+1];                       \
            const T cr = ct[2*(r-1)], ci = ct[2*(r-1)+1];                \
            if (rows * (part - 1) == 1) {                                \
                CMUL_PLAIN_FN(xr, xi, cr, ci, tp + 2*(q-r));             \
            } else {                                                     \
                tp[2*(q-r)]   = FMAF(xr, cr, -(xi*ci));                  \
                tp[2*(q-r)+1] = FMAF(xr, ci, xi*cr);                     \
            }                                                            \
        }                                                                \
    }                                                                    \
    EXPAND_FN(hb, (const T*)tb->wdh, sc, rows, s, q);                    \
    EXPAND_FN(tl, (const T*)tb->wdt, sc2, rows, s, q);                   \
    for (long i = 0; i < 2*rows*h; i++) sc[i] += sc2[i];                 \
    STOCKHAM_FN(sc, y, sc2, (const T*)tb->tw, rows*s, q,                 \
                1, (T)q, 1, (T)((double)q/(double)h));                   \
    for (long b = 0; b < rows; b++)                                      \
    for (long ss = 0; ss < s; ss++) {                                    \
        const T* yp = y + 2*(b*s + ss)*q;                                \
        T* zp = out + 2*(b*h + ss);                                      \
        for (long t = 0; t < q; t++) {                                   \
            zp[2*t*s] = yp[2*t]; zp[2*t*s+1] = yp[2*t+1];                \
        }                                                                \
    }                                                                    \
}

PRUNED_IRFFT(pruned_irfft_f32, float, fmaf, cmul_plain_f32, stockham_f32,
             expand_mul_f32)
PRUNED_IRFFT(pruned_irfft_f64, double, fma, cmul_plain_f64, stockham_f64,
             expand_mul_f64)

/* ------------------------------------------------------------------ */
/* Symmetric 1-D driver: pruned R2C -> CGEMM -> pruned C2R, one call    */
/* ------------------------------------------------------------------ */

/* Static operands of one staged symmetric 1-D pass, built once per
 * staging by the Python binding, which checked every size:
 *   w        (c_in, c_out)                   the cast weight
 *   fwd/inv  both pruned real plans' tables  (same n and part)
 *   ws       3 * tile * max(c_in, c_out) * n/2
 *   sk       (tile, c_in, part)              truncated input spectra
 *   acc      (tile, c_out, part)             the CGEMM output
 * The workspaces belong to the executor, never to a shared plan, so no
 * plan lock is needed around the call. */
typedef struct {
    long c_in, c_out, k_tb, tile;
    const void* w;
    prfft_tables fwd;
    pirfft_tables inv;
    void *ws, *sk, *acc;
} sym1d_plan;

/* out[batch, c_out, n] (real) = the symmetric pass over the real
 * x[batch, c_in, n] == repro.core.compiled._StagedSymmetric on one
 * spatial axis: pruned R2C of every row, the k-panel CGEMM, pruned C2R
 * of every output row.  Every stage is row-independent along the
 * batch, so the tile of `tile` signals moves operands only. */
#define SYM1D(NAME, T, RFFT_FN, GEMM_FN, IRFFT_FN)                       \
void NAME(const T* x, long batch, T* out, const sym1d_plan* pl) {        \
    const long c_in = pl->c_in, c_out = pl->c_out;                       \
    const long n = pl->fwd.n, m = pl->fwd.part;                          \
    T* sk = (T*)pl->sk;                                                  \
    T* acc = (T*)pl->acc;                                                \
    for (long b0 = 0; b0 < batch; b0 += pl->tile) {                      \
        const long bt = batch - b0 < pl->tile ? batch - b0 : pl->tile;   \
        RFFT_FN(x + b0*c_in*n, sk, bt*c_in, &pl->fwd, (T*)pl->ws);       \
        GEMM_FN(sk, (const T*)pl->w, acc, bt, c_in, m, c_out, pl->k_tb); \
        IRFFT_FN(acc, out + b0*c_out*n, bt*c_out, &pl->inv,              \
                 (T*)pl->ws);                                            \
    }                                                                    \
}

SYM1D(sym1d_f32, float, pruned_rfft_f32, panel_gemm_f32, pruned_irfft_f32)
SYM1D(sym1d_f64, double, pruned_rfft_f64, panel_gemm_f64,
      pruned_irfft_f64)
