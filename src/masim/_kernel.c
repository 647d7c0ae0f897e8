/* masim's compiled library: the k-ordered float32 kernel (masim_k_loop),
 * the oracle's float64 reference kernel (masim_ref_loop) and the seeded
 * matrix draw (masim_draw_block), loaded by blockmm through ctypes. Each has
 * a numpy path in blockmm that gives the same bits.
 *
 * masim_k_loop: out[i][j] += sum_k a[i][k] * b[k][j], with k ascending, for
 * a row-major m x depth matrix a, a depth x n matrix b and an m x n matrix
 * out (row strides lda, ldb and ldc, in elements).
 *
 * For each KC-deep slice of k and each NR-column panel of b, the panel is
 * packed (KC x NR floats, zero past n), then each MR x NR block of out is
 * loaded into c, updated for every k of the slice and stored back.
 * Every step is p = fl(a * b); c = fl(c + p), the same two roundings as the
 * numpy loop, and c is float32 in out between slices, so the build must not
 * contract them into an FMA (-ffp-contract=off) nor reassociate the sums (no
 * -ffast-math). Rows past m read row i0 and columns past n read the zero
 * padding; neither is stored. Returns 0, or -1 if the pack cannot be
 * allocated. On fc-6's 128 x 512 x 256 verify-loop panels (one thread of a
 * 2.9-3.0 GHz AVX-512 Xeon) it ran at 78-92 GFLOP/s, about 90% of one
 * vmulps and one vaddps per cycle with the 4 x 64 block in 16 zmm
 * registers; OpenBLAS's dgemm ran at 68-78 on the same panels.
 *
 * masim_ref_loop: the same product and loop order with the same float32
 * a and b, summed into a float64 m x n matrix ref (row stride ldr): each
 * element gets r = fl(r + a * b) for k ascending. A float32 product has at
 * most 48 significant bits and an exponent well inside float64's range, so
 * a * b is exact in float64, and one fused multiply-add rounds exactly as
 * a multiply and an add do. The function may therefore contract them
 * (optimize("fp-contract=fast")), and its AVX-512 and FMA clones do, while
 * the default clone multiplies and adds; every clone, and the numpy loop,
 * gives the same bits, which depend on a, b and the order of k only. For
 * each RKC-deep slice of k and each RMC-row chunk of a, the chunk is
 * packed as float64 k by k in RMR-row blocks; then for each RNR-column
 * panel of b, the panel is packed as float64 (zero past n) and each RMR x
 * RNR block of ref is updated in registers over the slice. Rows past m
 * read the block's first row and columns past n the zero padding; neither
 * is stored. Returns 0, or -1 if the packs (608 kB) cannot be allocated.
 * On fc-6's 128 x 512 x 256 panels (one thread of the same Xeon, the
 * AVX-512 clone holding the 8 x 24 block in 24 zmm registers and issuing
 * 24 vfmadd231pd per k) it ran at 61-64 GFLOP/s from the float32 panels,
 * where copying both to float64 and OpenBLAS's dgemm and add, the path it
 * replaced, ran at 48-51 and masim_k_loop at 74-76 (quartiles of 21
 * rounds of 50 calls, taken together).
 *
 * masim_draw_block: a rows x cols block of numpy's float32 draws, as
 * Generator.random(dtype=np.float32) makes them, read as a row-major
 * matrix of width columns: row r of the block, into out + r * ldo, is draws
 * first + r * width, ..., first + r * width + cols - 1 of the stream whose
 * start st holds as {state low, state high, inc low, inc high}. Each LCG
 * step, state = state * MULT + inc, gives one 64-bit XSL-RR output, and
 * draw e is its (e / 2)-th output's low (e even) or high (e odd) 32-bit
 * half u, as the float (u >> 8) * 2**-24. Each row starts from its own
 * state, one affine jump on from the last row's, so a block costs no step
 * outside it; a row that starts at an odd draw takes the high half of its
 * first output first. Rows go LANES at a time: after each row's odd first
 * draw, the group's states step in lockstep for the pairs every row has
 * left, so their 128-bit multiplies overlap, and each row then draws its
 * own last one or two (draw_pairs); a last group of fewer rows is drawn
 * row by row. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MR 4
#define NR 64
#define KC 1024
#define LANES 4

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
int masim_k_loop(const float *a, const float *b, float *out, long m, long depth,
                 long n, long lda, long ldb, long ldc)
{
    float *pack = malloc(KC * NR * sizeof(float));
    if (pack == NULL)
        return -1;
    for (long k0 = 0; k0 < depth; k0 += KC) {
        long kc = depth - k0 < KC ? depth - k0 : KC;
        for (long j0 = 0; j0 < n; j0 += NR) {
            long nc = n - j0 < NR ? n - j0 : NR;
            for (long k = 0; k < kc; k++) {
                memcpy(pack + k * NR, b + (k0 + k) * ldb + j0, nc * sizeof(float));
                memset(pack + k * NR + nc, 0, (NR - nc) * sizeof(float));
            }
            for (long i0 = 0; i0 < m; i0 += MR) {
                long mc = m - i0 < MR ? m - i0 : MR;
                const float *ar[MR];
                float c[MR][NR] = {{0.0f}};
                for (long i = 0; i < MR; i++) {
                    ar[i] = a + (i0 + (i < mc ? i : 0)) * lda + k0;
                    if (i < mc)
                        memcpy(c[i], out + (i0 + i) * ldc + j0, nc * sizeof(float));
                }
                for (long k = 0; k < kc; k++) {
                    const float *bk = pack + k * NR;
                    for (long i = 0; i < MR; i++) {
                        float av = ar[i][k];
                        for (long j = 0; j < NR; j++) {
                            float p = av * bk[j];
                            c[i][j] = c[i][j] + p;
                        }
                    }
                }
                for (long i = 0; i < mc; i++)
                    memcpy(out + (i0 + i) * ldc + j0, c[i], nc * sizeof(float));
            }
        }
    }
    free(pack);
    return 0;
}

#define RMR 8
#define RNR 24
#define RMC 128
#define RKC 512

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
__attribute__((target_clones("avx512f", "fma", "default"), optimize("fp-contract=fast")))
#endif
int masim_ref_loop(const float *a, const float *b, double *ref, long m, long depth,
                   long n, long lda, long ldb, long ldr)
{
    long kmax = depth < RKC ? depth : RKC;
    double *bpack = malloc((RNR + RMC) * kmax * sizeof(double));
    if (bpack == NULL)
        return -1;
    double *apack = bpack + RNR * kmax;
    for (long k0 = 0; k0 < depth; k0 += RKC) {
        long kc = depth - k0 < RKC ? depth - k0 : RKC;
        for (long r0 = 0; r0 < m; r0 += RMC) {
            long rc = m - r0 < RMC ? m - r0 : RMC;
            for (long i0 = 0; i0 < rc; i0 += RMR) {
                long mc = rc - i0 < RMR ? rc - i0 : RMR;
                for (long i = 0; i < RMR; i++) {
                    const float *ai = a + (r0 + i0 + (i < mc ? i : 0)) * lda + k0;
                    for (long k = 0; k < kc; k++)
                        apack[i0 * kc + k * RMR + i] = ai[k];
                }
            }
            for (long j0 = 0; j0 < n; j0 += RNR) {
                long nc = n - j0 < RNR ? n - j0 : RNR;
                for (long k = 0; k < kc; k++) {
                    const float *bk = b + (k0 + k) * ldb + j0;
                    long j = 0;
                    for (; j < nc; j++)
                        bpack[k * RNR + j] = bk[j];
                    for (; j < RNR; j++)
                        bpack[k * RNR + j] = 0.0;
                }
                for (long i0 = 0; i0 < rc; i0 += RMR) {
                    long mc = rc - i0 < RMR ? rc - i0 : RMR;
                    double *r = ref + (r0 + i0) * ldr + j0;
                    double c[RMR][RNR] = {{0.0}};
                    for (long i = 0; i < mc; i++)
                        memcpy(c[i], r + i * ldr, nc * sizeof(double));
                    for (long k = 0; k < kc; k++) {
                        const double *ak = apack + i0 * kc + k * RMR, *bk = bpack + k * RNR;
                        for (long i = 0; i < RMR; i++) {
                            double av = ak[i];
                            for (long j = 0; j < RNR; j++)
                                c[i][j] = c[i][j] + av * bk[j];
                        }
                    }
                    for (long i = 0; i < mc; i++)
                        memcpy(r + i * ldr, c[i], nc * sizeof(double));
                }
            }
        }
    }
    free(bpack);
    return 0;
}

typedef unsigned __int128 u128;

static const u128 MULT = (u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;

/* One PCG64 step and its 64-bit XSL-RR output. */
static uint64_t pcg64_next(u128 *state, u128 inc)
{
    *state = *state * MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << (-rot & 63));
}

/* The affine map of delta steps, state -> *mult * state + *plus, by square
 * and multiply. */
static void pcg64_jump(u128 inc, uint64_t delta, u128 *mult, u128 *plus)
{
    u128 m = MULT, p = inc, am = 1, ap = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            am = am * m;
            ap = ap * m + p;
        }
        p = (m + 1) * p;
        m = m * m;
    }
    *mult = am;
    *plus = ap;
}

static float unit_float(uint32_t u)
{
    return (float)(u >> 8) * (1.0f / 16777216.0f);
}

/* Draws row[0], ..., row[count - 1] from the outputs after *s, each output
 * giving its low half and then its high one. */
static void draw_pairs(float *row, long count, u128 *s, u128 inc)
{
    long c = 0;
    for (; c + 1 < count; c += 2) {
        uint64_t x = pcg64_next(s, inc);
        row[c] = unit_float((uint32_t)x);
        row[c + 1] = unit_float((uint32_t)(x >> 32));
    }
    if (c < count)
        row[c] = unit_float((uint32_t)pcg64_next(s, inc));
}

void masim_draw_block(float *out, long ldo, long rows, long cols, long width,
                      long first, const uint64_t *st)
{
    u128 inc = (u128)st[3] << 64 | st[2];
    u128 mult, plus, row_mult[2], row_plus[2];
    pcg64_jump(inc, (uint64_t)first / 2, &mult, &plus);
    u128 state = mult * ((u128)st[1] << 64 | st[0]) + plus;
    /* from a row that starts at draw e, the next starts width / 2 outputs
     * on, one more when both e and width are odd */
    for (int odd = 0; odd < 2; odd++)
        pcg64_jump(inc, (uint64_t)width / 2 + odd, &row_mult[odd], &row_plus[odd]);
    long e = first;
    for (long r0 = 0; r0 < rows; r0 += LANES) {
        long lanes = rows - r0 < LANES ? rows - r0 : LANES;
        /* zeroed, though no lane past a ragged group's rows is read */
        u128 s[LANES] = {0};
        float *row[LANES] = {0};
        long left[LANES] = {0}, pairs = lanes == LANES ? cols / 2 : 0;
        for (long l = 0; l < lanes; l++, e += width) {
            s[l] = state;
            row[l] = out + (r0 + l) * ldo;
            left[l] = cols;
            if (e & 1) {    /* the high half of the row's first output */
                *row[l]++ = unit_float((uint32_t)(pcg64_next(&s[l], inc) >> 32));
                left[l]--;
                pairs = left[l] / 2 < pairs ? left[l] / 2 : pairs;
            }
            state = row_mult[e & width & 1] * state + row_plus[e & width & 1];
        }
        /* a whole group's rows step their own states in lockstep, so the
         * four 128-bit multiplies of one step overlap */
        for (long c = 0; c < 2 * pairs; c += 2)
            for (long l = 0; l < LANES; l++) {
                uint64_t x = pcg64_next(&s[l], inc);
                row[l][c] = unit_float((uint32_t)x);
                row[l][c + 1] = unit_float((uint32_t)(x >> 32));
            }
        for (long l = 0; l < lanes; l++)
            draw_pairs(row[l] + 2 * pairs, left[l] - 2 * pairs, &s[l], inc);
    }
}
