/* masim's compiled library: the k-ordered float32 kernel (masim_k_loop)
 * and the fill of the seeded matrix draw (masim_draw), loaded by blockmm
 * through ctypes. Each has a numpy path in blockmm that gives the same bits.
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
 * allocated.
 *
 * masim_draw: count float32 draws of numpy's PCG64, as
 * Generator.random(dtype=np.float32) makes them from a generator with no
 * half buffered. st holds the 128-bit state and increment as
 * {state low, state high, inc low, inc high, half}. Each LCG step,
 * state = state * MULT + inc, gives one 64-bit XSL-RR output, whose low
 * and then high 32-bit halves u give the floats (u >> 8) * 2**-24. The
 * state after the last step is written back, and for an odd count the last
 * output's high half goes to st[4]. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MR 4
#define NR 64
#define KC 1024

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

/* One PCG64 step and its 64-bit XSL-RR output. */
static uint64_t pcg64_next(unsigned __int128 *state, unsigned __int128 inc)
{
    const unsigned __int128 mult =
        (unsigned __int128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;
    *state = *state * mult + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << (-rot & 63));
}

static float unit_float(uint32_t u)
{
    return (float)(u >> 8) * (1.0f / 16777216.0f);
}

void masim_draw(float *out, long count, uint64_t *st)
{
    unsigned __int128 state = (unsigned __int128)st[1] << 64 | st[0];
    unsigned __int128 inc = (unsigned __int128)st[3] << 64 | st[2];
    long i = 0;
    for (; i + 1 < count; i += 2) {
        uint64_t x = pcg64_next(&state, inc);
        out[i] = unit_float((uint32_t)x);
        out[i + 1] = unit_float((uint32_t)(x >> 32));
    }
    if (i < count) {
        uint64_t x = pcg64_next(&state, inc);
        out[i] = unit_float((uint32_t)x);
        st[4] = x >> 32;
    }
    st[0] = (uint64_t)state;
    st[1] = (uint64_t)(state >> 64);
}
