/* The k-ordered float32 kernel: out[i][j] += sum_k a[i][k] * b[k][j], with
 * k ascending, for a row-major m x depth matrix a, a depth x n matrix b and
 * an m x n matrix out (row strides lda, ldb and ldc, in elements).
 *
 * For each KC-deep slice of k and each NR-column panel of b, the panel is
 * packed (KC x NR floats, zero past n), then each MR x NR block of out is
 * loaded into c, updated for every k of the slice and stored back.
 * Every step is p = fl(a * b); c = fl(c + p), the same two roundings as the
 * numpy loop, and c is float32 in out between slices, so the build must not
 * contract them into an FMA (-ffp-contract=off) nor reassociate the sums (no
 * -ffast-math). Rows past m read row i0 and columns past n read the zero
 * padding; neither is stored. Returns 0, or -1 if the pack cannot be
 * allocated. */
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
