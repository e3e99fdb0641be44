#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Compiled kernels of cncflsa, bit-identical to their Python references.
 * Built with -ffp-contract=off and without -ffast-math, every operation
 * rounds on its own exactly as the same operation does in numpy, so each
 * function keeps its reference's expressions in their order.  -O3 with
 * -fno-trapping-math vectorizes the maps of cncflsa_mm_step, which changes
 * no bit: each lane runs the same operations as one scalar would.  What
 * plain C cannot round as numpy does (its SIMD arctan and log1p, its
 * pairwise sum and BLAS ddot) is done by calling numpy's own float64 inner
 * loops.
 *
 * Each exported entry is built twice, for x86-64-v3 (AVX2, 4-lane maps) and
 * for the baseline x86-64 (SSE2), and the loader's ifunc resolver picks the
 * body this CPU runs; so the cached library runs on any x86-64 and uses the
 * wider vectors where they exist.  Neither body rounds differently: v3's
 * FMA stays off under -ffp-contract=off, and an IEEE add, mul, div, compare
 * or blend gives the same bits at any vector width.  The clones need gcc's
 * target_clones (gcc 12 or later) and glibc's ifunc; elsewhere CLONES
 * expands to nothing and the one body is the baseline's.
 *
 * cncflsa_tvd: exact 1-D total variation denoising, a line-for-line port of
 * cncflsa.prox._tvd_python (its docstring and comments describe the
 * algorithm).  Requires n >= 2 and lam > 0; the caller owns x (n doubles)
 * and work (8 n doubles), whose rows are the knots' pos, d_a and d_b
 * (2 n doubles each, from work, work + 2 n and work + 4 n) and the clamps
 * lo_clamp and hi_clamp (n - 1 doubles each, from work + 6 n and
 * work + 7 n). */

/* gcc 12 is the oldest checked: an older one may reject arch=x86-64-v3 in
 * target_clones (the x86-64 levels came in gcc 11), and a failed build
 * would leave the package on its Python backend. */
#if defined(__GNUC__) && __GNUC__ >= 12 && !defined(__clang__) && defined(__x86_64__) \
    && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

CLONES void cncflsa_tvd(const double *y, long n, double lam, double *x, double *work)
{
    double *pos = work, *d_a = work + 2 * n, *d_b = work + 4 * n;
    double *lo_clamp = work + 6 * n, *hi_clamp = work + 7 * n;
    double a_left = 1.0, b_left = -y[0], a_right = 1.0, b_right = -y[0];
    double a, b, lo, hi, xi;
    long head = n, tail = n - 1, i, k;

    for (i = 0; i < n - 1; i++) {
        a = a_left, b = b_left, k = head;
        while (k <= tail && a * pos[k] + b < -lam) {
            a += d_a[k], b += d_b[k], k++;
        }
        lo = (-lam - b) / a;
        head = k - 1;
        pos[head] = lo, d_a[head] = a, d_b[head] = b + lam;

        a = a_right, b = b_right, k = tail;
        while (k > head && a * pos[k] + b > lam) {
            a -= d_a[k], b -= d_b[k], k--;
        }
        hi = (lam - b) / a;
        tail = k + 1;
        pos[tail] = hi, d_a[tail] = -a, d_b[tail] = lam - b;

        lo_clamp[i] = lo, hi_clamp[i] = hi;
        a_left = 1.0, b_left = -y[i + 1] - lam;
        a_right = 1.0, b_right = -y[i + 1] + lam;
    }

    a = a_left, b = b_left, k = head;
    while (k <= tail && a * pos[k] + b < 0.0) {
        a += d_a[k], b += d_b[k], k++;
    }
    x[n - 1] = -b / a;
    for (i = n - 2; i >= 0; i--) {
        xi = x[i + 1];
        if (xi < lo_clamp[i])
            xi = lo_clamp[i];
        else if (xi > hi_clamp[i])
            xi = hi_clamp[i];
        x[i] = xi;
    }
}

/* The state of one solve's updates, private to this file: cncflsa_mm_solve
 * fills it from its arguments and the rows it cuts from its block, and
 * cncflsa_mm_step reads it. */
struct mm_step {
    long n;
    const double *y;
    double *shifted, *x, *r, *phi0, *phi1, *work;
    double lam0, lam1, a0, a1;
    int kind0, kind1; /* index into KINDS; PenaltySpec makes a = 0 "l1" */
};

enum { KIND_L1, KIND_LOG, KIND_ATAN, KIND_RATIONAL };

/* cncflsa.penalties._U_LIMIT, 2^56: past a|z| of it every kind's s'(z) is
 * taken as its limit -sign(z), which it rounds to there, so that it stays
 * finite where the atan and rational squares overflow (from about 1e154)
 * and where a|z| itself does. */
#define U_LIMIT 72057594037927936.0

#define INLINE static inline __attribute__((always_inline))

/* cncflsa.penalties.PenaltySpec._phi and ._slope at one sample z: stores
 * phi(z), or for log and atan the argument of their transcendental, and
 * returns s'(z).  Its callers are the maps of cncflsa_mm_step and
 * cncflsa_penalty_map, the map of PenaltySpec.value and
 * PenaltySpec.residual_deriv.  Each loop that inlines it passes a constant
 * kind, so the kind costs no branch, and the limit is a select between two
 * computed values, not an early return: the loop body has no control flow
 * and gcc vectorizes it.  The formula's value past U_LIMIT, NaN or inf
 * where it overflows, is computed and discarded.  So is the atan phi's
 * where sqrt(3) u overflows, which would read inf, or NaN where u is inf:
 * its limit sqrt(3) is taken there, and the rational phi's where 0.5 a |z|
 * overflows, which would read 0, or NaN where |z| is inf: its limit 2/a is
 * taken there.  2/a is loop-invariant, so gcc computes it once per loop. */
INLINE double algebra(int kind, double a, double z, double *phi)
{
    double az = fabs(z), u = a * az, v, slope;

    if (kind == KIND_L1) {
        *phi = az;
        return 0.0;
    }
    if (kind == KIND_LOG) {
        *phi = u;
        slope = -a * z / (1.0 + u);
    } else if (kind == KIND_ATAN) {
        v = 1.7320508075688772 * u; /* sqrt(3) */
        *phi = v > DBL_MAX ? 1.7320508075688772 : v / (2.0 + u);
        v = 1.0 + 2.0 * u;
        slope = -4.0 * a * z * (1.0 + u) / (3.0 + v * v);
    } else {
        v = 0.5 * a * az;
        *phi = v > DBL_MAX ? 2.0 / a : az / (1.0 + v);
        v = 1.0 + 0.5 * u;
        slope = -a * z * (1.0 + 0.25 * u) / (v * v);
    }
    return u > U_LIMIT ? (z > 0.0 ? -1.0 : 1.0) : slope;
}

/* The map over x: r = y - x, phi0, and y - lam0 s0'(x), the first term of
 * majorized_input, written into shifted. */
INLINE void map_x(int kind, const struct mm_step *m)
{
    const double *restrict y = m->y, *restrict x = m->x;
    double *restrict shifted = m->shifted, *restrict r = m->r, *restrict phi0 = m->phi0;
    double a = m->a0, lam0 = m->lam0;
    long i;

    for (i = 0; i < m->n; i++) {
        r[i] = y[i] - x[i];
        shifted[i] = y[i] - lam0 * algebra(kind, a, x[i], &phi0[i]);
    }
}

/* The map over diff(x): phi1, and s1' into ds1. */
INLINE void map_diff(int kind, const struct mm_step *m, double *restrict ds1)
{
    const double *restrict x = m->x;
    double *restrict phi1 = m->phi1;
    double a = m->a1;
    long i;

    for (i = 0; i < m->n - 1; i++)
        ds1[i] = algebra(kind, a, x[i + 1] - x[i], &phi1[i]);
}

/* The maps of a penalty's public methods over n samples x: phi(x) as
 * PenaltySpec._phi gives it, before PenaltySpec._finish, into out when
 * slope is 0, and s'(x) as PenaltySpec._slope gives it when slope is 1.
 * The half a method does not return is computed and discarded, which gcc
 * drops as dead code. */
INLINE void map_penalty(int kind, int slope, double a, const double *restrict x,
                        double *restrict out, long n)
{
    double phi;
    long i;

    if (slope) {
        for (i = 0; i < n; i++)
            out[i] = algebra(kind, a, x[i], &phi);
    } else {
        for (i = 0; i < n; i++)
            algebra(kind, a, x[i], &out[i]);
    }
}

CLONES void cncflsa_penalty_map(int kind, double a, const double *x, long n, double *out, int slope)
{
    switch (kind) {
    case KIND_L1: map_penalty(KIND_L1, slope, a, x, out, n); break;
    case KIND_LOG: map_penalty(KIND_LOG, slope, a, x, out, n); break;
    case KIND_ATAN: map_penalty(KIND_ATAN, slope, a, x, out, n); break;
    default: map_penalty(KIND_RATIONAL, slope, a, x, out, n);
    }
}

/* One MM update, the public functions of the Python chain
 * cncflsa.cnc._mm_loop_python: x = fused_lasso_l1(shifted, lam0, lam1),
 * that is soft_threshold(tvd(shifted, lam1), lam0), r = y - x, phi0 from x
 * and phi1 from diff(x) (PenaltySpec._phi, the per-sample half of
 * objective), and the next shifted input majorized_input(x, y),
 * y - lam0 s0'(x) - lam1 D^T s1'(diff(x)), written over the one just used.
 * After the kernel and the soft threshold, three branch-free loops: the map
 * over x, the map over diff(x), and the D^T pass.  s1' (n - 1 doubles)
 * lives in the kernel's lo_clamp row at work + 6 n: dead once the kernel
 * has returned, and memory each update already touches, so the scratch
 * costs no new pages.  Inlined into each clone of cncflsa_mm_solve, so that
 * its maps are built at that clone's vector width. */
INLINE void cncflsa_mm_step(const struct mm_step *m)
{
    long n = m->n, i;
    double *shifted = m->shifted, *x = m->x, *ds1 = m->work + 6 * n;
    double t, v, sign, lam1 = m->lam1;

    if (n == 1 || lam1 == 0.0) {
        for (i = 0; i < n; i++)
            x[i] = shifted[i];
    } else {
        cncflsa_tvd(shifted, n, lam1, x, m->work);
    }
    for (i = 0; i < n; i++) { /* numpy's sign(t) * maximum(|t| - lam0, 0) */
        t = x[i];
        sign = t > 0.0 ? 1.0 : (t < 0.0 ? -1.0 : 0.0);
        v = fabs(t) - m->lam0;
        x[i] = sign * (v < 0.0 ? 0.0 : v);
    }
    switch (m->kind0) {
    case KIND_L1: map_x(KIND_L1, m); break;
    case KIND_LOG: map_x(KIND_LOG, m); break;
    case KIND_ATAN: map_x(KIND_ATAN, m); break;
    default: map_x(KIND_RATIONAL, m);
    }
    if (n == 1)
        return;
    switch (m->kind1) {
    case KIND_L1: map_diff(KIND_L1, m, ds1); break;
    case KIND_LOG: map_diff(KIND_LOG, m, ds1); break;
    case KIND_ATAN: map_diff(KIND_ATAN, m, ds1); break;
    default: map_diff(KIND_RATIONAL, m, ds1);
    }
    /* shifted - lam1 (D^T ds1), as cncflsa.prox._diff_adjoint forms it */
    shifted[0] = shifted[0] - lam1 * -ds1[0];
    for (i = 1; i < n - 1; i++)
        shifted[i] = shifted[i] - lam1 * (ds1[i - 1] - ds1[i]);
    shifted[n - 1] = shifted[n - 1] - lam1 * ds1[n - 2];
}

/* A float64 inner loop of a numpy ufunc, as numpy's ufuncobject.h declares
 * PyUFuncGenericFunction, with npy_intp the width of a pointer. */
typedef void (*numpy_loop)(char **args, const intptr_t *dimensions,
                           const intptr_t *steps, void *data);

/* numpy's loops of arctan and log1p (d->d), add (dd->d) and the vecdot
 * gufunc (dd->d); mirrored by cncflsa.prox._NumpyLoops, which resolves and
 * probes them.  Each is called with the arguments numpy itself passes. */
struct numpy_loops {
    numpy_loop arctan, log1p, add, vecdot;
};

/* cncflsa.penalties.PenaltySpec._finish of len values in place: numpy's
 * log1p or arctan, then the scale. */
static void finish(const struct numpy_loops *np, int kind, double a, double *phi, intptr_t len)
{
    char *args[2] = {(char *)phi, (char *)phi};
    intptr_t steps[2] = {8, 8}, i;
    double scale;

    if (len == 0)
        return;
    if (kind == KIND_LOG) {
        np->log1p(args, &len, steps, NULL);
        for (i = 0; i < len; i++)
            phi[i] /= a;
    } else if (kind == KIND_ATAN) {
        np->arctan(args, &len, steps, NULL);
        scale = 2.0 / (a * 1.7320508075688772);
        for (i = 0; i < len; i++)
            phi[i] *= scale;
    }
}

/* np.add.reduce of len values: the add loop in reduce form, onto 0.0. */
static double total(const struct numpy_loops *np, double *v, intptr_t len)
{
    double acc = 0.0;
    char *args[3] = {(char *)&acc, (char *)v, (char *)&acc};
    intptr_t steps[3] = {0, 8, 0};

    if (len > 0)
        np->add(args, &len, steps, NULL);
    return acc;
}

/* np.dot(r, r) of n values: one outer iteration of the vecdot loop. */
static double dot(const struct numpy_loops *np, double *r, intptr_t n)
{
    double out;
    char *args[3] = {(char *)r, (char *)r, (char *)&out};
    intptr_t dims[2] = {1, n}, steps[5] = {0, 0, 0, 8, 8};

    np->vecdot(args, dims, steps, NULL);
    return out;
}

/* The MM updates of cncflsa.cnc._mm_updates, bit-identical to its Python
 * reference cncflsa.cnc._mm_loop_python, the chain of the public functions:
 * up to max_iter calls of cncflsa_mm_step, each followed by F of the new
 * iterate (cncflsa.cnc.objective, in its order of evaluation), stored
 * in history[k] after history[0], and the stopping rule
 * |prev - F| <= tol * max(1, |prev|), false on NaN as in Python.  Returns
 * the number of updates, negated when the rule fired.
 *
 * Each update writes its iterate into x (n doubles).  The caller owns block,
 * 12 n + max_iter + 1 doubles, the one home of this layout:
 *   block           shifted, the input of the next update (n), which the
 *                   caller fills with the start's before the call;
 *   block + n       r = y - x (n);
 *   block + 2 n     phi0 (n);
 *   block + 3 n     phi1 (n - 1, in a row of n);
 *   block + 4 n     work, the 8 n doubles of tvd scratch, whose lo_clamp
 *                   row cncflsa_mm_step reuses for s1';
 *   block + 12 n    history (max_iter + 1), whose history[0], the start's
 *                   F, the caller writes before the call. */
CLONES long cncflsa_mm_solve(const double *y, long n, double *x, double *block, double lam0,
                      double lam1, double a0, double a1, int kind0, int kind1, long max_iter,
                      double tol, const struct numpy_loops *np)
{
    struct mm_step m = {n, y, block, x, block + n, block + 2 * n, block + 3 * n, block + 4 * n,
                        lam0, lam1, a0, a1, kind0, kind1};
    double *history = block + 12 * n;
    long k;
    double f, prev, scale;

    for (k = 1; k <= max_iter; k++) {
        cncflsa_mm_step(&m);
        finish(np, kind0, a0, m.phi0, n);
        finish(np, kind1, a1, m.phi1, n - 1);
        f = 0.5 * dot(np, m.r, n) + lam0 * total(np, m.phi0, n)
            + lam1 * total(np, m.phi1, n - 1);
        prev = history[k - 1];
        history[k] = f;
        scale = fabs(prev) > 1.0 ? fabs(prev) : 1.0;
        if (fabs(prev - f) <= tol * scale)
            return -k;
    }
    return max_iter;
}
