#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>

#include <float.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* cncflsa._kernels, the compiled kernels of cncflsa as a CPython extension
 * module, bit-identical to their Python references.  Built with
 * -ffp-contract=off and without -ffast-math, every operation rounds on its
 * own exactly as the same operation does in numpy, so each function keeps
 * its reference's expressions in their order.  -O3 with
 * -fno-trapping-math vectorizes the maps of majorize, which changes
 * no bit: each lane runs the same operations as one scalar would.  What
 * plain C cannot round as numpy does (its SIMD arctan and log1p, and its
 * pairwise sum) is done by calling numpy's own float64 inner loops, not
 * BLAS, which the module's import finds; cncflsa.prox._load probes them.
 *
 * The module's entries, at the end of this file, take aligned,
 * C-contiguous float64 arrays, write none of them and return new ones;
 * cncflsa.prox's docstring names the public function that calls each.
 * Each checks its arguments' dtype, layout, lengths and integer ranges,
 * raising TypeError or ValueError rather than reading past a buffer,
 * allocates its outputs and scratch itself, and releases the GIL around
 * its N-sized loops.  Where an entry and the MM loop share a loop, it is
 * written once: shrink, subtract_adjoint and algebra as INLINE functions,
 * finish as a plain one.
 *
 * The MM loop, cncflsa_mm_solve, is the one compiled solve: its updates,
 * the certificate it stops on, the Newton polish after each update that
 * does not stop, its merge rounds included, and the subgradient oracle
 * (oracle, a port of cncflsa.prox.fused_lasso_optimality_residual) that
 * stops a solve on a polished iterate, a byte-for-byte twin of
 * cncflsa.cnc._mm_loop_python.  The polish is the one place that needs s''
 * (curvature, beside algebra) and a Thomas sweep (thomas).
 *
 * Each kernel is built twice, for x86-64-v3 (AVX2, 4-lane maps) and for
 * the baseline x86-64 (SSE2), and the loader's ifunc resolver picks the
 * body this CPU runs; so the cached module runs on any x86-64 and uses the
 * wider vectors where they exist.  Neither body rounds differently: v3's
 * FMA stays off under -ffp-contract=off, and an IEEE add, mul, div, compare
 * or blend gives the same bits at any vector width.  The clones need gcc's
 * target_clones (gcc 12 or later) and glibc's ifunc; elsewhere CLONES
 * expands to nothing and the one body is the baseline's.
 *
 * cncflsa_tvd: exact 1-D total variation denoising, a line-for-line port of
 * cncflsa.prox._tvd_python (its docstring and comments describe the
 * algorithm).  Requires n >= 2 and lam > 0; the caller owns x (n doubles)
 * and work, TVD_ROWS rows of n doubles: the knots' pos, d_a and d_b (2 n
 * doubles each, from work, work + 2 n and work + 4 n) and the clamps
 * lo_clamp and hi_clamp (n - 1 doubles each, from work + 6 n and
 * work + 7 n).  Every index it forms stays within those rows whatever the
 * values: head only falls from n and tail only rises from n - 1, each by at
 * most one per sample. */

/* gcc 12 is the oldest checked: an older one may reject arch=x86-64-v3 in
 * target_clones (the x86-64 levels came in gcc 11), and a failed build
 * would leave the package on its Python backend. */
#if defined(__GNUC__) && __GNUC__ >= 12 && !defined(__clang__) && defined(__x86_64__) \
    && defined(__GLIBC__)
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

#define TVD_ROWS 8

/* cncflsa.cnc.POLISH_STEPS: the polish's cap on Newton steps, and on the
 * halvings of each step. */
#define POLISH_STEPS 60

CLONES static void cncflsa_tvd(const double *y, npy_intp n, double lam, double *x,
                               double *work)
{
    double *pos = work, *d_a = work + 2 * n, *d_b = work + 4 * n;
    double *lo_clamp = work + 6 * n, *hi_clamp = work + 7 * n;
    double a_left = 1.0, b_left = -y[0], a_right = 1.0, b_right = -y[0];
    double a, b, lo, hi, xi;
    npy_intp head = n, tail = n - 1, i, k;

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

/* One solve: the mm_solve entry fills it and carves its scratch rows (the
 * comment there is their layout's one home), cncflsa_mm_solve runs it and
 * its parts read it.  Each update solves on in and writes the next
 * shifted input into shifted; the solve swaps the two rows between
 * updates.  f, of size doubles, is the objective history. */
struct mm_step {
    npy_intp n;
    const double *y;
    double *in, *shifted, *x, *r, *phi0, *phi1, *work;
    double lam0, lam1, a0, a1, tol;
    int kind0, kind1; /* index into KINDS; PenaltySpec makes a = 0 "l1" */
    long long max_iter, size;
    double *f;
};

enum { KIND_L1, KIND_LOG, KIND_ATAN, KIND_RATIONAL };

/* fn(KIND, ...) with kind as a constant: each kind inlines its own copy of fn. */
#define BY_KIND(kind, fn, ...)                          \
    switch (kind) {                                     \
    case KIND_L1: fn(KIND_L1, __VA_ARGS__); break;      \
    case KIND_LOG: fn(KIND_LOG, __VA_ARGS__); break;    \
    case KIND_ATAN: fn(KIND_ATAN, __VA_ARGS__); break;  \
    default: fn(KIND_RATIONAL, __VA_ARGS__);            \
    }

/* cncflsa.penalties._U_LIMIT, 2^56: past a|z| of it every kind's s'(z) is
 * taken as its limit -sign(z), which it rounds to there, so that it stays
 * finite where the atan and rational squares overflow (from about 1e154)
 * and where a|z| itself does. */
#define U_LIMIT 72057594037927936.0

#define SQRT3 1.7320508075688772

#define INLINE static inline __attribute__((always_inline))

/* cncflsa.penalties.PenaltySpec._phi and ._slope at one sample z: stores
 * phi(z), or for log and atan the argument of their transcendental, and
 * returns s'(z).  Its callers are the maps of majorize and
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
        v = SQRT3 * u;
        *phi = v > DBL_MAX ? SQRT3 : v / (2.0 + u);
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

/* cncflsa.penalties.PenaltySpec.residual_deriv2 at one sample z: s''(z),
 * the curvature of polish, taken as its limit 0 past U_LIMIT. */
INLINE double curvature(int kind, double a, double z)
{
    double u = a * fabs(z), v, w, curv;

    if (kind == KIND_L1)
        return 0.0;
    if (kind == KIND_LOG) {
        v = 1.0 + u;
        curv = -a / (v * v);
    } else if (kind == KIND_ATAN) {
        v = 1.0 + 2.0 * u;
        w = 3.0 + v * v;
        curv = -16.0 * a * v / (w * w);
    } else {
        v = 1.0 + 0.5 * u;
        curv = -a / (v * v * v);
    }
    return u > U_LIMIT ? 0.0 : curv;
}

/* The map over x: r = (y - x)^2, phi0, and y - lam0 s0'(x), the first term
 * of majorized_input, written into shifted. */
INLINE void map_x(int kind, const struct mm_step *m)
{
    const double *restrict y = m->y, *restrict x = m->x;
    double *restrict shifted = m->shifted, *restrict r = m->r, *restrict phi0 = m->phi0;
    double a = m->a0, lam0 = m->lam0;
    npy_intp i;

    for (i = 0; i < m->n; i++) {
        r[i] = (y[i] - x[i]) * (y[i] - x[i]);
        shifted[i] = y[i] - lam0 * algebra(kind, a, x[i], &phi0[i]);
    }
}

/* The map over diff(x): phi1, and s1' into ds1. */
INLINE void map_diff(int kind, const struct mm_step *m, double *restrict ds1)
{
    const double *restrict x = m->x;
    double *restrict phi1 = m->phi1;
    double a = m->a1;
    npy_intp i;

    for (i = 0; i < m->n - 1; i++)
        ds1[i] = algebra(kind, a, x[i + 1] - x[i], &phi1[i]);
}

/* The maps of a penalty's public methods over n samples x: phi(x) as
 * PenaltySpec._phi gives it, before PenaltySpec._finish, into out when
 * slope is 0, and s'(x) as PenaltySpec._slope gives it when slope is 1.
 * The half a method does not return is computed and discarded, which gcc
 * drops as dead code. */
INLINE void map_penalty(int kind, int slope, double a, const double *restrict x,
                        double *restrict out, npy_intp n)
{
    double phi;
    npy_intp i;

    if (slope) {
        for (i = 0; i < n; i++)
            out[i] = algebra(kind, a, x[i], &phi);
    } else {
        for (i = 0; i < n; i++)
            algebra(kind, a, x[i], &out[i]);
    }
}

CLONES static void cncflsa_penalty_map(int kind, double a, const double *x, npy_intp n,
                                       double *out, int slope)
{
    BY_KIND(kind, map_penalty, slope, a, x, out, n);
}

/* numpy's sign(t) * maximum(|t| - lam, 0) of the n values t from in, into
 * out, which may be in: cncflsa.prox.soft_threshold, whose expression it
 * rounds as, and the soft threshold of fused_lasso. */
INLINE void shrink(const double *in, double *out, npy_intp n, double lam)
{
    double t, v, sign;
    npy_intp i;

    for (i = 0; i < n; i++) {
        t = in[i];
        sign = t > 0.0 ? 1.0 : (t < 0.0 ? -1.0 : 0.0);
        v = fabs(t) - lam;
        out[i] = sign * (v < 0.0 ? 0.0 : v);
    }
}

/* shifted - lam1 (D^T ds1) over n >= 2 samples, in place, as
 * cncflsa.cnc.majorized_input forms it with cncflsa.prox._diff_adjoint:
 * the pass of majorize and cncflsa_shifted_input. */
INLINE void subtract_adjoint(double *restrict shifted, const double *restrict ds1, double lam1,
                             npy_intp n)
{
    npy_intp i;

    shifted[0] = shifted[0] - lam1 * -ds1[0];
    for (i = 1; i < n - 1; i++)
        shifted[i] = shifted[i] - lam1 * (ds1[i - 1] - ds1[i]);
    shifted[n - 1] = shifted[n - 1] - lam1 * ds1[n - 2];
}

/* x = fused_lasso_l1(in, lam0, lam1), that is soft_threshold(tvd(in, lam1),
 * lam0), into m->x: the first half of an MM update of the Python chain
 * cncflsa.cnc._mm_loop_python. */
INLINE void fused_lasso(const struct mm_step *m)
{
    npy_intp n = m->n, i;

    if (n == 1 || m->lam1 == 0.0) {
        for (i = 0; i < n; i++)
            m->x[i] = m->in[i];
    } else {
        cncflsa_tvd(m->in, n, m->lam1, m->x, m->work);
    }
    shrink(m->x, m->x, n, m->lam0);
}

/* The second half: r = (y - x)^2, phi0 from x and phi1 from diff(x)
 * (PenaltySpec._phi; with r, the per-sample half of objective), and the
 * next shifted input majorized_input(x, y), y - lam0 s0'(x) - lam1 D^T
 * s1'(diff(x)), into m->shifted.  Three branch-free loops: the map over x,
 * the map over diff(x), and the D^T pass.  s1' (n - 1 doubles) lives in the
 * kernel's lo_clamp row at work + 6 n: dead once the kernel has returned,
 * and memory each update already touches, so the scratch costs no new
 * pages.  Inlined into each clone of cncflsa_mm_solve, so that its maps are
 * built at that clone's vector width. */
INLINE void majorize(const struct mm_step *m)
{
    npy_intp n = m->n;
    double *ds1 = m->work + 6 * n;

    BY_KIND(m->kind0, map_x, m);
    if (n == 1)
        return;
    BY_KIND(m->kind1, map_diff, m, ds1);
    subtract_adjoint(m->shifted, ds1, m->lam1, n);
}

/* cncflsa.cnc.majorized_input from its two residual_deriv rows, into out
 * (n doubles): y - lam0 ds0, then, when n >= 2, subtract_adjoint. */
CLONES static void cncflsa_shifted_input(const double *y, double lam0, const double *ds0,
                                         double lam1, const double *ds1, npy_intp n, double *out)
{
    npy_intp i;

    for (i = 0; i < n; i++)
        out[i] = y[i] - lam0 * ds0[i];
    if (n > 1)
        subtract_adjoint(out, ds1, lam1, n);
}

/* cncflsa.prox.soft_threshold of n values, into out: shrink in a body of
 * its own, so that each clone runs it at its vector width. */
CLONES static void cncflsa_soft_threshold(const double *x, npy_intp n, double lam, double *out)
{
    shrink(x, out, n, lam);
}

/* The squares (a - b)^2 of n pairs, into out, as numpy's d = a - b; d *= d
 * forms them. */
CLONES static void cncflsa_squares(const double *a, const double *b, npy_intp n, double *out)
{
    npy_intp i;

    for (i = 0; i < n; i++) {
        out[i] = a[i] - b[i];
        out[i] *= out[i];
    }
}

/* Whether the n doubles from x are all finite.  Adding 2^52 to a double's
 * exponent field, masked out of its bits, carries into the sign bit
 * exactly when the field is all ones, that is for inf and NaN; so the loop
 * is 64-bit and, add and or, which vectorize at any width. */
CLONES static int cncflsa_all_finite(const double *x, npy_intp n)
{
    uint64_t bits, carry = 0;
    npy_intp i;

    for (i = 0; i < n; i++) {
        memcpy(&bits, x + i, sizeof(bits));
        carry |= (bits & 0x7ff0000000000000ULL) + (1ULL << 52);
    }
    return !(carry >> 63);
}

/* A float64 inner loop of a numpy ufunc and the data numpy passes it, as
 * ufunc->functions[i] and ufunc->data[i] of numpy's PyUFuncObject. */
struct numpy_loop {
    PyUFuncGenericFunction call;
    void *data;
};

/* numpy's loops of arctan and log1p (d->d) and add (dd->d), the module's
 * state: module_exec finds them, and cncflsa.prox._load probes them
 * through the loops entry.  Each is called with the arguments numpy itself
 * passes. */
struct numpy_loops {
    struct numpy_loop arctan, log1p, add;
};

/* cncflsa.penalties.PenaltySpec._finish of len values in place: numpy's
 * log1p or arctan, then the scale. */
static void finish(const struct numpy_loops *np, int kind, double a, double *phi, npy_intp len)
{
    char *args[2] = {(char *)phi, (char *)phi};
    npy_intp steps[2] = {8, 8}, i;
    double scale;

    if (len == 0)
        return;
    if (kind == KIND_LOG) {
        np->log1p.call(args, &len, steps, np->log1p.data);
        for (i = 0; i < len; i++)
            phi[i] /= a;
    } else if (kind == KIND_ATAN) {
        np->arctan.call(args, &len, steps, np->arctan.data);
        scale = 2.0 / (a * SQRT3);
        for (i = 0; i < len; i++)
            phi[i] *= scale;
    }
}

/* np.add.reduce of len values: the add loop in reduce form, onto 0.0. */
static double total(const struct numpy_loops *np, double *v, npy_intp len)
{
    double acc = 0.0;
    char *args[3] = {(char *)&acc, (char *)v, (char *)&acc};
    npy_intp steps[3] = {0, 8, 0};

    if (len > 0)
        np->add.call(args, &len, steps, np->add.data);
    return acc;
}

/* cncflsa.cnc._certificate of the update that solved on m->in and formed
 * m->shifted: ||in - shifted||_1 / lam1, or its largest entry / lam0 where
 * lam1 = 0, NaN where an entry is NaN as in np.max, or 0 where both weights
 * are 0.  |in - shifted| is written over in, dead once the kernel has
 * returned, and summed by total as numpy's add.reduce sums it. */
static double certificate(const struct mm_step *m, const struct numpy_loops *np)
{
    double *e = m->in, largest = 0.0;
    npy_intp i;

    for (i = 0; i < m->n; i++)
        e[i] = fabs(e[i] - m->shifted[i]);
    if (m->lam1 > 0.0)
        return total(np, e, m->n) / m->lam1;
    if (m->lam0 == 0.0)
        return 0.0;
    for (i = 0; i < m->n; i++)
        largest = e[i] > largest || e[i] != e[i] ? e[i] : largest;
    return largest / m->lam0;
}

/* cncflsa.cnc.objective of the iterate whose rows r, phi0 and phi1
 * majorize has just written: the penalties finished in place, then F's
 * three sums in the reference's order of evaluation. */
static double objective(const struct mm_step *m, const struct numpy_loops *np)
{
    finish(np, m->kind0, m->a0, m->phi0, m->n);
    finish(np, m->kind1, m->a1, m->phi1, m->n - 1);
    return 0.5 * total(np, m->r, m->n) + m->lam0 * total(np, m->phi0, m->n)
           + m->lam1 * total(np, m->phi1, m->n - 1);
}

/* cncflsa.prox.fused_lasso_optimality_residual(shifted, x, lam0, lam1) of
 * the iterate m->x and its shifted input m->shifted, in the reference's
 * operations and order in each of its four weight cases (where lam0 = 0,
 * cncflsa.prox.tvd_optimality_residual's, whose cumulative sum runs left to
 * right as np.cumsum's does).  inf where a gap of the chain reads NaN, as
 * in the reference.  The worst violation only grows, so the pass ends once
 * it misses tol and returns it: a residual that misses tol stops nothing
 * and is never reported.  A jump's sign is that of its ends' comparison. */
static double oracle(const struct mm_step *m)
{
    const double *s = m->shifted, *x = m->x;
    double lam0 = m->lam0, lam1 = m->lam1, total = 0.0, lo = 0.0, hi = 0.0, worst = 0.0;
    double r, v, c_lo, c_hi, below, above, gap;
    npy_intp n = m->n, k;

    for (k = 0; k < n; k++) {
        r = s[k] - x[k];
        total += r;
        if (lam1 == 0.0) {
            /* |r_k|, or with g_k = r_k / lam0, |g_k - sign x_k| where
             * x_k != 0 and max(0, |g_k| - 1) elsewhere */
            if (lam0 == 0.0)
                v = fabs(r);
            else if (x[k] != 0.0)
                v = fabs(r / lam0 - (x[k] > 0.0 ? 1.0 : -1.0));
            else
                v = fabs(r / lam0) - 1.0 > 0.0 ? fabs(r / lam0) - 1.0 : 0.0;
        } else if (lam0 == 0.0) {
            /* |p_k| / lam1 at the last sample, else |u_k - sign d_k| at a
             * jump and max(0, |u_k| - 1) elsewhere, u_k = -p_k / lam1 */
            v = -total / lam1;
            if (k == n - 1)
                v = fabs(total) / lam1;
            else if (x[k + 1] != x[k])
                v = fabs(v - (x[k + 1] > x[k] ? 1.0 : -1.0));
            else
                v = fabs(v) - 1.0 > 0.0 ? fabs(v) - 1.0 : 0.0;
        } else {
            /* the reachable interval [lo, hi] of lam0 (g_0 + ... + g_k) */
            if (x[k] > 0.0)
                lo += lam0, hi += lam0;
            else if (x[k] < 0.0)
                lo -= lam0, hi -= lam0;
            else
                lo -= lam0, hi += lam0;
            if (k == n - 1)
                c_lo = c_hi = total;
            else if (x[k + 1] > x[k])
                c_lo = c_hi = total + lam1;
            else if (x[k + 1] < x[k])
                c_lo = c_hi = total - lam1;
            else
                c_lo = total - lam1, c_hi = total + lam1;
            below = c_lo - hi, above = lo - c_hi;
            if (below != below || above != above)
                return INFINITY;
            gap = below > 0.0 ? below : 0.0;
            gap = above > gap ? above : gap;
            v = gap / lam1;
            if (gap > 0.0) {
                lo = hi = hi < c_lo ? c_lo : c_hi;
            } else {
                lo = c_lo > lo ? c_lo : lo;
                hi = c_hi < hi ? c_hi : hi;
            }
        }
        if (!(v <= worst) && !((worst = v) <= m->tol))
            return worst;
    }
    return worst;
}

/* The rows of polish over G segments, carved from m->work (TVD_ROWS rows of
 * n >= G doubles, dead once the kernel has returned, as s1' already reuses
 * lo_clamp), so the polish touches no new pages: the sizes n_g, the means
 * m_g of y, the values v and a trial (first the terms g.step of the Newton
 * decrement, then a merge round's values or a step's), the gradient (which
 * the Thomas sweep turns into the step), the Hessian's diagonal and
 * off-diagonal and the sweep's c'.  segment_objective reuses the last three
 * for its three terms once the step is solved.  A merge round only lowers
 * G, so fuse rebuilds the first rows in place and no row is added. */
struct segments {
    npy_intp g;
    double *cnt, *mean, *v, *trial, *grad, *diag, *off, *cp;
};

/* cncflsa.cnc._segment_objective of the values v, the quadratic terms of
 * the segments where free is nonzero. */
static double segment_objective(const struct mm_step *m, const struct numpy_loops *np,
                                const struct segments *s, const double *v, const double *free)
{
    double *q = s->diag, *p = s->cp, *ph = s->off, r;
    npy_intp g, G = s->g;

    for (g = 0; g < G; g++) {
        r = v[g] - s->mean[g];
        q[g] = free[g] != 0.0 ? 0.5 * s->cnt[g] * (r * r) : 0.0;
        algebra(m->kind0, m->a0, v[g], &p[g]);
    }
    finish(np, m->kind0, m->a0, p, G);
    for (g = 0; g < G; g++)
        p[g] = s->cnt[g] * p[g];
    for (g = 0; g < G - 1; g++)
        algebra(m->kind1, m->a1, v[g + 1] - v[g], &ph[g]);
    finish(np, m->kind1, m->a1, ph, G - 1);
    return total(np, q, G) + m->lam0 * total(np, p, G) + m->lam1 * total(np, ph, G - 1);
}

/* cncflsa.cnc._thomas: the Newton step into s->grad, from the Hessian in
 * s->diag and s->off; 0 where a pivot is not positive. */
static int thomas(const struct segments *s)
{
    double *b = s->diag, *c = s->off, *d = s->grad, *cp = s->cp, den;
    npy_intp i, G = s->g;

    for (i = 0; i < G; i++) {
        den = i ? b[i] - c[i - 1] * cp[i - 1] : b[0];
        if (!(den > 0.0))
            return 0;
        d[i] = i ? (d[i] - c[i - 1] * d[i - 1]) / den : d[0] / den;
        if (i < G - 1)
            cp[i] = c[i] / den;
    }
    for (i = G - 2; i >= 0; i--)
        d[i] = d[i] - cp[i] * d[i + 1];
    return 1;
}

/* Whether b keeps the sign of a, 0 counting as a sign of its own. */
INLINE int same_sign(double a, double b)
{
    return (b > 0.0) == (a > 0.0) && (b < 0.0) == (a < 0.0);
}

/* cncflsa.cnc._run_mean of the entries a to b - 1: their count, the sum
 * of s->cnt, into *count, and the s->cnt-weighted mean of values, each
 * summed left to right. */
static double run_mean(const struct segments *s, const double *values, npy_intp a, npy_intp b,
                       double *count)
{
    double total = 0.0, acc = 0.0;
    npy_intp g;

    for (g = a; g < b; g++)
        total += s->cnt[g], acc += s->cnt[g] * values[g];
    *count = total;
    return acc / total;
}

/* cncflsa.cnc._merged_step: the full Newton step s->v - s->grad into
 * s->trial, each nonzero value that it takes to or across 0 set to 0, then
 * each run of segments joined by jumps whose sign it changes set to 0 where
 * a member is 0, else to the members' count-weighted mean.  Returns whether
 * it set a value to 0 or joined segments.  A run's end is found before any
 * of its values is set, so each jump is judged on the step's values. */
static int merged_step(struct segments *s)
{
    npy_intp g, a, e, G = s->g;
    double value, count;
    int merged = 0, zero;

    for (g = 0; g < G; g++) {
        s->trial[g] = s->v[g] - s->grad[g];
        if (!same_sign(s->v[g], s->trial[g]))
            s->trial[g] = 0.0, merged = 1;
    }
    for (a = 0; a < G; a = e + 1) {
        for (e = a; e < G - 1 && !same_sign(s->v[e + 1] - s->v[e], s->trial[e + 1] - s->trial[e]);
             e++)
            ;
        if (e == a)
            continue;
        for (g = a, zero = 0; g <= e; g++)
            zero |= s->trial[g] == 0.0;
        value = zero ? 0.0 : run_mean(s, s->trial, a, e + 1, &count);
        for (g = a; g <= e; g++)
            s->trial[g] = value;
        merged = 1;
    }
    return merged;
}

/* cncflsa.cnc._fused: the segments after an accepted merge round, one per
 * run of equal values of s->trial, rebuilt in place: a run's count and
 * mean are written at or before its first member, once all its members are
 * read. */
static void fuse(struct segments *s)
{
    npy_intp g, a, k;
    double count;

    for (a = 0, k = 0; a < s->g; a = g, k++) {
        for (g = a + 1; g < s->g && s->trial[g] == s->trial[a]; g++)
            ;
        s->v[k] = s->trial[a];
        if (g - a > 1) {
            s->mean[k] = run_mean(s, s->mean, a, g, &count);
            s->cnt[k] = count;
        } else {
            s->mean[k] = s->mean[a], s->cnt[k] = s->cnt[a];
        }
    }
    s->g = k;
}

/* cncflsa.cnc._polish of m->x, whose docstring gives the rules: Newton
 * steps on the values of its nonzero segments, the gradient from algebra's
 * s' and the Hessian from curvature; merge rounds (merged_step, fuse)
 * while one merges and strictly lowers segment_objective, then steps from
 * the full length halved until they keep every sign and strictly lower
 * it, in the reference's operations and order.  Returns -1 where x has no
 * nonzero segment, else the number of steps taken, and where it took one,
 * writes the polished iterate into xhat (n doubles). */
static long long polish(const struct mm_step *m, const struct numpy_loops *np, double *xhat)
{
    const double *x = m->x;
    double *w = m->work, f, ft, t, d, slope1, curv1, phi;
    npy_intp n = m->n, g, i, start = 0, G = 0, K = 0;
    struct segments s = {0, w, w + n, w + 2 * n, w + 3 * n, w + 4 * n, w + 5 * n, w + 6 * n,
                         w + 7 * n};
    long long steps, h;
    int moved, keeps, accepted, last, merging = 1;

    for (i = 1; i <= n; i++) {
        if (i < n && x[i] == x[i - 1])
            continue;
        s.v[G] = x[start], s.cnt[G] = (double)(i - start), s.mean[G] = 0.0;
        if (x[start] != 0.0)
            s.mean[G] = total(np, (double *)m->y + start, i - start) / s.cnt[G], K++;
        G++, start = i;
    }
    if (K == 0)
        return -1;
    s.g = G;
    f = segment_objective(m, np, &s, s.v, s.v);
    for (steps = 0; steps < POLISH_STEPS;) {
        G = s.g;
        for (g = 0; g < G; g++) {
            if (s.v[g] == 0.0) {
                s.grad[g] = 0.0, s.diag[g] = 1.0;
                continue;
            }
            s.grad[g] = s.cnt[g] * (s.v[g] - s.mean[g])
                        + m->lam0 * s.cnt[g] * ((s.v[g] > 0.0 ? 1.0 : -1.0)
                                                + algebra(m->kind0, m->a0, s.v[g], &phi));
            s.diag[g] = s.cnt[g] * (1.0 + m->lam0 * curvature(m->kind0, m->a0, s.v[g]));
        }
        for (g = 0; g < G - 1; g++) {
            d = s.v[g + 1] - s.v[g];
            slope1 = m->lam1 * ((d > 0.0 ? 1.0 : -1.0) + algebra(m->kind1, m->a1, d, &phi));
            curv1 = m->lam1 * curvature(m->kind1, m->a1, d);
            if (s.v[g + 1] != 0.0)
                s.grad[g + 1] += slope1, s.diag[g + 1] += curv1;
            if (s.v[g] != 0.0)
                s.grad[g] -= slope1, s.diag[g] += curv1;
            s.off[g] = s.v[g] != 0.0 && s.v[g + 1] != 0.0 ? -curv1 : 0.0;
        }
        memcpy(s.trial, s.grad, G * sizeof(double));
        if (!thomas(&s))
            break;
        for (g = 0; g < G; g++) {
            s.grad[g] = s.v[g] != 0.0 ? s.grad[g] : 0.0;
            s.trial[g] = s.trial[g] * s.grad[g];
        }
        last = 0.5 * total(np, s.trial, G) <= DBL_EPSILON * f;
        if (merging) {
            if (merged_step(&s) && segment_objective(m, np, &s, s.trial, s.v) < f) {
                fuse(&s);
                f = segment_objective(m, np, &s, s.v, s.v);
                steps++;
                continue;
            }
            merging = 0;
        }
        t = 1.0, accepted = 0;
        for (h = 0; h < POLISH_STEPS; h++, t *= 0.5) {
            moved = 0, keeps = 1;
            for (g = 0; g < G; g++) {
                s.trial[g] = s.v[g] - t * s.grad[g];
                moved |= s.trial[g] != s.v[g];
                keeps &= same_sign(s.v[g], s.trial[g]);
            }
            if (!moved)
                break;
            for (g = 0; g < G - 1; g++)
                keeps &= same_sign(s.v[g + 1] - s.v[g], s.trial[g + 1] - s.trial[g]);
            if (!keeps) {
                last = 1;
                continue;
            }
            if ((ft = segment_objective(m, np, &s, s.trial, s.v)) < f
                || (last && ft - f <= DBL_EPSILON * f)) {
                double *swap = s.v;
                s.v = s.trial, s.trial = swap, f = ft, accepted = 1;
                break;
            }
            if (last)
                break;
        }
        if (!accepted)
            break;
        steps++;
        if (last)
            break;
    }
    if (steps > 0) {
        for (g = 0, i = 0; g < s.g; g++)
            for (start = i; i < start + (npy_intp)s.cnt[g]; i++)
                xhat[i] = s.v[g];
    }
    return steps;
}

/* The MM updates of cncflsa.cnc._mm_updates, bit-identical to its Python
 * reference cncflsa.cnc._mm_loop_python, the chain of the public functions.
 * Update k runs fused_lasso on m->in, stores F of the new iterate
 * (cncflsa.cnc.objective, in its order of evaluation) in m->f[k] after
 * m->f[0], forms the next shifted input in m->shifted by majorize and the
 * certificate; it stops, converged, where the certificate is <= tol (false
 * on NaN as in Python), or after m->max_iter updates.  Otherwise the
 * iterate is polished, and where the polish took a step, majorize of the
 * polished iterate, kept in m->in, replaces the next input, and the oracle
 * of the two is evaluated: where it is <= tol, the solve stops, converged,
 * on the polished iterate, copied into m->x, with the oracle as its
 * certificate and its F, from the rows that majorize just wrote, as m->f[k].
 * Otherwise the rows in and shifted swap.  Returns the number of updates,
 * negated when a certificate met tol, or 0 when the history could not
 * grow; certificate, polishes and Newton steps come back through their
 * pointers.  m->f doubles in size whenever an update needs more room; the
 * solve runs without the GIL, so it grows with PyMem_RawRealloc. */
CLONES static long long cncflsa_mm_solve(struct mm_step *m, const struct numpy_loops *np,
                                         double *cert, long long *polishes, long long *steps)
{
    npy_intp n = m->n;
    long long k, taken;
    double f, residual, *grown, *swap;
    struct mm_step polished;

    for (k = 1;; k++) {
        fused_lasso(m);
        majorize(m);
        f = objective(m, np);
        if (k == m->size) {
            grown = PyMem_RawRealloc(m->f, 2 * m->size * sizeof(double));
            if (grown == NULL)
                return 0;
            m->f = grown, m->size *= 2;
        }
        m->f[k] = f;
        *cert = certificate(m, np);
        if (*cert <= m->tol)
            return -k;
        if (k == m->max_iter)
            return k;
        taken = polish(m, np, m->in);
        *polishes += taken >= 0, *steps += taken > 0 ? taken : 0;
        if (taken > 0) {
            polished = *m, polished.x = m->in;
            majorize(&polished);
            if ((residual = oracle(&polished)) <= m->tol) {
                m->f[k] = objective(&polished, np);
                memcpy(m->x, m->in, n * sizeof(double));
                *cert = residual;
                return -k;
            }
        }
        swap = m->in, m->in = m->shifted, m->shifted = swap;
    }
}

/* numpy.<name>'s float64 loop, the first whose types are all NPY_DOUBLE.
 * The module keeps no reference to the ufunc: numpy's own module holds it.
 * -1 with ImportError when numpy has no <name>, or it is not a ufunc or
 * has no such loop. */
static int find_loop(PyObject *numpy, const char *name, struct numpy_loop *loop)
{
    PyObject *ufunc = PyObject_GetAttrString(numpy, name);
    PyUFuncObject *uf = (PyUFuncObject *)ufunc;
    int i, j;

    if (ufunc != NULL && PyObject_TypeCheck(ufunc, &PyUFunc_Type)) {
        for (i = 0; i < uf->ntypes; i++) {
            for (j = 0; j < uf->nargs && uf->types[i * uf->nargs + j] == NPY_DOUBLE; j++)
                ;
            if (j == uf->nargs && uf->functions[i] != NULL) {
                loop->call = uf->functions[i];
                loop->data = uf->data == NULL ? NULL : uf->data[i];
                Py_DECREF(ufunc);
                return 0;
            }
        }
    }
    Py_XDECREF(ufunc);
    PyErr_Format(PyExc_ImportError, "numpy.%s is not a ufunc with a float64 loop", name);
    return -1;
}

/* The module's import: numpy's C API, then its three loops, found in
 * numpy's ufuncs; ImportError when one is missing.  cncflsa.prox._load
 * probes them through the loops entry before the module is used. */
static int module_exec(PyObject *module)
{
    static const char *names[3] = {"arctan", "log1p", "add"};
    struct numpy_loops *np = PyModule_GetState(module);
    struct numpy_loop *loops[3] = {&np->arctan, &np->log1p, &np->add};
    PyObject *numpy;
    int i;

    if (PyArray_ImportNumPyAPI() < 0 || PyUFunc_ImportUFuncAPI() < 0)
        return -1;
    numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return -1;
    for (i = 0; i < 3 && find_loop(numpy, names[i], loops[i]) == 0; i++)
        ;
    Py_DECREF(numpy);
    return i == 3 ? 0 : -1;
}

/* The argument checks of the entries. */

static int check_nargs(const char *entry, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", entry, want, nargs);
    return -1;
}

/* arg as an aligned, C-contiguous array of native float64 with ndim
 * dimensions (any number when ndim is -1), or NULL with TypeError or
 * ValueError. */
static PyArrayObject *as_array(PyObject *arg, const char *name, int ndim)
{
    PyArrayObject *a = (PyArrayObject *)arg;

    if (!PyArray_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "%s must be a numpy array, got %s", name,
                     Py_TYPE(arg)->tp_name);
        return NULL;
    }
    if (PyArray_TYPE(a) != NPY_DOUBLE || !PyArray_ISNOTSWAPPED(a)) {
        PyErr_Format(PyExc_TypeError, "%s must be a native float64 array", name);
        return NULL;
    }
    if (!PyArray_ISCARRAY_RO(a)) {
        PyErr_Format(PyExc_ValueError, "%s must be aligned and C-contiguous", name);
        return NULL;
    }
    if (ndim >= 0 && PyArray_NDIM(a) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), got %d", name, ndim,
                     PyArray_NDIM(a));
        return NULL;
    }
    return a;
}

static int as_double(PyObject *arg, double *out)
{
    *out = PyFloat_AsDouble(arg);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* arg as an int in [lo, hi], or -1 with TypeError or ValueError. */
static int as_int(PyObject *arg, const char *name, int lo, int hi, int *out)
{
    int overflow;
    long value = PyLong_AsLongAndOverflow(arg, &overflow);

    if (value == -1 && PyErr_Occurred())
        return -1;
    if (overflow || value < lo || value > hi) {
        PyErr_Format(PyExc_ValueError, "%s must be an integer in [%d, %d]", name, lo, hi);
        return -1;
    }
    *out = (int)value;
    return 0;
}

/* PyMem_RawMalloc of rows rows of n doubles, or NULL with MemoryError. */
static double *scratch(npy_intp n, npy_intp rows)
{
    double *out = NULL;

    if (n <= PY_SSIZE_T_MAX / (npy_intp)sizeof(double) / rows)
        out = PyMem_RawMalloc(n * rows * sizeof(double));
    if (out == NULL)
        PyErr_NoMemory();
    return out;
}

/* The entries. */

PyDoc_STRVAR(tvd_doc, "tvd(y, lam) -> x\n\n"
"The exact TV denoising of cncflsa.prox.tvd: y a C-contiguous float64 vector\n"
"of at least 2 samples, lam finite and > 0.");

static PyObject *tvd(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *y;
    PyObject *x;
    const double *in;
    double lam, *out, *work;
    npy_intp n;

    if (check_nargs("tvd", nargs, 2) < 0 || (y = as_array(args[0], "y", 1)) == NULL
        || as_double(args[1], &lam) < 0)
        return NULL;
    n = PyArray_DIM(y, 0);
    if (n < 2 || !(lam > 0.0 && lam <= DBL_MAX)) {
        PyErr_SetString(PyExc_ValueError, "tvd needs at least 2 samples and a finite lam > 0");
        return NULL;
    }
    if ((x = PyArray_SimpleNew(1, &n, NPY_DOUBLE)) == NULL)
        return NULL;
    if ((work = scratch(n, TVD_ROWS)) == NULL) {
        Py_DECREF(x);
        return NULL;
    }
    in = PyArray_DATA(y), out = PyArray_DATA((PyArrayObject *)x);
    Py_BEGIN_ALLOW_THREADS
    cncflsa_tvd(in, n, lam, out, work);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(work);
    return x;
}

PyDoc_STRVAR(penalty_map_doc, "penalty_map(kind, a, x, slope) -> out\n\n"
"phi as PenaltySpec.value gives it (slope 0; PenaltySpec._phi, then\n"
"PenaltySpec._finish through numpy's own loops) or s' as PenaltySpec._slope\n"
"gives it (slope 1) of penalty KINDS[kind] with degree a, over a C-contiguous\n"
"float64 array x of any shape.");

static PyObject *penalty_map(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const struct numpy_loops *loops = PyModule_GetState(self);
    PyArrayObject *x;
    PyObject *out;
    const double *in;
    double a, *values;
    npy_intp n;
    int kind, slope;

    if (check_nargs("penalty_map", nargs, 4) < 0 || as_int(args[0], "kind", 0, 3, &kind) < 0
        || as_double(args[1], &a) < 0 || (x = as_array(args[2], "x", -1)) == NULL
        || as_int(args[3], "slope", 0, 1, &slope) < 0)
        return NULL;
    if ((out = PyArray_SimpleNew(PyArray_NDIM(x), PyArray_DIMS(x), NPY_DOUBLE)) == NULL)
        return NULL;
    in = PyArray_DATA(x), values = PyArray_DATA((PyArrayObject *)out), n = PyArray_SIZE(x);
    Py_BEGIN_ALLOW_THREADS
    cncflsa_penalty_map(kind, a, in, n, values, slope);
    if (!slope)
        finish(loops, kind, a, values, n);
    Py_END_ALLOW_THREADS
    return out;
}

PyDoc_STRVAR(soft_threshold_doc, "soft_threshold(x, lam) -> out\n\n"
"cncflsa.prox.soft_threshold of a C-contiguous float64 array x of any shape,\n"
"lam finite and >= 0.");

static PyObject *soft_threshold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *x;
    PyObject *out;
    const double *in;
    double lam, *values;
    npy_intp n;

    if (check_nargs("soft_threshold", nargs, 2) < 0 || (x = as_array(args[0], "x", -1)) == NULL
        || as_double(args[1], &lam) < 0)
        return NULL;
    if (!(lam >= 0.0 && lam <= DBL_MAX)) {
        PyErr_SetString(PyExc_ValueError, "soft_threshold needs a finite lam >= 0");
        return NULL;
    }
    if ((out = PyArray_SimpleNew(PyArray_NDIM(x), PyArray_DIMS(x), NPY_DOUBLE)) == NULL)
        return NULL;
    in = PyArray_DATA(x), values = PyArray_DATA((PyArrayObject *)out), n = PyArray_SIZE(x);
    Py_BEGIN_ALLOW_THREADS
    cncflsa_soft_threshold(in, n, lam, values);
    Py_END_ALLOW_THREADS
    return out;
}

PyDoc_STRVAR(shifted_input_doc, "shifted_input(y, lam0, ds0, lam1, ds1) -> out\n\n"
"The shifted input of cncflsa.cnc.majorized_input, y - lam0 ds0 - lam1 D^T ds1,\n"
"from the residual_deriv rows ds0 (of the iterate) and ds1 (of its diff): y\n"
"and ds0 C-contiguous float64 vectors of one length n >= 1, ds1 one of n - 1.");

static PyObject *shifted_input(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *y, *ds0, *ds1;
    PyObject *out;
    const double *in, *s0, *s1;
    double lam0, lam1, *values;
    npy_intp n;

    if (check_nargs("shifted_input", nargs, 5) < 0 || (y = as_array(args[0], "y", 1)) == NULL
        || as_double(args[1], &lam0) < 0 || (ds0 = as_array(args[2], "ds0", 1)) == NULL
        || as_double(args[3], &lam1) < 0 || (ds1 = as_array(args[4], "ds1", 1)) == NULL)
        return NULL;
    n = PyArray_DIM(y, 0);
    if (n < 1 || PyArray_DIM(ds0, 0) != n || PyArray_DIM(ds1, 0) != n - 1) {
        PyErr_SetString(PyExc_ValueError, "y and ds0 must have one length n >= 1, and ds1 n - 1");
        return NULL;
    }
    if ((out = PyArray_SimpleNew(1, &n, NPY_DOUBLE)) == NULL)
        return NULL;
    in = PyArray_DATA(y), s0 = PyArray_DATA(ds0), s1 = PyArray_DATA(ds1);
    values = PyArray_DATA((PyArrayObject *)out);
    Py_BEGIN_ALLOW_THREADS
    cncflsa_shifted_input(in, lam0, s0, lam1, s1, n, values);
    Py_END_ALLOW_THREADS
    return out;
}

PyDoc_STRVAR(mm_solve_doc, "mm_solve(y, shifted, f0, lam0, lam1, a0, a1, kind0, kind1, max_iter,"
" tol)\n    -> (x, history, converged, certificate, polishes, newton_steps)\n\n"
"The MM updates of cncflsa.cnc._mm_updates from a start whose shifted input is\n"
"shifted and whose F is f0, on C-contiguous float64 vectors y and shifted of\n"
"one length; kind0 and kind1 index KINDS, and max_iter >= 1 (any larger than\n"
"a C long long runs as unbounded).  history holds f0 and the F of each update\n"
"run, the last one replaced by F(x) where the solve stopped on a polished\n"
"iterate; certificate is that of the stop, and polishes and newton_steps count\n"
"the polishes run after updates and the steps they took.");

static PyObject *mm_solve(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const struct numpy_loops *loops = PyModule_GetState(self);
    struct mm_step m;
    PyArrayObject *y, *shifted;
    PyObject *x, *history;
    double f0, cert = 0.0;
    long long updates, polishes = 0, steps = 0;
    int overflow;
    npy_intp size;

    if (check_nargs("mm_solve", nargs, 11) < 0 || (y = as_array(args[0], "y", 1)) == NULL
        || (shifted = as_array(args[1], "shifted", 1)) == NULL || as_double(args[2], &f0) < 0
        || as_double(args[3], &m.lam0) < 0 || as_double(args[4], &m.lam1) < 0
        || as_double(args[5], &m.a0) < 0 || as_double(args[6], &m.a1) < 0
        || as_int(args[7], "kind0", 0, 3, &m.kind0) < 0
        || as_int(args[8], "kind1", 0, 3, &m.kind1) < 0 || as_double(args[10], &m.tol) < 0)
        return NULL;
    m.max_iter = PyLong_AsLongLongAndOverflow(args[9], &overflow);
    if (m.max_iter == -1 && PyErr_Occurred())
        return NULL;
    if (overflow > 0)
        m.max_iter = LLONG_MAX;
    else if (overflow < 0 || m.max_iter < 1) {
        PyErr_SetString(PyExc_ValueError, "max_iter must be >= 1");
        return NULL;
    }
    m.n = PyArray_DIM(y, 0);
    if (m.n < 1 || PyArray_DIM(shifted, 0) != m.n) {
        PyErr_SetString(PyExc_ValueError, "y and shifted must have one length >= 1");
        return NULL;
    }
    /* The result before the scratch, so that freeing the scratch leaves no
     * hole below it: a sweep keeps thousands of results. */
    if ((x = PyArray_SimpleNew(1, &m.n, NPY_DOUBLE)) == NULL)
        return NULL;
    /* The solve's scratch: one block of 5 + TVD_ROWS rows of n doubles,
     * r = (y - x)^2, phi0, phi1 (n - 1 of its row); the two shifted rows in
     * and shifted, in a copy of the caller's, which swap after each update,
     * and of which in takes |e| for the certificate and then the polished
     * iterate; and cncflsa_tvd's work, whose lo_clamp row majorize reuses
     * for s1' and all of whose rows polish reuses for its own, of at most n
     * doubles each (struct segments), its merge rounds rebuilding them in
     * place.  And the history f, f0 first, at 64
     * doubles or max_iter + 1 if fewer. */
    m.size = m.max_iter < 64 ? m.max_iter + 1 : 64;
    if ((m.r = scratch(m.n, 5 + TVD_ROWS)) == NULL || (m.f = scratch(m.size, 1)) == NULL) {
        PyMem_RawFree(m.r);
        Py_DECREF(x);
        return NULL;
    }
    m.phi0 = m.r + m.n, m.phi1 = m.r + 2 * m.n, m.in = m.r + 3 * m.n;
    m.shifted = m.r + 4 * m.n, m.work = m.r + 5 * m.n;
    m.f[0] = f0;
    m.y = PyArray_DATA(y), m.x = PyArray_DATA((PyArrayObject *)x);
    Py_BEGIN_ALLOW_THREADS
    memcpy(m.in, PyArray_DATA(shifted), m.n * sizeof(double));
    updates = cncflsa_mm_solve(&m, loops, &cert, &polishes, &steps);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(m.r);
    size = (npy_intp)(updates < 0 ? -updates : updates) + 1;
    history = updates == 0 ? PyErr_NoMemory() : PyArray_SimpleNew(1, &size, NPY_DOUBLE);
    if (history != NULL)
        memcpy(PyArray_DATA((PyArrayObject *)history), m.f, size * sizeof(double));
    PyMem_RawFree(m.f);
    if (history == NULL) {
        Py_DECREF(x);
        return NULL;
    }
    return Py_BuildValue("(NNOdLL)", x, history, updates < 0 ? Py_True : Py_False, cert,
                         polishes, steps);
}

PyDoc_STRVAR(all_finite_doc, "all_finite(a) -> bool\n\n"
"Whether every entry of the C-contiguous float64 array a is finite.");

static PyObject *all_finite(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *a;
    const double *x;
    npy_intp n;
    int finite;

    if (check_nargs("all_finite", nargs, 1) < 0 || (a = as_array(args[0], "a", -1)) == NULL)
        return NULL;
    x = PyArray_DATA(a), n = PyArray_SIZE(a);
    Py_BEGIN_ALLOW_THREADS
    finite = cncflsa_all_finite(x, n);
    Py_END_ALLOW_THREADS
    return PyBool_FromLong(finite);
}

PyDoc_STRVAR(loops_doc, "loops(values, magnitudes) -> (arctan, log1p, sum)\n\n"
"What the calls of numpy's loops that mm_solve makes give, for\n"
"cncflsa.prox._load to compare with numpy's own calls: PenaltySpec._finish of\n"
"the C-contiguous float64 vector magnitudes for atan at a = 2/sqrt(3) and for\n"
"log at a = 1, where its scale is exactly 1.0, so np.arctan and np.log1p of\n"
"them; and np.add.reduce(values) of the C-contiguous float64 vector values.");

static PyObject *loops(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const struct numpy_loops *np = PyModule_GetState(self);
    PyArrayObject *values, *magnitudes;
    PyObject *arctan, *log1p;
    double *v, sum;
    npy_intp n, len;

    if (check_nargs("loops", nargs, 2) < 0 || (values = as_array(args[0], "values", 1)) == NULL
        || (magnitudes = as_array(args[1], "magnitudes", 1)) == NULL)
        return NULL;
    if ((arctan = PyArray_NewCopy(magnitudes, NPY_CORDER)) == NULL)
        return NULL;
    if ((log1p = PyArray_NewCopy(magnitudes, NPY_CORDER)) == NULL) {
        Py_DECREF(arctan);
        return NULL;
    }
    v = PyArray_DATA(values), n = PyArray_DIM(values, 0), len = PyArray_DIM(magnitudes, 0);
    Py_BEGIN_ALLOW_THREADS
    finish(np, KIND_ATAN, 2.0 / SQRT3, PyArray_DATA((PyArrayObject *)arctan), len);
    finish(np, KIND_LOG, 1.0, PyArray_DATA((PyArrayObject *)log1p), len);
    sum = total(np, v, n);
    Py_END_ALLOW_THREADS
    return Py_BuildValue("(NNd)", arctan, log1p, sum);
}

PyDoc_STRVAR(total_doc, "total(a[, b]) -> float\n\n"
"np.add.reduce(a) of the C-contiguous float64 vector a, summed by numpy's own\n"
"add loop; given b, a vector of a's length, that of the squares d = a - b;\n"
"d *= d, formed in scratch freed before the call returns.  Raises no numpy\n"
"floating-point warning.");

static PyObject *total_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const struct numpy_loops *np = PyModule_GetState(self);
    PyArrayObject *a, *b = NULL;
    double *v, *squares = NULL, sum;
    npy_intp n;

    if (nargs != 1 && nargs != 2) {
        PyErr_Format(PyExc_TypeError, "total takes 1 or 2 arguments, got %zd", nargs);
        return NULL;
    }
    if ((a = as_array(args[0], "a", 1)) == NULL
        || (nargs == 2 && (b = as_array(args[1], "b", 1)) == NULL))
        return NULL;
    v = PyArray_DATA(a), n = PyArray_DIM(a, 0);
    if (b != NULL) {
        if (PyArray_DIM(b, 0) != n) {
            PyErr_SetString(PyExc_ValueError, "a and b must have one length");
            return NULL;
        }
        if ((squares = scratch(n, 1)) == NULL)
            return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    if (squares != NULL)
        cncflsa_squares(v, PyArray_DATA(b), n, squares), v = squares;
    sum = total(np, v, n);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(squares);
    return PyFloat_FromDouble(sum);
}

static PyMethodDef methods[] = {
    {"tvd", (PyCFunction)(void (*)(void))tvd, METH_FASTCALL, tvd_doc},
    {"penalty_map", (PyCFunction)(void (*)(void))penalty_map, METH_FASTCALL, penalty_map_doc},
    {"mm_solve", (PyCFunction)(void (*)(void))mm_solve, METH_FASTCALL, mm_solve_doc},
    {"all_finite", (PyCFunction)(void (*)(void))all_finite, METH_FASTCALL, all_finite_doc},
    {"soft_threshold", (PyCFunction)(void (*)(void))soft_threshold, METH_FASTCALL,
     soft_threshold_doc},
    {"shifted_input", (PyCFunction)(void (*)(void))shifted_input, METH_FASTCALL,
     shifted_input_doc},
    {"loops", (PyCFunction)(void (*)(void))loops, METH_FASTCALL, loops_doc},
    {"total", (PyCFunction)(void (*)(void))total_entry, METH_FASTCALL, total_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{Py_mod_exec, module_exec}, {0, NULL}};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT, "_kernels", "The compiled kernels of cncflsa; see _kernels.c.",
    sizeof(struct numpy_loops), methods, slots, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModuleDef_Init(&kernels_module);
}
