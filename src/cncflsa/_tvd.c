/* Exact 1-D total variation denoising, a line-for-line port of the
 * pure-Python reference cncflsa.prox._tvd_python (its docstring and
 * comments describe the algorithm).  Built with -ffp-contract=off and
 * without -ffast-math, every operation rounds exactly as it does in Python,
 * so the output is bit-identical.  Requires n >= 2 and lam > 0; the caller
 * owns x (n doubles) and work (8 n doubles). */

void cncflsa_tvd(const double *y, long n, double lam, double *x, double *work)
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
