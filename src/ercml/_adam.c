/* One Adam update over n elements, in one pass.

   Each element gets the same IEEE operations, in the same order, as the
   textbook numpy expressions
       m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
       p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
   so the result is bit-identical to them when compiled without FMA
   contraction (-ffp-contract=off) and without -ffast-math. */

#include <math.h>
#include <stddef.h>

void adam_update(double *restrict p, double *restrict m, double *restrict v, const double *restrict g,
                 size_t n, double b1, double b2, double lr, double bc1, double bc2, double eps)
{
    const double c1 = 1.0 - b1, c2 = 1.0 - b2;
    for (size_t i = 0; i < n; i++) {
        const double gi = g[i];
        const double mi = m[i] * b1 + gi * c1;
        const double vi = v[i] * b2 + (gi * c2) * gi;
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - ((mi / bc1) * lr) / (sqrt(vi / bc2) + eps);
    }
}
