/* The package's two compiled loops: one Adam update and GELU's gate.

   Each element gets the same IEEE operations, in the same order, as the
   numpy and scipy expressions they replace, so the results are
   bit-identical to them when compiled without FMA contraction
   (-ffp-contract=off) and without -ffast-math. */

#include <math.h>
#include <stddef.h>

/* m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
   p -= lr*(m/bc1) / (sqrt(v/bc2) + eps) */
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

/* erf for real doubles: Stephen L. Moshier's Cephes routine (ndtr.c,
   Cephes Math Library Release 2.8), the one scipy.special.erf evaluates,
   with erfc inlined for the 1 < x < 8 it is called on. Coefficient tables
   and operation order are kept as published; `exp` is libm's. */

static const double P[] = {
    2.46196981473530512524E-10,
    5.64189564831068821977E-1,
    7.46321056442269912687E0,
    4.86371970985681366614E1,
    1.96520832956077098242E2,
    5.26445194995477358631E2,
    9.34528527171957607540E2,
    1.02755188689515710272E3,
    5.57535335369399327526E2,
};

static const double Q[] = {
    /* 1.00000000000000000000E0, */
    1.32281951154744992508E1,
    8.67072140885989742329E1,
    3.54937778887819891062E2,
    9.75708501743205489753E2,
    1.82390916687909736289E3,
    2.24633760818710981792E3,
    1.65666309194161350182E3,
    5.57535340817727675546E2,
};

static const double T[] = {
    9.60497373987051638749E0,
    9.00260197203842689217E1,
    2.23200534594684319226E3,
    7.00332514112805075473E3,
    5.55923013010394962768E4,
};

static const double U[] = {
    /* 1.00000000000000000000E0, */
    3.35617141647503099647E1,
    5.21357949780152679795E2,
    4.59432382970980127987E3,
    2.26290000613890934246E4,
    4.92673942608635921086E4,
};

/* coef[0]*x^N + ... + coef[N] */
static double polevl(double x, const double coef[], int N)
{
    double ans = *coef++;
    int i = N;
    do
        ans = ans * x + *coef++;
    while (--i);
    return ans;
}

/* Like polevl, with an implied leading coefficient of 1.0. */
static double p1evl(double x, const double coef[], int N)
{
    double ans = x + *coef++;
    int i = N - 1;
    do
        ans = ans * x + *coef++;
    while (--i);
    return ans;
}

static double cephes_erf(double x)
{
    double z;

    if (isnan(x))
        return NAN;
    if (x < 0.0)
        return -cephes_erf(-x);
    if (x <= 1.0) {
        z = x * x;
        return x * polevl(z, T, 4) / p1evl(z, U, 5);
    }
    if (x < 8.0) /* 1 - erfc(x), erfc(x) = exp(-x*x) P(x)/Q(x) */
        return 1.0 - exp(-x * x) * polevl(x, P, 8) / p1evl(x, Q, 8);
    /* Exact: from 8 on, erfc(x) <= erfc(8) ~ 1.1e-29 is below 2^-54, half
       the spacing of doubles just under 1.0, so 1.0 - erfc(x) rounds to
       1.0 whatever Cephes's x >= 8 branch returns. +inf lands here too. */
    return 1.0;
}

/* GELU's gate: cdf = 0.5*(1 + erf(pre/sqrt(2))), the standard normal CDF
   of `pre`, and act = pre*cdf. */
void gelu_forward(const double *restrict pre, double *restrict cdf, double *restrict act, size_t n)
{
    const double sqrt2 = 1.41421356237309504880; /* np.sqrt(2.0) */
    for (size_t i = 0; i < n; i++) {
        const double x = pre[i];
        const double c = 0.5 * (1.0 + cephes_erf(x / sqrt2));
        cdf[i] = c;
        act[i] = x * c;
    }
}
