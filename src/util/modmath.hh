/**
 * @file
 * Modular arithmetic, primality, and primitive-root utilities, plus
 * an exact floating-point remainder.
 *
 * These are the number-theoretic building blocks for the PDDL base
 * permutation constructions (Bose's construction needs a primitive
 * root of a prime modulus) and for the PRIME layout (multiplier
 * development over Z_n with n prime).
 */

#ifndef PDDL_UTIL_MODMATH_HH
#define PDDL_UTIL_MODMATH_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pddl {

/** Non-negative remainder of a mod m (m > 0), correct for negative a. */
inline int64_t
floorMod(int64_t a, int64_t m)
{
    int64_t r = a % m;
    return r < 0 ? r + m : r;
}

/**
 * std::fmod(x, y), bit for bit, without the library call when
 * x >= 0, y > 0 and x / y < 2^52.
 *
 * An fmod result is always representable, and fma rounds once, so
 * fma(-n, y, x) is that result exactly when n = floor(x / y). The
 * correctly rounded quotient never falls below a whole number the
 * exact one reaches, and inside 2^52 it is off by less than one, so
 * its truncation is floor(x / y) or one more; one more shows as a
 * negative remainder. Negative or non-finite arguments take
 * std::fmod, and so do quotients of 2^52 or more: a margin below
 * 2^53, where n - 1 stops being exact.
 */
inline double
fmodExact(double x, double y)
{
    constexpr double kExactQuotient = 4503599627370496.0; // 2^52
    const double quotient = x / y;
    if (!(x >= 0.0 && y > 0.0 && y < HUGE_VAL &&
          quotient < kExactQuotient))
        return std::fmod(x, y);
    // Truncation, not floor(): no libm call on baseline x86-64.
    const double n =
        static_cast<double>(static_cast<int64_t>(quotient));
    const double r = std::fma(-n, y, x);
    return r < 0.0 ? std::fma(-(n - 1.0), y, x) : r;
}

/**
 * Adds `term` to `sum` when one double is the rounded sum of `sum`
 * and every value within `error` of `term`; returns false and leaves
 * `sum` as it was when that cannot be shown. Needs
 * |sum| >= |term| and error >= 0.
 *
 * s = sum + term, and residual = term - (s - sum) is exact (Fast2Sum
 * under that precondition), so sum + term == s + residual. Any t
 * within `error` of `term` puts sum + t within |residual| + error of
 * s; below half the gap from s to its nearer neighbour (ulp(s) / 2,
 * or ulp(s) / 4 when s is a power of two, whose lower gap is half as
 * wide) that sum rounds to s. Both sides of the test are rounded
 * sums of non-negative values and the half gap is a power of two, so
 * the rounded test never passes where the exact one fails. A tie
 * fails, and so does a subnormal, infinite or NaN s.
 */
inline bool
addCertified(double &sum, double term, double error)
{
    constexpr uint64_t kExponentBits = 0x7ff0000000000000ULL;
    constexpr uint64_t kFractionBits = 0x000fffffffffffffULL;
    const double s = sum + term;
    const double residual = term - (s - sum);
    const uint64_t bits = std::bit_cast<uint64_t>(s);
    // 2^floor(log2 |s|), from the exponent field alone.
    const double binade = std::bit_cast<double>(bits & kExponentBits);
    const double half_gap =
        binade * ((bits & kFractionBits) != 0 ? 0x1p-53 : 0x1p-54);
    if (!(std::fabs(residual) + error < half_gap))
        return false;
    sum = s;
    return true;
}

/** (a * b) mod m without overflow for m < 2^31. */
inline int64_t
mulMod(int64_t a, int64_t b, int64_t m)
{
    return (a % m) * (b % m) % m;
}

/** (base ^ exp) mod m by binary exponentiation. exp >= 0, m > 0. */
int64_t powMod(int64_t base, int64_t exp, int64_t m);

/** Greatest common divisor (non-negative result). */
int64_t gcd(int64_t a, int64_t b);

/** Deterministic primality test (trial division; n is array-sized). */
bool isPrime(int64_t n);

/** Prime factorization as (prime, multiplicity) pairs, ascending. */
std::vector<std::pair<int64_t, int>> factorize(int64_t n);

/**
 * True iff n = p^e for a prime p and e >= 1; if so, reports p and e.
 *
 * @param n value to test, n >= 2
 * @param prime_out receives p when non-null
 * @param exp_out receives e when non-null
 */
bool isPrimePower(int64_t n, int64_t *prime_out = nullptr,
                  int *exp_out = nullptr);

/**
 * Smallest primitive root modulo a prime p.
 *
 * A primitive root generates the full multiplicative group Z_p^*,
 * which is exactly what Bose's construction distributes round-robin
 * into the stripe blocks.
 *
 * @return the smallest primitive root, or -1 if p is not prime.
 */
int64_t primitiveRoot(int64_t p);

/** Multiplicative order of a modulo m (gcd(a, m) must be 1). */
int64_t multiplicativeOrder(int64_t a, int64_t m);

/** Modular inverse of a mod prime p (a not divisible by p). */
int64_t invModPrime(int64_t a, int64_t p);

} // namespace pddl

#endif // PDDL_UTIL_MODMATH_HH
