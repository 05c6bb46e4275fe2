"""Reference Poisson sampler, the oracle for the package's lane sampler.

It draws one count at a time from numpy's own Generator(PCG64(SeedSequence(
seed, spawn_key=(i,)))), so it shares no seeding or stream code with the
package, with the package's documented algorithm pair written out on
Python floats: CDF inversion below a mean of 30 and PTRS (Hoermann 1993)
from 30 up.  The package's counts must equal these bit for bit.
"""
import math

import numpy as np

PTRS_SWITCH = 30.0


def generator(seed, path):
    """numpy's Generator for a root seed plus a spawn path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def poisson_inversion(mean, rng):
    """Sequential-search inversion of one uniform; exact, O(mean) per draw."""
    u = rng.random()
    p = math.exp(-mean)
    cdf = p
    k = 0
    # the 10-sigma cap only guards against floating-point stall when u
    # lands on accumulated rounding error
    cap = int(mean + 10.0 * math.sqrt(mean) + 20.0)
    while u > cdf and k < cap:
        k += 1
        p *= mean / k
        cdf += p
    return k


def poisson_ptrs(mean, rng):
    """Transformed rejection with squeeze (PTRS); ~1.1 uniforms per draw."""
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v * inv_alpha / (a / (us * us) + b))
                <= k * math.log(mean) - mean - math.lgamma(k + 1.0)):
            return int(k)


def poisson_draw(mean, rng):
    """One draw for a float mean; a zero mean takes no uniform."""
    if mean == 0.0:
        return 0
    if mean < PTRS_SWITCH:
        return poisson_inversion(mean, rng)
    return poisson_ptrs(mean, rng)


def poisson_counts(means, seed):
    """Point i's count drawn from generator(seed, (i,)), as a list of ints."""
    return [poisson_draw(mu, generator(seed, (i,))) for i, mu in enumerate(means)]
