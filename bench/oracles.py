"""Reference computations for the benchmark's correctness checks.

Nothing in this module imports bvm. Each function recomputes a quantity
from its definition with numpy and scipy: closed forms, quadrature, or a
Monte Carlo estimate drawn from the benchmark's own generator. The checks
in ``workloads.py`` compare the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats


def normal_diff_mass(mu_m, sd_m, mu_d, sd_d, eps):
    """P(|X - Y| <= eps) for independent X ~ N(mu_m, sd_m), Y ~ N(mu_d, sd_d)."""
    mu, sd = mu_m - mu_d, math.hypot(sd_m, sd_d)
    return float(stats.norm.cdf((eps - mu) / sd) - stats.norm.cdf((-eps - mu) / sd))


def soft_exponential_mean(mu, sd, eps_prime, lam):
    """E[w(|D|)] for D ~ N(mu, sd) and w(f) = 1 if f <= eps' else exp(-lam (f - eps')).

    The flat middle is a cdf difference; each exponential tail is one
    ``scipy.integrate.quad`` over a half line.
    """
    pdf = stats.norm(mu, sd).pdf
    middle = stats.norm.cdf(eps_prime, mu, sd) - stats.norm.cdf(-eps_prime, mu, sd)
    right = integrate.quad(lambda d: math.exp(-lam * (d - eps_prime)) * pdf(d), eps_prime, math.inf)[0]
    left = integrate.quad(lambda d: math.exp(-lam * (-d - eps_prime)) * pdf(d), -math.inf, -eps_prime)[0]
    return float(middle + right + left)


def student_t_mass(loc, dof, scale, lo, hi):
    """Student-t probability of [lo, hi]; zero for an empty interval."""
    if hi <= lo:
        return 0.0
    return float(stats.t.cdf(hi, dof, loc, scale) - stats.t.cdf(lo, dof, loc, scale))


def student_t_soft_mass(model_mean, loc, dof, scale, eps_prime, lam):
    """E[w(|model_mean - mu|)] for mu ~ t(dof, loc, scale), w as in soft_exponential_mean."""
    pdf = stats.t(dof, loc, scale).pdf
    lo, hi = model_mean - eps_prime, model_mean + eps_prime
    middle = student_t_mass(loc, dof, scale, lo, hi)
    right = integrate.quad(lambda m: math.exp(-lam * (m - hi)) * pdf(m), hi, math.inf, epsabs=1e-12)[0]
    left = integrate.quad(lambda m: math.exp(-lam * (lo - m)) * pdf(m), -math.inf, lo, epsabs=1e-12)[0]
    return float(middle + right + left)


def dirichlet_distance_mc(model_masses, counts, eps, r, seed):
    """Share of Dirichlet(counts + 1) draws q with sum |model - q| <= eps."""
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.asarray(counts, dtype=float) + 1.0, r)
    dist = np.sum(np.abs(np.asarray(model_masses) - draws), axis=1)
    return float(np.mean(dist <= eps))


def area_bootstrap_mc(xm, xd, eps, r, seed):
    """Share of data resamples whose ECDF area to the model sample is <= eps.

    Uses the sorted-sample transport identity: for equal sample sizes the
    area between two ECDFs is the mean absolute difference of the sorted
    samples.
    """
    xm, xd = np.sort(np.asarray(xm, dtype=float)), np.asarray(xd, dtype=float)
    if xm.size != xd.size:
        raise ValueError("the transport identity needs equal sample sizes")
    rng = np.random.default_rng(seed)
    resampled = np.sort(xd[rng.integers(0, xd.size, (r, xd.size))], axis=1)
    area = np.mean(np.abs(resampled - xm), axis=1)
    return float(np.mean(area <= eps))


def hellinger(p, q):
    """Hellinger distance with H^2 = 1 - sum_i sqrt(p_i q_i)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return math.sqrt(max(0.0, 1.0 - float(np.sum(np.sqrt(p * q)))))


def power_product_interval(model_mean, model_std, data_loc, data_dof, data_scale, alpha, alpha_hat):
    """Two-sided power product with central intervals, normal model, Student-t data."""
    data = stats.t(data_dof, data_loc, data_scale)
    model = stats.norm(model_mean, model_std)
    d_lo, d_hi = data.ppf(alpha / 2.0), data.ppf(1.0 - alpha / 2.0)
    m_lo, m_hi = model.ppf(alpha_hat / 2.0), model.ppf(1.0 - alpha_hat / 2.0)
    return float((model.cdf(d_hi) - model.cdf(d_lo)) * (data.cdf(m_hi) - data.cdf(m_lo)))


def intervals_mass(cdf, intervals):
    """Probability of a union of disjoint closed intervals under a cdf."""
    return float(sum(cdf(hi) - cdf(lo) for lo, hi in intervals))


def linear_gaussian_log_evidence(design, prior_mean, prior_std, sigma, y):
    """log N(y; D mu0, sigma^2 I + D diag(s0^2) D^T): the evidence of a linear
    model with an independent normal prior and Gaussian noise."""
    design = np.asarray(design, dtype=float)
    cov = sigma**2 * np.eye(design.shape[0]) + design @ np.diag(np.square(prior_std)) @ design.T
    return float(stats.multivariate_normal.logpdf(y, design @ np.asarray(prior_mean), cov))


def oscillator(theta, x):
    """y(x; a,b,c,d,f,g) = a + b x exp(-c cos(d x)) + f sin(g x), one row per theta."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    a, b, c, d, f, g = (theta[:, i, None] for i in range(6))
    return a + b * x * np.exp(-c * np.cos(d * x)) + f * np.sin(g * x)


def oscillator_mean_error_mc(params, sigmas, data_mean, data_std, tol, x, n, seed, block=10_000):
    """Share of (model path, data path) pairs with mean |model - data| <= tol.

    Model paths come from theta ~ N(params, sigmas) (sigmas None: theta
    fixed); data paths are data_mean plus independent N(0, data_std) noise.
    """
    rng = np.random.default_rng(seed)
    params = np.asarray(params, dtype=float)
    hits = 0
    for start in range(0, n, block):
        m = min(block, n - start)
        theta = np.tile(params, (m, 1))
        if sigmas is not None:
            theta = theta + np.asarray(sigmas) * rng.standard_normal((m, params.size))
        model = oscillator(theta, x)
        data = data_mean + data_std * rng.standard_normal((m, x.size))
        hits += int(np.sum(np.mean(np.abs(model - data), axis=1) <= tol))
    return hits / n


def binomial_se(p, n):
    """Standard error of a share of n draws, with p kept off 0 and 1 by 1/n."""
    p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    return math.sqrt(p * (1.0 - p) / n)


def grid_prior(means, sigmas, points=20, span=3.0):
    """Tensor grid of parameter vectors with normalised Gaussian weights.

    Each component gets ``points`` equally spaced values over mean +/- span
    sigmas (a single value when its sigma is None).
    """
    axes, axis_w = [], []
    for mean, sd in zip(means, sigmas if sigmas is not None else [None] * len(means)):
        if sd is None:
            axes.append(np.array([mean]))
            axis_w.append(np.array([1.0]))
        else:
            xs = np.linspace(mean - span * sd, mean + span * sd, points)
            w = np.exp(-0.5 * ((xs - mean) / sd) ** 2)
            axes.append(xs)
            axis_w.append(w / w.sum())
    theta = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    weights = np.prod(np.stack([w.ravel() for w in np.meshgrid(*axis_w, indexing="ij")], axis=1), axis=1)
    return theta, weights / weights.sum()


def polynomial_paths(theta, powers, x):
    """Rows sum_j theta_j x**powers[j]."""
    return np.asarray(theta) @ np.stack([x**p for p in powers])


def gamma_eps_cell(err, max_err, weights, gamma, eps, m):
    """Weight of the paths with at least a gamma share of points within eps
    and no point beyond m * eps; err is |path - data| per point."""
    ok = (np.mean(err <= eps, axis=1) >= gamma) & (max_err <= m * eps)
    return float(np.sum(weights[ok]))
