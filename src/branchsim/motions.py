"""The six concrete Markov motions and their eigendata.

Every motion exposes one exact-in-distribution sampler, ``step_many``, that
moves an array of encoded states over an array (or scalar) of durations, with
no Euler discretization. It draws through ``parallel.Streams``, so the engine
can move the particles of several replica blocks in one call, each block
drawing from its own stream; a plain Generator serves as one stream. States
are encoded as float64 values with NaN for absorption; ``encode`` and
``decode`` convert to and from the public state types, and the scalar
``step`` is a one-element call of ``step_many``.

* ``ErgodicCTMC``      -- finite irreducible chain, uniformization: a
                          Poisson(q dt) number of jumps of I + Q/q.
* ``GaltonWatson``     -- subcritical continuous-time GW chain, jump rates
                          q(x, x+y) = x * rho(y), absorbed at 0; masked
                          vector Gillespie.
* ``ContactProcessModT`` -- subcritical contact process on Z^d modulo
                          translations, absorbed at the empty set; canonical
                          configurations are interned to integer ids with
                          memoized event tables.
* ``KilledOU``         -- recurrent OU with drift -lam, killed at 0; sampled
                          through the Brownian time change tau(t) =
                          (e^{2 lam t} - 1) / (2 lam) plus the Brownian-bridge
                          minimum correction (exact, no path discretization).
* ``TransientOU``      -- OU with outward drift +lam x, no absorption.
* ``KilledDriftBM``    -- Brownian motion with drift -c killed at 0; free
                          Gaussian endpoint plus bridge-survival acceptance
                          1 - exp(-2 x y / t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import EigenData
from .errors import ConfigurationError
from .parallel import Streams
from .states import ABSORBED, canonicalize, is_absorbed
from .testsets import FiniteSet, Interval, Predicate

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / _SQRT2PI


def _norm_cdf(z):
    from scipy.special import erfc

    return 0.5 * erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


class MotionModel:
    """Base interface: exact transition sampling plus eigendata."""

    # the code of a state is its own numeric value (test sets compare codes
    # directly); false where codes are interned ids
    codes_are_values = True

    def step(self, x, dt, rng):
        """State at time dt of a path started at x; ABSORBED if killed in (0, dt]."""
        if is_absorbed(x):
            raise ConfigurationError("cannot step an absorbed state")
        if not dt > 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        return self.decode(self.step_many(np.array([self.encode(x)]), dt, rng))[0]

    def step_many(self, xs, dt, rng):
        """Encoded states after independent moves of duration dt (scalar or an
        array shaped like xs) of the 1-d array xs; NaN in and out marks
        absorption. rng is a Generator or Streams over xs."""
        raise NotImplementedError

    def encode(self, x) -> float:
        """Float64 code of a non-absorbed public state."""
        return float(x)

    def decode(self, values) -> list:
        """Public states of encoded values; NaN decodes to ABSORBED."""
        values = np.asarray(values, dtype=float)
        alive = ~np.isnan(values)
        if alive.all():
            return self._decode_live(values)
        out = [ABSORBED] * len(values)
        for i, state in zip(np.flatnonzero(alive), self._decode_live(values[alive])):
            out[i] = state
        return out

    def _decode_live(self, values):
        return values.tolist()

    def transition_density(self, x, y, t):
        """Sub-probability transition density, or None when unavailable."""
        if is_absorbed(x) or is_absorbed(y):
            raise ConfigurationError("transition density requires non-absorbed states")
        if not t > 0:
            raise ConfigurationError(f"t must be > 0, got {t}")
        return self._transition_density(x, y, t)

    def eigen_data(self) -> EigenData:
        raise NotImplementedError

    def validate_state(self, x):
        raise NotImplementedError

    # hooks consumed through EigenData -----------------------------------
    def _transition_density(self, x, y, t):
        return None

    def _nu_mass(self, test_set):
        raise ConfigurationError(f"{type(self).__name__}: nu is not known in closed form")

    def _nu_density(self, state):
        return None

    def _p(self, t):
        return 1.0

    def _h_many(self, values):
        return np.array([0.0 if is_absorbed(s) else self._h(s) for s in self.decode(values)])

    def _m2_martingale(self, x0, t):
        raise ConfigurationError(f"{type(self).__name__}: E[M_t^2] is not available")


# ---------------------------------------------------------------------------
# ergodic finite-state chain (lambda = 0, h = 1, nu = stationary law)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicCTMC(MotionModel):
    """Irreducible finite-state chain with rate matrix Q; no absorption."""

    Q: np.ndarray

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=float)
        problems = []
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            problems.append("Q must be square")
        else:
            n = Q.shape[0]
            off = Q - np.diag(np.diag(Q))
            if np.any(off < -1e-12):
                problems.append("off-diagonal rates must be >= 0")
            if np.any(np.abs(Q.sum(axis=1)) > 1e-9):
                problems.append("Q rows must sum to 0")
            if not self._is_irreducible(off):
                problems.append("Q must be irreducible")
        if problems:
            raise ConfigurationError(*problems)
        object.__setattr__(self, "Q", Q)
        rate = float(np.max(-np.diag(Q))) or 1.0  # any q > 0 serves when Q = 0
        jump_cdf = np.cumsum(np.eye(Q.shape[0]) + Q / rate, axis=1)
        jump_cdf[:, -1] = 1.0
        object.__setattr__(self, "_rate", rate)
        object.__setattr__(self, "_jump_cdf", jump_cdf)

    @staticmethod
    def _is_irreducible(off):
        n = off.shape[0]
        adj = off > 0
        reach = np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (reach @ adj)
        return bool(reach.all())

    @classmethod
    def default_example(cls):
        """Fixed 5-state test bed with a fully analytic stationary law."""
        Q = [
            [-1.0, 0.6, 0.2, 0.1, 0.1],
            [0.3, -1.0, 0.4, 0.2, 0.1],
            [0.1, 0.3, -0.9, 0.3, 0.2],
            [0.2, 0.2, 0.3, -1.1, 0.4],
            [0.4, 0.1, 0.2, 0.3, -1.0],
        ]
        return cls(Q)

    @property
    def n_states(self):
        return self.Q.shape[0]

    def stationary_distribution(self):
        """Solve pi Q = 0, sum(pi) = 1."""
        n = self.n_states
        A = np.vstack([self.Q.T, np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        return pi

    def validate_state(self, x):
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.n_states):
            raise ConfigurationError(f"state must be an int in [0, {self.n_states}), got {x!r}")

    def step_many(self, xs, dt, rng):
        # uniformization (Jensen 1953): with q = max_i -Q_ii, the chain is the
        # jump chain I + Q/q run at the jump times of a rate-q Poisson process
        xs = np.asarray(xs, dtype=float)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), xs.shape)
        rng = Streams.of(rng, xs.size)
        alive = ~np.isnan(xs)
        state = np.where(alive, xs, 0.0).astype(np.intp)
        jumps = np.zeros(xs.shape, dtype=np.int64)
        jumps[alive] = rng.at(np.flatnonzero(alive)).poisson(self._rate * dt[alive])
        active = np.flatnonzero(jumps)
        while active.size:
            u = rng.at(active).random()
            state[active] = (u[:, None] >= self._jump_cdf[state[active]]).sum(axis=1)
            jumps[active] -= 1
            active = active[jumps[active] > 0]
        return np.where(alive, state, np.nan)

    def _decode_live(self, values):
        return values.astype(np.int64).tolist()

    def _transition_density(self, x, y, t):
        from scipy.linalg import expm

        P = expm(self.Q * t)
        return float(P[int(x), int(y)])

    def eigen_data(self):
        return EigenData(motion=self, lam=0.0)

    def _h(self, state):
        return 1.0

    def _h_many(self, values):
        return np.ones(len(values))

    def _nu_mass(self, test_set):
        pi = self.stationary_distribution()
        return float(sum(pi[s] for s in range(self.n_states) if test_set.contains(s)))

    def _nu_density(self, state):
        # density with respect to counting measure
        return float(self.stationary_distribution()[int(state)])

    def _m2_martingale(self, x0, t):
        return 1.0  # h == 1, lambda == 0


# ---------------------------------------------------------------------------
# subcritical continuous-time Galton-Watson chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaltonWatson(MotionModel):
    """Continuous-time GW chain; rho is the per-individual increment pmf on {-1,0,1,...}."""

    rho: tuple  # ((y, prob), ...)

    def __init__(self, rho):
        rho = tuple((int(y), float(p)) for y, p in rho)
        problems = []
        if any(y < -1 for y, _ in rho):
            problems.append("increments must be >= -1")
        total = sum(p for _, p in rho)
        if abs(total - 1.0) > 1e-12:
            problems.append(f"rho sums to {total}, not 1")
        mean = sum(y * p for y, p in rho)
        if not mean < 0:
            problems.append(f"chain must be subcritical: sum(y * rho(y)) = {mean} >= 0")
        rho_m1 = dict(rho).get(-1, 0.0)
        if not 0.0 < rho_m1 < 1.0:
            problems.append(f"rho(-1) = {rho_m1} must lie in (0, 1)")
        if problems:
            raise ConfigurationError(*problems)
        object.__setattr__(self, "rho", rho)
        cdf = np.cumsum([p for _, p in rho])
        cdf[-1] = 1.0
        object.__setattr__(self, "_increments", np.array([y for y, _ in rho], dtype=np.int64))
        object.__setattr__(self, "_increment_cdf", cdf)

    @property
    def lam(self):
        return -sum(y * p for y, p in self.rho)

    @property
    def sigma_rho2(self):
        return sum(y * y * p for y, p in self.rho)

    def validate_state(self, x):
        if not (isinstance(x, (int, np.integer)) and x >= 1):
            raise ConfigurationError(f"state must be an int >= 1, got {x!r}")

    def step_many(self, xs, dt, rng):
        # masked vector Gillespie: the total jump rate from n is n * sum(rho) = n
        xs = np.asarray(xs, dtype=float)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), xs.shape)
        rng = Streams.of(rng, xs.size)
        alive = ~np.isnan(xs)
        n = np.where(alive, xs, 0.0).astype(np.int64)
        t = np.zeros(xs.shape)
        active = np.flatnonzero(alive)
        while active.size:
            t[active] += rng.at(active).exponential(1.0) / n[active]
            active = active[t[active] <= dt[active]]
            n[active] += self._increments[
                np.searchsorted(self._increment_cdf, rng.at(active).random(), side="right")
            ]
            active = active[n[active] > 0]
        return np.where(n > 0, n, np.nan)

    def _decode_live(self, values):
        return values.astype(np.int64).tolist()

    def eigen_data(self):
        return EigenData(motion=self, lam=self.lam)

    def _h(self, state):
        # h(x) proportional to x, pinned by h(1) = 1
        return float(state)

    def _h_many(self, values):
        return np.nan_to_num(np.asarray(values, dtype=float), nan=0.0)

    def _m2_martingale(self, x0, t):
        # from the moment ODEs: E[M_t^2] = 1 + sigma_rho^2 (e^{lam t} - 1) / (lam x)
        return 1.0 + self.sigma_rho2 * math.expm1(self.lam * t) / (self.lam * float(x0))


# ---------------------------------------------------------------------------
# subcritical contact process on Z^d modulo translations
# ---------------------------------------------------------------------------


def _neighbors(site):
    for i in range(len(site)):
        for s in (-1, 1):
            yield site[:i] + (site[i] + s,) + site[i + 1 :]


def contact_event_rates(config, gamma):
    """All recoveries (rate 1 each) and boundary infections (rate gamma per
    infected neighbor), targets canonicalized and merged by equivalence class."""
    if is_absorbed(config) or not config:
        raise ConfigurationError("configuration must be nonempty")
    rates = {}
    for site in config:
        target = canonicalize(config - {site})
        key = ABSORBED if is_absorbed(target) else target
        rates[key] = rates.get(key, 0.0) + 1.0
    boundary = {}
    for site in config:
        for nb in _neighbors(site):
            if nb not in config:
                boundary[nb] = boundary.get(nb, 0) + 1
    for site, k in boundary.items():
        target = canonicalize(config | {site})
        rates[target] = rates.get(target, 0.0) + gamma * k
    def sort_key(item):
        state = item[0]
        return (0,) if is_absorbed(state) else (1, sorted(state))
    return sorted(rates.items(), key=sort_key)


@dataclass(frozen=True)
class ContactProcessModT(MotionModel):
    """Contact process on Z^d modulo translations; user asserts gamma < gamma_c.

    Neither h nor nu is known in closed form; eigendata carries the surrogate
    h(config) = |config|, correct up to multiplicative constants, and the
    eigenvalue only if the user supplies an estimate.
    """

    d: int
    gamma: float
    lambda_estimate: float = None

    codes_are_values = False  # codes are per-process interned configuration ids

    def __post_init__(self):
        problems = []
        if not (isinstance(self.d, int) and self.d >= 1):
            problems.append(f"dimension must be an int >= 1, got {self.d!r}")
        if not self.gamma > 0:
            problems.append(f"infection rate must be > 0, got {self.gamma}")
        if problems:
            raise ConfigurationError(*problems)
        # interned canonical configurations: id -> config, config -> id, and
        # the memoized event table of each id (None until first needed)
        object.__setattr__(self, "_configs", [])
        object.__setattr__(self, "_ids", {})
        object.__setattr__(self, "_events", [])

    def validate_state(self, x):
        if not (isinstance(x, frozenset) and x):
            raise ConfigurationError(f"state must be a nonempty frozenset of sites, got {x!r}")
        if canonicalize(x) != x:
            raise ConfigurationError("lattice configuration must be canonical")

    def encode(self, x) -> float:
        i = self._ids.get(x)
        if i is None:
            i = len(self._configs)
            self._ids[x] = i
            self._configs.append(x)
            self._events.append(None)
        return float(i)

    def _decode_live(self, values):
        return [self._configs[i] for i in values.astype(np.int64).tolist()]

    def _event_table(self, i):
        """(target codes, cumulative probabilities, total rate) out of config id i."""
        table = self._events[i]
        if table is None:
            events = contact_event_rates(self._configs[i], self.gamma)
            targets = [math.nan if is_absorbed(c) else self.encode(c) for c, _ in events]
            rates = np.array([r for _, r in events])
            total = float(rates.sum())
            cdf = np.cumsum(rates) / total
            cdf[-1] = 1.0
            table = (targets, cdf, total)
            self._events[i] = table
        return table

    def step_many(self, xs, dt, rng):
        # per-particle Gillespie over the memoized event tables; each particle
        # draws scalars from the generator of its block
        xs = np.asarray(xs, dtype=float)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), xs.shape)
        out = xs.copy()
        for gen, lo, hi in Streams.of(rng, xs.size).parts():
            for k in lo + np.flatnonzero(~np.isnan(xs[lo:hi])):
                code, t, limit = xs[k], 0.0, dt[k]
                while True:
                    targets, cdf, total = self._event_table(int(code))
                    t += gen.exponential(1.0 / total)
                    if t > limit:
                        break
                    code = targets[int(np.searchsorted(cdf, gen.random(), side="right"))]
                    if math.isnan(code):
                        break
                out[k] = code
        return out

    def eigen_data(self):
        return EigenData(motion=self, lam=self.lambda_estimate, surrogate=True)

    def _h(self, state):
        return float(len(state))  # surrogate: c1 |z| <= h(z) <= c2 |z|


# ---------------------------------------------------------------------------
# recurrent Ornstein-Uhlenbeck killed at 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KilledOU(MotionModel):
    """dY = -lam Y dt + dB killed at 0, for lam > 0.

    Exact sampling through X_t = e^{-lam t} W_{tau(t)} with W a Brownian
    motion started at x and tau(t) = (e^{2 lam t} - 1) / (2 lam); killing is
    the Brownian first passage at 0, handled by the bridge-minimum
    acceptance probability 1 - exp(-2 x z / tau).
    """

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigurationError(f"drift must be > 0, got {self.lam}")

    def tau(self, t):
        return math.expm1(2.0 * self.lam * t) / (2.0 * self.lam)

    def validate_state(self, x):
        if not (isinstance(x, (int, float)) and x > 0):
            raise ConfigurationError(f"state must be a real > 0, got {x!r}")

    def step_many(self, xs, dt, rng):
        # in-place arithmetic, in the order of z = N(0, 1) sqrt(tau) + x,
        # u < exp(((-2 x) z) / tau) and e^{-lam dt} z: a particle costs a few
        # arrays rather than one per operation, and every bit is kept
        xs = np.asarray(xs, dtype=float)
        dt = np.asarray(dt, dtype=float)
        rng = Streams.of(rng, xs.size)
        tau = np.expm1(2.0 * self.lam * dt)
        tau /= 2.0 * self.lam
        z = rng.normal(0.0, 1.0)
        z *= np.sqrt(tau)
        z += xs  # NaN for an absorbed particle, which is then killed
        u = rng.random()
        killed = ~(z > 0.0)
        with np.errstate(invalid="ignore"):
            a = -2.0 * xs
            a *= z
            a /= tau
        a[killed] = 0.0
        np.exp(a, out=a)
        killed |= u < a
        del u, a, tau
        z *= np.exp(-self.lam * dt)
        z[killed] = np.nan
        return z

    def survival_probability(self, x, t):
        """P_x(X_t > 0) = erf(x / sqrt(2 tau(t)))."""
        from scipy.special import erf

        return float(erf(float(x) / math.sqrt(2.0 * self.tau(t))))

    def _transition_density(self, x, y, t):
        if y <= 0:
            return 0.0
        tau = self.tau(t)
        e = math.exp(-self.lam * t)
        a = x * y / (e * tau)
        # log(sinh(a)) = a + log1p(-e^{-2a}) - log 2, stable for large a
        log_sinh = a + math.log1p(-math.exp(-2.0 * a)) - math.log(2.0)
        log_dens = (
            0.5 * math.log(2.0 / (math.pi * e * e * tau))
            - x * x / (2.0 * tau)
            - y * y / (2.0 * e * e * tau)
            + log_sinh
        )
        return math.exp(log_dens)

    def eigen_data(self):
        return EigenData(motion=self, lam=self.lam)

    def _h(self, state):
        return math.sqrt(4.0 * self.lam / math.pi) * float(state)

    def _h_many(self, values):
        return math.sqrt(4.0 * self.lam / math.pi) * np.nan_to_num(
            np.asarray(values, dtype=float), nan=0.0
        )

    def _nu_mass(self, test_set):
        return _mass_from_density_1d(self, test_set)

    def _nu_density(self, state):
        x = float(state)
        if x <= 0:
            return 0.0
        return 2.0 * self.lam * x * math.exp(-self.lam * x * x)

    def _nu_interval_mass(self, a, b):
        a = max(a, 0.0)
        lo = math.exp(-self.lam * a * a)
        hi = 0.0 if math.isinf(b) else math.exp(-self.lam * b * b)
        return lo - hi

    def _m2_martingale(self, x0, t):
        # killed-BM second moment at the transformed time, divided by x^2:
        # E[M_t^2] = [(x^2 + tau) erf(x / sqrt(2 tau)) + 2 x sqrt(tau) phi(x / sqrt(tau))] / x^2
        from scipy.special import erf

        x = float(x0)
        tau = self.tau(t)
        s = math.sqrt(tau)
        val = (x * x + tau) * erf(x / (s * math.sqrt(2.0))) + 2.0 * x * s * _norm_pdf(x / s)
        return float(val) / (x * x)


# ---------------------------------------------------------------------------
# transient Ornstein-Uhlenbeck (outward drift, no absorption)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientOU(MotionModel):
    """dX = +lam X dt + sigma dB on the whole line; nu is Lebesgue measure."""

    lam: float
    sigma2: float = 1.0

    def __post_init__(self):
        problems = []
        if not self.lam > 0:
            problems.append(f"drift must be > 0, got {self.lam}")
        if not self.sigma2 > 0:
            problems.append(f"dispersion must be > 0, got {self.sigma2}")
        if problems:
            raise ConfigurationError(*problems)

    @property
    def beta(self):
        return self.lam / self.sigma2

    def validate_state(self, x):
        if not isinstance(x, (int, float)):
            raise ConfigurationError(f"state must be a real, got {x!r}")

    def moments(self, x, t):
        mean = float(x) * math.exp(self.lam * t)
        var = self.sigma2 * math.expm1(2.0 * self.lam * t) / (2.0 * self.lam)
        return mean, var

    def step_many(self, xs, dt, rng):
        xs = np.asarray(xs, dtype=float)
        dt = np.asarray(dt, dtype=float)
        var = self.sigma2 * np.expm1(2.0 * self.lam * dt) / (2.0 * self.lam)
        z = Streams.of(rng, xs.size).normal(0.0, 1.0)
        return xs * np.exp(self.lam * dt) + z * np.sqrt(var)

    def _transition_density(self, x, y, t):
        mean, var = self.moments(x, t)
        return float(_norm_pdf((y - mean) / math.sqrt(var))) / math.sqrt(var)

    # ergodic h-transformed dynamics (drift flipped to -lam x): used as an
    # exact sampler for importance-sampling cross-checks
    def tilted_moments(self, x, t):
        mean = float(x) * math.exp(-self.lam * t)
        var = self.sigma2 * -math.expm1(-2.0 * self.lam * t) / (2.0 * self.lam)
        return mean, var

    def tilted_step_many(self, xs, dt, rng):
        xs = np.asarray(xs, dtype=float)
        dt = np.asarray(dt, dtype=float)
        var = self.sigma2 * -np.expm1(-2.0 * self.lam * dt) / (2.0 * self.lam)
        return xs * np.exp(-self.lam * dt) + rng.normal(0.0, 1.0, size=xs.shape) * np.sqrt(var)

    def tilted_density(self, x, y, t):
        mean, var = self.tilted_moments(x, t)
        return float(_norm_pdf((y - mean) / math.sqrt(var))) / math.sqrt(var)

    def eigen_data(self):
        return EigenData(motion=self, lam=self.lam)

    def _h(self, state):
        x = float(state)
        return math.sqrt(self.lam / (math.pi * self.sigma2)) * math.exp(-self.beta * x * x)

    def _h_many(self, values):
        xs = np.asarray(values, dtype=float)
        out = math.sqrt(self.lam / (math.pi * self.sigma2)) * np.exp(-self.beta * xs * xs)
        return np.nan_to_num(out, nan=0.0)

    def _nu_mass(self, test_set):
        if isinstance(test_set, Interval):
            if not test_set.bounded:
                raise ConfigurationError(
                    "nu is Lebesgue measure: unbounded test sets have infinite mass"
                )
            return test_set.b - test_set.a
        if isinstance(test_set, FiniteSet):
            return 0.0
        raise ConfigurationError("transient OU nu requires a bounded interval or an override")

    def _nu_density(self, state):
        return 1.0

    def _m2_martingale(self, x0, t):
        E = math.exp(2.0 * self.lam * t)
        x = float(x0)
        return E / math.sqrt(2.0 * E - 1.0) * math.exp(
            2.0 * self.beta * x * x * (E - 1.0) / (2.0 * E - 1.0)
        )


# ---------------------------------------------------------------------------
# Brownian motion with negative drift killed at 0 (not lambda-positive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KilledDriftBM(MotionModel):
    """dX = -c dt + dB killed at 0; lambda = c^2 / 2 and p(t) = t^{-3/2}."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigurationError(f"drift magnitude must be > 0, got {self.c}")

    @property
    def lam(self):
        return 0.5 * self.c * self.c

    def validate_state(self, x):
        if not (isinstance(x, (int, float)) and x > 0):
            raise ConfigurationError(f"state must be a real > 0, got {x!r}")

    def step_many(self, xs, dt, rng):
        # bridge law is drift-free, so the killing correction is the same
        # 1 - exp(-2 x y / t) as for standard BM
        xs = np.asarray(xs, dtype=float)
        dt = np.asarray(dt, dtype=float)
        rng = Streams.of(rng, xs.size)
        y = xs - self.c * dt + rng.normal(0.0, 1.0) * np.sqrt(dt)
        u = rng.random()
        with np.errstate(invalid="ignore"):
            killed = (y <= 0.0) | (u < np.exp(np.where(y > 0, -2.0 * xs * y / dt, 0.0)))
        out = np.where(killed, np.nan, y)
        out[np.isnan(xs)] = np.nan
        return out

    def survival_probability(self, x, t):
        x = float(x)
        s = math.sqrt(t)
        return float(
            _norm_cdf((x - self.c * t) / s)
            - math.exp(2.0 * self.c * x) * _norm_cdf(-(x + self.c * t) / s)
        )

    def _transition_density(self, x, y, t):
        if y <= 0:
            return 0.0
        pref = math.exp(self.c * x - self.lam * t - self.c * y) / math.sqrt(2.0 * math.pi * t)
        return pref * (
            math.exp(-((x - y) ** 2) / (2.0 * t)) - math.exp(-((x + y) ** 2) / (2.0 * t))
        )

    def eigen_data(self):
        return EigenData(motion=self, lam=self.lam)

    def _h(self, state):
        x = float(state)
        return x * math.exp(self.c * x) / (self.lam * _SQRT2PI)

    def _h_many(self, values):
        xs = np.asarray(values, dtype=float)
        out = xs * np.exp(self.c * xs) / (self.lam * _SQRT2PI)
        return np.nan_to_num(out, nan=0.0)

    def _p(self, t):
        return float(t) ** -1.5

    def _nu_mass(self, test_set):
        return _mass_from_density_1d(self, test_set)

    def _nu_density(self, state):
        x = float(state)
        if x <= 0:
            return 0.0
        return 2.0 * self.lam * x * math.exp(-self.c * x)

    def _nu_interval_mass(self, a, b):
        a = max(a, 0.0)
        lo = (self.c * a + 1.0) * math.exp(-self.c * a)
        hi = 0.0 if math.isinf(b) else (self.c * b + 1.0) * math.exp(-self.c * b)
        return lo - hi

    def _m2_martingale(self, x0, t):
        # E[h^2(X_t)] in closed form via the truncated Gaussian second moment
        # T(a) = E[Y^2 1{Y>0}], Y ~ N(a + c t, t):
        #   E[M_t^2] = e^{2 lam t} [e^{2cx} T(x) - T(-x)] / (x^2 e^{2cx})
        x = float(x0)
        s = math.sqrt(t)

        def trunc_second_moment(a):
            m = a + self.c * t
            return (m * m + t) * float(_norm_cdf(m / s)) + m * s * float(_norm_pdf(m / s))

        num = trunc_second_moment(x) - math.exp(-2.0 * self.c * x) * trunc_second_moment(-x)
        return math.exp(2.0 * self.lam * t) * num / (x * x)


def _mass_from_density_1d(motion, test_set):
    """nu-mass for motions whose nu has a closed-form 1-d density integral."""
    if isinstance(test_set, Interval):
        return motion._nu_interval_mass(test_set.a, test_set.b)
    if isinstance(test_set, FiniteSet):
        return 0.0
    if isinstance(test_set, Predicate):
        raise ConfigurationError("predicate test set needs an explicit nu_mass_override")
    raise ConfigurationError(f"unsupported test set {test_set!r}")
