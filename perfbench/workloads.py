"""The three benchmark workloads, their oracles and their output digests.

Each workload is a closed loop with one caller.  ``op(stream)`` is the timed
operation; ``warm_up(seed)`` runs before timing, fills caches and evaluates
the fixed seeded set behind ``mc_sd``; ``check(result)`` compares one result
with an independent oracle that ``prepare_oracle(seed)`` computes outside the
timed region.  Only the public library API is called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass

from bdbridge.cli import load_shigellosis
from bdbridge.filters import bootstrap_filter, igbs_filter_loglik
from bdbridge.inference import GridSpec, SearchConfig, fit_mle
from bdbridge.likelihood import choose_bset, estimate_pij
from bdbridge.models import SIRParams, SISParams, sis_model
from bdbridge.reference import generator_transition
from bdbridge.sampler import RngStream

#: Seed of the fixed evaluation set behind ``mc_sd``; it never follows
#: ``--seed``, so ``mc_sd`` repeats exactly for unchanged code.
MC_SEED = 2022
#: Published maximum-likelihood point for the Shigellosis record and its 95%
#: profile intervals.
MLE_BETA, MLE_GAMMA = 0.0016, 0.2607
PUBLISHED_CI_BETA = (0.0011, 0.0024)
PUBLISHED_CI_GAMMA = (0.1624, 0.4032)
I0 = 1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    filter_m: int = 10_000
    filter_mc_evals: int = 16
    boot_particles: int = 100_000
    transprob_n: int = 1 << 18
    pilot_n: int = 4096
    fit_steps: int = 5
    fit_refinements: int = 2
    fit_m: int = 2000
    fit_mc_evals: int = 20


FULL = Sizes()
TINY = Sizes(filter_m=200, filter_mc_evals=3, boot_particles=2000,
             transprob_n=2048, pilot_n=256, fit_steps=3, fit_refinements=1,
             fit_m=100, fit_mc_evals=3)


def digest(values) -> str:
    """SHA-256 prefix of the values written at 17 significant digits."""
    text = ",".join(format(float(v), ".17g") for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_stream(seed: int, k: int) -> RngStream:
    return RngStream(seed, (0, k))


def _span(tracer, name: str):
    """A benchmark-side span around a call into the library, if tracing."""
    return nullcontext({}) if tracer is None else tracer.span(name)


class FilterShigellosis:
    """One bridge-filter log-likelihood pass on the bundled record."""

    name = "filter-shigellosis"
    threads = 1
    warm_up_replays_op0 = False
    mc_target = 0.05  # nat

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self) -> None:
        self.obs = load_shigellosis()
        self.params = SIRParams(n0=int(self.obs.susceptibles[0]) + I0,
                                beta=MLE_BETA, gamma=MLE_GAMMA)

    def op(self, stream: RngStream, tracer=None) -> float:
        with _span(tracer, "filters.igbs_filter_loglik"):
            return igbs_filter_loglik(self.params, self.obs, I0,
                                      self.sizes.filter_m, stream)

    def values(self, result: float) -> list[float]:
        return [result]

    def paths(self, result: float) -> int:
        return self.sizes.filter_m * self.obs.steps

    def warm_up(self, seed: int) -> tuple[list[float], list[float]]:
        """The fixed set: (results to check, log-likelihoods for mc_sd)."""
        lls = [self.op(RngStream(MC_SEED, k)) for k in range(self.sizes.filter_mc_evals)]
        return lls, lls

    @staticmethod
    def mc_sd(samples: list[float]) -> float:
        return statistics.stdev(samples)

    def prepare_oracle(self, seed: int) -> None:
        boot = bootstrap_filter(self.params, self.obs, self.sizes.boot_particles,
                                0.001, RngStream(seed, (1,)), i0=I0)
        self.reference = boot.loglik
        self.reference_ok = not boot.failed and math.isfinite(boot.loglik)

    def check(self, result: float) -> str | None:
        if not self.reference_ok:
            return f"bootstrap oracle failed ({self.reference})"
        if not math.isfinite(result):
            return f"non-finite log-likelihood {result}"
        if abs(result - self.reference) > 1.0:
            return f"|{result:.4f} - bootstrap {self.reference:.4f}| > 1 nat"
        return None


class TransprobRare:
    """The rare-event termination table: I0 = 10, 20, 30 -> 0 on SIS."""

    name = "transprob-rare"
    threads = 1
    warm_up_replays_op0 = False
    mc_target = 0.01  # 1% relative standard error, i.e. 0.01 nat of log p
    starts = (10, 20, 30)
    n_states = 30
    #: Every estimate must lie within this many of its own standard errors of
    #: the exact value.  About 3k comparisons are made per benchmark campaign,
    #: so 5 keeps chance alarms rare while any bias above 5% at the 1% relative
    #: error of these estimates still fails.
    z_max = 5.0

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self) -> None:
        self.model = sis_model(SISParams(n0=self.n_states, beta=0.03, gamma=1.0))

    def op(self, stream: RngStream, tracer=None) -> list[tuple[int, int, object]]:
        out = []
        for i0 in self.starts:
            with _span(tracer, "likelihood.choose_bset") as info:
                bset = choose_bset(i0, 0, self.model, 1.0, 1e-4, stream.child(i0, 0),
                                   pilot_n=self.sizes.pilot_n)
                info["bset_size"] = len(bset)
            with _span(tracer, "likelihood.estimate_pij"):
                est = estimate_pij(self.model, i0, 0, 1.0, bset, self.sizes.transprob_n,
                                   stream.child(i0, 1), threads=1)
            out.append((i0, len(bset), est))
        return out

    def values(self, result) -> list[float]:
        return [v for i0, size, est in result
                for v in (i0, size, est.value, est.std_error, est.log_value)]

    def paths(self, result) -> int:
        """Pilot replicates (pilot_n per kept up-jump count) plus main ones."""
        return sum(size * self.sizes.pilot_n + est.n for _, size, est in result)

    def warm_up(self, seed: int):
        result = self.op(RngStream(MC_SEED, 0))
        return [result], [est.std_error / est.value for _, _, est in result]

    @staticmethod
    def mc_sd(samples: list[float]) -> float:
        # A relative standard error is the standard error of log p, in nats.
        return statistics.fmean(samples)

    def prepare_oracle(self, seed: int) -> None:
        self.exact = {i0: generator_transition(self.model, i0, 0, 1.0,
                                               n_states=self.n_states)
                      for i0 in self.starts}

    def check(self, result) -> str | None:
        for i0, _, est in result:
            if not (math.isfinite(est.log_value) and est.value > 0 and est.std_error > 0):
                return f"I0={i0}: degenerate estimate {est}"
            z = (est.value - self.exact[i0]) / est.std_error
            if abs(z) > self.z_max:
                return f"I0={i0}: {est.value:.6e} vs exact {self.exact[i0]:.6e} (z={z:.2f})"
        return None


class FitGrid:
    """One grid maximum-likelihood fit of (beta, gamma) on the record."""

    name = "fit-grid"
    threads = 2
    #: The warm-up runs op 0 at one thread; the timed op 0 must match it exactly.
    warm_up_replays_op0 = True
    mc_target = 0.05  # nat, per surface cell

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self) -> None:
        self.obs = load_shigellosis()
        steps = self.sizes.fit_steps
        self.config = SearchConfig(beta=GridSpec(0.0008, 0.0028, steps),
                                   gamma=GridSpec(0.10, 0.45, steps),
                                   refinements=self.sizes.fit_refinements,
                                   replications=1, threads=self.threads)

    def op(self, stream: RngStream, tracer=None, threads: int | None = None):
        config = self.config
        if threads is not None:
            config = dataclasses.replace(config, threads=threads)
        with _span(tracer, "inference.fit_mle"):
            return fit_mle(self.obs, config, self.sizes.fit_m, stream, i0=I0)

    def values(self, fit) -> list[float]:
        return [fit.beta_hat, fit.gamma_hat, *fit.ci_beta, *fit.ci_gamma, fit.r0,
                fit.loglik_max, float(fit.boundary_warning),
                *fit.surface.mean.ravel()]

    def paths(self, fit) -> int:
        cells = (self.config.beta.steps * self.config.gamma.steps
                 * self.config.refinements * self.config.replications)
        return cells * self.sizes.fit_m * self.obs.steps

    def warm_up(self, seed: int):
        """Op 0 at one thread (compared with the timed op 0 at two threads),
        then the fixed set of single-cell filter runs behind mc_sd."""
        single = self.op(op_stream(seed, 0), threads=1)
        params = SIRParams(n0=int(self.obs.susceptibles[0]) + I0,
                           beta=MLE_BETA, gamma=MLE_GAMMA)
        lls = [igbs_filter_loglik(params, self.obs, I0, self.sizes.fit_m,
                                  RngStream(MC_SEED, k))
               for k in range(self.sizes.fit_mc_evals)]
        return [single], lls

    @staticmethod
    def mc_sd(samples: list[float]) -> float:
        return statistics.stdev(samples)

    def prepare_oracle(self, seed: int) -> None:
        pass

    def check(self, fit) -> str | None:
        """The fit and the published one must each lie in the other's 95% intervals.

        Tighter point ranges (acceptance 6: beta_hat in [0.0013, 0.0019],
        gamma_hat in [0.21, 0.31], R0 within 0.10 of 1.24) hold only for its
        13x13 grid with 5 replicates at m = 10^4.  Here the estimate can only
        land on a coarser grid, and one m = 2000 replicate per cell (~0.16 nat
        of noise) moves the argmax between neighbouring points of the
        (beta, gamma) ridge, e.g. (0.0018, 0.275) with R0 1.30 and
        (0.001425, 0.209) with R0 1.35.  R0 is therefore not checked.
        """
        if not all(math.isfinite(v) for v in self.values(fit)):
            return "non-finite fit output"
        problems = []
        if not PUBLISHED_CI_BETA[0] <= fit.beta_hat <= PUBLISHED_CI_BETA[1]:
            problems.append(f"beta_hat {fit.beta_hat} outside {PUBLISHED_CI_BETA}")
        if not PUBLISHED_CI_GAMMA[0] <= fit.gamma_hat <= PUBLISHED_CI_GAMMA[1]:
            problems.append(f"gamma_hat {fit.gamma_hat} outside {PUBLISHED_CI_GAMMA}")
        if not fit.ci_beta[0] <= MLE_BETA <= fit.ci_beta[1]:
            problems.append(f"beta interval {fit.ci_beta} misses {MLE_BETA}")
        if not fit.ci_gamma[0] <= MLE_GAMMA <= fit.ci_gamma[1]:
            problems.append(f"gamma interval {fit.ci_gamma} misses {MLE_GAMMA}")
        return "; ".join(problems) or None


WORKLOADS = {w.name: w for w in (FilterShigellosis, TransprobRare, FitGrid)}


def make(name: str, sizes: Sizes = FULL):
    return WORKLOADS[name](sizes)
