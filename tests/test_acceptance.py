"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Two criteria are limit statements, so their tests check the exact finite-n
law at the checkpoints and the limit through a certified bound, never the
limit value at a finite n, where the exact law rules it out:

* criterion 7b (variance clause of the CLT): the normalized sum converges
  to N(0, 2a), but at finite n its exact variance is
  V_n = a + sum eps_j^2 a_j / sum eps_j^2 = 2a * (1 - Theta(1/log n)); at
  n = 1e4 that is ~1.85a, about 5.6 Monte Carlo standard errors below 2a.
  The test checks the reported exact variance against an oracle computed
  here, the empirical variance against V_n within 3 standard errors, and
  that the deficit 2a - V_n is positive, shrinking and below the analytic
  bound a (zeta(3/2) - 1) / sum_{j=2}^n 1/j (from 1 - e^-x <= x).
* criterion 8a (tail clause): P(|y_n - x_n| > |eps_n|^(-1/2)) < eps_n^4
  holds only eventually.  At n = 100 the two-sided Skellam tail beyond
  ~3.16 is ~1.5e-2 against eps_n^4 = 1e-4; the crossover happens near
  n = 1e4, and the bound is certified beyond n = 28561.  The test checks
  every exact tail against a direct-convolution oracle, each
  ``beats_eps_fourth`` flag against the oracle's comparison, that every
  row at or beyond the certified index beats eps^4, that a ``guaranteed``
  row always beats it, and that the tails decrease in n.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln, zeta

from suspension_lab import cli
from suspension_lab.criteria import (
    Verdict,
    bifurcation_bracket,
    classify,
    hellinger_slope_fit,
    rn_slope_fit,
)
from suspension_lab.dist import (
    SkellamLaw,
    hellinger_sq_poisson,
    poisson_pmf,
    skellam_pmf_row,
    skellam_support_cutoff,
    skellam_tail_bound,
)
from suspension_lab.intensity import IntensityProfile, PowerFamily
from suspension_lab.sampling import RNGSpec
from suspension_lab.simulate import (
    clt_experiment,
    increment_tail_decay,
    log_rn_derivative,
    sample_configuration,
    scan_intensity,
    stopping_time_experiment,
    window_for_shift,
)

HALF = PowerFamily(gamma=0.5, sign=-1)
P1 = IntensityProfile(1.0, HALF)
GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
SEED = RNGSpec(seed=0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- shared expensive runs --------------------------------------------------


@pytest.fixture(scope="module")
def clt_run():
    return clt_experiment(P1, n=10_000, samples=10_000, rng=SEED)


@pytest.fixture(scope="module")
def stopping_run():
    return stopping_time_experiment(P1, r=-2.0, eps=0.1, M=10_000, N=1_000_000,
                                    samples=1_000, rng=SEED)


@pytest.fixture(scope="module")
def scan_run():
    return scan_intensity(P1, [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0],
                          N=64, samples=2_000, rng=SEED)


def _convolution_pmf(a: float, b: float, kmax: int, jmax: int = 320) -> dict[int, float]:
    """Vectorized truncated-convolution oracle for the difference law."""
    ka = np.arange(kmax + jmax + 1)
    pa = np.exp(-a + ka * np.log(a) - gammaln(ka + 1))
    jb = np.arange(jmax + 1)
    pb = np.exp(-b + jb * np.log(b) - gammaln(jb + 1))
    out = {}
    for k in range(-kmax, kmax + 1):
        jj = jb[max(0, -k):]
        out[k] = float(np.dot(pa[k + jj], pb[jj]))
    return out


def _half_profile_clt_variance(a: float, m: int) -> float:
    """Exact variance of beta_m * sum_{j=2}^m eps_j (y_j - x_j) for
    eps_j = -j^(-1/2), a_j = a e^(eps_j), y_j ~ Poisson(a), x_j ~ Poisson(a_j):
    a + sum eps_j^2 a_j / sum eps_j^2, with eps_j^2 = 1/j."""
    w = 1.0 / np.arange(2, m + 1, dtype=float)
    return a + math.fsum(w * a * np.exp(-np.sqrt(w))) / math.fsum(w)


def _half_profile_deficit_bound(a: float, m: int) -> float:
    """Upper bound on 2a - V_m: a sum (1/j)(1 - e^(-j^(-1/2))) / sum 1/j is at
    most a sum j^(-3/2) / sum 1/j, by 1 - e^(-x) <= x, over j = 2..m."""
    return a * (float(zeta(1.5)) - 1.0) / math.fsum(1.0 / np.arange(2, m + 1, dtype=float))


def _half_profile_tail(a: float, n: int) -> float:
    """P(|y_n - x_n| > |eps_n|^(-1/2)) for eps_n = -n^(-1/2), y_n ~ Poisson(a),
    x_n ~ Poisson(a e^(eps_n)): the convolution pmf summed over L <= |k| <= L + 40
    (beyond, terms are below 1/40!), L the least integer with L^4 > n."""
    L = 1
    while L**4 <= n:
        L += 1
    pmf = _convolution_pmf(a, a * math.exp(-n ** -0.5), L + 40)
    return math.fsum(p for k, p in pmf.items() if abs(k) >= L)


def test_criterion_01_skellam_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    norm_lo, norm_hi = 1.0, 1.0
    for a in GRID:
        for b in GRID:
            law = SkellamLaw(a, b)
            oracle = _convolution_pmf(a, b, 30)
            C = skellam_support_cutoff(law)  # at least 42, so the row holds k = -30..30
            row = skellam_pmf_row(law, C)
            worst = max(worst, max(abs(row[C + k] - oracle[k]) for k in range(-30, 31)))
            s = math.fsum(row)
            norm_lo, norm_hi = min(norm_lo, s), max(norm_hi, s)
    elapsed = time.perf_counter() - t0
    # the mass is provably < 1; the few-ulp upper slack absorbs float
    # summation noise only
    ok = worst <= 1e-12 and norm_lo >= 1.0 - 1e-12 and norm_hi <= 1.0 + 5e-15 and elapsed < 1.0
    _report("1 skellam-oracle", ok,
            f"max |pmf - conv| = {worst:.2e}, mass in [{norm_lo:.16f}, {norm_hi:.16f}], {elapsed:.2f} s")


def test_criterion_02_hellinger_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in GRID:
        for b in GRID:
            definitional = 0.5 * math.fsum(
                (math.sqrt(poisson_pmf(a, k)) - math.sqrt(poisson_pmf(b, k))) ** 2
                for k in range(200)
            )
            worst = max(worst, abs(hellinger_sq_poisson(a, b) - definitional))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report("2 hellinger-identity", ok, f"max |closed - definitional| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_tail_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    for limit in (1.0, 2.0, 5.0):
        grid = np.arange(0.25, limit, 0.25)
        sup_tails = np.zeros(51)
        for a in grid:
            for b in grid:
                law = SkellamLaw(float(a), float(b))
                C = skellam_support_cutoff(law) + 20
                pmf = np.array(skellam_pmf_row(law, C))
                suffix = np.abs(np.arange(-C, C + 1))
                tails = np.array([pmf[suffix >= L].sum() for L in range(1, 51)])
                sup_tails[1:] = np.maximum(sup_tails[1:], tails)
                # analytic bound dominates the exact tail at every depth
                for L in range(1, 31):
                    if tails[L - 1] > skellam_tail_bound(law, L):
                        ok = False
        # smallest L whose whole suffix stays under the l^-8 envelope;
        # L = 1 alone would be vacuous (any tail mass is <= 1)
        below = sup_tails[1:] <= np.arange(1, 51, dtype=float) ** -8.0
        found = None
        for L in range(1, 51):
            if below[L - 1:].all():
                found = L
                break
        details.append(f"A={limit}: L={found}")
        if found is None:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("3 tail-bound", ok, ", ".join(details) + f", {elapsed:.1f} s")


def test_criterion_04_rn_slope():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for a in (0.1, 0.5, 1.0):
        fit = rn_slope_fit(IntensityProfile(a, HALF))
        rel = abs(fit.slope / (6.0 * a) - 1.0)
        rows.append(f"a={a}: slope={fit.slope:.4f} ({100 * rel:.1f}% off 6a)")
        ok = ok and rel <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report("4 rn-slope", ok, "; ".join(rows) + f", {elapsed:.1f} s")


def test_criterion_05_hellinger_slope():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for a in (1.0, 2.0, 5.0):
        fit = hellinger_slope_fit(IntensityProfile(a, HALF))
        rel = abs(fit.slope / (0.5 * a) - 1.0)
        rows.append(f"a={a}: slope={fit.slope:.4f} ({100 * rel:.1f}% off a/2)")
        ok = ok and rel <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report("5 hellinger-slope", ok, "; ".join(rows) + f", {elapsed:.1f} s")


def test_criterion_06_certificates_and_bracket():
    t0 = time.perf_counter()
    expected = {0.05: Verdict.CONSERVATIVE, 0.1: Verdict.CONSERVATIVE,
                1.0: Verdict.INCONCLUSIVE,
                5.0: Verdict.TOTALLY_DISSIPATIVE, 8.0: Verdict.TOTALLY_DISSIPATIVE}
    got = {a: classify(IntensityProfile(a, HALF)).verdict for a in expected}
    verdicts_ok = got == expected
    bracket = bifurcation_bracket(P1)
    bracket_ok = 0.15 <= bracket.t_lower <= bracket.t_upper <= 4.2
    elapsed = time.perf_counter() - t0
    ok = verdicts_ok and bracket_ok and elapsed < 300.0
    verdict_text = {a: v.value for a, v in got.items()}
    _report("6 certificates", ok,
            f"verdicts={verdict_text}, "
            f"bracket=[{bracket.t_lower:.4f}, {bracket.t_upper:.4f}], {elapsed:.1f} s")


def test_criterion_07a_clt_ks(clt_run):
    snap = clt_run.statistics["snapshots"][-1]
    ok = snap["ks_stat"] < snap["ks_critical_1pct"] and clt_run.runtime_s < 300.0
    _report("7a clt-ks", ok,
            f"KS={snap['ks_stat']:.5f} vs crit={snap['ks_critical_1pct']:.5f}, "
            f"{clt_run.runtime_s:.1f} s")


def test_criterion_07b_clt_variance(clt_run):
    # 2a is the variance of the limit law only; the finite-n law falls short
    # of it by Theta(1/log n), ~5.6 se at n = 1e4; see module docstring
    a = P1.base
    snaps = clt_run.statistics["snapshots"]
    target = clt_run.statistics["target_variance"]
    oracle = [_half_profile_clt_variance(a, s["n"]) for s in snaps]
    deficits = [target - s["exact_variance"] for s in snaps]
    bounds = [_half_profile_deficit_bound(a, s["n"]) for s in snaps]
    last, exact = snaps[-1], oracle[-1]
    off = abs(last["empirical_variance"] - exact)
    broken = []
    if not all(abs(s["exact_variance"] - v) <= 1e-12 * v for s, v in zip(snaps, oracle)):
        broken.append("exact variance != oracle")
    if off > 3.0 * last["variance_se"]:
        broken.append("empirical outside 3se of exact")
    if target != 2.0 * a:
        broken.append("limit != 2a")
    if not all(0.0 < d <= b for d, b in zip(deficits, bounds)):
        broken.append("limit deficit outside (0, bound]")
    if not all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:])):
        broken.append("limit deficit not decreasing")
    measured = (f"emp={last['empirical_variance']:.4f}, limit={target}, "
                f"exact finite-n={last['exact_variance']:.4f} (oracle {exact:.4f}), "
                f"gap to limit={abs(last['empirical_variance'] - target):.4f}, "
                f"|emp - exact|={off:.4f} vs 3se={3 * last['variance_se']:.4f}, "
                f"limit deficit {[round(d, 4) for d in deficits]} "
                f"<= bound {[round(b, 4) for b in bounds]}")
    _report("7b clt-variance", not broken, "; ".join([measured] + broken))


def test_criterion_07c_drift_decreasing(clt_run):
    snaps = {s["n"]: s for s in clt_run.statistics["snapshots"]}
    drifts = [snaps[n]["drift"] for n in (100, 1_000, 10_000)]
    ok = drifts[0] > drifts[1] > drifts[2]
    _report("7c clt-drift", ok, f"drift(1e2,1e3,1e4)={[round(d, 4) for d in drifts]}")


def test_criterion_07d_crossing_freq_decreasing(clt_run):
    snaps = {s["n"]: s for s in clt_run.statistics["snapshots"]}
    freqs = [snaps[n]["crossing_freq"]["5.0"] for n in (100, 1_000, 10_000)]
    ok = freqs[0] > freqs[1] > freqs[2]
    _report("7d clt-crossing-freq", ok, f"freq(sum > -5)={freqs}")


def test_criterion_08a_tails_beat_eps_fourth():
    # the tail beats eps^4 only eventually: not at n = 100 or 1000, and
    # certifiably beyond guaranteed_beyond_n; see module docstring
    ns = (100, 1_000, 10_000, 100_000)
    stats = increment_tail_decay(P1, SEED, samples=2, ns=ns, mc_max=0).statistics
    rows, certified = stats["rows"], stats["guaranteed_beyond_n"]
    oracle = [_half_profile_tail(P1.base, n) for n in ns]
    beats = [t < n**-2.0 for n, t in zip(ns, oracle)]  # eps_n^4 = n^-2
    broken = []
    if [r["n"] for r in rows] != list(ns):
        broken.append(f"rows at {[r['n'] for r in rows]}, not {list(ns)}")
    elif not all(abs(r["exact_tail"] - t) <= 1e-12 * t for r, t in zip(rows, oracle)):
        broken.append("exact tail != convolution oracle")
    if [r["beats_eps_fourth"] for r in rows] != beats:
        broken.append("beats_eps_fourth != oracle comparison")
    if not any(n >= certified for n in ns):
        broken.append(f"no checkpoint at or beyond the certified n={certified}")
    if not all(b for n, b in zip(ns, beats) if n >= certified):
        broken.append(f"a tail at n >= {certified} does not beat eps^4")
    if not all(b for r, b in zip(rows, beats) if r["guaranteed"]):
        broken.append("a guaranteed row does not beat eps^4")
    tails = [r["exact_tail"] for r in rows]
    if not all(t2 < t1 for t1, t2 in zip(tails, tails[1:])):
        broken.append("exact tails not decreasing in n")
    failing = [f"n={r['n']}: tail={r['exact_tail']:.3e} >= eps^4={r['eps_fourth']:.3e}"
               for r in rows if not r["beats_eps_fourth"]]
    _report("8a decay-tails", not broken,
            "; ".join(failing + [f"certified beyond n={certified}"] + broken))


def test_criterion_08b_stopping_time(stopping_run):
    st = stopping_run.statistics
    ok = (st["success_freq"] > 0.5
          and st["conditional_overshoot_below_eps"] == 1.0
          and stopping_run.runtime_s < 300.0)
    _report("8b stopping-time", ok,
            f"success={st['success_freq']:.3f}, conditional overshoots<eps: "
            f"{st['conditional_overshoot_below_eps']}, {stopping_run.runtime_s:.1f} s")


def test_criterion_09_scaling_monotonicity(scan_run):
    g = scan_run.statistics["growth_exponents"]
    monotone = all(b <= a for a, b in zip(g, g[1:]))
    ok = monotone and not scan_run.statistics["anomaly"] and scan_run.runtime_s < 300.0
    _report("9 scan-monotone", ok,
            f"growth={[round(v, 4) for v in g]}, anomaly={scan_run.statistics['anomaly']}, "
            f"{scan_run.runtime_s:.1f} s")


def test_criterion_10a_reports_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.5, "sign": -1}},
        "t_grid": [0.5, 2.0], "N": 16, "samples": 200, "rng": {"seed": 0},
    }))
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    b1, b2 = (cli.body_bytes(r) for r in outs)
    ok = b1 == b2
    _report("10a report-determinism", ok, f"body bytes equal: {ok} ({len(b1)} bytes)")


def test_criterion_10b_cocycle_identity():
    lo, hi = window_for_shift(P1, 20)
    hi += 20
    gen = SEED.generator()
    worst = 0.0
    for i in range(1_000):
        n = 1 + i % 10
        m = 1 + (i // 10) % 10
        omega = sample_configuration(P1, (lo, hi), gen)
        lhs = log_rn_derivative(P1, omega, n + m)
        rhs = log_rn_derivative(P1, omega, n) + log_rn_derivative(P1, omega.shifted(n), m)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _report("10b cocycle-identity", ok, f"max |lhs - rhs| = {worst:.2e} over 1000 configurations")


# -- companion trend checks: the limits of 7b and 8a over more checkpoints --
# every snapshot's empirical variance tracks the exact finite-n law (~1.85a
# at n = 1e4, 5.6 se below 2a), and the tails beat eps^4 at and beyond the
# certified n = 28561 although they do not at n = 100 (1.5e-2 vs 1e-4)


def test_variance_gap_shrinks_with_n(clt_run):
    """The empirical variance tracks the exact finite-n law, whose gap to the
    limit 2a closes as n grows."""
    snaps = clt_run.statistics["snapshots"]
    exact = [s["exact_variance"] for s in snaps]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    for s in snaps:
        assert abs(s["empirical_variance"] - s["exact_variance"]) < 3.0 * s["variance_se"]


def test_tails_beat_eps_fourth_beyond_certified_threshold():
    out = increment_tail_decay(P1, SEED, samples=2, ns=(28_561, 50_000, 100_000), mc_max=0)
    assert all(r["beats_eps_fourth"] for r in out.statistics["rows"])
    assert out.statistics["guaranteed_beyond_n"] == 28_561
