"""Finite-level verification of the pressure-dimension inequalities.

Every check recomputes both sides of its target inequality through
independent code paths (exact word sums, brute-force set optima, greedy
bounds) and reports the worst signed violation; a pass means the worst
violation stays below an explicit tolerance.  The ``fault`` argument shifts
the violations and exists so the test suite can prove each check is able
to fail.

Each suite takes only ``(seed, fault)``: its sizes (orders ``n``, trial and
pair counts, the map power) are fixed inside it and recorded, with the seed,
in its report's digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dimension import dimension_estimate, entropy_dimension, growth_tables
from .partition import (
    Estimator,
    count_spanning_separated,
    exact_min_cover,
    exact_separated_value,
    exact_spanning_value,
    make_instance,
    make_instances,
)
from .potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    Potential,
    add,
    coboundary_perturb,
    inverse_twist,
    pullback,
    scale,
    sup_inf_norm,
    symbol_weights,
    time_power,
    zero_potential,
)
from .symbolic import (
    deflated_scale,
    log_weighted_word_sum,
    log_weighted_word_tables,
    log_word_count,
)
from .systems import (
    Contraction,
    FullShift,
    PowerSystem,
    Rotation,
    ShiftSystem,
    binary_expansion_map,
    golden_mean_sft,
    orbit_array,
    real,
)

TOL = 1e-9


@dataclass
class CheckReport:
    check_id: str
    status: str
    worst_violation: float
    digest: str
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        return (
            f"{self.check_id:<10} {self.status:<6} "
            f"worst_violation={self.worst_violation:.3e} "
            f"digest={self.digest} {self.notes}"
        )


def _digest(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _word_sums(system: ShiftSystem, pots: list[Potential], ns, k: int) -> Iterator[dict]:
    """Per potential in turn, {n: log weighted sum over the (n + k)-words}, from one table call."""
    ns = list(ns)
    return (dict(zip(ns, table)) for table in log_weighted_word_tables(system, pots, ns, k))


def _sums_by_system(cases: list[tuple[ShiftSystem, Potential]], ns, k: int) -> list[dict]:
    """:func:`_word_sums` per (system, potential) case, one table call per system."""
    tables = {system: _word_sums(system, [p for s, p in cases if s == system], ns, k)
              for system in dict.fromkeys(s for s, _ in cases)}
    return [next(tables[system]) for system, _ in cases]


def _finish(check_id: str, params: dict, violations: list[float],
            fault: float, notes: str) -> CheckReport:
    worst = max(violations) + fault if violations else fault
    status = "pass" if worst <= TOL else "fail"
    return CheckReport(check_id, status, worst, _digest(params), notes)


# ---------------------------------------------------------------------------
# oracle scaffolding: small rotation instances with explicit arc covers


def _rotation_instance(rng: np.random.Generator, size: int):
    theta = float(rng.uniform(0.05, 0.45))
    system = Rotation(theta)
    xs = sorted(float(v) for v in rng.random(size))
    a, b, c = rng.normal(scale=0.4, size=3)

    def phi(x):
        return a * np.cos(2 * np.pi * x) + b * np.sin(2 * np.pi * x) + c

    pot = Birkhoff(phi=phi, system=system, name="trig")
    return system, [real(v) for v in xs], pot


def _cover_value(theta: float, xs: list[float], weights: np.ndarray, n_steps: int,
                 G: int, pick, step: int = 1) -> float:
    """Exact minimal subcover value on the sample, each cell costing ``pick``
    (``min``: inf-weight, ``max``: sup-weight) of its members' weights.

    The cover elements are the join cells of the open overlapping arcs
    A_i = (i h - h/4, (i+1) h + h/4), h = 1/G, along the orbit positions 0,
    step, ..., (n_steps - 1) step; a position of a point in no open arc
    takes the closed arcs.  A cell's members are the AND of one arc's
    members per position, so the cells are the distinct nonzero ANDs, built
    one position at a time; a cell's cost depends only on its members.
    The arc members are int64 masks, so xs holds at most 63 points.
    """
    h = 1.0 / G
    length = 1.5 * h
    ys = (np.asarray(xs)[None, :] + (np.arange(n_steps) * step * theta)[:, None]) % 1.0
    offset = (ys[:, :, None] - (np.arange(G) * h - 0.25 * h)) % 1.0  # (n_steps, P, G)
    inside = (0.0 < offset) & (offset < length)
    closed = ~inside.any(axis=2)  # boundary hit; fall back to closed membership
    inside[closed] = ((0.0 <= offset) & (offset <= length))[closed]
    arcs = ((1 << np.arange(len(xs))) @ inside).tolist()  # arcs[j][i]: members of A_i at j
    full = (1 << len(xs)) - 1
    cells = {full}
    for row in arcs:
        cells = {c & a for c in cells for a in row if c & a}
    masks = sorted(cells)
    wmax = float(weights.max())
    shifted = np.exp(weights - wmax).tolist()
    costs = [pick(shifted[p] for p in range(len(xs)) if m >> p & 1) for m in masks]
    return wmax + math.log(exact_min_cover(masks, np.array(costs), full))


# ---------------------------------------------------------------------------


def check_chain(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Finite chain: subcover values <= spanning <= separated <= subcover.

    Exact backend: on shifts the three steps reduce to word sums of lengths
    n+m-1 <= n+m <= n+m+1 (Lebesgue-matched cover, shared candidate family,
    diameter-matched cover).  Oracle backend: brute-force optima on random
    rotation samples with explicit arc covers.
    """
    n_max, trials = 10, 100
    params = {"check": "chain", "seed": seed, "n_max": n_max, "trials": trials}
    violations = []

    cases = [
        (FullShift(2), zero_potential()),
        (FullShift(2), symbol_weights(FullShift(2), [0.3, -0.2])),
        (golden_mean_sft(), symbol_weights(golden_mean_sft(), [0.1, 0.4])),
    ]
    tables = {k: _sums_by_system(cases, range(1, n_max + 1), k) for k in range(1, 5)}
    for c, (system, pot) in enumerate(cases):
        sums = {k: tables[k][c] for k in tables}
        for n in range(1, n_max + 1):
            for m in (2, 3):
                q_val = sums[m - 1][n]
                span_val = sums[m][n]
                p_val = span_val
                upper_val = sums[m + 1][n]
                violations.append(q_val - span_val)
                violations.append(span_val - p_val)
                violations.append(p_val - upper_val)
        # dual route on a small canonical family: brute-force optima at the
        # deflated scale agree with the word sum
        for n, k in [(2, 2), (3, 1), (4, 0)]:
            cand = [system.representative(w) for w in system.admissible_words(n + k)]
            eps = deflated_scale(k)
            inst = make_instance(system, n, eps, cand, pot)
            bf_p = exact_separated_value(inst).log_value
            bf_q = exact_spanning_value(inst).log_value
            word_val = log_weighted_word_sum(system, pot, n, n + k)
            violations.append(bf_q - bf_p)
            violations.append(abs(bf_p - word_val))

    rng = np.random.default_rng(seed)
    for _ in range(trials):
        size = int(rng.integers(5, 11))
        system, pts, pot = _rotation_instance(rng, size)
        n = int(rng.integers(1, 4))
        xs = [p.x for p in pts]
        G = int(rng.integers(4, 9))
        h = 1.0 / G
        eps = float(rng.uniform(0.15, 0.45))
        [[fine, inst]] = make_instances(system, pts, [(n, h / 4.0), (n, eps)], [pot])
        weights = inst.weights
        logq = _cover_value(system.theta, xs, weights, n, G, min)
        span = exact_spanning_value(fine)
        violations.append(logq - span.log_value)

        bf_q = exact_spanning_value(inst)
        bf_p = exact_separated_value(inst)
        violations.append(bf_q.log_value - bf_p.log_value)

        G_fine = math.ceil(1.5 / eps)
        logp = _cover_value(system.theta, xs, weights, n, G_fine, max)
        violations.append(bf_p.log_value - logp)

    notes = f"{len(violations)} inequalities"
    return _finish("chain", params, violations, fault, notes)


def check_prop22(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Separated values at eps against spanning values at eps/2.

    Asserts log P(eps) <= 2nC + n delta + log Q(eps/2) with delta fitted
    from the empirical modulus of phi_1 on the orbit-extended sample, plus
    the matched-scale band between the two dimension statistics for s > 1.
    """
    n_max, trials = 6, 25
    params = {"check": "prop22", "seed": seed, "n_max": n_max, "trials": trials}
    rng = np.random.default_rng(seed)
    violations = []
    for _ in range(trials):
        size = int(rng.integers(6, 11))
        system, pts, pot = _rotation_instance(rng, size)
        ext = [real(v) for v in orbit_array(system, n_max, pts).T.ravel()]  # point-major
        eps = float(rng.uniform(0.2, 0.45))
        report = sup_inf_norm(pot, system, ext)
        delta = report.modulus(eps / 2.0)
        [insts] = make_instances(system, pts, [(n, e) for n in range(1, n_max + 1)
                                               for e in (eps, eps / 2.0)], [pot])
        for n, full, half in zip(range(1, n_max + 1), insts[::2], insts[1::2]):
            p_val = exact_separated_value(full).log_value
            q_val = exact_spanning_value(half).log_value
            bound = 2.0 * n * pot.C + n * delta
            violations.append(p_val - bound - q_val)
        # matched-scale band between the two window statistics for s > 1,
        # from the n = n_max values the loop ends on
        p_half = exact_separated_value(half).log_value
        for s in (1.5, 2.0):
            v3 = p_val / n**s
            v2 = q_val / n**s
            band = (delta + 2.0 * pot.C) * n ** (1.0 - s)
            violations.append(v3 - v2 - band)
            violations.append(v2 - p_half / n**s)
    notes = f"{trials * n_max} (n, eps) pairs"
    return _finish("prop22", params, violations, fault, notes)


def check_thm31(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Zero potential recovers pure counting; general potentials stay in the
    counting band at s = 1 and collapse onto it for s > 1."""
    n_max = 12
    params = {"check": "thm31", "seed": seed, "n_max": n_max}
    violations = []
    for system in (FullShift(2), golden_mean_sft()):
        for k in (0, 1, 2):
            [sums] = _word_sums(system, [zero_potential()], range(1, n_max + 1), k)
            for n, v in sums.items():
                violations.append(abs(v - log_word_count(system, n + k)))

    scenarios: list[tuple[ShiftSystem, Potential]] = [
        (FullShift(2), symbol_weights(FullShift(2), [0.3, -0.2])),
        (FullShift(2), ConstantDrift(0.5, FullShift(2))),
        (golden_mean_sft(), symbol_weights(golden_mean_sft(), [0.1, 0.4])),
        (FullShift(2), MatrixCocycle(([[2.0]], [[3.0]]), FullShift(2))),
    ]
    k = 1
    ns = list(range(1, n_max + 1))
    for (system, pot), sums in zip(scenarios, _sums_by_system(scenarios, ns, k)):
        reps = [system.representative(w) for w in system.admissible_words(2)]
        vals = pot.eval_array(1, reps).tolist()
        sup1, inf1 = max(vals), min(vals)
        supabs = max(abs(v) for v in vals)
        C = pot.C
        # per-n statistics log value / n for the potential and the zero table
        pr = [v / n for n, v in sums.items()]
        zr = [log_word_count(system, n + k) / n for n in sums]
        for p_ratio, z_ratio in zip(pr, zr):
            violations.append(p_ratio - (z_ratio + sup1 + C))
            violations.append((z_ratio + inf1 - C) - p_ratio)
        for s in (1.5, 2.0):
            for n, p_ratio, z_ratio in zip(ns, pr, zr):
                gap = abs(p_ratio - z_ratio) * n / n**s
                violations.append(gap - (supabs + C) * n ** (1.0 - s))
    notes = f"{len(violations)} inequalities"
    return _finish("thm31", params, violations, fault, notes)


def check_thm32(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Subadditivity under potential sums and the power-law under scaling."""
    n_max, pairs = 10, 50
    params = {"check": "thm32", "seed": seed, "n_max": n_max, "pairs": pairs}
    rng = np.random.default_rng(seed)
    system = FullShift(2)
    ns = range(1, n_max + 1)
    violations = []
    # near-tight pair: one dominant word drives every slack below 1e-2, so a
    # 0.1 perturbation of any inequality is detected
    tight = [(np.array([6.0, 0.0]), np.array([6.0, 0.0]))]
    random_pairs = [(rng.normal(scale=0.7, size=2), rng.normal(scale=0.7, size=2))
                    for _ in range(pairs)]
    lams = (2.0, 3.0, 0.25, 0.5)
    pots = []
    for t1, t2 in tight + random_pairs:
        phi = symbol_weights(system, t1)
        psi = symbol_weights(system, t2)
        pots += [add(phi, psi), phi, psi] + [scale(lam, phi) for lam in lams]
    # one table call for every pair, read back in the order listed
    tables = _word_sums(system, pots, ns, 0)
    for _ in tight + random_pairs:
        v_sum, v_phi, v_psi = next(tables), next(tables), next(tables)
        v_lam = {lam: next(tables) for lam in lams}
        for n in ns:
            violations.append(v_sum[n] - v_phi[n] - v_psi[n])
            for lam in (2.0, 3.0):
                violations.append(v_lam[lam][n] - lam * v_phi[n])
            for lam in (0.25, 0.5):
                violations.append(lam * v_phi[n] - v_lam[lam][n])
    # oracle variant: the same inequalities hold for brute-force separated
    # optima on one shared instance
    for _ in range(10):
        size = int(rng.integers(5, 10))
        sys_r, pts, pot = _rotation_instance(rng, size)
        _s2, _p2, pot2 = _rotation_instance(rng, 3)
        pot2 = Birkhoff(phi=pot2.phi, system=sys_r, name="trig2")
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.4))
        v_sum, v_a, v_b = (exact_separated_value(inst).log_value for [inst] in
                           make_instances(sys_r, pts, [(n, eps)], [add(pot, pot2), pot, pot2]))
        violations.append(v_sum - v_a - v_b)
    notes = f"{pairs} exact pairs + 10 oracle instances"
    return _finish("thm32", params, violations, fault, notes)


def check_thm33(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Monotonicity in the potential, coboundary invariance up to a uniform
    band, and convexity of the weighted sums."""
    n_max = 10
    params = {"check": "thm33", "seed": seed, "n_max": n_max}
    rng = np.random.default_rng(seed)
    system = FullShift(2)
    ns = range(1, n_max + 1)
    violations = []
    # every potential first, in the order of the draws, then one table call
    # per k, read back in the order listed
    at_k1, at_k2, bands = [], [], []
    for _ in range(20):
        base = rng.normal(scale=0.6, size=2)
        bump = rng.uniform(0.0, 0.8, size=2)
        at_k1 += [symbol_weights(system, base), symbol_weights(system, base + bump)]
    for _ in range(20):
        t_phi = rng.normal(scale=0.6, size=2)
        t_psi = rng.normal(scale=0.6, size=2)
        phi = symbol_weights(system, t_phi)
        psi = symbol_weights(system, t_psi)
        at_k2 += [phi, coboundary_perturb(phi, psi)]
        bands.append((psi.C, float(np.max(np.abs(t_psi)))))
    ts = (0.25, 0.5, 0.75)
    for _ in range(20):
        phi = symbol_weights(system, rng.normal(scale=0.6, size=2))
        psi = symbol_weights(system, rng.normal(scale=0.6, size=2))
        at_k1 += [phi, psi] + [add(scale(t, phi), scale(1.0 - t, psi)) for t in ts]
    k1 = _word_sums(system, at_k1, ns, 1)
    k2 = _word_sums(system, at_k2, ns, 2)

    for _ in range(20):
        v_phi, v_psi = next(k1), next(k1)
        for n in ns:
            violations.append(v_phi[n] - v_psi[n])
    for psi_C, norm_psi1 in bands:
        v_phi, v_pert = next(k2), next(k2)
        for n in ns:
            band = 2.0 * n * psi_C + 2.0 * norm_psi1
            violations.append(abs(v_pert[n] - v_phi[n]) - band)
            for s in (1.5, 2.0):
                violations.append((abs(v_pert[n] - v_phi[n]) - band) / n**s)
    for _ in range(20):
        v_phi, v_psi = next(k1), next(k1)
        for t in ts:
            v_mix = next(k1)
            for n in ns:
                violations.append(v_mix[n] - t * v_phi[n] - (1.0 - t) * v_psi[n])
    notes = f"{len(violations)} inequalities"
    return _finish("thm33", params, violations, fault, notes)


def check_thm34(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Iterated-map comparison and the inverse-map identity.

    Part 1 compares every estimator for (T^k, Phi_k) at time n against
    (T, Phi) at time nk on one shared candidate set.  Part 3 checks the
    exact spanning identity for the inverse rotation on a closed orbit grid
    to 1e-12.
    """
    power, trials = 2, 20
    params = {"check": "thm34", "seed": seed, "power": power, "trials": trials}
    rng = np.random.default_rng(seed)
    violations = []
    part3 = []
    for _ in range(trials):
        size = int(rng.integers(5, 11))
        system, pts, pot = _rotation_instance(rng, size)
        sys_k = PowerSystem(system, power)
        pot_k = time_power(pot, power)
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.45))
        left = make_instance(sys_k, n, eps, pts, pot_k)
        right = make_instance(system, n * power, eps, pts, pot)
        for oracle in (exact_separated_value, exact_spanning_value):
            violations.append(oracle(left).log_value - oracle(right).log_value)
        xs = [p.x for p in pts]
        weights = pot.eval_array(n * power, pts)
        G = int(rng.integers(4, 9))
        logq_k = _cover_value(system.theta, xs, weights, n, G, min, step=power)
        logq_1 = _cover_value(system.theta, xs, weights, n * power, G, min)
        violations.append(logq_k - logq_1)

    # shift variant with zero potential: separated counts for sigma^2 at n
    # never exceed those for sigma at 2n
    shift = FullShift(2)
    cand = [shift.representative(w) for w in shift.admissible_words(4)]
    eps = deflated_scale(1)
    _, r_pow = count_spanning_separated(PowerSystem(shift, 2), 2, eps, cand)
    _, r_base = count_spanning_separated(shift, 4, eps, cand)
    violations.append(float(r_pow - r_base))

    # inverse rotation on the closed 8-point orbit grid
    theta = 1.0 / 8.0
    system = Rotation(theta)
    grid = [real(i / 8.0) for i in range(8)]
    for p in grid:
        img = system.apply(p)
        if not any(abs(img.x - q.x) < 1e-15 for q in grid):
            raise ValueError("orbit grid is not closed under the rotation")
    pot = Birkhoff(phi=lambda x: np.cos(2 * np.pi * x), system=system, name="cos2pi")
    twisted = inverse_twist(pot)
    requests = [(n, eps) for n in range(1, 9) for eps in (0.2, 0.3)]
    [fwd] = make_instances(system, grid, requests, [pot])
    [bwd] = make_instances(system.inverse(), grid, requests, [twisted])
    for f, b in zip(fwd, bwd):
        part3.append(abs(exact_spanning_value(f).log_value - exact_spanning_value(b).log_value))
    violations.extend(v + (TOL - 1e-12) for v in part3)  # hold part 3 to 1e-12
    notes = f"{trials} oracle instances; inverse identity worst {max(part3):.2e}"
    return _finish("thm34", params, violations, fault, notes)


def check_thm35(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Factor maps: source spanning values at delta(eps) dominate target
    spanning values at eps on image candidate sets."""
    n_max = 6
    params = {"check": "thm35", "seed": seed, "n_max": n_max}
    pi = binary_expansion_map()
    shift = pi.source
    doubling = pi.target
    words = [shift.representative(w) for w in shift.admissible_words(4)]
    images = list(dict.fromkeys(pi.apply(w) for w in words))  # distinct, in word order
    violations = []
    pots = [
        zero_potential(doubling),
        Birkhoff(phi=lambda x: x, system=doubling, name="x"),
    ]
    # per potential, eps, then n: one family per system, whose relations
    # both potentials share
    cases = [(n, eps) for eps in (0.5, 0.25, 0.125) for n in range(1, n_max + 1)]
    srcs = make_instances(shift, words, [(n, pi.modulus(eps)) for n, eps in cases],
                          [pullback(pot, pi) for pot in pots])
    tgts = make_instances(doubling, images, cases, pots)
    for src_row, tgt_row in zip(srcs, tgts):
        for src, tgt in zip(src_row, tgt_row):
            violations.append(exact_spanning_value(tgt).log_value
                              - exact_spanning_value(src).log_value)
    notes = f"{len(violations)} (potential, eps, n) cases"
    return _finish("thm35", params, violations, fault, notes)


def check_section4(seed: int = 0, fault: float = 0.0) -> CheckReport:
    """Constant-drift pressure shifts, entropy-dimension endpoints, and the
    dimension-one ceiling on the model systems."""
    params = {"check": "section4", "seed": seed}
    violations = []
    notes_parts = []

    # drift on shifts: per-n statistic at s = 1 equals drift + counting term
    drifts = (0.0, 0.5, 1.0)
    for system in (FullShift(2), golden_mean_sft()):
        tables = _word_sums(system, [ConstantDrift(A, system) for A in drifts], range(4, 33, 4), 0)
        for A, sums in zip(drifts, tables):
            for n, v in sums.items():
                target = A + log_word_count(system, n) / n
                violations.append(abs(v / n - target))

    # drift dimension on the full shift: exact table at the finest scale
    shift = FullShift(2)
    [table] = growth_tables(shift, ConstantDrift(0.5, shift), range(4, 65, 4), "k", [0],
                            [Estimator.SEPARATED], 4096)
    est = dimension_estimate(table)
    violations.append(abs(est.s0_hat - 1.0) - 0.05)
    notes_parts.append(f"drift dim {est.s0_hat:.3f}")

    # zero-potential dimension estimates: 1 on the full shift, 0 on the
    # contraction and the rotation
    _, d_shift = entropy_dimension(FullShift(2), range(10, 201, 10), [0, 1, 2])
    violations.append(abs(d_shift.s0_hat - 1.0) - 0.05)
    notes_parts.append(f"shift dim {d_shift.s0_hat:.3f}")
    for system in (Contraction(0.5, 0.0), Rotation(math.sqrt(2) - 1)):
        _, d_zero = entropy_dimension(system, range(2, 41, 2), [0.2, 0.1, 0.05])
        violations.append(abs(d_zero.s0_hat) - 0.05)
        notes_parts.append(f"{system.label} dim {d_zero.s0_hat:.3f}")
        # unit drift restores dimension one (greedy tables on grids of 20 or 21 points)
        [table] = growth_tables(system, ConstantDrift(1.0, system), range(20, 401, 20), "eps",
                                [0.1], [Estimator.SEPARATED], 4096)
        est = dimension_estimate(table)
        violations.append(abs(est.s0_hat - 1.0) - 0.05)
        # dimension stays at or below one even though the entropy term is 0
        violations.append(est.s0_hat - 1.05)
    notes = "; ".join(notes_parts)
    return _finish("section4", params, violations, fault, notes)


_SUITES = {
    "chain": check_chain,
    "prop22": check_prop22,
    "thm31": check_thm31,
    "thm32": check_thm32,
    "thm33": check_thm33,
    "thm34": check_thm34,
    "thm35": check_thm35,
    "section4": check_section4,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> list[CheckReport]:
    """Run one named suite (or ``all``) and return its reports."""
    if name == "all":
        return [fn(seed=seed) for fn in _SUITES.values()]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [_SUITES[name](seed=seed)]
