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

A suite with random trials first draws every trial from its generator, in
the order of the draws that define its report, then builds the instances of
all its trials in one ``partition.make_families`` call, then computes.  Each
point set is stepped once (its instances' points carry the orbit, which
``prop22``'s orbit-extended samples are read from), and the small triangles
of the call take the stacked path: one metric call per batch of point sets.
``prop22``'s samples ride in the same call, one family each, and each
``SupNormReport`` is read off its sample's instance.  ``chain`` and
``thm34`` collect the arc cover jobs of all their trials and compute them
in one ``_cover_values`` call: one padded array pass for the arc members,
one for the cell costs, then one exact cover search per job.  A suite's
exact separated and spanning optima come from one ``exact_optima`` call per
estimator, set up in one array pass and searched once per instance.  The
exact searches, and the order in which violations are appended, are those
of one trial at a time.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .dimension import dimension_estimate, entropy_dimension, growth_tables
from .partition import (
    Estimator,
    exact_min_cover,
    exact_optima,
    make_families,
    unshifted_log,
)
from .potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    Potential,
    SupNormReport,
    add,
    coboundary_perturb,
    inverse_twist,
    pullback,
    scale,
    symbol_weights,
    time_power,
    zero_potential,
)
from .symbolic import (
    deflated_scale,
    log_weighted_word_tables,
    log_word_count,
)
from .systems import (
    Contraction,
    FullShift,
    PowerSystem,
    RealGrid,
    Rotation,
    ShiftSystem,
    WordGrid,
    binary_expansion_map,
    golden_mean_sft,
    orbit_array,
    real,
    with_orbit,
)

TOL = 1e-9


class CheckReport:
    def __init__(self, check_id: str, status: str, worst_violation: float, digest: str,
                 notes: str = ""):
        self.check_id, self.status, self.worst_violation = check_id, status, worst_violation
        self.digest, self.notes = digest, notes

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is CheckReport else NotImplemented

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


def _sums_by_system(cases: list[tuple[ShiftSystem, Potential]], ns, ks) -> list[dict]:
    """Per (system, potential) case, {k: {n: log weighted sum over the (n + k)-words}},
    one table call per system for every k."""
    ns, ks = list(ns), list(ks)
    tables = {system: iter(log_weighted_word_tables(system, [p for s, p in cases if s == system],
                                                    ns, ks))
              for system in dict.fromkeys(s for s, _ in cases)}
    return [{k: dict(zip(ns, table)) for k, table in zip(ks, next(tables[system]))}
            for system, _ in cases]


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
    xs = np.sort(rng.random(size))
    a, b, c = rng.normal(scale=0.4, size=3)

    def phi(x):
        return a * np.cos(2 * np.pi * x) + b * np.sin(2 * np.pi * x) + c

    pot = Birkhoff(phi=phi, system=system, name="trig")
    return system, RealGrid(xs), pot


def _cover_values(jobs: list) -> list[float]:
    """Per job (theta, xs, weights, n_steps, G, pick, step), the exact minimal
    subcover value on the sample xs, each cell costing ``pick`` (``min``:
    inf-weight, ``max``: sup-weight) of its members' weights.

    The cover elements are the join cells of the open overlapping arcs
    A_i = (i h - h/4, (i+1) h + h/4), h = 1/G, along the orbit positions 0,
    step, ..., (n_steps - 1) step; a position of a point in no open arc
    takes the closed arcs.  One padded (K, N, P, G) pass finds the members
    of every job's arcs at every position as int64 masks, with the arcs
    past a job's G masked out.  A cell's members are the AND of the job's
    own points (which leaves out the padded ones) and one arc's members per
    position, so a job's cells are the distinct nonzero ANDs, built one
    position at a time.  A cell's cost depends only on its members, and one
    bit matrix over the cells of all the jobs gives every cost.  The masks
    are int64, so xs holds at most 63 points.
    """
    thetas, xs, weights, n_steps, Gs, picks, steps = zip(*jobs)
    sizes = np.array([len(x) for x in xs])
    P, N, G = int(sizes.max()), max(n_steps), max(Gs)
    points = np.arange(P) < sizes[:, None]  # (K, P)
    x = np.zeros(points.shape)
    w = np.full(points.shape, -np.inf)
    x[points], w[points] = np.concatenate(xs), np.concatenate(weights)
    h = 1.0 / np.array(Gs, dtype=float)[:, None]
    length = 1.5 * h[:, :, None, None]
    turns = np.arange(N) * np.array(steps)[:, None] * np.array(thetas)[:, None]  # (K, N)
    # v - floor(v) is v % 1.0, float for float, for finite v, and cheaper
    ys = x[:, None, :] + turns[:, :, None]  # (K, N, P)
    ys -= np.floor(ys)
    offset = ys[..., None] - (np.arange(G) * h - 0.25 * h)[:, None, None, :]
    offset -= np.floor(offset)
    arcs = (np.arange(G) < np.array(Gs)[:, None])[:, None, None, :]
    inside = (0.0 < offset) & (offset < length) & arcs
    closed = ~inside.any(axis=3, keepdims=True)  # boundary hit; fall back to closed membership
    inside |= closed & (0.0 <= offset) & (offset <= length) & arcs
    members = ((1 << np.arange(P)) @ inside).tolist()  # [k][j][i]: A_i at j
    masks = []
    for rows, size, n in zip(members, sizes.tolist(), n_steps):
        cells = {(1 << size) - 1}
        for row in rows[:n]:
            cells = {c & a for c in cells for a in row if c & a}
        masks.append(sorted(cells))
    wmax = w.max(axis=1)
    wmax[wmax == -np.inf] = 0.0  # as in exact_optima: no -inf - -inf
    shifted = np.exp(w - wmax[:, None])
    counts = [len(m) for m in masks]
    owner = np.repeat(np.arange(len(jobs)), counts)
    cells = np.concatenate([np.array(m, dtype=np.int64) for m in masks])
    held = (cells[:, None] >> np.arange(P) & 1).astype(bool)
    is_min = np.array([pick is min for pick in picks])[owner]
    vals = np.where(held, shifted[owner], np.where(is_min, np.inf, -np.inf)[:, None])
    costs = np.where(is_min, vals.min(axis=1), vals.max(axis=1))
    cuts = np.cumsum([0] + counts).tolist()
    return [unshifted_log(top, exact_min_cover(m, costs[a:b], (1 << size) - 1))
            for top, m, a, b, size in zip(wmax.tolist(), masks, cuts, cuts[1:], sizes.tolist())]


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
    tables = _sums_by_system(cases, range(1, n_max + 1), range(5))
    # dual route on a small canonical family: brute-force optima at the
    # deflated scale agree with the word sum over the (n + k)-words
    dual = [(2, 2), (3, 1), (4, 0)]
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(trials):
        size = int(rng.integers(5, 11))
        system, pts, pot = _rotation_instance(rng, size)
        n = int(rng.integers(1, 4))
        G = int(rng.integers(4, 9))
        drawn.append((system, pts, pot, n, G, float(rng.uniform(0.15, 0.45))))
    families = make_families(
        [(system, WordGrid(system, system.word_rows(n + k)),
          [(n, deflated_scale(k))], [pot]) for system, pot in cases for n, k in dual]
        + [(system, pts, [(n, 1.0 / G / 4.0), (n, eps)], [pot])
           for system, pts, pot, n, G, eps in drawn])
    duals = [inst for [[inst]] in families[:len(cases) * len(dual)]]
    built = [(fine, inst) for [[fine, inst]] in families[len(duals):]]
    covers = iter(_cover_values([
        job for (system, pts, _, n, G, eps), (_, inst) in zip(drawn, built)
        for job in ((system.theta, pts.rows, inst.weights, n, G, min, 1),
                    (system.theta, pts.rows, inst.weights, n, math.ceil(1.5 / eps), max, 1))]))
    sep = iter(exact_optima(duals + [inst for _, inst in built], Estimator.SEPARATED))
    span = iter(exact_optima(duals + [inst for pair in built for inst in pair], Estimator.SPANNING))

    for sums in tables:
        for n in range(1, n_max + 1):
            for m in (2, 3):
                q_val = sums[m - 1][n]
                span_val = sums[m][n]
                p_val = span_val
                upper_val = sums[m + 1][n]
                violations.append(q_val - span_val)
                violations.append(span_val - p_val)
                violations.append(p_val - upper_val)
        for n, k in dual:
            bf_p, bf_q = next(sep), next(span)
            violations.append(bf_q - bf_p)
            violations.append(abs(bf_p - sums[k][n]))

    for _ in built:
        logq = next(covers)
        violations.append(logq - next(span))

        bf_q, bf_p = next(span), next(sep)
        violations.append(bf_q - bf_p)

        logp = next(covers)
        violations.append(bf_p - logp)

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
    drawn = []
    for _ in range(trials):
        size = int(rng.integers(6, 11))
        system, pts, pot = _rotation_instance(rng, size)
        drawn.append((system, pts, pot, float(rng.uniform(0.2, 0.45))))
    # each trial's orbit-extended sample, point-major, from the points' own
    # orbit, which the trial's family carries on
    carried = [with_orbit(system, n_max, pts) for system, pts, _, _ in drawn]
    samples = [RealGrid(orbit_array(system, n_max, pts).T.ravel())
               for (system, _, _, _), pts in zip(drawn, carried)]
    families = make_families(
        [(system, pts, [(n, e) for n in range(1, n_max + 1) for e in (eps, eps / 2.0)], [pot])
         for (system, _, pot, eps), pts in zip(drawn, carried)]
        + [(system, ext, [(1, math.inf)], [pot]) for (system, _, pot, _), ext in zip(drawn, samples)])
    # per trial, the separated values at eps and then at eps / 2 for n = n_max,
    # and the spanning values at eps / 2
    rows = [insts for [insts] in families[:trials]]
    sep = iter(exact_optima([inst for insts in rows for inst in insts[::2] + insts[-1:]],
                            Estimator.SEPARATED))
    span = iter(exact_optima([inst for insts in rows for inst in insts[1::2]], Estimator.SPANNING))
    for (_, _, pot, eps), [[sample]] in zip(drawn, families[trials:]):
        report = SupNormReport.of(sample)
        delta = report.modulus(eps / 2.0)
        for n in range(1, n_max + 1):
            p_val, q_val = next(sep), next(span)
            bound = 2.0 * n * pot.C + n * delta
            violations.append(p_val - bound - q_val)
        # matched-scale band between the two window statistics for s > 1,
        # from the n = n_max values the loop ends on
        p_half = next(sep)
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
    counts = [(system, zero_potential()) for system in (FullShift(2), golden_mean_sft())]
    for (system, _), by_k in zip(counts, _sums_by_system(counts, range(1, n_max + 1), (0, 1, 2))):
        for k, sums in by_k.items():
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
    for (system, pot), by_k in zip(scenarios, _sums_by_system(scenarios, ns, [k])):
        sums = by_k[k]
        reps = WordGrid(system, system.word_rows(2))
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
    tables = (by_k[0] for by_k in _sums_by_system([(system, pot) for pot in pots], ns, [0]))
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
    drawn = []
    for _ in range(10):
        size = int(rng.integers(5, 10))
        sys_r, pts, pot = _rotation_instance(rng, size)
        _s2, _p2, pot2 = _rotation_instance(rng, 3)
        pot2 = Birkhoff(phi=pot2.phi, system=sys_r, name="trig2")
        n = int(rng.integers(1, 4))
        drawn.append((sys_r, pts, [(n, float(rng.uniform(0.1, 0.4)))], [add(pot, pot2), pot, pot2]))
    values = iter(exact_optima([inst for family in make_families(drawn) for [inst] in family],
                               Estimator.SEPARATED))
    for v_sum, v_a, v_b in zip(values, values, values):
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
    k1 = (by_k[1] for by_k in _sums_by_system([(system, pot) for pot in at_k1], ns, [1]))
    k2 = (by_k[2] for by_k in _sums_by_system([(system, pot) for pot in at_k2], ns, [2]))

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
    drawn, families = [], []
    for _ in range(trials):
        size = int(rng.integers(5, 11))
        system, pts, pot = _rotation_instance(rng, size)
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.45))
        drawn.append((system, pts, n, int(rng.integers(4, 9))))
        families += [(PowerSystem(system, power), pts, [(n, eps)], [time_power(pot, power)]),
                     (system, pts, [(n * power, eps)], [pot])]

    # shift variant with zero potential: separated counts for sigma^2 at n
    # never exceed those for sigma at 2n
    shift = FullShift(2)
    cand = WordGrid(shift, shift.word_rows(4))
    eps = deflated_scale(1)
    families += [(PowerSystem(shift, 2), cand, [(2, eps)], [None]), (shift, cand, [(4, eps)], [None])]

    # inverse rotation on the closed 8-point orbit grid
    theta = 1.0 / 8.0
    system = Rotation(theta)
    grid = [real(i / 8.0) for i in range(8)]
    for p in grid:
        img = system.apply(p)
        if not any(abs(img.x - q.x) < 1e-15 for q in grid):
            raise ValueError("orbit grid is not closed under the rotation")
    pot = Birkhoff(phi=lambda x: np.cos(2 * np.pi * x), system=system, name="cos2pi")
    requests = [(n, eps) for n in range(1, 9) for eps in (0.2, 0.3)]
    families += [(system, grid, requests, [pot]),
                 (system.inverse(), grid, requests, [inverse_twist(pot)])]

    built = make_families(families)
    pairs = [inst for [[inst]] in built[:2 * trials]]  # left, right per trial
    [[pow_inst]], [[base_inst]], [fwd], [bwd] = built[2 * trials:]
    covers = iter(_cover_values([
        job for (system, pts, n, G), right in zip(drawn, pairs[1::2])
        # right.weights: phi_(n power) on the points
        for job in ((system.theta, pts.rows, right.weights, n, G, min, power),
                    (system.theta, pts.rows, right.weights, n * power, G, min, 1))]))
    sep = iter(exact_optima(pairs + [pow_inst, base_inst], Estimator.SEPARATED))
    span = iter(exact_optima(pairs + [inst for f, b in zip(fwd, bwd) for inst in (f, b)],
                             Estimator.SPANNING))
    for _ in drawn:
        for values in (sep, span):
            left, right = next(values), next(values)
            violations.append(left - right)
        logq_k, logq_1 = next(covers), next(covers)
        violations.append(logq_k - logq_1)

    r_pow, r_base = (round(math.exp(next(sep))) for _ in range(2))
    violations.append(float(r_pow - r_base))

    for _ in fwd:
        part3.append(abs(next(span) - next(span)))
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
    words = WordGrid(shift, shift.word_rows(4))
    images = list(dict.fromkeys(pi.apply(w) for w in words))  # distinct, in word order
    violations = []
    pots = [
        zero_potential(doubling),
        Birkhoff(phi=lambda x: x, system=doubling, name="x"),
    ]
    # per potential, eps, then n: one family per system, whose relations
    # both potentials share
    cases = [(n, eps) for eps in (0.5, 0.25, 0.125) for n in range(1, n_max + 1)]
    srcs, tgts = make_families([
        (shift, words, [(n, pi.modulus(eps)) for n, eps in cases], [pullback(pot, pi) for pot in pots]),
        (doubling, images, cases, pots)])
    span = iter(exact_optima([inst for src_row, tgt_row in zip(srcs, tgts)
                              for pair in zip(tgt_row, src_row) for inst in pair],
                             Estimator.SPANNING))
    for tgt, src in zip(span, span):
        violations.append(tgt - src)
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
        cases = [(system, ConstantDrift(A, system)) for A in drifts]
        for A, by_k in zip(drifts, _sums_by_system(cases, range(4, 33, 4), [0])):
            for n, v in by_k[0].items():
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
