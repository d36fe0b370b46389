"""One-case forms of pdim's family functions, and a reference enumeration
of admissible words, which the tests build their references and single
cases from.

Each one-case form calls its family form through the module, so a test that
spies on the family form by ``monkeypatch.setattr`` sees these calls too.
"""

import itertools

from pdim import partition, symbolic, theorems
from pdim.systems import FactorMap


def admissible_words(system, length):
    """The admissible words of a length of at least 1, as tuples, in
    ``ShiftSystem.word_rows`` order (first symbol descending, each later
    place ascending): every word of ``itertools.product`` whose neighbouring
    symbols pass ``is_admissible_pair``."""
    places = [range(system.k - 1, -1, -1)] + [range(system.k)] * (length - 1)
    return [w for w in itertools.product(*places)
            if all(system.is_admissible_pair(a, b) for a, b in zip(w, w[1:]))]


def bowen_relation(system, n, points, eps):
    """Pairs i < j with d_n(x_i, x_j) <= eps, as arrays (i, j, d) sorted by (i, j)."""
    return partition.bowen_relations(system, points, [(n, eps)])[0]


def edges(inst, strict):
    """The pairs i < j of one instance's relation with d_n < eps (strict: the
    spanning relation) or d_n <= eps (separated), sorted by (i, j)."""
    i, j, d = inst.pairs()
    if not strict:
        return i, j
    near = d < inst.eps
    return i[near], j[near]


def greedy_picks(inst, estimator):
    """One instance's greedy separated or spanning picks, in pick order: the
    one-case form of ``partition._greedy_picks``."""
    [picks], _ = partition._greedy_picks([inst], estimator == partition.Estimator.SEPARATED)
    return picks


def make_instances(system, points, requests, potentials):
    """Per potential, one instance per (n, eps) request on the points, as one family."""
    return partition.make_families([(system, points, requests, potentials)])[0]


def log_weighted_word_sums(system, potential, ns, k):
    """log of the sum over admissible words w of |w| = n + k of e^(phi_n on [w]), per n in ns."""
    return symbolic.log_weighted_word_tables(system, [potential], ns, [k])[0][0]


def required_length(potential, n):
    """Shortest word length on which phi_n is constant per cylinder."""
    return n - 1 + symbolic._profile(potential).reach


def cover_value(theta, xs, weights, n_steps, G, pick, step=1):
    """The arc cover value of one sample: the one-job case of ``theorems._cover_values``."""
    return theorems._cover_values([(theta, xs, weights, n_steps, G, pick, step)])[0]


def identity_factor(system):
    return FactorMap(system, system, lambda x: x, lambda eps: eps, label="identity")
