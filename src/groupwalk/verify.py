"""Machine checks for the structural claims behind the convolution walks.

Each check emits CheckRecords collected into a VerificationReport.  The
default corpus covers small cyclic, dihedral, symmetric, quaternion, and
alternating groups with seeded random symmetric generating measures, and
the suites work through it one group at a time: the theorem suite labels a
group's walks (one labelling per walk gives +1, -1 and generation) with one
call per kind and solves its spectra in one call, and the foguel decay
walks the left stencils of all its measures in one walk, with no dense
operator.  The stirling suite's exp bound takes its matrix exponential
from linalg.expm, a scaling and squaring Padé approximant in numpy, so
numpy is the only dependency at run time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import (
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    QuaternionGroup,
    SymmetricGroup,
    TableGroup,
    closure,
)
from .harmonic import (
    anti_harmonic_space,
    decompose,
    factor_anti_harmonic,
    find_anti_character,
    harmonic_space,
    jointly_biharmonic_space,
    two_sided_classes,
)
from .linalg import expm, float_nullspace, operator_norm
from .measures import (
    convolve,
    is_generating,
    is_symmetric,
    make_measure,
    min_return,
    uniform,
)
from .operators import (
    ComputationError,
    GroupFunction,
    OperatorOnMatrices,
    _certified,
    apply,
    apply_truncated,
    component_kernel,
    label_walks,
    left_operator,
    require_dense_budget,
    right_operator,
    solve_spectra,
    spectrum,
)

EXP_BOUND_MAX_N = 500
OPERATOR_CHECK_MAX_ORDER = 8

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "FixtureConstructionError",
    "FoguelDecayResult",
    "ExpBoundResult",
    "CorpusSpec",
    "foguel_decay",
    "foguel_decays",
    "root_of_unity_check",
    "revuz_check",
    "ball_sign_records",
    "exp_bound_check",
    "stirling_trend",
    "default_corpus_groups",
    "alternating_group",
    "random_symmetric_generating_measure",
    "corpus_fixtures",
    "nonsymmetric_fixtures",
    "fixture_theorem_checks",
    "run_theorem_suite",
    "verify_suite",
    "SUITE_NAMES",
]


class FixtureConstructionError(RuntimeError):
    """A corpus fixture could not be built; carries the fixture id."""


@dataclass
class CheckRecord:
    fixture: str
    quantity: str
    value: object
    threshold: object
    passed: bool
    note: str = ""

    def to_json(self):
        value = self.value if isinstance(self.value, (int, float, str)) else str(self.value)
        threshold = (
            self.threshold if isinstance(self.threshold, (int, float, str)) else str(self.threshold)
        )
        out = {
            "fixture": self.fixture,
            "quantity": self.quantity,
            "value": value,
            "threshold": threshold,
            "passed": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"{status}  {self.fixture}  {self.quantity}  value={self.value}  threshold={self.threshold}{note}"


@dataclass
class VerificationReport:
    suite: str
    records: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_json(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, obj):
        records = [
            CheckRecord(
                fixture=c["fixture"],
                quantity=c["quantity"],
                value=c["value"],
                threshold=c["threshold"],
                passed=c["passed"],
                note=c.get("note", ""),
            )
            for c in obj["checks"]
        ]
        return cls(obj["suite"], records)

    def summary_lines(self):
        return [r.summary_line() for r in self.records]

    def extend(self, other):
        self.records.extend(other.records)


@dataclass
class FoguelDecayResult:
    """Total-variation gaps between consecutive convolution powers."""

    distances: list
    first_below: int | None
    identity_in_support: bool

    @property
    def observation_only(self):
        return not self.identity_in_support


def foguel_decay(group, mu, eps=1e-6, n_max=500):
    """Track d_n = tv(mu^n, mu^(n+1)) for n = 1..n_max.

    When the identity carries mass the sequence must reach eps; otherwise
    the result is observational (bipartite walks stay at 1).  Distances are
    computed in floating point by walking mu's left stencil (`foguel_decays`
    with one measure); no dense operator or table of powers is built.
    """
    return foguel_decays(group, [mu], eps, n_max)[0]


def foguel_decays(group, measures, eps=1e-6, n_max=500):
    """foguel_decay for several measures on one group, in one walk.

    The m powers lie side by side in one vector of m*n entries.  A step
    nu -> mu * nu reads (mu * nu)(x) = sum_h mu(h) nu(h^-1 x) through the
    inverse of each left stencil permutation: one gather, one multiply by
    the weights and one np.add.reduce over the stencil axis, which adds the
    terms in stencil order as `_gather` does.  Shorter stencils are padded
    at the end with weight-0 terms, which leave every sum bit-identical,
    and each gap is numpy's pairwise sum over one measure's row, so every
    result equals that of walking its measure alone.
    """
    if group.is_truncated:
        raise ConstructionError("foguel_decay requires a finite group")
    n, m = group.order, len(measures)
    stencils = [left_operator(group, mu).stencil() for mu in measures]
    s = max(map(len, stencils))
    # index, weight and term tables, two powers and a difference, the gaps
    require_dense_budget((m, (3 * s + 3) * n + n_max), 8, f"the foguel walk on {group.name}")
    index = np.tile(np.arange(m * n), (s, 1))  # padding terms read nu itself, with weight 0
    weights = np.zeros((s, m * n))
    current = np.zeros(m * n)
    for j, (mu, stencil) in enumerate(zip(measures, stencils)):
        block = slice(j * n, (j + 1) * n)
        for k, (w, perm) in enumerate(stencil):
            index[k, j * n + perm] = np.arange(j * n, (j + 1) * n)
            weights[k, block] = float(w)
        for h, w in mu.weights.items():
            current[j * n + h] = float(w)
    nxt = np.empty(m * n)
    diff = np.empty(m * n)
    gaps = np.empty((n_max, m))
    for step in range(n_max):
        terms = current[index]
        np.multiply(terms, weights, out=terms)
        np.add.reduce(terms, axis=0, out=nxt)
        np.abs(np.subtract(current, nxt, out=diff), out=diff)
        np.add.reduce(diff.reshape(m, n), axis=1, out=gaps[step])
        current, nxt = nxt, current
    gaps *= 0.5
    below = gaps <= eps
    first = np.where(below.any(axis=0), below.argmax(axis=0) + 1, 0).tolist()
    return [
        FoguelDecayResult(gaps[:, j].tolist(), first[j] or None, group.identity in mu.weights)
        for j, mu in enumerate(measures)
    ]


def root_of_unity_check(group, mu, tol=1e-6, cap=None):
    """Peripheral eigenvalues must be k-th roots of unity, k the first
    return time of the support walk to the identity."""
    if cap is None:
        cap = group.order
    k = min_return(mu, cap)
    if k is None:
        raise ValueError(
            f"support of the measure does not return to the identity within {cap} steps"
        )
    report = VerificationReport("root_of_unity")
    fixture = f"{group.name}"
    report.records.append(
        CheckRecord(fixture, "min_return", k, cap, True)
    )
    spec_report = spectrum(right_operator(group, mu))
    for lam in spec_report.peripheral:
        err = abs(lam**k - 1)
        report.records.append(
            CheckRecord(
                fixture,
                f"|lambda^{k} - 1| at {lam:.6f}",
                float(err),
                tol,
                bool(err <= tol),
            )
        )
    return report


def revuz_check(t1, t2, a, tol=1e-7):
    """Fixed vectors of a strict blend of commuting contractions are fixed
    by both contractions.

    Contractivity is certified in the spectral norm or, failing that, the
    max-row-sum norm (stochastic matrices contract the latter).  An empty
    fixed space is reported as a vacuous pass.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if not (0 < a < 1):
        raise ValueError(f"blend weight must satisfy 0 < a < 1, got {a}")
    for name, t in (("T1", t1), ("T2", t2)):
        spectral = operator_norm(t)
        row_sum = float(np.abs(t).sum(axis=1).max())
        if min(spectral, row_sum) > 1 + 1e-12:
            raise ValueError(
                f"{name} is not a contraction: spectral norm {spectral:.6f}, "
                f"row-sum norm {row_sum:.6f}"
            )
    comm = operator_norm(t1 @ t2 - t2 @ t1)
    if comm > 1e-12:
        raise ValueError(f"contractions do not commute: commutator norm {comm:.3e}")
    blend = a * t1 + (1 - a) * t2
    null_basis = float_nullspace(blend - np.eye(blend.shape[0]), tol=1e-9)
    report = VerificationReport("revuz")
    fixture = f"blend(a={a})"
    if null_basis.shape[1] == 0:
        report.records.append(
            CheckRecord(fixture, "fixed_space", 0, 0, True, note="no fixed points")
        )
        return report
    for i in range(null_basis.shape[1]):
        x = null_basis[:, i].real
        r1 = float(np.linalg.norm(t1 @ x - x))
        r2 = float(np.linalg.norm(t2 @ x - x))
        report.records.append(
            CheckRecord(fixture, f"fixed_vector_{i}_T1_residual", r1, tol, bool(r1 <= tol))
        )
        report.records.append(
            CheckRecord(fixture, f"fixed_vector_{i}_T2_residual", r2, tol, bool(r2 <= tol))
        )
    return report


@dataclass
class ExpBoundResult:
    n: int
    lhs: float
    rhs: float
    passed: bool
    stirling_ratio: float


def _exp_bound_rhs(n):
    # 2 n^n / (e^n n!) evaluated in log space to dodge overflow
    return 2.0 * math.exp(n * math.log(n) - n - math.lgamma(n + 1))


def exp_bound_check(t, n):
    """Certify ||(I - T) exp(-n(I - T))|| <= 2 n^n / (e^n n!) for a contraction."""
    if not isinstance(n, int) or not (1 <= n <= EXP_BOUND_MAX_N):
        raise ValueError(f"n must be an integer in 1..{EXP_BOUND_MAX_N}, got {n}")
    t = np.asarray(t, dtype=float)
    eye = np.eye(t.shape[0])
    lhs = operator_norm((eye - t) @ expm(-n * (eye - t)))
    rhs = _exp_bound_rhs(n)
    ratio = rhs * math.sqrt(2 * math.pi * n) / 2.0
    return ExpBoundResult(n, float(lhs), float(rhs), bool(lhs <= rhs + 1e-10), float(ratio))


def stirling_trend(ns=(10, 50, 100, 200)):
    """rhs * sqrt(2 pi n) / 2 for each n; the values drift toward 1."""
    return [(n, _exp_bound_rhs(n) * math.sqrt(2 * math.pi * n) / 2.0) for n in ns]


def alternating_group(n=4):
    """Even permutations of n symbols as an explicit-table group: the even
    rows of S_n in lexicographic order, tabled by one elementwise product
    and ranked among themselves."""
    sym = SymmetricGroup(n)
    i, j = np.triu_indices(n, 1)
    even = np.flatnonzero((sym._rows[:, i] > sym._rows[:, j]).sum(axis=1) % 2 == 0)
    require_dense_budget((even.size, even.size, n), 8, f"the A{n} table's composed rows")
    table = np.searchsorted(even, sym._products(even[:, None], even))
    return TableGroup(table.tolist(), name=f"A{n}")


def default_corpus_groups():
    groups = [CyclicGroup(n) for n in range(2, 17)]
    groups += [DihedralGroup(n) for n in range(3, 9)]
    groups += [SymmetricGroup(3), SymmetricGroup(4), QuaternionGroup(), alternating_group(4)]
    return groups


def random_symmetric_generating_measure(group, rng, max_pairs=4):
    """Seeded random symmetric generating measure with denominator <= 64.

    Samples up to max_pairs non-identity elements, closes the set under
    inverses (resampling until the closure generates the whole group), and
    assigns each inverse pair a weight in 1..7 so the total stays <= 64.
    The identity, included a quarter of the time, gets weight at most 3 to
    keep the lazy component small enough for the decay checks.
    """
    n = group.order
    for _ in range(1000):
        k = rng.randint(1, max_pairs)
        picks = rng.sample(range(1, n), min(k, n - 1))
        support = set(picks)
        if rng.random() < 0.25:
            support.add(group.identity)
        support |= {group.inv(g) for g in support}
        if len(support) > 8:
            continue
        if len(closure(group, support)) != n:
            continue
        weights = {}
        for g in sorted(support):
            if g == group.identity:
                weights[g] = rng.randint(1, 3)
                continue
            ginv = group.inv(g)
            if ginv in weights:
                weights[g] = weights[ginv]
            else:
                weights[g] = rng.randint(1, 7)
        total = sum(weights.values())
        return make_measure(
            group, [(g, Fraction(w, total)) for g, w in sorted(weights.items())]
        )
    raise FixtureConstructionError(
        f"failed to sample a symmetric generating measure on {group.name}"
    )


@dataclass
class CorpusSpec:
    """Which groups and how many seeded random measures per group."""

    groups: list = None
    measures_per_group: int = 20
    seed: int = 0

    def resolved_groups(self):
        return self.groups if self.groups is not None else default_corpus_groups()


def corpus_fixtures(spec=None):
    """Deterministic fixture list [(fixture_id, group, measure)]."""
    return list(_iter_corpus(spec))


def _iter_corpus(spec):
    """The corpus fixtures one at a time, so the suites that walk it drop
    each measure (and its memoised operators) after its checks."""
    spec = spec or CorpusSpec()
    for group in spec.resolved_groups():
        rng = random.Random(f"{spec.seed}|{group.name}")
        for i in range(spec.measures_per_group):
            fid = f"{group.name}/sym{i:02d}"
            try:
                mu = random_symmetric_generating_measure(group, rng)
            except FixtureConstructionError:
                raise
            except Exception as exc:  # construction must never fail silently
                raise FixtureConstructionError(f"{fid}: {exc}") from exc
            yield fid, group, mu


def nonsymmetric_fixtures():
    """Hand-picked non-symmetric generating measures for the root-of-unity
    check, each uniform on its support; on A4 the first three-cycle and the
    first double swap."""
    s3, s4, a4 = SymmetricGroup(3), SymmetricGroup(4), alternating_group(4)
    orders = a4._element_orders()
    a4_support = [int(np.flatnonzero(orders == k)[0]) for k in (3, 2)]
    cases = [
        (CyclicGroup(5), [1], "delta1"),
        (CyclicGroup(6), [1, 2], "nonsym"),
        (CyclicGroup(7), [1, 3], "nonsym"),
        (CyclicGroup(8), [1, 2], "nonsym"),
        (CyclicGroup(9), [1], "delta1"),
        (CyclicGroup(10), [1, 5], "nonsym"),
        (CyclicGroup(12), [3, 4], "nonsym"),
        (DihedralGroup(4), [1, 4], "nonsym"),
        (s3, [s3.index[(1, 0, 2)], s3.index[(1, 2, 0)]], "nonsym"),
        (s4, [s4.index[(1, 0, 2, 3)], s4.index[(1, 2, 3, 0)]], "nonsym"),
        (QuaternionGroup(), [2, 4], "nonsym"),
        (a4, a4_support, "nonsym"),
    ]
    return [(f"{group.name}/{name}", group, uniform(group, support)) for group, support, name in cases]


def fixture_theorem_checks(fixture_id, group, mu, lift=None):
    """All structural checks for one symmetric generating fixture.  Its
    walks are labelled and solved once and kept on mu; `lift` is its entry
    of `_lifts` when run_theorem_suite labelled the group's lifts."""
    if not (is_symmetric(mu) and is_generating(mu)):
        raise FixtureConstructionError(f"{fixture_id}: fixture must be symmetric and generating")
    records = []

    def record(quantity, value, threshold, passed, note=""):
        records.append(CheckRecord(fixture_id, quantity, value, threshold, passed, note))

    def exact(ok):
        return "exact" if ok else "violated"

    # peripheral eigenvalues sit at +-1
    peripheral = spectrum(right_operator(group, mu)).peripheral
    worst = max((min(abs(lam - 1), abs(lam + 1)) for lam in peripheral), default=0.0)
    record("peripheral_pm1", float(worst), 1e-8, bool(worst <= 1e-8))

    # jointly bi-harmonic functions split as constant + two-sided anti-harmonic
    bi_basis = jointly_biharmonic_space(group, mu)
    walks = (right_operator(group, mu), left_operator(group, mu))

    def splits(f):
        try:
            dec = decompose(f, mu)
        except (ValueError, ComputationError):
            return False
        minus = -dec.anti_part
        return dec.constant is not None and all(apply(op, dec.anti_part) == minus for op in walks)

    split_ok = all(splits(f) for f in bi_basis)
    record("biharmonic_split", exact(split_ok), "exact", split_ok, f"dim={len(bi_basis)}")

    # anti-harmonic functions exist iff a sign character is -1 on the support
    anti, har = anti_harmonic_space(group, mu), harmonic_space(group, mu)
    chi = find_anti_character(group, mu)
    found = f"anti_dim={len(anti)},character={'yes' if chi else 'no'}"
    record("anti_iff_character", found, "equivalent", (len(anti) > 0) == (chi is not None))
    if chi is not None:
        record("anti_dim_equals_har_dim", len(anti), len(har), len(anti) == len(har))
        factored = [factor_anti_harmonic(f, chi, mu) for f in anti]
        factor_ok = all(apply(walks[0], f1) == f1 for f1 in factored)
        record("anti_factors_through_character", exact(factor_ok), "exact", factor_ok)
    else:
        dims = f"anti_dim={len(anti)},bi_dim={len(bi_basis)}"
        trivial = len(anti) == 0 and len(bi_basis) == 1
        record("no_character_trivial_anti", dims, "anti_dim=0,bi_dim=1", trivial)

    # peripheral eigenvalues are k-th roots of unity for the first return time
    k = min_return(mu, group.order)
    if k is None:
        record("min_return", "none", group.order, False)
    else:
        worst = max((abs(lam**k - 1) for lam in peripheral), default=0.0)
        record(f"roots_of_unity_k={k}", float(worst), 1e-6, bool(worst <= 1e-6))

    # matrix-level: the fixed arrays of right o left on the squared walk's
    # lift, one per class, are each checked exactly to be fixed by each side
    if group.order <= OPERATOR_CHECK_MAX_ORDER:
        sides, classes = lift or _lifts(group, [mu])[0]
        columns = classes.basis(1, f"of the lift on {group.name}").T
        fixed = all(_certified([terms], columns, 1).all() for terms in sides)
        note = f"solutions={columns.shape[1]}"
        record("operator_jointly_fixed_is_fixed", exact(fixed), "exact", fixed, note)
    return records


def _lifts(group, measures):
    """(sides, classes) for the lift of nu = mu * mu of each measure (nu
    holds the identity, as mu is symmetric): the lifted right and left
    stencils and the classes of right o left, labelled in one call."""
    nus = [convolve(mu, mu) for mu in measures]
    sides = [[OperatorOnMatrices(group, nu, s).terms for s in ("right", "left")] for nu in nus]
    return list(zip(sides, component_kernel(sides, group.order**2, f"of the lift on {group.name}")))


def run_theorem_suite(corpus=None):
    """Theorem checks across the whole corpus; deterministic given the seed.
    One group at a time, its right walks, two-sided walks and lifts are
    labelled by one call per kind and its spectra solved by one call before
    fixture_theorem_checks emits each fixture's records in corpus order."""
    report = VerificationReport("theorems")
    for group, fixtures in itertools.groupby(_iter_corpus(corpus), key=lambda item: item[1]):
        fids, _, measures = zip(*fixtures)
        ops = [right_operator(group, mu) for mu in measures]
        label_walks(ops)
        two_sided_classes(group, measures)
        solve_spectra(ops)
        small = group.order <= OPERATOR_CHECK_MAX_ORDER
        lifts = _lifts(group, measures) if small else [None] * len(fids)
        for fid, mu, lift in zip(fids, measures, lifts):
            report.records.extend(fixture_theorem_checks(fid, group, mu, lift))
    for fid, group, mu in nonsymmetric_fixtures():
        sub = root_of_unity_check(group, mu)
        for rec in sub.records:
            rec.fixture = fid
        report.records.extend(sub.records)
    return report


def _parity_function(ball):
    """(-1)^length on a ball: the parity of the letters on every axis."""
    parity = ball.parity(np.ones(ball.family_key()[1], dtype=np.int64))
    return GroupFunction._from_numerators(ball, 1 - 2 * parity)


def ball_sign_records(fixture, ball, mu, f, expected_interior=None, suffix=""):
    """Records for f * mu = -f, mu * f = -f and mu * f * mu = f on a ball.

    Each identity is checked exactly on the interior of its own side.  The
    interior_size record compares the right interior with expected_interior,
    or only reports it when that is None; `suffix` extends the names of the
    two negation records.
    """
    right, right_interior = apply_truncated(ball, mu, f, "right")
    left, left_interior = apply_truncated(ball, mu, f, "left")
    both, both_interior = apply_truncated(ball, mu, right, "left")
    size = len(right_interior)
    records = [
        CheckRecord(
            fixture, "interior_size", size,
            ">= 0" if expected_interior is None else expected_interior,
            expected_interior is None or size == expected_interior,
        )
    ]
    both_note = f"interior={len(both_interior)}"
    for name, out, interior, sign, note in (
        (f"right_convolution_negates{suffix}", right, right_interior, -1, ""),
        (f"left_convolution_negates{suffix}", left, left_interior, -1, ""),
        ("two_sided_convolution_restores", both, both_interior, 1, both_note),
    ):
        ok = out.equals_on(f.scale(sign), interior)
        records.append(
            CheckRecord(fixture, name, "exact" if ok else "violated", "exact", ok, note=note)
        )
    return records


def _ball_sign_checks(records, fixture, ball, mu, expected_interior):
    f = _parity_function(ball)
    records.extend(ball_sign_records(fixture, ball, mu, f, expected_interior))
    chi = find_anti_character(ball, mu)
    chi_ok = chi is not None and chi.as_function() == f
    records.append(
        CheckRecord(
            fixture, "sign_character_found", "parity" if chi_ok else "missing", "parity", chi_ok,
        )
    )


def examples_suite():
    """The two canonical ball fixtures: the line and the rank-2 free group."""
    report = VerificationReport("examples")
    line = LatticeBall(1, 50)
    step = uniform(line, [line.index_of_form((1,)), line.index_of_form((-1,))])
    _ball_sign_checks(report.records, "Zball50", line, step, expected_interior=99)
    free = FreeBall(2, 6)
    gens = [
        free.index_of_form((1,)),
        free.index_of_form((-1,)),
        free.index_of_form((2,)),
        free.index_of_form((-2,)),
    ]
    free_step = uniform(free, gens)
    report.records.append(
        CheckRecord("F2ball6", "ball_size", free.order, 1457, free.order == 1457)
    )
    _ball_sign_checks(report.records, "F2ball6", free, free_step, expected_interior=485)
    return report


def foguel_suite(corpus=None):
    """Decay of tv(mu^n, mu^(n+1)) whenever the identity carries mass.

    Each corpus group's measures are walked together (`foguel_decays`);
    the records keep corpus order.
    """
    report = VerificationReport("foguel")
    for group, fixtures in itertools.groupby(_iter_corpus(corpus), key=lambda item: item[1]):
        fids, _, measures = zip(*fixtures)
        for fid, result in zip(fids, foguel_decays(group, measures)):
            in_range = all(-1e-12 <= d <= 1 + 1e-12 for d in result.distances)
            if result.identity_in_support:
                ok = in_range and result.first_below is not None
                report.records.append(
                    CheckRecord(
                        fid,
                        "tv_gap_reaches_eps",
                        result.first_below if result.first_below is not None else "never",
                        500,
                        ok,
                    )
                )
            else:
                report.records.append(
                    CheckRecord(
                        fid,
                        "tv_gap_in_unit_range",
                        "ok" if in_range else "out of range",
                        "[0, 1]",
                        in_range,
                        note="observation: identity not in support",
                    )
                )
    z4 = CyclicGroup(4)
    bipartite = uniform(z4, [1, 3])
    result = foguel_decay(z4, bipartite)
    stuck = all(d == 1.0 for d in result.distances)
    report.records.append(
        CheckRecord(
            "Z4/bipartite",
            "tv_gap_constant_one",
            "constant" if stuck else "decayed",
            "constant",
            stuck,
            note="observation: identity not in support",
        )
    )
    return report


def revuz_suite(seed=0, trials=100, corpus=None):
    """Random commuting stochastic pairs plus convolution-operator blends."""
    rng = np.random.default_rng(seed)
    report = VerificationReport("revuz")
    for trial in range(trials):
        dim = int(rng.integers(2, 13))
        raw = rng.random((dim, dim)) + 1e-3
        t2 = raw / raw.sum(axis=1, keepdims=True)
        t1 = (t2 + t2 @ t2) / 2.0
        a = float(rng.uniform(0.1, 0.9))
        sub = revuz_check(t1, t2, a)
        for rec in sub.records:
            rec.fixture = f"stochastic_pair_{trial:03d}"
        report.records.extend(sub.records)
    corpus = corpus or CorpusSpec(seed=seed)
    for fid, group, mu in _iter_corpus(corpus):
        if group.identity not in mu.weights:
            continue
        t1 = right_operator(group, mu).as_array()
        t2 = left_operator(group, mu).as_array()
        sub = revuz_check(t1, t2, 0.5)
        for rec in sub.records:
            rec.fixture = f"{fid}/sided_operators"
        report.records.extend(sub.records)
    return report


def stirling_suite(seed=0, trials=100):
    """Exp-bound certification for seeded contractions, plus the trend."""
    rng = np.random.default_rng(seed)
    report = VerificationReport("stirling")
    for trial in range(trials):
        dim = int(rng.integers(2, 13))
        raw = rng.standard_normal((dim, dim))
        scale = float(rng.uniform(0.5, 1.0))
        t = raw * (scale / operator_norm(raw))
        for n in (1, 10, 100):
            result = exp_bound_check(t, n)
            report.records.append(
                CheckRecord(
                    f"contraction_{trial:03d}",
                    f"exp_bound_n={n}",
                    result.lhs,
                    result.rhs,
                    result.passed,
                )
            )
    for n, ratio in stirling_trend():
        report.records.append(
            CheckRecord(
                "stirling_trend",
                f"ratio_n={n}",
                ratio,
                "0.9..1.1" if n == 200 else "monotone toward 1",
                (0.9 <= ratio <= 1.1) if n == 200 else True,
            )
        )
    return report


SUITE_NAMES = ("all", "theorems", "foguel", "revuz", "stirling", "examples")


def verify_suite(name, seed=0):
    """Build the named verification report; `all` concatenates every suite."""
    if name == "examples":
        return examples_suite()
    if name == "theorems":
        return run_theorem_suite(CorpusSpec(seed=seed))
    if name == "foguel":
        return foguel_suite(CorpusSpec(seed=seed))
    if name == "revuz":
        return revuz_suite(seed=seed)
    if name == "stirling":
        return stirling_suite(seed=seed)
    if name == "all":
        report = VerificationReport("all")
        for sub in ("examples", "theorems", "foguel", "revuz", "stirling"):
            report.extend(verify_suite(sub, seed=seed))
        return report
    raise ValueError(f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}")
