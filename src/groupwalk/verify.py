"""Machine checks for the structural claims behind the convolution walks.

Each check emits CheckRecords collected into a VerificationReport.  The
default corpus covers small cyclic, dihedral, symmetric, quaternion, and
alternating groups with seeded random symmetric generating measures.  The
theorem, foguel and revuz suites share one pass over it: each group's
measures are sampled once, and the pass emits the group's revuz records and
its theorem records from one batch over all its measures (one labelling
call per kind of walk, one spectral pass, and each exact certificate run
once on a stack of the group's walks through `operators._gather`), and
keeps only the left walks and weights of its measures.  After the pass one
foguel walk runs every group's measures side by side, with no dense
operator.  The stirling suite's exp bound takes its matrix exponential from
linalg.expm, a scaling and squaring Padé approximant in numpy, so numpy is
the only dependency at run time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    QuaternionGroup,
    SymmetricGroup,
    closure,
    generating_set,
)
from .harmonic import find_anti_character, two_sided_classes
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
    PERIPHERAL_TOL,
    GroupFunction,
    _apply_truncated,
    _fit,
    _gather,
    _lifted,
    _max_abs,
    _require_tolerance,
    _stacked,
    _two_sided,
    component_kernel,
    label_walks,
    left_operator,
    require_dense_budget,
    right_operator,
    spectra,
    spectrum,
)

EXP_BOUND_MAX_N = 500
OPERATOR_CHECK_MAX_ORDER = 8
MAX_PAIRS = 4  # inverse pairs a corpus measure samples, unless the group needs more generators
TRIALS = 100  # seeded random matrices of the revuz and stirling suites
ROOT_OF_UNITY_TOL = 1e-6  # |lambda^k - 1| of a peripheral eigenvalue
REVUZ_TOL = 1e-7  # residual |T x - x| of a fixed vector of the blend
STIRLING_NS = (10, 50, 100, 200)  # the n of the stirling trend

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
        fields = ("fixture", "quantity", "value", "threshold", "passed")
        return cls(obj["suite"], [CheckRecord(*(c[f] for f in fields), c.get("note", "")) for c in obj["checks"]])

    def summary_lines(self):
        return [r.summary_line() for r in self.records]


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
    """foguel_decay for several measures on one group, in one walk
    (`_foguel_walk`); eps must be finite and > 0, n_max an int >= 1, measures non-empty."""
    _require_tolerance("eps", eps)
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError(f"n_max must be an int >= 1, got {n_max!r}")
    if not len(measures):
        raise ValueError("measures must hold at least one measure")
    [(gaps, first)] = _foguel_walk([_foguel_block(group, measures)], eps, n_max, group.name)
    return [
        FoguelDecayResult(gaps[:, j].tolist(), first[j] or None, group.identity in mu.weights)
        for j, mu in enumerate(measures)
    ]


def _foguel_block(group, measures):
    """(group, [(left walk, weights)]): what the foguel walk reads of
    measures on group, so that their memos (labellings, spectra and lifts)
    need not be kept."""
    return group, [(left_operator(group, mu).stencil(), mu.weights) for mu in measures]


FOGUEL_CHUNK = 10  # steps of differences buffered between two gap reductions


def _foguel_walk(blocks, eps, n_max, where):
    """(gaps, first) per `_foguel_block`: its n_max x m gaps and each
    measure's first step with a gap <= eps (0 for none), from one walk of
    the powers of every block's measures side by side.  A step nu -> mu * nu
    reads (mu * nu)(x) = sum_h mu(h) nu(h^-1 x) through the inverse of each
    left walk permutation (term k in row k) and adds the terms in walk
    order, as `operators._gather` does; shorter walks are padded
    at the end with weight-0 terms, which leave every sum bit-identical.  Each gap
    is the last-axis np.add.reduce of a measure's n differences in a buffer
    of FOGUEL_CHUNK steps: numpy's pairwise sum over that row, as when the
    measure walks alone."""
    walks = [entry for _, entries in blocks for entry in entries]  # (left walk, weights)
    s, total = max(len(walk.perms) for walk, _ in walks), sum(walk.n for walk, _ in walks)
    # index, weight and term tables, two powers, the buffered differences, the gaps
    shape = ((3 * s + 2 + FOGUEL_CHUNK) * total + len(walks) * n_max,)
    require_dense_budget(shape, 8, f"the foguel walk on {where}")
    index, weights = np.zeros((s, total), dtype=np.int64), np.zeros((s, total))
    current, a = np.zeros(total), 0
    for walk, start in walks:
        for k, (w, perm) in enumerate(zip(walk.weights, walk.perms)):
            index[k, a + perm] = np.arange(a, a + walk.n)
            weights[k, a : a + walk.n] = w
        for h, w in start.items():
            current[a + h] = float(w)
        a += walk.n
    nxt, diffs = np.empty(total), np.empty((FOGUEL_CHUNK, total))
    gaps = [np.empty((n_max, len(entries))) for _, entries in blocks]
    for step in range(n_max):
        terms = current[index]
        np.multiply(terms, weights, out=terms)
        np.add.reduce(terms, axis=0, out=nxt)
        row = diffs[step % FOGUEL_CHUNK]
        np.abs(np.subtract(current, nxt, out=row), out=row)
        current, nxt = nxt, current
        rows = step % FOGUEL_CHUNK + 1
        if rows == FOGUEL_CHUNK or step == n_max - 1:
            a = 0
            for (group, entries), out in zip(blocks, gaps):
                m, n = len(entries), group.order
                chunk = diffs[:rows, a : a + m * n].reshape(rows, m, n)
                np.add.reduce(chunk, axis=-1, out=out[step + 1 - rows : step + 1])
                a += m * n
    results = []
    for out in gaps:
        out *= 0.5
        below = out <= eps
        results.append((out, np.where(below.any(axis=0), below.argmax(axis=0) + 1, 0).tolist()))
    return results


def root_of_unity_check(group, mu):
    """Peripheral eigenvalues must be k-th roots of unity, k the first
    return time of the support walk to the identity, at most |G|
    (`min_return`): |G| is the min_return record's threshold."""
    k = min_return(mu)
    records = [CheckRecord(group.name, "min_return", k, group.order, True)]
    for lam in spectrum(right_operator(group, mu)).peripheral:
        err = abs(lam**k - 1)
        quantity = f"|lambda^{k} - 1| at {lam:.6f}"
        records.append(CheckRecord(group.name, quantity, float(err), ROOT_OF_UNITY_TOL, bool(err <= ROOT_OF_UNITY_TOL)))
    return VerificationReport("root_of_unity", records)


def revuz_check(t1, t2, a):
    """Fixed vectors of a strict blend of commuting contractions are fixed
    by both contractions.

    Contractivity is certified in the spectral norm or, failing that, the
    max-row-sum norm (stochastic matrices contract the latter).  An empty
    fixed space is reported as a vacuous pass.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not (0 < a < 1):
        raise ValueError(f"blend weight must satisfy 0 < a < 1, got {a}")
    for name, t in (("T1", t1), ("T2", t2)):
        row_sum = float(np.abs(t).sum(axis=1).max())  # certifies stochastic matrices with no SVD
        if not row_sum <= 1 + 1e-12 and (spectral := operator_norm(t)) > 1 + 1e-12:
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
        report.records.append(CheckRecord(fixture, "fixed_space", 0, 0, True, note="no fixed points"))
    for i in range(null_basis.shape[1]):
        x = null_basis[:, i].real
        for name, t in (("T1", t1), ("T2", t2)):
            r = float(np.linalg.norm(t @ x - x))
            quantity = f"fixed_vector_{i}_{name}_residual"
            report.records.append(CheckRecord(fixture, quantity, r, REVUZ_TOL, bool(r <= REVUZ_TOL)))
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
    if isinstance(n, bool) or not isinstance(n, int) or not (1 <= n <= EXP_BOUND_MAX_N):
        raise ValueError(f"n must be an integer in 1..{EXP_BOUND_MAX_N}, got {n}")
    t = np.asarray(t, dtype=float)
    eye = np.eye(t.shape[0])
    lhs = operator_norm((eye - t) @ expm(-n * (eye - t)))
    rhs = _exp_bound_rhs(n)
    ratio = rhs * math.sqrt(2 * math.pi * n) / 2.0
    return ExpBoundResult(n, float(lhs), float(rhs), bool(lhs <= rhs + 1e-10), float(ratio))


def stirling_trend():
    """rhs * sqrt(2 pi n) / 2 for each n of STIRLING_NS; the values drift toward 1."""
    return [(n, _exp_bound_rhs(n) * math.sqrt(2 * math.pi * n) / 2.0) for n in STIRLING_NS]


def default_corpus_groups():
    groups = [CyclicGroup(n) for n in range(2, 17)]
    groups += [DihedralGroup(n) for n in range(3, 9)]
    groups += [SymmetricGroup(3), SymmetricGroup(4), QuaternionGroup(), AlternatingGroup(4)]
    return groups


def random_symmetric_generating_measure(group, rng):
    """Seeded random symmetric generating measure, denominator <= 14 p.

    Samples up to p = max(MAX_PAIRS, r) non-identity elements, r the rank
    of the sign characters (`sign_vectors`; Z2^r needs r generators),
    closes the set under inverses (resampling until it has at most 2 p
    elements and generates the group), and gives each inverse pair a weight
    in 1..7.  The identity, included a quarter of the time, gets weight at
    most 3 to keep the lazy component small enough for the decay checks.
    """
    n = group.order
    pairs = MAX_PAIRS
    if len(generating_set(group)) > MAX_PAIRS:  # r is at most the greedy |T|
        pairs = max(pairs, len(group.sign_vectors()).bit_length() - 1)
    for _ in range(1000):
        k = rng.randint(1, pairs)
        picks = rng.sample(range(1, n), min(k, n - 1))
        support = set(picks)
        if rng.random() < 0.25:
            support.add(group.identity)
        support |= {group.inv(g) for g in support}
        if len(support) > 2 * pairs:
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
    """The corpus fixtures one at a time: the one pass of the corpus suites
    samples each measure once and drops a group's measures (and their
    memoised operators) before the next group."""
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
    s3, s4, a4 = SymmetricGroup(3), SymmetricGroup(4), AlternatingGroup(4)
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
        (s3, [s3.perms.index((1, 0, 2)), s3.perms.index((1, 2, 0))], "nonsym"),
        (s4, [s4.perms.index((1, 0, 2, 3)), s4.perms.index((1, 2, 3, 0))], "nonsym"),
        (QuaternionGroup(), [2, 4], "nonsym"),
        (a4, a4_support, "nonsym"),
    ]
    return [(f"{group.name}/{name}", group, uniform(group, support)) for group, support, name in cases]


def fixture_theorem_checks(fixture_id, group, mu):
    """All structural checks for one symmetric generating fixture."""
    return _theorem_records([fixture_id], group, [mu])


def _theorem_records(fids, group, measures):
    """The theorem records of symmetric generating fixtures on one group, in
    fixture order, from one pass: one labelling call per kind of walk (right,
    two-sided and, at order <= OPERATOR_CHECK_MAX_ORDER, lift), one `spectra`
    pass, and each identity as one exact column check over every walk's
    basis side by side (`operators._stacked`): `_splits` on the two-sided class
    indicators, `_certified` on the -1 arrays times chi (harmonic exactly
    when each anti-harmonic f is f1 * chi with f1 harmonic) and on each lift
    side's fixed arrays.  A wrong character fails records; it raises nothing."""
    ops = [right_operator(group, mu) for mu in measures]
    label_walks(ops)
    for fid, mu in zip(fids, measures):
        if not (mu.exact and is_symmetric(mu) and is_generating(mu)):
            raise FixtureConstructionError(f"{fid}: fixture must be exact, symmetric and generating")
    n, where = group.order, f"on {group.name}"
    two_sided = two_sided_classes(group, measures)
    lifts = _lifts(group, measures) if n <= OPERATOR_CHECK_MAX_ORDER else []
    reports = spectra(ops)
    right = _stacked([op.stencil() for op in ops])
    left = _stacked([left_operator(group, mu).stencil() for mu in measures])
    indicators = _columns([walk.basis(1, f"of the two-sided walk {where}") for walk in two_sided])
    split = _splits(right, left, indicators)
    chars = [find_anti_character(group, mu) for mu in measures]
    factors = [op.classes().basis(-1, where) * (chi.values if chi else 0) for op, chi in zip(ops, chars)]
    checks = [split, _certified(right, _columns(factors), 1)]
    if lifts:
        sides, classes = zip(*lifts)
        columns = _columns([walk.basis(1, f"of the lift {where}") for walk in classes])
        checks.append(np.logical_and(*(_certified(_stacked(side), columns, 1) for side in zip(*sides))))
    oks = np.array([check.all(axis=1) for check in checks]).T.tolist()  # split, factor[, lift]
    records = []
    for j, (fid, mu, op, report, chi) in enumerate(zip(fids, measures, ops, reports, chars)):
        split_ok, factor_ok, *fixed = oks[j]

        def record(*fields):
            records.append(CheckRecord(fid, *fields))

        # peripheral eigenvalues sit at +-1
        worst = max((min(abs(lam - 1), abs(lam + 1)) for lam in report.peripheral), default=0.0)
        record("peripheral_pm1", float(worst), PERIPHERAL_TOL, bool(worst <= PERIPHERAL_TOL))
        # jointly bi-harmonic functions split as constant + two-sided anti-harmonic
        bi_dim = two_sided[j].count(1)
        record("biharmonic_split", _EXACT[split_ok], "exact", split_ok, f"dim={bi_dim}")
        # anti-harmonic functions exist iff a sign character is -1 on the support
        anti_dim, har_dim = op.classes().count(-1), op.classes().count(1)
        found = f"anti_dim={anti_dim},character={'yes' if chi else 'no'}"
        record("anti_iff_character", found, "equivalent", (anti_dim > 0) == (chi is not None))
        if chi is not None:
            record("anti_dim_equals_har_dim", anti_dim, har_dim, anti_dim == har_dim)
            record("anti_factors_through_character", _EXACT[factor_ok], "exact", factor_ok)
        else:
            dims, trivial = f"anti_dim={anti_dim},bi_dim={bi_dim}", anti_dim == 0 and bi_dim == 1
            record("no_character_trivial_anti", dims, "anti_dim=0,bi_dim=1", trivial)
        # peripheral eigenvalues are k-th roots of unity for the first return time k
        k = min_return(mu)
        worst = max((abs(lam**k - 1) for lam in report.peripheral), default=0.0)
        record(f"roots_of_unity_k={k}", float(worst), ROOT_OF_UNITY_TOL, bool(worst <= ROOT_OF_UNITY_TOL))
        # matrix-level: the fixed arrays of right o left on the squared walk's
        # lift, one per class, are each checked exactly to be fixed by each side
        if fixed:
            note = f"solutions={classes[j].count(1)}"
            record("operator_jointly_fixed_is_fixed", _EXACT[fixed[0]], "exact", fixed[0], note)
    return records


_EXACT = {True: "exact", False: "violated"}


def _columns(bases):
    """Each walk's integer basis rows as columns, one block per walk (walks x
    nodes x columns), zero-padded (zero columns pass every homogeneous check)."""
    n, width = bases[0].shape[1], max(len(basis) for basis in bases)
    out = np.zeros((len(bases), n, width), dtype=np.int64)
    for block, basis in zip(out, bases):
        block[:, : len(basis)] = basis.T
    return out


def _certified(stack, cols, lam):
    """(walks, columns) array: whether P v = lam v exactly on each walk's
    nodes, for the stacked walks P (`operators._stacked`) and each integer
    column v of cols[j] on walk j's nodes (walks x nodes x columns)."""
    image, den = _gather(stack, cols.reshape(stack.n, -1), 1)
    return (image == lam * den * _fit(cols, _max_abs(den) * _max_abs(cols))).all(axis=1)


def _splits(right, left, cols):
    """(walks, columns) array: for each column f of cols[j] on walk j's
    nodes (walks x nodes x columns), whether decompose(f, mu_j) splits it
    into a constant and a two-sided anti-harmonic part, given the stacked
    right walks P and left walks L: P^2 f = f, L P f = f, t0 = (f + P f)/2
    is constant, and P t1 = L t1 = -t1 for t1 = (f - P f)/2.  A constant t0
    gives P f = 2 t0 - f, so P^2 f = f and P t1 = -t1, and then L t1 = -t1
    exactly when L P f = f: two exact checks cover the five identities,
    each on all columns at once.  Each identity is linear and homogeneous,
    so a column may be any multiple of its function (a numerator array over
    any denominator), and the columns of a basis all pass exactly when its
    whole span does."""
    image, den = _gather(right, cols.reshape(right.n, -1), 1)  # P f = image / den
    scaled = _fit(cols, 2 * _max_abs(den) * max(_max_abs(cols), 1)) * den
    twice_t0 = scaled + image  # 2 den t0
    constant = (twice_t0 == twice_t0[:, :1]).all(axis=1)
    return constant & _certified(left, scaled - image, -1)  # 2 den t1


def _lifts(group, measures):
    """(walks, classes) for nu = mu * mu of each measure: nu's [right, left]
    stencils, built in one call and lifted (`operators._lifted`), and the
    classes of right o left, labelled in one call."""
    pairs = _two_sided(group, [convolve(mu, mu) for mu in measures])  # [left, right] each
    walks = [[_lifted(step, f"the lifted stencil on {group.name}") for step in pair[::-1]] for pair in pairs]
    return list(zip(walks, component_kernel(walks, f"of the lift on {group.name}")))


def _renamed(report, fixture):
    """The records of a report, each renamed to fixture."""
    for rec in report.records:
        rec.fixture = fixture
    return report.records


def _foguel_records(blocks):
    """The foguel records from one walk of every corpus group's block
    (blocks holds (fixture ids, `_foguel_block`) in corpus order), then the
    bipartite Z4 control, whose gaps stay at 1."""
    records, note = [], "observation: identity not in support"
    walked = _foguel_walk([block for _, block in blocks], 1e-6, 500, "the corpus")
    for (fids, (group, entries)), (gaps, first) in zip(blocks, walked):
        in_range = ((gaps >= -1e-12) & (gaps <= 1 + 1e-12)).all(axis=0).tolist()
        for fid, (_, start), ok, k in zip(fids, entries, in_range, first):
            if group.identity in start:
                reached = ok and k > 0
                records.append(CheckRecord(fid, "tv_gap_reaches_eps", k or "never", 500, reached))
            else:
                value = "ok" if ok else "out of range"
                records.append(CheckRecord(fid, "tv_gap_in_unit_range", value, "[0, 1]", ok, note))
    z4 = CyclicGroup(4)
    stuck = all(d == 1.0 for d in foguel_decay(z4, uniform(z4, [1, 3])).distances)
    value = "constant" if stuck else "decayed"
    control = CheckRecord("Z4/bipartite", "tv_gap_constant_one", value, "constant", stuck, note)
    return records + [control]


def _revuz_trials(seed):
    """revuz_check on TRIALS seeded random commuting stochastic pairs."""
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(TRIALS):
        dim = int(rng.integers(2, 13))
        raw = rng.random((dim, dim)) + 1e-3
        t2 = raw / raw.sum(axis=1, keepdims=True)
        t1 = (t2 + t2 @ t2) / 2.0
        a = float(rng.uniform(0.1, 0.9))
        records += _renamed(revuz_check(t1, t2, a), f"stochastic_pair_{trial:03d}")
    return records


CORPUS_SUITES = ("theorems", "foguel", "revuz")


def _corpus_suites(names, corpus=None):
    """{name: report} for the named corpus suites, from one pass over the
    corpus (CorpusSpec() by default) that samples each measure once.  Per
    group: `_theorem_records` emits the theorem records of all its
    fixtures, the lazy fixtures get their revuz records, and the foguel
    block is kept for one walk after the pass.  Each suite keeps its order:
    theorems, then the non-symmetric fixtures; foguel, then the Z4 control;
    the TRIALS stochastic revuz pairs, drawn from the corpus seed, then the
    revuz corpus."""
    corpus = corpus or CorpusSpec()
    records, blocks = {name: [] for name in names}, []
    fixtures = _iter_corpus(corpus)
    for group, batch in itertools.groupby(fixtures, key=lambda item: item[1]):
        fids, _, measures = zip(*batch)
        if "theorems" in names:
            records["theorems"] += _theorem_records(fids, group, measures)
        if "foguel" in names:
            blocks.append((fids, _foguel_block(group, measures)))
        if "revuz" in names:
            for fid, mu in zip(fids, measures):
                if group.identity in mu.weights:
                    t1, t2 = (op(group, mu).as_array() for op in (right_operator, left_operator))
                    records["revuz"] += _renamed(revuz_check(t1, t2, 0.5), f"{fid}/sided_operators")
    if "theorems" in names:
        for fid, group, mu in nonsymmetric_fixtures():
            records["theorems"] += _renamed(root_of_unity_check(group, mu), fid)
    if "foguel" in names:
        records["foguel"] = _foguel_records(blocks)
    if "revuz" in names:
        records["revuz"][:0] = _revuz_trials(corpus.seed)
    return {name: VerificationReport(name, records[name]) for name in names}


def run_theorem_suite(corpus=None):
    """Theorem checks across the whole corpus; deterministic given the seed."""
    return _corpus_suites(("theorems",), corpus)["theorems"]


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
    right, right_interior = _apply_truncated(ball, mu, f, "right")
    left, left_interior = _apply_truncated(ball, mu, f, "left")
    both, both_interior = _apply_truncated(ball, mu, right, "left")
    size, expected = len(right_interior), ">= 0" if expected_interior is None else expected_interior
    records = [CheckRecord(fixture, "interior_size", size, expected, expected_interior in (None, size))]
    both_note = f"interior={len(both_interior)}"
    for name, out, interior, sign, note in (
        (f"right_convolution_negates{suffix}", right, right_interior, -1, ""),
        (f"left_convolution_negates{suffix}", left, left_interior, -1, ""),
        ("two_sided_convolution_restores", both, both_interior, 1, both_note),
    ):
        ok = out.equals_on(f.scale(sign), interior)
        records.append(CheckRecord(fixture, name, _EXACT[ok], "exact", ok, note=note))
    return records


def _ball_sign_checks(records, fixture, ball, mu, expected_interior):
    f = _parity_function(ball)
    records.extend(ball_sign_records(fixture, ball, mu, f, expected_interior))
    chi = find_anti_character(ball, mu)
    chi_ok = chi is not None and chi.as_function() == f
    found = "parity" if chi_ok else "missing"
    records.append(CheckRecord(fixture, "sign_character_found", found, "parity", chi_ok))


def examples_suite():
    """The two canonical ball fixtures: the line and the rank-2 free group."""
    report = VerificationReport("examples")
    line = LatticeBall(1, 50)
    step = uniform(line, [line.index_of_form((1,)), line.index_of_form((-1,))])
    _ball_sign_checks(report.records, "Zball50", line, step, expected_interior=99)
    free = FreeBall(2, 6)
    free_step = uniform(free, [free.index_of_form((letter,)) for letter in (1, -1, 2, -2)])
    report.records.append(
        CheckRecord("F2ball6", "ball_size", free.order, 1457, free.order == 1457)
    )
    _ball_sign_checks(report.records, "F2ball6", free, free_step, expected_interior=485)
    return report


def foguel_suite(corpus=None):
    """tv(mu^n, mu^(n+1)) over the corpus in one walk, plus the Z4 control."""
    return _corpus_suites(("foguel",), corpus)["foguel"]


def revuz_suite(corpus=None):
    """TRIALS random commuting stochastic pairs, seeded by the corpus seed,
    plus convolution-operator blends over the corpus."""
    return _corpus_suites(("revuz",), corpus)["revuz"]


def stirling_suite(seed=0):
    """Exp-bound certification for TRIALS seeded contractions, plus the trend."""
    rng = np.random.default_rng(seed)
    report = VerificationReport("stirling")
    for trial in range(TRIALS):
        dim = int(rng.integers(2, 13))
        raw = rng.standard_normal((dim, dim))
        scale = float(rng.uniform(0.5, 1.0))
        t = raw * (scale / operator_norm(raw))
        for n in (1, 10, 100):
            result = exp_bound_check(t, n)
            fixture = f"contraction_{trial:03d}"
            report.records.append(CheckRecord(fixture, f"exp_bound_n={n}", result.lhs, result.rhs, result.passed))
    for n, ratio in stirling_trend():
        bound, ok = ("0.9..1.1", 0.9 <= ratio <= 1.1) if n == 200 else ("monotone toward 1", True)
        report.records.append(CheckRecord("stirling_trend", f"ratio_n={n}", ratio, bound, ok))
    return report


SUITE_NAMES = ("all", "theorems", "foguel", "revuz", "stirling", "examples")


def verify_suite(name, seed=0):
    """Build the named verification report; `all` concatenates every suite,
    its corpus suites from one pass over the corpus."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}")
    names = ("examples", *CORPUS_SUITES, "stirling") if name == "all" else (name,)
    corpus = [n for n in names if n in CORPUS_SUITES]
    reports = {"examples": examples_suite()} if "examples" in names else {}  # run in report order
    reports.update(_corpus_suites(corpus, CorpusSpec(seed=seed)) if corpus else {})
    if "stirling" in names:
        reports["stirling"] = stirling_suite(seed=seed)
    if name != "all":
        return reports[name]
    return VerificationReport("all", [rec for sub in names for rec in reports[sub].records])
