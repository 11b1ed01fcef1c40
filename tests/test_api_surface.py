"""The public API's shape: the signature of every callable that
`groupwalk.__all__` exports, and the base class of each exported exception,
whose signature inspect cannot read.  A change that adds, drops or renames a
parameter or an export changes SURFACE here, where it is reviewed."""

import inspect

import groupwalk

SURFACE = {
    'AlternatingGroup': '(n)',
    'ConstructionError': 'exception, a ValueError',
    'CyclicGroup': '(n)',
    'DihedralGroup': '(n)',
    'FreeBall': '(rank, radius)',
    'GroupSpec': "(kind: 'str', n: 'int | None' = None, rank: 'int | None' = None, dim: 'int | None' = None, radius: 'int | None' = None, table: 'tuple | None' = None, factors: 'tuple | None' = None) -> None",
    'LatticeBall': '(dim, radius)',
    'ProductGroup': '(factors)',
    'QuaternionGroup': '()',
    'SymmetricGroup': '(n)',
    'TableGroup': "(table, name='table')",
    'build_group': '(spec)',
    'closure': '(group, seed_elements)',
    'format_element': '(group, a)',
    'parse_element': '(group, text)',
    'GroupMeasure': '(group, weights, exact)',
    'MeasureError': 'exception, a ValueError',
    'convolve': '(mu, nu)',
    'delta': '(group, g)',
    'is_generating': '(mu)',
    'is_symmetric': '(mu)',
    'make_measure': '(group, entries)',
    'measure_from_json': '(group, entries)',
    'measure_to_json': '(mu)',
    'min_return': '(mu)',
    'power': '(mu, n)',
    'tv_distance': '(mu, nu)',
    'uniform': '(group, elements)',
    'ComputationError': 'exception, a RuntimeError',
    'ConvolutionOperator': '(group, measure, side)',
    'GroupFunction': '(group, values)',
    'OperatorOnMatrices': '(group, measure, side)',
    'SpectralReport': "(eigenvalues: 'list', peripheral: 'list') -> None",
    'apply': '(op, f)',
    'apply_truncated': '(group, mu, f, side)',
    'conditional_expectation': '(group, T)',
    'eigen_operator_to_function': '(T, lam, mu, tol=1e-09)',
    'eigenspace': '(op, lam, tol=1e-09)',
    'fourier_coefficient': '(group, T, g)',
    'left_operator': '(group, mu)',
    'right_operator': '(group, mu)',
    'spectrum': '(op, tol=1e-09)',
    'BoundaryBasis': "(group: 'object', measure: 'object', functions: 'list', tags: 'list', table: 'list', dimension: 'int') -> None",
    'Character': "(group: 'object', values: 'list') -> None",
    'Decomposition': "(f: 'GroupFunction', harmonic_part: 'GroupFunction', anti_part: 'GroupFunction', constant: 'object' = None) -> None",
    'anti_harmonic_space': "(group, mu, side='right')",
    'character_from_extremal': '(f, mu, tol=1e-09)',
    'decompose': '(f, mu, tol=1e-09)',
    'diamond': '(mu, f1, lam1, f2, lam2, tol=1e-09)',
    'factor_anti_harmonic': '(f, chi, mu, tol=1e-09)',
    'find_anti_character': '(group, mu)',
    'harmonic_space': "(group, mu, side='right')",
    'jensen_margins': '(f, mu)',
    'jointly_biharmonic_space': '(group, mu)',
    'monotone_abs_check': '(f, mu, n_steps, tol=1e-09)',
    'peripheral_boundary': '(group, mu)',
    'CheckRecord': "(fixture: 'str', quantity: 'str', value: 'object', threshold: 'object', passed: 'bool', note: 'str' = '') -> None",
    'CorpusSpec': "(groups: 'list' = None, measures_per_group: 'int' = 20, seed: 'int' = 0) -> None",
    'VerificationReport': "(suite: 'str', records: 'list' = <factory>) -> None",
    'corpus_fixtures': '(spec=None)',
    'exp_bound_check': '(t, n)',
    'foguel_decay': '(group, mu, eps=1e-06, n_max=500)',
    'revuz_check': '(t1, t2, a)',
    'root_of_unity_check': '(group, mu)',
    'run_theorem_suite': '(corpus=None)',
    'stirling_trend': '()',
    'verify_suite': '(name, seed=0)',
}


def _surface():
    out = {}
    for name in groupwalk.__all__:
        obj = getattr(groupwalk, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            out[name] = f"exception, a {obj.__mro__[1].__name__}"
        elif callable(obj):
            out[name] = str(inspect.signature(obj))
    return out


def test_every_public_callable_keeps_its_pinned_signature():
    assert _surface() == SURFACE
