import ast
import importlib.util
import math
import sys
import threading
from itertools import chain, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewens_stein
from ewens_stein import oracle
from ewens_stein.ewens import EwensParams, c1_moments, ewens_pmf, rising_factorial
from ewens_stein.oracle import (
    ATOM_MERGE_TOL,
    MAX_MARGINAL_N,
    DiscreteLaw,
    Permutation,
    _sn_columns,
    enumerate_permutations,
    exact_expectation,
    exact_square_bias_law,
    exact_statistic_law,
)
from ewens_stein.statistic import DegenerateError


def test_enumerate_count_and_order():
    perms = list(enumerate_permutations(4))
    assert len(perms) == 24
    assert perms[0].image == (1, 2, 3, 4)
    assert perms[-1].image == (4, 3, 2, 1)
    images = [p.image for p in perms]
    assert images == sorted(images)
    with pytest.raises(ValueError, match="capped at n <= 8"):
        next(enumerate_permutations(9))


def test_discrete_law_basic():
    law = DiscreteLaw([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
    assert law.values == (-1.0, 1.0)
    assert law.probs == (0.5, 0.5)
    assert len(law) == 2
    assert law.total_mass() == pytest.approx(1.0)
    assert law.mean() == pytest.approx(0.0)
    assert law.variance() == pytest.approx(1.0)
    assert law.expectation(lambda v: v * v) == pytest.approx(1.0)
    assert law.atoms == ((-1.0, 0.5), (1.0, 0.5))


@pytest.mark.parametrize(
    "values", [[1.0, -1.0, 1.0], [(1.0, 0.0), (-1.0, 2.0), (1.0, 0.0)]]
)
def test_discrete_law_keeps_read_only_arrays(values):
    law = DiscreteLaw(values, [0.25, 0.5, 0.25])
    vals, probs = law.values_array(), law.probs_array()
    # the stored arrays themselves, not conversions
    assert vals is law.values_array() and probs is law.probs_array()
    assert vals.dtype == probs.dtype == np.float64
    assert not vals.flags.writeable and not probs.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 5.0
    assert law.probs == tuple(probs.tolist()) == (0.5, 0.5)
    expected = tuple(map(tuple, vals.tolist())) if vals.ndim == 2 else tuple(vals.tolist())
    assert law.values == expected


def test_discrete_law_merges_near_ties():
    eps = 1e-14
    law = DiscreteLaw([2.0, 2.0 + eps, 3.0], [0.5, 0.25, 0.25])
    assert len(law) == 2
    assert law.probs == (0.75, 0.25)


def greedy_merge_reference(values, probs, normalize=False):
    """Atoms merged one at a time in sorted order: a new atom starts when a
    value is more than the tolerance (in any coordinate) from the current
    atom's first value; each atom's mass is the fsum of its parts."""
    def close(a, b):
        if isinstance(a, tuple):
            return all(abs(x - y) <= ATOM_MERGE_TOL for x, y in zip(a, b))
        return abs(a - b) <= ATOM_MERGE_TOL

    merged_values, groups = [], []
    for value, prob in sorted(zip(values, probs), key=lambda vp: vp[0]):
        if merged_values and close(merged_values[-1], value):
            groups[-1].append(prob)
        else:
            merged_values.append(value)
            groups.append([prob])
    merged_probs = [math.fsum(group) for group in groups]
    if normalize:
        total = math.fsum(merged_probs)
        merged_probs = [p / total for p in merged_probs]
    return tuple(merged_values), tuple(merged_probs)


def assert_same_atoms_as_greedy(values, probs, normalize=False):
    law = DiscreteLaw(values, probs, normalize=normalize)
    ref_values, ref_probs = greedy_merge_reference(values, probs, normalize)
    assert law.values == ref_values
    assert law.probs == ref_probs
    return law


def test_discrete_law_tie_run_wider_than_tolerance_is_split_greedily():
    # consecutive gaps are within the tolerance but the run spans 1.8e-12:
    # the greedy rule restarts at 1.2e-12
    values = [1.8e-12, 0.0, 1.2e-12, 0.6e-12, 5.0]
    probs = [0.1, 0.2, 0.3, 0.15, 0.25]
    law = assert_same_atoms_as_greedy(values, probs)
    assert law.values == (0.0, 1.2e-12, 5.0)
    assert law.probs == (0.2 + 0.15, 0.3 + 0.1, 0.25)
    # the same run in either coordinate of a pair
    law = assert_same_atoms_as_greedy([(1.0, v) for v in values[:4]], probs[:4], True)
    assert len(law) == 2
    law = assert_same_atoms_as_greedy([(v, -1.0) for v in values[:4]], probs[:4], True)
    assert len(law) == 2


def test_discrete_law_pair_runs_whose_first_coordinate_varies():
    # (0.5e-12, -0.5e-12) is 1.5e-12 from its sorted predecessor but within
    # the tolerance of the atom's first value (0, 0), so the greedy rule
    # merges it
    values = [(0.0, 0.0), (0.0, 1e-12), (0.5e-12, -0.5e-12), (0.5e-12, 0.9e-12)]
    law = assert_same_atoms_as_greedy(values, [0.25] * 4)
    assert law.values == ((0.0, 0.0),)


@pytest.mark.parametrize("seed", range(6))
def test_discrete_law_matches_greedy_merge_on_jittered_ties(seed):
    rng = np.random.default_rng([seed, 7])
    count = 400
    centers = rng.integers(0, 5, size=(count, 2)).astype(float)
    jitter = 0.35e-12 * rng.integers(-4, 5, size=(count, 2))
    points = centers + jitter * (rng.random((count, 2)) < 0.6)
    probs = rng.random(count).tolist()
    assert_same_atoms_as_greedy(points[:, 0].tolist(), probs, normalize=True)
    assert_same_atoms_as_greedy(list(map(tuple, points.tolist())), probs, normalize=True)
    # pairs whose first coordinate is tied exactly, runs in the second
    points[:, 0] = centers[:, 0]
    assert_same_atoms_as_greedy(list(map(tuple, points.tolist())), probs, normalize=True)


def assert_bit_identical_laws(law, other):
    assert law.values_array().tobytes() == other.values_array().tobytes()
    assert law.probs_array().tobytes() == other.probs_array().tobytes()


# Integer centres plus multiples of 0.35e-12: exact ties, ties within
# ATOM_MERGE_TOL and tie runs that span up to 2.8e-12, wider than it.
jittered = st.tuples(st.integers(0, 3), st.integers(-4, 4)).map(
    lambda cj: cj[0] + 0.35e-12 * cj[1]
)
atom_lists = st.lists(
    st.tuples(jittered, jittered, st.floats(min_value=0.01, max_value=1.0)),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atoms=atom_lists, data=st.data())
def test_discrete_law_does_not_depend_on_atom_order(atoms, data):
    order = data.draw(st.permutations(range(len(atoms))))
    shuffled = [atoms[k] for k in order]
    for pick in (lambda a: a[0], lambda a: (a[0], a[1])):
        law = DiscreteLaw([pick(a) for a in atoms], [a[2] for a in atoms], normalize=True)
        again = DiscreteLaw(
            [pick(a) for a in shuffled], [a[2] for a in shuffled], normalize=True
        )
        assert_bit_identical_laws(law, again)


def test_discrete_law_merge_is_free_of_the_sort_kind():
    # tied values the default argsort orders differently from a stable one
    rng = np.random.default_rng(0)
    values = rng.integers(0, 3, size=64) + 0.4e-12 * rng.integers(0, 2, size=64)
    probs = rng.random(64)
    assert not np.array_equal(np.argsort(values), np.argsort(values, kind="stable"))
    law = assert_same_atoms_as_greedy(values.tolist(), probs.tolist(), normalize=True)
    stable = np.argsort(values, kind="stable")
    assert_bit_identical_laws(law, DiscreteLaw(values[stable], probs[stable], normalize=True))


def test_discrete_law_validation():
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteLaw([], [])
    with pytest.raises(ValueError, match="negative probability"):
        DiscreteLaw([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError, match="sum to"):
        DiscreteLaw([0.0, 1.0], [0.4, 0.4])
    with pytest.raises(ValueError, match="one probability per value"):
        DiscreteLaw([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match=r"\(m, 2\) values"):
        DiscreteLaw([(0.0, 1.0, 2.0)], [1.0])
    # normalize rescales instead of raising
    law = DiscreteLaw([0.0, 1.0], [0.4, 0.4], normalize=True)
    assert law.probs == (0.5, 0.5)
    with pytest.raises(ValueError, match="cannot normalize"):
        DiscreteLaw([0.0], [0.0], normalize=True)


def test_discrete_law_tuple_atoms():
    law = DiscreteLaw([(0.0, 1.0), (1.0, 0.0)], [0.5, 0.5])
    assert law.expectation(lambda v: v[0] + v[1]) == pytest.approx(1.0)
    js = law.to_json()
    assert js[0] == {"value": [0.0, 1.0], "prob": 0.5}


def test_tv_distance():
    a = DiscreteLaw([0.0, 1.0], [0.5, 0.5])
    b = DiscreteLaw([0.0, 1.0], [0.25, 0.75])
    c = DiscreteLaw([2.0], [1.0])
    assert a.tv_distance(a) == 0.0
    assert a.tv_distance(b) == pytest.approx(0.25)
    assert a.tv_distance(c) == pytest.approx(1.0)
    assert b.tv_distance(a) == a.tv_distance(b)


def test_exact_statistic_law_constant_matrix():
    # every permutation picks n entries equal to 1: one atom at n
    params = EwensParams(n=5, theta=1.0)
    law = exact_statistic_law(np.ones((5, 5)), params)
    assert len(law) == 1
    assert law.values[0] == pytest.approx(5.0)
    assert law.probs[0] == pytest.approx(1.0)


def test_exact_statistic_law_diag_counts_fixed_points():
    # identity matrix: Y = number of fixed points, so the mean is E[c1]
    params = EwensParams(n=6, theta=1.5)
    law = exact_statistic_law(np.eye(6), params)
    assert law.mean() == pytest.approx(c1_moments(params).mean, rel=1e-12)
    assert law.values[0] == 0.0 and law.values[-1] == 6.0


def scalar_statistic_law(A, params):
    """The law of Y one permutation at a time: fsum of A[i, pi(i)] and the
    Ewens pmf of each enumerated permutation."""
    rows = A.tolist()
    perms = list(enumerate_permutations(params.n))
    return DiscreteLaw(
        [math.fsum(rows[i][x - 1] for i, x in enumerate(perm.image)) for perm in perms],
        [ewens_pmf(perm.image, params) for perm in perms],
    )


@pytest.mark.parametrize("n", [2, 6, 7])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_exact_statistic_law_matches_scalar_enumeration(n, theta):
    rng = np.random.default_rng([n, int(10 * theta)])
    raw = rng.random((n, n))
    params = EwensParams(n=n, theta=theta)
    for A in ((raw + raw.T) / 2.0, np.round(9.0 * (raw + raw.T))):
        law = exact_statistic_law(A, params)
        reference = scalar_statistic_law(A, params)
        assert len(law) == len(reference)
        assert law.tv_distance(reference) <= 1e-12


def enumerated_statistic_law(A, params):
    """The law of Y from S_n in lexicographic order, cycle counts by a
    least-label walk, and greedily merged atoms."""
    n, theta = params.n, params.theta
    a = np.asarray(A, dtype=float)
    images = np.fromiter(
        chain.from_iterable(permutations(range(n))),
        dtype=np.intp,
        count=math.factorial(n) * n,
    ).reshape(-1, n)
    labels = np.arange(n)
    walk = images
    least = np.minimum(labels, walk)
    for _ in range(n - 2):
        walk = np.take_along_axis(images, walk, axis=1)
        np.minimum(least, walk, out=least)
    cycles = (least == labels).sum(axis=1)
    theta_powers = np.array([theta**k for k in range(n + 1)])
    probs = theta_powers[cycles] / rising_factorial(theta, n)
    ys = a[labels, images].sum(axis=1)
    return greedy_merge_reference(ys.tolist(), probs.tolist())


@pytest.mark.parametrize("n", [1, 2, 6, 7, 8])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_exact_statistic_law_is_bit_identical_to_enumeration(n, theta):
    rng = np.random.default_rng([n, int(10 * theta), 1])
    raw = rng.random((n, n))
    params = EwensParams(n=n, theta=theta)
    for A in ((raw + raw.T) / 2.0, np.round(9.0 * (raw + raw.T))):
        law = exact_statistic_law(A, params)
        values, probs = enumerated_statistic_law(A, params)
        assert law.values == values
        assert law.probs == probs


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_merged_masses_are_the_fsum_of_their_parts(n, theta, monkeypatch):
    # the parts of each merged atom are the sorted values from its first
    # value up to the next atom's; their fsum is the correctly rounded mass
    merges = []

    def spy(values, probs):
        merged = merge(values, probs)
        merges.append((values, probs) + merged)
        return merged

    merge = oracle._merge_atoms
    monkeypatch.setattr(oracle, "_merge_atoms", spy)
    rng = np.random.default_rng([n, int(10 * theta), 2])
    raw = rng.random((n, n))
    params = EwensParams(n=n, theta=theta)
    for A in ((raw + raw.T) / 2.0, np.round(9.0 * (raw + raw.T))):
        exact_statistic_law(A, params)
    assert len(merges) == 2
    kinds = set()
    for values, probs, merged_values, merged in merges:
        order = np.argsort(values, kind="stable")
        atom = np.searchsorted(merged_values, values[order], side="right") - 1
        parts = probs[order]
        groups = [parts[atom == k].tolist() for k in range(len(merged))]
        assert np.array_equal(merged, [math.fsum(g) for g in groups])
        kinds.update(len(set(g)) == 1 for g in groups if len(g) > 2)
    # atoms of more than two parts, of one mass and of mixed masses
    assert kinds == {True, False}


def test_exact_statistic_law_shape_check():
    with pytest.raises(ValueError, match="does not match"):
        exact_statistic_law(np.ones((4, 4)), EwensParams(n=5, theta=1.0))


def test_sn_cache_is_read_only_and_bounded():
    for n in range(1, MAX_MARGINAL_N + 1):
        columns, cycles = _sn_columns(n)
        assert columns.shape == (n, math.factorial(n)) and cycles.shape == (math.factorial(n),)
        assert columns.dtype == cycles.dtype == np.intp
        assert not columns.flags.writeable and not cycles.flags.writeable
        with pytest.raises(ValueError):
            columns[0, 0] = 1
        with pytest.raises(ValueError):
            cycles[0] = 1
        assert _sn_columns(n)[0] is columns
    with pytest.raises(ValueError, match="capped at n <= 8"):
        exact_statistic_law(np.zeros((9, 9)), EwensParams(n=9, theta=1.0))
    info = _sn_columns.cache_info()
    assert info.maxsize == MAX_MARGINAL_N
    assert info.currsize <= MAX_MARGINAL_N


def test_sn_cache_gives_the_same_law_cold_and_warm():
    rng = np.random.default_rng(8)
    raw = rng.random((8, 8))
    calls = [
        (A, EwensParams(n=8, theta=theta))
        for A in ((raw + raw.T) / 2.0, np.round(9.0 * (raw + raw.T)))
        for theta in (0.5, 2.0)
    ]
    runs = []
    for sequence in (calls, calls[::-1]):
        _sn_columns.cache_clear()
        laws = [exact_statistic_law(A, params) for A, params in sequence]
        assert _sn_columns.cache_info().misses == 1
        runs.append(laws)
    for cold, warm in zip(runs[0], runs[1][::-1]):
        assert_bit_identical_laws(cold, warm)


def test_sn_cache_under_concurrent_first_calls():
    rng = np.random.default_rng(9)
    raw = rng.random((8, 8))
    A, params = (raw + raw.T) / 2.0, EwensParams(n=8, theta=1.5)
    _sn_columns.cache_clear()
    barrier = threading.Barrier(2)
    laws = [None, None]

    def run(k):
        barrier.wait()
        laws[k] = exact_statistic_law(A, params)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert_bit_identical_laws(laws[0], laws[1])
    assert_bit_identical_laws(laws[0], exact_statistic_law(A, params))
    assert _sn_columns.cache_info().currsize == 1


def test_exact_expectation():
    params = EwensParams(n=5, theta=2.0)
    assert exact_expectation(lambda p: 1.0, params) == pytest.approx(1.0)
    got = exact_expectation(lambda p: float(len(p.fixed_points())), params)
    assert got == pytest.approx(c1_moments(params).mean, rel=1e-13)


def test_exact_square_bias_law_mass_and_support():
    rng = np.random.default_rng(3)
    raw = rng.random((5, 5))
    A = (raw + raw.T) / 2.0
    A = A - A.mean()
    params = EwensParams(n=5, theta=1.0)
    law = exact_square_bias_law(A, params)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-12)
    # the square-bias reweighting drops the diagonal y' == y''
    assert all(v[0] != v[1] for v in law.values)


def test_exact_square_bias_law_degenerate():
    params = EwensParams(n=5, theta=1.0)
    with pytest.raises(DegenerateError, match="degenerate square bias"):
        exact_square_bias_law(np.ones((5, 5)), params)
    with pytest.raises(ValueError, match="capped at n <= 6"):
        exact_square_bias_law(np.zeros((7, 7)), EwensParams(n=7, theta=1.0))


def test_square_bias_law_matches_definition():
    """Rebuild the law from its definition dF' ∝ (y'-y'')^2 dF and compare."""
    rng = np.random.default_rng(17)
    raw = rng.random((4, 4))
    A = (raw + raw.T) / 2.0
    params = EwensParams(n=4, theta=1.6)
    law = exact_square_bias_law(A, params)
    rows = A.tolist()

    def y_of(p):
        return math.fsum(rows[i][x - 1] for i, x in enumerate(p.image))

    atoms = {}
    for perm in enumerate_permutations(4):
        base = ewens_pmf(perm.image, params) / 12.0
        y1 = y_of(perm)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                y2 = y_of(perm.conjugate_by_transposition(i, j))
                w = base * (y1 - y2) ** 2
                if w > 0:
                    key = (round(y1, 10), round(y2, 10))
                    atoms[key] = atoms.get(key, 0.0) + w
    total = math.fsum(atoms.values())
    assert len(atoms) == len(law)
    for (y1, y2), w in atoms.items():
        idx = min(
            range(len(law)),
            key=lambda t: abs(law.values[t][0] - y1) + abs(law.values[t][1] - y2),
        )
        assert law.probs[idx] == pytest.approx(w / total, rel=1e-10)


def enumeration_uses(tree):
    """Names in a module's syntax tree that import, define or reference the
    oracle's enumerators or itertools.permutations."""
    enumerators = {"iter_case_configs", "enumerate_permutations"}
    itertools_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            itertools_names |= {a.asname or a.name for a in node.names if a.name == "itertools"}
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name in enumerators or (node.module == "itertools" and a.name == "permutations"):
                    found.append(f"imports {a.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in enumerators:
                found.append(f"defines {node.name}")
        elif isinstance(node, ast.Name) and node.id in enumerators:
            found.append(f"references {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in enumerators:
            found.append(f"references .{node.attr}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "permutations"
            and isinstance(node.value, ast.Name)
            and node.value.id in itertools_names
        ):
            found.append("references itertools.permutations")
    return found


# The package's module files, and those of them that declare __all__ (every
# one but cli.py); a module added or removed is named here on purpose.
MODULES = {
    "__init__", "bounds", "cli", "coupling", "distances", "ewens", "montecarlo",
    "oracle", "statistic",
}
EXPORTING = MODULES - {"cli"}


def module_files() -> list[Path]:
    files = sorted(Path(ewens_stein.__file__).parent.glob("*.py"))
    assert {p.stem for p in files} == MODULES
    return files


def test_enumeration_lives_only_in_the_oracle():
    """Brute-force enumeration is ground truth for the tests, never a
    production route: no module but oracle.py touches it."""
    package = Path(ewens_stein.__file__).parent
    modules = [p for p in module_files() if p.name != "oracle.py"]
    offenders = {
        p.name: uses
        for p in modules
        if (uses := enumeration_uses(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert offenders == {}
    oracle_tree = ast.parse((package / "oracle.py").read_text(encoding="utf-8"))
    assert "defines iter_case_configs" in enumeration_uses(oracle_tree)


def test_imports_live_at_module_level():
    """Every module under the package imports at its top: no function body
    holds an import statement."""
    modules = module_files()
    offenders = [
        f"{p.name}:{inner.lineno} in {node.name}"
        for p in modules
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert offenders == []


def test_every_exported_name_resolves():
    """Every name in the package's __all__ and in each module's __all__ is
    an attribute of that module, so removing a definition without its
    export fails here rather than on a star import."""
    modules = {
        p.stem: importlib.import_module(
            "ewens_stein" if p.stem == "__init__" else f"ewens_stein.{p.stem}"
        )
        for p in module_files()
    }
    exporting = [m for m in modules.values() if hasattr(m, "__all__")]
    assert {stem for stem, m in modules.items() if hasattr(m, "__all__")} == EXPORTING
    dangling = [
        f"{m.__name__}.{name}"
        for m in exporting
        for name in m.__all__
        if not hasattr(m, name)
    ]
    assert dangling == []


def test_package_attributes_are_its_modules():
    """ewens_stein.<m> is the submodule m for every module file: no name
    the package root exports hides a submodule."""
    stems = [p.stem for p in module_files() if p.name != "__init__.py"]
    for stem in stems:
        importlib.import_module(f"ewens_stein.{stem}")
    shadowed = [
        stem for stem in stems
        if getattr(ewens_stein, stem) is not sys.modules[f"ewens_stein.{stem}"]
    ]
    assert shadowed == []


def test_traced_entry_points_exist():
    """Every entry point the benchmark's tracer rebinds (perfbench/spans.py,
    TRACED) is still an attribute of its module, so deleting one fails
    here rather than in the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name, None)
        )
    ]
    assert missing == []
