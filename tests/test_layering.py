"""Each concept has one kernel: the layering of ``src/birlab``, read with ``ast``,
and the parameters and fields deleted as unused stay deleted."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from birlab import genericity, maps, measure, mixing, observables, potential, projective, runner

SRC = Path(__file__).resolve().parent.parent / "src" / "birlab"


def _innermost(predicate):
    """(module, function) pairs of the innermost functions holding a node that
    satisfies ``predicate``; module-level code is reported as ``<module>``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if predicate(node):
                found.add((path.stem, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, "<module>")
    return found


def _calls(attr):
    return lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr
    )


def _compares_with(name):
    return lambda node: isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Name) and n.id == name for n in [node.left, *node.comparators]
    )


def test_map_evaluation_has_one_checked_step():
    assert _innermost(_calls("eval_rows")) == {("maps", "step_rows")}
    assert _innermost(_compares_with("EPS_IND")) == {("maps", "step_rows")}


def test_jacobians_are_evaluated_only_by_the_differential_step():
    assert _innermost(_calls("jacobian_rows")) == {("maps", "differential_rows")}


def test_polynomials_are_evaluated_by_one_term_loop():
    # F, each formal partial and each Jacobian entry go through _add_terms; partial
    # loops over the terms to differentiate them, RationalMapRep.__post_init__ to
    # check the length of each multi-index
    def loops_over_terms(node):
        loops = [node] if isinstance(node, (ast.For, ast.AsyncFor)) else getattr(node, "generators", [])
        return any(isinstance(loop.iter, ast.Attribute) and loop.iter.attr == "terms" for loop in loops)

    assert _innermost(loops_over_terms) == {("maps", "_add_terms"), ("maps", "partial"), ("maps", "__post_init__")}
    assert {owner for module, owner in _innermost(_calls_name("_add_terms"))} == {
        "__call__", "eval_rows", "jacobian_rows",
    }
    # a term starts from its coefficient, not from an array filled with it
    assert "np.full" not in (SRC / "maps.py").read_text()


def test_maps_has_no_matrix_product():
    # a BLAS product rounds a row by the length of its batch; the row kernels stay elementwise
    def product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        return _calls("matmul")(node) or _calls("dot")(node)

    assert {owner for module, owner in _innermost(product) if module == "maps"} == set()


@pytest.mark.parametrize("name", ["eval_rows_checked", "FsForm", "ChartCoords", "RunManifest",
                                  "correlation", "correlation_two_sided", "min_set_distance",
                                  "degree_sequence", "JACOBIAN_BLOCK", "_monomials", "_monomial_exponents",
                                  "monomial", "smoothness_alpha", "roundtrip_residuals", "wedge_density"])
def test_removed_pass_through_names_stay_gone(name):
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.alias):
                defined.add(node.asname or node.name)
    assert name not in defined


# what each public entry point takes and each result type holds, and no more
SIGNATURES = {
    "measure.approx_mu": (measure.approx_mu, ["pair", "m", "count", "seed"]),
    "measure.approx_T_plus_wedge_omega": (measure.approx_T_plus_wedge_omega, ["pair", "m", "count", "seed"]),
    "potential.green_plus_henon": (potential.green_plus_henon, ["pair", "p_affine", "max_iter"]),
    # the pair decides which proven rate applies, the series its depth
    "mixing.theoretical_rate": (mixing.theoretical_rate, ["pair", "alpha"]),
    "runner.compare_to_theory": (runner.compare_to_theory, ["summary", "pair", "alpha"]),
    "potential.v_n_rows": (potential.v_n_rows, ["series", "Z"]),
    "potential.v_n": (potential.v_n, ["series", "p"]),
    # P^2 is the only space, so no entry point takes its dimension
    "projective.sample_fs_rows": (projective.sample_fs_rows, ["count", "seed"]),
    "projective.sample_fs": (projective.sample_fs, ["count", "seed"]),
    "projective.chart_disc": (projective.chart_disc, ["seed", "count", "radius"]),
    "potential.calibration_points": (potential.calibration_points, ["chart"]),
    "mixing.split_lags": (mixing.split_lags, ["N"]),
}
FIELDS = {
    # a pair holds only what varies between pairs: no k, no s
    "BirationalPair": (maps.BirationalPair, ["fwd", "bwd", "ind_fwd", "ind_bwd", "regular", "meta"]),
    # the degree is read from the components, and the partials are cached from them
    "RationalMapRep": (maps.RationalMapRep, ["components"]),
    "IndeterminacyOrbit": (genericity.IndeterminacyOrbit, ["steps", "flagged_at"]),
    "CnSequence": (mixing.CnSequence, ["c", "partial_sums", "stderr", "dropped_fraction"]),
    "CorrelationSeries": (mixing.CorrelationSeries, ["entries"]),
    # each builder states its alpha; the smoothness label is a property of it
    "Observable": (observables.Observable, ["name", "alpha", "norm_estimate", "fn"]),
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_removed_parameters_stay_gone(name):
    fn, params = SIGNATURES[name]
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_removed_fields_stay_gone(name):
    cls, names = FIELDS[name]
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_observables_are_called_through_fn_only():
    assert "__call__" not in vars(observables.Observable)


def test_the_smoothness_label_is_made_once_and_never_read_back():
    # no tag is formatted from a builder's bound arguments, and no code parses one
    assert {owner for module, owner in _innermost(_mentions({"inspect"})) if module == "observables"} == set()
    holder = _innermost(lambda node: isinstance(node, ast.Constant) and "Holder(" in str(node.value))
    assert holder == {("observables", "smoothness")}
    reads = _innermost(lambda node: isinstance(node, ast.Attribute) and node.attr == "smoothness")
    assert reads == {("runner", "_observable_summary")}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _mixing_function(name):
    (fn,) = [
        node for node in ast.walk(ast.parse((SRC / "mixing.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return fn


@pytest.mark.parametrize("name", ["decay_fit", "_as_triples", "_wls"])
def test_the_decay_fit_has_no_python_loop(name):
    assert [type(node).__name__ for node in ast.walk(_mixing_function(name)) if isinstance(node, LOOPS)] == []


def test_wls_is_the_only_least_squares_code():
    # the point fit and every bootstrap replicate share the one row kernel
    fitters = re.compile(r"wls|least_?squares|lstsq|polyfit|linregress", re.I)
    assert _innermost(
        lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and fitters.search(node.name)
    ) == {("mixing", "_wls")}
    for attr in ("lstsq", "polyfit", "linregress"):
        assert _innermost(_calls(attr)) == set()
    calls = _innermost(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_wls")
    assert calls == {("mixing", "decay_fit")}


def test_the_pullback_chain_has_one_path_and_no_knob():
    # the slice size is one constant of maps, not a parameter
    params = inspect.signature(maps.pullback_chain).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [("pair", empty), ("Z0", empty), ("m", empty), ("direction", "fwd")]
    assert [path.name for path in sorted(SRC.glob("*.py")) if "CHAIN_CHUNK" in path.read_text()] == ["maps.py"]
    # measure hands each chain its whole batch: no loop and no slice of its own
    calls = []

    def visit(node, in_loop):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pullback_chain":
            calls.append((in_loop, any(isinstance(arg, ast.Subscript) for arg in node.args)))
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, LOOPS))

    visit(ast.parse((SRC / "measure.py").read_text()), False)
    assert calls and set(calls) == {(False, False)}


def _calls_name(name):
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _mentions(names):
    """A name, attribute or imported module path that is one of ``names``."""
    return lambda node: (
        (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and not names.isdisjoint(node.name.split(".")))
    )


def test_one_function_starts_threads_and_none_reads_the_environment():
    # the task pool is the only concurrency, sized by the CPUs alone: no knob
    threads = {"threading", "_thread", "Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "multiprocessing"}
    assert _innermost(_mentions(threads)) == {("maps", "for_each")}
    assert _innermost(_mentions({"environ", "getenv"})) == set()


def test_row_slices_are_walked_only_by_for_each_slice():
    # every loop over the slices of a batch, and over the bootstrap cells, goes through the one pool
    assert _innermost(_calls_name("row_slices")) == {("maps", "for_each_slice")}
    callers = {module for module, _ in _innermost(_calls_name("for_each_slice"))}
    assert callers == {"maps", "mixing", "observables"}
    assert _innermost(_calls_name("for_each")) == {
        ("maps", "for_each_slice"), ("mixing", "_cov_grid"), ("mixing", "c_sequence"),
    }


def test_rows_are_crossed_by_one_kernel():
    assert _innermost(_calls("cross")) == set()
    assert _innermost(_calls_name("cross_rows")) == {("projective", "tangent_frames"), ("maps", "differential_rows")}


def test_the_mixing_estimators_walk_their_orbits_in_one_place():
    # the per-slice walk of _orbit_values builds every OrbitTable, and only the table steps
    assert _innermost(_calls_name("OrbitTable")) == {("mixing", "walk_slice")}
    # walk_slice is nested in _orbit_values and handed to the slice pool, never called directly
    orbit_values = _mixing_function("_orbit_values")
    nested = [node.name for node in ast.walk(orbit_values) if isinstance(node, ast.FunctionDef)]
    assert nested == ["_orbit_values", "walk_slice"]
    assert _innermost(_calls_name("walk_slice")) == set()
    steps = {owner for module, owner in _innermost(_calls_name("step_rows")) if module == "mixing"}
    assert steps == {"advance_to"}


def test_the_covariance_cells_have_one_kernel():
    # every orbit walk, resample and covariance cell, and every lag check, runs
    # in the two-sided kernel or in the c_n means
    kernels = {("mixing", "_cov_grid"), ("mixing", "c_sequence")}
    for name in ("_orbit_values", "_boot_rng", "_check_lags"):
        assert _innermost(_calls_name(name)) == kernels
    # each cell is a task nested in its kernel, handed to the pool and never called directly
    assert _innermost(_calls_name("_weighted_cov_boot")) == {("mixing", "cell")}
    assert _innermost(_calls_name("_weighted_mean_boot")) == {("mixing", "lag")}
    for kernel, task in (("_cov_grid", "cell"), ("c_sequence", "lag")):
        nested = [node.name for node in ast.walk(_mixing_function(kernel)) if isinstance(node, ast.FunctionDef)]
        assert nested == [kernel, task]
        assert _innermost(_calls_name(task)) == set()


def test_points_are_built_only_at_the_scalar_edge():
    # every array path stays on rows; a ProjPoint is made only where the scalar API returns one
    assert _innermost(_calls_name("ProjPoint")) == {
        ("projective", "normalize"), ("projective", "sample_fs"), ("maps", "eval_point"),
    }


def _assert_read_only_rows(rows, points):
    assert rows.shape == (len(points), 3) and rows.dtype == complex
    assert rows.flags.c_contiguous and not rows.flags.writeable
    expect = np.array([p.coords for p in points])
    assert np.array_equal(rows.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("p_coeffs", [[-1.2, 0.0, 1.0], [0.1, -1.0, 0.0, 1.0]])
def test_henon_indeterminacy_sets_are_read_only_rows(p_coeffs):
    pair = maps.make_henon(0.3, p_coeffs)
    _assert_read_only_rows(pair.ind_fwd, [projective.normalize([1, 0, 0])])
    _assert_read_only_rows(pair.ind_bwd, [projective.normalize([0, 1, 0])])


@pytest.mark.parametrize("A", [np.eye(3), maps.random_unitary(7), [[1, 0, 2], [1, 1, -2], [1, -1, 0]]])
def test_cremona_indeterminacy_sets_are_read_only_rows(A):
    pair = maps.make_cremona_composed(A)
    A_inv = np.linalg.inv(np.asarray(A, dtype=complex))
    _assert_read_only_rows(pair.ind_fwd, [projective.normalize(A_inv @ e) for e in np.eye(3)])
    _assert_read_only_rows(pair.ind_bwd, [projective.normalize(e) for e in np.eye(3)])
    # the rows are left out of == and hash, as the compiled Jacobians are
    assert pair == maps.make_cremona_composed(A) and hash(pair) == hash(maps.make_cremona_composed(A))


def test_only_maps_names_the_dead_row_bound():
    # genericity's EPS_DEGENERATE is an FS-distance bound with its own value
    assert {module for module, _ in _innermost(_mentions({"EPS_IND"}))} == {"maps"}


def test_outside_numbers_and_counts_are_checked_in_one_place():
    # errors.number owns "a finite number in the float range", errors.count "an integer >= least"
    def catches_overflow(node):
        return isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.unparse(node.type or ast.Constant(None))

    def rejects_bool(node):
        return (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and "bool" in ast.unparse(node.args[1])
        )

    assert _innermost(catches_overflow) == {("errors", "number")}
    assert _innermost(rejects_bool) == {("errors", "number"), ("errors", "count")}
