"""Each concept has one kernel: the layering of ``src/birlab``, read with ``ast``,
and the parameters and fields deleted as unused stay deleted."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from birlab import maps, measure, mixing, observables, potential, runner

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


@pytest.mark.parametrize("name", ["eval_rows_checked", "FsForm", "ChartCoords", "RunManifest",
                                  "correlation", "correlation_two_sided"])
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
    "maps.roundtrip_residuals": (maps.roundtrip_residuals, ["pair", "count", "seed"]),
    "maps.identity_map": (maps.identity_map, []),
    # the pair decides which proven rate applies, the series its depth
    "mixing.theoretical_rate": (mixing.theoretical_rate, ["pair", "alpha"]),
    "runner.compare_to_theory": (runner.compare_to_theory, ["summary", "pair", "alpha"]),
    "potential.v_n_rows": (potential.v_n_rows, ["series", "Z"]),
    "potential.v_n": (potential.v_n, ["series", "p"]),
}
FIELDS = {
    "CnSequence": (mixing.CnSequence, ["c", "partial_sums", "stderr", "dropped_fraction"]),
    "CorrelationSeries": (mixing.CorrelationSeries, ["entries"]),
    "Observable": (observables.Observable, ["name", "smoothness", "norm_estimate", "fn"]),
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


def test_rows_are_crossed_by_one_kernel():
    assert _innermost(_calls("cross")) == set()
    assert _innermost(_calls_name("cross_rows")) == {("projective", "tangent_frames"), ("maps", "differential_rows")}


def test_the_mixing_estimators_walk_their_orbits_in_one_place():
    # one walk builds every OrbitTable, one slice at a time, and only the table steps
    assert _innermost(_calls_name("OrbitTable")) == {("mixing", "_orbit_values")}
    steps = {owner for module, owner in _innermost(_calls_name("step_rows")) if module == "mixing"}
    assert steps == {"advance_to"}


def test_the_covariance_cells_have_one_kernel():
    # every orbit walk, resample and covariance cell, and every lag check, runs
    # in the two-sided kernel or in the c_n means
    kernels = {("mixing", "_cov_grid"), ("mixing", "c_sequence")}
    for name in ("_orbit_values", "_boot_rng", "_check_lags"):
        assert _innermost(_calls_name(name)) == kernels
    assert _innermost(_calls_name("_weighted_cov_boot")) == {("mixing", "_cov_grid")}
