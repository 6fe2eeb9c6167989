import ast
import types
from pathlib import Path

import pytest

import qchan
from qchan import builtin_kernel, measures, optimize
from qchan.channels import make_channel

INIT = Path(qchan.__file__)

# The public names that benchmarks/ reads through ``qchan``.
BENCHMARK_NAMES = (
    "KrausChannel", "ad", "gad", "unruh", "rtn", "pd", "rtn_kernel", "closed_form_mu", "state_pair", "incompatibility",
    "apply",
)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qchan import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qchan.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert len(qchan.__all__) == len(set(qchan.__all__)) == 47
    assert set(BENCHMARK_NAMES) <= set(qchan.__all__)


def test_each_public_name_is_written_once():
    # __all__ is derived from the import statements, which name each export once and nothing else.
    tree = ast.parse(INIT.read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(qchan.__all__)
    assert not any(isinstance(node, ast.Constant) and node.value in qchan.__all__ for node in ast.walk(tree))


def test_closed_forms_live_with_the_registry():
    assert qchan.closed_form_mu is qchan.channels.closed_form_mu is optimize.closed_form_mu
    imports = [node.module for node in ast.parse(Path(measures.__file__).read_text()).body if isinstance(node, ast.ImportFrom)]
    assert "channels" not in imports


def test_grid_contract_is_defined_once():
    # The library's two grid sizes, OptimizerConfig's and brute_force_mu's n, take one check whose message names its
    # source; the CLI takes no grid size.
    assert optimize.DEFAULT_GRID == optimize.OptimizerConfig().grid_points_per_angle
    top = optimize.MAX_GRID_POINTS
    for value in (1, top + 1):
        with pytest.raises(ValueError, match=rf"^grid_points_per_angle must be between 2 and {top}, got {value}$"):
            optimize.OptimizerConfig(grid_points_per_angle=value)
        with pytest.raises(ValueError, match=rf"^n must be between 2 and {top}, got {value}$"):
            optimize.brute_force_mu(qchan.pd(0.25), value)
    for value in (2, top):
        assert optimize.check_grid(value, "n") == value
        assert optimize.OptimizerConfig(grid_points_per_angle=value).grid_points_per_angle == value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: builtin_kernel("rtn-damped", {}), r"^kernel rtn-damped is missing parameter\(s\): gamma, b$"),
        (lambda: make_channel("gad", {}), r"^channel gad is missing parameter\(s\): alpha, xi$"),
        (lambda: builtin_kernel("nmd-linear", {"a": 1, "b": 2}), r"^kernel nmd-linear does not take parameter\(s\): a, b$"),
        (lambda: make_channel("ad", {"gamma": 0.5, "a": 1, "b": 2}), r"^channel ad does not take parameter\(s\): a, b$"),
    ],
    ids=["kernel-missing", "channel-missing", "kernel-extra", "channel-extra"],
)
def test_parameter_messages_name_every_offender(build, message):
    with pytest.raises(ValueError, match=message):
        build()
