"""The import surface: every public name has one path, through its module."""

import pytest

import compensator_bounds
import compensator_bounds.cli  # noqa: F401  (imports every layer)

LAYERS = ("functions", "optimize", "recursion", "bellman", "chains",
          "shift", "cli")


def test_layers_resolve_after_cli_import():
    assert isinstance(compensator_bounds.__version__, str)
    for name in LAYERS:
        module = getattr(compensator_bounds, name)
        for public in module.__all__:
            assert hasattr(module, public), f"{name}.{public}"
    # The package root carries no second copy of the module names.
    with pytest.raises(ImportError):
        from compensator_bounds import value_iteration  # noqa: F401
