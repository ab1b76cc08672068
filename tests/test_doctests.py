"""Keep the inline usage examples honest."""
import doctest

import pytest

from eisenlab import (cli, cyclotomic, eisenstein, hull, quasiforms, ratfunc,
                      verifiers)

MODULES = (cyclotomic, ratfunc, hull, eisenstein, quasiforms, verifiers, cli)


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__.split(".")[-1] for m in MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
