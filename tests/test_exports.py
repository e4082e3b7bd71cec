"""Every name a module exports exists, so ``from tsvfsim.<module> import *`` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["tsvfsim", "tsvfsim.meter", "tsvfsim.network",
                                    "tsvfsim.oracle", "tsvfsim.sampling", "tsvfsim.tsvf"])
def test_every_exported_name_exists(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
