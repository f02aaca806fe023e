"""Elastic scaling: one live 3->9 growth under CS traffic (DESIGN.md §10)."""

import pytest

pytestmark = pytest.mark.slow  # a continuous migration run takes minutes


def test_elastic_scaling(regenerate):
    regenerate("elastic_scaling")
