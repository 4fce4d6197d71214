"""The package's public surface."""

import safelift as sl


def test_every_export_resolves():
    missing = [name for name in sl.__all__ if not hasattr(sl, name)]
    assert missing == []
