"""Tests for the package's public namespace."""

import twirlsim


def test_every_export_resolves_once():
    names = twirlsim.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(twirlsim, name)] == []
