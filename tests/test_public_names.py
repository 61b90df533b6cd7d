"""The package's public name list matches what the package defines."""

from __future__ import annotations

import gapstego


def test_every_listed_name_resolves():
    missing = [name for name in gapstego.__all__ if not hasattr(gapstego, name)]
    assert missing == []


def test_no_name_listed_twice():
    assert len(gapstego.__all__) == len(set(gapstego.__all__))
