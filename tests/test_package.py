from __future__ import annotations

import fraudsift


def test_every_export_resolves():
    assert len(set(fraudsift.__all__)) == len(fraudsift.__all__)
    assert [name for name in fraudsift.__all__ if not hasattr(fraudsift, name)] == []
