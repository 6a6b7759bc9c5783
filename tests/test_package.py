"""The public namespace: what `from polydelay import *` exports."""

import polydelay as pdl


def test_all_names_resolve_once():
    missing = [name for name in pdl.__all__ if not hasattr(pdl, name)]
    assert missing == []
    assert len(pdl.__all__) == len(set(pdl.__all__))
