"""The package's export list."""

import qcsd


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from qcsd import *", namespace)
    assert len(set(qcsd.__all__)) == len(qcsd.__all__)
    for name in qcsd.__all__:
        assert namespace[name] is getattr(qcsd, name)
