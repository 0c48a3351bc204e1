import types

import toricfg


def test_star_import_binds_no_module():
    namespace = {}
    exec("from toricfg import *", namespace)
    namespace.pop("__builtins__")
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert sorted(namespace) == sorted(toricfg.__all__)
    assert "failing_cones" in namespace and "is_strongly_decomposable" in namespace
