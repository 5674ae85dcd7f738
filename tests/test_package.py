import triality


def test_every_exported_name_resolves():
    assert len(set(triality.__all__)) == len(triality.__all__)
    for name in triality.__all__:
        assert hasattr(triality, name), name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from triality import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(triality.__all__)
