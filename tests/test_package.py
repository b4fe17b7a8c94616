import proxyssl


def test_public_names_resolve_once():
    names = proxyssl.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(proxyssl, name) for name in names)
