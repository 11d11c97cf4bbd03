"""The package's public names: every entry of ``__all__`` resolves, so a
removal that leaves a stale export fails here rather than at
``from sigma_eikonal import *``."""

import sigma_eikonal


def test_every_name_in_all_resolves():
    names = sigma_eikonal.__all__
    missing = [name for name in names if not hasattr(sigma_eikonal, name)]
    assert not missing, f"stale exports in __all__: {missing}"
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from sigma_eikonal import *", namespace)
    assert set(names) <= namespace.keys()
