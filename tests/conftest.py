from arborist import _bigmul


def force_python_products(monkeypatch):
    """Make libgmp fail to load, so the next full-size product binds CPython's ``*``."""
    import ctypes

    def absent(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", absent)
    monkeypatch.setattr(_bigmul, "_products", None)
